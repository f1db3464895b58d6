"""The packed-row elimination in ccring.linalg against a plain reference.

The reference below is row reduction on coordinate lists, one
coordinate at a time: the pivot is the first nonzero coordinate, scaled
to 1, and every pivot column is cleared in the other rows.  The packed
routine must give the same rows, pivots, membership answers and kernels,
also on the matrices that stress its unreduced slots most.
"""

import functools
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccring import linalg
from ccring.linalg import FpSpace, kernel, pack, slot_bits, unpack

PRIMES = [2, 3, 5, 65521, 2147483647]


def ref_reduce(rows, pivots, vec, p):
    for row, piv in zip(rows, pivots):
        c = vec[piv]
        if c:
            for i in range(piv, len(vec)):
                vec[i] = (vec[i] - c * row[i]) % p


def ref_insert(rows, pivots, vec, p):
    ref_reduce(rows, pivots, vec, p)
    piv = next((i for i, x in enumerate(vec) if x), None)
    if piv is None:
        return False
    inv = pow(vec[piv], p - 2, p)
    vec[:] = [x * inv % p for x in vec]
    for idx, row in enumerate(rows):
        c = row[piv]
        if c:
            rows[idx] = [(a - c * b) % p for a, b in zip(row, vec)]
    rows.append(vec)
    pivots.append(piv)
    return True


def ref_rref(p, dim, mat):
    rows, pivots = [], []
    for vec in mat:
        ref_insert(rows, pivots, [x % p for x in vec], p)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [rows[i] for i in order], [pivots[i] for i in order]


def ref_kernel(p, dim, mat):
    rows, pivots = ref_rref(p, dim, mat)
    basis = []
    for f in (i for i in range(dim) if i not in pivots):
        vec = [0] * dim
        vec[f] = 1
        for row, piv in zip(rows, pivots):
            vec[piv] = -row[f] % p
        basis.append(vec)
    return ref_rref(p, dim, basis)


def random_matrix(rng, p, dim, nrows, shape):
    """Rows of the given shape: random, low rank (mostly dependent), with
    repeats, or all zero."""
    def vec():
        return [rng.randrange(p) if rng.random() < 0.7 else 0 for _ in range(dim)]

    if shape == "random":
        return [vec() for _ in range(nrows)]
    if shape == "zero":
        return [[0] * dim for _ in range(nrows)]
    base = [vec() for _ in range(max(1, dim // 4))]
    combos = []
    for _ in range(nrows):
        coeffs = [rng.randrange(p) for _ in base]  # one per base vector, so rank <= len(base)
        combos.append([sum(c * v[i] for c, v in zip(coeffs, base)) % p for i in range(dim)])
    if shape == "dependent":
        return combos
    return [rng.choice(combos[:3]) for _ in range(nrows)]  # duplicates


CASES = [
    (p, dim, shape)
    for p in PRIMES
    for dim in (0, 1, 5, 17, 70)
    for shape in ("random", "dependent", "duplicates", "zero")
]


@pytest.mark.parametrize("p, dim, shape", CASES)
def test_packed_elimination_matches_the_reference(p, dim, shape):
    rng = random.Random(f"{p} {dim} {shape}")
    nrows = rng.randrange(0, dim + 6) if dim < 70 else 80
    mat = random_matrix(rng, p, dim, nrows, shape)
    space = FpSpace.from_rows(p, dim, [pack(p, dim, row) for row in mat])
    rows, pivots = ref_rref(p, dim, mat)
    if shape in ("dependent", "duplicates"):
        assert len(pivots) <= max(1, dim // 4)  # combinations of that many base vectors
    assert [unpack(p, dim, row) for row in space.rows] == rows
    assert space.pivots == pivots
    assert space.key() == FpSpace.from_rows(p, dim, reversed(space.rows)).key()
    probes = random_matrix(rng, p, dim, 6, "random") + mat[:3]
    for vec in probes:
        inside = list(vec)
        ref_reduce(rows, pivots, inside, p)
        assert space.contains(pack(p, dim, vec)) == (not any(inside))

    ker = kernel([pack(p, dim, row) for row in mat], dim, p)
    krows, kpivots = ref_kernel(p, dim, mat)
    assert [unpack(p, dim, row) for row in ker.rows] == krows
    assert ker.pivots == kpivots
    assert ker.rank + space.rank == dim
    for krow in krows:
        for mrow in mat:
            assert sum(a * b for a, b in zip(krow, mrow)) % p == 0


@pytest.mark.parametrize("p", PRIMES)
def test_pack_roundtrip_and_slot_room(p):
    rng = random.Random(p)
    for dim in (0, 1, 3, 64, 65, 130):
        vals = [rng.randrange(p) for _ in range(dim)]
        assert unpack(p, dim, pack(p, dim, vals)) == vals
        # coordinates are taken mod p
        assert pack(p, dim, [v + p for v in vals]) == pack(p, dim, vals)
        if p > 2:  # room for an elimination's sums; p = 2 rows add by XOR
            assert (p - 1) * (1 + dim * (p - 1)) < 1 << slot_bits(p, dim)
    assert slot_bits(2, 200) == 1


def test_elements_are_the_whole_span():
    for p, dim in ((2, 4), (3, 3), (5, 2)):
        space = FpSpace.from_rows(p, dim, [pack(p, dim, [1] + [0] * (dim - 1)), pack(p, dim, [0] + [1] * (dim - 1))])
        elements = space.elements()
        assert len(set(elements)) == p ** 2
        want = {pack(p, dim, [a] + [b] * (dim - 1)) for a in range(p) for b in range(p)}
        assert set(elements) == want


def assert_kernel_is_the_reference(p, dim, mat):
    ker = kernel([pack(p, dim, row) for row in mat], dim, p)
    krows, kpivots = ref_kernel(p, dim, mat)
    assert [unpack(p, dim, row) for row in ker.rows] == krows
    assert ker.pivots == kpivots


def rows_per_basis_vector(rng, p, dim, rank, per):
    """per rows for each of rank random basis vectors, as the oracle's
    pairing matrices have (per = 2m): the vector itself, then random
    combinations of it and the vectors before it, which are dependent."""
    basis = [[rng.randrange(p) for _ in range(dim)] for _ in range(rank)]
    mat = []
    for k, vec in enumerate(basis):
        mat.append(vec)
        for _ in range(per - 1):
            coeffs = [rng.randrange(p) for _ in range(k + 1)]
            mat.append([sum(c * b[i] for c, b in zip(coeffs, basis)) % p for i in range(dim)])
    return mat


@pytest.mark.parametrize("p", [2, 3, 5, 65521])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_kernel_of_the_oracle_row_shape(p, m):
    rng = random.Random(f"{p} {m}")
    for dim in (2 * m, 12, 24, 36):
        for rank in (1, dim // 3, dim // 2):
            assert_kernel_is_the_reference(p, dim, rows_per_basis_vector(rng, p, dim, rank, 2 * m))


def walk_heavy(p, dim, nfree, last):
    """(rows, vec): rows with pivots at the dim - nfree slots on one side,
    each holding p - 1 in every slot on its far side, and a vec whose
    walk meets every pivot with coefficient 1.  Each step then adds
    (p - 1)^2 to every slot not yet passed, so the slots past the last
    pivot reach p - 1 plus dim - nfree such products: the sums slot_bits
    leaves room for."""
    if last:
        rows = [[p - 1] * t + [1] + [0] * (dim - 1 - t) for t in range(nfree, dim)]
        # slot t is met after the dim - 1 - t pivots above it, each adding (p - 1)^2 = 1 mod p
        return rows, [(1 - (dim - 1 - t)) % p for t in range(dim)]
    rows, vec = walk_heavy(p, dim, nfree, True)
    return [row[::-1] for row in rows], vec[::-1]


EDGES = [(3, 63), (3, 64), (5, 16), (65521, 8), (65521, 40)]


@pytest.mark.parametrize("p, dim", EDGES)
def test_unreduced_slots_at_the_width_edges(p, dim):
    if p == 3:  # 8-bit slots up to dim 63, then 16-bit
        assert slot_bits(p, dim) == (8 if dim < 64 else 16)
    rng = random.Random(f"{p} {dim}")
    for nfree in (0, 1, 2, dim // 2):
        rows, vec = walk_heavy(p, dim, nfree, last=True)
        assert_kernel_is_the_reference(p, dim, rows + [vec])
        assert_kernel_is_the_reference(p, dim, [vec] + rows)
        rows, vec = walk_heavy(p, dim, nfree, last=False)
        space = FpSpace.from_rows(p, dim, [pack(p, dim, row) for row in rows])
        ref_rows, ref_pivots = ref_rref(p, dim, rows)
        inside = list(vec)
        ref_reduce(ref_rows, ref_pivots, inside, p)
        assert space.contains(pack(p, dim, vec)) == (not any(inside))
        assert space.insert(pack(p, dim, vec)) == any(inside)
        ref_rows, ref_pivots = ref_rref(p, dim, rows + [vec])
        assert [unpack(p, dim, row) for row in space.rows] == ref_rows
        assert space.pivots == ref_pivots
    mat = [[rng.randrange(p) for _ in range(dim)] for _ in range(dim + 4)]
    assert_kernel_is_the_reference(p, dim, mat)
    assert_kernel_is_the_reference(p, dim, rows_per_basis_vector(rng, p, dim, dim // 2, 4))


@pytest.mark.parametrize("p", [3, 5, 65521])
def test_a_dependent_row_costs_no_mod(p, monkeypatch):
    rng = random.Random(p)
    dim, rank, per = 12, 6, 4
    mat = [pack(p, dim, row) for row in rows_per_basis_vector(rng, p, dim, rank, per)]
    basis, deps = mat[::per], [vec for k, vec in enumerate(mat) if k % per]
    calls = []
    real = linalg._mod
    monkeypatch.setattr(linalg, "_mod", lambda *args: calls.append(args) or real(*args))

    alone = kernel(basis, dim, p)
    made = len(calls)
    assert kernel(basis + deps, dim, p) == alone
    assert len(calls) == 2 * made

    space = FpSpace.from_rows(p, dim, basis)
    assert space.rank == rank
    calls.clear()
    for vec in deps:
        assert space.contains(vec)
        assert not space.insert(vec)
    assert not calls


def test_spaces_of_different_fields_or_dimensions_differ():
    a, b, c = FpSpace.from_rows(2, 4, [1]), FpSpace.from_rows(3, 4, [1]), FpSpace.from_rows(2, 6, [1])
    assert a.key() == b.key() == c.key()
    assert a != b and a != c and b != c
    assert a == FpSpace.from_rows(2, 4, [1, 1]) == FpSpace(2, 4, [1], [0])


# -- p = 2: the XOR loops against the reference ------------------------------------

# word and byte edges; 7, 8 and 9 leave a short last byte table
EDGE_DIMS = [7, 8, 9, 63, 64, 65]


@st.composite
def binary_matrices(draw):
    """(dim, rows): rows of F_2^dim as packed ints, often dependent."""
    dim = draw(st.sampled_from(EDGE_DIMS) | st.integers(1, 130))
    word = st.integers(0, (1 << dim) - 1)
    base = draw(st.lists(word, min_size=1, max_size=8))
    # XORs of a few base rows, so that many rows lie in the span
    combos = st.lists(st.sampled_from(base), max_size=4).map(lambda picks: functools.reduce(operator.xor, picks, 0))
    rows = draw(st.lists(word | combos, max_size=24))
    return dim, rows


def bits_of(dim, vec):
    return [vec >> i & 1 for i in range(dim)]


def reversed_bits(dim, vec):
    return int(format(vec, f"0{dim}b")[::-1], 2)


@settings(max_examples=60, deadline=None)
@given(binary_matrices(), st.lists(st.integers(0), max_size=6))
def test_binary_loops_match_the_reference(case, probes):
    dim, mat = case
    coords = [bits_of(dim, vec) for vec in mat]
    rows, pivots = ref_rref(2, dim, coords)
    space = FpSpace(2, dim)
    for vec, before in zip(mat, range(len(mat))):
        inside = bits_of(dim, vec)
        ref_reduce(*ref_rref(2, dim, coords[:before]), inside, 2)
        assert space.contains(vec) == (not any(inside))
        assert space.insert(vec) == any(inside)
    assert [bits_of(dim, row) for row in space.rows] == rows and space.pivots == pivots
    for vec in [probe % (1 << dim) for probe in probes] + mat[:2]:
        inside = bits_of(dim, vec)
        ref_reduce(rows, pivots, inside, 2)
        assert space.contains(vec) == (not any(inside))

    ker = kernel(mat, dim, 2)
    krows, kpivots = ref_kernel(2, dim, coords)
    assert [bits_of(dim, row) for row in ker.rows] == krows and ker.pivots == kpivots

    # _rref from either side: echelon rows pivoted at their first nonzero
    # coordinate, and the same rows bit-reversed, pivoted at their last
    first = dict(FpSpace.from_rows(2, dim, mat)._at)
    assert [first[t] for t in linalg._rref(first, 2, dim)] == [pack(2, dim, row) for row in rows]
    echelon = FpSpace.from_rows(2, dim, [reversed_bits(dim, vec) for vec in mat])._at
    last = {dim - 1 - t: reversed_bits(dim, row) for t, row in echelon.items()}
    want, want_pivots = ref_rref(2, dim, [row[::-1] for row in coords])
    assert linalg._rref(last, 2, dim, last=True) == sorted(dim - 1 - t for t in want_pivots)
    assert sorted(last.values()) == sorted(pack(2, dim, row[::-1]) for row in want)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_basis_spans_the_space_and_builds_no_reduced_rows(p):
    rng = random.Random(p)
    dim = 17
    mat = [pack(p, dim, row) for row in rows_per_basis_vector(rng, p, dim, 4, 3)]
    space = FpSpace.from_rows(p, dim, mat)
    basis, elements = space.basis, space.elements()  # p^4 elements
    assert space._rows is None
    assert len(basis) == space.rank and FpSpace.from_rows(p, dim, basis) == space
    assert sorted(elements) == sorted(FpSpace(p, dim, space.rows, space.pivots).elements())
