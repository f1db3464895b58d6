"""The packed-row elimination in ccring.linalg against a plain reference.

The reference below is row reduction on coordinate lists, one
coordinate at a time: the pivot is the first nonzero coordinate, scaled
to 1, and every pivot column is cleared in the other rows.  The packed
routine must give the same rows, pivots, membership answers and kernels.
"""

import random

import pytest

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
    combos = [
        [sum(rng.randrange(p) * b[i] for b in base) % p for i in range(dim)] for _ in range(nrows)
    ]
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
