import hashlib
import random
from bisect import bisect
from itertools import islice, product
from types import SimpleNamespace

import pytest

from ccring import decomp, oracle
from ccring.chain import ChainCtx
from ccring.decomp import AmbientParams, build_factor_data
from ccring.dual import dual_code
from ccring.errors import TooLarge
from ccring.gf import field_new
from ccring.ideals import IdealSpec, enumerate_codes, enumerate_ideals, generator_rows, ideal_size
from ccring.linalg import _mod, kernel, pack, slot_bits, unpack
from ccring.oracle import (
    FpSpace,
    brute_ambient_ideals,
    brute_dual,
    brute_submodules,
    brute_u_closed_submodules,
    code_space,
    generator_matrix_spans,
    k_span,
    spec_span,
    submodule_count_formula,
    u_shift_closed,
    verify_suite,
)
from ccring.poly import Poly
from test_decomp import mulmod
from test_ideals import component_elements

# past these sizes the tests' own brute-force routes raise TooLarge
ALLPAIRS_BUDGET = 1 << 21
SCAN_BUDGET = 1 << 14


def pair_coords(ctx: ChainCtx, A: Poly, B: Poly) -> int:
    """The packed F_p row of (A, B) in K^2, as the oracle's spaces hold it."""
    return oracle._layout(ctx.modulus).pack(ctx.reduce(A), ctx.reduce(B))


def brute_submodules_allpairs(ctx: ChainCtx) -> set:
    """Literal spans of all ordered generator pairs; toy sizes only.

    Exists to validate the normalization in brute_submodules without
    assuming anything beyond closure under the ring action.
    """
    n2 = ctx.size ** 2
    if n2 * n2 > ALLPAIRS_BUDGET:
        raise TooLarge(f"|K^2|^2 = {n2 * n2} over budget {ALLPAIRS_BUDGET}")
    vecs = [
        (A, B)
        for A in ctx.residue_set(0, ctx.e)
        for B in ctx.residue_set(0, ctx.e)
    ]
    keys = set()
    singles = []
    for v in vecs:
        s = k_span(ctx, [v])
        singles.append(s)
        keys.add(s.key())
    for i, v in enumerate(vecs):
        base = singles[i]
        for w in vecs[i + 1 :]:
            if base.contains(pair_coords(ctx, *w)):
                continue
            keys.add(k_span(ctx, [v, w]).key())
    return keys


def brute_dual_scan(space: FpSpace, params: AmbientParams) -> set:
    """Full-scan dual: every ambient vector tested against every codeword."""
    field = params.field
    if params.ring_size() > SCAN_BUDGET:
        raise TooLarge("scan over budget")
    layout = oracle._ambient(params)
    dim = layout.dim
    words = space.elements()
    out = set()
    for digits in product(range(field.p), repeat=dim):
        vec = pack(field.p, dim, digits)
        a0, a1 = layout.unpack(vec)
        if all(_pair_orthogonal(params, a0, a1, *layout.unpack(w)) for w in words):
            out.add(vec)
    return out


def _pair_orthogonal(params, a0, a1, b0, b1) -> bool:
    field = params.field
    z0 = 0
    z1 = 0
    for i in range(params.N):
        z0 = field.add(z0, field.mul(a0[i], b0[i]))
        z1 = field.add(z1, field.add(field.mul(a0[i], b1[i]), field.mul(a1[i], b0[i])))
    return z0 == 0 and z1 == 0


def x_step_ref(modulus: Poly, a: Poly) -> Poly:
    """x * a mod the monic modulus, for a of lower degree."""
    field = a.ctx
    out = [0, *a.coeffs]
    if len(out) <= modulus.degree:
        return Poly(field, out)
    top = out.pop()
    low = modulus.coeffs
    return Poly(field, [field.sub(c, field.mul(top, r)) if r else c for c, r in zip(out, low)])


def chain_of(p, m, f_coeffs, e):
    F = field_new(p, m)
    return ChainCtx(Poly(F, list(f_coeffs)), e)


def rows_of(p, dim, rows):
    return [pack(p, dim, row) for row in rows]


def test_fpspace_canonical_form():
    a = FpSpace.from_rows(3, 3, rows_of(3, 3, [[1, 2, 0], [0, 1, 1]]))
    # same span presented through different combinations
    b = FpSpace.from_rows(3, 3, rows_of(3, 3, [[2, 2, 1], [1, 0, 1], [1, 1, 2]]))
    assert a.key() == b.key() and a == b
    assert [unpack(3, 3, row) for row in a.rows] == [[1, 0, 1], [0, 1, 1]]
    assert a.pivots == [0, 1]
    assert a.rank == 2 and a.size == 9
    assert a.contains(pack(3, 3, [1, 0, 1]))
    assert not a.contains(pack(3, 3, [0, 0, 1]))
    assert a.insert(pack(3, 3, [0, 0, 1])) and a.rank == 3
    assert not a.insert(pack(3, 3, [2, 2, 2]))
    assert len(a.elements()) == 27


def test_kernel_rank_nullity_and_orthogonality():
    rng = random.Random(11)
    p = 5
    for _ in range(10):
        dim = rng.randrange(2, 7)
        mat = [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randrange(1, 5))]
        ker = kernel(rows_of(p, dim, mat), dim, p)
        rowspace = FpSpace.from_rows(p, dim, rows_of(p, dim, mat))
        assert ker.rank + rowspace.rank == dim
        for krow in ker.rows:
            for mrow in mat:
                assert sum(a * b for a, b in zip(unpack(p, dim, krow), mrow)) % p == 0


def test_pair_coords_roundtrip():
    ctx = chain_of(3, 1, (1, 1), 3)
    A = Poly(ctx.field, (2, 1, 0))
    B = Poly(ctx.field, (1, 0, 2))
    vec = pair_coords(ctx, A, B)
    assert unpack(3, 6, vec) == [2, 1, 0, 1, 0, 2]
    # span of a single pair under multiplication is the cyclic module it generates
    sp = k_span(ctx, [(A, B)])
    assert sp.contains(vec)
    assert sp.contains(pair_coords(ctx, ctx.mul(ctx.f, A), ctx.mul(ctx.f, B)))


# (p, m) with q <= 2^16: slots of 1 bit (p = 2), 8 bits, 16 bits (p = 5,
# m > 1, mod the binomial) and 32 bits (p = 257), so _mod's non-byte
# path runs
STEP_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (5, 3), (257, 1)]


@pytest.mark.parametrize("p, m", STEP_FIELDS)
def test_packed_steps_match_the_poly_route(p, m):
    """x and g on the packed row against x_step_ref and Poly.scale(g),
    mod a dense chain modulus f^e and mod a binomial x^N - lambda."""
    rng = random.Random(p * 10 + m)
    F = field_new(p, m)
    g = F.gen()
    # f = x + 1; e = 3 for p = 2 and e = 2 otherwise, so no coefficient of f^e is 0
    dense = ChainCtx(Poly(F, [1, 1]), 3 if p == 2 else 2).modulus
    lam = rng.randrange(2, F.q) if F.q > 2 else 1
    binomial = Poly(F, [F.neg(lam), 0, 0, 0, 0, 1])
    assert all(dense.coeffs) and (lam != 1 or F.q == 2)
    for modulus in (dense, binomial):
        slots = modulus.degree
        layout = oracle._layout(modulus)
        x_step, g_step, pack = layout.x_step, layout.g_step, layout.pack
        assert (g_step is None) == (m == 1)
        for _ in range(20):
            A, B = (Poly(F, [rng.randrange(F.q) for _ in range(slots)]) for _ in range(2))
            vec = pack(A, B)
            for _ in range(2 * slots):  # a chain, so tops of every value fold
                if g_step is not None:
                    want = pack(A.scale(g), B.scale(g))
                    assert g_step(vec) == want
                A, B = x_step_ref(modulus, A), x_step_ref(modulus, B)
                vec = x_step(vec)
                assert vec == pack(A, B)
    assert slot_bits(p, 2 * m * 5) == {2: 1, 3: 8, 5: 8 if m < 2 else 16, 257: 32}[p]


def test_submodule_enumeration_routes_agree():
    for ctx in [chain_of(2, 1, (1, 1), 2), chain_of(3, 1, (1, 1), 2), chain_of(2, 1, (1, 1, 1), 2)]:
        subs = brute_submodules(ctx)
        assert len(subs) == submodule_count_formula(ctx)
        assert {s.key() for s in subs} == brute_submodules_allpairs(ctx)
        fam = generator_matrix_spans(ctx)
        assert {s.key() for s in fam} == {s.key() for s in subs}


def test_formula_value_small():
    ctx = chain_of(2, 1, (1, 1), 2)
    # sum over j of (2j+1) q^(e-j) with q = 2, e = 2
    assert submodule_count_formula(ctx) == 4 + 3 * 2 + 5 * 1 == 15


def test_u_closed_submodules_match_spec_enumeration():
    for ctx in [chain_of(2, 1, (1, 1), 2), chain_of(3, 1, (1, 1), 3)]:
        closed = brute_u_closed_submodules(ctx)
        assert all(u_shift_closed(s, ctx) for s in closed)
        spec_keys = {}
        for spec in enumerate_ideals(ctx):
            sp = spec_span(spec, ctx)
            assert sp.size == ideal_size(spec, ctx)
            spec_keys[sp.key()] = spec
        assert set(spec_keys) == {s.key() for s in closed}


def test_spec_span_matches_element_stream():
    ctx = chain_of(2, 1, (1, 1), 2)
    for spec in enumerate_ideals(ctx):
        sp = spec_span(spec, ctx)
        elems = {pair_coords(ctx, xi, eta) for xi, eta in component_elements(spec, ctx)}
        assert set(sp.elements()) == elems


def test_submodules_extend_one_span_per_generator(monkeypatch):
    calls = 0
    insert = FpSpace.insert

    def counting(self, vec):
        nonlocal calls
        calls += 1
        return insert(self, vec)

    monkeypatch.setattr(FpSpace, "insert", counting)
    ctx = chain_of(5, 1, (1, 1), 5)  # verify's chain 5,1,1,1
    assert len(brute_submodules(ctx)) == submodule_count_formula(ctx) == 5856
    # spanning every pair (v, w) from scratch made 260118 insertions
    assert calls < 260118 // 2


@pytest.mark.parametrize("ring, other", [((2, 1, 1, 3, 1), (1, 1)), ((3, 1, 1, 1, 1), (2, 1))])
def test_covered_check_finds_a_missing_principal_ideal(ring, other):
    """Dropping <u>, or <x - 1> (a proper nonzero principal ideal), from
    the assembled ideals must fail the singly-generated check."""
    fd = build_factor_data(AmbientParams.of_ints(*ring))
    F = fd.params.field
    ideals = {s.key(): s for s in brute_ambient_ideals(fd)}
    oracle._check_singly_generated_covered(fd, ideals)
    for gen in [(Poly.zero(F), Poly.one(F)), (Poly(F, list(other)), Poly.zero(F))]:
        span = oracle.ideal_span(fd, [gen])
        assert 1 < span.size < fd.params.ring_size()
        with pytest.raises(AssertionError, match="singly generated ideal missed"):
            oracle._check_singly_generated_covered(fd, {k: s for k, s in ideals.items() if k != span.key()})


@pytest.mark.parametrize("p, dim", [(3, 1), (3, 4), (5, 3)])
def test_leading_one_words_are_the_product_words_leading_with_1(p, dim):
    words = list(oracle._leading_one_words(p, dim))
    want = [bytes(v) for v in product(range(p), repeat=dim) if any(v) and v[[bool(c) for c in v].index(True)] == 1]
    assert words == want and len(words) == (p**dim - 1) // (p - 1)


@pytest.mark.parametrize("ring", [(3, 1, 1, 1, 1), (3, 1, 1, 2, 2)])
def test_covered_check_spans_only_vectors_leading_with_1(ring, monkeypatch):
    """For odd p the cover check spans a vector only when its first
    nonzero slot is 1, an F_p^* multiple generating the same ideal, and
    keeps no covered vector leading with another value."""
    fd = build_factor_data(AmbientParams.of_ints(*ring))
    ideals = {s.key(): s for s in brute_ambient_ideals(fd)}
    dim, spanned, kept = oracle._ambient(fd.params).dim, [], []
    closure, real_set = oracle._closure, set

    def recorded(layout, vecs, space=None):
        if space is not None:
            spanned.append(vecs[0])
        return closure(layout, vecs, space)

    class KeptSet(real_set):
        def update(self, items):
            items = list(items)
            kept.extend(items)
            super().update(items)

    monkeypatch.setattr(oracle, "_closure", recorded)
    monkeypatch.setattr(oracle, "set", KeptSet, raising=False)
    oracle._check_singly_generated_covered(fd, ideals)
    assert spanned and all(v.to_bytes(dim, "big").lstrip(b"\0")[0] == 1 for v in spanned)
    assert kept and all(w.lstrip(b"\0")[0] == 1 for w in kept)


@pytest.mark.parametrize("ring", [(3, 1, 1, 1, 1), (2, 2, 1, 1, 1)])
def test_covered_check_stays_on_packed_rows(ring, monkeypatch):
    """No vector of the cover check goes back to polynomials: no unpack,
    no Poly.scale and no polynomial product."""
    fd = build_factor_data(AmbientParams.of_ints(*ring))
    ideals = {s.key(): s for s in brute_ambient_ideals(fd)}
    decomp.clear_memo()  # the layout and steps are built again under the counters
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(oracle._Layout, "unpack", counted("unpack", oracle._Layout.unpack))
    monkeypatch.setattr(Poly, "scale", counted("scale", Poly.scale))
    monkeypatch.setattr(Poly, "__mul__", counted("mul", Poly.__mul__))
    oracle._check_singly_generated_covered(fd, ideals)
    assert calls == []


def test_ambient_ideal_assembly():
    fd = build_factor_data(AmbientParams.of_ints(2, 1, 1, 1, 1))
    ideals = brute_ambient_ideals(fd)
    assert len(ideals) == 7
    fd3 = build_factor_data(AmbientParams.of_ints(2, 1, 1, 3, 1))
    assert len(brute_ambient_ideals(fd3)) == 63


def test_code_space_roundtrips_coords():
    fd = build_factor_data(AmbientParams.of_ints(2, 1, 1, 3, 1))
    params = fd.params
    from ccring.ideals import CodeSpec

    code = CodeSpec(fd, (IdealSpec("III", k=1), IdealSpec("I", b=Poly.zero(params.field))))
    sp = code_space(code)
    layout = oracle._ambient(params)
    for vec in sp.elements()[:10]:
        a0, a1 = layout.unpack(vec)
        assert layout.pack(a0, a1) == vec


def test_dual_routes_agree_tiny():
    params = AmbientParams.of_ints(2, 1, 1, 1, 1)
    fd = build_factor_data(params)
    for space in brute_ambient_ideals(fd):
        dual = brute_dual(space, params)
        assert set(dual.elements()) == brute_dual_scan(space, params)
        assert dual.size * space.size == params.ring_size()


def _eliminate_last(rows, pivots, vec, p, dim):
    """vec reduced against reduced echelon rows whose pivots are their
    last nonzero coordinates, scaled to 1 at its own, and that pivot;
    (0, -1) for a vector in their span.  Every row costs one step."""
    bits = slot_bits(p, dim)
    mask = (1 << bits) - 1
    if p == 2:
        for row, piv in zip(rows, pivots):
            if vec >> piv & 1:
                vec ^= row
    else:
        acc = vec
        for row, piv in zip(rows, pivots):
            c = vec >> piv * bits & mask
            if c:
                acc += (p - c) * row
        vec = _mod(acc, p, dim)
    if not vec:
        return 0, -1
    piv = (vec.bit_length() - 1) // bits
    c = vec >> piv * bits & mask
    return (vec if c == 1 else _mod(vec, p, dim, pow(c, -1, p))), piv


def kernel_by_inserts(mat, dim, p) -> FpSpace:
    """The kernel by a full elimination per row, each new pivot cleared
    from every kept row as it comes: the reference for linalg.kernel."""
    rows, pivots = [], []
    bits = slot_bits(p, dim)
    mask = (1 << bits) - 1
    for vec in mat:
        vec, piv = _eliminate_last(rows, pivots, vec, p, dim)
        if piv < 0:
            continue
        for k, row in enumerate(rows):
            c = row >> piv * bits & mask
            if c:
                rows[k] = row ^ vec if p == 2 else _mod(row + (p - c) * vec, p, dim)
        at = bisect(pivots, piv)
        rows.insert(at, vec)
        pivots.insert(at, piv)
    free = [f for f in range(dim) if f not in pivots]
    basis = []
    for f in free:
        vec = 1 << f * bits
        for row, piv in zip(rows, pivots):
            c = row >> f * bits & mask
            if c:
                vec += p - c << piv * bits
        basis.append(vec)
    return FpSpace(p, dim, basis, free)


def brute_dual_by_inserts(space: FpSpace, params: AmbientParams) -> FpSpace:
    """brute_dual's pairing rows, v_l summed over the g-steps g^r b one
    coordinate block at a time, through kernel_by_inserts."""
    layout = oracle._ambient(params)
    bits, half, firsts = layout.bits, layout.half, layout.firsts
    mat = []
    for b in space.rows:
        steps = layout.orbit(b)
        for l in range(params.m):
            v = sum((gb >> bits * l & firsts) << bits * r for r, gb in enumerate(steps))
            mat += [v & layout.low, v >> half | layout.u(v)]
    return kernel_by_inserts(mat, layout.dim, params.field.p)


# (7,1,1,4,6) has 16-bit ambient slots and 1.4e11 codes
WIDE_RING, WIDE_STRIDE, WIDE_CODES = (7, 1, 1, 4, 6), 400, 20000


@pytest.mark.parametrize("ring", [(2, 2, 1, 3, 1), (3, 2, 1, 2, 5), (3, 1, 1, 1, 1), (5, 1, 1, 1, 1), (3, 1, 1, 2, 2), WIDE_RING])
def test_brute_dual_equals_the_route_by_inserts(ring):
    """On the two rings that dominate the benchmark and three small odd-p
    rings, every code; on WIDE_RING, every 400th of its first codes."""
    params = AmbientParams.of_ints(*ring)
    codes = enumerate_codes(build_factor_data(params))
    if ring == WIDE_RING:
        assert slot_bits(params.p, oracle._ambient(params).dim) == 16
        codes = islice(codes, 0, WIDE_CODES, WIDE_STRIDE)
    for code in codes:
        space = code_space(code)
        dual, ref = brute_dual(space, params), brute_dual_by_inserts(space, params)
        assert dual == ref and dual.pivots == ref.pivots


def code_space_by_products(code) -> FpSpace:
    """The code's space by the eps-product route: every generator row
    multiplied by its eps_j as polynomials, then closed in the ambient ring."""
    fd = code.fd
    pairs = [
        (mulmod(fd, eps, A), mulmod(fd, eps, B))
        for j, (spec, eps) in enumerate(zip(code.components, fd.idempotents))
        for A, B, _ in generator_rows(spec, fd.chain(j))
    ]
    layout = oracle._ambient(fd.params)
    return oracle._closure(layout, [layout.pack(A, B) for A, B in pairs])


@pytest.mark.parametrize("ring", [(2, 1, 1, 1, 1), (3, 1, 1, 1, 1), (2, 2, 1, 1, 1), (2, 3, 1, 1, 1)])
def test_brute_dual_of_any_subspace_equals_the_scan(ring):
    """The pairing rows hold for any F_p-subspace, not only for ideals."""
    params = AmbientParams.of_ints(*ring)
    fd = build_factor_data(params)
    layout = oracle._ambient(params)
    p, dim = params.p, layout.dim
    rng = random.Random(sum(ring))
    not_ideals = 0
    for _ in range(6):
        rows = [pack(p, dim, [rng.randrange(p) for _ in range(dim)]) for _ in range(rng.randrange(1, 4))]
        space = FpSpace.from_rows(p, dim, rows)
        ideal = oracle.ideal_span(fd, [layout.unpack(row) for row in space.rows])
        not_ideals += ideal.rank > space.rank
        assert set(brute_dual(space, params).elements()) == brute_dual_scan(space, params)
    assert not_ideals


# rings with 1-, 8- and 16-bit ambient slots and two or three factors
LIFT_RINGS = [(p, m, 1, 3 if p == 2 else 2, 1) for p in (2, 3, 5) for m in (1, 2, 3)]


@pytest.mark.parametrize("ring", LIFT_RINGS)
def test_lift_is_multiplication_by_the_idempotent(ring):
    params = AmbientParams.of_ints(*ring)
    fd = build_factor_data(params)
    F = params.field
    rng = random.Random(str(ring))
    assert fd.r >= 2
    for j, eps in enumerate(fd.idempotents):
        ctx = fd.chain(j)
        lift = oracle._lift(fd, j)
        for _ in range(10):
            A, B = (Poly(F, [rng.randrange(F.q) for _ in range(ctx.d * ctx.e)]) for _ in range(2))
            want = oracle._ambient(params).pack(mulmod(fd, eps, A), mulmod(fd, eps, B))
            assert lift(pair_coords(ctx, A, B)) == want


def test_code_space_sweeps_again_with_no_polynomial_product_or_division(monkeypatch):
    fd = build_factor_data(AmbientParams.of_ints(2, 2, 1, 3, 1))
    codes = list(enumerate_codes(fd))
    first = [code_space(code) for code in codes]
    calls = []
    mul, divmod_ = Poly.__mul__, Poly.__divmod__

    def counted_mul(a, b):
        calls.append("mul")
        return mul(a, b)

    def counted_divmod(a, b):
        calls.append("divmod")
        return divmod_(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted_mul)
    monkeypatch.setattr(Poly, "__divmod__", counted_divmod)
    assert [code_space(code) for code in codes] == first
    assert calls == []


def test_clear_memo_empties_the_component_rows():
    fd = build_factor_data(AmbientParams.of_ints(2, 1, 1, 3, 1))
    codes = list(enumerate_codes(fd))
    first = [code_space(code).key() for code in codes]
    kept = dict(oracle._component_rows(fd))
    assert len(kept) == sum(1 for _ in enumerate_ideals(fd.chain(0))) + sum(1 for _ in enumerate_ideals(fd.chain(1)))
    decomp.clear_memo()
    assert oracle._component_rows(fd) == {}
    assert [code_space(code).key() for code in codes] == first
    assert oracle._component_rows(fd) == kept


def test_clear_memo_empties_the_layout_and_step_memos():
    fd = build_factor_data(AmbientParams.of_ints(2, 2, 1, 3, 1))
    for code in enumerate_codes(fd):
        brute_dual(code_space(code), fd.params)
    assert oracle._layout.cache_info().currsize and oracle._ambient.cache_info().currsize
    assert oracle._pairing_tables.cache_info().currsize
    decomp.clear_memo()
    assert oracle._layout.cache_info().currsize == oracle._ambient.cache_info().currsize == 0
    assert oracle._pairing_tables.cache_info().currsize == 0


@pytest.mark.parametrize("ring", [(2, 1, 1, 5, 1), (3, 2, 1, 2, 5)])
def test_code_space_equals_the_eps_product_route(ring):
    fd = build_factor_data(AmbientParams.of_ints(*ring))
    for code in enumerate_codes(fd):
        assert code_space(code) == code_space_by_products(code)


def test_budget_guards(monkeypatch):
    big = chain_of(5, 1, (2, 1), 5)
    monkeypatch.setattr(oracle, "ORACLE_BUDGET", 100)
    monkeypatch.setitem(globals(), "ALLPAIRS_BUDGET", 100)
    with pytest.raises(TooLarge):
        brute_submodules(big)
    with pytest.raises(TooLarge):
        brute_submodules_allpairs(big)


def test_quick_suite_passes():
    results = list(verify_suite("quick"))
    assert results, "suite must not be empty"
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"


@pytest.mark.parametrize(
    "name,detail",
    [
        ("chain 3,2,1,1", "1024 submodules, 34 ideals"),
        ("dual 2,2,1,3 nu=+1", "729 codes"),
        ("ambient 2,3,1,1", "13 ideals assembled and closed"),
        ("dual 3,2,1,2 lam=2+g", "250 codes"),
    ],
)
def test_full_suite_checks_chain_dual_and_ambient_at_m_above_one(name, detail):
    """verify --level full runs the chain, dual and ambient checks over
    F_9, F_4 and F_8 too, not at m = 1 alone, and a dual check with
    lambda = 2 + g outside F_3, through dual_code."""
    check = dict(oracle.FULL_SUITE)[name]
    assert check() == (True, detail)


def test_full_suite_certifies_factor_lists(monkeypatch):
    """The factors lines hand the ring's factor list to factor_data_for
    as a list from outside; a list its check refuses is a FAIL."""
    name = "factors 5,1,1,4374 lam=-1"
    assert dict(oracle.FULL_SUITE)[name]() == (True, "16 factors certified by their degrees and product")
    assert [n for n, _ in oracle.FULL_SUITE if n.startswith("factors ")] == [
        "factors 2,1,1,3255 lam=1",
        name,
        "factors 7,2,1,400 lam=1",
    ]
    real = oracle.build_factor_data
    monkeypatch.setattr(oracle, "build_factor_data", lambda params: SimpleNamespace(factors=real(params).factors[1:]))
    monkeypatch.setattr(oracle, "FULL_SUITE", [(n, fn) for n, fn in oracle.FULL_SUITE if n == name])
    [(got, ok, detail)] = verify_suite("full")
    assert got == name and not ok and detail.startswith("RangeError: ")


def test_selfdual_check_catches_a_wrong_count(monkeypatch):
    """_selfdual_check compares count_self_dual with the brute-force
    fixed points, on p = 2, s = 2 among others."""
    assert oracle._selfdual_check(2, 1, 2, 1, 1) == (True, "7 self-dual codes")
    real = oracle.count_self_dual
    monkeypatch.setattr(oracle, "count_self_dual", lambda fd, nu: real(fd, nu) + 1)
    ok, detail = oracle._selfdual_check(2, 1, 2, 1, 1)
    assert not ok and detail == "closed-form count 8 vs 7 brute fixed points"
    assert "selfdual 2,1,2,1 nu=+1" in dict((name, fn) for name, fn in oracle.QUICK_SUITE)


def _digest(spaces) -> str:
    """Hash of the spaces' bases as coordinate lists, in sorted order."""
    bases = sorted(tuple(tuple(unpack(s.p, s.dim, row)) for row in s.rows) for s in spaces)
    return hashlib.sha256(repr(bases).encode()).hexdigest()[:16]


# Every ring of the benchmark's oracle workload, with the results the
# coordinate-list RREF gave: code count, digests of the code spaces and
# of their kernel duals, submodule counts per factor with their digest,
# and the ambient ideal count (the ideals' digest is the codes').
ORACLE_RESULTS = [
    ((2, 2, 1, 3, 1), 729, "8365961c452e4029", "8365961c452e4029", None, None),
    ((3, 2, 1, 2, 5), 250, "103783e0c86b3cf4", "6a9387edc675bf52", None, None),
    ((2, 1, 1, 3, 1), 63, "a2e788c0ee810f06", "a2e788c0ee810f06", ([15, 33], "231feef4789e9db1"), 63),
    ((2, 1, 2, 1, 1), 23, "51ff8db74c767ab7", "51ff8db74c767ab7", ([83], "306362a6636c39ab"), 23),
    ((2, 2, 1, 1, 1), 9, "d0ccc57b8fec14c0", "d0ccc57b8fec14c0", ([33], "267dd0527188f213"), 9),
    ((2, 3, 1, 1, 1), 13, "1b1c49a866ef69c2", "1b1c49a866ef69c2", ([93], "25d75ff75fe50437"), 13),
    ((3, 1, 1, 1, 1), 16, "1fc0435bc5425b32", "1fc0435bc5425b32", ([76], "80b4483934922f1d"), 16),
    ((2, 1, 1, 5, 1), 147, "3a4ce869aabe4f65", "3a4ce869aabe4f65", ([15, 309], "a3cc28c1d3352326"), None),
    ((5, 1, 1, 1, 1), 121, "80dbd1509a07c469", "80dbd1509a07c469", None, None),
]


@pytest.mark.parametrize("ring, ncodes, codes_hash, duals_hash, subs, nambient", ORACLE_RESULTS)
def test_oracle_results_are_frozen(ring, ncodes, codes_hash, duals_hash, subs, nambient):
    fd = build_factor_data(AmbientParams.of_ints(*ring))
    codes = list(enumerate_codes(fd))
    spaces = [code_space(code) for code in codes]
    duals = [brute_dual(space, fd.params) for space in spaces]
    assert len(codes) == ncodes
    assert _digest(spaces) == codes_hash and _digest(duals) == duals_hash
    for code, dual in zip(codes, duals):
        assert dual == code_space(dual_code(code))
    if subs is not None:
        found = [brute_submodules(fd.chain(j)) for j in range(fd.r)]
        assert [len(x) for x in found] == subs[0]
        assert _digest([s for x in found for s in x]) == subs[1]
    if nambient is not None:
        ideals = brute_ambient_ideals(fd)
        assert len(ideals) == nambient and _digest(ideals) == codes_hash


def assert_table_dual_of_random_subspaces(ring):
    """brute_dual, its rows from the pairing tables, against the route by
    inserts on random subspaces of the ring's ambient space, most of
    them no ideal."""
    params = AmbientParams.of_ints(*ring)
    fd = build_factor_data(params)
    layout = oracle._ambient(params)
    p, dim = params.p, layout.dim
    rng = random.Random(str(ring))
    not_ideals = 0
    for _ in range(12):
        rows = [pack(p, dim, [rng.randrange(p) for _ in range(dim)]) for _ in range(rng.randrange(1, dim))]
        space = FpSpace.from_rows(p, dim, rows)
        basis = space.basis
        dual, ref = brute_dual(space, params), brute_dual_by_inserts(FpSpace.from_rows(p, dim, basis), params)
        assert dual.rows == ref.rows and dual.pivots == ref.pivots
        ideal = oracle.ideal_span(fd, [layout.unpack(row) for row in basis])
        not_ideals += ideal.rank > space.rank
    assert not_ideals >= 6


@pytest.mark.parametrize("ring", [ring for ring, *_ in ORACLE_RESULTS if ring[0] == 2])
def test_table_built_dual_of_any_subspace_equals_the_route_by_inserts(ring):
    """Every p = 2 ring of the oracle set: one byte per table entry."""
    assert_table_dual_of_random_subspaces(ring)


@pytest.mark.parametrize("ring", [(3, 2, 1, 2, 5), (3, 1, 1, 1, 1), (5, 1, 1, 1, 1), WIDE_RING, (17, 1, 1, 1, 1), (67, 1, 1, 1, 1)])
def test_odd_table_built_dual_of_any_subspace_equals_the_route_by_inserts(ring):
    """Odd p: entries keyed by a group of 8-bit slots (p = 3, 5), or of
    16-bit ones (WIDE_RING); past p = 16 no table, each slot's rows
    times its value, summed unreduced over all dim slots of b, in 16-bit
    (p = 17) and 32-bit (p = 67) slots."""
    assert_table_dual_of_random_subspaces(ring)
