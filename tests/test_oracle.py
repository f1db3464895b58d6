import hashlib
import random
from itertools import product

import pytest

from ccring import oracle
from ccring.chain import ChainCtx
from ccring.decomp import AmbientParams, build_factor_data
from ccring.dual import dual_code
from ccring.errors import TooLarge
from ccring.gf import field_new
from ccring.ideals import IdealSpec, enumerate_codes, enumerate_ideals, ideal_size
from ccring.linalg import kernel, pack, slot_bits, unpack
from ccring.oracle import (
    FpSpace,
    ambient_coords,
    ambient_dim,
    brute_ambient_ideals,
    brute_dual,
    brute_submodules,
    brute_u_closed_submodules,
    code_space,
    coords_ambient,
    generator_matrix_spans,
    k_span,
    spec_span,
    submodule_count_formula,
    u_shift_closed,
    verify_suite,
)
from ccring.poly import Poly
from test_ideals import component_elements

# past these sizes the tests' own brute-force routes raise TooLarge
ALLPAIRS_BUDGET = 1 << 21
SCAN_BUDGET = 1 << 14


def pair_coords(ctx: ChainCtx, A: Poly, B: Poly) -> int:
    """The packed F_p row of (A, B) in K^2, as the oracle's spaces hold it."""
    return oracle._pair_vec(ctx.field, ctx.d * ctx.e, ctx.reduce(A), ctx.reduce(B))


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
    dim = ambient_dim(params)
    words = space.elements()
    out = set()
    for digits in product(range(field.p), repeat=dim):
        vec = pack(field.p, dim, digits)
        a0, a1 = coords_ambient(params, vec)
        if all(_pair_orthogonal(params, a0, a1, *coords_ambient(params, w)) for w in words):
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
        x_step, g_step = oracle._packed_steps(modulus)
        assert (g_step is None) == (m == 1)
        for _ in range(20):
            A, B = (Poly(F, [rng.randrange(F.q) for _ in range(slots)]) for _ in range(2))
            vec = oracle._pair_vec(F, slots, A, B)
            for _ in range(2 * slots):  # a chain, so tops of every value fold
                if g_step is not None:
                    want = oracle._pair_vec(F, slots, A.scale(g), B.scale(g))
                    assert g_step(vec) == want
                A, B = x_step_ref(modulus, A), x_step_ref(modulus, B)
                vec = x_step(vec)
                assert vec == oracle._pair_vec(F, slots, A, B)
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
    for vec in sp.elements()[:10]:
        a0, a1 = coords_ambient(params, vec)
        assert ambient_coords(params, a0, a1) == vec


def test_dual_routes_agree_tiny():
    params = AmbientParams.of_ints(2, 1, 1, 1, 1)
    fd = build_factor_data(params)
    for space in brute_ambient_ideals(fd):
        dual = brute_dual(space, params)
        assert set(dual.elements()) == brute_dual_scan(space, params)
        assert dual.size * space.size == params.ring_size()


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
