import random

import pytest

from ccring import oracle
from ccring.chain import ChainCtx
from ccring.decomp import AmbientParams, build_factor_data
from ccring.errors import TooLarge
from ccring.gf import field_new
from ccring.ideals import IdealSpec, component_elements, enumerate_ideals, ideal_size
from ccring.linalg import kernel
from ccring.oracle import (
    FpSpace,
    ambient_coords,
    brute_ambient_ideals,
    brute_dual,
    brute_dual_scan,
    brute_submodules,
    brute_submodules_allpairs,
    brute_u_closed_submodules,
    code_space,
    coords_ambient,
    generator_matrix_spans,
    k_span,
    pair_coords,
    spec_span,
    submodule_count_formula,
    u_shift_closed,
    verify_suite,
)
from ccring.poly import Poly


def chain_of(p, m, f_coeffs, e):
    F = field_new(p, m)
    return ChainCtx(Poly(F, list(f_coeffs)), e)


def test_fpspace_canonical_form():
    a = FpSpace.from_rows(3, 3, [[1, 2, 0], [0, 1, 1]])
    # same span presented through different combinations
    b = FpSpace.from_rows(3, 3, [[2, 2, 1], [1, 0, 1], [1, 1, 2]])
    assert a.key() == b.key() and a == b
    assert a.rank == 2 and a.size == 9
    assert a.contains([1, 0, 1])
    assert not a.contains([0, 0, 1])
    bigger = a.extended([[0, 0, 1]])
    assert bigger.rank == 3
    assert len(a.elements()) == 9


def test_kernel_rank_nullity_and_orthogonality():
    rng = random.Random(11)
    p = 5
    for _ in range(10):
        dim = rng.randrange(2, 7)
        mat = [[rng.randrange(p) for _ in range(dim)] for _ in range(rng.randrange(1, 5))]
        ker = kernel(mat, dim, p)
        rowspace = FpSpace.from_rows(p, dim, mat)
        assert ker.rank + rowspace.rank == dim
        for krow in ker.rows:
            for mrow in mat:
                assert sum(a * b for a, b in zip(krow, mrow)) % p == 0


def test_pair_coords_roundtrip():
    ctx = chain_of(3, 1, (1, 1), 3)
    A = Poly(ctx.field, (2, 1, 0))
    B = Poly(ctx.field, (1, 0, 2))
    vec = pair_coords(ctx, A, B)
    assert len(vec) == 6
    # span of a single pair under multiplication is the cyclic module it generates
    sp = k_span(ctx, [(A, B)])
    assert sp.contains(list(vec))
    assert sp.contains(list(pair_coords(ctx, ctx.mul(ctx.f, A), ctx.mul(ctx.f, B))))


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
        assert {tuple(v) for v in sp.elements()} == elems


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
    for vec in list(sp.elements())[:10]:
        a0, a1 = coords_ambient(params, vec)
        assert ambient_coords(params, a0, a1) == tuple(vec)


def test_dual_routes_agree_tiny():
    params = AmbientParams.of_ints(2, 1, 1, 1, 1)
    fd = build_factor_data(params)
    for space in brute_ambient_ideals(fd):
        dual = brute_dual(space, params)
        assert {tuple(v) for v in dual.elements()} == brute_dual_scan(space, params)
        assert dual.size * space.size == params.ring_size()


def test_budget_guards(monkeypatch):
    big = chain_of(5, 1, (2, 1), 5)
    monkeypatch.setattr(oracle, "ORACLE_BUDGET", 100)
    monkeypatch.setattr(oracle, "ALLPAIRS_BUDGET", 100)
    with pytest.raises(TooLarge):
        brute_submodules(big)
    with pytest.raises(TooLarge):
        brute_submodules_allpairs(big)


def test_quick_suite_passes():
    results = list(verify_suite("quick"))
    assert results, "suite must not be empty"
    for name, ok, detail in results:
        assert ok, f"{name}: {detail}"
