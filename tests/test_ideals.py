import itertools
import random

import pytest

from ccring.chain import ChainCtx
from ccring.decomp import AmbientParams, build_factor_data
from ccring.errors import InvalidSpec
from ccring.gf import field_new
from ccring.ideals import (
    CodeSpec,
    IdealSpec,
    case_counts,
    code_size,
    count_codes,
    count_ideals,
    count_ideals_params,
    count_ideals_sumform_params,
    enumerate_codes,
    enumerate_ideals,
    generator_rows,
    ideal_size,
    validate_spec,
)
from ccring.oracle import code_space
from ccring.poly import Poly


def chain_of(p, m, f_coeffs, s):
    F = field_new(p, m)
    return ChainCtx(Poly(F, list(f_coeffs)), p ** s)


def component_elements(spec, ctx):
    """All (xi, eta) pairs of one component ideal, without duplicates.

    Every K-combination of the spec's generator rows, each coefficient
    running over K/(f^(e - depth)): the element stream the closed-form
    ideal_size and the oracle's spec_span (in test_oracle) are checked
    against.
    """
    rows = generator_rows(spec, ctx)
    if not rows:
        yield Poly.zero(ctx.field), Poly.zero(ctx.field)
        return
    coeff_sets = [list(ctx.residue_set(0, ctx.e - depth)) for _, _, depth in rows]
    for coeffs in itertools.product(*coeff_sets):
        xi = Poly.zero(ctx.field)
        eta = Poly.zero(ctx.field)
        for c, (rx, re_, _) in zip(coeffs, rows):
            if not c.is_zero():
                xi = xi + ctx.mul(c, rx)
                eta = eta + ctx.mul(c, re_)
        yield xi, eta


def test_count_anchors():
    fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
    assert count_codes(fd) == 62190883161
    fd2 = build_factor_data(AmbientParams.of_ints(5, 1, 1, 4, 3))
    assert count_codes(fd2) == 1176261


def test_case_breakdown_single_quartic_factor():
    # x^4 - 3 stays irreducible over F_5, so one factor with d = 4
    fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 4, 3))
    assert fd.r == 1 and fd.chain(0).d == 4
    counts = case_counts(5, 1, 4, 1)
    assert counts == {"I": 390625, "II": 391876, "III": 6, "IV": 391876, "V": 1878}
    assert sum(counts.values()) == 1176261 == count_ideals_params(5, 1, 4, 1)


def test_closed_form_equals_sum_form():
    for p in (2, 3, 5, 7):
        for m in (1, 2):
            for d in (1, 2, 3):
                for s in (1, 2):
                    assert count_ideals_params(p, m, d, s) == count_ideals_sumform_params(
                        p, m, d, s
                    ), (p, m, d, s)
    assert count_ideals_params(3, 1, 1, 0) == 3


def test_enumeration_matches_case_counts():
    grid = [
        chain_of(2, 1, (1, 1), 2),
        chain_of(3, 1, (1, 1), 1),
        chain_of(5, 1, (2, 1), 1),
        chain_of(2, 2, (2, 1), 1),
        chain_of(2, 1, (1, 1, 1), 1),
    ]
    for ctx in grid:
        specs = list(enumerate_ideals(ctx))
        assert len(specs) == len(set(specs)) == count_ideals(ctx)
        tally = {}
        for spec in specs:
            tally[spec.case] = tally.get(spec.case, 0) + 1
        s = ctx.e.bit_length() - 1 if ctx.field.p == 2 else 1
        expect = case_counts(ctx.field.p, ctx.field.m, ctx.d, s)
        assert tally == {c: n for c, n in expect.items() if n}


def test_validate_rejections():
    ctx = chain_of(2, 1, (1, 1), 2)  # e = 4
    F = ctx.field
    zero = Poly.zero(F)
    with pytest.raises(InvalidSpec):
        validate_spec(IdealSpec("VI"), ctx)
    with pytest.raises(InvalidSpec):
        validate_spec(IdealSpec("III", k=5), ctx)
    with pytest.raises(InvalidSpec):
        validate_spec(IdealSpec("II", k=0, b=zero), ctx)
    with pytest.raises(InvalidSpec):
        validate_spec(IdealSpec("II", k=1, b=None), ctx)
    with pytest.raises(InvalidSpec):
        validate_spec(IdealSpec("V", k=3, t=1, b=zero), ctx)
    with pytest.raises(InvalidSpec):
        # b must sit in the digit window: case IV, t=3 wants digits in [1, 2)
        validate_spec(IdealSpec("IV", t=3, b=Poly.one(F)), ctx)
    with pytest.raises(InvalidSpec):
        validate_spec(IdealSpec("I", b=Poly.one(field_new(3, 1))), ctx)


def test_sizes_and_membership_exhaustive():
    ctx = chain_of(2, 1, (1, 1), 1)  # e = 2
    seen = {}
    for spec in enumerate_ideals(ctx):
        elems = set(component_elements(spec, ctx))
        assert len(elems) == ideal_size(spec, ctx)
        key = frozenset(elems)
        assert key not in seen, f"{spec.label()} duplicates {seen.get(key)}"
        seen[key] = spec.label()
    assert len(seen) == 7


def test_distinct_element_sets_e4():
    ctx = chain_of(2, 1, (1, 1), 2)
    sets = [frozenset(component_elements(s, ctx)) for s in enumerate_ideals(ctx)]
    assert len(sets) == len(set(sets)) == 23


def test_ideals_are_closed_under_ring_action():
    rng = random.Random(3)
    ctx = chain_of(3, 1, (1, 1), 1)  # e = 3
    mults = [Poly(ctx.field, [rng.randrange(3) for _ in range(3)]) for _ in range(5)]
    for spec in enumerate_ideals(ctx):
        elems = set(component_elements(spec, ctx))
        sample = rng.sample(sorted(elems, key=repr), min(6, len(elems)))
        for (xi, eta), g in itertools.product(sample, mults):
            prod = (ctx.mul(g, xi), ctx.mul(g, eta))
            assert prod in elems
            # u * (xi + u eta) = u xi
            assert (Poly.zero(ctx.field), xi) in elems


def test_enumerate_codes_limit_and_shape():
    fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
    first = list(enumerate_codes(fd, limit=10))
    assert len(first) == 10
    zero = Poly.zero(fd.params.field)
    assert first[0].components[0] == IdealSpec("I", b=zero)
    # last factor moves fastest
    assert first[0].components[:3] == first[1].components[:3]
    assert first[0].components[3] != first[1].components[3]


def test_code_size_and_codewords():
    fd = build_factor_data(AmbientParams.of_ints(2, 1, 1, 3, 1))
    total = 0
    for code in enumerate_codes(fd):
        assert code_size(code) == code_space(code).size
        total += 1
    assert total == count_codes(fd)


def test_code_spec_checks_components():
    fd = build_factor_data(AmbientParams.of_ints(5, 1, 1, 6, 4))
    with pytest.raises(InvalidSpec):
        CodeSpec(fd, (IdealSpec("III", k=0),))


# (p, m, s, n, lambda, nu): chain lengths 3 to 8, m = 1 and 2
GENERATED_RINGS = [
    (2, 1, 2, 3, 1, 1),
    (3, 1, 1, 4, 1, 1),
    (2, 2, 2, 1, 1, 1),
    (3, 2, 1, 2, 1, 1),
    (5, 1, 1, 4, 4, -1),
    (2, 1, 3, 1, 1, 1),
    (7, 1, 1, 2, 6, -1),
]


def _assert_valid(code):
    assert len(code.components) == code.fd.r
    for j, spec in enumerate(code.components):
        validate_spec(spec, code.fd.chain(j))


@pytest.mark.parametrize("ring", GENERATED_RINGS)
def test_generated_codes_pass_validate_spec(ring):
    # the package builds these without validating: the check lives here
    from ccring.dual import dual_code, dual_code_nu, enumerate_self_dual

    *params, nu = ring
    fd = build_factor_data(AmbientParams.of_ints(*params))
    for code in enumerate_codes(fd, 400):
        _assert_valid(code)
        _assert_valid(dual_code(code))
        _assert_valid(dual_code_nu(code))
    for code in itertools.islice(enumerate_self_dual(fd, nu), 400):
        _assert_valid(code)


def test_generated_codes_skip_validation(monkeypatch):
    from ccring import ideals
    from ccring.dual import dual_code, enumerate_self_dual

    fd = build_factor_data(AmbientParams.of_ints(3, 1, 1, 4, 1))
    monkeypatch.setattr(ideals, "validate_spec", None)  # a call would raise
    for code in enumerate_codes(fd, 50):
        dual_code(code)
    assert len(list(itertools.islice(enumerate_self_dual(fd, 1), 10))) == 10


def test_hand_built_code_with_b_outside_its_window_raises():
    fd = build_factor_data(AmbientParams.of_ints(3, 1, 1, 1, 1))  # e = 3
    one = Poly.one(fd.params.field)  # f-adic digit 0, window [1, 2)
    with pytest.raises(InvalidSpec):
        CodeSpec(fd, (IdealSpec("I", b=one),))
    CodeSpec(fd, (IdealSpec("I", b=fd.factors[0]),))  # digit 1: in the window


def test_both_count_routes_reject_a_chain_length_not_a_power_of_p():
    from ccring.ideals import chain_exponent

    F5 = field_new(5, 1)
    ctx = ChainCtx(Poly(F5, [2, 1]), 6)
    for count in (count_ideals, chain_exponent):
        with pytest.raises(InvalidSpec):
            count(ctx)
    assert chain_exponent(ChainCtx(Poly(F5, [2, 1]), 25)) == 2
    assert count_ideals(ChainCtx(Poly(F5, [2, 1]), 25)) == count_ideals_sumform_params(5, 1, 1, 2)
