import json
import random

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from ccring import decomp, poly
from ccring.cli import factor_data_json
from ccring.decomp import AmbientParams, DerivedFactors, build_factor_data, factor_data, factor_data_for
from ccring.dual import dual_factor_data
from ccring.errors import GcdViolation, RangeError, SZero, TooLarge, ZeroLambda
from ccring.gf import field_new, ps_root
from ccring.ideals import count_codes
from ccring.poly import Poly, reciprocal


def mulmod(fd, a, b):
    """a * b mod x^N - lambda; division visits the binomial's two terms only."""
    params = fd.params
    field = params.field
    return (a * b) % Poly(field, (field.neg(params.lam),) + (0,) * (params.N - 1) + (1,))


def poly_of(field, coeff_at):
    coeffs = [0] * (max(coeff_at) + 1)
    for i, c in coeff_at.items():
        coeffs[i] = c
    return Poly(field, coeffs)


def kept_rings() -> int:
    return decomp._kept_ring.cache_info().currsize


def test_params_validation():
    with pytest.raises(SZero):
        AmbientParams.of_ints(5, 1, 0, 6, 4)
    with pytest.raises(GcdViolation):
        AmbientParams.of_ints(2, 1, 1, 4, 1)
    with pytest.raises(ZeroLambda):
        AmbientParams.of_ints(5, 1, 1, 6, 0)
    with pytest.raises(RangeError):
        AmbientParams.of_ints(5, 1, 1, 0, 4)


# (p, m, s, n, lambda) and the error AmbientParams raises, in its order
# of checks: s, n, gcd(n, p), lambda a unit, the length N = n p^s
REFUSED_PARAMS = [
    ((5, 1, 0, 6, 4), SZero),
    ((5, 1, -1, 0, 0), SZero),
    ((5, 1, 1, 0, 4), RangeError),
    ((5, 1, 1, -3, 0), RangeError),
    ((2, 1, 1, 4, 1), GcdViolation),
    ((2, 1, 30, 4, 0), GcdViolation),
    ((5, 1, 1, 6, 0), ZeroLambda),
    ((5, 1, 1, 6, 5), ZeroLambda),
    ((5, 1, 1, 6, -1), ZeroLambda),
    ((3, 2, 1, 4, 9), ZeroLambda),
    ((5, 1, 30, 1, 0), ZeroLambda),
    ((2, 1, 19, 1, 1), TooLarge),
    ((2, 1, 18, 3, 1), TooLarge),
    ((3, 1, 12, 1, 1), TooLarge),
    ((5, 1, 1, 6, None), TypeError),
]


@pytest.mark.parametrize("ring,error", REFUSED_PARAMS)
def test_params_refusals_keep_their_order(ring, error):
    p, m, s, n, lam = ring
    with pytest.raises(error):
        AmbientParams(field_new(p, m), s, n, lam)


def test_params_are_a_frozen_value_hashed_as_their_fields():
    field = field_new(3, 2)
    params = AmbientParams(field, 1, 4, 8)
    assert hash(params) == hash((field, 1, 4, 8))
    assert params == AmbientParams.of_ints(3, 2, 1, 4, 8) and params.dual_params().lam == field.inv(8)
    for name in ("field", "s", "n", "lam", "other"):
        with pytest.raises(AttributeError):
            setattr(params, name, 1)
    with pytest.raises(TypeError):
        AmbientParams(field, 1, 4)
    # a named tuple: equal to and ordered as the plain tuple of its fields
    assert params == (field, 1, 4, 8) and params < (field, 1, 4, 9) and params._asdict()["n"] == 4


@pytest.mark.parametrize("change, error", [({"lam": 0}, ZeroLambda), ({"n": 3}, GcdViolation), ({"s": 0}, SZero)])
def test_params_replace_and_make_keep_the_checks(change, error):
    params = AmbientParams.of_ints(3, 2, 1, 4, 8)
    with pytest.raises(error):
        params._replace(**change)
    with pytest.raises(error):
        AmbientParams._make({**params._asdict(), **change}.values())
    assert params._replace(lam=1) == AmbientParams._make((params.field, 1, 4, 1))
    with pytest.raises(TypeError):
        AmbientParams._make(params[:3])


def test_negacyclic_length_thirty_layout():
    """x^30 - 4 over F_5: four factors, paired (1,3) and (2,4)."""
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    fd = build_factor_data(params)
    assert fd.params.lam0 == 4
    assert [f.coeffs for f in fd.factors] == [
        (2, 1),
        (4, 2, 1),
        (3, 1),
        (4, 3, 1),
    ]
    assert fd.tau == [2, 3, 0, 1]
    assert fd.rho == 0 and fd.pair_count == 2
    delta = json.loads(factor_data_json(fd))["delta"]
    for j, f in enumerate(fd.factors):
        assert reciprocal(f).monic() == fd.factors[fd.tau[j]]
        assert params.field.mul(delta[j], f(0)) == 1


def test_negacyclic_length_thirty_idempotents():
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    fd = build_factor_data(params)
    F = params.field
    expect = [
        {0: 1, 5: 2, 10: 4, 15: 3, 20: 1, 25: 2},
        {0: 2, 5: 2, 10: 1, 15: 4, 20: 4, 25: 2},
        {0: 1, 5: 3, 10: 4, 15: 2, 20: 1, 25: 3},
        {0: 2, 5: 3, 10: 1, 15: 1, 20: 4, 25: 3},
    ]
    assert fd.idempotents == [poly_of(F, d) for d in expect]


def random_params(rng):
    p = rng.choice([2, 3, 5, 7])
    m = rng.choice([1, 2])
    s = rng.choice([1, 2])
    n = rng.choice([k for k in range(1, 13) if k % p != 0])
    field = field_new(p, m)
    lam = rng.randrange(1, field.q)
    return AmbientParams(field, s, n, lam)


def test_idempotent_identities_random(monkeypatch):
    rng = random.Random(7)
    for _ in range(12):
        params = random_params(rng)
        monkeypatch.setattr(poly, "FACTOR_SEED", rng.randrange(1 << 30))
        fd = build_factor_data(params)
        field = params.field
        total = Poly.zero(field)
        for j, eps in enumerate(fd.idempotents):
            total = total + eps
            assert mulmod(fd, eps, eps) == eps
            # eps_j kills its own factor power
            fpow = fd.chain(j).modulus
            assert mulmod(fd, eps, fpow).is_zero()
            for l in range(j):
                assert mulmod(fd, eps, fd.idempotents[l]).is_zero()
        assert total == Poly.one(field)


def reference_idempotents(params, factors):
    """w_j by the formula the closed form replaced: v = x f' / (n lambda0)
    mod f, then w = v (x^n - lambda0) // f mod x^n - lambda0, with two
    products and three divisions per factor and no reciprocal pairs."""
    field, base = params.field, decomp.root_binomial(params)
    scale = field.inv(field.mul(params.n % params.p, params.lam0))
    out = []
    for f in factors:
        v = (Poly.x(field) * f.derivative()).scale(scale) % f
        out.append((v * (base // f)) % base)
    return out


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(
    p=st.sampled_from([2, 3, 5, 7, 13]),
    m=st.sampled_from([1, 2, 3]),
    s=st.sampled_from([1, 2]),
    n=st.integers(1, 40),
    order=st.sampled_from(["one", "two", "more"]),
    lam=st.integers(1, 13**3 - 1),
    shuffle=st.randoms(use_true_random=False),
)
@example(p=3, m=1, s=1, n=1, order="more", lam=2, shuffle=random.Random(0))  # n = 1: w = 1
@example(p=3, m=1, s=1, n=2, order="two", lam=2, shuffle=random.Random(0))  # x^2 + 1: r = 1
@example(p=7, m=1, s=2, n=48, order="more", lam=3, shuffle=random.Random(0))
@example(p=2, m=3, s=1, n=21, order="one", lam=1, shuffle=random.Random(0))
def test_idempotents_equal_the_product_formula(p, m, s, n, order, lam, shuffle):
    """The closed form and the reciprocal mirror give the product
    formula's w_j in any factor order, and w_i mod f_j = delta_ij."""
    assume(n % p)
    field = decomp.ring_field(p, m, s, n)
    lam = {"one": 1, "two": field.neg(1)}.get(order, lam % field.q)
    assume(lam and (order != "more" or field.order(lam) > 2))
    params = AmbientParams(field, s, n, lam)
    factors = list(build_factor_data(params).factors)
    shuffle.shuffle(factors)
    fd = factor_data_for(params, factors)
    ws = fd.root_idempotents
    assert ws == reference_idempotents(params, factors)
    if fd.r == 1:
        assert ws == [Poly.one(field)]
    for i, w in enumerate(ws):
        for j, f in enumerate(factors):
            assert w % f == (Poly.one(field) if i == j else Poly.zero(field))


@pytest.mark.parametrize("ring", [(3, 1, 4, 2, 1), (5, 1, 1, 6, 4)])
def test_set_up_builds_no_polynomial_of_the_ambient_length(ring, monkeypatch):
    """x^N - lambda is the oracle's, not the set-up's: building a ring
    makes no Poly of length N + 1 (n > 1 here, so no f^e is one)."""
    params = AmbientParams.of_ints(*ring)
    lengths = []
    init = Poly.__init__

    def recorded(self, *args):
        init(self, *args)
        lengths.append(len(self.coeffs))

    monkeypatch.setattr(Poly, "__init__", recorded)
    fd = build_factor_data(params)
    assert lengths and fd.r > 1
    assert params.N + 1 not in lengths


def test_tau_absent_without_self_paired_lambda():
    params = AmbientParams.of_ints(5, 1, 1, 6, 2)  # 2^2 = 4 != 1
    fd = build_factor_data(params)
    assert fd.tau is None and fd.rho is None
    assert fd.r == len(fd.idempotents)


def test_factor_list_must_multiply_out():
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    F = params.field
    wrong = [Poly(F, (1, 1))] * 6
    with pytest.raises(RangeError):
        factor_data_for(params, wrong)


def test_custom_order_is_honored():
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    fd = build_factor_data(params)
    shuffled = [fd.factors[i] for i in (3, 0, 2, 1)]
    fd2 = factor_data_for(params, shuffled)
    assert fd2.factors == shuffled
    assert fd2.tau == [3, 2, 1, 0]
    assert fd2.idempotents[1] == fd.idempotents[0]


def test_seed_independence(monkeypatch):
    params = AmbientParams.of_ints(3, 2, 1, 8, 8)
    monkeypatch.setattr(poly, "FACTOR_SEED", 1)
    a = build_factor_data(params)
    monkeypatch.setattr(poly, "FACTOR_SEED", 999)
    b = build_factor_data(params)
    assert a.factors == b.factors
    assert a.idempotents == b.idempotents


def test_derived_factors_are_hashed_once(monkeypatch):
    """A DerivedFactors equals, and hashes as, its plain tuple, and a
    ring memo hit by it hashes none of the r factors again."""
    params = AmbientParams.of_ints(3, 1, 1, 242, 2)
    fd = factor_data(params)
    factors = decomp._derived_factors(params)
    assert len(factors) == 25
    assert factors == tuple(factors) and hash(factors) == hash(tuple(factors))
    assert factor_data(params, list(fd.factors)) is fd
    calls = []
    real = Poly.__hash__
    monkeypatch.setattr(Poly, "__hash__", lambda self: calls.append(self) or real(self))
    assert factor_data(params) is fd
    assert calls == []


def test_memo_keeps_at_most_its_bound():
    rings = [AmbientParams.of_ints(5, 1, 1, n, lam) for n in (1, 2, 3, 4, 6) for lam in (1, 2, 3, 4)]
    first = factor_data(rings[0])
    assert factor_data(rings[0], first.factors) is first  # found by its factors too
    for params in rings[1:]:
        factor_data(params)
        assert kept_rings() <= decomp.MEMO_SIZE
        # a ring in use stays among the most recently used, so it is never dropped
        assert factor_data(rings[0]) is first
    assert kept_rings() == decomp.MEMO_SIZE
    # the least recently used rings were dropped and are built again
    fd = factor_data(rings[1])
    assert fd is not build_factor_data(rings[1]) and fd.factors == build_factor_data(rings[1]).factors
    assert factor_data(rings[1]) is fd


def test_memo_keeps_memo_size_rings():
    """Each ring takes one entry, so after MEMO_SIZE rings the first is
    still kept; the dual of its dual is still the ring itself."""
    rings = [AmbientParams.of_ints(5, 1, 1, n, lam) for n in (1, 2, 3, 4, 6) for lam in (1, 2, 3, 4)]
    rings = rings[: decomp.MEMO_SIZE]
    first = factor_data(rings[0])
    for params in rings[1:]:
        factor_data(params)
    assert kept_rings() == decomp.MEMO_SIZE
    assert factor_data(rings[0]) is first
    assert factor_data(rings[0], first.factors) is first
    ring = AmbientParams.of_ints(5, 1, 1, 6, 2)  # lambda^(-1) = 3: a ring apart from its dual
    fd = factor_data(ring)
    assert dual_factor_data(dual_factor_data(fd)) is fd
    assert kept_rings() == decomp.MEMO_SIZE  # fd and its dual took two entries
    assert factor_data(rings[0]) is first


def test_build_factor_data_builds_afresh():
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    kept = factor_data(params)
    a, b = build_factor_data(params), build_factor_data(params)
    assert a is not b and a is not kept
    assert a.factors == b.factors == kept.factors
    assert factor_data_for(params, a.factors) is not a
    assert kept_rings() == 1  # the builders add nothing


def test_memo_tells_field_moduli_apart():
    # F_9 as F_3[x]/(x^2 + 1) and as F_3[x]/(x^2 + x + 2): equal (p, m, s, n, lambda)
    a = AmbientParams(field_new(3, 2, (1, 0, 1)), 1, 4, 1)
    b = AmbientParams(field_new(3, 2, (2, 1, 1)), 1, 4, 1)
    fa, fb = factor_data(a), factor_data(b)
    assert fa is not fb
    assert fa.params.field.modulus == (1, 0, 1) and fb.params.field.modulus == (2, 1, 1)
    assert factor_data(a) is fa and factor_data(b) is fb


def test_memo_keeps_no_failed_build():
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    wrong = [Poly(params.field, (1, 1))] * 6
    for _ in range(2):
        with pytest.raises(RangeError):
            factor_data(params, wrong)
    assert kept_rings() == 0


# (p, m, s, n, lambda) rings of the tests: m = 1, 2 and 3, e up to 9,
# lambda^2 = 1 and not, one factor and many
DERIVED_RINGS = [
    (5, 1, 1, 6, 4),
    (5, 1, 1, 4, 3),
    (5, 1, 1, 2, 2),
    (2, 1, 2, 7, 1),
    (3, 1, 2, 2, 2),
    (3, 1, 1, 242, 1),
    (3, 1, 1, 242, 2),
    (7, 1, 1, 48, 6),
    (41, 1, 1, 4, 1),
    (2, 2, 1, 3, 1),
    (2, 2, 1, 3, 2),
    (3, 2, 1, 8, 1),
    (3, 2, 1, 8, 3),
    (2, 3, 1, 7, 1),
    (2, 3, 1, 7, 2),
]


@pytest.mark.parametrize("ring", DERIVED_RINGS)
def test_derived_factor_lists_are_not_multiplied_out(monkeypatch, ring):
    """The package's own factor lists, from factoring x^n - lambda0 or as
    the monic reciprocals of such a list, reach factor_data_for as
    DerivedFactors, which it does not multiply out."""
    seen = []
    real = decomp.factor_data_for
    monkeypatch.setattr(decomp, "factor_data_for", lambda params, factors: seen.append(type(factors)) or real(params, factors))
    params = AmbientParams.of_ints(*ring)
    fresh, kept = build_factor_data(params), factor_data(params)
    dual = dual_factor_data(kept)
    assert dual_factor_data(dual) is kept and dual_factor_data(fresh).factors == dual.factors
    assert len(seen) >= 2 and set(seen) == {DerivedFactors}
    # what the check would have found: each list multiplies out to its binomial
    for fd in (fresh, kept, dual):
        prod = Poly.one(fd.params.field)
        for f in fd.factors:
            prod = prod * f
        assert prod == decomp.root_binomial(fd.params)
    assert fresh.factors == kept.factors


@pytest.mark.parametrize("ring", DERIVED_RINGS + [(2, 3, 2, 7, 1), (3, 2, 2, 4, 5), (2, 2, 3, 5, 2)])
def test_lam0_is_a_property_of_the_four_fields(ring):
    """lambda0 is read off the params, which stay the tuple of their four
    fields: equal, hashed and ordered as it."""
    params = AmbientParams.of_ints(*ring)
    field, s, n, lam = fields = (params.field, params.s, params.n, params.lam)
    assert params.lam0 == ps_root(field, lam, s) and field.pow(params.lam0, params.e) == lam
    assert params._fields == ("field", "s", "n", "lam") and len(params) == 4
    assert params == fields and hash(params) == hash(fields) and params == AmbientParams.of_ints(*ring)
    assert sorted([params, (field, s, n - 1, lam), (field, s, n + 1, lam)])[1] is params


def test_outside_factor_lists_are_still_multiplied_out():
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    factors = build_factor_data(params).factors
    wrong = [Poly(params.field, [1, 1])] + factors[1:]
    for route in (factor_data_for, factor_data):
        with pytest.raises(RangeError, match="multiply out"):
            route(params, wrong)


@pytest.mark.parametrize("route", [factor_data_for, factor_data])
def test_outside_factor_lists_must_have_the_factor_degrees(route):
    """x^4 - 1 over F_3 is (x + 1)(x + 2)(x^2 + 1): a list with its
    product but other degrees is refused before it is multiplied out (a
    one-factor ring would count 250 codes, not the ring's 8704), and
    nothing is kept."""
    params = AmbientParams.of_ints(3, 1, 1, 4, 1)
    F = params.field
    whole = [Poly(F, (2, 0, 0, 0, 1))]
    paired = [Poly(F, (2, 0, 1)), Poly(F, (1, 0, 1))]
    for wrong in (whole, paired):
        with pytest.raises(RangeError, match="monic irreducible factors"):
            route(params, wrong)
    assert kept_rings() == 0
    assert count_codes(build_factor_data(params)) == 8704
