import random

import pytest

from ccring import decomp, poly
from ccring.decomp import AmbientParams, build_factor_data, factor_data, factor_data_for
from ccring.errors import GcdViolation, RangeError, SZero, ZeroLambda
from ccring.gf import field_new
from ccring.poly import Poly, reciprocal


def poly_of(field, coeff_at):
    coeffs = [0] * (max(coeff_at) + 1)
    for i, c in coeff_at.items():
        coeffs[i] = c
    return Poly(field, coeffs)


def test_params_validation():
    with pytest.raises(SZero):
        AmbientParams.of_ints(5, 1, 0, 6, 4)
    with pytest.raises(GcdViolation):
        AmbientParams.of_ints(2, 1, 1, 4, 1)
    with pytest.raises(ZeroLambda):
        AmbientParams.of_ints(5, 1, 1, 6, 0)
    with pytest.raises(RangeError):
        AmbientParams.of_ints(5, 1, 1, 0, 4)


def test_negacyclic_length_thirty_layout():
    """x^30 - 4 over F_5: four factors, paired (1,3) and (2,4)."""
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    fd = build_factor_data(params)
    assert fd.lam0 == 4
    assert [f.coeffs for f in fd.factors] == [
        (2, 1),
        (4, 2, 1),
        (3, 1),
        (4, 3, 1),
    ]
    assert fd.tau == [2, 3, 0, 1]
    assert fd.rho == 0 and fd.pair_count == 2
    for j, f in enumerate(fd.factors):
        assert reciprocal(f).monic() == fd.factors[fd.tau[j]]
        assert params.field.mul(fd.delta[j], f(0)) == 1


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
            assert fd.mulmod(eps, eps) == eps
            # eps_j kills its own factor power
            fpow = fd.chain(j).modulus
            assert fd.mulmod(eps, fd.reduce(fpow)).is_zero()
            for l in range(j):
                assert fd.mulmod(eps, fd.idempotents[l]).is_zero()
        assert total == Poly.one(field)


def test_tau_absent_without_self_paired_lambda():
    params = AmbientParams.of_ints(5, 1, 1, 6, 2)  # 2^2 = 4 != 1
    fd = build_factor_data(params)
    assert fd.tau is None and fd.delta is None
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


def test_memo_keeps_at_most_its_bound():
    rings = [AmbientParams.of_ints(5, 1, 1, n, lam) for n in (1, 2, 3, 4, 6) for lam in (1, 2, 3, 4)]
    first = factor_data(rings[0])
    assert factor_data(rings[0], first.factors) is first  # kept under both keys
    for params in rings[1:]:
        factor_data(params)
        assert decomp._kept.cache_info().currsize <= decomp.MEMO_SIZE
        # a ring in use stays among the most recently used, so it is never dropped
        assert factor_data(rings[0]) is first
    assert decomp._kept.cache_info().currsize == decomp.MEMO_SIZE
    # the least recently used rings were dropped and are built again
    fd = factor_data(rings[1])
    assert fd is not build_factor_data(rings[1]) and fd.factors == build_factor_data(rings[1]).factors
    assert factor_data(rings[1]) is fd


def test_build_factor_data_builds_afresh():
    params = AmbientParams.of_ints(5, 1, 1, 6, 4)
    kept = factor_data(params)
    a, b = build_factor_data(params), build_factor_data(params)
    assert a is not b and a is not kept
    assert a.factors == b.factors == kept.factors
    assert factor_data_for(params, a.factors) is not a
    assert decomp._kept.cache_info().currsize == 2  # the builders add nothing


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
    assert decomp._kept.cache_info().currsize == 0
