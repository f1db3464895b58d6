import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ccring
from ccring import poly
from ccring.errors import ConstantInput, NotSquarefree, RangeError
from ccring.gf import field_new
from ccring.poly import (
    Poly,
    _mul_conv,
    _mul_school,
    factor_squarefree,
    is_irreducible,
    poly_gcd,
    poly_modpow,
    poly_xgcd,
    reciprocal,
)
from test_factoring import reference_factor

F5 = field_new(5, 1)


def rand_poly(F, deg, rng):
    return Poly(F, [rng.randrange(F.q) for _ in range(deg + 1)])


def test_ring_axioms_sampled():
    rng = random.Random(3)
    for p, m in [(2, 1), (5, 1), (3, 2)]:
        F = field_new(p, m)
        for _ in range(30):
            a = rand_poly(F, rng.randrange(6), rng)
            b = rand_poly(F, rng.randrange(6), rng)
            c = rand_poly(F, rng.randrange(6), rng)
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) * c == a * c + b * c
            assert a - a == Poly.zero(F)


def test_divmod_invariant():
    rng = random.Random(9)
    for p, m in [(2, 1), (5, 1), (7, 2)]:
        F = field_new(p, m)
        for _ in range(40):
            a = rand_poly(F, rng.randrange(12), rng)
            b = rand_poly(F, rng.randrange(6), rng)
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.degree < b.degree


def test_large_product_matches_schoolbook():
    # exercise the convolution path against direct accumulation
    rng = random.Random(41)
    for p, m in [(5, 1), (3, 2)]:
        F = field_new(p, m)
        a = rand_poly(F, 90, rng)
        b = rand_poly(F, 75, rng)
        prod = a * b
        for k in [0, 1, 37, 90, 164, 165]:
            acc = 0
            for i in range(k + 1):
                if i <= a.degree and k - i <= b.degree:
                    acc = F.add(acc, F.mul(a[i], b[k - i]))
            assert prod[k] == acc


# slot widths step up at 2^k coefficients; 1 x n and n x 1 are the edges
KRONECKER_LENGTHS = [1, 2, 3, 7, 8, 15, 16, 31, 32, 63, 64, 127, 128, 255, 256, 300]


@pytest.mark.parametrize(
    "p,m", [(2, 1), (3, 1), (65521, 1), (2, 2), (3, 2), (251, 2), (2, 3), (5, 3)]
)
def test_kronecker_product_equals_schoolbook(p, m):
    F = field_new(p, m)
    rng = random.Random(p * 10 + m)
    shapes = [(1, n) for n in KRONECKER_LENGTHS] + [(n, 1) for n in KRONECKER_LENGTHS]
    shapes += [(n, rng.choice(KRONECKER_LENGTHS)) for n in KRONECKER_LENGTHS]
    shapes += [(rng.randint(1, 300), rng.randint(1, 300)) for _ in range(10)]
    for la, lb in shapes:
        a = [rng.randrange(F.q) for _ in range(la - 1)] + [rng.randrange(1, F.q)]
        b = [rng.randrange(F.q) for _ in range(lb - 1)] + [rng.randrange(1, F.q)]
        assert _mul_conv(a, b, F) == _mul_school(a, b, F), (la, lb)
        # every F_p coordinate p - 1: the largest sums a slot must hold
        top = [F.q - 1]
        assert _mul_conv(top * la, top * lb, F) == _mul_school(top * la, top * lb, F), (la, lb)


def test_kronecker_product_in_big_endian_order(monkeypatch):
    # one-byte slots read the same in either byte order, so the reversed
    # slot layout a big-endian host packs can be run on any host
    monkeypatch.setattr(poly, "_BYTE_ORDER", "big")
    rng = random.Random(44)
    for (p, m), shortest in [((2, 1), 63), ((2, 2), 31), ((2, 3), 21), ((3, 1), 15), ((3, 2), 7)]:
        F = field_new(p, m)
        for la, lb in [(1, 1), (1, 300), (shortest, 1), (shortest, 300), (shortest, shortest)]:
            for a, b in [
                ([rng.randrange(F.q) for _ in range(la)], [rng.randrange(F.q) for _ in range(lb)]),
                ([F.q - 1] * la, [F.q - 1] * lb),
            ]:
                assert _mul_conv(a, b, F) == _mul_school(a, b, F), (p, m, la, lb)


def test_product_above_the_cutoff_uses_the_kronecker_route(monkeypatch):
    rng = random.Random(43)
    for p, m in [(7, 1), (2, 3)]:
        F = field_new(p, m)
        a, b = rand_poly(F, 70, rng), rand_poly(F, 60, rng)
        assert len(a.coeffs) * len(b.coeffs) > poly._SCHOOL_CUTOFF
        want = Poly(F, _mul_school(a.coeffs, b.coeffs, F))
        with monkeypatch.context() as patch:
            patch.setattr(poly, "_mul_school", None)  # a call would raise
            assert a * b == want


def test_cli_import_leaves_numpy_out():
    src = str(Path(ccring.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, ccring.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_eval_and_derivative():
    f = Poly(F5, [1, 0, 3, 1])  # x^3 + 3x^2 + 1
    assert f(0) == 1
    assert f(1) == 0
    assert f.derivative() == Poly(F5, [0, 1, 3])  # 3x^2 + 6x = 3x^2 + x


def test_gcd_and_xgcd():
    rng = random.Random(17)
    F = field_new(7, 1)
    for _ in range(30):
        a = rand_poly(F, rng.randrange(1, 8), rng)
        b = rand_poly(F, rng.randrange(1, 8), rng)
        if a.is_zero() or b.is_zero():
            continue
        g = poly_gcd(a, b)
        assert (a % g).is_zero() and (b % g).is_zero()
        g2, u, v = poly_xgcd(a, b)
        assert u * a + v * b == g2
        assert g2 == g


def test_modpow_reduces_x25_mod_binomial():
    # x^6 = -1 here, so x^25 = (x^6)^4 * x = x
    mod = Poly(F5, [1, 0, 0, 0, 0, 0, 1])
    assert poly_modpow(Poly.x(F5), 25, mod) == Poly.x(F5)
    # independent route: repeated multiply-reduce
    acc = Poly.one(F5)
    for _ in range(25):
        acc = (acc * Poly.x(F5)) % mod
    assert acc == Poly.x(F5)


def test_modpow_random_agreement():
    rng = random.Random(29)
    F = field_new(3, 1)
    mod = Poly(F, [1, 2, 0, 1])
    for _ in range(20):
        a = rand_poly(F, 2, rng)
        e = rng.randrange(1, 60)
        naive = Poly.one(F)
        for _ in range(e):
            naive = (naive * a) % mod
        assert poly_modpow(a, e, mod) == naive


def test_reciprocal_reverses_and_inverts_roots():
    f = Poly(F5, [3, 1, 0, 1])  # x^3 + x + 3
    r = reciprocal(f)
    assert r == Poly(F5, [1, 0, 1, 3])  # 3x^3 + x^2 + 1
    # nonzero root a of f gives root a^-1 of the reciprocal
    for a in range(1, 5):
        if f(a) == 0:
            assert r(F5.inv(a)) == 0
    # reversal twice is the identity when the constant term is nonzero
    assert reciprocal(r) == f


def test_self_reciprocal_detection():
    f = Poly(field_new(3, 1), [1, 0, 1])  # x^2 + 1 over F_3
    assert reciprocal(f).monic() == f


def test_irreducibility_anchors():
    assert is_irreducible(Poly(F5, [4, 2, 1]))  # x^2 + 2x + 4
    assert not is_irreducible(Poly(F5, [1, 0, 0, 0, 0, 0, 1]))  # x^6 + 1
    F19 = field_new(19, 1)
    assert is_irreducible(Poly(F19, [13, 8, 1]))  # x^2 + 8x + 13
    # x^4 - 3 is irreducible over F_5 (3 has order 4 in F_5*)
    assert is_irreducible(Poly(F5, [2, 0, 0, 0, 1]))


def test_factor_x6_plus_1_over_f5():
    f = Poly(F5, [1, 0, 0, 0, 0, 0, 1])
    fac = factor_squarefree(f)
    got = [p.coeffs for p in fac]
    assert got == [
        (2, 1),  # x + 2
        (3, 1),  # x + 3
        (4, 2, 1),  # x^2 + 2x + 4
        (4, 3, 1),  # x^2 + 3x + 4
    ]
    assert math.prod(fac, start=Poly.one(F5)) == f


def test_factor_quartics_f19_nonsquares():
    """x^4 - a splits into two conjugate quadratics for every nonsquare a.

    Pairs frozen after checking each product multiplies back to x^4 - a
    (the test re-verifies that, so the vectors are self-certifying).
    """
    F = field_new(19, 1)
    pairs = {
        2: ((13, 8, 1), (13, 11, 1)),
        3: ((15, 12, 1), (15, 7, 1)),
        8: ((12, 10, 1), (12, 9, 1)),
        10: ((3, 5, 1), (3, 14, 1)),
        12: ((8, 4, 1), (8, 15, 1)),
        13: ((14, 16, 1), (14, 3, 1)),
        14: ((10, 18, 1), (10, 1, 1)),
        15: ((2, 17, 1), (2, 2, 1)),
        18: ((18, 13, 1), (18, 6, 1)),
    }
    for a, (f1, f2) in pairs.items():
        quartic = Poly(F, [F.neg(a), 0, 0, 0, 1])
        assert Poly(F, f1) * Poly(F, f2) == quartic
        got = {p.coeffs for p in factor_squarefree(quartic)}
        assert got == {f1, f2}, f"x^4 - {a}"


def test_factor_quartics_f13_fourth_power_classes():
    """For a square that is not a fourth power, x^4 - a = (x^2-c)(x^2+c)ish."""
    F = field_new(13, 1)
    table = {
        4: ((11, 0, 1), (2, 0, 1)),
        10: ((6, 0, 1), (7, 0, 1)),
        12: ((8, 0, 1), (5, 0, 1)),
    }
    for a, (f1, f2) in table.items():
        quartic = Poly(F, [F.neg(a), 0, 0, 0, 1])
        assert Poly(F, f1) * Poly(F, f2) == quartic
        got = {p.coeffs for p in factor_squarefree(quartic)}
        assert got == {f1, f2}, f"x^4 - {a}"


def test_factorization_is_seed_independent(monkeypatch):
    F = field_new(13, 1)
    f = Poly(F, [12, 0, 0, 0, 1])
    monkeypatch.setattr(poly, "FACTOR_SEED", 1)
    a = [p.coeffs for p in factor_squarefree(f)]
    monkeypatch.setattr(poly, "FACTOR_SEED", 9999)
    b = [p.coeffs for p in factor_squarefree(f)]
    assert a == b


def test_factor_squarefree_rejections():
    with pytest.raises(ConstantInput):
        factor_squarefree(Poly.const(F5, 3))
    with pytest.raises(NotSquarefree):
        factor_squarefree(Poly(F5, [4, 0, 0, 0, 0, 1]))  # x^5 - 1 = (x - 1)^5
    with pytest.raises(RangeError):
        factor_squarefree(Poly(F5, [4, 4, 1]))  # no binomial
    with pytest.raises(RangeError):
        factor_squarefree(Poly(F5, [0, 0, 1]))  # x^2: c = 0


def test_factor_random_products_roundtrip():
    rng = random.Random(77)
    F = field_new(3, 2)
    irreds = []
    # collect a few small irreducibles
    for c0 in range(9):
        for c1 in range(9):
            f = Poly(F, [c0, c1, 1])
            if is_irreducible(f):
                irreds.append(f)
            if len(irreds) >= 6:
                break
        if len(irreds) >= 6:
            break
    for _ in range(10):
        chosen = rng.sample(irreds, 3)
        prod = Poly.one(F)
        for f in chosen:
            prod = prod * f
        got = reference_factor(prod)
        assert sorted(got, key=Poly.sort_key) == sorted(chosen, key=Poly.sort_key)
