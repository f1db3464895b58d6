import random
from itertools import product

import pytest

from ccring.chain import ChainCtx, ceil_half
from ccring.errors import ConstantInput, RangeError
from ccring.gf import field_new
from ccring.poly import Poly, poly_modpow

F5 = field_new(5, 1)


def from_digits(ctx, digits):
    """sum_k digits[k] * f^k: the element of K with these f-adic digits.

    The reference the window cuts and quotients (ChainCtx.window_reduce
    and window_quotient) are checked against, here and in test_dual.
    """
    out = Poly.zero(ctx.field)
    for k, b in enumerate(digits):
        if not b.is_zero():
            out = out + b * ctx.f_pows[k]
    return out


def make_ctx(p=5, m=1, f_coeffs=(2, 1), e=5):
    F = field_new(p, m)
    return ChainCtx(Poly(F, list(f_coeffs)), e)


def test_ceil_half():
    assert [ceil_half(x) for x in range(7)] == [0, 1, 1, 2, 2, 3, 3]


def test_sizes():
    ctx = make_ctx()
    assert ctx.size == 5**5
    assert ctx.residue_size == 5
    ctx2 = make_ctx(3, 1, (1, 0, 1), 3)  # f = x^2 + 1, e = 3
    assert ctx2.size == 3**6
    assert ctx2.residue_size == 9


def test_f_adic_digits_of_x4():
    """Digits of x^4 at f = x + 2 come from the binomial expansion.

    x^4 = ((x+2) - 2)^4 = sum C(4,i) (x+2)^i (-2)^(4-i); reducing the
    binomial coefficients mod 5 gives 1, 3, 4, 2, 1.
    """
    ctx = make_ctx()
    digits = ctx.f_adic(Poly(F5, [0, 0, 0, 0, 1]))
    assert [d.coeffs for d in digits] == [(1,), (3,), (4,), (2,), (1,)]
    # and independently from the binomial theorem
    from math import comb

    expect = [comb(4, i) * pow(-2, 4 - i, 5) % 5 for i in range(5)]
    assert [d[0] for d in digits] == expect


def test_f_adic_roundtrip_random():
    rng = random.Random(4)
    for ctx in [make_ctx(), make_ctx(3, 1, (1, 0, 1), 3), make_ctx(2, 2, (2, 1), 4)]:
        for _ in range(40):
            a = Poly(ctx.field, [rng.randrange(ctx.field.q) for _ in range(ctx.d * ctx.e)])
            digits = ctx.f_adic(a)
            assert len(digits) == ctx.e
            assert all(d.degree < ctx.d for d in digits)
            assert from_digits(ctx, digits) == ctx.reduce(a)


def test_residue_set_windows():
    ctx = make_ctx(e=3)
    # window [a, b): digits below a forced to zero, digits above b cut
    full = list(ctx.residue_set(0, 3))
    assert len(full) == 5**3
    assert len(set(full)) == len(full)
    shifted = list(ctx.residue_set(1, 3))
    assert len(shifted) == 25
    assert all(ctx.f_adic(z)[0].is_zero() for z in shifted)
    assert list(ctx.residue_set(2, 2)) == [Poly.zero(F5)]
    with pytest.raises(RangeError):
        list(ctx.residue_set(2, 1))


def test_window_membership_and_reduce():
    ctx = make_ctx(e=4)
    z = ctx.mul(ctx.f_pows[2], Poly(F5, [1, 1]))
    assert ctx.window_quotient(z, 1, 4) == ctx.f * Poly(F5, [1, 1])
    assert ctx.window_quotient(z, 2, 4) == Poly(F5, [1, 1])
    assert ctx.window_quotient(z, 3, 4) is None
    cut = ctx.window_reduce(z, 2, 3)
    assert ctx.window_quotient(cut, 2, 3) is not None
    digits = ctx.f_adic(cut)
    assert digits[2] == ctx.f_adic(z)[2]
    with pytest.raises(RangeError):
        ctx.window_reduce(ctx.f, 2, 4)  # valuation 1 sits below the window


def test_arithmetic_mod_f_power():
    ctx = make_ctx(e=3)
    # (f + 1)^3 = f^3 + 3f^2 + 3f + 1 = 3f^2 + 3f + 1 in K
    lhs = poly_modpow(ctx.f + Poly.one(F5), 3, ctx.modulus)
    rhs = (
        ctx.mul(Poly.const(F5, 3), ctx.f_pows[2]) + ctx.mul(Poly.const(F5, 3), ctx.f)
    ) + Poly.one(F5)
    assert lhs == rhs
    assert poly_modpow(ctx.f, 3, ctx.modulus) == Poly.zero(F5)


def test_digit_polys_cover_residue_field():
    ctx = make_ctx(3, 1, (1, 0, 1), 2)  # d = 2 over F_3
    digits = list(ctx.digit_polys())
    assert len(digits) == 9
    assert len(set(digits)) == 9
    assert all(d.degree < 2 for d in digits)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_digit_polys_walk_in_product_order(p, m, d):
    """Constant term fastest: product's tuples over range(q), reversed."""
    field = field_new(p, m)
    ctx = ChainCtx(Poly.monomial(field, d), 1)  # only f's degree matters here
    want = [Poly(field, cs[::-1]) for cs in product(range(field.q), repeat=d)]
    assert list(ctx.digit_polys()) == want


def test_rejects_bad_parameters():
    with pytest.raises(ConstantInput):
        ChainCtx(Poly.const(F5, 2), 3)
    with pytest.raises(RangeError):
        ChainCtx(Poly(F5, [2, 1]), 0)


def test_pow_rejects_negative_exponent():
    ctx = make_ctx(5, 1, (4, 1), 5)  # f = x - 1, a factor of x^2 - 1 over F_5
    x = Poly(F5, [0, 1])
    with pytest.raises(RangeError):
        poly_modpow(x, -1, ctx.modulus)
    assert poly_modpow(x, 0, ctx.modulus) == Poly.one(F5)


# -- windows by division against the f-adic digit definition -------------------

WINDOW_CTXS = [
    (5, 1, (2, 1), 5),
    (3, 1, (1, 0, 1), 3),
    (2, 2, (2, 1, 1), 4),
    (3, 2, (3, 1), 9),
    (5, 1, (3, 1), 25),
    (3, 1, (1, 1), 27),
    (2, 1, (1, 1, 1), 8),
]


def digit_window_elements(ctx, rng, count):
    """Elements whose nonzero digits fill a random window, an unreduced
    random polynomial, 0 and 1."""
    q = ctx.field.q
    out = [Poly.zero(ctx.field), Poly.one(ctx.field)]
    out.append(Poly(ctx.field, [rng.randrange(q) for _ in range(ctx.d * ctx.e + 3)]))
    for _ in range(count):
        lo = rng.randrange(ctx.e)
        hi = rng.randrange(lo + 1, ctx.e + 1)
        digits = [Poly.zero(ctx.field)] * ctx.e
        for k in range(lo, hi):
            digits[k] = Poly(ctx.field, [rng.randrange(q) for _ in range(ctx.d)])
        out.append(from_digits(ctx, digits))
    return out


@pytest.mark.parametrize("p,m,coeffs,e", WINDOW_CTXS)
def test_windows_agree_with_digits(p, m, coeffs, e):
    ctx = ChainCtx(Poly(field_new(p, m), coeffs), e)
    rng = random.Random(e * 100 + p)
    zero = Poly.zero(ctx.field)
    for z in digit_window_elements(ctx, rng, 6):
        digits = ctx.f_adic(z)
        for a in range(e + 1):
            below = any(not digits[k].is_zero() for k in range(a))
            for b in range(a, e + 1):
                inside = not below and all(digits[k].is_zero() for k in range(b, e))
                c = ctx.window_quotient(ctx.reduce(z), a, b)
                assert (c is not None) == inside, (z, a, b)
                if inside:  # z = f^a c: c holds digits a .. b - 1 at 0 .. b - a - 1
                    assert c == from_digits(ctx, digits[a:b]), (z, a, b)
                if below:
                    with pytest.raises(RangeError):
                        ctx.window_reduce(z, a, b)
                else:
                    cut = [dg if k < b else zero for k, dg in enumerate(digits)]
                    assert ctx.window_reduce(z, a, b) == from_digits(ctx, cut), (z, a, b)
