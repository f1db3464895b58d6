"""The F_p division kernel and list Euclid against the tuple loop they
replaced, and the factorization of x^n - lambda0 over a grid of rings:
multiplied out, irreducible, with the coset degrees, pinned, equal to
the trace route's for any squarefree polynomial, kept here as the
reference (reference_factor), and over F_p and for p = 2 as much work
as the F_q-valued cuts it replaced."""

import hashlib
import random
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ccring import poly
from ccring.errors import NotSquarefree
from ccring.gf import MEMO_SIZE, FieldCtx, field_new
from ccring.poly import (
    Poly,
    binomial_degrees,
    factor_squarefree,
    frobenius,
    is_irreducible,
    poly_gcd,
    poly_modpow,
)

SETTINGS = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])

KERNEL_PRIMES = [2, 3, 257, 65521]


# -- reference: the tuple loop Poly.__divmod__ and poly_gcd ran before the
# list kernel, every slot reduced mod p as it is written


def reference_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    ctx = a.ctx
    db = b.degree
    if a.degree < db:
        return Poly.zero(ctx), a
    inv_lc = ctx.inv(b.lc())
    rem = list(a.coeffs)
    quo = [0] * (len(rem) - db)
    nonzero = [(j, c) for j, c in enumerate(b.coeffs) if c]
    p = ctx.p
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == 0:
            continue
        c = ctx.mul(c, inv_lc)
        off = i - db
        quo[off] = c
        for j, bj in nonzero:
            rem[off + j] = (rem[off + j] - c * bj) % p
    return Poly(ctx, quo), Poly(ctx, rem)


def reference_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, reference_divmod(a, b)[1]
    return a.monic()


@st.composite
def dividend_and_divisor(draw):
    """(a, b) over F_p with deg a <= 200 and 0 <= deg b <= deg a; b is
    dense, the binomial x^k - c, or a p^s-th power, and monic or not."""
    p = draw(st.sampled_from(KERNEL_PRIMES))
    F = field_new(p, 1)
    coeff = st.integers(0, p - 1)
    a = draw(st.lists(coeff, min_size=1, max_size=201))
    a[-1] = a[-1] or 1
    da = len(a) - 1
    shape = draw(st.sampled_from(["dense", "binomial", "frobenius"]))
    if shape == "dense":
        b = draw(st.lists(coeff, min_size=1, max_size=da + 1))
        b[-1] = b[-1] or 1
        divisor = Poly(F, b)
    elif shape == "binomial":
        k = draw(st.integers(0, da))
        c = draw(coeff)
        divisor = Poly(F, [(-c) % p] + [0] * (k - 1) + [1]) if k else Poly.one(F)
    else:
        s = draw(st.integers(1, 4))
        top = da // p**s
        f = draw(st.lists(coeff, min_size=1, max_size=top + 1))
        f[-1] = f[-1] or 1
        divisor = frobenius(Poly(F, f), s)
    scale = draw(st.integers(1, p - 1))  # 1: monic, as the kernel's shortcut
    return Poly(F, a), divisor.scale(scale)


@SETTINGS
@given(pair=dividend_and_divisor())
def test_divmod_kernel_matches_the_tuple_loop(pair):
    a, b = pair
    q, r = divmod(a, b)
    assert (q, r) == reference_divmod(a, b)
    assert r.degree < b.degree and q * b + r == a


@SETTINGS
@given(pair=dividend_and_divisor(), common=st.lists(st.integers(0, 1 << 16), max_size=6))
def test_list_euclid_matches_the_tuple_loop(pair, common):
    a, b = pair
    F = a.ctx
    g = Poly(F, [c % F.p for c in common] or [1])
    if g.is_zero():
        g = Poly.one(F)
    # a shared factor g makes the gcd nontrivial
    a, b = a * g, b * g
    expected = reference_gcd(a, b)
    assert poly_gcd(a, b) == poly_gcd(b, a) == expected
    assert expected.is_monic() and (a % expected).is_zero() and (b % expected).is_zero()


def test_kernel_edges():
    F = field_new(3, 1)
    a = Poly(F, [1, 2, 0, 1])
    assert divmod(a, Poly.const(F, 2)) == reference_divmod(a, Poly.const(F, 2))
    assert divmod(a, a.scale(2)) == (Poly.const(F, 2), Poly.zero(F))
    assert poly_gcd(Poly.zero(F), a.scale(2)) == a
    assert poly_gcd(a, Poly.const(F, 2)) == Poly.one(F)


# -- reference: the trace route factor_squarefree took for any squarefree
# f before it took binomials only, with its general distinct-degree loop


def reference_power_map(f: Poly):
    """(a, k, mod) -> a^(p^k) mod mod, mod dividing f: for a binomial
    x^n - c with n prime to p, the coefficient moves of poly._power_map
    (checked against poly_modpow in test_build_cost), else poly_modpow."""
    ctx, n = f.ctx, f.degree
    if f.is_monic() and n % ctx.p and f.coeffs[0] and not any(f.coeffs[1:-1]):
        power = poly._power_map(ctx, n, ctx.neg(f.coeffs[0]))
        return lambda a, k, mod: power(a, k)
    return lambda a, k, mod: poly_modpow(a, ctx.p**k, mod)


def reference_ddf(f: Poly, power) -> list:
    """Distinct-degree parts of a monic squarefree f, one gcd per degree."""
    x = Poly.x(f.ctx)
    parts, rem, h, d = [], f, x, 0
    while rem.degree > 0:
        d += 1
        if 2 * d > rem.degree:
            parts.append((rem.degree, rem))
            break
        h = power(h, f.ctx.m, rem)
        g = poly_gcd(h - x, rem)
        if g.degree > 0:
            parts.append((d, g))
            rem = rem // g
    return parts


def reference_factor(f: Poly) -> list:
    """The monic irreducible factors of a squarefree f, sorted: distinct
    degrees, then Cantor and Zassenhaus's trace splitter (the absolute
    trace for p = 2, the quadratic character of the trace to F_q for odd
    p), the trace summed term by term."""
    f = f.monic()
    df = f.derivative()
    if df.is_zero() or poly_gcd(f, df).degree != 0:
        raise NotSquarefree("input has a repeated factor")
    ctx, q = f.ctx, f.ctx.q
    rng = random.Random(poly.FACTOR_SEED)
    power = reference_power_map(f)
    out = []
    for d, part in reference_ddf(f, power):
        todo = [part]
        while todo:
            part = todo.pop()
            if part.degree == d:
                out.append(part)
                continue
            h = Poly(ctx, [rng.randrange(q) for _ in range(part.degree)])
            count, step = (ctx.m * d, 1) if ctx.p == 2 else (d, ctx.m)
            t, term = h, h
            for _ in range(count - 1):
                term = power(term, step, part)
                t = t + term
            if ctx.p != 2:
                t = poly_modpow(t, (q - 1) // 2, part) - Poly.one(ctx)
            g = poly_gcd(t, part)
            todo += [g, part // g] if 0 < g.degree < part.degree else [part]
    return sorted(out, key=Poly.sort_key)


def test_distinct_degree_stops_at_a_lone_factor():
    """(x + 1)(x^3 + x + 1) over F_2 is no binomial, so the reference's
    degree loop takes it: after degree 1 takes out x + 1, what is left
    has degree 3 < 2 * 2, so it is irreducible with no further gcd."""
    F = field_new(2, 1)
    linear, cubic = Poly(F, [1, 1]), Poly(F, [1, 1, 0, 1])
    assert reference_factor(linear * cubic) == [linear, cubic]


# -- factoring x^n - lambda0


GRID_PRIMES = [2, 3, 5, 7, 11, 13]


def generator(F) -> int:
    """The least element of multiplicative order q - 1."""
    return next((a for a in range(2, F.q) if F.order(a) == F.q - 1), 1)


def lambdas(F) -> list[int]:
    """1, -1 and a generator of F_q^*, without repeats."""
    return sorted({1, F.neg(1), generator(F)})


def binomial(F, n: int, lam: int) -> Poly:
    return Poly(F, (F.neg(lam),) + (0,) * (n - 1) + (1,))


def fresh(F):
    """A field equal to F that has kept no split, built with no modulus
    search (which would take gcds of its own)."""
    return FieldCtx(F.p, F.m, F.modulus)


@st.composite
def grid_rings(draw):
    p = draw(st.sampled_from(GRID_PRIMES))
    m = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(1, 64).filter(lambda k: k % p))
    F = field_new(p, m)
    return F, n, draw(st.sampled_from(lambdas(F)))


@SETTINGS
@given(ring=grid_rings())
def test_factors_multiply_out_irreducible_with_the_coset_degrees(ring):
    F, n, lam = ring
    f = binomial(F, n, lam)
    factors = factor_squarefree(f)
    prod = Poly.one(F)
    for g in factors:
        assert g.is_monic() and is_irreducible(g)
        prod = prod * g
    assert prod == f
    assert [g.degree for g in factors] == binomial_degrees(F, n, lam)


# sha256 of the factor lists of x^n - lambda0 over every ring of the grid
# (p, m, lambda0, n in this order), as the norm splitter found them
GRID_FACTORS_SHA256 = "0e1dc98eaccddf3e74739a3d30a7210c3dbe6636c5dd2bb029a43c153495974e"


def test_grid_factor_lists_are_pinned():
    digest = hashlib.sha256()
    rings = 0
    for p in GRID_PRIMES:
        for m in (1, 2):
            F = field_new(p, m)
            for lam in lambdas(F):
                for n in range(1, 65):
                    if gcd(n, p) != 1:
                        continue
                    factors = factor_squarefree(binomial(F, n, lam))
                    digest.update(repr((p, m, lam, n, [g.coeffs for g in factors])).encode())
                    rings += 1
    assert rings == 1667
    assert digest.hexdigest() == GRID_FACTORS_SHA256


@st.composite
def reference_rings(draw):
    """(F, n, lambda0): p in GRID_PRIMES, m in 1..3, n <= 120 prime to p,
    lambda0 in 1, -1 or an element of order > 2 where F has one."""
    p = draw(st.sampled_from(GRID_PRIMES))
    F = field_new(p, draw(st.integers(1, 3)))
    n = draw(st.integers(1, 120).filter(lambda k: k % p))
    lams = lambdas(F) if F.q > 3 else [1, F.neg(1)]
    return F, n, draw(st.sampled_from(lams))


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ring=reference_rings())
@example(ring=(field_new(3, 2), 1, 1))
@example(ring=(field_new(13, 1), 1, 2))
@example(ring=(field_new(2, 3), 63, 2))
def test_factors_equal_the_trace_route(ring):
    F, n, lam = ring
    f = binomial(F, n, lam)
    assert factor_squarefree(f) == reference_factor(f)


@st.composite
def character_rings(draw):
    """(F, n, lambda0) over F_{17^2}, F_{19^2} and F_{17^3}, where a trace
    to F_p is cut by the quadratic character, with lambda0 of order > 2."""
    F = draw(st.sampled_from([field_new(17, 2), field_new(19, 2), field_new(17, 3)]))
    n = draw(st.integers(1, 60).filter(lambda k: k % F.p))
    lam = draw(st.integers(2, F.q - 1).filter(lambda a: F.order(a) > 2))
    return F, n, lam


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ring=character_rings())
@example(ring=(field_new(17, 2), 48, generator(field_new(17, 2))))
def test_character_cut_after_the_trace_equals_the_trace_route(ring):
    F, n, lam = ring
    f = binomial(F, n, lam)
    assert factor_squarefree(f) == reference_factor(f)


# sha256 of the factor lists of x^n - lambda0, n < 40, lambda0 in
# lambdas(F), over fields of m > 1 past the grid, as the F_q-valued cuts
# found them (p, m, lambda0, n in this order)
WIDE_FACTORS_SHA256 = "6c6c4b3c7e629796e2296c9e03114bb5b673b8ce83e60736d9e2b0451ecae82e"


def test_wide_factor_lists_are_pinned():
    digest = hashlib.sha256()
    for p, m in [(17, 2), (19, 2), (3, 3), (5, 3)]:
        F = field_new(p, m)
        for lam in lambdas(F):
            for n in (k for k in range(1, 40) if k % p):
                factors = factor_squarefree(binomial(F, n, lam))
                digest.update(repr((p, m, lam, n, [g.coeffs for g in factors])).encode())
    assert digest.hexdigest() == WIDE_FACTORS_SHA256


def count_calls(monkeypatch, *names) -> dict:
    """Count the calls factor_squarefree makes to the poly functions
    named, and the PRNGs it seeds as "Random"."""
    calls = dict.fromkeys(names + ("Random",), 0)
    for name in names:
        real = getattr(poly, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(poly, name, counted)

    def seeded(seed, real=random.Random):
        calls["Random"] += 1
        return real(seed)

    monkeypatch.setattr(poly.random, "Random", seeded)
    return calls


def test_prime_fields_and_p_2_split_with_the_same_work(monkeypatch):
    """Over F_p and for p = 2 the trace to F_p cuts as the F_q-valued
    cuts it replaced did: with the same draws, the same gcd and modpow
    calls over x^n - lambda0, n < 50, lambda0 in lambdas(F).  Each
    binomial is factored on a fresh field, which has kept no split."""
    names = ("poly_gcd", "poly_modpow")
    calls = count_calls(monkeypatch, *names)
    got = {}
    for p, m in [(2, 1), (3, 1), (5, 1), (7, 1), (13, 1), (17, 1), (19, 1), (2, 2), (2, 3)]:
        F = field_new(p, m)
        before = dict(calls)
        for lam in lambdas(F):
            for n in (k for k in range(1, 50) if k % p):
                factor_squarefree(binomial(fresh(F), n, lam))
        got[p, m] = tuple(calls[name] - before[name] for name in names)
    assert got == {
        (2, 1): (35, 0),
        (3, 1): (183, 0),
        (5, 1): (574, 0),
        (7, 1): (1135, 0),
        (13, 1): (2080, 0),
        (17, 1): (673, 630),
        (19, 1): (657, 628),
        (2, 2): (191, 0),
        (2, 3): (205, 0),
    }


def test_cyclotomic_parts_multiply_out_with_the_coset_degrees():
    """For lambda0 = +-1 the parts are the Phi_M mod p; each has its own
    factor degree, they multiply out to x^n -+ 1, and the degrees they
    give are binomial_degrees'.  The orbit basis has one element per
    factor, for every lambda0."""
    for p in GRID_PRIMES:
        for m in (1, 2):
            F = field_new(p, m)
            for n in (k for k in range(1, 49) if k % p):
                for lam in lambdas(F):
                    f = binomial(F, n, lam)
                    degrees = binomial_degrees(F, n, lam)
                    assert len(poly._orbit_basis(F, n, lam)) == len(degrees), (p, m, n, lam)
                    if lam not in (1, F.neg(1)):
                        continue
                    prod, got = Poly.one(F), []
                    for M, d, L in poly._cyclotomic_parts(F, n, lam):
                        part = poly._cyclotomic(F, M)
                        assert part.degree % d == 0 and (binomial(F, L, lam) % part).is_zero()
                        prod = prod * part
                        got += [d] * (part.degree // d)
                    assert prod == f, (p, m, n, lam)
                    assert sorted(got) == degrees, (p, m, n, lam)


# -- splits kept by the field


@pytest.mark.parametrize(
    "p, m, n, lam",
    [
        (3, 1, 40, 1),
        (11, 1, 60, 10),
        (2, 1, 63, 1),
        (7, 1, 24, 3),
        (3, 2, 20, "generator"),
        (5, 2, 24, 4),
        (2, 3, 21, "generator"),
    ],
)
def test_a_repeated_binomial_takes_no_gcd(monkeypatch, p, m, n, lam):
    """The second factorization of a binomial on one field reads every
    split part back: no gcd, no PRNG, no Phi_M of more than one factor
    built, and the same list as a fresh field's."""
    F = field_new(p, m)
    lam = generator(F) if lam == "generator" else lam
    cyclic = lam in (1, F.neg(1))
    parts = poly._cyclotomic_parts(F, n, lam) if cyclic else []
    single = [M for M, d, _ in parts if poly._cyclotomic(F, M).degree == d]
    want = factor_squarefree(binomial(fresh(F), n, lam))
    first = factor_squarefree(binomial(F, n, lam))
    calls = count_calls(monkeypatch, "poly_gcd", "_cyclotomic", "_ddf_binomial")
    again = factor_squarefree(binomial(F, n, lam))
    assert first == again == want and len(want) > 1
    assert calls["poly_gcd"] == calls["Random"] == calls["_ddf_binomial"] == 0
    assert calls["_cyclotomic"] == len(single) and (len(single) < len(parts) or not cyclic)


def test_phi_8_is_split_once_over_f_3(monkeypatch):
    """x^8 - 1 and then x^4 + 1 = Phi_8 over F_3: Phi_8 splits into two
    quadratics once, for x^8 - 1, and x^4 + 1 reads them back, though
    the two binomials differ in n and in sign."""
    F = field_new(3, 1)
    calls = count_calls(monkeypatch, "poly_gcd")
    factor_squarefree(binomial(F, 8, 1))
    assert calls["poly_gcd"] > 0 and calls["Random"] == 1
    assert F.kept_split(8) is not None
    before = dict(calls)
    factors = factor_squarefree(binomial(F, 4, 2))
    assert calls == before
    assert factors == [Poly(F, [2, 1, 1]), Poly(F, [2, 2, 1])]
    assert factors == factor_squarefree(binomial(fresh(F), 4, 2))
    assert calls["poly_gcd"] > before["poly_gcd"]  # a fresh field splits Phi_8 again


def test_grid_forward_then_reversed_gives_the_pinned_lists():
    """The pinned grid factored in its order and then in reverse on one
    field per (p, m), so that a part is read back kept by another ring,
    or dropped and split again, gives every binomial the pinned list,
    found with no split kept."""
    forward, backward = hashlib.sha256(), []
    for p in GRID_PRIMES:
        for m in (1, 2):
            F = field_new(p, m)
            rings = [(lam, n) for lam in lambdas(F) for n in range(1, 65) if n % p]
            lists = [[g.coeffs for g in factor_squarefree(binomial(F, n, lam))] for lam, n in rings]
            again = [[g.coeffs for g in factor_squarefree(binomial(F, n, lam))] for lam, n in rings[::-1]]
            for (lam, n), factors in zip(rings, lists):
                forward.update(repr((p, m, lam, n, factors)).encode())
            backward += [repr((p, m, lam, n, factors)) for (lam, n), factors in zip(rings, again[::-1])]
    assert forward.hexdigest() == GRID_FACTORS_SHA256
    assert hashlib.sha256("".join(backward).encode()).hexdigest() == GRID_FACTORS_SHA256


def test_a_field_keeps_at_most_memo_size_parts():
    """A field keeps at most MEMO_SIZE split parts, the least recently
    read dropped first, and only parts of more than one factor."""
    F = field_new(3, 1)
    for n in (k for k in range(1, 200) if k % 3):
        factor_squarefree(binomial(F, n, 1))
        assert len(F._splits) <= MEMO_SIZE
    assert len(F._splits) == MEMO_SIZE
    assert all(len(factors) > 1 for factors in F._splits.values())
    oldest, second = list(F._splits)[:2]
    assert F.kept_split(oldest) is not None  # read: now the most recent
    F.keep_split("new", ((1,), (2,)))
    assert F.kept_split(second) is None and F.kept_split(oldest) is not None
    assert len(F._splits) == MEMO_SIZE
