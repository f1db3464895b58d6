"""Dense univariate polynomials over F_{p^m}.

Coefficients are encoded field ints (see gf), stored little endian in a
normalized tuple (no trailing zeros, zero polynomial = empty tuple).
Degree of the zero polynomial is reported as -1.

Products switch between schoolbook and a Kronecker substitution
depending on size: coefficients (F_p coordinates for m > 1) are packed
into one int, two such ints are multiplied once and the product is
unpacked, then reduced with the field modulus for m > 1.
"""

from __future__ import annotations

import random
import sys
from array import array

from .errors import (
    BothZero,
    ConstantInput,
    ContextMismatch,
    NotSquarefree,
    RangeError,
    ZeroPolynomial,
)
from .gf import FieldCtx, _prime_factors

_SCHOOL_CUTOFF = 2048  # schoolbook below this many coefficient products

# array typecode per Kronecker slot width in bytes
_SLOT_CODES = {array(c).itemsize: c for c in "QIHB"}
# byte order of array items, and of the packed ints built from them
_BYTE_ORDER = sys.byteorder

# state of the equal-degree splitting's PRNG at the start of every
# factorization; the sorted factor list does not depend on it
FACTOR_SEED = 0xC0DEC


def _trim(coeffs) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Poly:
    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self.ctx = ctx
        self.coeffs = _trim(coeffs)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (1,))

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (0, 1))

    @classmethod
    def const(cls, ctx: FieldCtx, c: int) -> "Poly":
        return cls(ctx, (c,))

    @classmethod
    def monomial(cls, ctx: FieldCtx, e: int, c: int = 1) -> "Poly":
        if e < 0:
            raise RangeError("monomial exponent must be >= 0")
        return cls(ctx, (0,) * e + (c,))

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomial("leading coefficient of 0")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.ctx.p, self.ctx.m, self.ctx.modulus))

    def sort_key(self) -> tuple:
        """Canonical order: degree first, then coefficient tuple."""
        return (len(self.coeffs), self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.term_string()})"

    def term_string(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                parts.append(xs if c == 1 else f"{c}*{xs}")
        return " + ".join(parts)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = ctx.add(out[i], c)
        return Poly(ctx, out)

    def __neg__(self) -> "Poly":
        ctx = self.ctx
        return Poly(ctx, [ctx.neg(c) for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c: int) -> "Poly":
        if c == 0:
            return Poly.zero(self.ctx)
        if c == 1:
            return self
        ctx = self.ctx
        return Poly(ctx, [ctx.mul(c, a) for a in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.ctx)
        if len(a) * len(b) <= _SCHOOL_CUTOFF or self.ctx.q > (1 << 16):
            return Poly(self.ctx, _mul_school(a, b, self.ctx))
        return Poly(self.ctx, _mul_conv(a, b, self.ctx))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        db = other.degree
        if self.degree < db:
            return Poly.zero(ctx), self
        inv_lc = ctx.inv(other.lc())
        rem = list(self.coeffs)
        quo = [0] * (len(rem) - db)
        # only the divisor's nonzero terms: f^(p^s) has at most deg f + 1
        nonzero = [(j, b) for j, b in enumerate(other.coeffs) if b]
        fastpath = ctx.m == 1
        p = ctx.p
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            c = ctx.mul(c, inv_lc)
            off = i - db
            quo[off] = c
            if fastpath:
                for j, b in nonzero:
                    rem[off + j] = (rem[off + j] - c * b) % p
            else:
                for j, b in nonzero:
                    rem[off + j] = ctx.sub(rem[off + j], ctx.mul(c, b))
        return Poly(ctx, quo), Poly(ctx, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, c: int) -> int:
        """Evaluate at the field element c (Horner)."""
        ctx = self.ctx
        acc = 0
        for a in reversed(self.coeffs):
            acc = ctx.add(ctx.mul(acc, c), a)
        return acc

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ZeroPolynomial("monic of 0")
        if self.coeffs[-1] == 1:
            return self
        return self.scale(self.ctx.inv(self.coeffs[-1]))

    def derivative(self) -> "Poly":
        ctx = self.ctx
        out = []
        for i in range(1, len(self.coeffs)):
            e = i % ctx.p
            out.append(ctx.mul(e, self.coeffs[i]) if e else 0)
        return Poly(ctx, out)


# -- multiplication kernels ----------------------------------------------


def _mul_school(a, b, ctx: FieldCtx):
    if ctx.m == 1:
        p = ctx.p
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] += ai * bj
        return [c % p for c in out]
    mul, add = ctx.mul, ctx.add
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = add(out[i + j], mul(ai, bj))
    return out


def _mul_conv(a, b, ctx: FieldCtx):
    """a * b by Kronecker substitution: one product of two packed ints.

    Each coefficient takes one fixed-width slot; for m > 1 its m F_p
    coordinates take m of 2m - 1 sub-slots, so the powers of the field
    generator in a product land in distinct sub-slots.  The slot holds
    the largest sum of coordinate products, so no carry crosses slots.
    """
    p, m = ctx.p, ctx.m
    stride = 2 * m - 1
    bits = 2 * (p - 1).bit_length() + (min(len(a), len(b)) * m).bit_length()
    width = 1 << ((bits + 7) // 8 - 1).bit_length()  # bytes: 1, 2, 4, 8, ...
    # q <= 2^16 and MAX_LENGTH keep bits far below 64
    assert width in _SLOT_CODES, "Kronecker slot wider than 8 bytes"
    code = _SLOT_CODES[width]
    if m > 1:
        a, b = _sub_slots(a, ctx), _sub_slots(b, ctx)
    # Read in the host's byte order every slot stays intact; a big-endian
    # host puts the slots, and so the product's, in reverse order.  The
    # last 2m - 2 of the product's n slots are empty.
    order = _BYTE_ORDER
    prod = int.from_bytes(array(code, a), order) * int.from_bytes(array(code, b), order)
    n = len(a) + len(b) - 1
    vals = memoryview(prod.to_bytes(n * width, order)).cast(code)[: n - stride + 1]
    if m == 1:
        return [v % p for v in vals]
    comp = [vals[k::stride].tolist() for k in range(stride)]
    # fold powers of the field generator down with the modulus relation
    for k in range(stride - 1, m - 1, -1):
        top = [c % p for c in comp[k]]
        for j, low in enumerate(ctx.modulus[:m]):
            if low:
                comp[k - m + j] = [c - low * t for c, t in zip(comp[k - m + j], top)]
    out = [c % p for c in comp[0]]
    for i in range(1, m):
        w = p ** i
        out = [o + c % p * w for o, c in zip(out, comp[i])]
    return out


def _sub_slots(a, ctx: FieldCtx) -> list[int]:
    """Coordinate i of coefficient k at index k*(2m-1) + i, zeros between."""
    p, stride = ctx.p, 2 * ctx.m - 1
    out = [0] * (len(a) * stride)
    for i in range(ctx.m):
        w = p ** i
        out[i::stride] = [c // w % p for c in a]
    return out


# -- modular arithmetic ----------------------------------------------------


def poly_modpow(base: Poly, e: int, modulus: Poly) -> Poly:
    """base**e mod modulus, exponent as an arbitrary-size nonneg int."""
    if e < 0:
        raise RangeError("modpow exponent must be >= 0")
    if modulus.degree < 1:
        raise ConstantInput("modulus must have degree >= 1")
    base._check(modulus)
    result = Poly.one(base.ctx) % modulus
    acc = base % modulus
    while e:
        if e & 1:
            result = (result * acc) % modulus
        e >>= 1
        if e:
            acc = (acc * acc) % modulus
    return result


def frobenius(a: Poly, s: int = 1) -> Poly:
    """a^(p^s) in characteristic p: c_i x^i goes to c_i^(p^s) x^(i*p^s).

    The p^s-th power map is additive, so raising a polynomial to it only
    spreads the coefficients; O(deg(a) * p^s), no multiplication.
    """
    if not a.coeffs:
        return a
    ctx = a.ctx
    step = ctx.p ** s
    out = [0] * ((len(a.coeffs) - 1) * step + 1)
    # on F_p itself the power map is the identity (Fermat)
    out[::step] = a.coeffs if ctx.m == 1 else [ctx.pow(c, step) for c in a.coeffs]
    return Poly(ctx, out)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise BothZero("gcd(0, 0)")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# No package route calls poly_xgcd (idempotents invert by a derivative).
# It stays public: bench/tracer.py wraps it by name, so without it
# `--trace 1` fails at install, and tests use it as a reference.
def poly_xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with g = gcd monic and u*a + v*b = g."""
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise BothZero("xgcd(0, 0)")
    ctx = a.ctx
    r0, r1 = a, b
    s0, s1 = Poly.one(ctx), Poly.zero(ctx)
    t0, t1 = Poly.zero(ctx), Poly.one(ctx)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    c = ctx.inv(r0.lc())
    return r0.scale(c), s0.scale(c), t0.scale(c)


def reciprocal(f: Poly) -> Poly:
    """x^deg(f) * f(1/x): the coefficient tuple reversed."""
    if f.is_zero():
        raise ZeroPolynomial("reciprocal of 0")
    return Poly(f.ctx, tuple(reversed(f.coeffs)))


# -- irreducibility and factorization ---------------------------------------


def is_irreducible(f: Poly) -> bool:
    """Rabin's test over F_q."""
    n = f.degree
    if n < 1:
        raise ConstantInput("irreducibility needs degree >= 1")
    if n == 1:
        return True
    f = f.monic()
    ctx = f.ctx
    q = ctx.q
    x = Poly.x(ctx)
    if not poly_modpow(x, q ** n, f) == x % f:
        return False
    for r in sorted(set(_prime_factors(n))):
        h = poly_modpow(x, q ** (n // r), f) - x
        if h.is_zero() or poly_gcd(h, f).degree != 0:
            return False
    return True


def _power_map(f: Poly):
    """The map (a, k, mod) -> a^(p^k) mod mod, for mod dividing f and
    a of degree < deg f.

    It is chosen by the shape of f.  For a monic binomial f = x^n - c
    with n prime to p (as when f is squarefree), x^n = c mod f turns the
    power into a move of coefficients, with no product:

        a^(p^k) = sum_i a_i^(p^k) c^floor(i p^k / n) x^(i p^k mod n).

    The exponent of c only matters mod q - 1, and floor(i p^k / n) mod
    q - 1 comes from i p^k mod n (q - 1).  That map works mod f and
    leaves its O(n) result there: congruent mod mod, of degree < n.  Any
    other f gets poly_modpow mod mod, whose cost falls as mod shrinks.
    """
    ctx = f.ctx
    n = f.degree
    if not (f.is_monic() and n % ctx.p and f.coeffs[0]) or any(f.coeffs[1:-1]):
        return lambda a, k, mod: poly_modpow(a, ctx.p ** k, mod)
    p, m = ctx.p, ctx.m
    c = ctx.neg(f.coeffs[0])
    period = n * (ctx.q - 1)

    def power(a: Poly, k: int, mod: Poly) -> Poly:
        step = pow(p, k, period)
        frob = p ** (k % m)  # the field's own Frobenius has order m
        out = [0] * n
        for i, ai in enumerate(a.coeffs):
            if ai:
                t = i * step % period
                out[t % n] = ctx.mul(ctx.pow(ai, frob), ctx.pow(c, t // n))
        return Poly(ctx, out)

    return power


def _orbit_fold(a: Poly, count: int, step: int, power, join) -> Poly:
    """join over a, a^(p^step), ..., a^(p^(step*(count-1))) by doubling.

    power(b, k) is b^(p^k), a ring map, so the fold S_k of the first k
    terms gives S_2k = join(S_k, S_k^(p^(step*k))) and
    S_(k+1) = join(a, S_k^(p^step)): about 2*log2(count) maps and joins
    instead of count.
    """
    acc, k = a, 1
    for bit in bin(count)[3:]:
        acc, k = join(acc, power(acc, step * k)), 2 * k
        if bit == "1":
            acc, k = join(a, power(acc, step)), k + 1
    return acc


def _ddf(f: Poly, power) -> list[tuple[int, Poly]]:
    """Distinct-degree decomposition of a monic squarefree f.

    x^(q^d) is kept mod what is left of f, where power takes it one
    degree on; its gcd with that remainder collects the factors of
    degree d.
    """
    ctx = f.ctx
    x = Poly.x(ctx)
    parts = []
    rem = f
    h = x
    d = 0
    while rem.degree > 0:
        d += 1
        if 2 * d > rem.degree:
            parts.append((rem.degree, rem))
            break
        h = power(h, ctx.m, rem)
        g = poly_gcd(h - x, rem)
        if g.degree > 0:
            parts.append((d, g))
            rem = rem // g
    return parts


def factor_squarefree(f: Poly) -> list[Poly]:
    """The monic irreducible factors of a squarefree polynomial.

    The list is sorted by degree, then by coefficient tuple, so it does
    not depend on the random choices of the splitting step.
    """
    if f.degree < 1:
        raise ConstantInput("cannot factor a constant")
    f = f.monic()
    df = f.derivative()
    if df.is_zero() or poly_gcd(f, df).degree != 0:
        raise NotSquarefree("input has a repeated factor")
    ctx = f.ctx
    q = ctx.q
    rng = random.Random(FACTOR_SEED)
    power = _power_map(f)

    def split(part: Poly, d: int) -> list[Poly]:
        """Split a product of distinct irreducibles, all of degree d."""
        if part.degree == d:
            return [part]

        def power_mod(a: Poly, k: int) -> Poly:
            return power(a, k, part)

        while True:
            h = Poly(ctx, [rng.randrange(q) for _ in range(part.degree)])
            if h.degree < 1:
                continue
            g = poly_gcd(h, part)
            if 0 < g.degree < part.degree:
                pass
            elif ctx.p == 2:
                # additive splitting via the trace to F_2: the sum of h^(2^i), i < m d
                t = _orbit_fold(h, ctx.m * d, 1, power_mod, Poly.__add__) % part
                if t.is_zero():
                    continue
                g = poly_gcd(t, part)
            else:
                # h^((q^d - 1)/2) is the norm h^(1 + q + ... + q^(d-1)) to the (q - 1)/2
                norm = _orbit_fold(h, d, ctx.m, power_mod, lambda a, b: (a * b) % part)
                t = poly_modpow(norm, (q - 1) // 2, part) - Poly.one(ctx)
                if t.is_zero():
                    continue
                g = poly_gcd(t, part)
            if 0 < g.degree < part.degree:
                return split(g, d) + split(part // g, d)

    out: list[Poly] = []
    for d, part in _ddf(f, power):
        out.extend(split(part, d))
    out.sort(key=Poly.sort_key)
    return out
