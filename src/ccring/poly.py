"""Dense univariate polynomials over F_{p^m}.

Coefficients are encoded field ints (see gf), stored little endian in a
normalized tuple (no trailing zeros, zero polynomial = empty tuple).
Degree of the zero polynomial is reported as -1.

Products switch between schoolbook and a Kronecker substitution
depending on size: coefficients (F_p coordinates for m > 1) are packed
into one int, two such ints are multiplied once and the product is
unpacked, then reduced with the field modulus for m > 1.

Over F_p (m = 1), division and gcd share one kernel on plain lists
(_divmod_fp): a slot is reduced mod p only when it is read, a monic
divisor takes no inverse multiply, and Euclid builds one Poly at the
end.  For m > 1 each step goes through the field's add and mul.

factor_squarefree factors x^n - c, n prime to p, the only polynomials
the package factors.  For c = +-1 it takes the parts Phi_M mod p, whose
factors all have degree ord_M(q), with no gcd; for other c, the parts
of equal factor degree by gcds.  It splits a part with random elements
of its Berlekamp algebra {h : h^q = h}, combinations of a basis read
off the q-orbits of exponents: each h is traced to F_p and cuts by every
value of F_p for small p, else by the quadratic character of F_p.
"""

from __future__ import annotations

import random
import sys
from array import array
from math import gcd, prod

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

# factor_squarefree cuts a piece by every value of F_p up to this p, and
# past it by the quadratic character of F_p: over F_p, n <= 48, the value
# cut took 0.74-0.93 of the character's time for p = 3 .. 13 and 0.97-1.07
# for p = 17 .. 23
_VALUE_CUT_MAX = 13


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
        if ctx.m == 1:
            quo, rem = _divmod_fp(self.coeffs, other.coeffs, ctx.p)
            return Poly(ctx, quo), Poly(ctx, rem)
        inv_lc = ctx.inv(other.lc())
        rem = list(self.coeffs)
        quo = [0] * (len(rem) - db)
        # only the divisor's nonzero terms, negated once: f^(p^s) has at
        # most deg f + 1
        terms = [(j, ctx.neg(b)) for j, b in enumerate(other.coeffs) if b]
        add, mul = ctx.add, ctx.mul
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            c = mul(c, inv_lc)
            off = i - db
            quo[off] = c
            for j, nb in terms:
                rem[off + j] = add(rem[off + j], mul(c, nb))
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


# -- division kernel over F_p ------------------------------------------------


def _divmod_fp(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the F_p coefficient sequences a by b,
    len(a) >= len(b), b trimmed; both come back as lists, the remainder
    trimmed.

    Each step adds c * (p - b_j) to a slot and leaves it unreduced: a
    slot is reduced mod p only when it is read as the leading term, and
    the remainder's slots once at the end, so the inner loop, over b's
    nonzero terms below its leading one, holds no % p.  A monic b takes
    no inverse multiply.
    """
    db = len(b) - 1
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    terms = [(j, p - c) for j, c in enumerate(b[:db]) if c]
    rem = list(a)
    quo = [0] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % p
        if c:
            if inv != 1:
                c = c * inv % p
            off = i - db
            quo[off] = c
            for j, nb in terms:
                rem[off + j] += c * nb
    rem = [r % p for r in rem[:db]]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _gcd_fp(a, b, p: int) -> list[int]:
    """Monic gcd of two trimmed F_p coefficient sequences, not both zero,
    by Euclid on lists through _divmod_fp."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _divmod_fp(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


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
    if a.ctx.m == 1:
        return Poly(a.ctx, _gcd_fp(a.coeffs, b.coeffs, a.ctx.p))
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


def _binomial_constant(f: Poly) -> int | None:
    """c when f is the monic binomial x^n - c with c != 0, else None."""
    if f.is_monic() and f.coeffs[0] and not any(f.coeffs[1:-1]):
        return f.ctx.neg(f.coeffs[0])
    return None


def binomial_degrees(ctx: FieldCtx, n: int, c: int) -> list[int]:
    """Degrees of the irreducible factors of x^n - c over F_q, ascending,
    for c != 0 and n prime to p, in integer arithmetic only.

    With t the order of c and beta a primitive (n*t)-th root of unity,
    the roots of x^n - c are the beta^j with j = 1 (mod t).  The q-th
    power map takes beta^j to beta^(j*q), so each factor has the roots
    of one q-cyclotomic coset of those j, and its degree is the size of
    that coset.

    The coset of j = 1 + i*t has the size of the least d with q^d = 1
    mod n*t / gcd(j, n).  A factor of t prime to n divides q - 1 and is
    prime to the rest of that modulus, so it never decides d, and taking
    i to i times it permutes the j mod n: t may be cut to its part made
    of primes of n, which FieldCtx.order finds without factoring q - 1.
    As q = 1 mod t, every j of a coset stays 1 mod t, so seen is indexed
    by i, and the work and memory are O(n) whatever the field.
    """
    return sorted(d for _, d in _binomial_cosets(ctx, n, c)[1])


def binomial_tau_degrees(ctx: FieldCtx, n: int, c: int) -> tuple[list[int], list[int]]:
    """For c = +-1: the degrees of the factors of x^n - c that are their
    own reciprocal, and one degree per reciprocal pair, both ascending.

    The reciprocal of the factor with the roots beta^j, j in a coset C,
    has the roots beta^(-j), so a factor is its own reciprocal when -j
    is in the coset of j, and otherwise pairs with the factor of -C, of
    the same size.  The order t of c divides 2 and -1 = 1 mod 2, so -j
    is a root exponent again, also mod the cut t of binomial_degrees.
    The coset of j is j times the powers of q mod r = M / gcd(j, M), of
    which there are d, its size; for r > 2, -1 is one of them when d is
    even and q^(d/2) = -1 mod r, the one element of order 2.
    """
    M, cosets = _binomial_cosets(ctx, n, c)
    fixed, paired = [], []
    for j, d in cosets:
        r = M // gcd(j, M)
        closed = r <= 2 or (d % 2 == 0 and pow(ctx.q, d // 2, r) == r - 1)
        (fixed if closed else paired).append(d)
    return sorted(fixed), sorted(paired)[::2]


def _binomial_cosets(ctx: FieldCtx, n: int, c: int) -> tuple[int, list[tuple[int, int]]]:
    """M = n t and the (first j, size) of each coset of binomial_degrees'
    walk."""
    t = ctx.order(c, _prime_factors(n))
    q, M = ctx.q, n * t
    seen = bytearray(n)
    cosets = []
    for i in range(n):
        j, d = 1 + i * t, 0
        while not seen[(j - 1) // t]:
            seen[(j - 1) // t] = 1
            d += 1
            j = j * q % M
        if d:
            cosets.append((1 + i * t, d))
    return M, cosets


def _power_map(ctx: FieldCtx, n: int, c: int):
    """The map (a, k) -> a^(p^k) mod x^n - c, for a of degree < n.

    x^n = c turns the power into a move of coefficients, with no
    product:

        a^(p^k) = sum_i a_i^(p^k) c^floor(i p^k / n) x^(i p^k mod n).

    The exponent of c only matters mod q - 1, and floor(i p^k / n) mod
    q - 1 comes from i p^k mod n (q - 1).
    """
    p, m = ctx.p, ctx.m
    period = n * (ctx.q - 1)

    def power(a: Poly, k: int) -> Poly:
        step = pow(p, k, period)
        frob = p ** (k % m)  # the field's own Frobenius has order m
        out = [0] * n
        for i, ai in enumerate(a.coeffs):
            if ai:
                t = i * step % period
                out[t % n] = ctx.mul(ctx.pow(ai, frob), ctx.pow(c, t // n))
        return Poly(ctx, out)

    return power


def _ddf_binomial(f: Poly, c: int) -> list[tuple[int, Poly]]:
    """The parts (d, product of the factors of degree d) of f = x^n - c,
    whose factor degrees binomial_degrees knows: one gcd per distinct
    degree but the largest, whose factors are what is left of f.
    x^(q^d) mod f goes from one degree to the next in one step of the
    power map, which moves coefficients only."""
    ctx = f.ctx
    power = _power_map(ctx, f.degree, c)
    x = Poly.x(ctx)
    *lower, top = sorted(set(binomial_degrees(ctx, f.degree, c)))
    parts = []
    rem, h, at = f, x, 0
    for d in lower:
        h, at = power(h, ctx.m * (d - at)), d
        g = poly_gcd(h - x, rem)
        parts.append((d, g))
        rem = rem // g
    parts.append((top, rem))
    return parts


def _cyclotomic(ctx: FieldCtx, M: int) -> Poly:
    """Phi_M mod p, the product over e | M of (x^e - 1)^mu(M/e): sparse
    products by x^e - 1 first, then exact divisions by it."""
    p, primes = ctx.p, _prime_factors(M)
    ups, downs = [], []
    for k in range(1 << len(primes)):
        rs = [r for i, r in enumerate(primes) if k >> i & 1]
        (downs if len(rs) % 2 else ups).append(M // prod(rs))
    out = [1]
    for e in ups:
        out = [(b - a) % p for a, b in zip(out + [0] * e, [0] * e + out)]
    for e in downs:
        # out = quo * (x^e - 1), so quo_k = quo_(k-e) - out_k
        for k in range(len(out) - e):
            out[k] = ((out[k - e] if k >= e else 0) - out[k]) % p
        del out[len(out) - e :]
    return Poly(ctx, out)


def _binomial_parts(f: Poly, c: int) -> list[tuple[int, int, Poly]]:
    """(d, L, part) for parts of f = x^n - c whose factors all have
    degree d, each part dividing x^L - c.

    For c = 1 the parts are the Phi_M mod p for M | n, for c = -1 those
    for M | 2n with M not dividing n (x^n + 1 = (x^2n - 1) / (x^n - 1));
    Phi_M divides x^(M/t) - c, t the order of c, and its factors have
    degree ord_M(q) (Lidl and Niederreiter, Finite Fields, 2.47).  Any
    other c takes _ddf_binomial's parts, with L = n.
    """
    ctx, n = f.ctx, f.degree
    if c not in (1, ctx.neg(1)):
        return [(d, n, part) for d, part in _ddf_binomial(f, c)]
    t = 1 if c == 1 else 2
    parts = []
    for M in range(1, t * n + 1):
        if t * n % M == 0 and (t == 1 or n % M):
            d, r = 1, ctx.q % M
            while r != 1 % M:
                d, r = d + 1, r * ctx.q % M
            parts.append((d, M // t, _cyclotomic(ctx, M)))
    return parts


def _orbit_basis(ctx: FieldCtx, L: int, c: int) -> list[list[tuple[int, int]]]:
    """A basis of the Berlekamp algebra {h : h^q = h} of
    F_q[x]/(x^L - c), each element as its (exponent, coefficient) terms.

    x^i goes to x^(q i) = c^floor(q i / L) x^(q i mod L), so the sum of
    the conjugates (x^i0)^(q^k) over the q-orbit of i0 in Z/L is fixed
    by the q-th power map exactly when the twist closes, that is when
    (x^i0)^(q^|orbit|) = x^i0; an orbit whose twist does not close holds
    no fixed h.  Exponents of c are kept mod q - 1, as in _power_map.
    """
    q = ctx.q
    period = L * (q - 1)
    seen = bytearray(L)
    basis = []
    for i0 in range(L):
        orbit, v = [], i0
        while not seen[v % L]:
            seen[v % L] = 1
            orbit.append(v)
            v = v * q % period
        if orbit and ctx.pow(c, v // L) == 1:
            basis.append([(u % L, ctx.pow(c, u // L)) for u in orbit])
    return basis


def factor_squarefree(f: Poly) -> list[Poly]:
    """The monic irreducible factors of the binomial f = x^n - c, with
    c != 0 and n prime to p (so f is squarefree), the only polynomials
    the package factors; f may be scaled.  RangeError for any other f,
    NotSquarefree when p divides n.

    _binomial_parts cuts f into parts whose factors share one degree d:
    for c = +-1 the cyclotomic Phi_M with no gcd, for other c by
    distinct degrees.  A part is split by random elements h of its
    Berlekamp algebra (Berlekamp 1970), F_q-combinations of the orbit
    basis of x^L - c (_orbit_basis): h is a value of F_q mod each
    factor, uniform and independent over the factors.  So its absolute
    trace tr, the sum of the h^(p^k) for k < m, which on x^L - c only
    moves coefficients (_power_map), is a value of F_p mod each factor,
    uniform too, for every field; for m = 1 it is h.  With tr reduced
    mod the piece, a p <= _VALUE_CUT_MAX cuts by every value a, with
    gcd(tr - a, rest), and a larger p by the quadratic character,
    gcd(tr^((p - 1)/2) - 1, piece).  Over F_p every division and gcd
    runs on the list kernel _divmod_fp.

    The pieces wait on a worklist, so a factorization leaves no
    reference cycle behind.  The list is sorted by degree, then by
    coefficient tuple, so it does not depend on the random choices.
    """
    if f.degree < 1:
        raise ConstantInput("cannot factor a constant")
    f = f.monic()
    c = _binomial_constant(f)
    if c is None:
        raise RangeError("factor_squarefree takes x^n - c with c != 0")
    ctx, p, q = f.ctx, f.ctx.p, f.ctx.q
    if f.degree % p == 0:
        raise NotSquarefree("x^n - c with p | n is a p-th power")
    rng = random.Random(FACTOR_SEED)
    out: list[Poly] = []
    for d, L, part in _binomial_parts(f, c):
        todo, basis, power = [part], None, _power_map(ctx, L, c)
        while todo:
            piece = todo.pop()
            if piece.degree == d:
                out.append(piece)
                continue
            basis = basis or _orbit_basis(ctx, L, c)
            h = [0] * L
            for orbit in basis:
                a = rng.randrange(q)
                if a:
                    for i, w in orbit:
                        h[i] = ctx.mul(a, w)
            h = Poly(ctx, h)
            tr = sum((power(h, k) for k in range(1, ctx.m)), h) % piece
            if p <= _VALUE_CUT_MAX:
                # a factor where tr is none of the values before the last has
                # tr = p - 1, so the last value takes no gcd
                cuts = (tr - Poly.const(ctx, a) for a in range(p - 1))
            else:
                cuts = [poly_modpow(tr, (p - 1) // 2, piece) - Poly.one(ctx)]
            rest, pieces = piece, []
            for t in cuts:
                if rest.degree == d:
                    break
                g = poly_gcd(t, rest)
                if 0 < g.degree < rest.degree:
                    pieces.append(g)
                    rest = rest // g
            todo += [rest, *pieces]
    out.sort(key=Poly.sort_key)
    return out
