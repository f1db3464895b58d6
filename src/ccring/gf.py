"""Finite field arithmetic for F_{p^m}.

Elements are plain ints in [0, p^m): the element with coordinate vector
(c_0, ..., c_{m-1}) over F_p (little endian, power basis of the modulus)
is encoded as sum c_i * p^i.  All operations live on a FieldCtx so the
same int means different things in different fields; mixing contexts is
the caller's bug and is not detected at this level.

For small fields (q <= 2^16) multiplication and inversion run off
exp/log tables built on first use.
"""

from __future__ import annotations

from itertools import product

from .errors import BadModulus, NotPrime, RangeError, ReducibleModulus, ZeroLambda

_TABLE_LIMIT = 1 << 16


def _is_prime(n: int) -> bool:
    return _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _modulus_irreducible(modulus, p: int) -> bool:
    # poly imports this module, so it is imported here, at first use
    from .poly import Poly, is_irreducible

    return is_irreducible(Poly(FieldCtx(p, 1, (0, 1)), modulus))


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    if m == 1:
        return (0, 1)
    # little-endian coefficients in lexicographic order, constant term
    # slowest; x divides every candidate with constant term 0, so skip those
    for lows in product(range(1, p), *[range(p)] * (m - 1)):
        cand = lows + (1,)
        if _modulus_irreducible(cand, p):
            return cand
    raise ReducibleModulus(f"no irreducible of degree {m} over F_{p}")


class FieldCtx:
    """Arithmetic context for F_{p^m} with encoded-int elements."""

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log", "_pp")

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p ** m
        self.modulus = modulus
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        self._pp = tuple(p ** i for i in range(m + 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.m == other.m
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"FieldCtx(p={self.p}, m={self.m}, modulus={list(self.modulus)})"

    # -- encoding ------------------------------------------------------------

    def decode(self, a: int) -> tuple[int, ...]:
        """Coordinate vector of a, little endian, length m."""
        p = self.p
        out = []
        for _ in range(self.m):
            out.append(a % p)
            a //= p
        return tuple(out)

    def encode(self, coeffs) -> int:
        if len(coeffs) != self.m:
            raise RangeError(f"need {self.m} coordinates, got {len(coeffs)}")
        a = 0
        for i, c in enumerate(coeffs):
            a += (c % self.p) * self._pp[i]
        return a

    def elements(self):
        return range(self.q)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        for i in range(self.m):
            out += ((a % p + b % p) % p) * self._pp[i]
            a //= p
            b //= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.m == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        for i in range(self.m):
            out += ((-(a % p)) % p) * self._pp[i]
            a //= p
        return out

    def _mul_raw(self, a: int, b: int) -> int:
        # product via coordinate polynomials reduced by the modulus
        p, m = self.p, self.m
        av, bv = self.decode(a), self.decode(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(av):
            if ai:
                for j, bj in enumerate(bv):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(m):
                    prod[i - m + j] = (prod[i - m + j] - c * self.modulus[j]) % p
        return self.encode(prod[:m])

    def _build_tables(self) -> None:
        """exp/log w.r.t. the least generator, walked with no product.

        a -> a*g is F_p-linear, so it is the sum of the images of a's low
        and high halves of coordinates, each read from a table of p^(m/2)
        entries.  The tables come from the images x^i g, each a shift of
        the last with the top coordinate reduced by the modulus; for
        p = 2 the sum is an XOR.
        """
        p, m, q = self.p, self.m, self.q
        g = next(cand for cand in range(1, q) if self.order(cand) == q - 1)
        add = int.__xor__ if p == 2 else self.add
        top = self._pp[m - 1]
        # c x^m = -c (modulus - x^m) for each top coordinate c
        wrap = [self.encode([-c * a for a in self.modulus[:m]]) for c in range(p)]
        images = [g]
        for _ in range(m - 1):
            hi, lo = divmod(images[-1], top)
            images.append(add(lo * p, wrap[hi]))
        half = self._pp[m // 2]
        low, high = _span_table(images[: m // 2], p, add), _span_table(images[m // 2 :], p, add)
        exp = [1] * (2 * (q - 1))
        log = [0] * q
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            log[acc] = i
            hi, lo = divmod(acc, half)
            acc = add(low[lo], high[hi])
        exp[q - 1 :] = exp[: q - 1]
        self._exp, self._log = exp, log

    def order(self, a: int, primes: list[int] | None = None) -> int:
        """Multiplicative order of the unit a, without tables: from
        t = q - 1, divide out each prime r while a^(t/r) is still 1.

        Given primes, only the part of the order made of those primes:
        with w the largest divisor of q - 1 prime to all of them, a^w has
        that part as its order, so q - 1 is never factored (trial division
        of q - 1 takes ~1e9 steps when q = 2^61).
        """
        t = self.q - 1
        if primes is None:
            primes = _prime_factors(t)
        else:
            for r in primes:
                while t % r == 0:
                    t //= r
            a, t = self._pow_raw(a, t), (self.q - 1) // t
        for r in primes:
            while t % r == 0 and self._pow_raw(a, t // r) == 1:
                t //= r
        return t

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        if self.q <= _TABLE_LIMIT:
            if self._exp is None:
                self._build_tables()
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self.q <= _TABLE_LIMIT:
            if self._exp is None:
                self._build_tables()
            return self._exp[(self.q - 1) - self._log[a]]
        return self._pow_raw(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        """a**e; e may be any integer (negative means invert first)."""
        if e < 0:
            a = self.inv(a)
            e = -e
        if self.m == 1:
            return pow(a, e, self.p)
        if a == 0:
            return 0 if e else 1
        if self.q <= _TABLE_LIMIT:
            if self._exp is None:
                self._build_tables()
            return self._exp[self._log[a] * e % (self.q - 1)]
        return self._pow_raw(a, e % (self.q - 1))

    def gen(self) -> int:
        """Image of x in the power basis (only meaningful for m > 1)."""
        return self.p if self.m > 1 else 1


def _span_table(images: list[int], p: int, add) -> list[int]:
    """The image of each a < p^len(images) under the F_p-linear map taking
    coordinate i to images[i]."""
    table = [0]
    for image in images:
        multiples = [0]
        for _ in range(p - 1):
            multiples.append(add(multiples[-1], image))
        table = [add(t, c) for c in multiples for t in table]
    return table


def field_new(p: int, m: int, modulus=None) -> FieldCtx:
    """Build F_{p^m}.

    modulus is a little-endian int vector of length m+1, monic over F_p;
    when omitted the lexicographically smallest monic irreducible of
    degree m is used (x itself for m = 1).
    """
    if not _is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if m < 1:
        raise RangeError(f"m = {m} must be >= 1")
    if modulus is None:
        modulus = _smallest_irreducible(p, m)
    else:
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise BadModulus(f"modulus must be monic of degree {m}")
        if not _modulus_irreducible(modulus, p):
            raise ReducibleModulus(f"{list(modulus)} is reducible over F_{p}")
    return FieldCtx(p, m, modulus)


def ps_root(ctx: FieldCtx, lam: int, s: int) -> int:
    """The unique lam0 with lam0**(p**s) == lam.

    Raising to the p^s-th power permutes the units, so the root exists
    and equals lam**t where t inverts p^s modulo q - 1.  For m > 1 the
    one power is taken by square-and-multiply, with no field table.
    """
    if lam == 0 or lam >= ctx.q:
        raise ZeroLambda(f"lambda must be a unit, got {lam}")
    m1 = ctx.q - 1
    if m1 == 1:
        return lam
    t = pow(pow(ctx.p, s, m1), -1, m1)
    return pow(lam, t, ctx.p) if ctx.m == 1 else ctx._pow_raw(lam, t)
