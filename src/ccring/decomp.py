"""Splitting the ambient ring through primitive idempotents.

With gcd(n, p) = 1 and lambda0 the p^s-th root of lambda,

    x^(n*p^s) - lambda = (x^n - lambda0)^(p^s) = prod_j f_j(x)^(p^s)

for distinct monic irreducibles f_j.  The idempotent attached to f_j is
eps_j = (v_j * F_j)^(p^s) mod (x^N - lambda) where F_j = (x^n - lambda0)/f_j
and v_j * F_j + w_j * f_j = 1.  These are orthogonal, sum to 1, and cut
the ambient ring into the chain-ring pieces K_j + u K_j this package
works in; oracle.code_space glues a code's components back through them.

The p^s-th power is never multiplied out.  With w_j = v_j * F_j reduced
mod x^n - lambda0, the difference v_j * F_j - w_j is a multiple of
x^n - lambda0, so its p^s-th power is a multiple of x^N - lambda, and in
characteristic p the power of w_j is its Frobenius twist: coefficient
c_i^(p^s) at x^(i*p^s).  That twist has degree < N, so

    eps_j = frobenius(w_j, s)

exactly, at O(N) per factor.  FactorData builds them on first read of
fd.idempotents, since only gluing (info, idempotents and the oracle)
needs them; dual, enumerate and selfdual work componentwise.
A count needs even less: only the factor degrees, which are the
sizes of the q-cyclotomic cosets of the roots' exponents (see
factor_degrees), so it does no polynomial arithmetic.

The parameters alone fix a ring's FactorData: the factors come out of
factor_squarefree sorted, whatever its random splitting did.
build_factor_data and factor_data_for build a new one on every call;
factor_data hands out the ones the process keeps, the last MEMO_SIZE
it asked for, so a ring that comes back (a stream of documents, the
dual of a dual, a self-dual count and then its codes) is set up once,
together with whatever it has built lazily since (the dual ring,
self-dual kernels).  A failed build is not kept.  The factor data of
the dual ring is fixed by the source's, so dual.dual_factor_data
builds it once and keeps it on the source; through the memo, the dual
of that dual is the source again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .chain import ChainCtx
from .errors import GcdViolation, RangeError, SZero, TooLarge, ZeroLambda
from .gf import FieldCtx, _prime_factors, field_new, ps_root
from .poly import Poly, factor_squarefree, frobenius, reciprocal

# the longest ambient length N = n*p^s accepted; set-up work grows with N
# (on a 2-vCPU Xeon with Python 3.11, count takes about 0.06 s at
# N = 2^18 and 0.5 s at 2^20; the field adds only a few powers in F_q,
# so q = 2^61 at n = 3 takes 0.5 s for the whole process; but factoring
# x^8191 - 1 over F_2 for info, N = 16382, takes about 40 s)
MAX_LENGTH = 1 << 18

# keys the ring set-up memo of factor_data holds, sized from the
# traffic: `enumerate` and then `dual` twice on its documents use three
# per ring (params and (params, factors) for the ring, (params,
# factors) for its dual), a `dual` call two per ring, `selfdual
# --count-only` and then `--limit` two.  Replaying the seed-9001
# benchmark ops in one process, code_stream's 12 rings build 24
# FactorData with any size from 2 up, and selfdual's 152, 141, 128 and
# 89 with 2, 8, 16 and 32 keys, where past 2 only the op list's
# returning to rings it used many ops before gains.  Documents of one
# `dual` input share their ring through its own cache, whatever the
# bound.
MEMO_SIZE = 16


@dataclass(frozen=True)
class AmbientParams:
    """Parameters (p, m, s, n, lambda) of R[x]/(x^(n*p^s) - lambda)."""

    field: FieldCtx
    s: int
    n: int
    lam: int

    def __post_init__(self):
        if self.s < 1:
            raise SZero(f"s = {self.s} must be >= 1")
        if self.n < 1:
            raise RangeError(f"n = {self.n} must be >= 1")
        if gcd(self.n, self.field.p) != 1:
            raise GcdViolation(f"n = {self.n} shares a factor with p = {self.field.p}")
        if not 0 < self.lam < self.field.q:
            raise ZeroLambda(f"lambda = {self.lam} is not a unit")
        # p^s >= 2^s, so the first test keeps p**s small in the second
        if self.s >= MAX_LENGTH.bit_length() or self.N > MAX_LENGTH:
            raise _too_long(self.p, self.s, self.n)

    @classmethod
    def of_ints(cls, p: int, m: int, s: int, n: int, lam: int, modulus=None):
        return cls(ring_field(p, m, s, n, modulus), s, n, lam)

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def m(self) -> int:
        return self.field.m

    @property
    def e(self) -> int:
        return self.p ** self.s

    @property
    def N(self) -> int:
        return self.n * self.e

    def lam_inv(self) -> int:
        return self.field.inv(self.lam)

    def lam_self_paired(self) -> bool:
        return self.field.mul(self.lam, self.lam) == 1

    def dual_params(self) -> "AmbientParams":
        return AmbientParams(self.field, self.s, self.n, self.lam_inv())

    def ring_size(self) -> int:
        """|R|^N with R = F_{p^m} + u F_{p^m}."""
        return self.field.q ** (2 * self.N)


def ring_field(p: int, m: int, s: int, n: int, modulus=None) -> FieldCtx:
    """field_new(p, m, modulus) for the ring (p, m, s, n).

    With s, n >= 1 the length N = n p^s is at least p, so a p past
    MAX_LENGTH is refused here: field_new would first trial-divide p,
    which takes O(sqrt p) steps.
    """
    if p > MAX_LENGTH and s >= 1 and n >= 1:
        raise _too_long(p, s, n)
    return field_new(p, m, modulus)


def _too_long(p: int, s: int, n: int) -> TooLarge:
    return TooLarge(f"length n*p^s = {n}*{p}^{s} exceeds {MAX_LENGTH}")


class FactorData:
    """Factors, idempotents and pairing data for one ambient ring.

    The idempotents are built on first read of fd.idempotents and then
    kept, so work that never glues components (dual, enumerate,
    selfdual, count) builds none.  _dual holds the lambda^(-1) ring's
    FactorData once dual.dual_factor_data has built it; the dual links
    back only once it is dualized itself.  _fixed holds the self-dual
    kernels of the tau-fixed factors once dual has built them, so a
    count and a stream on one ring share them.
    """

    __slots__ = (
        "params",
        "lam0",
        "factors",
        "_idempotents",
        "_dual",
        "_fixed",
        "chain_ctxs",
        "binomial",
        "tau",
        "delta",
        "rho",
        "pair_count",
    )

    def __init__(self, params, lam0, factors, chain_ctxs, tau, delta, rho, pair_count):
        self.params = params
        self.lam0 = lam0
        self.factors = factors
        self._idempotents = None
        self._dual = None
        self._fixed = None
        self.chain_ctxs = chain_ctxs
        field, N = params.field, params.N
        self.binomial = Poly(field, (field.neg(params.lam),) + (0,) * (N - 1) + (1,))
        self.tau = tau  # 0-based involution on factor indices, None unless lambda^2 = 1
        self.delta = delta  # delta_j = f_j(0)^-1, aligned with tau
        self.rho = rho  # number of tau-fixed factors
        self.pair_count = pair_count

    @property
    def idempotents(self) -> list[Poly]:
        """eps_j for each f_j, built on first read."""
        if self._idempotents is None:
            self._idempotents = _idempotents(self.params, self.factors)
        return self._idempotents

    @property
    def r(self) -> int:
        return len(self.factors)

    def chain(self, j: int) -> ChainCtx:
        return self.chain_ctxs[j]

    def mulmod(self, a: Poly, b: Poly) -> Poly:
        """Product reduced mod x^N - lambda."""
        return self.reduce(a * b)

    def reduce(self, a: Poly) -> Poly:
        """a mod x^N - lambda; division visits the binomial's two terms only."""
        return a % self.binomial


def _pair_order(factors: list[Poly]) -> list[Poly]:
    """Sort so tau-fixed factors come first, then pair halves aligned.

    In the returned order tau (0-based) is tau(j) = j for j < rho and
    tau(rho + i) = rho + pair_count + i.
    """
    recip_of = {}
    for f in factors:
        recip_of[f] = reciprocal(f).monic()
    fixed = [f for f in factors if recip_of[f] == f]
    paired = [f for f in factors if recip_of[f] != f]
    firsts, seconds, seen = [], [], set()
    for f in sorted(paired, key=Poly.sort_key):
        if f in seen:
            continue
        g = recip_of[f]
        if g not in recip_of:
            raise RangeError("reciprocal pairing left the factor set")
        seen.add(f)
        seen.add(g)
        firsts.append(f)
        seconds.append(g)
    return fixed + firsts + seconds


def factor_data_for(params: AmbientParams, factors: list[Poly]) -> FactorData:
    """FactorData for a caller-supplied factor ordering of x^n - lambda0.

    The pairing tau is found by matching each factor with the monic
    normalization of its reciprocal; it exists only when lambda^2 = 1.
    Callers wanting the fixed-factors-first layout should order via
    _pair_order (build_factor_data does).
    """
    field = params.field
    lam0, base = root_binomial(params)
    prod = Poly.one(field)
    for f in factors:
        prod = prod * f
    if prod != base:
        raise RangeError("factor list does not multiply out to x^n - lambda0")

    if params.lam_self_paired():
        index = {f: j for j, f in enumerate(factors)}
        tau = [index[reciprocal(f).monic()] for f in factors]
        delta = [field.inv(f(0)) for f in factors]
        rho = sum(1 for j, l in enumerate(tau) if j == l)
        pair_count = (len(factors) - rho) // 2
    else:
        tau = delta = rho = pair_count = None

    chain_ctxs = [ChainCtx(f, params.e) for f in factors]
    return FactorData(params, lam0, list(factors), chain_ctxs, tau, delta, rho, pair_count)


def _idempotents(params: AmbientParams, factors: list[Poly]) -> list[Poly]:
    """eps_j = frobenius(v_j F_j mod (x^n - lambda0), s), with no gcd.

    Differentiating x^n - lambda0 = f F gives n x^(n-1) = f' F at each
    root of f, and x^n = lambda0 there, so the inverse of F mod f is
    v = x f'(x) / (n lambda0) mod f.  The twist is additive and
    one-to-one, so the eps_j sum to 1 exactly when the untwisted
    w_j = v_j F_j mod (x^n - lambda0) do, which is checked at length n.
    """
    field = params.field
    lam0, base = root_binomial(params)
    scale = field.inv(field.mul(params.n % params.p, lam0))
    total = Poly.zero(field)
    idempotents = []
    for f in factors:
        v = (Poly.x(field) * f.derivative()).scale(scale) % f
        w = (v * (base // f)) % base
        total = total + w
        idempotents.append(frobenius(w, params.s))
    assert total == Poly.one(field), "idempotents do not sum to 1"
    return idempotents


def root_binomial(params: AmbientParams) -> tuple[int, Poly]:
    """(lambda0, x^n - lambda0) with lambda0^(p^s) = lambda."""
    field = params.field
    lam0 = ps_root(field, params.lam, params.s)
    return lam0, Poly(field, (field.neg(lam0),) + (0,) * (params.n - 1) + (1,))


def factor_degrees(params: AmbientParams) -> list[int]:
    """Degrees of the f_j, ascending, in integer arithmetic only.

    With t the order of lambda0 and beta a primitive (n*t)-th root of
    unity, the roots of x^n - lambda0 are the beta^j with j = 1 (mod t).
    The q-th power map takes beta^j to beta^(j*q), so each f_j has the
    roots of one q-cyclotomic coset of those j, and its degree is the
    size of that coset.

    The coset of j = 1 + i*t has the size of the least d with q^d = 1
    mod n*t / gcd(j, n).  A factor of t prime to n divides q - 1 and is
    prime to the rest of that modulus, so it never decides d, and taking
    i to i times it permutes the j mod n: t may be cut to its part made
    of primes of n, which FieldCtx.order finds without factoring q - 1.
    As q = 1 mod t, every j of a coset stays 1 mod t, so seen is indexed
    by i, and the work and memory are O(n) whatever the field.
    """
    field, n = params.field, params.n
    lam0 = ps_root(field, params.lam, params.s)
    t = field.order(lam0, _prime_factors(n))
    q, M = field.q, n * t
    seen = bytearray(n)
    degrees = []
    for i in range(n):
        j, d = 1 + i * t, 0
        while not seen[(j - 1) // t]:
            seen[(j - 1) // t] = 1
            d += 1
            j = j * q % M
        if d:
            degrees.append(d)
    return sorted(degrees)


def build_factor_data(params: AmbientParams) -> FactorData:
    """Factor x^n - lambda0 and order the factors; idempotents come on first read."""
    return factor_data_for(params, _ordered_factors(params))


def _ordered_factors(params: AmbientParams) -> list[Poly]:
    _, base = root_binomial(params)
    factors = factor_squarefree(base)
    return _pair_order(factors) if params.lam_self_paired() else factors


def factor_data(params: AmbientParams, factors: list[Poly] | None = None) -> FactorData:
    """The ring's FactorData, as build_factor_data (no factors) or
    factor_data_for gives it, but set up once while the process keeps
    it: a call with equal arguments returns the same object."""
    return _kept(params, None if factors is None else tuple(factors))


@lru_cache(MEMO_SIZE)
def _kept(params: AmbientParams, factors: tuple[Poly, ...] | None) -> FactorData:
    if factors is None:
        # also kept under its factors, so the dual of its dual is this one
        return _kept(params, tuple(_ordered_factors(params)))
    return factor_data_for(params, list(factors))


def clear_memo() -> None:
    """Forget every kept FactorData; factor_data builds each ring again."""
    _kept.cache_clear()
