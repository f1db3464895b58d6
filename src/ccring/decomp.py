"""Splitting the ambient ring through primitive idempotents.

With gcd(n, p) = 1 and lambda0 the p^s-th root of lambda,

    x^(n*p^s) - lambda = (x^n - lambda0)^(p^s) = prod_j f_j(x)^(p^s)

for distinct monic irreducibles f_j.  The idempotent attached to f_j is
eps_j = (v_j * F_j)^(p^s) mod (x^N - lambda) where F_j = (x^n - lambda0)/f_j
and v_j * F_j = 1 mod f_j.  These are orthogonal, sum to 1, and cut
the ambient ring into the chain-ring pieces K_j + u K_j this package
works in; oracle.code_space glues a code's components back through them.

The p^s-th power is never multiplied out.  Taking v_j of degree < deg f_j,
w_j = v_j * F_j has degree < n, and in characteristic p its p^s-th power
is its Frobenius twist: coefficient c_i^(p^s) at x^(i*p^s).  That twist
has degree < N, so

    eps_j = frobenius(w_j, s)

exactly: eps_j is w_j with p^s - 1 zero slots between its coefficients.
The w_j, of length n, are the primitive idempotents of
F_q[x]/(x^n - lambda0) (fd.root_idempotents), built on each read, each
from a closed form of v_j and at most one exact division (see
_idempotents): only gluing (info, idempotents and the oracle) needs them, once.  info
and idempotents write each eps_j's text straight from w_j
(cli.idempotents_json), so they build no list of length N.
fd.idempotents twists the w_j, at O(N) per factor, and keeps the
twists for the oracle, the only module that builds x^N - lambda.  A
count needs even less: only the factor degrees, which are the sizes
of the q-cyclotomic cosets of the roots' exponents (see
factor_degrees), so it does no polynomial arithmetic; a self-dual count
also needs to know which cosets are closed under negation, the
tau-fixed factors (see tau_degrees).

A ring's parameters are an AmbientParams, a named tuple (field, s, n,
lam) that checks them when built and is equal and hashed as that
tuple, so it keys the memos below as its fields would.  lambda0 depends
on them alone: it is params.lam0, the one p^s-th root this module takes.

The parameters alone fix a ring's FactorData: the factors come out of
factor_squarefree sorted, whatever its random splitting did.
build_factor_data and factor_data_for build a new one on every call.
factor_data_for checks a factor list from outside the package (its
degrees, then its product); the package's own lists (DerivedFactors,
from factor_squarefree or the monic reciprocals of such a list) are
built on as they come.  Every memo of set-up work is made with
memoized(), an lru_cache of MEMO_SIZE entries that clear_memo empties.
ring_field hands out the fields the process keeps, keyed on (p, m,
modulus), no modulus and the default one keying one field, with the
exp/log tables their first products build, so a command of a field
seen before searches or tests no modulus.  Each field also keeps, up
to MEMO_SIZE, the parts of x^n - lambda0 that factor_squarefree had to
split (FieldCtx.keep_split): a Phi_M for lambda0 = +-1, whatever n and
sign it came from, and the whole binomial for other lambda0.  So the
rings of one field share their factoring: over F_5, x^(2 3^t) + 1 is
split once for every s, and t + 1 splits only Phi_(4 3^(t+1)) anew.
factor_data hands out the rings the process keeps, one entry per ring
keyed on its params and factors, so a ring that comes back (a stream
of documents, the dual of a dual, self-dual codes and then their
duals) is set up once, together with whatever it has built lazily
since (self-dual kernels, transport units).  A failed build is not kept.  The factor data of the dual
ring is fixed by the source's, so dual.dual_factor_data sets it up
through the memo too, and the dual of that dual is the source again;
only the memo keeps rings, so a ring and its dual hold no link to each
other.  cli's dual command keeps, by the text of a document's params
and factors, its ring, the dual ring and the dual texts, and oracle a
ring's lift maps and lifted component rows, its x^N - lambda,
packed pair layouts and x steps.  The one memo of work on codes is the
dual command's: per factor, the last component document read and its
dual's text (cli._dual_text).  A FactorData remembers no code, so
CodeSpec and dual_code check and transport every component on every
call.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .chain import ChainCtx
from .errors import GcdViolation, RangeError, SZero, TooLarge, ZeroLambda
from .gf import MEMO_SIZE, FieldCtx, field_new, ps_root
from .poly import Poly, binomial_degrees, binomial_tau_degrees, factor_squarefree, frobenius, reciprocal

# the longest ambient length N = n*p^s accepted; set-up work grows with N
# (on a 2-vCPU Xeon with Python 3.11, count takes about 0.06 s at
# N = 2^18 and 0.5 s at 2^20; the field adds only a few powers in F_q,
# so q = 2^61 at n = 3 takes 0.5 s for the whole process; but info at
# N = 16382, which factors x^8191 - 1 over F_2 into 630 factors of degree
# 13 with gcds of degree up to 8190, takes about 20 s)
MAX_LENGTH = 1 << 18

_MEMOS = []  # the lru_cache of every memoized() function, for clear_memo


def memoized(fn):
    """fn behind an lru_cache of MEMO_SIZE entries that clear_memo empties."""
    cached = lru_cache(MEMO_SIZE)(fn)
    _MEMOS.append(cached)
    return cached


def clear_memo() -> None:
    """Forget every kept field, with the exp/log tables and split parts
    it keeps, and every FactorData, also those cli keeps by document
    text with their dual texts, and oracle's per-ring lifts, moduli
    x^N - lambda, layouts, steps and pairing tables; ring_field and
    factor_data build each again, and a new field splits every part
    again.  A field held elsewhere keeps its own parts."""
    for memo in _MEMOS:
        memo.cache_clear()


class _Params(NamedTuple):
    field: FieldCtx
    s: int
    n: int
    lam: int


class AmbientParams(_Params):
    """Parameters (p, m, s, n, lambda) of R[x]/(x^(n*p^s) - lambda): a
    named tuple of (field, s, n, lam), checked when built, by _make and
    _replace too.  As a tuple it equals, hashes and orders as the plain
    tuple of its fields."""

    __slots__ = ()

    def __new__(cls, field: FieldCtx, s: int, n: int, lam: int):
        self = tuple.__new__(cls, (field, s, n, lam))
        _check_s_n(s, n)
        if gcd(n, field.p) != 1:
            raise GcdViolation(f"n = {n} shares a factor with p = {field.p}")
        if not 0 < lam < field.q:
            raise ZeroLambda(f"lambda = {lam} is not a unit")
        # p^s >= 2^s, so the first test keeps p**s small in the second
        if s >= MAX_LENGTH.bit_length() or self.N > MAX_LENGTH:
            raise _too_long(self.p, s, n)
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

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

    @property
    def lam0(self) -> int:
        """lambda0 = lambda^(1/p^s), taken on each read: x^N - lambda =
        (x^n - lambda0)^(p^s)."""
        return ps_root(self.field, self.lam, self.s)

    def dual_params(self) -> "AmbientParams":
        return AmbientParams(self.field, self.s, self.n, self.lam_inv())

    def ring_size(self) -> int:
        """|R|^N with R = F_{p^m} + u F_{p^m}."""
        return self.field.q ** (2 * self.N)


def ring_field(p: int, m: int, s: int, n: int, modulus=None) -> FieldCtx:
    """field_new(p, m, modulus) for the ring (p, m, s, n), one object per
    (p, m, modulus) while the memo keeps it; no modulus and the default
    one, which documents name, give the same object.

    A p past MAX_LENGTH is refused here, with the error AmbientParams
    would give (s or n below 1, else a length N = n p^s >= p too long):
    field_new would first trial-divide p, which takes O(sqrt p) steps.
    """
    if p > MAX_LENGTH:
        _check_s_n(s, n)
        raise _too_long(p, s, n)
    field = _kept_field(p, m, None)
    default = modulus is None or tuple(modulus) == field.modulus
    return field if default else _kept_field(p, m, tuple(modulus))


@memoized
def _kept_field(p: int, m: int, modulus: tuple[int, ...] | None) -> FieldCtx:
    """field_new(p, m, modulus), kept with its exp/log tables once built,
    so a command of a ring seen before searches or tests no modulus."""
    return field_new(p, m, modulus)


def _check_s_n(s: int, n: int) -> None:
    if s < 1:
        raise SZero(f"s = {s} must be >= 1")
    if n < 1:
        raise RangeError(f"n = {n} must be >= 1")


def _too_long(p: int, s: int, n: int) -> TooLarge:
    return TooLarge(f"length n*p^s = {n}*{p}^{s} exceeds {MAX_LENGTH}")


class FactorData:
    """Factors and pairing data for one ambient ring, all derived from
    params and the factors of x^n - lambda0 in the order given
    (factor_data_for checks a list from outside the package).
    build_factor_data gives the pair layout, the order documents use:
    the tau-fixed factors, then one member of each reciprocal pair, then
    their reciprocals (_pair_order).  No code relies on that layout:
    every reader of the pairing takes tau, so self-dual streams,
    dual_code_nu and the idempotents accept any factor order.

    It keeps only what is read again, each with its readers:
    - chain_ctxs[j], factor j's chain ring and its powers of f_j: every
      spec and transport on factor j;
    - tau (lambda^2 = 1; 0-based, recip(f_j) = f_tau(j), see _tau):
      each self-dual code, dual_code_nu and the idempotents' mirrors;
      rho and pair_count, the number of tau-fixed factors and of pairs,
      for documents;
    - _twisted, the eps_j (idempotents), built on first read:
      oracle._lift, once per factor;
    - _fixed[j], tau-fixed factor j's self-dual kernels, built when a
      stream first moves past b = 0: each restart of that stream (the
      seed-9001 selfdual benchmark ops at --seconds 10, in one process,
      move 91 streams past b = 0 and build windows 49 times);
    - _units[j], the transport's unit U_j and, by window (lo, hi), the
      window units made from it (dual._units): each transport out of
      factor j after the first, in its window, and _fixed_windows.
    The w_j (root_idempotents) are built on each read, as no command
    reads them twice; lambda0 is params.lam0; info takes the
    f_j(0)^(-1) as it writes them.
    """

    __slots__ = ("params", "factors", "_twisted", "_fixed", "_units", "chain_ctxs", "tau", "rho", "pair_count")

    def __init__(self, params: AmbientParams, factors: list[Poly]):
        self.params = params
        self.factors = factors = list(factors)
        self._twisted = None
        self._fixed = [None] * len(factors)
        self._units = [None] * len(factors)
        self.chain_ctxs = [ChainCtx(f, params.e) for f in factors]
        self.tau = self.rho = self.pair_count = None
        if params.lam_self_paired():
            self.tau = _tau(factors)
            self.rho = sum(1 for j, t in enumerate(self.tau) if j == t)
            self.pair_count = (len(factors) - self.rho) // 2

    @property
    def root_idempotents(self) -> list[Poly]:
        """w_j = v_j F_j for each f_j, of degree < n, the exact quotient
        v_j (x^n - lambda0) / f_j, built on every read; eps_j =
        frobenius(w_j, s)."""
        return _idempotents(self.params, self.factors, self.tau)

    @property
    def idempotents(self) -> list[Poly]:
        """eps_j for each f_j, of degree < N, twisted from
        root_idempotents on first read and then kept."""
        if self._twisted is None:
            self._twisted = [frobenius(w, self.params.s) for w in self.root_idempotents]
        return self._twisted

    @property
    def r(self) -> int:
        return len(self.factors)

    def chain(self, j: int) -> ChainCtx:
        return self.chain_ctxs[j]


def _tau(factors: list[Poly]) -> list[int]:
    """tau (0-based) of factors closed under monic reciprocals, as they
    are for lambda^2 = 1: recip(f_j) = f_tau(j), an involution.  The one
    place the package pairs a ring's factors; every reader takes tau
    from here."""
    index = {f: j for j, f in enumerate(factors)}
    return [index[reciprocal(f).monic()] for f in factors]


def _pair_order(factors: list[Poly]) -> list[Poly]:
    """The pair layout of factors sorted as factor_squarefree returns
    them, the order documents use: the tau-fixed ones, then each pair's
    member that sorts before its monic reciprocal (j < tau(j) on the
    sorted list), then those reciprocals, so that (0-based) tau(j) = j
    for j < rho and tau(rho + i) = rho + pair_count + i."""
    tau = _tau(factors)
    firsts = [j for j, t in enumerate(tau) if j < t]
    order = [j for j, t in enumerate(tau) if j == t] + firsts + [tau[j] for j in firsts]
    return [factors[j] for j in order]


def factor_data_for(params: AmbientParams, factors: list[Poly]) -> FactorData:
    """FactorData for a caller-supplied factor ordering of x^n - lambda0.

    A list from outside the package must be its monic irreducible
    factors: RangeError unless each factor is monic and the degrees are
    factor_degrees(params) (x^n - lambda0 is squarefree, so monic factors
    with its product and its factor degrees are its irreducible factors),
    then RangeError unless they multiply out to it.  A DerivedFactors
    list is the package's own and is not checked.
    """
    if not isinstance(factors, DerivedFactors):
        degrees = sorted(f.degree for f in factors)
        if degrees != factor_degrees(params) or not all(f.is_monic() for f in factors):
            raise RangeError("'factors' must be the monic irreducible factors of x^n - lambda0")
        prod = Poly.one(params.field)
        for f in factors:
            prod = prod * f
        if prod != root_binomial(params):
            raise RangeError("factor list does not multiply out to x^n - lambda0")
    return FactorData(params, factors)


class DerivedFactors(tuple):
    """A factor list of x^n - lambda0 the package derived itself: the
    sorted output of factor_squarefree, or the monic reciprocals of a
    FactorData's factors (those of x^n - lambda0^(-1)).  It equals, and
    hashes as, the plain tuple, so both find one factor_data entry.  The
    hash is taken once, when the list is made, so a memo lookup by it
    does not hash the r factors again."""

    def __init__(self, factors):
        self._hash = tuple.__hash__(self)

    def __hash__(self) -> int:
        return self._hash


def _idempotents(params: AmbientParams, factors: list[Poly], tau: list[int] | None) -> list[Poly]:
    """w_j = v_j F_j mod (x^n - lambda0), with no gcd and no product:
    the untwisted idempotents, eps_j = frobenius(w_j, s).

    Differentiating x^n - lambda0 = f F gives n x^(n-1) = f' F at each
    root of f, and x^n = lambda0 there, so the inverse of F mod f is
    x f'(x) / (n lambda0) mod f.  f is monic of degree d, so x f' - d f
    has degree < d and is that reduction: coefficient i < d of v is
    (i - d) f_i / (n lambda0), read off f.  v F has degree < n, so it
    is w itself, and v (x^n - lambda0) = f w makes w one exact division
    of a dividend with 2d terms; its remainder is checked to be zero.

    For lambda^2 = 1, x -> x^(-1) = lambda0 x^(n-1) is an automorphism
    of F_q[x]/(x^n - lambda0) that takes the roots of f to those of its
    monic reciprocal g, so w for g is w for f at x^(-1): coefficient
    n - i is lambda0 w_i for 0 < i < n.  Of a reciprocal pair only the
    first factor is divided: row j mirrors row tau(j) when tau(j) < j.

    The twist is additive and one-to-one, so the eps_j sum to 1 exactly
    when the w_j do, which is checked here, at length n: over F_p by one
    column sum per slot.
    """
    field, n, lam0 = params.field, params.n, params.lam0
    p, mul = field.p, field.mul
    scale = field.inv(mul(n % p, lam0))
    neg_lam0 = field.neg(lam0)
    rows = []  # each w_j's coefficients, padded to length n
    for j, f in enumerate(factors):
        if tau is not None and tau[j] < j:
            mirror = rows[tau[j]]
            tail = mirror[:0:-1]
            row = mirror[:1] + (tail if lam0 == 1 else tuple(map(field.neg, tail)))
        else:
            low = f.coeffs[:-1]
            d = len(low)
            if field.m == 1:
                v = [(i - d) * c * scale % p for i, c in enumerate(low)]
                head = [neg_lam0 * c % p for c in v]
            else:
                v = [mul(mul((i - d) % p, c), scale) for i, c in enumerate(low)]
                head = [mul(neg_lam0, c) for c in v]
            w, rem = divmod(Poly(field, head + [0] * (n - d) + v), f)
            assert not rem, "idempotent division is not exact"
            row = w.coeffs + (0,) * (n - len(w.coeffs))
        rows.append(row)
    idempotents = [Poly(field, row) for row in rows]
    if field.m == 1:
        one = [c % p for c in map(sum, zip(*rows))] == [1] + [0] * (n - 1)
    else:
        total = Poly.zero(field)
        for w in idempotents:
            total = total + w
        one = total == Poly.one(field)
    assert one, "idempotents do not sum to 1"
    return idempotents


def root_binomial(params: AmbientParams) -> Poly:
    """x^n - lambda0, with lambda0 = params.lam0."""
    field = params.field
    return Poly(field, (field.neg(params.lam0),) + (0,) * (params.n - 1) + (1,))


def factor_degrees(params: AmbientParams) -> list[int]:
    """Degrees of the f_j, ascending, in integer arithmetic only: the
    sizes of the q-cyclotomic cosets of the roots' exponents (see
    poly.binomial_degrees)."""
    return binomial_degrees(params.field, params.n, params.lam0)


def tau_degrees(params: AmbientParams) -> tuple[list[int], list[int]]:
    """For lambda^2 = 1, the degrees of the tau-fixed factors and one
    degree per reciprocal pair, ascending, from the same cosets as
    factor_degrees: FactorData's rho and pair_count without factoring."""
    return binomial_tau_degrees(params.field, params.n, params.lam0)


def build_factor_data(params: AmbientParams) -> FactorData:
    """Factor x^n - lambda0 and order the factors; idempotents come on first read."""
    return factor_data_for(params, DerivedFactors(_ordered_factors(params)))


def _ordered_factors(params: AmbientParams) -> list[Poly]:
    factors = factor_squarefree(root_binomial(params))
    return _pair_order(factors) if params.lam_self_paired() else factors


def factor_data(params: AmbientParams, factors: list[Poly] | None = None) -> FactorData:
    """The ring's FactorData, as build_factor_data (no factors) or
    factor_data_for gives it, but set up once while the process keeps
    it: a call with equal factors returns the same object.

    A ring takes one entry, keyed on its params and factors, and no
    factors means the ones the ring derives, so factor_data(params) and
    factor_data(params, its factors) share one entry, and the dual of a
    dual is the source again.
    """
    if factors is None:
        factors = _derived_factors(params)
    elif not isinstance(factors, DerivedFactors):
        factors = tuple(factors)
    return _kept_ring(params, factors)


@memoized
def _derived_factors(params: AmbientParams) -> DerivedFactors:
    return DerivedFactors(_ordered_factors(params))


@memoized
def _kept_ring(params: AmbientParams, factors: tuple[Poly, ...]) -> FactorData:
    return factor_data_for(params, factors)
