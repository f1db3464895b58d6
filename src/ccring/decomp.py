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

exactly: eps_j is w_j with p^s - 1 zero slots between its coefficients.
FactorData keeps the w_j, of length n, the primitive idempotents of
F_q[x]/(x^n - lambda0) (fd.root_idempotents), built on first read,
since only gluing (info, idempotents and the oracle) needs them; dual,
enumerate and selfdual work componentwise.  info and idempotents write
each eps_j's text straight from w_j (cli.idempotents_json), so they
build no list of length N.  fd.idempotents twists the w_j, at O(N) per
factor, for the oracle, the only module that builds x^N - lambda.  A
count needs even less: only the factor degrees, which are the sizes
of the q-cyclotomic cosets of the roots' exponents (see
factor_degrees), so it does no polynomial arithmetic; a self-dual count
also needs to know which cosets are closed under negation, the
tau-fixed factors (see tau_degrees).

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
seen before searches or tests no modulus.  factor_data hands out the
rings the process keeps, one entry per ring keyed on its params and
factors, so a ring that comes back (a stream of documents, the dual of
a dual, self-dual codes and then their duals) is set up once, together
with whatever it has built lazily since (self-dual kernels, transport
units).  A failed build is not kept.  The factor data of the dual
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

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .chain import ChainCtx
from .errors import GcdViolation, RangeError, SZero, TooLarge, ZeroLambda
from .gf import FieldCtx, field_new, ps_root
from .poly import Poly, binomial_degrees, binomial_tau_degrees, factor_squarefree, frobenius, reciprocal

# the longest ambient length N = n*p^s accepted; set-up work grows with N
# (on a 2-vCPU Xeon with Python 3.11, count takes about 0.06 s at
# N = 2^18 and 0.5 s at 2^20; the field adds only a few powers in F_q,
# so q = 2^61 at n = 3 takes 0.5 s for the whole process; but info at
# N = 16382, which factors x^8191 - 1 over F_2 into 630 factors of degree
# 13 with gcds of degree up to 8190, takes about 20 s)
MAX_LENGTH = 1 << 18

# entries each ring set-up memo holds, sized from the traffic:
# factor_data takes one per ring (and, for a ring set up from its params
# alone, one for its derived factors), so two for `enumerate` and then `dual`
# twice on its documents (the ring and its dual), two for a `dual` call,
# and one for `selfdual --limit`; `selfdual --count-only`, like `count`,
# takes none.  cli's dual memo takes one per ring text, so two for a ring
# and its dual.  ring_field takes one per field, and one more per
# modulus given other than the default.  Replaying the seed-9001 benchmark ops in one
# process, code_stream's 12 rings build 24 FactorData with any size from
# 2 up, and selfdual's 151, 130, 106 and 55 with 2, 8, 16 and 32 entries
# (a ring's stream op builds it, its count op nothing), where past 2
# only the op list's returning to rings it used many ops before gains.
MEMO_SIZE = 16

_MEMOS = []  # the lru_cache of every memoized() function, for clear_memo


def memoized(fn):
    """fn behind an lru_cache of MEMO_SIZE entries that clear_memo empties."""
    cached = lru_cache(MEMO_SIZE)(fn)
    _MEMOS.append(cached)
    return cached


def clear_memo() -> None:
    """Forget every kept field and FactorData, also those cli keeps by
    document text with their dual texts, and oracle's per-ring lifts,
    moduli x^N - lambda, layouts and steps; ring_field and factor_data
    build each again."""
    for memo in _MEMOS:
        memo.cache_clear()


@dataclass(frozen=True)
class AmbientParams:
    """Parameters (p, m, s, n, lambda) of R[x]/(x^(n*p^s) - lambda)."""

    field: FieldCtx
    s: int
    n: int
    lam: int

    def __post_init__(self):
        _check_s_n(self.s, self.n)
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
    """Factors, idempotents and pairing data for one ambient ring, all
    derived from params and the factors of x^n - lambda0 in the order
    given (factor_data_for checks a list from outside the package).

    The idempotents are built on first read and then kept, so work that
    never glues components (dual, enumerate, selfdual, count) builds
    none.  _idempotents holds the untwisted w_j of length n
    (root_idempotents), _twisted the eps_j of length N (idempotents),
    which only the oracle reads.  _fixed[j] holds the self-dual
    kernels of tau-fixed factor j once a self-dual stream has moved past
    its first spec, so later streams on the ring share them.  _units[j]
    holds dual._transport_b's unit at factor j once built.
    """

    __slots__ = (
        "params",
        "lam0",
        "factors",
        "_idempotents",
        "_twisted",
        "_fixed",
        "_units",
        "chain_ctxs",
        "tau",
        "delta",
        "rho",
        "pair_count",
    )

    def __init__(self, params: AmbientParams, factors: list[Poly]):
        field = params.field
        self.params = params
        self.lam0 = ps_root(field, params.lam, params.s)
        self.factors = factors = list(factors)
        self._idempotents = self._twisted = None
        self._fixed = [None] * len(factors)
        self._units = [None] * len(factors)
        self.chain_ctxs = [ChainCtx(f, params.e) for f in factors]
        # tau (0-based, recip(f_j) = f_tau(j)), delta_j = f_j(0)^-1 and rho,
        # the number of tau-fixed factors, exist only when lambda^2 = 1
        self.tau = self.delta = self.rho = self.pair_count = None
        if params.lam_self_paired():
            index = {f: j for j, f in enumerate(factors)}
            self.tau = [index[reciprocal(f).monic()] for f in factors]
            self.delta = [field.inv(f(0)) for f in factors]
            self.rho = sum(1 for j, t in enumerate(self.tau) if j == t)
            self.pair_count = (len(factors) - self.rho) // 2

    @property
    def root_idempotents(self) -> list[Poly]:
        """w_j = v_j F_j mod (x^n - lambda0) for each f_j, of degree < n,
        built on first read; eps_j = frobenius(w_j, s)."""
        if self._idempotents is None:
            self._idempotents = _idempotents(self.params, self.factors)
        return self._idempotents

    @property
    def idempotents(self) -> list[Poly]:
        """eps_j for each f_j, of degree < N, twisted from
        root_idempotents on first read."""
        if self._twisted is None:
            self._twisted = [frobenius(w, self.params.s) for w in self.root_idempotents]
        return self._twisted

    @property
    def r(self) -> int:
        return len(self.factors)

    def chain(self, j: int) -> ChainCtx:
        return self.chain_ctxs[j]


def _pair_order(factors: list[Poly]) -> list[Poly]:
    """Reorder factors, sorted as factor_squarefree returns them: the
    tau-fixed ones, then each pair's member that sorts before its monic
    reciprocal, then those reciprocals, so that (0-based) tau(j) = j for
    j < rho and tau(rho + i) = rho + pair_count + i."""
    members = set(factors)
    fixed, firsts, seconds = [], [], []
    for f in factors:
        g = reciprocal(f).monic()
        if g not in members:
            raise RangeError("reciprocal pairing left the factor set")
        if g == f:
            fixed.append(f)
        elif f.sort_key() < g.sort_key():
            firsts.append(f)
            seconds.append(g)
    return fixed + firsts + seconds


def factor_data_for(params: AmbientParams, factors: list[Poly]) -> FactorData:
    """FactorData for a caller-supplied factor ordering of x^n - lambda0.

    A list from outside the package must be its monic irreducible
    factors: RangeError unless each factor is monic and the degrees are
    factor_degrees(params) (x^n - lambda0 is squarefree, so monic factors
    with its product and its factor degrees are its irreducible factors),
    then RangeError unless they multiply out to it.  A DerivedFactors
    list is the package's own and is not checked.

    Callers wanting the fixed-factors-first layout should order via
    _pair_order (build_factor_data does).
    """
    if not isinstance(factors, DerivedFactors):
        degrees = sorted(f.degree for f in factors)
        if degrees != factor_degrees(params) or not all(f.is_monic() for f in factors):
            raise RangeError("'factors' must be the monic irreducible factors of x^n - lambda0")
        prod = Poly.one(params.field)
        for f in factors:
            prod = prod * f
        if prod != root_binomial(params)[1]:
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


def _idempotents(params: AmbientParams, factors: list[Poly]) -> list[Poly]:
    """w_j = v_j F_j mod (x^n - lambda0), with no gcd: the untwisted
    idempotents, eps_j = frobenius(w_j, s).

    Differentiating x^n - lambda0 = f F gives n x^(n-1) = f' F at each
    root of f, and x^n = lambda0 there, so the inverse of F mod f is
    v = x f'(x) / (n lambda0) mod f.  The twist is additive and
    one-to-one, so the eps_j sum to 1 exactly when the w_j do, which is
    checked here, at length n.
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
        idempotents.append(w)
    assert total == Poly.one(field), "idempotents do not sum to 1"
    return idempotents


def root_binomial(params: AmbientParams) -> tuple[int, Poly]:
    """(lambda0, x^n - lambda0) with lambda0^(p^s) = lambda."""
    field = params.field
    lam0 = ps_root(field, params.lam, params.s)
    return lam0, Poly(field, (field.neg(lam0),) + (0,) * (params.n - 1) + (1,))


def factor_degrees(params: AmbientParams) -> list[int]:
    """Degrees of the f_j, ascending, in integer arithmetic only: the
    sizes of the q-cyclotomic cosets of the roots' exponents (see
    poly.binomial_degrees)."""
    field = params.field
    return binomial_degrees(field, params.n, ps_root(field, params.lam, params.s))


def tau_degrees(params: AmbientParams) -> tuple[list[int], list[int]]:
    """For lambda^2 = 1, the degrees of the tau-fixed factors and one
    degree per reciprocal pair, ascending, from the same cosets as
    factor_degrees: FactorData's rho and pair_count without factoring."""
    field = params.field
    return binomial_tau_degrees(field, params.n, ps_root(field, params.lam, params.s))


def build_factor_data(params: AmbientParams) -> FactorData:
    """Factor x^n - lambda0 and order the factors; idempotents come on first read."""
    return factor_data_for(params, DerivedFactors(_ordered_factors(params)))


def _ordered_factors(params: AmbientParams) -> list[Poly]:
    _, base = root_binomial(params)
    factors = factor_squarefree(base)
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
