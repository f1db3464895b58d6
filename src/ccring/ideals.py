"""Ideals of K + uK (u^2 = 0) over a chain ring K = F_{p^m}[x]/(f^e).

Writing an element as xi + u*eta, every ideal is one member of a single
family

    <f^(k+1)*b + u*f^k, f^(k+t)>      0 <= k, 0 <= t, k + t <= e,
                                      b in f^(ceil(t/2)-1) (K/f^(t-1)),

of size (q^d)^(2e - 2k - t); for t = 0 there is no b and the ideal is
<f^k>.  The five case labels name regions of (k, t):

    I      (0, e)         <f*b + u>
    II(k)  (k, e - k)     <f^(k+1)*b + u*f^k>          1 <= k <= e-1
    III(k) (k, 0)         <f^k>                        0 <= k <= e
    IV(t)  (0, t)         <f*b + u, f^t>               1 <= t <= e-1
    V(k,t) (k, t)         the rest: k, t >= 1, k + t <= e-1

to_kt and from_kt translate between a labelled spec and its (k, t).
The parameter b ranges over a residue window, so each ideal appears for
exactly one spec.  Codes in the full ambient ring are tuples of one
such spec per irreducible factor, glued through the idempotents.

Both are named tuples, equal to and hashed as the plain tuple of their
fields: an IdealSpec is (case, k, t, b), unchecked until validate_spec
reads it, and a CodeSpec is (fd, components), whose constructor, _make
and _replace check and reduce every component (CodeSpec.trusted, for
components the package built itself, checks none).  spec._replace(b=...)
changes a field.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from itertools import islice
from typing import NamedTuple

from .chain import ChainCtx, ceil_half, odometer
from .decomp import AmbientParams, FactorData
from .errors import InvalidSpec
from .poly import Poly

CASES = ("I", "II", "III", "IV", "V")
# the fields among k, t and b that a spec of each case sets; the others are None
_FIELDS = dict(zip(CASES, ("b", "kb", "k", "tb", "ktb")))


class IdealSpec(NamedTuple):
    case: str
    k: int | None = None
    t: int | None = None
    b: Poly | None = None

    def label(self) -> str:
        bits = [self.case]
        if self.k is not None:
            bits.append(f"k={self.k}")
        if self.t is not None:
            bits.append(f"t={self.t}")
        if self.b is not None:
            bits.append(f"b={self.b.term_string()}")
        return " ".join(bits)


def to_kt(spec: IdealSpec, e: int) -> tuple[int, int]:
    """The (k, t) of a spec whose fields fit its case, as tabled above."""
    k = spec.k or 0
    if spec.t is not None:
        return k, spec.t
    return (k, 0) if spec.case == "III" else (k, e - k)


def _label(k: int, t: int, e: int) -> str:
    """The case of (k, t), 0 <= k, 0 <= t, k + t <= e."""
    if t == 0:
        return "III"
    if k == 0:
        return "I" if t == e else "IV"
    return "II" if k + t == e else "V"


def from_kt(k: int, t: int, e: int, b: Poly | None = None) -> IdealSpec:
    """The labelled spec of (k, t), with b unless t = 0; inverse of to_kt."""
    case = _label(k, t, e)
    fields = _FIELDS[case]
    return IdealSpec(case, k if "k" in fields else None, t if "t" in fields else None, b if "b" in fields else None)


def b_window(spec: IdealSpec, e: int) -> tuple[int, int]:
    """Digit window [lo, hi) = [ceil(t/2) - 1, t - 1) that b must live in."""
    t = to_kt(spec, e)[1]
    if t == 0:
        raise InvalidSpec(f"case {spec.case} carries no b parameter")
    return ceil_half(t) - 1, t - 1


def validate_spec(spec: IdealSpec, ctx: ChainCtx) -> IdealSpec:
    """spec with b reduced mod f^e; InvalidSpec unless it names an ideal."""
    return checked_spec(spec, ctx)[0]


def checked_spec(spec: IdealSpec, ctx: ChainCtx) -> tuple[IdealSpec, Poly | None]:
    """validate_spec's spec and, when it carries a b, the quotient
    c = b / f^lo on its window [lo, hi) (else None): the window check's
    one division, which dual.dual_component takes instead of dividing
    again."""
    e, case = ctx.e, spec.case
    fields = _FIELDS.get(case)
    if fields is None:
        raise InvalidSpec(f"unknown case {case!r}")
    if fields != "k" * (spec.k is not None) + "t" * (spec.t is not None) + "b" * (spec.b is not None):
        raise InvalidSpec(f"case {case} takes exactly {', '.join(fields)}")
    k, t = to_kt(spec, e)
    if not (0 <= k and 0 <= t and k + t <= e and _label(k, t, e) == case):
        raise InvalidSpec(f"case {case} has no ideal with (k, t) = ({k}, {t}) when e = {e}")
    if spec.b is None:
        return spec, None
    if spec.b.ctx != ctx.field:
        raise InvalidSpec("b lives over the wrong field")
    b, (lo, hi) = ctx.reduce(spec.b), b_window(spec, e)
    c = ctx.window_quotient(b, lo, hi)
    if c is None:
        raise InvalidSpec(f"b = {spec.b.term_string()} outside digit window [{lo}, {hi})")
    return (spec if b is spec.b else spec._replace(b=b)), c


def ideal_size(spec: IdealSpec, ctx: ChainCtx) -> int:
    k, t = to_kt(spec, ctx.e)
    return (ctx.field.q ** ctx.d) ** (2 * ctx.e - 2 * k - t)


def generator_rows(spec: IdealSpec, ctx: ChainCtx) -> list[tuple[Poly, Poly, int]]:
    """Module generators of the ideal as rows (xi, eta, depth):
    (f^(k+1) b, f^k, k) and (f^(k+t), 0, k+t), each kept while its
    depth is below e (b = 0 for case III).

    Each element of the ideal is uniquely sum_i c_i * row_i with the
    coefficient c_i running over K/(f^(e - depth_i)).
    """
    validate_spec(spec, ctx)
    k, t = to_kt(spec, ctx.e)
    fp, zero = ctx.f_pows, Poly.zero(ctx.field)
    rows = []
    if k < ctx.e:
        rows.append((zero if spec.b is None else ctx.mul(fp[k + 1], spec.b), fp[k], k))
    if k + t < ctx.e:
        rows.append((fp[k + t], zero, k + t))
    return rows


def _shapes(e: int):
    """Every case with its k and t, b left out, in enumerate_ideals order."""
    yield IdealSpec("I")
    for k in range(1, e):
        yield IdealSpec("II", k=k)
    for k in range(0, e + 1):
        yield IdealSpec("III", k=k)
    for t in range(1, e):
        yield IdealSpec("IV", t=t)
    for k in range(1, e - 1):
        for t in range(1, e - k):
            yield IdealSpec("V", k=k, t=t)


def enumerate_ideals(ctx: ChainCtx):
    """All ideal specs, in the fixed documented order.

    Case I (b ascending), II (k then b), III (k), IV (t then b),
    V (k, then t, then b); b runs in residue_set order over b_window.
    """
    e = ctx.e
    for shape in _shapes(e):
        if to_kt(shape, e)[1] == 0:
            yield shape
            continue
        for b in ctx.residue_set(*b_window(shape, e)):
            yield IdealSpec(shape.case, shape.k, shape.t, b)


# -- counting ----------------------------------------------------------------


def case_counts(p: int, m: int, d: int, s: int) -> dict[str, int]:
    """How many ideals each case contributes: q^floor(t/2) per (k, t),
    the size of the b window."""
    e, q = p ** s, p ** (m * d)
    counts = dict.fromkeys(CASES, 0)
    for shape in _shapes(e):
        counts[shape.case] += q ** (to_kt(shape, e)[1] // 2)
    return counts


def count_ideals_params(p: int, m: int, d: int, s: int) -> int:
    """Closed form for the number of ideals of K + uK.

    It is the sum over i = 0..h of (c + 4i) Q^(h-i), Q = p^(md), which is
    (c + 4h) S0 - 4 S1 with S0 = sum Q^j and S1 = sum j Q^j over
    j = 0..h, each a closed form with one exact division.
    """
    if s == 0:
        return 3  # K is a field, so only 0, <u> and <1>
    if p == 2:
        h, c = 2 ** (s - 1), 1
    else:
        h, c = (p ** s - 1) // 2, 3
    Q = p ** (m * d)
    Qh = Q ** h
    s0 = (Qh * Q - 1) // (Q - 1)
    s1 = Q * (1 - (h + 1) * Qh + h * Qh * Q) // (Q - 1) ** 2
    return (c + 4 * h) * s0 - 4 * s1


def count_ideals_sumform_params(p: int, m: int, d: int, s: int) -> int:
    """The same count as the sum of case_counts (independent route)."""
    return sum(case_counts(p, m, d, s).values())


# -- whole-ring codes --------------------------------------------------------


class _Code(NamedTuple):
    fd: FactorData
    components: tuple[IdealSpec, ...]


class CodeSpec(_Code):
    """One ideal spec per irreducible factor of x^n - lambda0: a named
    tuple of (fd, components), each component checked when built, by
    _make and _replace too.  As a tuple it equals and hashes as the
    plain tuple of its fields."""

    __slots__ = ()

    def __new__(cls, fd: FactorData, components: tuple[IdealSpec, ...]):
        if len(components) != fd.r:
            raise InvalidSpec(f"need {fd.r} components, got {len(components)}")
        # b is kept as its residue mod f^e, so equal codes compare equal
        return tuple.__new__(cls, (fd, tuple(map(validate_spec, components, fd.chain_ctxs))))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @classmethod
    def trusted(cls, fd: FactorData, components: tuple[IdealSpec, ...]):
        """A code from components the package itself built valid, such
        as enumerate_ideals and dual_component output: not validated."""
        return tuple.__new__(cls, (fd, components))


def code_size(code: CodeSpec) -> int:
    out = 1
    for j, spec in enumerate(code.components):
        out *= ideal_size(spec, code.fd.chain(j))
    return out


def count_codes(fd: FactorData) -> int:
    return count_codes_by_degree(fd.params, [f.degree for f in fd.factors])


def count_codes_by_degree(params: AmbientParams, degrees) -> int:
    """Number of codes of the ambient ring, from its factor degrees alone."""
    out = 1
    for d, mult in Counter(degrees).items():
        out *= count_ideals_params(params.p, params.m, d, params.s) ** mult
    return out


def enumerate_codes(fd: FactorData, limit: int | None = None):
    """Cartesian product of the per-factor spec streams.

    Odometer order with the last factor moving fastest; `limit` caps the
    number of codes yielded.
    """
    streams = [partial(enumerate_ideals, fd.chain(j)) for j in range(fd.r)]
    for comps in islice(spec_product(streams), limit):
        yield CodeSpec.trusted(fd, comps)


def spec_product(streams):
    """itertools.product over restartable streams, built lazily.

    streams[i]() starts stream i afresh.  Tuples come in product order,
    the last stream moving fastest, and no stream is ever stored whole.
    """
    return odometer(streams[::-1], lambda head, item, _: head + (item,), ())
