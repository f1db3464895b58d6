"""Ideals of K + uK (u^2 = 0) over a chain ring K = F_{p^m}[x]/(f^e).

Writing an element as xi + u*eta, every ideal falls into one of five
shapes, keyed by a distinguished generator and at most one extra power
of f:

    I    <f*b + u>                          b in f^(ceil(e/2)-1) (K/f^(e-1))
    II   <f^(k+1)*b + u*f^k>                1 <= k <= e-1,
                                            b in f^(ceil((e-k)/2)-1) (K/f^(e-k-1))
    III  <f^k>                              0 <= k <= e
    IV   <f*b + u, f^t>                     1 <= t <= e-1,
                                            b in f^(ceil(t/2)-1) (K/f^(t-1))
    V    <f^(k+1)*b + u*f^k, f^(k+t)>       1 <= k <= e-2, 1 <= t <= e-k-1,
                                            b in f^(ceil(t/2)-1) (K/f^(t-1))

The parameter b ranges over a residue window, so each ideal appears for
exactly one spec.  Codes in the full ambient ring are tuples of one
such spec per irreducible factor, glued through the idempotents.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import islice, product

from .chain import ChainCtx, ceil_half, odometer
from .decomp import AmbientParams, FactorData
from .errors import InvalidSpec, TooLarge
from .poly import Poly

CASES = ("I", "II", "III", "IV", "V")

CODEWORD_BOUND = 1 << 24


@dataclass(frozen=True)
class IdealSpec:
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


def b_window(spec: IdealSpec, e: int) -> tuple[int, int]:
    """Digit window [lo, hi) that the parameter b must live in."""
    if spec.case == "I":
        return ceil_half(e) - 1, e - 1
    if spec.case == "II":
        w = e - spec.k
        return ceil_half(w) - 1, w - 1
    if spec.case in ("IV", "V"):
        return ceil_half(spec.t) - 1, spec.t - 1
    raise InvalidSpec(f"case {spec.case} carries no b parameter")


def validate_spec(spec: IdealSpec, ctx: ChainCtx) -> None:
    e = ctx.e
    case = spec.case
    if case not in CASES:
        raise InvalidSpec(f"unknown case {spec.case!r}")
    if case == "I":
        if spec.k is not None or spec.t is not None:
            raise InvalidSpec("case I takes no k or t")
    elif case == "II":
        if spec.t is not None:
            raise InvalidSpec("case II takes no t")
        if spec.k is None or not 1 <= spec.k <= e - 1:
            raise InvalidSpec(f"case II needs 1 <= k <= {e - 1}")
    elif case == "III":
        if spec.b is not None or spec.t is not None:
            raise InvalidSpec("case III takes only k")
        if spec.k is None or not 0 <= spec.k <= e:
            raise InvalidSpec(f"case III needs 0 <= k <= {e}")
    elif case == "IV":
        if spec.k is not None:
            raise InvalidSpec("case IV takes no k")
        if spec.t is None or not 1 <= spec.t <= e - 1:
            raise InvalidSpec(f"case IV needs 1 <= t <= {e - 1}")
    elif case == "V":
        if spec.k is None or not 1 <= spec.k <= e - 2:
            raise InvalidSpec(f"case V needs 1 <= k <= {e - 2}")
        if spec.t is None or not 1 <= spec.t <= e - spec.k - 1:
            raise InvalidSpec(f"case V needs 1 <= t <= {e - spec.k - 1}")
    if case != "III":
        if spec.b is None:
            raise InvalidSpec(f"case {case} needs a b parameter")
        if spec.b.ctx != ctx.field:
            raise InvalidSpec("b lives over the wrong field")
        lo, hi = b_window(spec, e)
        if not ctx.in_residue_window(ctx.reduce(spec.b), lo, hi):
            raise InvalidSpec(
                f"b = {spec.b.term_string()} outside digit window [{lo}, {hi})"
            )


def ideal_size(spec: IdealSpec, ctx: ChainCtx) -> int:
    q = ctx.field.q ** ctx.d
    e = ctx.e
    if spec.case == "I":
        return q ** e
    if spec.case == "II":
        return q ** (e - spec.k)
    if spec.case == "III":
        return q ** (2 * (e - spec.k))
    if spec.case == "IV":
        return q ** (2 * e - spec.t)
    if spec.case == "V":
        return q ** (2 * e - 2 * spec.k - spec.t)
    raise InvalidSpec(f"unknown case {spec.case!r}")


def generator_rows(spec: IdealSpec, ctx: ChainCtx) -> list[tuple[Poly, Poly, int]]:
    """Module generators of the ideal as rows (xi, eta, depth).

    Each element of the ideal is uniquely sum_i c_i * row_i with the
    coefficient c_i running over K/(f^(e - depth_i)).
    """
    validate_spec(spec, ctx)
    f = ctx.f
    zero = Poly.zero(ctx.field)
    one = Poly.one(ctx.field)
    fp = ctx.f_pows
    if spec.case == "I":
        return [(ctx.mul(f, spec.b), one, 0)]
    if spec.case == "II":
        k = spec.k
        return [(ctx.mul(fp[k + 1], spec.b), fp[k], k)]
    if spec.case == "III":
        k = spec.k
        if k == ctx.e:
            return []
        return [(fp[k], zero, k), (zero, fp[k], k)]
    if spec.case == "IV":
        t = spec.t
        return [(ctx.mul(f, spec.b), one, 0), (fp[t], zero, t)]
    k, t = spec.k, spec.t
    return [(ctx.mul(fp[k + 1], spec.b), fp[k], k), (fp[k + t], zero, k + t)]


def ideal_member(a, spec: IdealSpec, ctx: ChainCtx) -> bool:
    """Membership of the pair a = (A, B) meaning A + u*B."""
    validate_spec(spec, ctx)
    A, B = ctx.reduce(a[0]), ctx.reduce(a[1])
    case = spec.case
    if case == "III":
        k = spec.k
        return ctx.valuation(A) >= k and ctx.valuation(B) >= k
    fb = ctx.mul(ctx.f, spec.b)
    if case == "I":
        return A == ctx.mul(fb, B)
    if case == "II":
        return ctx.valuation(B) >= spec.k and A == ctx.mul(fb, B)
    if case == "IV":
        return ctx.valuation(A - ctx.mul(fb, B)) >= spec.t
    # case V
    return (
        ctx.valuation(B) >= spec.k
        and ctx.valuation(A - ctx.mul(fb, B)) >= spec.k + spec.t
    )


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
    for shape in _shapes(ctx.e):
        if shape.case == "III":
            yield shape
            continue
        for b in ctx.residue_set(*b_window(shape, ctx.e)):
            yield IdealSpec(shape.case, shape.k, shape.t, b)


# -- counting ----------------------------------------------------------------


def case_counts(p: int, m: int, d: int, s: int) -> dict[str, int]:
    """How many ideals each case contributes, from the window sizes."""
    e, q = p ** s, p ** (m * d)
    counts = dict.fromkeys(CASES, 0)
    for shape in _shapes(e):
        lo, hi = (0, 0) if shape.case == "III" else b_window(shape, e)
        counts[shape.case] += q ** (hi - lo)
    return counts


def count_ideals_params(p: int, m: int, d: int, s: int) -> int:
    """Closed form for the number of ideals of K + uK."""
    if s == 0:
        return 3  # K is a field, so only 0, <u> and <1>
    # sum over i = 0..h of (c + 4i) * Q^(h-i), Q = p^(md), by Horner's rule
    if p == 2:
        h, c = 2 ** (s - 1), 1
    else:
        h, c = (p ** s - 1) // 2, 3
    Q = p ** (m * d)
    total = 0
    for i in range(h + 1):
        total = total * Q + c + 4 * i
    return total


def count_ideals_sumform_params(p: int, m: int, d: int, s: int) -> int:
    """The same count as the sum of case_counts (independent route)."""
    return sum(case_counts(p, m, d, s).values())


def chain_exponent(ctx: ChainCtx) -> int:
    """The s with ctx.e = p^s; InvalidSpec when e is not a power of p."""
    p, e, s = ctx.field.p, ctx.e, 0
    while e > 1:
        if e % p:
            raise InvalidSpec("chain length is not a power of p")
        e //= p
        s += 1
    return s


def count_ideals(ctx: ChainCtx) -> int:
    field = ctx.field
    return count_ideals_params(field.p, field.m, ctx.d, chain_exponent(ctx))


def count_ideals_sumform(ctx: ChainCtx) -> int:
    field = ctx.field
    return count_ideals_sumform_params(field.p, field.m, ctx.d, chain_exponent(ctx))


# -- whole-ring codes --------------------------------------------------------


@dataclass(frozen=True)
class CodeSpec:
    """One ideal spec per irreducible factor of x^n - lambda0."""

    fd: FactorData
    components: tuple[IdealSpec, ...]

    def __post_init__(self):
        if len(self.components) != self.fd.r:
            raise InvalidSpec(
                f"need {self.fd.r} components, got {len(self.components)}"
            )
        for j, spec in enumerate(self.components):
            validate_spec(spec, self.fd.chain(j))

    @classmethod
    def trusted(cls, fd: FactorData, components: tuple[IdealSpec, ...]):
        """A code from components the package itself built valid, such
        as enumerate_ideals and dual_component output: not validated."""
        code = object.__new__(cls)
        object.__setattr__(code, "fd", fd)
        object.__setattr__(code, "components", components)
        return code


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


def component_elements(spec: IdealSpec, ctx: ChainCtx):
    """All (xi, eta) pairs of one component ideal, without duplicates."""
    rows = generator_rows(spec, ctx)
    if not rows:
        yield Poly.zero(ctx.field), Poly.zero(ctx.field)
        return
    coeff_sets = [list(ctx.residue_set(0, ctx.e - depth)) for _, _, depth in rows]
    for coeffs in product(*coeff_sets):
        xi = Poly.zero(ctx.field)
        eta = Poly.zero(ctx.field)
        for c, (rx, re_, _) in zip(coeffs, rows):
            if not c.is_zero():
                xi = xi + ctx.mul(c, rx)
                eta = eta + ctx.mul(c, re_)
        yield xi, eta


def code_codewords(code: CodeSpec):
    """Materialize every codeword as an ambient pair (a0, a1).

    Refuses when the code has more than CODEWORD_BOUND words.
    """
    size = code_size(code)
    if size > CODEWORD_BOUND:
        raise TooLarge(f"code has {size} words, bound is {CODEWORD_BOUND}")
    fd = code.fd
    field = fd.params.field
    per_factor = []
    for j, spec in enumerate(code.components):
        ctx = fd.chain(j)
        eps = fd.idempotents[j]
        amb = []
        for xi, eta in component_elements(spec, ctx):
            amb.append((fd.mulmod(eps, xi), fd.mulmod(eps, eta)))
        per_factor.append(amb)
    out = []
    for parts in product(*per_factor):
        a0 = Poly.zero(field)
        a1 = Poly.zero(field)
        for c0, c1 in parts:
            a0 = a0 + c0
            a1 = a1 + c1
        out.append((a0, a1))
    return out
