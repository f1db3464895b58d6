"""Dual codes and the self-dual classification.

The dual of a lambda-constacyclic code is lambda^(-1)-constacyclic, so
it decomposes over the reciprocals of the f_j.  That ring is fixed by
the source ring: dual_factor_data sets its FactorData up through the
decomp memo, so while the memo keeps it every code of one FactorData
dualizes over the same object, and the dual of that dual is the source
again.  A ring holds no link to its dual, so the two form no cycle.

On spec level the whole construction is a parameter transport.  In
the family <f^(k+1) b + u f^k, f^(k+t)> of ideals.py the dual component
of (k, t) is

    (k, t) -> (e - k - t, t),

an involution that keeps t and so the b window; on the labels it reads
I <-> I, II(k) <-> IV(e-k), III(k) <-> III(e-k) and V -> V.  Writing
d_j = deg f_j and N = n*p^s, a b (t >= 1) maps through

    b_hat = -lambda * f_j(0) * x^(N - d_j) * b(x^(-1))

into that window.  The scalar is f_j(0) and not its inverse: the
printed dual generator is -lambda x^(N-d) rev(f_j) b(x^(-1)) + u with
rev(f_j) the plain coefficient reversal, and rev(f_j) = f_j(0) * fhat_j
once the modulus is normalized monic.  Tests pin this against kernel-computed duals.

As x^N = lambda^(-1) in the target ring, with D = d_j e and deg b < D
the image is a unit z_j = -lambda f_j(0) x^(N - d_j - (D - 1)), built
once per factor, times x^(D - 1) b(x^(-1)), b's coefficients reversed:
one product of length D, no polynomial of length N, then one reduction
mod fhat_j^e and one window cut (_transport_b, which reflects b when
n < 3 d_j).

A component's dual depends on that component alone, so the dual
command, whose input is often an enumerate stream that moves the last
factor fastest, keeps per factor the last component document and its
dual's text, and transports only what changed (cli._dual_text).  Along
a self-dual stream, enumerate_self_dual keeps each pair factor's last
spec and its partner, and transports only when that spec changes, so
the partner stays one object, whose text a writer reuses too.  The
library routes here keep nothing: dual_code transports every component.

For lambda = +-1 the reciprocal of f_j is the ring's own factor
f_tau(j), so dual_code_nu transports component j straight into chain
ring tau(j) of the source (_dual_at_tau) and builds no second ring.

A self-dual code picks any spec on one factor of each reciprocal pair
(its partner is forced) and a spec that is its own dual component on
each tau-fixed factor.  Only the (k, t) with 2k + t = e can be: I,
III(e/2) and V(k, e - 2k).  On their digit windows the transport is
F_q-linear, so the fixed b are the kernel of T - I, and the codes
stream from the kernel bases; no spec is scanned.  A factor's stream
starts with I and b = 0, which every window fixes, and solves its
kernels only when it moves past it.

Counting solves no kernel: each kernel's dimension has a closed form.
Let f = f_j be tau-fixed of degree d, K = F_q[x]/(f^e) and s the
involution x -> x^(-1) of K, which maps f to theta f with the unit
theta = f(0) x^(-d).  As x^N = lambda = lambda^(-1) in K, the transport
is S(b) = u s(b) with u = -f(0) x^(-d) = -theta; S keeps the f-adic
filtration, and S^2 = u s(u) = f(0)^2 = 1.  A window [lo, hi) is
f^lo K / f^hi K, of w = hi - lo = floor(t/2) digits, and on digit i S
reads c -> -theta^(i+1) s(c) mod f.  Its fixed space has F_q-dimension
delta(w):

- d even: s is the involution of F_(q^d) over F_(q^(d/2)), and
  c -> a s(c) with a s(a) = 1 fixes d/2 dimensions (Hilbert 90).  By
  the normal basis theorem that action has no first cohomology, so
  fixed points add up along the filtration in any characteristic:
  delta(w) = (d/2) w.
- d = 1, odd p: f = x - c with c = +-1 and theta = -1 mod f, so S is
  (-1)^i on digit i, and an involution's fixed points add up along the
  filtration in odd characteristic.  t is odd and lo = w, and [w, 2w)
  holds floor(w/2) even i: delta(w) = floor(w/2).
- d = 1, p = 2: f = y = x + 1, t is even and lo = w - 1.  With
  b = y^lo c, c in F_q[y]/(y^w), and s(y) = x^(-1) y, T(y^lo c) =
  y^lo x^(-w) s(c), so S = x^(-w) s is an involution of F_q[y]/(y^w)
  and N = S - 1 has N^2 = 0.  N(y^a) = (w + a) y^(a+1) + ..., so the
  image of N has a leading y^v for each v = w mod 2 in [1, w - 1]:
  rank N >= ceil(w/2) - 1.  The kernel holds floor(w/2) + 1 elements
  of distinct valuations: for even w, x^(-w/2) times the s-invariants
  (x + x^(-1))^i = (y^2/x)^i, i < w/2, and y^(w-1); for odd w,
  x^(-(w+1)/2) y times the s-invariants of F_q[y]/(y^(w-1)), found the
  same way.  As rank N + dim ker N = w, both bounds are tight:
  delta(w) = floor(w/2) + 1.

So a tau-fixed factor has [e even] + sum over t = e - 2k >= 1 of
q^delta(floor(t/2)) self-dual specs, and count_self_dual_params takes
the ring's count from the degrees of the tau-fixed factors and of the
pairs, which the cyclotomic cosets give (decomp.tau_degrees): it builds
no factor, chain ring or kernel.  _fixed_windows checks each kernel it
solves against m delta(w), its F_p-dimension.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import islice

from .chain import ChainCtx, odometer
from .decomp import AmbientParams, DerivedFactors, FactorData, factor_data, tau_degrees
from .errors import NotSelfPairedLambda
from .ideals import (
    CodeSpec,
    IdealSpec,
    CASES,
    b_window,
    count_codes_by_degree,
    enumerate_ideals,
    from_kt,
    spec_product,
    to_kt,
)
from .linalg import kernel, pack, unpack
from .poly import Poly, reciprocal


def dual_factor_data(fd: FactorData) -> FactorData:
    """Factor data of the lambda^(-1) ring, factor j = recip of f_j.

    Set up through the decomp memo, so while it keeps the ring every call
    returns the same object, and the dual of that dual is fd's entry.
    Keeping source order means component j of a dual code always sits
    over the reciprocal of the factor it came from; note this order is
    generally not the one build_factor_data would pick.
    """
    recips = DerivedFactors(reciprocal(f).monic() for f in fd.factors)
    return factor_data(fd.params.dual_params(), recips)


def _reflect(a: Poly, shift: int, params: AmbientParams) -> Poly:
    """x^shift * a(x^(-1)) with degree < N, in the ring where x^N = lambda^(-1).

    For deg a <= shift < N that is a's coefficients reversed, starting
    at x^(shift - deg a); otherwise x^(qN + r) = lambda^(-q) x^r places
    each term.
    """
    field, N = params.field, params.N
    cs = a.coeffs
    if len(cs) - 1 <= shift < N:
        return Poly(field, (0,) * (shift + 1 - len(cs)) + cs[::-1])
    out = [0] * N
    for i, c in enumerate(cs):
        if c:
            q, r = divmod(shift - i, N)
            out[r] = field.add(out[r], field.mul(c, field.pow(params.lam, -q)))
    return Poly(field, out)


# _transport_b's unit route took 0.11 to 0.95 of the reflection's time on
# all 53 of 68 timed factor shapes (d_j = 1 to 23, e = 2 to 1681) with
# n >= 3 d_j, and up to 1.28 times it on 8 of the 10 with 2 d_j <= n < 3 d_j
_UNIT_CUTOFF = 3


def _transport_b(b: Poly, j: int, fd: FactorData, target: ChainCtx) -> Poly:
    """-lambda f_j(0) x^(N - d_j) b(x^(-1)) in the target, with one reduction.

    For D = d_j e > deg b and n >= 3 d_j: the unit z_j = -lambda f_j(0)
    x^(N - d_j - (D - 1)) mod fhat_j^e (one division, kept in fd._units)
    times b's coefficients reversed to length D.  Otherwise _reflect
    builds x^(N - d_j) b(x^(-1)) of degree < N, placing the terms of a
    parsed b of degree >= D by x^N = lambda^(-1); as f_j(x^(-1))^e is a
    unit times fhat_j^e, b need only reduce into its window mod f_j^e.
    """
    params, d = fd.params, fd.factors[j].degree
    field, size, shift = params.field, d * params.e, params.N - d
    scal = field.neg(field.mul(params.lam, fd.factors[j](0)))
    if b.degree >= size or params.n < _UNIT_CUTOFF * d:
        return target.reduce(_reflect(b, shift, params).scale(scal))
    if fd._units[j] is None:
        fd._units[j] = Poly.monomial(field, shift - size + 1, scal) % target.modulus
    return target.reduce(fd._units[j] * Poly(field, (0,) * (size - len(b.coeffs)) + b.coeffs[::-1]))


def dual_component(spec: IdealSpec, j: int, fd: FactorData, target: ChainCtx) -> IdealSpec:
    """The ideal spec of the dual code's component over recip(f_j):
    (k, t) -> (e - k - t, t), b transported into the same window."""
    e = fd.params.e
    k, t = to_kt(spec, e)
    if t == 0:
        return from_kt(e - k, 0, e)
    raw = _transport_b(spec.b, j, fd, target)
    # the transport preserves divisibility by each f^k, so raw never
    # has digits below the window; window_reduce checks that as a side effect
    return from_kt(e - k - t, t, e, target.window_reduce(raw, *b_window(spec, e)))


def dual_code(code: CodeSpec) -> CodeSpec:
    """Dual of a classified code, over the lambda^(-1) ambient ring
    whose factor data is dual_factor_data(code.fd)."""
    fd = code.fd
    dfd = dual_factor_data(fd)
    comps = tuple(dual_component(spec, j, fd, dfd.chain(j)) for j, spec in enumerate(code.components))
    return CodeSpec.trusted(dfd, comps)


def _dual_at_tau(spec: IdealSpec, j: int, fd: FactorData) -> IdealSpec:
    """For lambda^2 = 1, the dual component of spec at factor j, over
    recip(f_j) = f_tau(j) of fd itself."""
    return dual_component(spec, j, fd, fd.chain(fd.tau[j]))


def dual_code_nu(code: CodeSpec) -> CodeSpec:
    """Dual inside the same ambient ring; needs lambda^2 = 1.

    Component j's dual lies over f_tau(j), so it sits at tau(j); tau is
    an involution, so component i is the dual of component tau(i).
    """
    fd = code.fd
    if fd.tau is None:
        raise NotSelfPairedLambda("lambda^2 != 1, use dual_code")
    return CodeSpec.trusted(fd, tuple(_dual_at_tau(code.components[t], t, fd) for t in fd.tau))


def is_self_dual(code: CodeSpec) -> bool:
    """Whether the code equals its own dual (lambda = +-1 only)."""
    return dual_code_nu(code).components == code.components


def nu_value(field, nu: int) -> int:
    """The field element nu = +1 or -1."""
    if nu == 1:
        return 1
    if nu == -1:
        return field.neg(1)
    raise NotSelfPairedLambda(f"nu must be +1 or -1, got {nu}")


def _fixed_shapes(e: int):
    """The shapes that map to themselves, (k, e - 2k) for 0 <= k <= e/2,
    in enumerate_ideals order: I, III(e/2) for even e, V(k, e - 2k) by k."""
    shapes = [from_kt(k, e - 2 * k, e) for k in range(e // 2 + 1)]
    return sorted(shapes, key=lambda shape: CASES.index(shape.case))


def _fixed_windows(j: int, fd: FactorData) -> list[tuple[IdealSpec, list[Poly] | None]]:
    """Each fixed shape of tau-fixed factor j with an F_p basis of the b
    its dual component maps to themselves, least significant pivot
    first (None for t = 0, which carries no b).

    On a window [lo, hi) the map T(b) = window_reduce(_transport_b(b),
    lo, hi) is F_p-linear, so the fixed b are ker(T - I).  The transport
    keeps f-valuations and window_reduce keeps digits below hi, so T's
    matrix is a diagonal block of the transport's matrix on the digit
    basis g^r x^i f^pos, which is built once for all windows.
    Coordinates follow residue_set order: digit position, then x^i,
    then the F_p coordinate of g^r.  Taken most significant first,
    reduced echelon form puts each kernel row's pivot at its most
    significant nonzero coordinate; then stepping through the pivot
    coefficients, most significant pivot slowest, lists the fixed b in
    residue_set order.
    """
    ctx = fd.chain(j)
    field = ctx.field
    p, m, d, e = field.p, field.m, ctx.d, ctx.e
    # g^r x^i f^pos sits at index m (d pos + i) + r; every window ends by e - 1
    basis = [
        Poly.monomial(field, i, p ** r) * ctx.f_pows[pos]
        for pos in range(e - 1)
        for i in range(d)
        for r in range(m)
    ]
    images = [_digit_coords(_transport_b(b, j, fd, ctx), ctx) for b in basis]
    out = []
    for shape in _fixed_shapes(e):
        if to_kt(shape, e)[1] == 0:
            out.append((shape, None))
            continue
        lo, hi = b_window(shape, e)
        window = range(m * d * hi - 1, m * d * lo - 1, -1)
        size = len(window)
        minus_id = [pack(p, size, [images[c][a] - (a == c) for c in window]) for a in window]
        rows = kernel(minus_id, size, p).rows
        assert len(rows) == m * _delta(p, d, hi - lo), "kernel dimension differs from the closed form"
        fixed = [
            sum((basis[c].scale(x) for c, x in zip(window, unpack(p, size, v)) if x), Poly.zero(field))
            for v in reversed(rows)
        ]
        out.append((shape, fixed))
    return out


def _digit_coords(z: Poly, ctx: ChainCtx) -> list[int]:
    """F_p coordinates of z's e digits, least significant first."""
    out: list[int] = []
    for digit in ctx.f_adic(z):
        for i in range(ctx.d):
            out += ctx.field.decode(digit[i])
    return out


def _span(basis: list[Poly], field):
    """Every F_p combination of basis, basis[0]'s coefficient moving fastest."""

    def place(high: Poly, c: int, i: int) -> Poly:
        return high if c == 0 else high + basis[i].scale(c)

    return odometer([partial(iter, range(field.p))] * len(basis), place, Poly.zero(field))


def _fixed_specs(windows, field):
    """The specs the windows' kernels give, in enumerate_ideals order."""
    for shape, basis in windows:
        if basis is None:
            yield shape
        else:
            for b in _span(basis, field):
                yield replace(shape, b=b)


def self_dual_component_options(j: int, fd: FactorData) -> list[IdealSpec]:
    """Specs over tau-fixed factor j that are their own dual component,
    in enumerate_ideals order.

    Built from the kernel of T - I on each fixed shape's window, with
    no scan of the other specs; oracle.brute_self_dual_options is the
    filter over all specs that checks it.
    """
    return list(_fixed_specs(_fixed_windows(j, fd), fd.params.field))


def _check_nu(params: AmbientParams, nu: int) -> None:
    """NotSelfPairedLambda unless the ring's lambda is nu = +-1."""
    if not params.lam_self_paired():
        raise NotSelfPairedLambda("lambda^2 != 1")
    if params.lam != nu_value(params.field, nu):
        raise NotSelfPairedLambda(f"the ring has lambda = {params.lam}, not nu = {nu}")


def _delta(p: int, d: int, w: int) -> int:
    """F_q-dimension of the fixed b on a window of w digits of a
    tau-fixed factor of degree d (see the module docstring)."""
    if d == 1:
        return w // 2 + (p == 2)
    return d // 2 * w


def _fixed_count(p: int, m: int, d: int, s: int) -> int:
    """Specs on a tau-fixed factor of degree d that are their own dual
    component: [e even] for III(e/2), and q^delta(floor(t/2)) on the
    window of each (k, t = e - 2k) with t >= 1."""
    e, q = p**s, p**m
    return (e % 2 == 0) + sum(q ** _delta(p, d, t // 2) for t in range(e, 0, -2))


def count_self_dual_params(params: AmbientParams, nu: int) -> int:
    """Number of self-dual codes of the ring, lambda = nu = +-1: the
    closed form on each tau-fixed factor times the ideals of one factor
    of each reciprocal pair, from the factor degrees alone."""
    _check_nu(params, nu)
    p, m, s = params.p, params.m, params.s
    fixed, pairs = tau_degrees(params)
    total = 1
    for d, mult in Counter(fixed).items():
        total *= _fixed_count(p, m, d, s) ** mult
    return total * count_codes_by_degree(params, pairs)


def count_self_dual(fd: FactorData, nu: int) -> int:
    """count_self_dual_params of fd's ring; fd must be built for lambda = nu."""
    return count_self_dual_params(fd.params, nu)


def _fixed_stream(j: int, fd: FactorData):
    """self_dual_component_options of tau-fixed factor j, as a stream:
    I with b = 0 comes first and solves no kernel; the windows are
    built when the stream moves past it, and kept on fd."""
    field, e = fd.params.field, fd.params.e
    yield from_kt(0, e, e, Poly.zero(field))
    if fd._fixed[j] is None:
        fd._fixed[j] = _fixed_windows(j, fd)
    yield from islice(_fixed_specs(fd._fixed[j], field), 1, None)


def enumerate_self_dual(fd: FactorData, nu: int):
    """All self-dual codes: free choices on one factor of each
    reciprocal pair (the partner is forced), kernel-spanned fixed
    points on the tau-fixed factors.

    Every factor streams, so the first code costs one spec per factor,
    and a tau-fixed factor's kernels are solved only once its stream
    moves past I with b = 0.  Each pair factor's partner is transported
    again only when that factor's spec object changes, and is the same
    object until then.
    """
    _check_nu(fd.params, nu)
    rho = fd.rho
    pairs = range(rho, rho + fd.pair_count)
    streams = [partial(_fixed_stream, j, fd) for j in range(rho)]
    streams += [partial(enumerate_ideals, fd.chain(a)) for a in pairs]
    kept: list = [None] * fd.r  # per pair factor: its last spec and that spec's partner
    for choice in spec_product(streams):
        comps: list[IdealSpec | None] = list(choice) + [None] * (fd.r - len(choice))
        for a in pairs:
            if kept[a] is None or kept[a][0] is not choice[a]:
                kept[a] = (choice[a], _dual_at_tau(choice[a], a, fd))
            comps[fd.tau[a]] = kept[a][1]
        yield CodeSpec.trusted(fd, tuple(comps))
