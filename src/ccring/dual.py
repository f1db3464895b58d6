"""Dual codes and the self-dual classification.

The dual of a lambda-constacyclic code is lambda^(-1)-constacyclic, so
it decomposes over the reciprocals of the f_j.  That ring is fixed by
the source ring: dual_factor_data builds its FactorData on first use
and keeps it on the source's, so every code of one FactorData dualizes
over the same object, and the decomp memo makes the dual of that dual
the source again.

On spec level the whole construction is a parameter transport: writing
d_j = deg f_j and N = n*p^s, every case that carries a b maps through

    b_hat = -lambda * f_j(0) * x^(N - d_j) * b(x^(-1))

into the window of the image case, and the case data moves by

    I -> I,  II(k) -> IV(e-k),  III(k) -> III(e-k),
    IV(t) -> II(e-t),  V(k,t) -> V(e-k-t, t).

The scalar is f_j(0) and not its inverse: the printed dual generator is
-lambda x^(N-d) rev(f_j) b(x^(-1)) + u with rev(f_j) the plain
coefficient reversal, and rev(f_j) = f_j(0) * fhat_j once the modulus
is normalized monic.  Tests pin this against kernel-computed duals.

The transport is written down, not evaluated: a b reduced into its
window has deg b < d_j (e - 1) <= N - d_j, so x^(N - d_j) b(x^(-1))
is b's coefficient list reversed and shifted, and each component costs
one reduction mod fhat_j^e and one window cut.

For lambda = +-1 the reciprocal factors are a permutation tau of the
source factors and the dual lives in the same ambient ring with the
component built from position j landing at tau(j).

A self-dual code picks any spec on one factor of each reciprocal pair
(its partner is forced) and a spec that is its own dual component on
each tau-fixed factor.  Only case I, III(e/2) and V(k, e - 2k) can be;
on their digit windows the transport is F_p-linear, so the fixed b are
the kernel of T - I.  Counting takes p^dim of each kernel, and the
codes stream from the kernel bases; no spec is scanned.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from .chain import ChainCtx, odometer
from .decomp import AmbientParams, FactorData, factor_data
from .errors import NotSelfPairedLambda
from .ideals import (
    CodeSpec,
    IdealSpec,
    b_window,
    count_ideals,
    enumerate_ideals,
    spec_product,
)
from .linalg import kernel, pack, unpack
from .poly import Poly, reciprocal


def dual_factor_data(fd: FactorData) -> FactorData:
    """Factor data of the lambda^(-1) ring, factor j = recip of f_j.

    Built on the first call and kept on fd, so later calls return the
    same object.  Keeping source order means component j of a dual code
    always sits over the reciprocal of the factor it came from; note
    this order is generally not the one build_factor_data would pick.
    """
    if fd._dual is None:
        recips = [reciprocal(f).monic() for f in fd.factors]
        fd._dual = factor_data(fd.params.dual_params(), recips)
    return fd._dual


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


def _transport_b(b: Poly, j: int, fd: FactorData, target: ChainCtx) -> Poly:
    """-lambda f_j(0) x^(N - d_j) b(x^(-1)) in the target, with one reduction.

    A b reduced into its window has deg b < d_j (e - 1) <= N - d_j, so
    the polynomial before reduction is b reversed and shifted.  A parsed
    b need only reduce into its window mod f_j^e; then _reflect places
    its terms past N - d_j through x^N = lambda^(-1), and the image is
    the same, since f_j(x^(-1))^e is a unit times fhat_j^e.
    """
    params = fd.params
    field = params.field
    d = fd.factors[j].degree
    scal = field.neg(field.mul(params.lam, fd.factors[j](0)))
    return target.reduce(_reflect(b, params.N - d, params).scale(scal))


def dual_component(spec: IdealSpec, j: int, fd: FactorData, target: ChainCtx) -> IdealSpec:
    """The ideal spec of the dual code's component over recip(f_j)."""
    e = fd.params.e
    if spec.case == "III":
        return IdealSpec("III", k=e - spec.k)
    if spec.case == "I":
        shape = IdealSpec("I")
    elif spec.case == "II":
        shape = IdealSpec("IV", t=e - spec.k)
    elif spec.case == "IV":
        shape = IdealSpec("II", k=e - spec.t)
    else:
        shape = IdealSpec("V", k=e - spec.k - spec.t, t=spec.t)
    raw = _transport_b(spec.b, j, fd, target)
    lo, hi = b_window(shape, e)
    # the transport preserves divisibility by each f^k, so raw never
    # has digits below the window; window_reduce checks that as a side effect
    return replace(shape, b=target.window_reduce(raw, lo, hi))


def dual_code(code: CodeSpec) -> CodeSpec:
    """Dual of a classified code, over the lambda^(-1) ambient ring
    whose factor data is dual_factor_data(code.fd)."""
    fd = code.fd
    dfd = dual_factor_data(fd)
    comps = tuple(
        dual_component(spec, j, fd, dfd.chain(j))
        for j, spec in enumerate(code.components)
    )
    return CodeSpec.trusted(dfd, comps)


def dual_code_nu(code: CodeSpec) -> CodeSpec:
    """Dual inside the same ambient ring; needs lambda^2 = 1.

    The reciprocal of f_j is f_tau(j) here, so the component built from
    position j lands at position tau(j) of the same factor data.
    """
    fd = code.fd
    if fd.tau is None:
        raise NotSelfPairedLambda("lambda^2 != 1, use dual_code")
    comps: list[IdealSpec | None] = [None] * fd.r
    for j, spec in enumerate(code.components):
        tj = fd.tau[j]
        comps[tj] = dual_component(spec, j, fd, fd.chain(tj))
    return CodeSpec.trusted(fd, tuple(comps))


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
    """The shapes that map to themselves, in enumerate_ideals order.

    I -> I, III(k) -> III(e - k) and V(k, t) -> V(e - k - t, t): so case
    I, case III with 2k = e, and case V with t = e - 2k >= 1.  Every
    other shape lands in another case.
    """
    yield IdealSpec("I")
    if e % 2 == 0:
        yield IdealSpec("III", k=e // 2)
    for k in range(1, (e + 1) // 2):
        yield IdealSpec("V", k=k, t=e - 2 * k)


def _fixed_windows(j: int, fd: FactorData) -> list[tuple[IdealSpec, list[Poly] | None]]:
    """Each fixed shape of tau-fixed factor j with an F_p basis of the b
    its dual component maps to themselves, least significant pivot
    first (None for case III, which carries no b).

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
        if shape.case == "III":
            out.append((shape, None))
            continue
        lo, hi = b_window(shape, e)
        window = range(m * d * hi - 1, m * d * lo - 1, -1)
        size = len(window)
        minus_id = [pack(p, size, [images[c][a] - (a == c) for c in window]) for a in window]
        rows = kernel(minus_id, size, p).rows
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


def _fixed_factor_windows(fd: FactorData, nu: int):
    """_fixed_windows of each tau-fixed factor, once fd is known to be
    built for lambda = nu; built on the first call and kept on fd."""
    if fd.tau is None:
        raise NotSelfPairedLambda("lambda^2 != 1")
    if fd.params.lam != nu_value(fd.params.field, nu):
        raise NotSelfPairedLambda(
            f"factor data was built for lambda = {fd.params.lam}, not nu = {nu}"
        )
    if fd._fixed is None:
        fd._fixed = [_fixed_windows(j, fd) for j in range(fd.rho)]
    return fd._fixed


def count_self_dual(fd: FactorData, nu: int) -> int:
    """Number of self-dual codes: on each tau-fixed factor [e even] plus
    p^dim ker(T - I) per window, times the ideals of one factor of
    each reciprocal pair.  No spec is built."""
    p = fd.params.p
    total = 1
    for windows in _fixed_factor_windows(fd, nu):
        total *= sum(1 if basis is None else p ** len(basis) for _, basis in windows)
    for i in range(fd.pair_count):
        total *= count_ideals(fd.chain(fd.rho + i))
    return total


def enumerate_self_dual(fd: FactorData, nu: int):
    """All self-dual codes: free choices on one factor of each
    reciprocal pair (the partner is forced), kernel-spanned fixed
    points on the tau-fixed factors.

    Every factor streams, so the first code costs the kernels and one
    spec per factor.
    """
    rho, field = fd.rho, fd.params.field
    streams = [partial(_fixed_specs, w, field) for w in _fixed_factor_windows(fd, nu)]
    streams += [partial(enumerate_ideals, fd.chain(a)) for a in range(rho, rho + fd.pair_count)]
    for choice in spec_product(streams):
        comps: list[IdealSpec | None] = list(choice) + [None] * (fd.r - len(choice))
        for a in range(rho, rho + fd.pair_count):
            comps[fd.tau[a]] = dual_component(choice[a], a, fd, fd.chain(fd.tau[a]))
        yield CodeSpec.trusted(fd, tuple(comps))
