"""Brute-force cross-checks for every closed-form result in the package.

Everything here re-derives structure from first principles with linear
algebra over F_p, so a bug in the classification formulas cannot hide:

* submodules of K^2 are found by spanning normalized generator pairs
  and deduplicating reduced-echelon bases; the total is compared with
  an independent counting formula, which certifies that two generators
  always suffice.  The spans of one generator v with each of its
  partners are nested, so k_span([v]) is built once and extended in
  place, partner by partner;
* the ideal classification is checked against the submodules that are
  closed under the shift (A, B) -> (0, A), which is what multiplication
  by u looks like on the xi + u*eta coordinates; the ambient ideals
  assembled from them are checked to hold every singly generated
  ideal, spanning each vector that is not a unit multiple of one
  already spanned (a unit multiple generates the same ideal, a mere
  member of the span may not);
* duals are computed as literal kernels of the inner-product pairing
  (a full scan of the ambient space at toy sizes agrees by a test);
* the self-dual components of a tau-fixed factor are found by running
  every spec through the dual transport, with no elimination, which
  checks the kernel route of the dual module.

Spaces are canonicalized as reduced row echelon bases over F_p, so two
spaces are equal iff their keys are equal, with no element sets needed.
In K^2 and in the ambient ring alike, pairs get packed F_p coordinates
(see linalg) from one map and are closed under x and F_q by one
routine, given the ring's monic modulus.  Each pair is packed once;
then x and g = field.gen() act on the packed row itself, each as one
shift of the whole int and one fold of what overflows (the top block
of each half through the modulus, the top coordinate of each block
through the field modulus), with one reduction mod p for odd p.  The
routine inserts the rows x^i g^l (A, B) into the span one at a time
and stops a pair's chain at the first i whose x^i (A, B) is already in
the span: the span is then closed under x and F_q, so the rest of the
chain adds nothing (a Krylov closure).  The size limit ORACLE_BUDGET is
a module constant.
"""

from __future__ import annotations

import functools
from itertools import chain, product
from operator import lshift

from .chain import ChainCtx
from .decomp import AmbientParams, FactorData, build_factor_data
from .dual import (
    dual_code_nu,
    dual_component,
    enumerate_self_dual,
    is_self_dual,
    nu_value,
    self_dual_component_options,
)
from .errors import TooLarge
from .gf import FieldCtx, field_new
from .ideals import (
    CodeSpec,
    IdealSpec,
    code_size,
    count_codes,
    count_ideals,
    count_ideals_params,
    count_ideals_sumform_params,
    enumerate_codes,
    enumerate_ideals,
    generator_rows,
    ideal_size,
)
from .linalg import FpSpace, _mod, kernel, slot_bits, unpack
from .poly import Poly, is_irreducible

# past this size a brute-force route raises TooLarge (see each check)
ORACLE_BUDGET = 1 << 24


# -- coordinates for K^2 pairs -----------------------------------------------


@functools.cache
def _field_tables(field: FieldCtx, bits: int):
    """(spread, gather, funcs) in slots of the given width: spread[b]
    holds the m F_p coordinates of b, gather inverts spread, and
    funcs[l][b] holds r -> coordinate l of g^r * b, each in m slots."""
    m, g = field.m, field.gen()
    coords = [field.decode(b) for b in field.elements()]
    spread = [sum(map(lshift, c, range(0, bits * m, bits))) for c in coords]
    gather = {v: b for b, v in enumerate(spread)}
    g_pows = [field.pow(g, r) for r in range(m)]
    images = [[field.mul(x, b) for x in g_pows] for b in field.elements()]
    funcs = [[sum(coords[c][l] << bits * r for r, c in enumerate(im)) for im in images] for l in range(m)]
    return spread, gather, funcs


def _pair_vec(field: FieldCtx, slots: int, A: Poly, B: Poly) -> int:
    """Packed F_p coordinates of the pair (A, B), slots coefficients per
    polynomial."""
    step = slot_bits(field.p, 2 * field.m * slots) * field.m
    spread = _field_tables(field, step // field.m)[0]
    at = range(0, 2 * step * slots, step)
    a = sum(map(lshift, map(spread.__getitem__, A.coeffs), at[:slots]))
    return a + sum(map(lshift, map(spread.__getitem__, B.coeffs), at[slots:]))


@functools.cache
def _packed_steps(modulus: Poly):
    """(x_step, g_step): multiplication by x and by g = field.gen() on
    packed pairs mod the monic modulus, each one shift and fold of the
    whole int.

    x shifts every coefficient block up by one and folds the top block
    of each half back in: its coordinate l times the packed -g^l * (the
    modulus's low coefficients), for both halves in one product.  g
    shifts every coordinate up by one inside its block and folds each
    block's top coordinate in through the field modulus, for all blocks
    in one product.  No slot passes the width slot_bits leaves for an
    elimination, so for odd p one _mod reduces the result.
    """
    field, slots = modulus.ctx, modulus.degree
    p, m = field.p, field.m
    dim = 2 * m * slots
    bits = slot_bits(p, dim)
    step, half = bits * m, bits * m * slots
    spread = _field_tables(field, bits)[0]
    slot, full = (1 << bits) - 1, (1 << 2 * half) - 1
    top_block = ((1 << step) - 1) << step * (slots - 1)
    low = modulus.coeffs[:-1]
    x_terms = []
    for l in range(m):
        gl = field.pow(field.gen(), l)
        fold = sum(spread[field.mul(gl, field.neg(r))] << step * i for i, r in enumerate(low))
        # coordinate l of the top block, one slot from each half
        x_terms.append((step * (slots - 1) + bits * l, slot | slot << half, fold))
    x_step = _shift_fold(p, dim, full ^ (top_block | top_block << half), step, x_terms)
    if m == 1:  # g = 1
        return x_step, None
    firsts = sum(slot << step * i for i in range(2 * slots))  # coordinate 0 of every block
    g_fold = sum((-c % p) << bits * k for k, c in enumerate(field.modulus[:-1]))
    g_term = (bits * (m - 1), firsts, g_fold)
    return x_step, _shift_fold(p, dim, full ^ firsts << bits * (m - 1), bits, [g_term])


def _shift_fold(p: int, dim: int, keep: int, shift: int, terms):
    """vec -> (vec & keep) << shift plus (vec >> at & pick) * fold for
    each term, reduced mod p."""
    if p == 2:

        def shift_fold(vec: int) -> int:
            out = (vec & keep) << shift
            for at, pick, fold in terms:
                out ^= (vec >> at & pick) * fold
            return out

    else:

        def shift_fold(vec: int) -> int:
            out = (vec & keep) << shift
            for at, pick, fold in terms:
                out += (vec >> at & pick) * fold
            return _mod(out, p, dim)

    return shift_fold


def _closure(modulus: Poly, pairs, space: FpSpace | None = None) -> FpSpace:
    """The F_p-span of x^i g^l (A, B) for every pair, i >= 0, l < m, in
    the ring mod the monic modulus: the closure of the pairs under F_q
    (g generates it; g = 1 when m = 1) and under x.  Given a space
    already closed under both, it grows that space in place.

    Each pair is packed once; x and g then act on the packed row (see
    _packed_steps).  The rows go into the span one at a time, and a
    pair's chain stops at the first i with x^i (A, B) in the span.  The
    span is then closed under x and F_q: earlier pairs' chains are, and
    x maps the span of the x^j g^l (A, B), j < i, into that span plus
    F_q x^i (A, B).  So the rest of the chain adds nothing.
    """
    field, slots = modulus.ctx, modulus.degree
    if space is None:
        space = FpSpace(field.p, 2 * field.m * slots)
    x_step, g_step = _packed_steps(modulus)
    for A, B in pairs:
        vec = _pair_vec(field, slots, A, B)
        while space.insert(vec):
            scaled = vec
            for _ in range(1, field.m):
                scaled = g_step(scaled)
                space.insert(scaled)
            vec = x_step(vec)
    return space


def pair_dim(ctx: ChainCtx) -> int:
    return 2 * ctx.field.m * ctx.d * ctx.e


def k_span(ctx: ChainCtx, pairs) -> FpSpace:
    """F_p-row space of all K-multiples of the given (A, B) pairs.

    K is spanned over F_p by x^i g^l, so closing under those two actions
    is exactly closing under multiplication by K.
    """
    return _closure(ctx.modulus, [(ctx.reduce(A), ctx.reduce(B)) for A, B in pairs])


def spec_span(spec: IdealSpec, ctx: ChainCtx) -> FpSpace:
    """The submodule of K^2 a classified spec describes, as an FpSpace."""
    return k_span(ctx, [(A, B) for A, B, _ in generator_rows(spec, ctx)])


# -- submodule enumeration ----------------------------------------------------


def submodule_count_formula(ctx: ChainCtx) -> int:
    """Number of K-submodules of K^2 (classical counting formula)."""
    q = ctx.residue_size
    return sum((2 * j + 1) * q ** (ctx.e - j) for j in range(ctx.e + 1))


def brute_submodules(ctx: ChainCtx) -> list[FpSpace]:
    """Every K-submodule of K^2, by spanning normalized generator pairs.

    Any submodule is spanned by two elements; scaling a generator by a
    unit and subtracting a multiple of one generator from the other do
    not change the span, which cuts the pairs down to
        (f^k * c, f^k) with (f^l, 0)   and   (f^k, f^k * c) with (0, f^l),
    c divisible by f in the second family.  Completeness is certified
    by comparing the total against submodule_count_formula (tested), and
    against the literal all-pairs scan at toy sizes.

    The spans of v with (f^l, 0) (or (0, f^l)), and with 0 for l = e,
    are nested, growing as l falls.  So k_span([v]) is built once per v
    and extended in place by f^l for l = e - 1, ..., 0, with a copy of
    the space kept after each step.
    """
    if ctx.size ** 2 > ORACLE_BUDGET:
        raise TooLarge(f"|K|^2 = {ctx.size ** 2} over budget {ORACLE_BUDGET}")
    e, p, dim = ctx.e, ctx.field.p, pair_dim(ctx)
    zero = Poly.zero(ctx.field)
    nothing = FpSpace(p, dim)
    found: dict = {nothing.key(): nothing}

    def record(v, side: int) -> None:
        """Record the spans of v with w = f^l in side 0 or 1 of the pair,
        for l = 0, ..., e (w = 0 at l = e)."""
        span = k_span(ctx, [v])
        steps = [FpSpace(p, dim, span.rows, span.pivots)]
        for l in range(e - 1, -1, -1):  # f^l, l < e, is reduced mod f^e
            w = (ctx.f_pows[l], zero) if side == 0 else (zero, ctx.f_pows[l])
            _closure(ctx.modulus, [w], span)
            steps.append(FpSpace(p, dim, span.rows, span.pivots))
        for space in reversed(steps):  # l = 0, ..., e
            found.setdefault(space.key(), space)

    for k in range(e):
        fk = ctx.f_pows[k]
        for c in ctx.residue_set(0, e - k):
            record((ctx.mul(fk, c), fk), 0)
        for c in ctx.residue_set(1, e - k) if e - k >= 1 else ():
            record((fk, ctx.mul(fk, c)), 1)
    return list(found.values())


def u_shift_closed(space: FpSpace, ctx: ChainCtx) -> bool:
    """Closure under (A, B) -> (0, A), i.e. under multiplication by u."""
    shift = slot_bits(space.p, space.dim) * (space.dim // 2)
    low = (1 << shift) - 1
    return all(space.contains((row & low) << shift) for row in space.rows)


def brute_u_closed_submodules(ctx: ChainCtx) -> list[FpSpace]:
    return [s for s in brute_submodules(ctx) if u_shift_closed(s, ctx)]


def generator_matrix_spans(ctx: ChainCtx) -> list[FpSpace]:
    """Spans of the nine canonical generator-matrix shapes.

    This is the classical normal-form list for length-2 codes over a
    chain ring; each shape is spanned and deduplicated so the result can
    be compared against brute_submodules as sets of spaces.
    """
    e = ctx.e
    zero = Poly.zero(ctx.field)
    one = Poly.one(ctx.field)
    fp = ctx.f_pows
    found: dict = {}

    def record(*pairs) -> None:
        s = k_span(ctx, pairs)
        found.setdefault(s.key(), s)

    for a in ctx.residue_set(0, e):  # (1, a)
        record((one, a))
    for k in range(1, e):  # f^k * (1, a)
        for a in ctx.residue_set(0, e - k):
            record((fp[k], ctx.mul(fp[k], a)))
    for b in ctx.residue_set(0, e - 1):  # (f b, 1)
        record((ctx.mul(ctx.f, b), one))
    for k in range(1, e):  # (f^(k+1) b, f^k)
        for b in ctx.residue_set(0, e - k - 1):
            record((ctx.mul(fp[k + 1], b), fp[k]))
    for k in range(e + 1):  # diagonal
        record((fp[k] if k < e else zero, zero), (zero, fp[k] if k < e else zero))
    for t in range(1, e):  # rows (1, c), (0, f^t)
        for c in ctx.residue_set(0, t):
            record((one, c), (zero, fp[t]))
    for k in range(1, e - 1):  # rows f^k (1, c), (0, f^(k+t))
        for t in range(1, e - k):
            for c in ctx.residue_set(0, t):
                record((fp[k], ctx.mul(fp[k], c)), (zero, fp[k + t]))
    for t in range(1, e):  # rows (c, 1), (f^t, 0), val(c) >= 1
        for c in ctx.residue_set(1, t):
            record((c, one), (fp[t], zero))
    for k in range(1, e - 1):  # rows (f^k c, f^k), (f^(k+t), 0)
        for t in range(1, e - k):
            for c in ctx.residue_set(1, t):
                record((ctx.mul(fp[k], c), fp[k]), (fp[k + t], zero))
    return list(found.values())


# -- ambient ring -------------------------------------------------------------


def ambient_dim(params: AmbientParams) -> int:
    return 2 * params.m * params.N


def ambient_coords(params: AmbientParams, a0: Poly, a1: Poly) -> int:
    return _pair_vec(params.field, params.N, a0, a1)


def coords_ambient(params: AmbientParams, vec: int) -> tuple[Poly, Poly]:
    return _coords_pair(params.field, vec, params.N)


def _coords_pair(field: FieldCtx, vec: int, slots: int) -> tuple[Poly, Poly]:
    """The pair (A, B) whose packed coordinates, slots per polynomial, are vec."""
    cs = _pair_coeffs(field, vec, slots)
    return Poly(field, cs[:slots]), Poly(field, cs[slots:])


def _pair_coeffs(field: FieldCtx, vec: int, slots: int) -> list[int]:
    """The 2 * slots coefficients of A then B, read off the packed pair."""
    step = slot_bits(field.p, 2 * field.m * slots) * field.m
    gather = _field_tables(field, step // field.m)[1]
    return [gather[vec >> at & (1 << step) - 1] for at in range(0, 2 * step * slots, step)]


def ideal_span(fd: FactorData, gens) -> FpSpace:
    """F_p-span of the ideal generated by ambient pairs (a0, a1).

    Closes under multiplication by x, by the field generator and by u.
    """
    zero = Poly.zero(fd.params.field)
    return _closure(fd.binomial, [pair for a0, a1 in gens for pair in ((a0, a1), (zero, a0))])


def code_space(code: CodeSpec) -> FpSpace:
    """The F_p-span of a classified code in ambient coordinates."""
    fd = code.fd
    pairs = [
        (fd.mulmod(eps, A), fd.mulmod(eps, B))
        for j, (spec, eps) in enumerate(zip(code.components, fd.idempotents))
        for A, B, _ in generator_rows(spec, fd.chain(j))
    ]
    return _closure(fd.binomial, pairs)


def brute_ambient_ideals(fd: FactorData):
    """All ideals of the ambient ring, assembled factor by factor.

    Takes the u-closed submodules of each K_j^2, maps them through the
    idempotents, and sums the pieces.  Verifies on the way that every
    singly generated ideal of the ambient ring shows up, so nothing is
    missed; callers compare the total against the counting formula.
    """
    params = fd.params
    if params.ring_size() > ORACLE_BUDGET:
        raise TooLarge(f"|R|^N = {params.ring_size()} over budget {ORACLE_BUDGET}")
    field = params.field

    def lifted(j: int, space: FpSpace) -> list[int]:
        ctx, eps = fd.chain(j), fd.idempotents[j]
        pairs = (_coords_pair(field, row, ctx.d * ctx.e) for row in space.rows)
        return [ambient_coords(params, fd.mulmod(eps, A), fd.mulmod(eps, B)) for A, B in pairs]

    per_factor = [[lifted(j, s) for s in brute_u_closed_submodules(fd.chain(j))] for j in range(fd.r)]

    ideals: dict = {}
    for choice in product(*per_factor):
        space = FpSpace.from_rows(field.p, ambient_dim(params), chain.from_iterable(choice))
        ideals.setdefault(space.key(), space)

    _check_singly_generated_covered(fd, ideals)
    return list(ideals.values())


def _check_singly_generated_covered(fd: FactorData, ideals: dict) -> None:
    """Every <one element> ideal must be among the assembled ones.

    Each vector v gets its own span unless it is covered: a unit
    multiple x^i c v + t u v (c in F_q^*, t in F_q[x]/(x^N - lambda)) of
    an earlier vector, which generates the same ideal.  A mere member
    of an earlier span may generate a smaller ideal, so it is spanned.
    """
    params = fd.params
    field, N = params.field, params.N
    p, dim = field.p, ambient_dim(params)
    bits = slot_bits(p, dim)
    x_step = _packed_steps(fd.binomial)[0]
    zero = Poly.zero(field)
    # every vector, coordinate 0 moving fastest
    whole = FpSpace(p, dim, [1 << bits * i for i in range(dim)], range(dim))
    covered: set = set()
    for vec in whole.elements():
        if vec in covered:
            continue
        a0, a1 = coords_ambient(params, vec)
        span = ideal_span(fd, [(a0, a1)])
        if span.key() not in ideals:
            gen = unpack(p, dim, vec)
            raise AssertionError(f"singly generated ideal missed by the assembly: gen={gen}")
        # t u v = (0, t a0) runs over the F_p-span of the x^i g^l (0, a0)
        by_u = _closure(fd.binomial, [(zero, a0)]).elements()
        scaled = [ambient_coords(params, a0.scale(c), a1.scale(c)) for c in range(1, field.q)]
        for _ in range(N):
            for w in scaled:
                coset = [w ^ t for t in by_u] if p == 2 else [_mod(w + t, p, dim) for t in by_u]
                covered.update(coset)
            scaled = list(map(x_step, scaled))


# -- duals ---------------------------------------------------------------------


def brute_dual(space: FpSpace, params: AmbientParams) -> FpSpace:
    """All ambient vectors orthogonal to a code, as a kernel.

    The form is [a, b] = sum_i a_i b_i in R; writing it out on the
    (a0, a1) coordinate blocks gives, per basis codeword b, the 2m
    F_p-linear conditions coords([a,b]_0) = coords([a,b]_1) = 0.  On the
    block of a_i the l-th coordinate of a_i * b_i is r -> coordinate l
    of g^r * b_i, a row of the field's table.  The answer is exactly the
    set a full scan would return (a test runs that scan at toy sizes).
    """
    field = params.field
    p, m, N = field.p, field.m, params.N
    dim = ambient_dim(params)
    step = slot_bits(p, dim) * m
    at = range(0, step * N, step)
    mat = []
    for row in space.rows:
        cs = _pair_coeffs(field, row, N)
        b0, b1 = cs[:N], cs[N:]
        for func in _field_tables(field, step // m)[2]:
            # [a, b]_0 = sum_i a0_i * b0_i
            by_b0 = sum(map(lshift, map(func.__getitem__, b0), at))
            # [a, b]_1 = sum_i a0_i * b1_i + a1_i * b0_i
            by_b1 = sum(map(lshift, map(func.__getitem__, b1), at))
            mat += [by_b0, by_b1 + (by_b0 << step * N)]
    return kernel(mat, dim, p)


def brute_self_dual_options(j: int, fd: FactorData) -> list[IdealSpec]:
    """Specs over tau-fixed factor j that are their own dual component,
    by running every spec through dual_component; no elimination."""
    ctx = fd.chain(j)
    return [spec for spec in enumerate_ideals(ctx) if dual_component(spec, j, fd, ctx) == spec]


# -- verification suites -------------------------------------------------------


def _chain_check(p, m, d, s):
    field = field_new(p, m)
    # smallest monic irreducible of degree d, by coefficient order
    if d == 1:
        f = Poly(field, [1, 1])
    else:
        # constant term fastest
        cands = (Poly(field, tail[::-1] + (1,)) for tail in product(range(field.q), repeat=d))
        f = next(c for c in cands if is_irreducible(c))
    ctx = ChainCtx(f, p ** s)
    subs = brute_submodules(ctx)
    if len(subs) != submodule_count_formula(ctx):
        return False, f"submodule count {len(subs)} != formula"
    keys = {x.key() for x in subs}
    gm = generator_matrix_spans(ctx)
    if {x.key() for x in gm} != keys:
        return False, "generator-matrix spans differ from submodules"
    ucl = {x.key() for x in subs if u_shift_closed(x, ctx)}
    specs = list(enumerate_ideals(ctx))
    spans = {}
    for spec in specs:
        spans[spec_span(spec, ctx).key()] = spec
    if set(spans) != ucl or len(spans) != len(specs):
        return False, "classified ideals do not biject with u-closed submodules"
    if len(specs) != count_ideals(ctx):
        return False, "enumeration count != closed form"
    for key, spec in spans.items():
        if ideal_size(spec, ctx) != FpSpace(ctx.field.p, pair_dim(ctx), key).size:
            return False, f"size mismatch at {spec.label()}"
    return True, f"{len(subs)} submodules, {len(specs)} ideals"


def _dual_check(p, m, s, n, lam):
    params = AmbientParams.of_ints(p, m, s, n, lam)
    fd = build_factor_data(params)
    count = 0
    for code in enumerate_codes(fd):
        D = dual_code_nu(code)
        sp = code_space(code)
        if brute_dual(sp, params) != code_space(D):
            return False, f"kernel dual differs at {[c.label() for c in code.components]}"
        if code_size(code) * code_size(D) != params.ring_size():
            return False, "size product violated"
        if dual_code_nu(D).components != code.components:
            return False, "double dual moved a code"
        count += 1
    return True, f"{count} codes"


def _selfdual_check(p, m, s, n, nu):
    field = field_new(p, m)
    params = AmbientParams(field, s, n, nu_value(field, nu))
    fd = build_factor_data(params)
    fixed = set()
    for code in enumerate_codes(fd):
        sp = code_space(code)
        if brute_dual(sp, params) == sp:
            fixed.add(sp.key())
    emitted = list(enumerate_self_dual(fd, nu))
    keys = {code_space(c).key() for c in emitted}
    if keys != fixed:
        return False, f"{len(keys)} enumerated vs {len(fixed)} brute fixed points"
    if not all(is_self_dual(c) for c in emitted):
        return False, "an emitted code fails is_self_dual"
    return True, f"{len(emitted)} self-dual codes"


def _fixed_point_check(rings):
    """The kernel route to the self-dual components against the filter."""
    factors = 0
    for p, m, s, n, nu in rings:
        field = field_new(p, m)
        fd = build_factor_data(AmbientParams(field, s, n, nu_value(field, nu)))
        for j in range(fd.rho):
            if self_dual_component_options(j, fd) != brute_self_dual_options(j, fd):
                return False, f"kernel route differs from the filter at {(p, m, s, n, nu)}, factor {j}"
            factors += 1
    return True, f"kernel route == filter on {factors} tau-fixed factors"


def _ambient_check(p, m, s, n, lam):
    params = AmbientParams.of_ints(p, m, s, n, lam)
    fd = build_factor_data(params)
    ideals = brute_ambient_ideals(fd)
    want = count_codes(fd)
    if len(ideals) != want:
        return False, f"{len(ideals)} assembled != {want}"
    return True, f"{len(ideals)} ideals assembled and closed"


def _count_check():
    anchors = [
        ((5, 1, 1, 1), 121),
        ((5, 1, 2, 1), 2061),
        ((2, 1, 1, 1), 7),
        ((3, 1, 1, 1), 16),
        ((3, 1, 2, 1), 34),
    ]
    for (p, m, d, s), want in anchors:
        if count_ideals_params(p, m, d, s) != want:
            return False, f"N at {(p, m, d, s)} != {want}"
    for p in (2, 3, 5, 7):
        for m in (1, 2):
            for d in (1, 2, 3):
                for s in (1, 2):
                    if count_ideals_params(p, m, d, s) != count_ideals_sumform_params(p, m, d, s):
                        return False, f"closed form != sum form at {(p, m, d, s)}"
    return True, "closed form == sum form on grid; anchors exact"


QUICK_SUITE = [
    ("counting formulas", _count_check),
    ("chain 2,1,1,1", lambda: _chain_check(2, 1, 1, 1)),
    ("chain 2,1,2,1", lambda: _chain_check(2, 1, 2, 1)),
    ("chain 3,1,1,1", lambda: _chain_check(3, 1, 1, 1)),
    ("dual 3,1,1,1 nu=+1", lambda: _dual_check(3, 1, 1, 1, 1)),
    ("dual 3,1,1,1 nu=-1", lambda: _dual_check(3, 1, 1, 1, 2)),
    ("selfdual 3,1,1,2 nu=-1", lambda: _selfdual_check(3, 1, 1, 2, -1)),
    ("ambient 2,1,1,1", lambda: _ambient_check(2, 1, 1, 1, 1)),
]

FULL_SUITE = QUICK_SUITE + [
    ("chain 2,1,1,2", lambda: _chain_check(2, 1, 1, 2)),
    ("chain 3,1,2,1", lambda: _chain_check(3, 1, 2, 1)),
    ("chain 5,1,1,1", lambda: _chain_check(5, 1, 1, 1)),
    ("dual 3,1,1,2 nu=+1", lambda: _dual_check(3, 1, 1, 2, 1)),
    ("dual 3,1,1,2 nu=-1", lambda: _dual_check(3, 1, 1, 2, 2)),
    ("ambient 3,1,1,1", lambda: _ambient_check(3, 1, 1, 1, 1)),
    ("ambient 3,1,1,2 lam=-1", lambda: _ambient_check(3, 1, 1, 2, 2)),
    ("selfdual 2,2,1,3 nu=+1", lambda: _selfdual_check(2, 2, 1, 3, 1)),
    ("selfdual 3,2,1,2 nu=+1", lambda: _selfdual_check(3, 2, 1, 2, 1)),
    ("selfdual 2,3,1,3 nu=+1", lambda: _selfdual_check(2, 3, 1, 3, 1)),
    (
        "selfdual fixed points, kernel vs filter",
        lambda: _fixed_point_check(
            [(3, 2, 1, 8, 1), (2, 2, 1, 5, 1), (2, 3, 1, 7, 1), (5, 2, 1, 2, 1), (2, 2, 2, 3, 1)]
        ),
    ),
]


def verify_suite(level: str = "quick"):
    """Run the oracle suite; yields (name, passed, detail) rows."""
    suite = FULL_SUITE if level == "full" else QUICK_SUITE
    for name, fn in suite:
        try:
            ok, detail = fn()
        except Exception as ex:  # a crash is a failure, not an abort
            ok, detail = False, f"{ex.__class__.__name__}: {ex}"
        yield name, ok, detail
