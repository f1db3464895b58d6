"""Brute-force cross-checks for every closed-form result in the package.

Everything here re-derives structure from first principles with linear
algebra over F_p, so a bug in the classification formulas cannot hide:

* submodules of K^2 are found by spanning normalized generator pairs
  and deduplicating reduced-echelon bases; the total is compared with
  an independent counting formula, which certifies that two generators
  always suffice;
* the ideal classification is checked against the submodules that are
  closed under the shift (A, B) -> (0, A), which is what multiplication
  by u looks like on the xi + u*eta coordinates;
* duals are computed as literal kernels of the inner-product pairing
  (a full scan of the ambient space at toy sizes agrees by a test);
* the self-dual components of a tau-fixed factor are found by running
  every spec through the dual transport, with no elimination, which
  checks the kernel route of the dual module.

Spaces are canonicalized as reduced row echelon bases over F_p, so two
spaces are equal iff their keys are equal, with no element sets needed.
In K^2 and in the ambient ring alike, pairs get coordinates from one
map and are closed under x and F_q by one routine, given the ring's
x-step.  Size limits (ORACLE_BUDGET and the others) are module constants.
"""

from __future__ import annotations

import functools
from itertools import product

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
from .linalg import FpSpace, kernel
from .poly import Poly, is_irreducible

# past these sizes a brute-force route raises TooLarge (see each check)
ORACLE_BUDGET = 1 << 24
ALLPAIRS_BUDGET = 1 << 21
SCAN_BUDGET = 1 << 14


# -- coordinates for K^2 pairs -----------------------------------------------


@functools.cache
def _field_tables(field: FieldCtx):
    """(coords, rows): coords[b] is the coordinate tuple of b, and
    rows[l][b] is the tuple r -> coordinate l of g^r * b."""
    m, g = field.m, field.gen()
    coords = [field.decode(b) for b in field.elements()]
    rows = [[] for _ in range(m)]
    for b in field.elements():
        images = [b]
        for _ in range(m - 1):
            images.append(field.mul(g, images[-1]))
        for l in range(m):
            rows[l].append(tuple(coords[c][l] for c in images))
    return tuple(coords), tuple(map(tuple, rows))


def _pair_vec(field: FieldCtx, slots: int, A: Poly, B: Poly) -> tuple[int, ...]:
    """F_p coordinates of the pair (A, B), slots coefficients per polynomial."""
    coords = _field_tables(field)[0]
    pad = (0,) * slots
    return tuple([x for a in (A, B) for c in (a.coeffs + pad)[:slots] for x in coords[c]])


def _closure_rows(slots: int, shifts: int, x_step, pairs) -> list:
    """Coordinates of x^i g^l (A, B) for every pair, i < shifts, l < m:
    the closure of the pairs under F_q (g generates it; g = 1 when m = 1)
    and under x, which x_step applies to one polynomial in the ring at hand.
    """
    rows = []
    for A, B in pairs:
        field = A.ctx
        g = field.gen()
        for _ in range(shifts):
            s0, s1 = A, B
            for _l in range(field.m):
                rows.append(_pair_vec(field, slots, s0, s1))
                s0, s1 = s0.scale(g), s1.scale(g)
            A, B = x_step(A), x_step(B)
    return rows


def pair_coords(ctx: ChainCtx, A: Poly, B: Poly) -> tuple[int, ...]:
    return _pair_vec(ctx.field, ctx.d * ctx.e, ctx.reduce(A), ctx.reduce(B))


def pair_dim(ctx: ChainCtx) -> int:
    return 2 * ctx.field.m * ctx.d * ctx.e


def k_span(ctx: ChainCtx, pairs) -> FpSpace:
    """F_p-row space of all K-multiples of the given (A, B) pairs.

    K is spanned over F_p by x^i g^l, so closing under those two actions
    is exactly closing under multiplication by K.
    """
    field = ctx.field
    slots = ctx.d * ctx.e
    pairs = [(ctx.reduce(A), ctx.reduce(B)) for A, B in pairs]
    rows = _closure_rows(slots, slots, lambda a: ctx.reduce(Poly(field, (0,) + a.coeffs)), pairs)
    return FpSpace.from_rows(field.p, pair_dim(ctx), rows)


def spec_span(spec: IdealSpec, ctx: ChainCtx) -> FpSpace:
    """The submodule of K^2 a classified spec describes, as an FpSpace."""
    rows = [(A, B) for A, B, _ in generator_rows(spec, ctx)]
    return k_span(ctx, rows)


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
    c of valuation >= 1 in the second family.  Completeness is certified
    by comparing the total against submodule_count_formula (tested), and
    against the literal all-pairs scan at toy sizes.
    """
    if ctx.size ** 2 > ORACLE_BUDGET:
        raise TooLarge(f"|K|^2 = {ctx.size ** 2} over budget {ORACLE_BUDGET}")
    e = ctx.e
    zero = Poly.zero(ctx.field)
    found: dict = {}

    def record(space: FpSpace) -> None:
        found.setdefault(space.key(), space)

    record(FpSpace.from_rows(ctx.field.p, pair_dim(ctx), []))
    for k in range(e):
        fk = ctx.f_pows[k]
        for c in ctx.residue_set(0, e - k):
            v = (ctx.mul(fk, c), fk)
            for l in range(e + 1):
                w = (ctx.f_pows[l] if l < e else zero, zero)
                record(k_span(ctx, [v, w]))
        for c in ctx.residue_set(1, e - k) if e - k >= 1 else ():
            v = (fk, ctx.mul(fk, c))
            for l in range(e + 1):
                w = (zero, ctx.f_pows[l] if l < e else zero)
                record(k_span(ctx, [v, w]))
    return list(found.values())


def brute_submodules_allpairs(ctx: ChainCtx) -> set:
    """Literal spans of all ordered generator pairs; toy sizes only.

    Exists to validate the normalization in brute_submodules without
    assuming anything beyond closure under the ring action.
    """
    n2 = ctx.size ** 2
    if n2 * n2 > ALLPAIRS_BUDGET:
        raise TooLarge(f"|K^2|^2 = {n2 * n2} over budget {ALLPAIRS_BUDGET}")
    vecs = [
        (A, B)
        for A in ctx.residue_set(0, ctx.e)
        for B in ctx.residue_set(0, ctx.e)
    ]
    keys = set()
    singles = []
    for v in vecs:
        s = k_span(ctx, [v])
        singles.append(s)
        keys.add(s.key())
    for i, v in enumerate(vecs):
        base = singles[i]
        for w in vecs[i + 1 :]:
            if base.contains(pair_coords(ctx, *w)):
                continue
            keys.add(k_span(ctx, [v, w]).key())
    return keys


def u_shift_closed(space: FpSpace, ctx: ChainCtx) -> bool:
    """Closure under (A, B) -> (0, A), i.e. under multiplication by u."""
    half = space.dim // 2
    for row in space.rows:
        shifted = (0,) * half + row[:half]
        if not space.contains(shifted):
            return False
    return True


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


def ambient_coords(params: AmbientParams, a0: Poly, a1: Poly) -> tuple[int, ...]:
    return _pair_vec(params.field, params.N, a0, a1)


def coords_ambient(params: AmbientParams, vec) -> tuple[Poly, Poly]:
    return _coords_pair(params.field, vec, params.N)


def _coords_pair(field: FieldCtx, vec, slots: int) -> tuple[Poly, Poly]:
    """The pair (A, B) whose coordinates, slots per polynomial, are vec."""
    m, half = field.m, field.m * slots
    A = Poly(field, [field.encode(vec[m * i : m * (i + 1)]) for i in range(slots)])
    B = Poly(field, [field.encode(vec[half + m * i : half + m * (i + 1)]) for i in range(slots)])
    return A, B


def _x_shift(params: AmbientParams, a: Poly) -> Poly:
    """Multiply by x mod (x^N - lambda)."""
    field = params.field
    cs = a.coeffs
    if len(cs) < params.N:
        return Poly(field, (0,) + cs)
    top = cs[params.N - 1]
    out = [field.mul(params.lam, top)] + list(cs[: params.N - 1])
    return Poly(field, out)


def ideal_span(params: AmbientParams, gens) -> FpSpace:
    """F_p-span of the ideal generated by ambient pairs (a0, a1).

    Closes under multiplication by x, by the field generator and by u.
    """
    zero = Poly.zero(params.field)
    pairs = [pair for a0, a1 in gens for pair in ((a0, a1), (zero, a0))]
    rows = _closure_rows(params.N, params.N, functools.partial(_x_shift, params), pairs)
    return FpSpace.from_rows(params.p, ambient_dim(params), rows)


def code_space(code: CodeSpec) -> FpSpace:
    """The F_p-span of a classified code in ambient coordinates."""
    fd = code.fd
    params = fd.params
    x_step = functools.partial(_x_shift, params)
    rows = []
    for j, spec in enumerate(code.components):
        ctx = fd.chain(j)
        eps = fd.idempotents[j]
        pairs = [(fd.mulmod(eps, A), fd.mulmod(eps, B)) for A, B, _ in generator_rows(spec, ctx)]
        rows += _closure_rows(params.N, ctx.d * ctx.e, x_step, pairs)
    return FpSpace.from_rows(params.p, ambient_dim(params), rows)


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
    per_factor = []
    for j in range(fd.r):
        ctx = fd.chain(j)
        spaces = brute_u_closed_submodules(ctx)
        eps = fd.idempotents[j]
        mapped = []
        for s in spaces:
            rows = []
            for row in s.rows:
                A, B = _coords_pair(field, row, ctx.d * ctx.e)
                rows.append((fd.mulmod(eps, A), fd.mulmod(eps, B)))
            mapped.append(rows)
        per_factor.append(mapped)

    ideals: dict = {}
    for choice in product(*per_factor):
        rows = [ambient_coords(params, a0, a1) for pieces in choice for a0, a1 in pieces]
        space = FpSpace.from_rows(field.p, ambient_dim(params), rows)
        ideals.setdefault(space.key(), space)

    _check_singly_generated_covered(fd, ideals)
    return list(ideals.values())


def _check_singly_generated_covered(fd: FactorData, ideals: dict) -> None:
    """Every <one element> ideal must be among the assembled ones."""
    params = fd.params
    field = params.field
    dim = ambient_dim(params)
    if params.ring_size() > ORACLE_BUDGET:
        raise TooLarge("single-generator sweep over budget")
    covered: set = set()
    for digits in product(range(field.p), repeat=dim):
        key = digits[::-1]  # key[0] moves fastest
        if key in covered:
            continue
        a0, a1 = coords_ambient(params, key)
        span = ideal_span(params, [(a0, a1)])
        if span.key() not in ideals:
            raise AssertionError(
                f"singly generated ideal missed by the assembly: gen={key}"
            )
        for el in span.elements():
            covered.add(el)


# -- duals ---------------------------------------------------------------------


def brute_dual(space: FpSpace, params: AmbientParams) -> FpSpace:
    """All ambient vectors orthogonal to a code, as a kernel.

    The form is [a, b] = sum_i a_i b_i in R; writing it out on the
    (a0, a1) coordinate blocks gives, per basis codeword b, the 2m
    F_p-linear conditions coords([a,b]_0) = coords([a,b]_1) = 0.  On the
    block of a_i the l-th coordinate of a_i * b_i is r -> coordinate l
    of g^r * b_i, a row of the field's table.  The answer is exactly the
    set a full scan would return (the scan variant below is kept for
    toy-size cross-checks).
    """
    field = params.field
    m, N = field.m, params.N
    dim = ambient_dim(params)
    rows = _field_tables(field)[1]
    zeros = [0] * (m * N)
    mat = []
    for row in space.rows:
        # the field elements b0_i and b1_i of the codeword's two blocks
        b0, b1 = [0] * N, [0] * N
        for r in range(m):
            w = field.p ** r
            b0 = [b + c * w for b, c in zip(b0, row[r : m * N : m])]
            b1 = [b + c * w for b, c in zip(b1, row[m * N + r :: m])]
        for l in range(m):
            # [a, b]_0 = sum_i a0_i * b0_i
            by_b0 = [x for b in b0 for x in rows[l][b]]
            mat.append(by_b0 + zeros)
            # [a, b]_1 = sum_i a0_i * b1_i + a1_i * b0_i
            mat.append([x for b in b1 for x in rows[l][b]] + by_b0)
    return kernel(mat, dim, field.p)


def brute_dual_scan(space: FpSpace, params: AmbientParams) -> set:
    """Full-scan dual: every ambient vector tested against every codeword."""
    field = params.field
    if params.ring_size() > SCAN_BUDGET:
        raise TooLarge("scan over budget")
    dim = ambient_dim(params)
    p = field.p
    words = space.elements()
    out = set()
    for digits in product(range(p), repeat=dim):
        vec = digits[::-1]  # vec[0] moves fastest
        a0, a1 = coords_ambient(params, vec)
        if all(_pair_orthogonal(params, a0, a1, *coords_ambient(params, w)) for w in words):
            out.add(vec)
    return out


def brute_self_dual_options(j: int, fd: FactorData) -> list[IdealSpec]:
    """Specs over tau-fixed factor j that are their own dual component,
    by running every spec through dual_component; no elimination."""
    ctx = fd.chain(j)
    return [spec for spec in enumerate_ideals(ctx) if dual_component(spec, j, fd, ctx) == spec]


def _pair_orthogonal(params, a0, a1, b0, b1) -> bool:
    field = params.field
    z0 = 0
    z1 = 0
    for i in range(params.N):
        z0 = field.add(z0, field.mul(a0[i], b0[i]))
        z1 = field.add(z1, field.add(field.mul(a0[i], b1[i]), field.mul(a1[i], b0[i])))
    return z0 == 0 and z1 == 0


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
