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
* a classified code's space is the sum of its components' spans, each
  carried into the ambient ring by multiplication by eps_j: an
  F_p-linear lift map per factor, a table of the images of K_j^2's
  basis built from eps_j by the ambient x and g steps, with no
  polynomial product.  The ring keeps its lift maps and each
  component's lifted rows, keyed by (j, spec), in memos that
  decomp.clear_memo empties, so a code whose components were met
  before costs rank insertions and nothing more;
* duals are computed as literal kernels of the inner-product pairing,
  whose rows come off each vector of any basis of the code, the
  echelon rows as kept: for odd p from the vector's g-steps, for p = 2
  by XOR from a table of the unit vectors' rows, one per byte (a full
  scan of the ambient space at toy sizes agrees by a test);
* the self-dual components of a tau-fixed factor are found by running
  every spec through the dual transport, with no elimination, which
  checks the kernel route of the dual module.

Spaces are canonicalized as reduced row echelon bases over F_p, so two
spaces are equal iff their keys are equal, with no element sets needed.
K^2 and the ambient ring share one packed pair layout (see linalg), a
_Layout per (field, slots), memoized so that decomp.clear_memo empties
it: the pair (A, B) is one int, block i (m slots) holding the F_p
coordinates of coefficient i of A, and B's blocks one half over.
Polynomials are packed once, where they enter the oracle; every route
then works on packed rows.  u is a shift by one half; x and
g = field.gen() are each one shift of the whole int and one fold of
what overflows (see _packed_steps), and a row's g-orbit is its m
g-steps.  _closure closes rows under x and F_q (a Krylov closure), and
the same steps build the lift maps, from x^i g^c eps_j, and the
pairing rows, from g^c b; the x steps of the ambient ring take its
modulus x^N - lambda from the memo _binomial.  The p = 2 pairing
tables are a memo per field and length too.  The size limit
ORACLE_BUDGET is a module constant.
"""

from __future__ import annotations

import functools
from itertools import chain, filterfalse, product
from operator import lshift, mul

from .chain import ChainCtx
from .decomp import AmbientParams, FactorData, build_factor_data, memoized
from .dual import (
    count_self_dual,
    dual_code_nu,
    dual_component,
    enumerate_self_dual,
    is_self_dual,
    nu_value,
    self_dual_component_options,
)
from .errors import TooLarge
from .gf import FieldCtx, _span_table, field_new
from .ideals import (
    CodeSpec,
    IdealSpec,
    code_size,
    count_codes,
    count_ideals_params,
    count_ideals_sumform_params,
    enumerate_codes,
    enumerate_ideals,
    generator_rows,
    ideal_size,
)
from .linalg import FpSpace, _byte_table, _mod, kernel, slot_bits, unpack
from .poly import Poly, is_irreducible

# past this size a brute-force route raises TooLarge (see each check)
ORACLE_BUDGET = 1 << 24


# -- the packed pair layout -------------------------------------------------


class _Layout:
    """Packed F_p rows of the pairs (A, B) in (F_q[x]/(modulus))^2, slots
    coefficients per polynomial (see the module docstring)."""

    def __init__(self, field: FieldCtx, slots: int):
        p, m = field.p, field.m
        self.field, self.slots, self.dim = field, slots, 2 * m * slots
        self.bits = bits = slot_bits(p, self.dim)
        self.step = bits * m
        self.half = self.step * slots
        self.low = (1 << self.half) - 1
        # coordinate 0 of every block, each slot all ones
        self.firsts = sum((1 << bits) - 1 << self.step * i for i in range(2 * slots))
        self.spread = [sum(map(lshift, field.decode(b), range(0, self.step, bits))) for b in field.elements()]
        g_fold = sum((-c % p) << bits * k for k, c in enumerate(field.modulus[:-1]))
        keep = (1 << 2 * self.half) - 1 ^ self.firsts << bits * (m - 1)
        # multiplication by g = field.gen() (see _packed_steps), or None when m = 1 (g = 1)
        self.g_step = _shift_fold(p, self.dim, keep, bits, [(bits * (m - 1), self.firsts, g_fold)]) if m > 1 else None

    def pack(self, A: Poly, B: Poly) -> int:
        spread, at = self.spread, range(0, 2 * self.half, self.step)
        a = sum(map(lshift, map(spread.__getitem__, A.coeffs), at[: self.slots]))
        return a + sum(map(lshift, map(spread.__getitem__, B.coeffs), at[self.slots :]))

    def unpack(self, vec: int) -> tuple[Poly, Poly]:
        field, cs = self.field, unpack(self.field.p, self.dim, vec)
        coeffs = [field.encode(cs[at : at + field.m]) for at in range(0, self.dim, field.m)]
        return Poly(field, coeffs[: self.slots]), Poly(field, coeffs[self.slots :])

    def orbit(self, vec: int) -> list[int]:
        """g^c vec for c < m."""
        out = [vec]
        for _ in range(1, self.field.m):
            out.append(self.g_step(out[-1]))
        return out

    def pairing_rows(self, vecs) -> list[int]:
        """The 2m rows that pair a vector against b, for each b of vecs
        in turn (see brute_dual).

        The condition on coordinate l reads slot r of a_i's block
        against coordinate l of g^r b_i.  Those rows come off the packed
        b itself: v_l holds, in slot r of each block, coordinate l of
        that block of g^r b.  With g^r b shifted up by r slots once,
        each v_l takes one shift and one mask per g-step.  v_l's A half
        pairs with a0 in [a,b]_0, while [a,b]_1 pairs a0 with v_l's B
        half and a1 with its A half.
        """
        half, low = self.half, self.low
        shifts = range(0, self.step, self.bits)  # slot r of a block, r < m
        picks = [self.firsts << at for at in shifts]
        rows = []
        for b in vecs:
            lifted = list(map(lshift, self.orbit(b), shifts))
            for at in shifts:
                v = 0
                for gb, pick in zip(lifted, picks):
                    v |= gb >> at & pick
                a = v & low
                rows += (a, v >> half | a << half)
        return rows

    def u(self, vec: int) -> int:
        """(A, B) -> (0, A), multiplication by u."""
        return (vec & self.low) << self.half


_layout = memoized(_Layout)


@memoized
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
    layout = _layout(field, slots)
    bits, step, half = layout.bits, layout.step, layout.half
    slot, top_block = (1 << bits) - 1, ((1 << step) - 1) << step * (slots - 1)
    x_terms = []
    for l in range(field.m):
        gl = field.pow(field.gen(), l)
        fold = sum(layout.spread[field.mul(gl, field.neg(r))] << step * i for i, r in enumerate(modulus.coeffs[:-1]))
        # coordinate l of the top block, one slot from each half
        x_terms.append((step * (slots - 1) + bits * l, slot | slot << half, fold))
    keep = (1 << 2 * half) - 1 ^ (top_block | top_block << half)
    return _shift_fold(field.p, layout.dim, keep, step, x_terms), layout.g_step


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


def _closure(modulus: Poly, vecs, space: FpSpace | None = None) -> FpSpace:
    """The F_p-span of x^i g^l v for every packed row v, i >= 0, l < m,
    in the ring mod the monic modulus: the closure of the rows under F_q
    (g generates it; g = 1 when m = 1) and under x.  Given a space
    already closed under both, it grows that space in place.

    x and g act on the packed row (see _packed_steps).  The rows go
    into the span one at a time, and a row's chain stops at the first i
    with x^i v in the span.  The span is then closed under x and F_q:
    earlier rows' chains are, and x maps the span of the x^j g^l v,
    j < i, into that span plus F_q x^i v.  So the rest of the chain adds
    nothing.
    """
    layout = _layout(modulus.ctx, modulus.degree)
    if space is None:
        space = FpSpace(modulus.ctx.p, layout.dim)
    x_step = _packed_steps(modulus)[0]
    for vec in vecs:
        while space.insert(vec):
            for scaled in layout.orbit(vec)[1:]:
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
    pack = _layout(ctx.field, ctx.d * ctx.e).pack
    return _closure(ctx.modulus, [pack(ctx.reduce(A), ctx.reduce(B)) for A, B in pairs])


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
    and extended in place by f^l for l = e - 1, ..., 0, with its basis
    kept after each step; a space is made only for a new basis.  The
    walls (f^l, 0) are packed once, and (0, f^l) is their u-shift.
    """
    if ctx.size ** 2 > ORACLE_BUDGET:
        raise TooLarge(f"|K|^2 = {ctx.size ** 2} over budget {ORACLE_BUDGET}")
    e, p, dim = ctx.e, ctx.field.p, pair_dim(ctx)
    layout = _layout(ctx.field, ctx.d * e)
    zero = Poly.zero(ctx.field)
    # (f^l, 0) and (0, f^l) for l < e, where f^l is reduced mod f^e
    walls = [(w, layout.u(w)) for w in (layout.pack(ctx.f_pows[l], zero) for l in range(e))]
    nothing = FpSpace(p, dim)
    found: dict = {nothing.key(): nothing}

    def record(A: Poly, B: Poly, side: int) -> None:
        """Record the spans of (A, B) with w = f^l in side 0 or 1 of the
        pair, for l = 0, ..., e (w = 0 at l = e)."""
        span = _closure(ctx.modulus, [layout.pack(A, B)])
        # a later insert replaces span.rows rather than changing it
        steps = [(span.rows, span.pivots)]
        for l in range(e - 1, -1, -1):
            _closure(ctx.modulus, [walls[l][side]], span)
            steps.append((span.rows, span.pivots))
        for rows, pivots in reversed(steps):  # l = 0, ..., e
            key = tuple(rows)
            if key not in found:
                found[key] = FpSpace(p, dim, rows, pivots)

    for k in range(e):
        fk = ctx.f_pows[k]
        for c in ctx.residue_set(0, e - k):
            record(ctx.mul(fk, c), fk, 0)
        for c in ctx.residue_set(1, e - k) if e - k >= 1 else ():
            record(fk, ctx.mul(fk, c), 1)
    return list(found.values())


def u_shift_closed(space: FpSpace, ctx: ChainCtx) -> bool:
    """Closure under (A, B) -> (0, A), i.e. under multiplication by u."""
    u = _layout(ctx.field, ctx.d * ctx.e).u
    return all(space.contains(u(row)) for row in space.rows)


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


@memoized
def _binomial(params: AmbientParams) -> Poly:
    """x^N - lambda, the modulus of the ambient ring."""
    field = params.field
    return Poly(field, (field.neg(params.lam),) + (0,) * (params.N - 1) + (1,))


def ambient_dim(params: AmbientParams) -> int:
    return 2 * params.m * params.N


def ambient_coords(params: AmbientParams, a0: Poly, a1: Poly) -> int:
    return _layout(params.field, params.N).pack(a0, a1)


def coords_ambient(params: AmbientParams, vec: int) -> tuple[Poly, Poly]:
    return _layout(params.field, params.N).unpack(vec)


def ideal_span(fd: FactorData, gens) -> FpSpace:
    """F_p-span of the ideal generated by ambient pairs (a0, a1).

    Closes under multiplication by x, by the field generator and by u.
    """
    layout = _layout(fd.params.field, fd.params.N)
    vecs = [layout.pack(a0, a1) for a0, a1 in gens]
    return _closure(_binomial(fd.params), [w for v in vecs for w in (v, layout.u(v))])


@memoized
def _lift(fd: FactorData, j: int):
    """The F_p-linear map K_j^2 -> ambient, (A, B) -> eps_j (A, B), on
    packed rows.

    It is a table of the images of the 2 m d e basis vectors x^i g^c of
    either half: eps_j packed once, then stepped by the ambient x and g
    (see _packed_steps), the B half their u-shift.  For p = 2 a row's
    image is the XOR of the images of its set bits; for odd p it is the
    sum of slot times image, reduced once, as the ambient slots hold
    2 m d e products of two residues.
    """
    params, ctx = fd.params, fd.chain(j)
    p, dim = params.field.p, ambient_dim(params)
    layout = _layout(params.field, params.N)
    x_step = _packed_steps(_binomial(params))[0]
    vec = layout.pack(fd.idempotents[j], Poly.zero(params.field))
    images = []
    for _ in range(ctx.d * ctx.e):
        images += layout.orbit(vec)
        vec = x_step(vec)
    images += [layout.u(image) for image in images]
    if p == 2:

        def lift(row: int) -> int:
            out = 0
            while row:
                bit = row & -row
                out ^= images[bit.bit_length() - 1]
                row ^= bit
            return out

    else:
        kdim = pair_dim(ctx)

        def lift(row: int) -> int:
            return _mod(sum(map(mul, unpack(p, kdim, row), images)), p, dim)

    return lift


@memoized
def _component_rows(fd: FactorData) -> dict:
    """(j, spec) -> the rows of spec_span(spec, fd.chain(j)) lifted
    into the ambient ring, filled in as code_space meets the specs."""
    return {}


def code_space(code: CodeSpec) -> FpSpace:
    """The F_p-span of a classified code in ambient coordinates.

    The eps_j cut the ring into independent pieces, so the code's
    space is spanned by its components' lifted spans, rank rows in
    all; the ring keeps each component's rows (see _component_rows).
    With one factor, eps_0 = 1 and K_0 is the ambient ring itself, with
    the same coordinates, so the component's span is the code's.
    """
    fd = code.fd
    if fd.r == 1:
        return spec_span(code.components[0], fd.chain(0))
    memo = _component_rows(fd)
    rows = []
    for j, spec in enumerate(code.components):
        lifted = memo.get((j, spec))
        if lifted is None:
            lifted = memo[j, spec] = list(map(_lift(fd, j), spec_span(spec, fd.chain(j)).basis))
        rows += lifted
    return FpSpace.from_rows(fd.params.field.p, ambient_dim(fd.params), rows)


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
    per_factor = [
        [list(map(_lift(fd, j), s.rows)) for s in brute_u_closed_submodules(fd.chain(j))] for j in range(fd.r)
    ]

    ideals: dict = {}
    for choice in product(*per_factor):
        space = FpSpace.from_rows(params.field.p, ambient_dim(params), chain.from_iterable(choice))
        ideals.setdefault(space.key(), space)

    _check_singly_generated_covered(fd, ideals)
    return list(ideals.values())


def _check_singly_generated_covered(fd: FactorData, ideals: dict) -> None:
    """Every <one element> ideal must be among the assembled ones.

    Each vector v gets its own span unless it is covered: a unit
    multiple x^i c v + t u v (c in F_q^*, t in F_q[x]/(x^N - lambda)) of
    an earlier vector, which generates the same ideal.  A mere member
    of an earlier span may generate a smaller ideal, so it is spanned.

    Vectors run with coordinate 0 fastest, and a covered one is
    skipped inside the iterator.  For p = 2 they are the packed ints
    themselves.  An odd p within ORACLE_BUDGET has p <= 5 and 8-bit
    slots (p^(2p) <= |R|^N), so there a vector is keyed on its
    big-endian bytes, one slot each.  A multiple by F_p^* generates the
    same ideal, so only vectors whose first nonzero slot is 1 are
    walked (_leading_one_words), and only those are kept as covered:
    c times the cosets of w are the cosets of c w, so the cosets of the
    w whose first nonzero slot is 1, each element scaled to lead with
    1, are the covered vectors that lead with 1.  The cosets w + t u v come
    from one int holding every t u v unreduced, one block each (see
    _span_blob): w is added to every block at once, and one translate
    reduces the whole coset.  Everything stays on packed rows: the
    t u v are the span of u v, <v> is that span grown by v, and the c v
    are the nonzero elements of the span of v's g-orbit.
    """
    params = fd.params
    p, dim = params.field.p, ambient_dim(params)
    layout, binomial = _layout(params.field, params.N), _binomial(params)
    x_step = _packed_steps(binomial)[0]
    covered: set = set()
    if p == 2:
        todo = filterfalse(covered.__contains__, range(1 << dim))
    else:
        if slot_bits(p, dim) != 8:
            raise TooLarge(f"ambient dimension {dim} needs slots past 8 bits for p = {p}")
        residues = _byte_table(p, 1)
        unscale = [b""] + [_byte_table(p, pow(c, -1, p)) for c in range(1, p)]
        words = filterfalse(covered.__contains__, _leading_one_words(p, dim))
        todo = map(functools.partial(int.from_bytes, byteorder="big"), words)
    for vec in todo:
        by_u = _closure(binomial, [layout.u(vec)])
        span = _closure(binomial, [vec], FpSpace(p, dim, by_u.rows, by_u.pivots))
        if span.key() not in ideals:
            gen = unpack(p, dim, vec)
            raise AssertionError(f"singly generated ideal missed by the assembly: gen={gen}")
        if p == 2:
            elements = by_u.elements()

            def coset(w: int) -> list[int]:
                return [w ^ t for t in elements]

        else:
            blob, count = _span_blob(by_u.rows, p, dim)
            ones, size = _repeat(1, 8 * dim, count), dim * count

            def coset(w: int) -> list[bytes]:
                raw = (w * ones + blob).to_bytes(size, "big").translate(residues)
                blocks = [raw[at : at + dim] for at in range(0, size, dim)]
                return [z.translate(unscale[z.lstrip(b"\0")[0]]) for z in blocks]

        scaled = list(filter(None, FpSpace.from_rows(p, dim, layout.orbit(vec)).elements()))
        for _ in range(params.N):
            for w in scaled:
                if p == 2 or w >> (w.bit_length() - 1 & ~7) == 1:
                    covered.update(coset(w))
            scaled = list(map(x_step, scaled))


def _leading_one_words(p: int, dim: int):
    """The vectors of F_p^dim whose first nonzero slot is 1, as bytes of
    one slot each, in the order of product(range(p), repeat=dim): the
    more leading zeros, the earlier."""
    for zeros in range(dim - 1, -1, -1):
        head = bytes(zeros) + b"\1"
        yield from map(head.__add__, map(bytes, product(range(p), repeat=dim - zeros - 1)))


def _repeat(vec: int, width: int, count: int) -> int:
    """count copies of vec, one in each width-bit block."""
    return vec * (((1 << width * count) - 1) // ((1 << width) - 1))


def _span_blob(rows, p: int, dim: int) -> tuple[int, int]:
    """(blob, count): the count = p^len(rows) vectors of the rows' span,
    each a dim-byte block of blob, with slots left unreduced.  A slot
    sums at most dim products of two residues, so adding one more
    residue stays within an 8-bit slot of the elimination width."""
    blob, count, width = 0, 1, 8 * dim
    for row in rows:
        blob = sum(blob + _repeat(c * row, width, count) << width * count * c for c in range(p))
        count *= p
    return blob, count


# -- duals ---------------------------------------------------------------------


def brute_dual(space: FpSpace, params: AmbientParams) -> FpSpace:
    """All ambient vectors orthogonal to a code, as a kernel.

    The form is [a, b] = sum_i a_i b_i in R; writing it out on the
    (a0, a1) coordinate blocks gives, per basis codeword b, the 2m
    F_p-linear conditions coords([a,b]_0) = coords([a,b]_1) = 0 (see
    _Layout.pairing_rows).  Any basis of the space serves, so the rows
    come off its echelon basis as kept, with no back-substitution.  For
    p = 2 they are F_2-linear in b, so the 2m rows of b, side by side
    in one int, are the XOR of one entry per byte of b from a table
    kept per field and length (_pairing_tables).  This holds for any
    space, not only ideals, so every row of every basis vector goes in;
    kernel drops the dependent ones at the cost of the pivots they
    meet.  The answer is exactly the set a full scan would return (a
    test runs that scan at toy sizes).
    """
    field = params.field
    layout = _layout(field, params.N)
    dim = layout.dim
    if field.p != 2:
        return kernel(layout.pairing_rows(space.basis), dim, field.p)
    tables = _pairing_tables(field, params.N)
    mask, ats = (1 << dim) - 1, range(0, 2 * field.m * dim, dim)
    mat = []
    for b in space.basis:
        rows = 0
        for table in tables:
            rows ^= table[b & 255]
            b >>= 8
        for at in ats:
            mat.append(rows >> at & mask)
    return kernel(mat, dim, 2)


@memoized
def _pairing_tables(field: FieldCtx, slots: int) -> list[list[int]]:
    """For p = 2, one table per byte of a packed row b: entry v is the
    XOR of the pairing rows of the unit vectors at v's set bits, the 2m
    rows side by side in one int of 2 m dim bits.  The last table has
    one entry per value of the bits that are left."""
    layout = _layout(field, slots)
    dim, per = layout.dim, 2 * field.m
    rows = layout.pairing_rows(1 << i for i in range(dim))
    images = [sum(map(lshift, rows[at : at + per], range(0, per * dim, dim))) for at in range(0, len(rows), per)]
    return [_span_table(images[at : at + 8], 2, int.__xor__) for at in range(0, dim, 8)]


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
    if len(specs) != count_ideals_params(p, m, d, s):
        return False, "enumeration count != closed form"
    for key, spec in spans.items():
        if ideal_size(spec, ctx) != ctx.field.p ** len(key):
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
    count = count_self_dual(fd, nu)
    if count != len(fixed):
        return False, f"closed-form count {count} vs {len(fixed)} brute fixed points"
    return True, f"{len(emitted)} self-dual codes"


def _fixed_point_check(rings):
    """The kernel route to the self-dual components against the filter."""
    factors = 0
    for p, m, s, n, nu in rings:
        field = field_new(p, m)
        fd = build_factor_data(AmbientParams(field, s, n, nu_value(field, nu)))
        fixed = [j for j, t in enumerate(fd.tau) if j == t]
        for j in fixed:
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
    ("selfdual 2,1,2,1 nu=+1", lambda: _selfdual_check(2, 1, 2, 1, 1)),
    ("ambient 2,1,1,1", lambda: _ambient_check(2, 1, 1, 1, 1)),
]

FULL_SUITE = QUICK_SUITE + [
    ("chain 2,1,1,2", lambda: _chain_check(2, 1, 1, 2)),
    ("chain 3,1,2,1", lambda: _chain_check(3, 1, 2, 1)),
    ("chain 5,1,1,1", lambda: _chain_check(5, 1, 1, 1)),
    ("chain 3,2,1,1", lambda: _chain_check(3, 2, 1, 1)),
    ("dual 3,1,1,2 nu=+1", lambda: _dual_check(3, 1, 1, 2, 1)),
    ("dual 3,1,1,2 nu=-1", lambda: _dual_check(3, 1, 1, 2, 2)),
    ("dual 2,2,1,3 nu=+1", lambda: _dual_check(2, 2, 1, 3, 1)),
    ("ambient 3,1,1,1", lambda: _ambient_check(3, 1, 1, 1, 1)),
    ("ambient 3,1,1,2 lam=-1", lambda: _ambient_check(3, 1, 1, 2, 2)),
    ("ambient 2,3,1,1", lambda: _ambient_check(2, 3, 1, 1, 1)),
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
