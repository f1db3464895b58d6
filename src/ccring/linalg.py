"""Linear algebra over F_p: subspaces as reduced row echelon bases.

A vector of F_p^dim is one Python int, a packed row: coordinate i sits
in slot i, the i-th run of slot_bits(p, dim) bits from the least
significant end.  For p = 2 a slot is one bit, so a row is a bitset and
adding rows is one XOR (the layout of M4RI: Albrecht, Bard and Hart,
ACM TOMS 37(1), 2010).  For odd p a slot is 1, 2, 4, ... bytes, room
for p - 1 plus dim products of two residues: a row operation adds c
times the negated row, (p - c) * row, as one int multiply and add, and
slots grow past p - 1 without carrying into the next.  A whole vector
is reduced mod p (_reducer: one bytes.translate for 8-bit slots, a
Python loop over wider ones) when it becomes a stored row, when
back-substitution changes it, and, for 8-bit slots, when a walk meets
a slot that is 0 mod p but not 0.

Vectors handed in and stored rows have every slot in [0, p).  Rows are
kept in echelon form, in a dict keyed by pivot.  Insertion, membership
and kernels walk a vector from its pivot end and look each slot up in
that dict, so a vector costs only the pivots it meets.  Most slots that
are 0 mod p are what is left of a dependent row.  With 8-bit slots one
translate drops them all, so a walk makes at most one reduction per
pivot it met, and none for a zero vector or one equal to a kept row;
with wider slots, where a reduction costs a Python step per slot, the
walk steps over each such slot.  _reduce is that walk for insertion
and membership; kernel has the same walk inline, from the other end,
with the slot width and the reduction bound once per call.  They share
one back-substitution: _rref brings the rows to reduced echelon form
when they are read.  An FpSpace's pivot is a row's first nonzero
coordinate, scaled to 1, and then every pivot column is clear in the
other rows, so two spaces are equal iff their bases are.
FpSpace.basis hands out the echelon rows as kept, for callers that
need a basis but not the canonical one, and builds nothing.

For p = 2 each routine has its own loop, with no slot arithmetic: a
step is a bit_length, a dict lookup and an XOR.  Up to 128 columns,
kernel reads the kernel's basis off the reduced rows with word
operations, one product per row (see _spread_masks).
"""

from __future__ import annotations

import functools
from operator import lshift


@functools.cache
def slot_bits(p: int, dim: int) -> int:
    """Bits per coordinate of a packed vector of F_p^dim."""
    top = (p - 1) * (1 + dim * (p - 1))  # the largest slot an odd-p elimination makes
    nbytes = 1
    while top >> 8 * nbytes:
        nbytes *= 2
    return 1 if p == 2 else 8 * nbytes


def pack(p: int, dim: int, coords) -> int:
    """The packed vector with the given coordinates, taken mod p."""
    bits = slot_bits(p, dim)
    return sum(map(lshift, [c % p for c in coords], range(0, bits * dim, bits)))


def unpack(p: int, dim: int, vec: int) -> list[int]:
    """The dim slot values of a packed vector, not reduced mod p."""
    bits = slot_bits(p, dim)
    return [vec >> at & (1 << bits) - 1 for at in range(0, bits * dim, bits)]


@functools.cache
def _byte_table(p: int, scale: int) -> bytes:
    return bytes(v * scale % p for v in range(256))


@functools.cache
def _reducer(p: int, bits: int):
    """reduce(vec, scale=1): vec with every bits-wide slot v replaced by
    v * scale mod p (p odd), for a vector of any number of slots.  For
    8-bit slots, which only p < 17 has, it is one translate of the
    vector's bytes, with a table per scale; wider slots are reduced one
    by one."""
    if bits == 8:
        tables = [_byte_table(p, scale) for scale in range(p)]

        def reduce(vec: int, scale: int = 1) -> int:
            return int.from_bytes(vec.to_bytes(vec.bit_length() + 7 >> 3, "little").translate(tables[scale]), "little")

    else:
        mask = (1 << bits) - 1

        def reduce(vec: int, scale: int = 1) -> int:
            ats = range(0, vec.bit_length(), bits)
            return sum(map(lshift, [(vec >> at & mask) * scale % p for at in ats], ats))

    return reduce


def _mod(vec: int, p: int, dim: int, scale: int = 1) -> int:
    """vec with every slot v replaced by v * scale mod p (p odd)."""
    return _reducer(p, slot_bits(p, dim))(vec, scale)


class FpSpace:
    """A subspace of F_p^dim held as echelon rows keyed by their pivots,
    each row's first nonzero coordinate.  insert grows it in place;
    reading rows brings them to reduced echelon form, and that basis is
    kept until the next insert.  The constructor takes a reduced echelon
    basis and its pivots.  A space in use as a key (key, ==, hash) is
    not grown any more."""

    __slots__ = ("p", "dim", "_at", "_rows")

    def __init__(self, p: int, dim: int, rows=(), pivots=()):
        self.p = p
        self.dim = dim
        self._rows: list[int] | None = list(rows)
        self._at: dict[int, int] = dict(zip(pivots, self._rows, strict=True))

    @classmethod
    def from_rows(cls, p: int, dim: int, raw_rows) -> "FpSpace":
        space = cls(p, dim)
        for vec in raw_rows:
            space.insert(vec)
        return space

    @property
    def pivots(self) -> list[int]:
        return sorted(self._at)

    @property
    def basis(self) -> list[int]:
        """The echelon rows as kept, not reduced: a basis in no set
        order, for callers that need any basis.  Reading it builds no
        reduced basis."""
        return list(self._at.values())

    @property
    def rows(self) -> list[int]:
        """The reduced echelon basis, sorted by pivot: the space's own
        list, which a later insert replaces and does not change."""
        if self._rows is None:
            self._rows = list(map(self._at.__getitem__, _rref(self._at, self.p, self.dim)))
        return self._rows

    def insert(self, vec: int) -> bool:
        """Add a packed vector; False, with no change, if it is in the space."""
        if not _reduce(self._at, vec, self.p, self.dim):
            return False
        self._rows = None
        return True

    def contains(self, vec: int) -> bool:
        return not _reduce(self._at, vec, self.p, self.dim, keep=False)

    @property
    def rank(self) -> int:
        return len(self._at)

    @property
    def size(self) -> int:
        return self.p ** len(self._at)

    def key(self):
        return tuple(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, FpSpace) and (self.p, self.dim, self.rows) == (other.p, other.dim, other.rows)

    def __hash__(self) -> int:
        return hash(self.key())

    def elements(self) -> list[int]:
        """All p^rank vectors, packed, in no set order (keep to toy sizes)."""
        p, dim = self.p, self.dim
        out = [0]
        for row in self._at.values():
            if p == 2:
                out += [v ^ row for v in out]
            else:  # a slot sums at most rank products: no carry
                out = [v + c * row for c in range(p) for v in out]
        return out if p == 2 else [_mod(v, p, dim) for v in out]


def _reduce(at: dict, vec: int, p: int, dim: int, keep: bool = True) -> bool:
    """Whether vec lies outside the span of the echelon rows at[pivot].
    If it does and keep is set, its reduction joins them: reduced mod p
    once, and scaled to 1 at its new pivot.

    Each row has its pivot slot 1 and no nonzero slot below it.  The
    walk starts at vec's first nonzero slot.  A slot at some row's pivot
    gets that row's multiple and is dropped, which changes no slot the
    walk has passed, so it meets each pivot at most once, and only where
    vec is nonzero: the multiples it adds fit in the slots (see
    slot_bits).  A slot that is 0 mod p, most often what is left of a
    dependent row, makes one reduction of the whole vector for 8-bit
    slots, which drops every such slot at once; a wider slot is
    dropped alone.  The first slot nonzero mod p at no pivot is the new
    pivot, and the walk stops there.  So a vector in the span costs at
    most one reduction per pivot it meets, and none if it is a kept row
    or its slots are wider than 8 bits.
    """
    get = at.get
    if p == 2:
        while vec:
            row = get(t := (vec & -vec).bit_length() - 1)
            if row is None:
                if keep:
                    at[t] = vec
                return True
            vec ^= row
        return False
    bits = slot_bits(p, dim)
    mask = (1 << bits) - 1
    while vec:
        t = ((vec & -vec).bit_length() - 1) // bits
        shift = t * bits
        v = vec >> shift & mask
        c = v % p
        if not c:
            vec = _reducer(p, bits)(vec) if bits == 8 else vec - (v << shift)
            continue
        row = get(t)
        if row is None:
            if keep:
                at[t] = _reducer(p, bits)(vec, pow(c, -1, p))
            return True
        if vec == row:
            return False
        vec += (p - c) * row - (v + p - c << shift)
    return False


def _rref(at: dict, p: int, dim: int, last: bool = False) -> list[int]:
    """Bring the echelon rows at[pivot] to reduced echelon form in place,
    and return their pivots in ascending order.

    One back-substitution clears every pivot column in the other rows,
    starting from the rows with nothing but their pivot on the far side:
    a row's coefficients are read off it as it is, since the rows done
    before it are clear in every pivot column but their own.  A row
    that is already reduced costs one AND; for p = 2 a coefficient is
    one bit, so a step is one XOR.
    """
    pivots = sorted(at)
    order = pivots if last else reversed(pivots)
    done = 0  # all ones in the slot of each pivot cleared so far
    if p == 2:
        for t in order:
            hit = at[t] & done
            if hit:
                row = at[t]
                while hit:
                    col = hit.bit_length() - 1
                    hit ^= 1 << col
                    row ^= at[col]
                at[t] = row
            done |= 1 << t
        return pivots
    bits = slot_bits(p, dim)
    mask, reduce = (1 << bits) - 1, _reducer(p, bits)
    for t in order:
        row = at[t]
        hit = row & done
        if hit:
            while hit:
                col = (hit.bit_length() - 1) // bits
                c = hit >> col * bits
                hit ^= c << col * bits
                row += (p - c) * at[col]
            at[t] = reduce(row)
        done |= mask << t * bits
    return pivots


@functools.cache
def _spread_masks(dim: int) -> tuple[int, int, int]:
    """(stride, spread, diag): row * spread & diag moves bit f of a
    dim-bit row to bit f * stride, for every f at once.  The product
    holds dim copies of the row, copy i shifted by i * (dim + 1), so the
    copies do not overlap, and bit f of copy f is the only bit at
    f * (dim + 2)."""
    stride = dim + 2
    return stride, sum(1 << i * (dim + 1) for i in range(dim)), sum(1 << f * stride for f in range(dim))


def kernel(mat, dim: int, p: int) -> FpSpace:
    """Kernel of the linear map with the given packed rows, as an FpSpace.

    The rows are reduced with each pivot at its row's last nonzero
    coordinate, in one walk inline, as _reduce walks from the other
    end: for p = 2 a step is one XOR; for odd p the slot width and the
    reduction are bound once per call, and a slot that is 0 mod p makes
    one reduction of the whole row if slots are 8 bits wide, and is
    dropped alone otherwise.  One _rref at the end reduces the rows
    kept.

    Then for each free column f, e_f minus the sum of row_k[f]
    e_(pivot k) has its first nonzero coordinate, a 1, at f and a 0 at
    every other free column: the kernel's basis comes out in reduced
    echelon form, with no second elimination.  For p = 2 that sum is
    column f of the reduced rows.  Up to 128 columns each row is spread
    into one block per column and shifted to its pivot, and each basis
    vector is one block; past that, pivot t's bit goes to each free
    column its row holds, one bit at a time.
    """
    at: dict[int, int] = {}
    get = at.get
    if p == 2:
        for vec in mat:
            while vec:
                row = get(t := vec.bit_length() - 1)
                if row is None:
                    at[t] = vec
                    break
                vec ^= row
        pivots = _rref(at, p, dim, last=True)
        # a product costs dim^2 bits per row: past 128 columns the bit loop is faster
        if dim <= 128:
            stride, spread, diag = _spread_masks(dim)
            cols = 0  # block f of stride bits holds column f of the reduced rows
            for t in pivots:
                cols |= (at[t] * spread & diag) << t
            free, low = [f for f in range(dim) if f not in at], (1 << dim) - 1
            return FpSpace(p, dim, [cols >> f * stride & low | 1 << f for f in free], free)
        basis = {f: 1 << f for f in range(dim) if f not in at}
        for t in pivots:
            rest, pivot = at[t] ^ 1 << t, 1 << t
            while rest:
                f = rest.bit_length() - 1
                rest ^= 1 << f
                basis[f] |= pivot
        return FpSpace(p, dim, basis.values(), basis.keys())
    bits = slot_bits(p, dim)
    reduce = _reducer(p, bits)
    for vec in mat:
        while vec:
            t = (vec.bit_length() - 1) // bits
            shift = t * bits
            v = vec >> shift  # the last nonzero slot
            c = v % p
            if not c:
                vec = reduce(vec) if bits == 8 else vec - (v << shift)
                continue
            row = get(t)
            if row is None:
                at[t] = reduce(vec, pow(c, -1, p))
                break
            if vec == row:
                break
            vec += (p - c) * row - (v + p - c << shift)
    basis = {f: 1 << f * bits for f in range(dim) if f not in at}
    # reduced, row t holds its pivot's 1 and otherwise only free columns
    for t in _rref(at, p, dim, last=True):
        rest = at[t] ^ 1 << t * bits
        while rest:
            f = (rest.bit_length() - 1) // bits
            c = rest >> f * bits
            rest ^= c << f * bits
            basis[f] += p - c << t * bits
    return FpSpace(p, dim, basis.values(), basis.keys())
