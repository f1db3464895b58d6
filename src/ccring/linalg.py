"""Linear algebra over F_p: subspaces as reduced row echelon bases.

A vector of F_p^dim is one Python int, a packed row: coordinate i sits
in slot i, the i-th run of slot_bits(p, dim) bits from the least
significant end.  For p = 2 a slot is one bit, so a row is a bitset and
adding rows is one XOR (the layout of M4RI: Albrecht, Bard and Hart,
ACM TOMS 37(1), 2010).  For odd p a slot is 1, 2, 4, ... bytes, room
for p - 1 plus dim products of two residues: a row operation adds c
times the negated row, (p - c) * row, as one int multiply and add, and
slots grow past p - 1 without carrying into the next.  A slot is
reduced mod p only when its value is read, and a whole vector when it
becomes a stored row or back-substitution changes it.

Vectors handed in and stored rows have every slot in [0, p).  Rows are
kept in echelon form, in a dict keyed by pivot.  Insertion, membership
and kernels share one elimination: _reduce walks a vector from its
pivot end and looks each slot up in that dict, so a vector costs only
the pivots it meets, and one that lies in the span costs no _mod.  They
share one back-substitution too: _rref brings the rows to reduced
echelon form when they are read.  An FpSpace's pivot is a row's first
nonzero coordinate, scaled to 1, and then every pivot column is clear
in the other rows, so two spaces are equal iff their bases are.
FpSpace.basis hands out the echelon rows as kept, for callers that
need a basis but not the canonical one, and builds nothing.

For p = 2 each routine has its own loop, with no slot arithmetic: a
step is a bit_length, a dict lookup and an XOR.  kernel walks its rows
inline, with no call per row, and builds the kernel's basis one bit at
a time.
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


def _mod(vec: int, p: int, dim: int, scale: int = 1) -> int:
    """vec with every slot v replaced by v * scale mod p (p odd)."""
    if slot_bits(p, dim) == 8:
        return int.from_bytes(vec.to_bytes(dim, "little").translate(_byte_table(p, scale)), "little")
    return pack(p, dim, [v * scale for v in unpack(p, dim, vec)])


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


def _reduce(at: dict, vec: int, p: int, dim: int, last: bool = False, keep: bool = True) -> bool:
    """Whether vec lies outside the span of the echelon rows at[pivot].
    If it does and keep is set, its reduction joins them: reduced mod p
    once, and scaled to 1 at its new pivot.

    Each row has its pivot slot 1 and no nonzero slot on one side of
    it: below it, or above it when last is set (odd p only: for p = 2
    only kernel walks from the last slot, inline).  The walk starts at
    vec's nonzero slot on that side, its first or its last.  A slot
    that is 0 mod p is dropped; a slot at some row's pivot gets that
    row's multiple and is dropped too.  Neither changes a slot the walk
    has passed, so it meets each pivot at most once, and only where vec
    is nonzero: the multiples it adds fit in the slots (see
    slot_bits).  The first slot nonzero mod p at no pivot is the new
    pivot, and the walk stops there.  Slots are left unreduced on the
    way, so a vector in the span costs no _mod.
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
        t = ((vec.bit_length() if last else (vec & -vec).bit_length()) - 1) // bits
        shift = t * bits
        v = vec >> shift & mask
        c = v % p
        if c:
            row = get(t)
            if row is None:
                if keep:
                    at[t] = _mod(vec, p, dim, pow(c, -1, p))
                return True
            vec += (p - c) * row
            v += p - c
        vec -= v << shift
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
    mask = (1 << bits) - 1
    for t in order:
        row = at[t]
        hit = row & done
        if hit:
            while hit:
                col = (hit.bit_length() - 1) // bits
                c = hit >> col * bits
                hit ^= c << col * bits
                row += (p - c) * at[col]
            at[t] = _mod(row, p, dim)
        done |= mask << t * bits
    return pivots


def kernel(mat, dim: int, p: int) -> FpSpace:
    """Kernel of the linear map with the given packed rows, as an FpSpace.

    The rows are reduced with each pivot at its row's last nonzero
    coordinate (for odd p through _reduce; for p = 2 in one XOR walk
    inline): a row that depends on the rows before it costs only the
    pivots it meets and, for odd p, no _mod.  One _rref at the end
    reduces the rows kept.

    Then for each free column f, e_f minus the sum of row_k[f]
    e_(pivot k) has its first nonzero coordinate, a 1, at f and a 0 at
    every other free column: the kernel's basis comes out in reduced
    echelon form, with no second elimination.  For p = 2 it is built
    one bit at a time: pivot t's bit goes to each free column its row
    holds.
    """
    at: dict[int, int] = {}
    if p == 2:
        get = at.get
        for vec in mat:
            while vec:
                row = get(t := vec.bit_length() - 1)
                if row is None:
                    at[t] = vec
                    break
                vec ^= row
        basis = {f: 1 << f for f in range(dim) if f not in at}
        for t in _rref(at, p, dim, last=True):
            rest, pivot = at[t] ^ 1 << t, 1 << t
            while rest:
                f = rest.bit_length() - 1
                rest ^= 1 << f
                basis[f] |= pivot
        return FpSpace(p, dim, basis.values(), basis.keys())
    for vec in mat:
        _reduce(at, vec, p, dim, last=True)
    bits = slot_bits(p, dim)
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
