"""Linear algebra over F_p: subspaces as reduced row echelon bases.

A vector of F_p^dim is one Python int, a packed row: coordinate i sits
in slot i, the i-th run of slot_bits(p, dim) bits from the least
significant end.  For p = 2 a slot is one bit, so a row is a bitset and
adding rows is one XOR (the layout of M4RI: Albrecht, Bard and Hart,
ACM TOMS 37(1), 2010).  For odd p a slot is 1, 2, 4, ... bytes, room
for p - 1 plus dim products of two residues: a row operation adds c
times the negated row, (p - c) * row, as one int multiply and add, and
slots grow past p - 1 without carrying into the next.  A slot is
reduced mod p only when its value is read, and a whole vector once,
after its elimination and before its pivot search.

Vectors handed in and stored rows have every slot in [0, p).  A row's
pivot is its first nonzero coordinate, scaled to 1, and every pivot
column is clear in the other rows, so two spaces are equal iff their
bases are.  Insertion, membership and kernels share one elimination.
"""

from __future__ import annotations

import functools
from bisect import bisect
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
    """A subspace of F_p^dim held as a reduced row echelon basis of
    packed rows, sorted by pivot.  insert grows it in place; a space in
    use as a key (key, ==, hash) is not grown any more."""

    __slots__ = ("p", "dim", "rows", "pivots")

    def __init__(self, p: int, dim: int, rows=(), pivots=()):
        self.p = p
        self.dim = dim
        self.rows: list[int] = list(rows)
        self.pivots: list[int] = list(pivots)

    @classmethod
    def from_rows(cls, p: int, dim: int, raw_rows) -> "FpSpace":
        space = cls(p, dim)
        for vec in raw_rows:
            space.insert(vec)
        return space

    def insert(self, vec: int) -> bool:
        """Add a packed vector; False, with no change, if it is in the space."""
        return _insert(self.rows, self.pivots, vec, self.p, self.dim)

    def contains(self, vec: int) -> bool:
        return _eliminate(self.rows, self.pivots, vec, self.p, self.dim)[1] < 0

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        return self.p ** len(self.rows)

    def key(self):
        return tuple(self.rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, FpSpace) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.key())

    def elements(self) -> list[int]:
        """All p^rank vectors, packed (keep to toy sizes)."""
        p, dim = self.p, self.dim
        out = [0]
        for row in self.rows:
            if p == 2:
                out += [v ^ row for v in out]
            else:  # a slot sums at most rank products: no carry
                out = [v + c * row for c in range(p) for v in out]
        return out if p == 2 else [_mod(v, p, dim) for v in out]


def _eliminate(rows, pivots, vec: int, p: int, dim: int, last: bool = False):
    """(vec reduced against the rows with its pivot scaled to 1, pivot),
    or (0, -1) when vec lies in the rows' span.

    No row touches another's pivot column, so every coefficient is read
    off vec as given.  The pivot is vec's first nonzero coordinate, or
    its last when last is set.
    """
    bits = slot_bits(p, dim)
    mask = (1 << bits) - 1
    if p == 2:
        for row, piv in zip(rows, pivots):
            if vec >> piv & 1:
                vec ^= row
    else:
        acc = vec
        for row, piv in zip(rows, pivots):
            c = vec >> piv * bits & mask
            if c:
                acc += (p - c) * row
        vec = _mod(acc, p, dim)
    if not vec:
        return 0, -1
    piv = ((vec.bit_length() if last else (vec & -vec).bit_length()) - 1) // bits
    c = vec >> piv * bits & mask
    return (vec if c == 1 else _mod(vec, p, dim, pow(c, -1, p))), piv


def _insert(rows: list, pivots: list, vec: int, p: int, dim: int, last: bool = False) -> bool:
    """Reduce vec against rows; add it if independent.  Keeps RREF."""
    vec, piv = _eliminate(rows, pivots, vec, p, dim, last)
    if piv < 0:
        return False
    # clear the new pivot column from the old rows
    bits = slot_bits(p, dim)
    for k, row in enumerate(rows):
        c = row >> piv * bits & (1 << bits) - 1
        if c:
            rows[k] = row ^ vec if p == 2 else _mod(row + (p - c) * vec, p, dim)
    at = bisect(pivots, piv)
    rows.insert(at, vec)
    pivots.insert(at, piv)
    return True


def kernel(mat, dim: int, p: int) -> FpSpace:
    """Kernel of the linear map with the given packed rows, as an FpSpace.

    The rows are reduced with each pivot at its row's last nonzero
    coordinate.  Then for each free column f, e_f minus the sum of
    row_k[f] e_(pivot k) has its first nonzero coordinate, a 1, at f
    and a 0 at every other free column: the kernel's basis comes out in
    reduced echelon form, with no second elimination.
    """
    rows: list[int] = []
    pivots: list[int] = []
    for vec in mat:
        _insert(rows, pivots, vec, p, dim, last=True)
    bits = slot_bits(p, dim)
    taken = set(pivots)
    free = [f for f in range(dim) if f not in taken]
    basis = []
    for f in free:
        vec = 1 << f * bits
        for row, piv in zip(rows, pivots):
            c = row >> f * bits & (1 << bits) - 1
            if c:
                vec += p - c << piv * bits
        basis.append(vec)
    return FpSpace(p, dim, basis, free)
