"""Linear algebra over F_p: subspaces as reduced row echelon bases.

A vector is a sequence of ints in [0, p).  Row reduction puts each
row's pivot at its first nonzero coordinate and clears every pivot
column in the other rows, so two spaces are equal iff their bases are.
Insertion, membership and kernels share one reduction routine.
"""

from __future__ import annotations


class FpSpace:
    """A subspace of F_p^dim held as a reduced row echelon basis."""

    __slots__ = ("p", "dim", "rows", "pivots")

    def __init__(self, p: int, dim: int, rows=(), pivots=()):
        self.p = p
        self.dim = dim
        self.rows: tuple[tuple[int, ...], ...] = tuple(rows)
        self.pivots: tuple[int, ...] = tuple(pivots)

    @classmethod
    def from_rows(cls, p: int, dim: int, raw_rows) -> "FpSpace":
        rows: list[list[int]] = []
        pivots: list[int] = []
        for vec in raw_rows:
            rref_insert(rows, pivots, list(vec), p)
        order = sorted(range(len(pivots)), key=lambda i: pivots[i])
        return cls(
            p,
            dim,
            tuple(tuple(rows[i]) for i in order),
            tuple(pivots[i] for i in order),
        )

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        return self.p ** len(self.rows)

    def key(self):
        return self.rows

    def __eq__(self, other) -> bool:
        return isinstance(other, FpSpace) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def contains(self, vec) -> bool:
        v = list(vec)
        _reduce(self.rows, self.pivots, v, self.p)
        return not any(v)

    def extended(self, raw_rows) -> "FpSpace":
        return FpSpace.from_rows(self.p, self.dim, list(self.rows) + list(raw_rows))

    def elements(self):
        """All p^rank vectors (keep to toy sizes)."""
        out = [tuple([0] * self.dim)]
        p = self.p
        for row in self.rows:
            grown = []
            for vec in out:
                for c in range(p):
                    grown.append(
                        tuple((vec[i] + c * row[i]) % p for i in range(self.dim))
                    )
            out = grown
        return out


def _reduce(rows, pivots, vec: list, p: int) -> None:
    """Clear every pivot column of vec, in place, against the RREF rows."""
    dim = len(vec)
    for row, piv in zip(rows, pivots):
        c = vec[piv]
        if c:
            for i in range(piv, dim):
                vec[i] = (vec[i] - c * row[i]) % p


def rref_insert(rows: list, pivots: list, vec: list, p: int) -> bool:
    """Reduce vec against rows; add it if independent.  Keeps RREF."""
    _reduce(rows, pivots, vec, p)
    dim = len(vec)
    piv = next((i for i in range(dim) if vec[i]), None)
    if piv is None:
        return False
    inv = pow(vec[piv], p - 2, p)
    if inv != 1:
        for i in range(piv, dim):
            vec[i] = vec[i] * inv % p
    # clear the new pivot column from the old rows
    for idx, row in enumerate(rows):
        c = row[piv]
        if c:
            rows[idx] = [(row[i] - c * vec[i]) % p for i in range(dim)]
    rows.append(vec)
    pivots.append(piv)
    return True


def kernel(mat: list[list[int]], dim: int, p: int) -> FpSpace:
    """Kernel of the linear map with the given rows, as an FpSpace."""
    rref = FpSpace.from_rows(p, dim, mat)
    pivset = set(rref.pivots)
    free = [i for i in range(dim) if i not in pivset]
    basis = []
    for fcol in free:
        vec = [0] * dim
        vec[fcol] = 1
        for row, piv in zip(rref.rows, rref.pivots):
            if row[fcol]:
                vec[piv] = (-row[fcol]) % p
        basis.append(vec)
    return FpSpace.from_rows(p, dim, basis)
