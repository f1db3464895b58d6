"""The chain ring K = F_{p^m}[x] / (f^e) for a monic irreducible f.

Elements are reduced Polys (degree < d*e).  The powers of f filter K,
and the f-adic digit expansion a = sum_k b_k(x) f^k with deg b_k < d
is the workhorse for residue sets and canonical representatives: the
ideal parameters b range over digit windows (residue_set), a b is
written f^lo c in its window (window_quotient), and a b defined only
modulo f^hi is cut back into its window (window_reduce).
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ConstantInput, RangeError
from .gf import FieldCtx
from .poly import Poly, frobenius


def ceil_half(x: int) -> int:
    """Ceiling of x/2 for any integer x (so ceil_half(-1) == 0)."""
    return -((-x) // 2)


def f_power(f: Poly, k: int) -> Poly:
    """f^k from the base-p digits of k, most significant first.

    Each digit step is one Frobenius twist (the p-th power, which costs
    no multiplication) and one product with f^digit, digit < p; so
    f^(p^s) is f twisted s times.
    """
    p = f.ctx.p
    digits = []
    while k:
        k, r = divmod(k, p)
        digits.append(r)
    out = Poly.one(f.ctx)
    for r in reversed(digits):
        out = frobenius(out)
        if r:
            out = out * _small_power(f, r)
    return out


def _small_power(f: Poly, r: int) -> Poly:
    """f^r by repeated squaring, without reduction."""
    out, base = None, f
    while r:
        if r & 1:
            out = base if out is None else out * base
        r >>= 1
        if r:
            base = base * base
    return out


_END = object()


def odometer(streams, place, origin):
    """Every choice of one item per position, position 0 moving fastest.

    streams[i]() returns a fresh iterator over position i's items.  They
    are folded right to left, partial[i] = place(partial[i + 1], item, i)
    from partial[len(streams)] = origin, and each choice yields
    partial[0].  Only the current iterator of each position is kept, so
    the first choice costs one item per position and a step costs one
    place per position that moved.  A loop, not a recursion: digit
    windows reach thousands of positions.  An empty stream leaves no
    choice.
    """
    width = len(streams)
    partial = [origin] * (width + 1)
    items = [None] * width
    i = width
    while True:
        # restart every position below i at its first item
        while i:
            i -= 1
            items[i] = streams[i]()
            item = next(items[i], _END)
            if item is _END:
                return
            partial[i] = place(partial[i + 1], item, i)
        yield partial[0]
        # advance the lowest position that has items left
        while i < width:
            item = next(items[i], _END)
            if item is not _END:
                partial[i] = place(partial[i + 1], item, i)
                break
            i += 1
        else:
            return


class FPowers(Sequence):
    """f^0 .. f^e as a read-only sequence; f^k is built on first use and kept."""

    __slots__ = ("f", "e", "_built")

    def __init__(self, f: Poly, e: int):
        self.f = f
        self.e = e
        self._built: dict[int, Poly] = {}

    def __len__(self) -> int:
        return self.e + 1

    def __getitem__(self, k: int) -> Poly:
        pw = self._built.get(k)
        if pw is None:
            k = range(len(self))[k]  # negative indices and IndexError as for a tuple
            if k not in self._built:
                self._built[k] = f_power(self.f, k)
            pw = self._built[k]
        return pw


class ChainCtx:
    """The chain ring F_{p^m}[x] / (f^e).

    f_pows is an FPowers sequence: len(f_pows) == e + 1 and f_pows[k] is
    f^k, built on first use and then kept, so a context that never reads
    a power pays nothing for it, the modulus f^e = f_pows[e] included
    (reduce compares degrees with d*e): for e = p^s, as in every ring of
    this package, f^e is s Frobenius twists of f, with no product.

    Digit windows are checked by division, not digit by digit: z has no
    digits at positions >= b exactly when deg z < d*b, and none below a
    exactly when f^a divides z (window_quotient).  That division's
    quotient z / f^a gives the window coordinates in which
    dual.dual_component transports b.
    """

    __slots__ = ("field", "f", "d", "e", "f_pows")

    def __init__(self, f: Poly, e: int):
        if f.degree < 1:
            raise ConstantInput("chain ring needs deg f >= 1")
        if not f.is_monic():
            raise RangeError("f must be monic")
        if e < 1:
            raise RangeError("nilpotency length e must be >= 1")
        self.field: FieldCtx = f.ctx
        self.f = f
        self.d = f.degree
        self.e = e
        self.f_pows = FPowers(f, e)

    def __repr__(self) -> str:
        return f"ChainCtx(f={self.f.term_string()}, e={self.e})"

    @property
    def modulus(self) -> Poly:
        return self.f_pows[self.e]

    @property
    def size(self) -> int:
        return self.field.q ** (self.d * self.e)

    @property
    def residue_size(self) -> int:
        """Size of the residue field K/(f)."""
        return self.field.q ** self.d

    # -- arithmetic --------------------------------------------------------

    def reduce(self, a: Poly) -> Poly:
        return a % self.modulus if a.degree >= self.d * self.e else a

    def mul(self, a: Poly, b: Poly) -> Poly:
        return self.reduce(a * b)

    # -- f-adic structure ----------------------------------------------------

    def f_adic(self, a: Poly) -> tuple[Poly, ...]:
        """The e digits of a, each of degree < d."""
        a = self.reduce(a)
        digits = []
        for _ in range(self.e):
            a, r = divmod(a, self.f)
            digits.append(r)
        return tuple(digits)

    # -- residue sets ---------------------------------------------------------

    def digit_polys(self):
        """All q^d polynomials of degree < d, constant term fastest, each
        read off the base-q digits of its index: no range(q) is held whole."""
        field, q = self.field, self.field.q
        places = [q**i for i in range(self.d)]
        for index in range(q**self.d):
            yield Poly(field, [index // place % q for place in places])

    def residue_set(self, a: int, b: int):
        """Iterate f^a * (K / (f^b)): all sums of digits at positions [a, b).

        Order is an odometer over the digit vector, position a moving
        fastest, each digit running through digit_polys() order.  When
        a == b the set is the singleton {0}.  Each step costs one product
        and one sum, and f^(a+i) is read only once its digit is nonzero.
        """
        if not (0 <= a <= b <= self.e):
            raise RangeError(f"bad residue window [{a}, {b}) for e={self.e}")
        fp = self.f_pows

        def place(high: Poly, digit: Poly, i: int) -> Poly:
            return high if digit.is_zero() else high + digit * fp[a + i]

        yield from odometer([self.digit_polys] * (b - a), place, Poly.zero(self.field))

    def window_quotient(self, z: Poly, a: int, b: int) -> Poly | None:
        """c with z = f^a c and deg c < d*(b - a), for a reduced z; None
        when z has digits outside [a, b).

        The digits at positions >= b vanish exactly when deg z < d*b, and
        those below a exactly when f^a divides z: one division by f^a is
        both that check and the quotient.
        """
        if z.degree >= self.d * b:
            return None
        if a == 0:
            return z
        c, r = divmod(z, self.f_pows[a])
        return None if r else c

    def window_reduce(self, z: Poly, a: int, b: int) -> Poly:
        """Truncate the digits of z to positions [a, b): z mod f^b.

        Used to canonicalize a parameter that is only defined modulo f^b
        and is promised to be divisible by f^a; the promise is checked.
        """
        z = z % self.f_pows[b]
        if self.window_quotient(z, a, b) is None:
            raise RangeError("element has digits below the residue window")
        return z
