"""Exception types raised by the library.

Everything derives from CcringError so callers can catch broadly; the
concrete classes also subclass the matching builtin where one exists.
"""


class CcringError(Exception):
    pass


class NotPrime(CcringError, ValueError):
    """Characteristic is not a prime number."""


class BadModulus(CcringError, ValueError):
    """Field modulus has the wrong degree or is not monic."""


class ReducibleModulus(CcringError, ValueError):
    """Field modulus factors over the prime field."""


class ContextMismatch(CcringError, ValueError):
    """Operands belong to different coefficient contexts."""


class ZeroPolynomial(CcringError, ValueError):
    """Zero polynomial where a nonzero one is required."""


class ConstantInput(CcringError, ValueError):
    """Constant polynomial where positive degree is required."""


class NotSquarefree(CcringError, ValueError):
    """Polynomial has a repeated irreducible factor."""


class BothZero(CcringError, ValueError):
    """gcd(0, 0) requested."""


class ZeroLambda(CcringError, ValueError):
    """Constacyclic shift constant must be a unit."""


class SZero(CcringError, ValueError):
    """The length parameter s must be at least 1."""


class GcdViolation(CcringError, ValueError):
    """n and p must be coprime."""


class InvalidSpec(CcringError, ValueError):
    """Ideal or code description fails its case constraints."""


class RangeError(CcringError, ValueError):
    """Numeric parameter outside its documented range."""


class TooLarge(CcringError, ValueError):
    """Requested enumeration exceeds the materialization budget."""


class NotSelfPairedLambda(CcringError, ValueError):
    """Operation needs lambda^2 = 1 but lambda is not self-paired."""
