"""Exact arithmetic for Gaussian integers and rational complex vectors.

Everything here is exact: real and imaginary parts are ints or
`fractions.Fraction`, never floats.  The distinguished element
phi = 1 + i (with |phi|^2 = 2) drives all the halving/doubling structure
in the rest of the package, so Gaussian integers get a dedicated method
for multiplication by phi.

Vectors (`CVector`) always have power-of-two length 2**n; n is called the
level.  The squared-distance measure used throughout is the *relative*
squared distance rsd(x, y) = ||x - y||^2 / len(x), so the scale of the
problem is level-independent.

Hot loops elsewhere avoid Fraction entirely via `vector_to_scaled`, which
rewrites a vector as integer (re, im) pairs over one common positive
denominator.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Iterable, NamedTuple, Union

RationalLike = Union[int, Fraction]


class NotDivisible(ValueError):
    """Raised when an exact division leaves a remainder, as when a QComplex
    with non-integer parts is read as a Gaussian integer."""


# ---------------------------------------------------------------------------
# Scalars: each is the tuple (re, im).  A GaussianInt with a GaussianInt or
# an int gives a GaussianInt; a scalar with a QComplex or a Fraction, on
# either side, gives a QComplex; any other operand is a TypeError.
# ---------------------------------------------------------------------------


class GaussianInt(NamedTuple):
    """Element a + b*i of Z[i]."""

    re: int = 0
    im: int = 0

    def __add__(self, other: ScalarLike) -> ScalarLike:
        if isinstance(other, int):
            other = GaussianInt(other)
        if isinstance(other, GaussianInt):
            return GaussianInt(self.re + other.re, self.im + other.im)
        return QComplex(*self) + other

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> ScalarLike:
        return self + -other

    def __rsub__(self, other: ScalarLike) -> ScalarLike:
        return -self + other

    def __neg__(self) -> GaussianInt:
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> ScalarLike:
        if isinstance(other, int):
            other = GaussianInt(other)
        if isinstance(other, GaussianInt):
            return GaussianInt(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        return QComplex(*self) * other

    __rmul__ = __mul__

    def mul_phi(self) -> GaussianInt:
        """Multiply by phi = 1 + i."""
        return GaussianInt(self.re - self.im, self.re + self.im)

    def __str__(self) -> str:
        return f"{self.re},{self.im}"


def phi_pow(k: int) -> GaussianInt:
    """phi**k for k >= 0."""
    if k < 0:
        raise ValueError("negative power of phi is not a Gaussian integer")
    z = GaussianInt(1, 0)
    for _ in range(k):
        z = z.mul_phi()
    return z


class QComplex(tuple):
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ()

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> QComplex:
        return tuple.__new__(cls, (Fraction(re), Fraction(im)))

    def __getnewargs__(self) -> tuple[Fraction, Fraction]:
        # tuple's own passes the pair as one argument
        return tuple(self)

    re = property(itemgetter(0))
    im = property(itemgetter(1))

    def __add__(self, other: ScalarLike) -> QComplex:
        other = _as_qcomplex(other)
        return QComplex(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> QComplex:
        return self + -other

    def __rsub__(self, other: ScalarLike) -> QComplex:
        return -self + other

    def __neg__(self) -> QComplex:
        return QComplex(-self.re, -self.im)

    def __mul__(self, other: ScalarLike) -> QComplex:
        if isinstance(other, CVector):
            return NotImplemented  # the vector scales itself in __rmul__
        other = _as_qcomplex(other)
        return QComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def norm_sq(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def to_gaussian(self) -> GaussianInt:
        if self.re.denominator != 1 or self.im.denominator != 1:
            raise NotDivisible(f"{self} has non-integer parts")
        return GaussianInt(int(self.re), int(self.im))

    def __str__(self) -> str:
        return f"{self.re},{self.im}"

    def __repr__(self) -> str:
        return f"QComplex({self.re!r}, {self.im!r})"


ScalarLike = Union[QComplex, GaussianInt, int, Fraction]


def _as_qcomplex(value: ScalarLike) -> QComplex:
    """A scalar as a QComplex; TypeError for any other value, so that no
    operand falls through to tuple concatenation."""
    if isinstance(value, QComplex):
        return value
    if isinstance(value, GaussianInt):
        return QComplex(*value)
    if isinstance(value, (int, Fraction)):
        return QComplex(value)
    raise TypeError(f"not a scalar: {type(value).__name__}")


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


def level_of(size: int) -> int:
    """The level n with size == 2**n; ValueError for any other length."""
    if size <= 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    return size.bit_length() - 1


class CVector(tuple):
    """Immutable vector with power-of-two length: the tuple of its QComplex
    coordinates."""

    __slots__ = ()

    def __new__(cls, coords: Iterable[ScalarLike]) -> CVector:
        self = tuple.__new__(cls, map(_as_qcomplex, coords))
        level_of(len(self))
        return self

    @property
    def n(self) -> int:
        """Level: log2 of the length."""
        return len(self).bit_length() - 1

    def _check_same_level(self, other: CVector) -> None:
        if len(self) != len(other):
            raise ValueError("vectors have different levels")

    def __add__(self, other: CVector) -> CVector:
        self._check_same_level(other)
        return CVector(a + b for a, b in zip(self, other))

    # a plain tuple on the left would otherwise concatenate
    __radd__ = __add__

    def __sub__(self, other: CVector) -> CVector:
        self._check_same_level(other)
        return CVector(a - b for a, b in zip(self, other))

    def __neg__(self) -> CVector:
        return CVector(-a for a in self)

    def __mul__(self, scalar: ScalarLike) -> CVector:
        z = _as_qcomplex(scalar)
        return CVector(a * z for a in self)

    __rmul__ = __mul__

    def halves(self) -> tuple[CVector, CVector]:
        if len(self) < 2:
            raise ValueError("level-0 vector has no halves")
        mid = len(self) // 2
        return CVector(self[:mid]), CVector(self[mid:])

    def norm_sq(self) -> Fraction:
        return sum((a.norm_sq() for a in self), Fraction(0))

    def __repr__(self) -> str:
        return f"CVector([{', '.join(map(str, self))}])"


def rsd(x: CVector, y: CVector) -> Fraction:
    """Relative squared distance ||x - y||^2 / len(x)."""
    return (x - y).norm_sq() / len(x)


# ---------------------------------------------------------------------------
# Canonical text formats
# ---------------------------------------------------------------------------

# rational: optional minus, digits, optional /digits with positive denominator
_RATIONAL_RE = _re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse 'p' or 'p/q' with q > 0; rejects anything else."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed rational: {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def parse_int(text: str) -> int:
    """Parse 'p', an optional minus and ASCII digits, as `parse_rational`
    reads a numerator; rejects anything else."""
    text = text.strip()
    if "/" in text or not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed integer: {text!r}")
    return int(text)


def parse_qcomplex(text: str) -> QComplex:
    """Parse 're,im' where both parts are rationals."""
    parts = text.strip().split(",")
    if len(parts) != 2:
        raise ValueError(f"malformed coordinate: {text!r}")
    return QComplex(parse_rational(parts[0]), parse_rational(parts[1]))


def parse_vector(text: str) -> CVector:
    """Parse a whitespace-separated list of coordinates."""
    tokens = text.split()
    if not tokens:
        raise ValueError("empty vector")
    return CVector(parse_qcomplex(tok) for tok in tokens)


def format_vector(v: CVector | Iterable[QComplex | GaussianInt]) -> str:
    # the same text as each scalar's __str__, inlined: calling str() per
    # coordinate made output of large lists about 30% slower
    return " ".join([f"{z.re},{z.im}" for z in v])


# ---------------------------------------------------------------------------
# Scaled-integer representation (internal fast path)
# ---------------------------------------------------------------------------

GPair = tuple[int, int]


def vector_to_scaled(v: CVector) -> tuple[tuple[GPair, ...], int]:
    """Rewrite v as integer (re, im) pairs over one positive denominator."""
    den = 1
    for z in v:
        den = lcm(den, z.re.denominator, z.im.denominator)
    pairs = tuple((int(z.re * den), int(z.im * den)) for z in v)
    return pairs, den
