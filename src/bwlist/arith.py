"""Exact arithmetic for Gaussian integers and rational complex vectors.

Everything here is exact: real and imaginary parts are ints or
`fractions.Fraction`, never floats.  The distinguished element
phi = 1 + i (with |phi|^2 = 2) drives all the halving/doubling structure
in the rest of the package, so Gaussian integers get dedicated methods
for multiplication and exact division by phi.

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
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Union

RationalLike = Union[int, Fraction]


class NotDivisible(ValueError):
    """Raised when an exact division by phi (or 2) leaves a remainder."""


# ---------------------------------------------------------------------------
# Gaussian integers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianInt:
    """Element a + b*i of Z[i]."""

    re: int = 0
    im: int = 0

    def __add__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: GaussianInt) -> GaussianInt:
        return GaussianInt(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussianInt:
        return GaussianInt(-self.re, -self.im)

    def __mul__(self, other: GaussianInt | int) -> GaussianInt:
        if isinstance(other, int):
            return GaussianInt(self.re * other, self.im * other)
        return GaussianInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, other: int) -> GaussianInt:
        return self.__mul__(other)

    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im

    def mul_phi(self) -> GaussianInt:
        """Multiply by phi = 1 + i."""
        return GaussianInt(self.re - self.im, self.re + self.im)

    def div_phi(self) -> GaussianInt:
        """Exact division by phi; defined iff re + im is even."""
        if (self.re + self.im) % 2:
            raise NotDivisible(f"{self} is not divisible by 1+i")
        return GaussianInt((self.re + self.im) // 2, (self.im - self.re) // 2)

    def __str__(self) -> str:
        return f"{self.re},{self.im}"


PHI = GaussianInt(1, 1)


def phi_pow(k: int) -> GaussianInt:
    """phi**k for k >= 0."""
    if k < 0:
        raise ValueError("negative power of phi is not a Gaussian integer")
    z = GaussianInt(1, 0)
    for _ in range(k):
        z = z.mul_phi()
    return z


# ---------------------------------------------------------------------------
# Rational complex scalars
# ---------------------------------------------------------------------------


class QComplex:
    """Complex number with exact rational real and imaginary parts.

    Treat instances as immutable.  Multiplication accepts QComplex,
    GaussianInt, Fraction and int on either side.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0) -> None:
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QComplex):
            return self.re == other.re and self.im == other.im
        if isinstance(other, GaussianInt):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __add__(self, other: QComplex) -> QComplex:
        return QComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: QComplex) -> QComplex:
        return QComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> QComplex:
        return QComplex(-self.re, -self.im)

    def __mul__(self, other: QComplex | GaussianInt | RationalLike) -> QComplex:
        if isinstance(other, (int, Fraction)):
            return QComplex(self.re * other, self.im * other)
        if not isinstance(other, (QComplex, GaussianInt)):
            return NotImplemented
        return QComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, other: RationalLike) -> QComplex:
        return self.__mul__(other)

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
    if isinstance(value, QComplex):
        return value
    if isinstance(value, GaussianInt):
        return QComplex(value.re, value.im)
    return QComplex(value)


# ---------------------------------------------------------------------------
# Vectors
# ---------------------------------------------------------------------------


def level_of(size: int) -> int:
    """The level n with size == 2**n; ValueError for any other length."""
    if size <= 0 or size & (size - 1):
        raise ValueError(f"length {size} is not a power of two")
    return size.bit_length() - 1


class CVector:
    """Immutable vector of QComplex coordinates with power-of-two length."""

    __slots__ = ("coords",)

    def __init__(self, coords: Iterable[ScalarLike]) -> None:
        self.coords = tuple(_as_qcomplex(c) for c in coords)
        level_of(len(self.coords))

    @property
    def n(self) -> int:
        """Level: log2 of the length."""
        return len(self.coords).bit_length() - 1

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, j: int) -> QComplex:
        return self.coords[j]

    def __iter__(self) -> Iterator[QComplex]:
        return iter(self.coords)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, CVector):
            return self.coords == other.coords
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coords)

    def _check_same_level(self, other: CVector) -> None:
        if len(self.coords) != len(other.coords):
            raise ValueError("vectors have different levels")

    def __add__(self, other: CVector) -> CVector:
        self._check_same_level(other)
        return CVector(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: CVector) -> CVector:
        self._check_same_level(other)
        return CVector(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> CVector:
        return CVector(-a for a in self.coords)

    def __mul__(self, scalar: ScalarLike) -> CVector:
        z = _as_qcomplex(scalar)
        return CVector(a * z for a in self.coords)

    def __rmul__(self, scalar: ScalarLike) -> CVector:
        return self.__mul__(scalar)

    def halves(self) -> tuple[CVector, CVector]:
        if len(self.coords) < 2:
            raise ValueError("level-0 vector has no halves")
        mid = len(self.coords) // 2
        return CVector(self.coords[:mid]), CVector(self.coords[mid:])

    def norm_sq(self) -> Fraction:
        return sum((a.norm_sq() for a in self.coords), Fraction(0))

    def to_gaussian(self) -> tuple[GaussianInt, ...]:
        return tuple(a.to_gaussian() for a in self.coords)

    def __repr__(self) -> str:
        return f"CVector([{', '.join(map(str, self.coords))}])"


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
