"""Barnes-Wall lattices over Z[i]: construction, membership, symmetries.

The level-n lattice lives in dimension N = 2**n and is defined recursively:
level 0 is all of Z[i], and a level-n vector is [u, u + phi*v] with u, v
taken from level n-1.  Equivalently it is the row span (over Z[i]) of the
n-fold Kronecker power of [[1, 1], [0, phi]].

The module also exposes the multilinear-coefficient view: a vector is a
member iff its subset-Moebius coefficients m_S are divisible by phi^|S|
for every S in {0,1}^n, and `multilinear_interpolate` recovers the
quotients a_S = m_S / phi^|S| exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, Union

from bwlist.arith import (
    CVector,
    GaussianInt,
    GPair,
    NotDivisible,
    QComplex,
    format_vector,
    phi_pow,
)


class NotAMember(ValueError):
    """Raised when a vector claimed to be in the lattice is not."""


PointLike = Union["BWPoint", CVector, Sequence]


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def _as_pairs(x: PointLike) -> list[GPair]:
    """Normalize to integer (re, im) pairs; raises NotDivisible on rationals."""
    if isinstance(x, BWPoint):
        return [(z.re, z.im) for z in x.coords]
    if isinstance(x, CVector):
        return [(int(z.re), int(z.im)) for z in x.to_gaussian()]
    out = []
    for z in x:
        if isinstance(z, GaussianInt):
            out.append((z.re, z.im))
        elif isinstance(z, QComplex):
            g = z.to_gaussian()
            out.append((g.re, g.im))
        else:
            raise TypeError(f"unsupported coordinate type: {type(z).__name__}")
    return out


def member_pairs(pairs: Sequence[GPair]) -> bool:
    """Membership test on integer (re, im) pairs of power-of-two length.

    The fast path behind `is_member`, for callers that already hold
    integer pairs: no length or type checks are made.
    """
    if len(pairs) == 1:
        return True
    mid = len(pairs) // 2
    u = pairs[:mid]
    v = []
    for (a, b), (c, d) in zip(u, pairs[mid:]):
        x, y = c - a, d - b
        if (x + y) & 1:
            return False
        v.append(((x + y) // 2, (y - x) // 2))
    return member_pairs(u) and member_pairs(v)


def is_member(x: PointLike) -> bool:
    """True iff x is a lattice member at its level.

    Accepts a BWPoint, a CVector, or a sequence of GaussianInt/QComplex.
    Vectors with non-integer coordinates are simply not members; a length
    that is not a power of two raises ValueError.
    """
    try:
        pairs = _as_pairs(x)
    except NotDivisible:
        return False
    size = len(pairs)
    if size == 0 or size & (size - 1):
        raise ValueError(f"vector length {size} is not a power of two")
    return member_pairs(pairs)


# ---------------------------------------------------------------------------
# Lattice points
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BWPoint:
    """A lattice member with Gaussian-integer coordinates.

    Build with `BWPoint.of` (validates membership) or `BWPoint.unchecked`
    (trusted construction, e.g. points assembled by the recursion itself).
    """

    coords: tuple[GaussianInt, ...]

    @classmethod
    def of(cls, coords: PointLike) -> BWPoint:
        try:
            pairs = _as_pairs(coords)
        except NotDivisible as exc:
            raise NotAMember(str(exc)) from exc
        size = len(pairs)
        if size == 0 or size & (size - 1):
            raise ValueError(f"vector length {size} is not a power of two")
        if not member_pairs(pairs):
            raise NotAMember("vector fails the recursive halving test")
        return cls(tuple(GaussianInt(a, b) for a, b in pairs))

    @classmethod
    def unchecked(cls, coords: Iterable[GaussianInt]) -> BWPoint:
        return cls(tuple(coords))

    @property
    def n(self) -> int:
        return len(self.coords).bit_length() - 1

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[GaussianInt]:
        return iter(self.coords)

    def __getitem__(self, j: int) -> GaussianInt:
        return self.coords[j]

    def key(self) -> tuple[tuple[int, int], ...]:
        """Canonical sort key: lexicographic by (re, im) pairs."""
        return tuple((z.re, z.im) for z in self.coords)

    def norm_sq(self) -> int:
        return sum(z.norm_sq() for z in self.coords)

    def to_cvector(self) -> CVector:
        return CVector(self.coords)

    def __str__(self) -> str:
        return format_vector(self.coords)


# ---------------------------------------------------------------------------
# Generator matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneratorMatrix:
    """Rows generate the level-n lattice over Z[i]; upper triangular."""

    n: int
    rows: tuple[tuple[GaussianInt, ...], ...]

    def __iter__(self) -> Iterator[tuple[GaussianInt, ...]]:
        return iter(self.rows)

    def diagonal(self) -> tuple[GaussianInt, ...]:
        return tuple(self.rows[j][j] for j in range(len(self.rows)))


def generator_matrix(n: int) -> GeneratorMatrix:
    """n-fold Kronecker power of [[1, 1], [0, phi]]."""
    if n < 0:
        raise ValueError("level must be >= 0")
    zero = GaussianInt(0, 0)
    rows: list[tuple[GaussianInt, ...]] = [(GaussianInt(1, 0),)]
    for _ in range(n):
        size = len(rows)
        top = [row + row for row in rows]
        pad = (zero,) * size
        bottom = [pad + tuple(z.mul_phi() for z in row) for row in rows]
        rows = top + bottom
    return GeneratorMatrix(n, tuple(rows))


def generator_combination(coeffs: Sequence[GaussianInt], n: int) -> BWPoint:
    """Integer combination sum_i coeffs[i] * row_i of the level-n generator."""
    gen = generator_matrix(n)
    if len(coeffs) != len(gen.rows):
        raise ValueError("coefficient count does not match generator size")
    size = 1 << n
    acc = [GaussianInt(0, 0)] * size
    for c, row in zip(coeffs, gen.rows):
        if c.re or c.im:
            for j in range(size):
                acc[j] = acc[j] + c * row[j]
    return BWPoint.unchecked(acc)


# ---------------------------------------------------------------------------
# Symmetries
# ---------------------------------------------------------------------------


def swap_halves(x: CVector) -> CVector:
    """[x0, x1] -> [x1, x0]; preserves membership at every level >= 1."""
    x0, x1 = x.halves()
    return CVector.join(x1, x0)


def automorphism_t(x: CVector) -> CVector:
    """The distance-preserving map [x0, x1] -> (phi/2) [x0 + x1, x0 - x1].

    Maps the lattice onto itself; applying it twice multiplies by i.
    """
    half = Fraction(1, 2)
    x0, x1 = x.halves()
    return CVector.join((x0 + x1).mul_phi() * half, (x0 - x1).mul_phi() * half)


# ---------------------------------------------------------------------------
# Multilinear coefficient view
# ---------------------------------------------------------------------------


def multilinear_evaluate(
    coeffs: Sequence[GaussianInt],
    residual: Sequence[GaussianInt] | None = None,
) -> BWPoint:
    """Assemble the member with coordinates sum_{S subset j} a_S phi^|S| + phi^n g_j.

    `coeffs` has one Gaussian-integer entry per subset mask S in [0, 2**n);
    `residual` defaults to zero.  Every output is a member.
    """
    size = len(coeffs)
    if size == 0 or size & (size - 1):
        raise ValueError("coefficient count is not a power of two")
    n = size.bit_length() - 1
    vals = [coeffs[s] * phi_pow(s.bit_count()) for s in range(size)]
    for b in range(n):
        bit = 1 << b
        for j in range(size):
            if j & bit:
                vals[j] = vals[j] + vals[j ^ bit]
    if residual is not None:
        if len(residual) != size:
            raise ValueError("residual length does not match coefficients")
        top = phi_pow(n)
        for j in range(size):
            vals[j] = vals[j] + top * residual[j]
    return BWPoint.unchecked(vals)


def multilinear_interpolate(
    x: PointLike,
) -> tuple[tuple[GaussianInt, ...], tuple[GaussianInt, ...]]:
    """Invert `multilinear_evaluate`; canonical form has residual zero.

    Returns (coeffs, residual) with residual identically zero: the Moebius
    coefficient at mask S of any member is divisible by phi^|S|, so the
    direct inversion a_S = m_S / phi^|S| is always exact.  A failed
    division is exactly a membership failure and raises NotAMember.
    """
    try:
        pairs = _as_pairs(x)
    except NotDivisible as exc:
        raise NotAMember(str(exc)) from exc
    size = len(pairs)
    if size == 0 or size & (size - 1):
        raise ValueError(f"vector length {size} is not a power of two")
    n = size.bit_length() - 1
    m = [GaussianInt(a, b) for a, b in pairs]
    for b in range(n):
        bit = 1 << b
        for j in range(size):
            if j & bit:
                m[j] = m[j] - m[j ^ bit]
    coeffs = []
    for s in range(size):
        a = m[s]
        try:
            for _ in range(s.bit_count()):
                a = a.div_phi()
        except NotDivisible:
            raise NotAMember(
                f"coefficient at mask {s} is not divisible by phi^{s.bit_count()}"
            ) from None
        coeffs.append(a)
    zero = GaussianInt(0, 0)
    return tuple(coeffs), (zero,) * size


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _random_pairs(rng: random.Random, n: int, bound: int) -> list[GPair]:
    if n == 0:
        return [(rng.randint(-bound, bound), rng.randint(-bound, bound))]
    u = _random_pairs(rng, n - 1, bound)
    v = _random_pairs(rng, n - 1, bound)
    return u + [(a + c - d, b + c + d) for (a, b), (c, d) in zip(u, v)]


def random_member(rng: random.Random, n: int, coeff_bound: int = 3) -> BWPoint:
    """Sample a member by drawing the recursive [u, u + phi*v] leaves at random."""
    pairs = _random_pairs(rng, n, coeff_bound)
    return BWPoint.unchecked(GaussianInt(a, b) for a, b in pairs)
