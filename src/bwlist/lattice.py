"""Barnes-Wall lattices over Z[i]: construction and membership.

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
from typing import Iterable, Sequence, Union

from bwlist.arith import (
    CVector,
    GaussianInt,
    GPair,
    NotDivisible,
    QComplex,
    format_vector,
    level_of,
    phi_pow,
)


class NotAMember(ValueError):
    """Raised when a vector claimed to be in the lattice is not."""


PointLike = Union["BWPoint", CVector, Sequence]


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


def _as_pairs(x: PointLike) -> list[GPair]:
    """Normalize to integer (re, im) pairs of power-of-two length.

    Raises ValueError on a length that is not a power of two, then
    NotDivisible on a non-integer coordinate.
    """
    coords = tuple(x)
    level_of(len(coords))
    out = []
    for z in coords:
        if isinstance(z, QComplex):
            z = z.to_gaussian()
        elif not isinstance(z, GaussianInt):
            raise TypeError(f"unsupported coordinate type: {type(z).__name__}")
        out.append((z.re, z.im))
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
    return member_pairs(pairs)


# ---------------------------------------------------------------------------
# Lattice points
# ---------------------------------------------------------------------------


class BWPoint(tuple):
    """A lattice member: the tuple of its Gaussian-integer coordinates.

    Build with `BWPoint.of` (validates membership) or `BWPoint.unchecked`
    (trusted construction, e.g. points assembled by the recursion itself).
    """

    __slots__ = ()

    @classmethod
    def of(cls, coords: PointLike) -> BWPoint:
        try:
            pairs = _as_pairs(coords)
        except NotDivisible as exc:
            raise NotAMember(str(exc)) from exc
        if not member_pairs(pairs):
            raise NotAMember("vector fails the recursive halving test")
        return cls(GaussianInt(a, b) for a, b in pairs)

    @classmethod
    def unchecked(cls, coords: Iterable[GaussianInt]) -> BWPoint:
        return cls(coords)

    @property
    def coords(self) -> tuple[GaussianInt, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self).bit_length() - 1

    def key(self) -> tuple[tuple[int, int], ...]:
        """Canonical sort key: lexicographic by (re, im) pairs."""
        return tuple((z.re, z.im) for z in self)

    def __str__(self) -> str:
        return format_vector(self)

    def __repr__(self) -> str:
        return f"BWPoint(coords={tuple(self)!r})"


# ---------------------------------------------------------------------------
# Generator matrix
# ---------------------------------------------------------------------------


def generator_matrix(n: int) -> tuple[tuple[GaussianInt, ...], ...]:
    """Rows of the n-fold Kronecker power of [[1, 1], [0, phi]].

    Row S is `multilinear_evaluate` of the S-th unit coefficient vector:
    phi^|S| in every column j with S a subset of j (S & j == S), 0
    elsewhere.  The rows generate the level-n lattice over Z[i]; the
    matrix is upper triangular.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    zero = GaussianInt(0, 0)
    powers = [phi_pow(k) for k in range(n + 1)]
    size = 1 << n
    return tuple(
        tuple(powers[s.bit_count()] if s & j == s else zero
              for j in range(size))
        for s in range(size)
    )


# ---------------------------------------------------------------------------
# Multilinear coefficient view
# ---------------------------------------------------------------------------


def multilinear_evaluate(coeffs: Sequence[GaussianInt]) -> BWPoint:
    """Assemble the member with coordinates sum_{S subset j} a_S phi^|S|.

    `coeffs` has one Gaussian-integer entry per subset mask S in [0, 2**n).
    Every output is a member.
    """
    size = len(coeffs)
    n = level_of(size)
    vals = [coeffs[s] * phi_pow(s.bit_count()) for s in range(size)]
    for b in range(n):
        bit = 1 << b
        for j in range(size):
            if j & bit:
                vals[j] = vals[j] + vals[j ^ bit]
    return BWPoint.unchecked(vals)


def multilinear_interpolate(x: PointLike) -> tuple[GaussianInt, ...]:
    """Invert `multilinear_evaluate`: the coefficients a_S of a member.

    The Moebius coefficient at mask S of any member is divisible by
    phi^|S|, so the direct inversion a_S = m_S / phi^|S| is always exact.
    A failed division is exactly a membership failure and raises
    NotAMember.
    """
    try:
        pairs = _as_pairs(x)
    except NotDivisible as exc:
        raise NotAMember(str(exc)) from exc
    size = len(pairs)
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
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def random_member(rng: random.Random, n: int) -> BWPoint:
    """Sample a member as `multilinear_evaluate` of random coefficients.

    Each coefficient a_S has real and imaginary parts uniform in [-3, 3],
    drawn real then imaginary, in mask order S = 0, 1, ..., 2**n - 1.
    """
    return multilinear_evaluate([GaussianInt(rng.randint(-3, 3),
                                             rng.randint(-3, 3))
                                 for _ in range(1 << n)])
