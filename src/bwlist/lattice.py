"""Barnes-Wall lattices over Z[i]: construction and membership.

The level-n lattice lives in dimension N = 2**n and is defined recursively:
level 0 is all of Z[i], and a level-n vector is [u, u + phi*v] with u, v
taken from level n-1.  Equivalently it is the row span (over Z[i]) of the
n-fold Kronecker power of [[1, 1], [0, phi]].
"""

from __future__ import annotations

from typing import Sequence, Union

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

    The constructor trusts its caller, as the decoder's recursion, whose
    points are members by construction; `is_member` is the check.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return format_vector(self)

    def __repr__(self) -> str:
        return f"BWPoint(coords={tuple(self)!r})"


# ---------------------------------------------------------------------------
# Generator matrix
# ---------------------------------------------------------------------------


def generator_matrix(n: int) -> tuple[tuple[GaussianInt, ...], ...]:
    """Rows of the n-fold Kronecker power of [[1, 1], [0, phi]].

    Row S holds phi^|S| in every column j with S a subset of j
    (S & j == S), 0 elsewhere.  The rows generate the level-n lattice over
    Z[i]; the matrix is upper triangular.
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
