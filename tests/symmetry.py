"""The lattice symmetries and the halving identity, as test helpers.

The decoder's recursion rests on these facts, and the tests state them
through the helpers below: the half swap and the transform T map the
lattice onto itself, T preserves distances and squares to i, and the
relative squared distance splits across the two halves of the recursion.
Multiplication and division by phi over the rationals, and joining two
halves, serve only these statements.  `combine_candidates` is the
reference for the decoder's reconstruction of a member from one half and
one transform.  The library itself never calls any of them, so they live
with the tests.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from bwlist.arith import CVector, GaussianInt, QComplex, rsd
from bwlist.decode import _PAIRING_SPECS
from bwlist.lattice import BWPoint
from reference import gaussian_norm_sq

PAIRINGS = ("0+", "0-", "1+", "1-")


def to_cvector(point: BWPoint) -> CVector:
    """A lattice point as an exact complex vector."""
    return CVector(point)


def norm_sq(point: BWPoint) -> int:
    """Squared Euclidean norm of a lattice point."""
    return sum(gaussian_norm_sq(z) for z in point)


def join(left: CVector, right: CVector) -> CVector:
    """[left, right] as one vector; the halves must have equal length."""
    if len(left) != len(right):
        raise ValueError("halves must have equal length")
    return CVector(tuple(left) + tuple(right))


def mul_phi(x: QComplex | CVector) -> QComplex | CVector:
    """x * phi, coordinatewise for a vector."""
    if isinstance(x, CVector):
        return CVector(mul_phi(z) for z in x)
    return QComplex(x.re - x.im, x.re + x.im)


def div_phi(x: QComplex | CVector) -> QComplex | CVector:
    """x / phi, coordinatewise for a vector; always exact over the
    rationals."""
    if isinstance(x, CVector):
        return CVector(div_phi(z) for z in x)
    return QComplex((x.re + x.im) / 2, (x.im - x.re) / 2)


def swap_halves(x: CVector) -> CVector:
    """[x0, x1] -> [x1, x0]; preserves membership at every level >= 1."""
    x0, x1 = x.halves()
    return join(x1, x0)


def automorphism_t(x: CVector) -> CVector:
    """The distance-preserving map [x0, x1] -> (phi/2) [x0 + x1, x0 - x1].

    Maps the lattice onto itself; applying it twice multiplies by i.
    """
    half = Fraction(1, 2)
    x0, x1 = x.halves()
    return join(mul_phi(x0 + x1) * half, mul_phi(x0 - x1) * half)


def half_relation(r: CVector, w: CVector) -> tuple[Fraction, Fraction, Fraction]:
    """Split rsd(r, w) across the two halves of the recursion.

    Writing w = [u, u + phi*v] (v is determined exactly for any rational w),
    returns (eta, eta0, eta1) with

        eta  = rsd(r, w)
        eta0 = rsd(r0, u)
        eta1 = rsd((r1 - u) / phi, v)

    which always satisfy eta = eta0/2 + eta1.  Requires level >= 1.
    """
    r0, r1 = r.halves()
    w0, w1 = w.halves()
    v = div_phi(w1 - w0)
    eta = rsd(r, w)
    eta0 = rsd(r0, w0)
    eta1 = rsd(div_phi(r1 - w0), v)
    return eta, eta0, eta1


def combine_candidates(pairing: str, known: Sequence[GaussianInt],
                       transformed: Sequence[GaussianInt]) -> CVector:
    """Assemble a level-n candidate from level-(n-1) members.

    `pairing` says which half `known` is (0 = left, 1 = right) and which
    transformed word `transformed` decodes ('+' for (phi/2)(w0 + w1),
    '-' for (phi/2)(w0 - w1)).  It reads the same `_PAIRING_SPECS` table
    as the decoder's pair scan, so the tests that pin it pin that table
    too.
    """
    if pairing not in PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    if len(known) != len(transformed):
        raise ValueError("halves must have equal length")
    t_sign, k_sign, unknown_left = _PAIRING_SPECS[pairing]
    other = [
        GaussianInt(t_sign * (z.re + z.im) + k_sign * k.re,
                    t_sign * (z.im - z.re) + k_sign * k.im)
        for k, z in zip(known, transformed)
    ]
    known = list(known)
    coords = other + known if unknown_left else known + other
    return CVector(coords)
