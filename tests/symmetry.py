"""The lattice symmetries and the halving identity, as test helpers.

The decoder's recursion rests on these facts, and the tests state them
through the helpers below: the half swap and the transform T map the
lattice onto itself, T preserves distances and squares to i, and the
relative squared distance splits across the two halves of the recursion.
Multiplication and division by phi over the rationals, and joining two
halves, serve only these statements.  The library itself never calls
any of them, so they live with the tests.
"""
from __future__ import annotations

from fractions import Fraction

from bwlist.arith import CVector, QComplex, rsd
from bwlist.lattice import BWPoint


def to_cvector(point: BWPoint) -> CVector:
    """A lattice point as an exact complex vector."""
    return CVector(point.coords)


def norm_sq(point: BWPoint) -> int:
    """Squared Euclidean norm of a lattice point."""
    return sum(z.norm_sq() for z in point.coords)


def join(left: CVector, right: CVector) -> CVector:
    """[left, right] as one vector; the halves must have equal length."""
    if len(left) != len(right):
        raise ValueError("halves must have equal length")
    return CVector(left.coords + right.coords)


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
