"""Lattice and code mathematics that only the tests use.

The multilinear-coefficient view.  A vector is a member iff its
subset-Moebius coefficients m_S are divisible by phi^|S| for every S in
{0,1}^n, and `multilinear_interpolate` recovers the quotients
a_S = m_S / phi^|S| exactly.  `multilinear_evaluate` is the inverse map,
and `random_member` samples members through it.

The Reed-Muller layer bridge.  Peeling a vector digit by digit in base phi
reads off, at layer d, the coordinatewise parity word (re + im) mod 2, and
each peel step divides exactly by phi.  For n <= 5, a vector is a lattice
member iff layer d's word is a Reed-Muller codeword of degree d (embedded
0 -> 0, 1 -> 1) for every d, with a Gaussian-integer residual, so the peel
doubles as a membership test.  From n = 6 on this breaks in both
directions, because subtracting the 0/1 embedding of a layer word produces
carries two layers up (2 = -i*phi^2) with doubled degree:

* about half of all random level-6 members have a layer-5 parity word of
  degree 6 (`bw_to_rm_layers` raises ValueError: the member has no layered
  form);
* the 64-dimensional vector phi^3 * (x0 x1 x2 XOR x3 x4 x5) peels cleanly
  yet is not a member (`bw_to_rm_layers` raises NotAMember from its
  explicit membership check).

Both bridge functions therefore never trust the degree checks alone:
`bw_from_rm_layers` validates its result and `bw_to_rm_layers` tests
membership up front.  The scaled subspace indicators that
`rmcode.lower_bound_instance` builds peel cleanly at every level, so the
crafted-word construction is unaffected.

`gaussian_binomial` counts the subspaces that construction enumerates, and
`lower_eps` is the closed-form list-size lower bound the crafted words
realize.  The library itself never calls any of these, so they live with
the tests.
"""
from __future__ import annotations

import random
from decimal import MAX_EMAX, Decimal, localcontext
from fractions import Fraction
from typing import Optional, Sequence

from bwlist.arith import (
    CVector,
    GaussianInt,
    NotDivisible,
    RationalLike,
    level_of,
    phi_pow,
)
from bwlist.lattice import BWPoint, PointLike, is_member
from bwlist.rmcode import Bits, algebraic_normal_form

PHI = GaussianInt(1, 1)


def gaussian_norm_sq(z: GaussianInt) -> int:
    """|z|^2 of a Gaussian integer."""
    return z.re * z.re + z.im * z.im


class NotAMember(ValueError):
    """Raised when a vector claimed to be in the lattice is not."""


def gaussian_div_phi(z: GaussianInt) -> GaussianInt:
    """Exact division by phi; defined iff re + im is even, NotDivisible
    otherwise."""
    if (z.re + z.im) % 2:
        raise NotDivisible(f"{z} is not divisible by 1+i")
    return GaussianInt((z.re + z.im) // 2, (z.im - z.re) // 2)


def _gaussians(x: PointLike) -> list[GaussianInt]:
    """x's coordinates as Gaussian integers: ValueError on a length that is
    not a power of two, then NotAMember on a non-integer coordinate."""
    try:
        return [z.to_gaussian() for z in CVector(x)]
    except NotDivisible as exc:
        raise NotAMember(str(exc)) from exc


def point_of(x: PointLike) -> BWPoint:
    """The lattice point with x's coordinates; NotAMember if x is not a
    member."""
    coords = _gaussians(x)
    if not is_member(coords):
        raise NotAMember("vector fails the recursive halving test")
    return BWPoint(coords)


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
    return BWPoint(vals)


def multilinear_interpolate(x: PointLike) -> tuple[GaussianInt, ...]:
    """Invert `multilinear_evaluate`: the coefficients a_S of a member.

    The Moebius coefficient at mask S of any member is divisible by
    phi^|S|, so the direct inversion a_S = m_S / phi^|S| is always exact.
    A failed division is exactly a membership failure and raises
    NotAMember.
    """
    m = _gaussians(x)
    size = len(m)
    n = size.bit_length() - 1
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
                a = gaussian_div_phi(a)
        except NotDivisible:
            raise NotAMember(
                f"coefficient at mask {s} is not divisible by phi^{s.bit_count()}"
            ) from None
        coeffs.append(a)
    return tuple(coeffs)


def random_member(rng: random.Random, n: int) -> BWPoint:
    """Sample a member as `multilinear_evaluate` of random coefficients.

    Each coefficient a_S has real and imaginary parts uniform in [-3, 3],
    drawn real then imaginary, in mask order S = 0, 1, ..., 2**n - 1.
    """
    return multilinear_evaluate([GaussianInt(rng.randint(-3, 3),
                                             rng.randint(-3, 3))
                                 for _ in range(1 << n)])


def rm_is_codeword(word: Sequence[int], degree: int) -> bool:
    """True iff the word has algebraic degree <= degree."""
    coeffs = algebraic_normal_form(word)
    return all(
        c == 0 for s, c in enumerate(coeffs) if s.bit_count() > degree
    )


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional linear subspaces of {0,1}^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def bw_from_rm_layers(
    layers: Sequence[Sequence[int]],
    residual: Sequence[GaussianInt] | None = None,
) -> BWPoint:
    """Assemble sum_d phi^d * layer_d + phi^n * residual as a lattice point.

    Every layer must pass its degree-d check.  For n <= 5 the sum is then
    always a member; for n >= 6 some degree-valid layer stacks are not,
    and `point_of` rejects those with NotAMember rather than returning
    a vector outside the lattice.
    """
    n = len(layers)
    size = 1 << n
    all_bits = []
    for d, layer in enumerate(layers):
        bits = tuple(layer)
        if len(bits) != size:
            raise ValueError(f"layer {d} has length {len(bits)}, expected {size}")
        if not rm_is_codeword(bits, d):
            raise ValueError(f"layer {d} fails the degree-{d} check")
        all_bits.append(bits)
    if residual is None:
        residual = (GaussianInt(0, 0),) * size
    elif len(residual) != size:
        raise ValueError("residual length does not match layer length")
    top = phi_pow(n)
    coords = []
    for j in range(size):
        z = top * residual[j]
        for d in range(n):
            if all_bits[d][j]:
                z = z + phi_pow(d)
        coords.append(z)
    return point_of(coords)


def bw_to_rm_layers(
    x: PointLike,
) -> tuple[tuple[Bits, ...], tuple[GaussianInt, ...]]:
    """Peel a member into its RM layers and Gaussian residual.

    Inverts `bw_from_rm_layers` exactly when it succeeds.  Raises
    NotAMember if the vector is not a lattice member.  For a genuine
    member the peel can still fail for n >= 6: carries from the 0/1
    layer embedding may push a parity word past its degree-d bound, in
    which case no layered form exists and ValueError is raised.  For
    n <= 5 members always peel cleanly.
    """
    work = list(point_of(x))
    n = len(work).bit_length() - 1
    layers = []
    for d in range(n):
        bits = tuple((a + b) & 1 for a, b in work)
        if not rm_is_codeword(bits, d):
            raise ValueError(
                f"member has no layered form: layer {d} parity word has degree > {d}"
            )
        # subtract the layer and divide by phi; exact by parity choice
        nxt = []
        for (a, b), bit in zip(work, bits):
            a -= bit
            nxt.append(((a + b) // 2, (b - a) // 2))
        work = nxt
        layers.append(bits)
    residual = tuple(GaussianInt(a, b) for a, b in work)
    return tuple(layers), residual


def _pow2_exponent(v: Fraction) -> Optional[int]:
    """t with v = 2**t exactly, else None."""
    num, den = v.numerator, v.denominator
    if num & (num - 1) or den & (den - 1):
        return None
    return (num.bit_length() - 1) - (den.bit_length() - 1)


def lower_eps(eps: RationalLike, n: int) -> int:
    """Worst-case list-size lower bound at radius 1 - eps, clamped to >= 1.

    Computes floor(2**((n - L)(L - 1))), L = log2(1/eps).  When 1/eps is a
    power of two this is pure integer arithmetic; otherwise L is
    transcendental, the exponent is provably never an integer, and the
    floor is found by raising `decimal`'s working precision until it
    stabilizes.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if n < 0:
        raise ValueError("level must be >= 0")
    t = _pow2_exponent(1 / eps)
    if t is not None:
        e = (n - t) * (t - 1)
        return (1 << e) if e > 0 else 1
    prev = None
    prec = 36
    while prec <= 300_000:
        with localcontext() as ctx:
            ctx.prec = prec
            ctx.Emax = MAX_EMAX
            ln2 = Decimal(2).ln()
            level = (Decimal(eps.denominator) / eps.numerator).ln() / ln2
            cur = int(((n - level) * (level - 1) * ln2).exp())
        if cur == prev:
            return max(1, cur)
        prev = cur
        prec *= 2
    raise ArithmeticError("lower_eps failed to stabilize")  # pragma: no cover
