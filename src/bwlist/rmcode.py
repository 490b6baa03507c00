"""Reed-Muller codes, binary subspaces and crafted received words.

Binary words of length 2**n are boolean functions on {0,1}^n (coordinate j
is the value at the point with bit pattern j).  RM(d, n) is the set of
such functions of algebraic degree <= d; `algebraic_normal_form` is the
XOR Moebius transform that exposes the degree.

`lower_bound_instance` builds received words with provably many
equidistant lattice members: scaled indicator functions of linear
subspaces.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb
from typing import Iterator, NamedTuple, Sequence

from bwlist.arith import CVector, GaussianInt, level_of, phi_pow
from bwlist.decode import DecodeList
from bwlist.lattice import member_pairs

Bits = tuple[int, ...]


def algebraic_normal_form(word: Sequence[int]) -> Bits:
    """Monomial coefficients: coeff[S] = XOR of bits over subsets of S."""
    bits = tuple(word)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    n = level_of(len(bits))
    coeffs = list(bits)
    for b in range(n):
        bit = 1 << b
        for j in range(1 << n):
            if j & bit:
                coeffs[j] ^= coeffs[j ^ bit]
    return tuple(coeffs)


# rm_min_distance refuses codes of more than 2**_RM_ENUM_MAX_BITS bits in all
_RM_ENUM_MAX_BITS = 22


def rm_enumerate(degree: int, nvars: int) -> Iterator[Bits]:
    """All codewords of RM(degree, nvars), coefficient order."""
    if nvars < 0:
        raise ValueError("nvars must be >= 0")
    size = 1 << nvars
    monomials = [s for s in range(size) if s.bit_count() <= degree]
    for index in range(1 << len(monomials)):
        coeffs = [0] * size
        for pos, s in enumerate(monomials):
            if index >> pos & 1:
                coeffs[s] = 1
        # evaluate: the XOR Moebius transform is its own inverse
        yield algebraic_normal_form(coeffs)


def rm_min_distance(degree: int, nvars: int) -> int:
    """Minimum Hamming weight over nonzero codewords, by enumeration.

    RM(degree, nvars) has 2^k codewords of 2^nvars bits each, k the number
    of monomials of degree <= degree.  A code of more than
    2^_RM_ENUM_MAX_BITS bits in all is refused before any codeword is
    enumerated, whether k or nvars is what makes it large."""
    if nvars < 0:
        raise ValueError("nvars must be >= 0")
    k = sum(comb(nvars, i) for i in range(min(degree, nvars) + 1))
    if k + nvars > _RM_ENUM_MAX_BITS:
        raise ValueError(
            f"RM({degree}, {nvars}) has 2^{k} codewords of 2^{nvars} bits:"
            f" enumeration is refused above 2^{_RM_ENUM_MAX_BITS} bits")
    best = None
    for word in rm_enumerate(degree, nvars):
        weight = sum(word)
        if weight and (best is None or weight < best):
            best = weight
    if best is None:
        raise ValueError("code has no nonzero codeword")
    return best


# ---------------------------------------------------------------------------
# Linear subspaces of {0,1}^n
# ---------------------------------------------------------------------------


class Subspace(NamedTuple):
    """Linear subspace of {0,1}^ambient; basis rows are bitmasks in
    reduced row echelon form with pivots at the high bits, descending."""

    basis: tuple[int, ...]
    ambient: int

    def points(self) -> list[int]:
        span = [0]
        for row in self.basis:
            span += [v ^ row for v in span]
        return span


def enumerate_subspaces(n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of {0,1}^n, one RREF basis each."""
    if k < 0 or k > n:
        return
    for pivots in combinations(range(n - 1, -1, -1), k):
        # each row's choices: its pivot bit plus any set of the free bits
        # below it, in counting order of those bits
        rows = []
        for p in pivots:
            choices = [1 << p]
            for b in range(p):
                if b not in pivots:
                    choices += [c | 1 << b for c in choices]
            rows.append(choices)
        for basis in product(*rows):
            yield Subspace(basis, n)


def subspace_char_vector(space: Subspace) -> Bits:
    """0/1 indicator of the subspace; its degree is the codimension."""
    bits = [0] * (1 << space.ambient)
    for v in space.points():
        bits[v] = 1
    return tuple(bits)


# ---------------------------------------------------------------------------
# Crafted words with many equidistant members
# ---------------------------------------------------------------------------


class LowerBoundInstance(NamedTuple):
    """A received word whose decode list at radius 1 - eps is provably big.

    The word is phi^k at coordinate 0 (k the smallest exponent with
    2**k >= 2**n * eps); the witnesses are phi^k times the indicators of
    all (n-k)-dimensional linear subspaces, each at exact relative squared
    distance 1 - 2**(k-n) <= 1 - eps from the word.
    """

    scale_exp: int
    received: CVector
    witnesses: DecodeList


def lower_bound_instance(n: int, eps: Fraction | int) -> LowerBoundInstance:
    eps = Fraction(eps)
    if n < 0:
        raise ValueError("level must be >= 0")
    if not Fraction(1, 1 << n) <= eps <= 1:
        raise ValueError(f"eps must lie in [2^-{n}, 1]")
    size = 1 << n
    k = 0
    while (1 << k) < (size * eps):
        k += 1
    scale = phi_pow(k)
    zero = GaussianInt(0, 0)
    received = CVector([scale] + [zero] * (size - 1))
    dist_num = size - (1 << k)
    if Fraction(dist_num, size) > 1 - eps:
        raise AssertionError("witness distance exceeds the claimed radius")

    # scaled entries over den = 1: each tot is the squared distance itself
    on = (scale.re, scale.im)
    received_pairs = (on,) + ((0, 0),) * (size - 1)
    entries = []
    for space in enumerate_subspaces(n, n - k):
        pairs = tuple(on if b else (0, 0) for b in subspace_char_vector(space))
        if not member_pairs(pairs):
            raise AssertionError(f"witness {pairs} is not a member")
        got = sum((x - a) ** 2 + (y - b) ** 2
                  for (x, y), (a, b) in zip(pairs, received_pairs))
        if got != dist_num:
            raise AssertionError(
                f"witness at squared distance {got}, expected {dist_num}"
            )
        entries.append((pairs, dist_num))
    return LowerBoundInstance(k, received, DecodeList(size, 1, entries))
