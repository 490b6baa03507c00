"""Reed-Muller codes and their bridge to the lattice.

Binary words of length 2**n are boolean functions on {0,1}^n (coordinate j
is the value at the point with bit pattern j).  RM(d, n) is the set of
such functions of algebraic degree <= d; `algebraic_normal_form` is the
XOR Moebius transform that exposes the degree.

The bridge: peeling a vector digit by digit in base phi reads off, at
layer d, the coordinatewise parity word (re + im) mod 2, and each peel
step divides exactly by phi.  For n <= 5, a vector is a lattice member
iff every layer word lands in RM(d, n) (embedded 0 -> 0, 1 -> 1) with a
Gaussian-integer residual, so the peel doubles as a membership test.
From n = 6 on that correspondence breaks in both directions: a member's
layer word can exceed degree d, and a vector whose layer words all pass
can still sit outside the lattice.  The cause is the 0/1 embedding of
layer sums -- subtracting it produces carries two layers up (2 is a unit
times phi^2) whose parity words have doubled degree.  Both bridge
functions therefore verify membership explicitly instead of trusting
the degree checks.  `lower_bound_instance` builds received words with
provably many equidistant members: scaled indicator functions of linear
subspaces (counted by Gaussian binomials), which peel cleanly at every
level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Sequence, Union

from bwlist.arith import CVector, GaussianInt, phi_pow
from bwlist.decode import DecodeEntry, DecodeList, InvariantError
from bwlist.lattice import BWPoint, NotAMember, PointLike

Bits = tuple[int, ...]
BitsLike = Union["RMCodeword", Sequence[int]]


@dataclass(frozen=True)
class RMCodeword:
    """A word of RM(degree, nvars); bits[j] is the value at point j."""

    bits: Bits
    degree: int
    nvars: int

    def __len__(self) -> int:
        return len(self.bits)


def _as_bits(word: BitsLike) -> Bits:
    if isinstance(word, RMCodeword):
        return word.bits
    bits = tuple(word)
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    return bits


def _check_length(bits: Bits) -> int:
    size = len(bits)
    if size == 0 or size & (size - 1):
        raise ValueError(f"word length {size} is not a power of two")
    return size.bit_length() - 1


def algebraic_normal_form(word: BitsLike) -> Bits:
    """Monomial coefficients: coeff[S] = XOR of bits over subsets of S."""
    bits = _as_bits(word)
    n = _check_length(bits)
    coeffs = list(bits)
    for b in range(n):
        bit = 1 << b
        for j in range(1 << n):
            if j & bit:
                coeffs[j] ^= coeffs[j ^ bit]
    return tuple(coeffs)


def rm_is_codeword(word: BitsLike, degree: int) -> bool:
    """True iff the word has algebraic degree <= degree."""
    coeffs = algebraic_normal_form(word)
    return all(
        c == 0 for s, c in enumerate(coeffs) if s.bit_count() > degree
    )


def rm_enumerate(degree: int, nvars: int) -> Iterator[RMCodeword]:
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
        # evaluate: the XOR zeta transform is its own inverse
        for b in range(nvars):
            bit = 1 << b
            for j in range(size):
                if j & bit:
                    coeffs[j] ^= coeffs[j ^ bit]
        yield RMCodeword(tuple(coeffs), degree, nvars)


def rm_min_distance(degree: int, nvars: int) -> int:
    """Minimum Hamming weight over nonzero codewords, by enumeration."""
    best = None
    for word in rm_enumerate(degree, nvars):
        weight = sum(word.bits)
        if weight and (best is None or weight < best):
            best = weight
    if best is None:
        raise ValueError("code has no nonzero codeword")
    return best


# ---------------------------------------------------------------------------
# Linear subspaces of {0,1}^n
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of {0,1}^ambient; basis rows are bitmasks in
    reduced row echelon form with pivots at the high bits, descending."""

    basis: tuple[int, ...]
    ambient: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    def points(self) -> list[int]:
        span = [0]
        for row in self.basis:
            span += [v ^ row for v in span]
        return span

    def contains(self, mask: int) -> bool:
        for row in self.basis:
            if mask and mask.bit_length() == row.bit_length():
                mask ^= row
        return mask == 0

    @classmethod
    def from_vectors(cls, vectors: Iterable[int], ambient: int) -> Subspace:
        rows: list[int] = []
        for v in vectors:
            for row in rows:
                if v.bit_length() == row.bit_length():
                    v ^= row
            if v:
                rows.append(v)
                rows.sort(key=int.bit_length, reverse=True)
        # back-substitute to clear pivot bits from other rows
        for i, row in enumerate(rows):
            pivot = 1 << (row.bit_length() - 1)
            for j in range(len(rows)):
                if j != i and rows[j] & pivot:
                    rows[j] ^= row
        return cls(tuple(rows), ambient)


def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional linear subspaces of {0,1}^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    return num // den


def enumerate_subspaces(n: int, k: int) -> Iterator[Subspace]:
    """All k-dimensional subspaces of {0,1}^n, one RREF basis each."""
    if k < 0 or k > n:
        return
    for pivots in combinations(range(n - 1, -1, -1), k):
        free = [
            [b for b in range(p) if b not in pivots] for p in pivots
        ]
        def fill(i: int, rows: list[int]) -> Iterator[Subspace]:
            if i == k:
                yield Subspace(tuple(rows), n)
                return
            for pattern in range(1 << len(free[i])):
                row = 1 << pivots[i]
                for pos, b in enumerate(free[i]):
                    if pattern >> pos & 1:
                        row |= 1 << b
                yield from fill(i + 1, rows + [row])
        yield from fill(0, [])


def subspace_char_vector(space: Subspace) -> RMCodeword:
    """0/1 indicator of the subspace; degree is the codimension."""
    bits = [0] * (1 << space.ambient)
    for v in space.points():
        bits[v] = 1
    return RMCodeword(tuple(bits), space.ambient - space.dim, space.ambient)


# ---------------------------------------------------------------------------
# Layered view of the lattice
# ---------------------------------------------------------------------------


def bw_from_rm_layers(
    layers: Sequence[BitsLike],
    residual: Sequence[GaussianInt] | None = None,
) -> BWPoint:
    """Assemble sum_d phi^d * layer_d + phi^n * residual as a lattice point.

    Every layer must pass its degree-d check.  For n <= 5 the sum is then
    always a member; for n >= 6 some degree-valid layer stacks are not,
    and `BWPoint.of` rejects those with NotAMember rather than returning
    a vector outside the lattice.
    """
    n = len(layers)
    size = 1 << n
    all_bits = []
    for d, layer in enumerate(layers):
        bits = _as_bits(layer)
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
    return BWPoint.of(coords)


def bw_to_rm_layers(
    x: PointLike,
) -> tuple[tuple[RMCodeword, ...], tuple[GaussianInt, ...]]:
    """Peel a member into its RM layers and Gaussian residual.

    Inverts `bw_from_rm_layers` exactly when it succeeds.  Raises
    NotAMember if the vector is not a lattice member.  For a genuine
    member the peel can still fail for n >= 6: carries from the 0/1
    layer embedding may push a parity word past its degree-d bound, in
    which case no layered form exists and ValueError is raised.  For
    n <= 5 members always peel cleanly.
    """
    work = list(BWPoint.of(x).key())
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
        layers.append(RMCodeword(bits, d, n))
    residual = tuple(GaussianInt(a, b) for a, b in work)
    return tuple(layers), residual


# ---------------------------------------------------------------------------
# Crafted words with many equidistant members
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundInstance:
    """A received word whose decode list at radius 1 - eps is provably big.

    The word is phi^k at coordinate 0 (k the smallest exponent with
    2**k >= 2**n * eps); the witnesses are phi^k times the indicators of
    all (n-k)-dimensional linear subspaces, each at exact relative squared
    distance 1 - 2**(k-n) <= 1 - eps from the word.
    """

    eps: Fraction
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
    radius = 1 - eps
    dist_num = size - (1 << k)
    distance = Fraction(dist_num, size)

    entries = []
    received_g = received.to_gaussian()
    for space in enumerate_subspaces(n, n - k):
        bits = subspace_char_vector(space).bits
        point = BWPoint.of([scale if b else zero for b in bits])
        got = sum((z - r).norm_sq() for z, r in zip(point, received_g))
        if got != dist_num:
            raise InvariantError(
                f"witness at squared distance {got}, expected {dist_num}"
            )
        entries.append(DecodeEntry(point, distance))
    if distance > radius:
        raise InvariantError("witness distance exceeds the claimed radius")
    entries.sort(key=lambda e: e.point.key())
    witnesses = DecodeList(received, radius, tuple(entries))
    return LowerBoundInstance(eps, k, received, witnesses)
