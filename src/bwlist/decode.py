"""Exact list decoding by recursive halving.

`list_decode(r, eta)` returns every lattice member w with
rsd(r, w) <= eta, with exact rational distances.  The recursion splits the
received word r = [r0, r1] into four level-(n-1) subproblems at the same
radius: r0, r1 and the two transformed words

    r_plus  = (phi/2) (r0 + r1)        r_minus = (phi/2) (r0 - r1)

then reassembles candidates from the four returned lists.  For a member
w = [w0, w1], knowing any one half plus the matching transform
(phi/2)(w0 +/- w1) determines the other half linearly, which is what the
four pairings in `combine_candidates` implement.  Assembled candidates are
always members; the exact distance filter then keeps those within radius.

Internally everything runs on integer (re, im) pairs over one common
denominator so that every comparison is an integer comparison; Fractions
appear only at the public boundary.

Candidate pairs are screened by a fused reconstruct-and-test scan: the
child lists carry each point's exact scaled squared distance, so a pair's
total distance accumulates coordinate by coordinate and the scan breaks
out early once it exceeds the radius; only surviving candidates are ever
materialized.

Operation-counting convention (CostCounter, reported by the bench CLI):

* base case: one op per grid cell examined;
* each internal node: 2N ops for forming the two transformed half-words;
* each candidate pair examined: N ops, the envelope of the fused
  reconstruct-and-test scan.

The recursion is deliberately literal — all four child calls are always
made even when some child lists come back empty — so counted ops track the
4**n envelope instead of the luck of a particular received word.

A `max_list` cap aborts the whole decode with MaxListExceeded as soon as
*any* list, intermediate or final, exceeds it: intermediate lists can blow
up near eta = 1 even when the final list is small, and the cap exists to
protect batch runs from exactly that.

Every combine runs through one pair scan, `_scan_blocks`.  The parallel
decoder shares the recursion rather than copying it: it splits the top d
levels breadth first, decodes the 4**d deepest words on a process pool,
and folds back up with the same `_combine_core`, which hands a large
node's pair scan to the pool in slices of its outer lists.

Set the BWLIST_VALIDATE environment variable to re-check every candidate
that survives the distance scan against the lattice (slow; meant for the
test suite at small levels).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import isqrt
from typing import Iterator, Optional, Sequence

from bwlist.arith import (
    CVector,
    GaussianInt,
    RationalLike,
    format_vector,
    vector_to_scaled,
)
from bwlist.lattice import BWPoint, member_pairs

PAIRINGS = ("0+", "0-", "1+", "1-")

_VALIDATE = os.environ.get("BWLIST_VALIDATE", "") not in ("", "0")

# chunk the candidate-pair space across workers above this many pairs
_PAR_COMBINE_MIN = 50_000


class MaxListExceeded(RuntimeError):
    """A decode list grew past the configured cap."""

    def __init__(self, size: int, limit: int) -> None:
        super().__init__(f"list size {size} exceeds cap {limit}")
        self.size = size
        self.limit = limit

    def __reduce__(self):
        return (MaxListExceeded, (self.size, self.limit))


class InvariantError(RuntimeError):
    """An internal structural guarantee failed; indicates a bug."""


class CostCounter:
    """Accumulates the counted arithmetic operations of one decode call."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops = 0


@dataclass(frozen=True)
class DecodeEntry:
    point: BWPoint
    distance: Fraction


@dataclass(frozen=True)
class DecodeList:
    """All members within relative squared distance `radius` of `received`."""

    received: CVector
    radius: Fraction
    entries: tuple[DecodeEntry, ...]

    @classmethod
    def from_scaled(cls, received: CVector, radius: Fraction, den: int,
                    entries) -> DecodeList:
        """Package scaled-integer entries in canonical order.

        Each entry is ((re, im) pairs, tot) with tot the exact scaled
        squared distance sum_j |den * r_j - den * w_j|^2, so the relative
        squared distance is tot / (den^2 * N), N = len(received).
        """
        den_sq_n = den * den * len(received)
        return cls(received, radius, tuple(
            DecodeEntry(BWPoint.unchecked(GaussianInt(x, y) for x, y in pt),
                        Fraction(tot, den_sq_n))
            for pt, tot in sorted(entries)
        ))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[DecodeEntry]:
        return iter(self.entries)

    def points(self) -> tuple[BWPoint, ...]:
        return tuple(e.point for e in self.entries)

    def to_lines(self) -> list[str]:
        """One 'vector<TAB>rsd' line per entry, in canonical order."""
        return [f"{format_vector(e.point)}\t{e.distance}" for e in self.entries]


# ---------------------------------------------------------------------------
# Core recursion on scaled integers
# ---------------------------------------------------------------------------


def _split_words(nums, den, n):
    """Children of one node: r0, r1, the two transformed words, their den."""
    half = 1 << (n - 1)
    r0, r1 = nums[:half], nums[half:]
    rp, rm = [], []
    for (a, b), (c, d) in zip(r0, r1):
        sa, sb = a + c, b + d
        da, db = a - c, b - d
        rp.append((sa - sb, sa + sb))
        rm.append((da - db, da + db))
    return r0, r1, tuple(rp), tuple(rm), den + den


def _decode_core(nums, den, n, p, q, counter, max_list):
    """Returns [(point, tot)]: tot is the exact scaled squared distance
    sum_j |R_j - den * w_j|^2, so rsd(r, w) = tot / (den^2 * N)."""
    if n == 0:
        a0, b0 = nums[0]
        limit = (p * den * den) // q
        m = isqrt(limit) + 1
        xlo, xhi = -((m - a0) // den), (a0 + m) // den
        ylo, yhi = -((m - b0) // den), (b0 + m) // den
        out = []
        for x in range(xlo, xhi + 1):
            dx = a0 - x * den
            cx = dx * dx
            for y in range(ylo, yhi + 1):
                dy = b0 - y * den
                tot = cx + dy * dy
                if tot <= limit:
                    out.append((((x, y),), tot))
        if counter is not None:
            counter.ops += (xhi - xlo + 1) * (yhi - ylo + 1)
        if max_list is not None and len(out) > max_list:
            raise MaxListExceeded(len(out), max_list)
        return out

    r0, r1, rp, rm, den2 = _split_words(nums, den, n)
    if counter is not None:
        counter.ops += 2 << n
    sub0 = _decode_core(r0, den, n - 1, p, q, counter, max_list)
    sub1 = _decode_core(r1, den, n - 1, p, q, counter, max_list)
    subp = _decode_core(rp, den2, n - 1, p, q, counter, max_list)
    subm = _decode_core(rm, den2, n - 1, p, q, counter, max_list)
    return _combine_core(nums, den, n, p, q, sub0, sub1, subp, subm,
                         counter, max_list)


# Per pairing: which child lists pair up, the reconstruction signs for the
# unknown half w = t_sign * (1-i) * T + k_sign * K, and whether the unknown
# half is the left one.  2/phi = 1 - i, so (1-i)(c + d i) = (c+d) + (d-c) i.
_PAIRING_SPECS = {
    "0+": (1, -1, False),
    "0-": (-1, 1, False),
    "1+": (1, -1, True),
    "1-": (1, 1, True),
}


def _scan_pair(known_pt, known_tot, trans_pt, nums, den, half, limit,
               t_sign, k_sign, unknown_left):
    """Fused reconstruct-and-test for one candidate pair.

    Accumulates the candidate's exact scaled distance starting from the
    known half's stored total; breaks out as soon as it exceeds `limit`.
    Returns (full point, tot) or None.
    """
    tot = known_tot
    off = 0 if unknown_left else half
    buf = []
    for j in range(half):
        a, b = known_pt[j]
        c, d = trans_pt[j]
        wx = t_sign * (c + d) + k_sign * a
        wy = t_sign * (d - c) + k_sign * b
        ra, rb = nums[off + j]
        dx = ra - wx * den
        dy = rb - wy * den
        tot += dx * dx + dy * dy
        if tot > limit:
            return None
        buf.append((wx, wy))
    body = tuple(buf)
    if unknown_left:
        return body + known_pt, tot
    return known_pt + body, tot


def _scan_blocks(nums, den, half, limit, blocks):
    """Survivors of the pair scan over `blocks` as {point: tot}.

    Each block is (outers, inners, pairing spec): every outer known half
    is tried against every inner transformed half.  A point found twice
    keeps its first tot (both are the same exact distance).
    """
    out = {}
    for outers, inners, (t_sign, k_sign, unknown_left) in blocks:
        for known_pt, known_tot in outers:
            for trans_pt, _ in inners:
                got = _scan_pair(known_pt, known_tot, trans_pt, nums, den,
                                 half, limit, t_sign, k_sign, unknown_left)
                if got is not None:
                    pt, tot = got
                    if _VALIDATE and not member_pairs(pt):
                        raise InvariantError(
                            f"assembled non-member candidate {pt}"
                        )
                    out.setdefault(pt, tot)
    return out


def _combine_core(nums, den, n, p, q, sub0, sub1, subp, subm,
                  counter, max_list, pool=None, workers=1):
    size = 1 << n
    npairs = (len(sub0) + len(sub1)) * (len(subp) + len(subm))
    if npairs == 0:
        return []
    half = size >> 1
    limit = (p * den * den * size) // q
    blocks = [
        (outers, inners, _PAIRING_SPECS[pairing])
        for pairing, outers, inners in (
            ("0+", sub0, subp),
            ("0-", sub0, subm),
            ("1+", sub1, subp),
            ("1-", sub1, subm),
        )
        if outers and inners
    ]
    if pool is None or npairs < _PAR_COMBINE_MIN:
        out = _scan_blocks(nums, den, half, limit, blocks)
    else:
        # slice each pairing's outers so every worker gets about two tasks
        chunks = []
        for outers, inners, spec in blocks:
            step = -(-len(outers) // (2 * workers))
            chunks += [[(outers[lo:lo + step], inners, spec)]
                       for lo in range(0, len(outers), step)]
        out = {}
        for part in pool.map(_scan_blocks, repeat(nums), repeat(den),
                             repeat(half), repeat(limit), chunks):
            for pt, tot in part.items():
                out.setdefault(pt, tot)
    if counter is not None:
        counter.ops += npairs * size
    if max_list is not None and len(out) > max_list:
        raise MaxListExceeded(len(out), max_list)
    return list(out.items())


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def _check_radius(eta: RationalLike) -> Fraction:
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("radius must be >= 0")
    return eta


def list_decode(
    r: CVector,
    eta: RationalLike,
    *,
    max_list: Optional[int] = None,
    counter: Optional[CostCounter] = None,
) -> DecodeList:
    """All members within relative squared distance eta of r, exactly."""
    eta = _check_radius(eta)
    nums, den = vector_to_scaled(r)
    pts = _decode_core(nums, den, r.n, eta.numerator, eta.denominator,
                       counter, max_list)
    return DecodeList.from_scaled(r, eta, den, pts)


def list_decode_parallel(
    r: CVector,
    eta: RationalLike,
    workers: int,
    *,
    max_list: Optional[int] = None,
) -> DecodeList:
    """Same output as `list_decode`, byte for byte, using a process pool.

    The top d levels of the recursion are split breadth first (d is the
    smallest depth with 4**d >= `workers`, capped so the deepest words stay
    at level >= 3).  The 4**d deepest words are decoded on the pool, then
    each level above is combined in turn with the sequential combine, which
    slices a node's pair scan across the pool when it has enough candidate
    pairs to pay for the shipping.  With one worker, or a word too small to
    split, the decode runs in-process.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    eta = _check_radius(eta)
    nums, den = vector_to_scaled(r)
    n = r.n
    p, q = eta.numerator, eta.denominator

    depth = 0
    while (1 << (2 * depth)) < workers:
        depth += 1
    depth = min(depth, n - 3)
    if workers == 1 or depth < 1:
        pts = _decode_core(nums, den, n, p, q, None, max_list)
        return DecodeList.from_scaled(r, eta, den, pts)

    # levels[k] holds the words at depth k; node i's children are 4i..4i+3
    levels = [[(nums, den)]]
    for k in range(depth):
        level = []
        for words, wden in levels[k]:
            r0, r1, rp, rm, den2 = _split_words(words, wden, n - k)
            level += [(r0, wden), (r1, wden), (rp, den2), (rm, den2)]
        levels.append(level)
    leaf_words, leaf_dens = zip(*levels[depth])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        lists = list(pool.map(_decode_core, leaf_words, leaf_dens,
                              repeat(n - depth), repeat(p), repeat(q),
                              repeat(None), repeat(max_list)))
        for k in range(depth - 1, -1, -1):
            lists = [
                _combine_core(words, wden, n - k, p, q,
                              *lists[4 * i:4 * i + 4], None, max_list,
                              pool, workers)
                for i, (words, wden) in enumerate(levels[k])
            ]
    return DecodeList.from_scaled(r, eta, den, lists[0])


def combine_candidates(pairing: str, known: Sequence[GaussianInt],
                       transformed: Sequence[GaussianInt]) -> CVector:
    """Assemble a level-n candidate from level-(n-1) members.

    `pairing` says which half `known` is (0 = left, 1 = right) and which
    transformed word `transformed` decodes ('+' for (phi/2)(w0 + w1),
    '-' for (phi/2)(w0 - w1)).  This is the public reference for the
    reconstruction: it reads the same `_PAIRING_SPECS` table as the
    decoder's pair scan, so the tests that pin it pin that table too.
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
