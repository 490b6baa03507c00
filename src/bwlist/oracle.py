"""Brute-force enumeration oracle, independent of the recursive decoder.

Points are generated directly as Z[i]-combinations of the generator rows:
coordinate j of c @ W depends only on coefficients c_i with i a bitwise
subset of j, so a depth-first search that fixes c_0, c_1, ... in
increasing index order can bound each coordinate's contribution to the
squared distance as soon as its coefficient is chosen.  The feasible
coefficients at each step form a disk, enumerated as an integer box and
filtered exactly; subtracting each coordinate's exact cost from the
remaining budget prunes the search.

Shares only the scalar arithmetic, the membership test (as a self-check on
every emitted point) and the result containers with the rest of the
package — none of the decoder's recursion or candidate assembly.  Meant
for small levels (the default cap is 4).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from bwlist.arith import CVector, RationalLike, vector_to_scaled
from bwlist.decode import DecodeList, InvariantError
from bwlist.lattice import member_pairs

DEFAULT_CAP = 4


def _enumerate_scaled(nums, den, n, p, q):
    """All members within the scaled budget, as ((re, im) pairs, tot) with
    tot the exact scaled squared distance sum_j |R_j - den * w_j|^2."""
    size = 1 << n
    budget = p * den * den * size
    diag = []
    for j in range(size):
        dre, dim = 1, 0
        for _ in range(j.bit_count()):
            dre, dim = dre - dim, dre + dim
        diag.append((dre, dim))
    supersets = [
        [t for t in range(j + 1, size) if t & j == j] for j in range(size)
    ]

    acc_re = [0] * size
    acc_im = [0] * size
    w_re = [0] * size
    w_im = [0] * size
    found = []

    def step(j: int, remaining: int) -> None:
        if j == size:
            # every per-coordinate cost is q times a square, so this is exact
            found.append((tuple(zip(w_re, w_im)), (budget - remaining) // q))
            return
        t_re = nums[j][0] - den * acc_re[j]
        t_im = nums[j][1] - den * acc_im[j]
        dre, dim = diag[j]
        u_re, u_im = den * dre, den * dim
        m_norm = u_re * u_re + u_im * u_im
        alpha = t_re * u_re + t_im * u_im
        beta = t_im * u_re - t_re * u_im
        reach = isqrt((m_norm * remaining) // q) + 1
        xlo, xhi = -((reach - alpha) // m_norm), (alpha + reach) // m_norm
        ylo, yhi = -((reach - beta) // m_norm), (beta + reach) // m_norm
        for x in range(xlo, xhi + 1):
            for y in range(ylo, yhi + 1):
                d_re = t_re - (u_re * x - u_im * y)
                d_im = t_im - (u_re * y + u_im * x)
                cost = q * (d_re * d_re + d_im * d_im)
                if cost > remaining:
                    continue
                c_re = x * dre - y * dim
                c_im = x * dim + y * dre
                w_re[j] = acc_re[j] + c_re
                w_im[j] = acc_im[j] + c_im
                for t in supersets[j]:
                    acc_re[t] += c_re
                    acc_im[t] += c_im
                step(j + 1, remaining - cost)
                for t in supersets[j]:
                    acc_re[t] -= c_re
                    acc_im[t] -= c_im
        return

    step(0, budget)
    return found


def oracle_list(
    r: CVector, eta: RationalLike, *, cap: int = DEFAULT_CAP
) -> DecodeList:
    """Same contract as `list_decode`, by exhaustive coefficient search."""
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("radius must be >= 0")
    if r.n > cap:
        raise ValueError(f"level {r.n} exceeds oracle cap {cap}")
    nums, den = vector_to_scaled(r)
    entries = _enumerate_scaled(nums, den, r.n, eta.numerator, eta.denominator)
    for pt, _ in entries:
        if not member_pairs(pt):
            raise InvariantError(f"oracle emitted non-member {pt}")
    return DecodeList.from_scaled(r, eta, den, entries)


def shortest_vectors(
    n: int, *, cap: int = DEFAULT_CAP
) -> tuple[int, DecodeList]:
    """Minimum squared norm over nonzero members, with all achievers.

    Searches the closed relative-distance-1 ball around the origin, which
    always contains the shortest vectors.
    """
    if n < 0:
        raise ValueError("level must be >= 0")
    if n > cap:
        raise ValueError(f"level {n} exceeds oracle cap {cap}")
    size = 1 << n
    zero = tuple((0, 0) for _ in range(size))
    entries = _enumerate_scaled(zero, 1, n, 1, 1)
    # around the origin the stored tot is exactly the squared norm
    norms: dict[int, list] = {}
    for pt, tot in entries:
        if tot:
            norms.setdefault(tot, []).append((pt, tot))
    if not norms:
        raise InvariantError("no nonzero member found at relative distance 1")
    min_norm = min(norms)
    received = CVector.zero(n)
    return min_norm, DecodeList.from_scaled(received, Fraction(1), 1,
                                            norms[min_norm])
