"""The benchmark's workloads and the inputs they build.

Each workload is a fixed *base* word moved by a symmetry drawn from the
run's seed: a translate by c * (1, ..., 1) for a small Gaussian integer c,
which is a lattice member, then multiplication by a unit i**k.  Both map
the lattice onto itself and keep every coordinate's residual norm, so the
decoder's control flow is the same for every seed: every split, base-case
grid, candidate pair and early exit happens in the same place, and
`CostCounter.ops`, list size and every per-level pair count repeat
exactly.  Coordinates stay small, so the program's integers stay in the
same range for every seed.  The seed still changes every coordinate the
program reads.  Undoing the symmetry on the output gives the base word's
own decode list, whose digest is pinned in `pins.json`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from bwlist.arith import CVector, QComplex, format_vector
from bwlist.rmcode import lower_bound_instance

# seeds the base random words; the run's --seed only draws the symmetry
BASE_WORD_SEED = 1112_1994


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "random", "deep-hole" or "crafted"
    n: int
    eta: Fraction
    why: str


# Sizes are one level below what shows each bottleneck most plainly, so
# that a run holds about ten decodes of each kind: on a shared machine whose
# speed swings within seconds, a median over two or three decodes spread
# too much from run to run.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-quarter", "random", 9, Fraction(1, 4),
            "random word at 1/4: empty list over 350 k recursion nodes, "
            "bound by per-node overhead",
        ),
        Workload(
            "dense-threequarter", "random", 5, Fraction(3, 4),
            "random word at 3/4: 8.1 M ops, nearly all in the level 5-4 pair "
            "scans, where most pairs exit early; bound by the pair scan",
        ),
        Workload(
            "deep-hole-half", "deep-hole", 8, Fraction(1, 2),
            "all-phi/2 word at 1/2: exactly 4N = 1024 members and full lists "
            "at every level; bound by list size, dedup, packaging and output",
        ),
        Workload(
            "crafted-witness", "crafted", 5, Fraction(3, 4),
            "lower_bound_instance(5, 1/4) at 3/4: pair scans run full length "
            "and survive; the only workload whose setup runs rmcode",
        ),
    )
}


@dataclass(frozen=True)
class Input:
    """One generated received word and what is needed to check its decode."""

    word: CVector
    text: str
    offset: tuple[int, int]  # c: the base word was translated by c * (1, ..., 1)
    unit: int  # k: then multiplied by i**k
    witnesses: Optional[tuple[str, ...]]  # base-word witness lines (crafted)


def _base_random_word(n: int) -> CVector:
    # numerators in [-8, 8], denominators in {1, 2, 4}
    rng = random.Random(BASE_WORD_SEED * 31 + n)

    def part() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))

    return CVector(QComplex(part(), part()) for _ in range(1 << n))


def rotate(x, y, k: int):
    """(x + i y) * i**k."""
    for _ in range(k % 4):
        x, y = -y, x
    return x, y


def build_input(workload: Workload, seed: int, n: Optional[int] = None) -> Input:
    """The received word for `seed`, at the workload's level unless `n` is given."""
    n = workload.n if n is None else n
    witnesses = None
    if workload.kind == "random":
        base = _base_random_word(n)
    elif workload.kind == "deep-hole":
        half = Fraction(1, 2)
        base = CVector([QComplex(half, half)] * (1 << n))
    else:
        inst = lower_bound_instance(n, 1 - workload.eta)
        base = inst.received
        witnesses = tuple(inst.witnesses.to_lines())
    rng = random.Random(seed)
    offset = (rng.randint(-2, 2), rng.randint(-2, 2))
    unit = rng.randrange(4)
    word = CVector(
        QComplex(*rotate(z.re + offset[0], z.im + offset[1], unit))
        for z in base
    )
    return Input(word, format_vector(word) + "\n", offset, unit, witnesses)
