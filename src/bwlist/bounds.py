"""Closed-form list-size bounds and an empirical validation harness.

Upper bounds on the worst-case list size at relative squared radius eta,
by the name `applicable_upper` returns with each:

* johnson-eps, eta = 1/2 - eps (eps > 0): floor(1/(2 eps)),
  dimension-free;
* johnson-half, eta = 1/2 exactly: 4N (tight: the all-(phi/2) word
  meets it);
* five-eighths, eta = 5/8: 4 * 24**n;
* three-quarters, eta = 3/4: 4 * 24**(2n);
* one-minus-eps, eta = 1 - eps < 1 (any other radius above 1/2):
  ceil(4 * (1/eps)**(16 n));
* none, eta >= 1: no finite closed form here.

Lower bound: floor(2**((n - L)(L - 1))) with L = log2(1/eps), clamped to
>= 1, realized by the subspace-witness construction in `rmcode`.

`validate_bounds` decodes a battery of words per radius — the adversarial
all-(phi/2) word, the crafted witness word when 1 - eta admits one, and
seeded random words — and checks measured list sizes against the formulas.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple, Optional

from bwlist.arith import CVector, QComplex, RationalLike
from bwlist.decode import list_decode
from bwlist.rmcode import lower_bound_instance

DEFAULT_ETA_GRID = (
    Fraction(1, 4),
    Fraction(5, 12),
    Fraction(1, 2),
    Fraction(5, 8),
    Fraction(3, 4),
    Fraction(7, 8),
    Fraction(1),
)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def applicable_upper(eta: RationalLike, n: int) -> tuple[str, Optional[int]]:
    """(formula name, bound) for the tightest closed form at this radius."""
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("radius must be >= 0")
    if eta >= 1:
        return "none", None
    # the level is checked for every finite bound, the dimension-free one too
    if n < 0:
        raise ValueError("level must be >= 0")
    if eta < Fraction(1, 2):
        # 1/(2 eps) with eps = 1/2 - eta, floored
        return "johnson-eps", int(1 / (1 - 2 * eta))
    if eta == Fraction(1, 2):
        return "johnson-half", 4 << n
    if eta == Fraction(5, 8):
        return "five-eighths", 4 * 24**n
    if eta == Fraction(3, 4):
        return "three-quarters", 4 * 24 ** (2 * n)
    eps = 1 - eta
    e = 16 * n
    return "one-minus-eps", -(-4 * eps.denominator**e // eps.numerator**e)


# ---------------------------------------------------------------------------
# Empirical validation
# ---------------------------------------------------------------------------


class BoundReport(NamedTuple):
    """One decoded word checked against the closed forms.

    `lower` is the crafted witness count for witness words and 0 otherwise
    (a random word's list is often legitimately empty); `upper` is None
    where no finite closed form applies.
    """

    n: int
    eta: Fraction
    word: str
    measured: int
    lower: int
    upper: Optional[int]
    formula: str
    ok: bool


def random_word(rng: random.Random, n: int) -> CVector:
    """A random level-n received word drawn from `rng`.

    Each coordinate's real and imaginary parts have numerators in [-8, 8]
    and denominators in {1, 2, 4}.
    """
    def part() -> Fraction:
        return Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4)))

    return CVector(QComplex(part(), part()) for _ in range(1 << n))


def validate_bounds(n: int, trials: int = 10,
                    seed: int = 0) -> list[BoundReport]:
    """Decode a word battery per radius in DEFAULT_ETA_GRID and check the
    closed forms."""
    if n < 0:
        raise ValueError("level must be >= 0")
    if trials < 0:
        raise ValueError("trials must be >= 0")
    half = Fraction(1, 2)
    adversarial = CVector([QComplex(half, half)] * (1 << n))
    reports = []
    for gi, eta in enumerate(DEFAULT_ETA_GRID):
        formula, upper = applicable_upper(eta, n)
        words: list[tuple[str, CVector, int]] = [
            ("all-half-phi", adversarial, 0)
        ]
        eps = 1 - eta
        if Fraction(1, 1 << n) <= eps:
            inst = lower_bound_instance(n, eps)
            words.append(
                ("subspace-witnesses", inst.received, len(inst.witnesses))
            )
        for t in range(trials):
            rng = random.Random(seed * 7_368_787 + gi * 104_729 + t)
            words.append((f"random-{t}", random_word(rng, n), 0))
        for label, word, lower in words:
            measured = len(list_decode(word, eta))
            ok = lower <= measured and (upper is None or measured <= upper)
            reports.append(
                BoundReport(n, eta, label, measured, lower, upper, formula, ok)
            )
    return reports
