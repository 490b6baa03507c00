"""Closed-form list-size bounds and an empirical validation harness.

Upper bounds on the worst-case list size at relative squared radius eta:

* eta = 1/2 - eps (eps > 0): floor(1/(2 eps)), dimension-free;
* eta = 1/2 exactly: 4N (tight: the all-(phi/2) word meets it);
* eta = 5/8: 4 * 24**n;
* eta = 3/4: 4 * 24**(2n);
* eta = 1 - eps < 1: ceil(4 * (1/eps)**(16 n));
* eta >= 1: no finite closed form here.

Lower bound: floor(2**((n - L)(L - 1))) with L = log2(1/eps), clamped to
>= 1, realized by the subspace-witness construction in `rmcode`.

`validate_bounds` decodes a battery of words per radius — the adversarial
all-(phi/2) word, the crafted witness word when 1 - eta admits one, and
seeded random words — and checks measured list sizes against the formulas.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from mpmath import mp

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


def johnson_half(n: int) -> int:
    """List-size bound 4N at radius exactly 1/2."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return 4 << n


def johnson_eps(eps: RationalLike) -> int:
    """Dimension-free bound floor(1/(2 eps)) at radius 1/2 - eps."""
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise ValueError("eps must lie in (0, 1/2]")
    return int(1 / (2 * eps))


def upper_58(n: int) -> int:
    """Bound 4 * 24**n at radius 5/8."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return 4 * 24**n


def upper_34(n: int) -> int:
    """Bound 4 * 24**(2n) at radius 3/4."""
    if n < 0:
        raise ValueError("level must be >= 0")
    return 4 * 24 ** (2 * n)


def upper_eps(eps: RationalLike, n: int) -> int:
    """Bound ceil(4 * (1/eps)**(16 n)) at radius 1 - eps."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must lie in (0, 1]")
    if n < 0:
        raise ValueError("level must be >= 0")
    e = 16 * n
    num = 4 * eps.denominator**e
    den = eps.numerator**e
    return -(-num // den)


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
    floor is found by raising mpmath's working precision until it
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
    prec = 120
    while prec <= 1_000_000:
        with mp.workprec(prec):
            inv = mp.mpf(eps.denominator) / mp.mpf(eps.numerator)
            level = mp.log(inv) / mp.log(2)
            value = mp.power(2, (n - level) * (level - 1))
            cur = int(mp.floor(value))
        if cur == prev:
            return max(1, cur)
        prev = cur
        prec *= 2
    raise ArithmeticError("lower_eps failed to stabilize")  # pragma: no cover


def applicable_upper(eta: RationalLike, n: int) -> tuple[str, Optional[int]]:
    """(formula name, bound) for the tightest closed form at this radius."""
    eta = Fraction(eta)
    if eta < 0:
        raise ValueError("radius must be >= 0")
    if eta < Fraction(1, 2):
        return "johnson-eps", johnson_eps(Fraction(1, 2) - eta)
    if eta == Fraction(1, 2):
        return "johnson-half", johnson_half(n)
    if eta == Fraction(5, 8):
        return "five-eighths", upper_58(n)
    if eta == Fraction(3, 4):
        return "three-quarters", upper_34(n)
    if eta < 1:
        return "one-minus-eps", upper_eps(1 - eta, n)
    return "none", None


# ---------------------------------------------------------------------------
# Empirical validation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
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


def validate_bounds(
    n: int,
    trials: int = 10,
    eta_grid: Optional[Sequence[RationalLike]] = None,
    seed: int = 0,
) -> list[BoundReport]:
    """Decode a word battery per radius and check the closed forms."""
    if eta_grid is None:
        eta_grid = DEFAULT_ETA_GRID
    half = Fraction(1, 2)
    adversarial = CVector([QComplex(half, half)] * (1 << n))
    reports = []
    for gi, eta in enumerate(eta_grid):
        eta = Fraction(eta)
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
