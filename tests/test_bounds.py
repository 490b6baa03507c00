from __future__ import annotations

from fractions import Fraction

import pytest

from bwlist.bounds import DEFAULT_ETA_GRID, applicable_upper, validate_bounds
from reference import lower_eps


def test_johnson_half_values() -> None:
    assert [applicable_upper(Fraction(1, 2), n) for n in range(4)] == [
        ("johnson-half", 4), ("johnson-half", 8),
        ("johnson-half", 16), ("johnson-half", 32),
    ]


def test_johnson_eps_values() -> None:
    # radius 1/2 - eps: floor(1/(2 eps)) at every level
    for n in range(4):
        assert applicable_upper(0, n) == ("johnson-eps", 1)
        assert applicable_upper(Fraction(1, 4), n) == ("johnson-eps", 2)
        assert applicable_upper(Fraction(3, 10), n) == ("johnson-eps", 2)
        assert applicable_upper(Fraction(3, 8), n) == ("johnson-eps", 4)
    with pytest.raises(ValueError):
        applicable_upper(Fraction(-1, 4), 1)


def test_fixed_radius_uppers() -> None:
    assert [applicable_upper(Fraction(5, 8), n)[1] for n in range(3)] == [
        4, 96, 2304]
    assert [applicable_upper(Fraction(3, 4), n)[1] for n in range(3)] == [
        4, 2304, 1327104]


def test_upper_eps_values() -> None:
    # radius 1 - eps: ceil(4 * (1/eps)**(16 n))
    assert applicable_upper(Fraction(7, 8), 0) == ("one-minus-eps", 4)
    assert applicable_upper(Fraction(7, 8), 1) == ("one-minus-eps", 4 * 8**16)
    assert applicable_upper(Fraction(2, 3), 1) == ("one-minus-eps", 4 * 3**16)
    # non-integer power: ceiling must round up
    assert applicable_upper(Fraction(3, 5), 1) == (
        "one-minus-eps", -(-4 * 5**16 // 2**16))
    # eps = 0 is radius 1, where no closed form applies
    assert applicable_upper(1, 1) == ("none", None)


def test_negative_level_rejected_at_every_finite_bound() -> None:
    for eta in (0, Fraction(1, 4), Fraction(1, 2), Fraction(5, 8),
                Fraction(3, 4), Fraction(7, 8)):
        with pytest.raises(ValueError, match="level must be >= 0"):
            applicable_upper(eta, -1)
    with pytest.raises(ValueError, match="level must be >= 0"):
        validate_bounds(-1)
    with pytest.raises(ValueError, match="trials must be >= 0"):
        validate_bounds(1, trials=-1)


def test_lower_eps_power_of_two() -> None:
    # eps = 2^-t gives exponent (n - t)(t - 1)
    assert lower_eps(Fraction(1, 2), 5) == 1
    assert lower_eps(Fraction(1, 4), 2) == 1
    assert lower_eps(Fraction(1, 4), 3) == 2
    assert lower_eps(Fraction(1, 4), 6) == 16
    assert lower_eps(Fraction(1, 8), 5) == 16
    assert lower_eps(Fraction(1, 16), 10) == 1 << 18


def test_lower_eps_general_values() -> None:
    # frozen from a high-precision evaluation of 2^((n - log2(1/eps))(log2(1/eps) - 1))
    assert lower_eps(Fraction(1, 3), 5) == 3
    assert lower_eps(Fraction(1, 6), 6) == 42
    assert lower_eps(Fraction(1, 3), 2) == 1


def test_lower_eps_always_at_least_one() -> None:
    for n in range(7):
        for eps in (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 5)):
            assert lower_eps(eps, n) >= 1


def test_applicable_upper_dispatch() -> None:
    assert applicable_upper(Fraction(1, 4), 2) == ("johnson-eps", 2)
    assert applicable_upper(Fraction(1, 2), 2) == ("johnson-half", 16)
    assert applicable_upper(Fraction(5, 8), 2) == ("five-eighths", 2304)
    assert applicable_upper(Fraction(3, 4), 2) == ("three-quarters", 1327104)
    assert applicable_upper(Fraction(7, 8), 1) == ("one-minus-eps",
                                                    4 * 8**16)
    assert applicable_upper(Fraction(1), 2) == ("none", None)
    assert applicable_upper(Fraction(3, 2), 2) == ("none", None)


def test_default_eta_grid_covers_every_formula() -> None:
    names = {applicable_upper(eta, 1)[0] for eta in DEFAULT_ETA_GRID}
    assert names == {
        "johnson-eps", "johnson-half", "five-eighths",
        "three-quarters", "one-minus-eps", "none",
    }


def test_validate_bounds_all_ok_small_levels() -> None:
    for n in (0, 1, 2):
        reports = validate_bounds(n, trials=4, seed=1)
        assert reports
        for rep in reports:
            assert rep.ok
            assert rep.measured >= rep.lower
            if rep.upper is not None:
                assert rep.measured <= rep.upper


def test_validate_bounds_adversarial_word_is_tight_at_half() -> None:
    reports = validate_bounds(1, trials=1, seed=0)
    tight = [rep for rep in reports
             if rep.eta == Fraction(1, 2) and rep.formula == "johnson-half"
             and rep.measured == rep.upper]
    assert tight  # the all-phi/2 word meets the 4N bound exactly


def test_validate_bounds_is_deterministic() -> None:
    a = validate_bounds(1, trials=3, seed=9)
    b = validate_bounds(1, trials=3, seed=9)
    assert a == b
