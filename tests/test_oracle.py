from __future__ import annotations

import random
from fractions import Fraction

import pytest

from bwlist.arith import CVector, QComplex, rsd
from bwlist.decode import list_decode
from bwlist.lattice import is_member
from bwlist.oracle import oracle_list, shortest_vectors
from symmetry import norm_sq, to_cvector

HALF_PHI = QComplex(Fraction(1, 2), Fraction(1, 2))

# shortest-vector counts, frozen after one enumeration run per level
KISSING = {0: 4, 1: 24, 2: 240, 3: 4320}


def test_oracle_base_cases() -> None:
    result = oracle_list(CVector([HALF_PHI]), Fraction(1, 2))
    assert {e.point for e in result} == {
        ((0, 0),), ((1, 0),), ((0, 1),), ((1, 1),),
    }
    result = oracle_list(CVector([0]), 1)
    assert len(result) == 5


def test_oracle_entries_are_members_within_radius() -> None:
    rng = random.Random(18)

    def coord() -> QComplex:
        return QComplex(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))),
                        Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))))

    for n in (0, 1, 2):
        for _ in range(5):
            r = CVector(coord() for _ in range(1 << n))
            result = oracle_list(r, Fraction(3, 4))
            for e in result:
                assert is_member(e.point)
                assert e.distance == rsd(r, to_cvector(e.point))
                assert e.distance <= Fraction(3, 4)


def test_oracle_agrees_with_decoder_on_small_instances() -> None:
    rng = random.Random(27)

    def coord() -> QComplex:
        return QComplex(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))),
                        Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))))

    for n in (0, 1, 2):
        for _ in range(10):
            r = CVector(coord() for _ in range(1 << n))
            for eta in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
                assert (oracle_list(r, eta).to_lines()
                        == list_decode(r, eta).to_lines())


def test_oracle_refuses_large_levels() -> None:
    with pytest.raises(ValueError):
        oracle_list(CVector([0] * 32), Fraction(1, 2))
    with pytest.raises(ValueError):
        oracle_list(CVector([0]), Fraction(-1, 2))
    # the search recurses once per coordinate: a level-10 word would pass
    # the interpreter's recursion limit, so no cap lets it in
    with pytest.raises(ValueError, match="depth limit 9"):
        oracle_list(CVector([0] * 1024), 0, cap=10)
    with pytest.raises(ValueError, match="depth limit 9"):
        shortest_vectors(10, cap=10)


def test_minimum_norm_doubles_per_level() -> None:
    for n in range(4):
        min_norm, _ = shortest_vectors(n)
        assert min_norm == 1 << n


def test_shortest_vector_counts() -> None:
    for n, expected in KISSING.items():
        min_norm, shell = shortest_vectors(n)
        assert len(shell) == expected
        for e in shell:
            assert norm_sq(e.point) == min_norm
            assert is_member(e.point)


def test_shortest_vectors_closed_under_units() -> None:
    i = QComplex(0, 1)
    for n in (1, 2):
        _, shell = shortest_vectors(n)
        keys = {e.point for e in shell}
        for e in shell:
            rotated = i * to_cvector(e.point)
            assert tuple(z.to_gaussian() for z in rotated) in keys
