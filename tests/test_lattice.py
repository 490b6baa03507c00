from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

from bwlist.arith import CVector, GaussianInt, QComplex, phi_pow, rsd
from bwlist.lattice import BWPoint, generator_matrix, is_member
from reference import (
    PHI,
    NotAMember,
    gaussian_norm_sq,
    multilinear_evaluate,
    multilinear_interpolate,
    point_of,
    random_member,
)
from symmetry import automorphism_t, mul_phi, norm_sq, swap_halves, to_cvector

ZERO = GaussianInt(0, 0)
ONE = GaussianInt(1, 0)
I = GaussianInt(0, 1)


def test_level_zero_is_all_gaussian_integers() -> None:
    assert is_member([GaussianInt(3, -7)])
    assert is_member(CVector([QComplex(2, 5)]))
    assert not is_member(CVector([QComplex(Fraction(1, 2), 0)]))


def test_level_one_membership() -> None:
    # [u, u + phi v]: second minus first must be divisible by phi
    assert is_member([ONE, I])
    assert is_member([ZERO, PHI])
    assert not is_member([ONE, ZERO])
    assert not is_member([ZERO, ONE])


def test_membership_rejects_bad_length() -> None:
    # the length is checked before the coordinates are
    half = QComplex(Fraction(1, 2))
    for check in (is_member, point_of, multilinear_interpolate):
        for bad in ([ONE, ONE, ONE], [half, QComplex(1), QComplex(1)]):
            with pytest.raises(ValueError, match="not a power of two"):
                check(bad)


def test_bwpoint_of_validates() -> None:
    p = point_of([ONE, I])
    assert len(p).bit_length() - 1 == 1
    assert norm_sq(p) == 2
    with pytest.raises(NotAMember):
        point_of([ONE, ZERO])


def test_generator_matrix_level_two() -> None:
    g = generator_matrix(2)
    two_i = GaussianInt(0, 2)
    assert g == (
        (ONE, ONE, ONE, ONE),
        (ZERO, PHI, ZERO, PHI),
        (ZERO, ZERO, PHI, PHI),
        (ZERO, ZERO, ZERO, two_i),
    )
    assert tuple(g[j][j] for j in range(4)) == (ONE, PHI, PHI, two_i)


def test_generator_diagonal_entries_and_determinant() -> None:
    for n in range(5):
        g = generator_matrix(n)
        det_norm = 1
        for j, row in enumerate(g):
            d = row[j]
            assert d == phi_pow(j.bit_count())
            det_norm *= gaussian_norm_sq(d)
        assert det_norm == 1 << (n * (1 << (n - 1))) if n else det_norm == 1


def test_generator_rows_are_members() -> None:
    for n in range(5):
        g = generator_matrix(n)
        for row in g:
            assert is_member(row)


def test_generator_combinations_are_members() -> None:
    rng = random.Random(3)
    for n in range(5):
        g = generator_matrix(n)
        for _ in range(20):
            coeffs = [GaussianInt(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(1 << n)]
            point = sum((CVector(row) * c for c, row in zip(coeffs, g)),
                        CVector([0] * (1 << n)))
            assert is_member(point)
            # the rows state the same map as the fast transform
            assert point == to_cvector(multilinear_evaluate(coeffs))


def test_member_set_is_closed_under_ring_ops() -> None:
    rng = random.Random(9)
    for n in range(5):
        for _ in range(20):
            x = to_cvector(random_member(rng, n))
            y = to_cvector(random_member(rng, n))
            assert is_member(x + y)
            assert is_member(QComplex(0, 1) * x)
            assert is_member(mul_phi(x))
            assert is_member(-x)


def test_random_member_is_deterministic_per_seed() -> None:
    a = random_member(random.Random(4), 3)
    b = random_member(random.Random(4), 3)
    assert a == b
    # the stream itself is pinned: check 6 draws its received words from
    # the same generator right after each member, so the order of the
    # draws is part of its inputs
    assert [(z.re, z.im) for z in a] == [
        (-2, -1), (-7, -2), (-2, -1), (-1, -6),
        (-2, -7), (-9, -8), (-8, -9), (-9, -2),
    ]
    assert [(z.re, z.im) for z in random_member(random.Random(4), 2)] == [
        (-2, -1), (-7, -2), (-2, -1), (-1, -6),
    ]


def test_swap_halves_preserves_membership() -> None:
    rng = random.Random(21)
    for n in range(1, 6):
        for _ in range(10):
            x = to_cvector(random_member(rng, n))
            swapped = swap_halves(x)
            assert is_member(swapped)
            assert swap_halves(swapped) == x


def test_automorphism_maps_members_to_members() -> None:
    rng = random.Random(8)
    for n in range(1, 6):
        for _ in range(10):
            x = to_cvector(random_member(rng, n))
            assert is_member(automorphism_t(x))


def test_automorphism_squares_to_i() -> None:
    rng = random.Random(15)
    for n in range(1, 5):
        for _ in range(10):
            x = to_cvector(random_member(rng, n))
            assert automorphism_t(automorphism_t(x)) == QComplex(0, 1) * x


def test_automorphism_preserves_distances() -> None:
    rng = random.Random(30)

    def coord() -> QComplex:
        return QComplex(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))),
                        Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))))

    for n in (1, 2, 3):
        for _ in range(20):
            x = CVector(coord() for _ in range(1 << n))
            y = CVector(coord() for _ in range(1 << n))
            assert rsd(automorphism_t(x), automorphism_t(y)) == rsd(x, y)
            assert automorphism_t(x).norm_sq() == x.norm_sq()


def test_multilinear_evaluate_single_monomial() -> None:
    # the S = {0} coefficient contributes phi^1 on every index containing bit 0
    coeffs = {1: ONE}
    point = multilinear_evaluate([coeffs.get(j, ZERO) for j in range(2)])
    assert tuple(point) == (ZERO, PHI)


def test_multilinear_round_trips() -> None:
    rng = random.Random(12)
    for n in range(5):
        size = 1 << n
        for _ in range(15):
            coeffs = [GaussianInt(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(size)]
            point = multilinear_evaluate(coeffs)
            assert is_member(point)
            assert list(multilinear_interpolate(point)) == coeffs

            member = random_member(rng, n)
            cs = multilinear_interpolate(member)
            assert multilinear_evaluate(cs) == member


def test_multilinear_interpolate_rejects_non_members() -> None:
    with pytest.raises(NotAMember):
        multilinear_interpolate([ONE, ZERO])


def test_point_text_format() -> None:
    p = point_of([ONE, I])
    assert str(p) == "1,0 0,1"
    assert repr(p) == ("BWPoint(coords=(GaussianInt(re=1, im=0), "
                       "GaussianInt(re=0, im=1)))")
    for back in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
        assert type(back) is BWPoint and back == p
    # a point is the tuple of its coordinates: it equals, and hashes like,
    # the vector with the same coordinates
    v = CVector([1, QComplex(0, 1)])
    assert p == v and hash(p) == hash(v)
    assert tuple(p) + tuple(p) == (ONE, I, ONE, I)
