from __future__ import annotations

import copy
import operator
import pickle
import random
from fractions import Fraction

import pytest

from bwlist.arith import (
    CVector,
    GaussianInt,
    NotDivisible,
    QComplex,
    format_vector,
    parse_qcomplex,
    parse_rational,
    parse_vector,
    phi_pow,
    rsd,
    vector_to_scaled,
)
from reference import PHI, gaussian_div_phi, gaussian_norm_sq
from symmetry import div_phi, half_relation, join, mul_phi


def test_gaussian_int_ring_ops() -> None:
    a = GaussianInt(2, -1)
    b = GaussianInt(-3, 4)
    assert a + b == GaussianInt(-1, 3)
    assert a - b == GaussianInt(5, -5)
    assert -a == GaussianInt(-2, 1)
    assert a * b == GaussianInt(-2, 11)
    assert 3 * a == GaussianInt(6, -3)
    assert gaussian_norm_sq(a) == 5
    # with an int the result stays in Z[i]; with a rational it leaves it
    for got, want in ((a + 1, GaussianInt(3, -1)), (1 - a, GaussianInt(-1, 1)),
                      (a * 2, GaussianInt(4, -2))):
        assert type(got) is GaussianInt and got == want
    g, half = GaussianInt(1, 1), Fraction(1, 2)
    for got, want in ((g * QComplex(half), QComplex(half, half)),
                      (QComplex(half) * g, QComplex(half, half)),
                      (g + QComplex(half), QComplex(Fraction(3, 2), 1)),
                      (QComplex(half) - g, QComplex(-half, -1)),
                      (g * half, QComplex(half, half)),
                      (half * g, QComplex(half, half)),
                      (half - g, QComplex(-half, -1))):
        assert type(got) is QComplex and got == want
    # anything else is refused, a plain tuple too: it must not concatenate
    for bad in ((1, 2), 1.5, "1", None):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(g, bad)


def test_phi_basics() -> None:
    assert PHI == GaussianInt(1, 1)
    assert gaussian_norm_sq(PHI) == 2
    assert PHI * PHI == GaussianInt(0, 2)
    assert phi_pow(0) == GaussianInt(1, 0)
    assert phi_pow(3) == PHI * PHI * PHI


def test_gaussian_div_phi() -> None:
    assert gaussian_div_phi(PHI) == GaussianInt(1, 0)
    assert gaussian_div_phi(GaussianInt(2, 0)) == GaussianInt(1, -1)
    with pytest.raises(NotDivisible):
        gaussian_div_phi(GaussianInt(1, 0))


def test_gaussian_div_phi_inverts_mul_phi() -> None:
    rng = random.Random(11)
    for _ in range(50):
        z = GaussianInt(rng.randint(-9, 9), rng.randint(-9, 9))
        assert z.mul_phi() == z * PHI
        assert gaussian_div_phi(z.mul_phi()) == z


def test_qcomplex_exact_ops() -> None:
    z = QComplex(Fraction(1, 2), Fraction(-3, 4))
    w = QComplex(2, 1)
    assert z + w == QComplex(Fraction(5, 2), Fraction(1, 4))
    assert z * w == QComplex(Fraction(7, 4), Fraction(-1))
    assert Fraction(1, 3) * z == QComplex(Fraction(1, 6), Fraction(-1, 4))
    assert z.norm_sq() == Fraction(1, 4) + Fraction(9, 16)
    # every scalar operand, on either side, gives a QComplex
    for got, want in ((z + 1, QComplex(Fraction(3, 2), Fraction(-3, 4))),
                      (1 - z, QComplex(Fraction(1, 2), Fraction(3, 4))),
                      (z * GaussianInt(2, 1), QComplex(Fraction(7, 4), -1)),
                      (GaussianInt(2, 1) - z,
                       QComplex(Fraction(3, 2), Fraction(7, 4)))):
        assert type(got) is QComplex and got == want
    for bad in ((1, 2), 1.5, "1", None):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(z, bad)


def test_qcomplex_div_phi_always_exact() -> None:
    # over the rationals 1/phi = (1 - i)/2
    one = QComplex(1, 0)
    assert div_phi(one) == QComplex(Fraction(1, 2), Fraction(-1, 2))
    rng = random.Random(5)
    for _ in range(50):
        z = QComplex(Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))),
                     Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))))
        assert mul_phi(div_phi(z)) == z


def test_qcomplex_gaussian_conversion() -> None:
    assert QComplex(3, -2).to_gaussian() == GaussianInt(3, -2)
    with pytest.raises(NotDivisible):
        QComplex(Fraction(1, 2), 0).to_gaussian()
    with pytest.raises(NotDivisible):
        QComplex(0, Fraction(-3, 2)).to_gaussian()


def test_cvector_requires_power_of_two_length() -> None:
    CVector([1])
    CVector([1, 2])
    CVector([1, 2, 3, 4])
    with pytest.raises(ValueError):
        CVector([1, 2, 3])
    with pytest.raises(ValueError):
        CVector([])


def test_cvector_level_and_halves() -> None:
    v = CVector([1, QComplex(0, 1), 2, QComplex(1, 1)])
    assert v.n == 2
    assert len(v) == 4
    left, right = v.halves()
    assert left == CVector([1, QComplex(0, 1)])
    assert right == CVector([2, QComplex(1, 1)])
    assert join(left, right) == v


def test_cvector_norms() -> None:
    assert CVector([0] * 4).norm_sq() == 0
    assert CVector([1, QComplex(0, 1)]).norm_sq() == 2
    assert CVector([QComplex(Fraction(1, 2), Fraction(1, 2))]).norm_sq() == Fraction(1, 2)


def test_rsd_examples() -> None:
    zero = CVector([0, 0])
    assert rsd(zero, zero) == 0
    assert rsd(zero, CVector([1, QComplex(0, 1)])) == 1
    v = CVector([QComplex(Fraction(1, 2), Fraction(1, 2))] * 2)
    assert rsd(v, CVector([0, 0])) == Fraction(1, 2)


def test_rsd_rejects_level_mismatch() -> None:
    with pytest.raises(ValueError):
        rsd(CVector([0, 0]), CVector([0] * 4))


def test_half_relation_example() -> None:
    r = CVector([0, PHI])
    w = CVector([0, 0])
    assert half_relation(r, w) == (Fraction(1), Fraction(0), Fraction(1))


def test_half_relation_holds_for_random_words() -> None:
    rng = random.Random(77)

    def coord() -> QComplex:
        return QComplex(Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))),
                        Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))))

    for n in (1, 2, 3):
        for _ in range(40):
            r = CVector(coord() for _ in range(1 << n))
            w = CVector(coord() for _ in range(1 << n))
            eta, eta0, eta1 = half_relation(r, w)
            assert eta == rsd(r, w)
            assert eta == eta0 / 2 + eta1


def test_half_relation_needs_two_halves() -> None:
    with pytest.raises(ValueError):
        half_relation(CVector([0]), CVector([0]))


def test_rational_text_round_trip() -> None:
    for text in ("0", "-3", "5/4", "-7/2"):
        assert str(parse_rational(text)) == text
    assert parse_rational("2/4") == Fraction(1, 2)
    for bad in ("", "1.5", "1/0", "1 /2", "+3", "\u0661", "1/\u0662"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_qcomplex_text_round_trip() -> None:
    assert parse_qcomplex("3/2,-1") == QComplex(Fraction(3, 2), -1)
    assert str(QComplex(Fraction(3, 2), -1)) == "3/2,-1"
    assert str(GaussianInt(0, 2)) == "0,2"
    # each scalar is the tuple of its parts: it pickles and copies as its
    # own type, and equal scalars hash alike, across types too
    for z in (QComplex(Fraction(3, 2), -1), GaussianInt(0, 2)):
        for back in (pickle.loads(pickle.dumps(z)), copy.deepcopy(z)):
            assert type(back) is type(z) and back == z
    assert GaussianInt(0, 2) == QComplex(0, 2) == (0, 2)
    assert hash(GaussianInt(0, 2)) == hash(QComplex(0, 2)) == hash((0, 2))
    assert len(GaussianInt(0, 2)) == 2
    assert parse_qcomplex("1, 2") == QComplex(1, 2)  # spacing inside a pair is tolerated
    for bad in ("1", "1,2,3", "a,b", "1,"):
        with pytest.raises(ValueError):
            parse_qcomplex(bad)


def test_vector_text_round_trip() -> None:
    text = "1,0 1/2,-3/4"
    v = parse_vector(text)
    assert v == CVector([QComplex(1, 0), QComplex(Fraction(1, 2), Fraction(-3, 4))])
    assert format_vector(v) == text
    for back in (pickle.loads(pickle.dumps(v)), copy.deepcopy(v)):
        assert type(back) is CVector and back == v
        assert hash(back) == hash(v)
    # a plain tuple adds coordinatewise from either side, never concatenates
    w, pair = CVector([1, 2]), (QComplex(1), QComplex(0))
    for got in (pair + w, w + pair):
        assert type(got) is CVector and got == CVector([2, 2])
    assert parse_vector("  1,0\t0,1  ") == CVector([1, QComplex(0, 1)])
    with pytest.raises(ValueError):
        parse_vector("1,0 0,1 1,1")  # length 3
    with pytest.raises(ValueError):
        parse_vector("")


def test_scaled_representation_round_trip() -> None:
    rng = random.Random(13)
    for n in (0, 1, 2, 3):
        for _ in range(20):
            v = CVector(QComplex(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4))),
                                 Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4))))
                        for _ in range(1 << n))
            pairs, den = vector_to_scaled(v)
            assert den >= 1
            for (a, b), z in zip(pairs, v):
                assert QComplex(Fraction(a, den), Fraction(b, den)) == z
