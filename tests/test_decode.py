from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from bwlist.arith import PHI, CVector, GaussianInt, QComplex, rsd
from bwlist.decode import (
    PAIRINGS,
    CostCounter,
    MaxListExceeded,
    combine_candidates,
    list_decode,
    list_decode_parallel,
)
from bwlist.lattice import automorphism_t, is_member, random_member
from bwlist.rmcode import lower_bound_instance

HALF_PHI = QComplex(Fraction(1, 2), Fraction(1, 2))


def _gauss_set(result) -> set[tuple[tuple[int, int], ...]]:
    return {e.point.key() for e in result}


def test_base_case_deep_hole() -> None:
    result = list_decode(CVector([HALF_PHI]), Fraction(1, 2))
    assert _gauss_set(result) == {((0, 0),), ((1, 0),), ((0, 1),), ((1, 1),)}
    assert all(e.distance == Fraction(1, 2) for e in result)


def test_base_case_origin_radius_one() -> None:
    result = list_decode(CVector([QComplex(0, 0)]), 1)
    assert _gauss_set(result) == {
        ((0, 0),), ((1, 0),), ((-1, 0),), ((0, 1),), ((0, -1),),
    }


def test_combine_candidate_examples() -> None:
    one = GaussianInt(1, 0)
    zero = GaussianInt(0, 0)
    assert combine_candidates("0+", [one], [PHI]) == CVector([one, one])
    assert combine_candidates("1+", [zero], [PHI]) == CVector([GaussianInt(2, 0), zero])


def test_combine_candidates_rebuild_members() -> None:
    """Every pairing rebuilds a member from one half and one transform.

    `combine_candidates` is kept as the public reference for the
    reconstruction that `_PAIRING_SPECS` feeds to the decoder's pair scan;
    this pins all four pairings, not only the examples above.
    """
    rng = random.Random(12)
    for n in range(1, 5):
        for _ in range(25):
            w = random_member(rng, n).to_cvector()
            w0, w1 = w.halves()
            # automorphism_t(w) = [(phi/2)(w0 + w1), (phi/2)(w0 - w1)]
            t_plus, t_minus = automorphism_t(w).halves()
            for pairing in PAIRINGS:
                known = w0 if pairing[0] == "0" else w1
                trans = t_plus if pairing[1] == "+" else t_minus
                got = combine_candidates(pairing, known.to_gaussian(),
                                         trans.to_gaussian())
                assert got == w, pairing


def test_combine_candidates_rejects_bad_input() -> None:
    one = GaussianInt(1, 0)
    with pytest.raises(ValueError):
        combine_candidates("2+", [one], [one])
    with pytest.raises(ValueError):
        combine_candidates("0+", [one], [one, one])


def test_pairings_constant() -> None:
    assert PAIRINGS == ("0+", "0-", "1+", "1-")


def test_eight_point_list_at_level_one() -> None:
    r = CVector([HALF_PHI, HALF_PHI])
    result = list_decode(r, Fraction(1, 2))
    assert len(result) == 8
    assert all(e.distance == Fraction(1, 2) for e in result)
    assert ((1, 0), (0, 1)) in _gauss_set(result)
    for e in result:
        assert is_member(e.point)


def test_entries_are_sorted_canonically() -> None:
    r = CVector([HALF_PHI, HALF_PHI])
    result = list_decode(r, Fraction(1, 2))
    keys = [e.point.key() for e in result]
    assert keys == sorted(keys)
    assert result.to_lines() == [f"{e.point}\t{e.distance}" for e in result]


def test_decoding_a_member_at_radius_zero() -> None:
    rng = random.Random(2)
    for n in range(5):
        member = random_member(rng, n)
        result = list_decode(member.to_cvector(), 0)
        assert [e.point for e in result] == [member]
        assert result.entries[0].distance == 0


def test_reported_distances_are_exact() -> None:
    rng = random.Random(40)

    def coord() -> QComplex:
        return QComplex(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))),
                        Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))))

    for n in (0, 1, 2, 3):
        for _ in range(5):
            r = CVector(coord() for _ in range(1 << n))
            result = list_decode(r, Fraction(3, 4))
            for e in result:
                assert is_member(e.point)
                assert e.distance == rsd(r, e.point.to_cvector())
                assert e.distance <= Fraction(3, 4)


def test_radius_below_reach_gives_empty_list() -> None:
    r = CVector([QComplex(Fraction(1, 2), 0), QComplex(0, 0)])
    result = list_decode(r, Fraction(1, 100))
    assert len(result) == 0


def test_negative_radius_rejected() -> None:
    with pytest.raises(ValueError):
        list_decode(CVector.zero(1), Fraction(-1, 2))


def test_max_list_cap_raises() -> None:
    r = CVector([HALF_PHI, HALF_PHI])
    with pytest.raises(MaxListExceeded) as exc:
        list_decode(r, Fraction(1, 2), max_list=3)
    assert exc.value.limit == 3
    assert exc.value.size > 3


def test_max_list_cap_allows_exact_fit() -> None:
    r = CVector([HALF_PHI, HALF_PHI])
    result = list_decode(r, Fraction(1, 2), max_list=8)
    assert len(result) == 8


def test_cost_counter_is_deterministic_and_positive() -> None:
    r = CVector([HALF_PHI] * 4)
    a, b = CostCounter(), CostCounter()
    list_decode(r, Fraction(1, 2), counter=a)
    list_decode(r, Fraction(1, 2), counter=b)
    assert a.ops == b.ops
    assert a.ops > 0


def test_parallel_matches_sequential_small() -> None:
    rng = random.Random(6)

    def coord() -> QComplex:
        return QComplex(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))),
                        Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))))

    r = CVector(coord() for _ in range(16))
    seq = list_decode(r, Fraction(1, 2))
    par = list_decode_parallel(r, Fraction(1, 2), 2)
    assert seq.to_lines() == par.to_lines()


def test_parallel_combine_and_depth_two_match_sequential() -> None:
    # lower_bound_instance(5, 1/4) at 3/4: the level-5 combine examines
    # 161 460 pairs (over _PAR_COMBINE_MIN, so it is sliced across the
    # pool) and keeps 5210 members, most of them found by two pairings;
    # 8 workers split two levels deep
    r = lower_bound_instance(5, Fraction(1, 4)).received
    eta = Fraction(3, 4)
    seq = list_decode(r, eta).to_lines()
    assert len(seq) == 5210
    for workers in (2, 3, 8):
        assert list_decode_parallel(r, eta, workers).to_lines() == seq, workers


def test_parallel_rejects_bad_worker_count() -> None:
    with pytest.raises(ValueError):
        list_decode_parallel(CVector.zero(1), Fraction(1, 2), 0)


def test_validation_mode_reproduces_output() -> None:
    # BWLIST_VALIDATE re-checks every survivor's membership inside the scan
    script = (
        "from fractions import Fraction\n"
        "from bwlist.arith import CVector, QComplex\n"
        "from bwlist.decode import list_decode\n"
        "h = QComplex(Fraction(1, 2), Fraction(1, 2))\n"
        "r = CVector([h] * 8)\n"
        "print('\\n'.join(list_decode(r, Fraction(1, 2)).to_lines()))\n"
    )
    runs = {}
    for flag in ("0", "1"):
        env = dict(os.environ, BWLIST_VALIDATE=flag)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, check=True)
        runs[flag] = proc.stdout
    assert runs["0"] == runs["1"]
    assert len(runs["1"].strip().splitlines()) == 32
