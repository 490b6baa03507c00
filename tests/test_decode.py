from __future__ import annotations

import collections
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwlist import decode
from bwlist.arith import CVector, GaussianInt, QComplex, format_vector, rsd
from bwlist.bounds import random_word
from bwlist.decode import (
    _TRIE_MIN,
    CostCounter,
    MaxListExceeded,
    list_decode,
)
from bwlist.lattice import BWPoint, is_member, member_pairs
from bwlist.oracle import oracle_list, shortest_vectors
from bwlist.rmcode import lower_bound_instance
from reference import PHI, random_member
from srcenv import SRC_ENV
from symmetry import PAIRINGS, automorphism_t, combine_candidates, to_cvector

HALF_PHI = QComplex(Fraction(1, 2), Fraction(1, 2))


def _gauss_set(result) -> set[BWPoint]:
    return {e.point for e in result}


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

    `symmetry.combine_candidates` is the reference for the reconstruction
    that `_PAIRING_SPECS` feeds to the decoder's pair scan; this pins all
    four pairings, not only the examples above.
    """
    rng = random.Random(12)
    for n in range(1, 5):
        for _ in range(25):
            w = to_cvector(random_member(rng, n))
            w0, w1 = w.halves()
            # automorphism_t(w) = [(phi/2)(w0 + w1), (phi/2)(w0 - w1)]
            t_plus, t_minus = automorphism_t(w).halves()
            for pairing in PAIRINGS:
                known = w0 if pairing[0] == "0" else w1
                trans = t_plus if pairing[1] == "+" else t_minus
                got = combine_candidates(
                    pairing, tuple(z.to_gaussian() for z in known),
                    tuple(z.to_gaussian() for z in trans))
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
    keys = [e.point for e in result]
    assert keys == sorted(keys)
    assert result.to_lines() == [f"{e.point}\t{e.distance}" for e in result]


def test_decoding_a_member_at_radius_zero() -> None:
    rng = random.Random(2)
    for n in range(5):
        member = random_member(rng, n)
        result = list_decode(to_cvector(member), 0)
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
                assert e.distance == rsd(r, to_cvector(e.point))
                assert e.distance <= Fraction(3, 4)


def test_radius_below_reach_gives_empty_list() -> None:
    r = CVector([QComplex(Fraction(1, 2), 0), QComplex(0, 0)])
    result = list_decode(r, Fraction(1, 100))
    assert len(result) == 0


def test_negative_radius_rejected() -> None:
    with pytest.raises(ValueError):
        list_decode(CVector([0, 0]), Fraction(-1, 2))


def test_max_list_cap_raises() -> None:
    r = CVector([HALF_PHI, HALF_PHI])
    with pytest.raises(MaxListExceeded) as exc:
        list_decode(r, Fraction(1, 2), max_list=3)
    assert exc.value.limit == 3


def test_negative_max_list_rejected_before_work() -> None:
    # the list for this word is empty, so only the argument check can fire
    r = CVector([QComplex(5, 0), QComplex(0, 0)])
    counter = CostCounter()
    with pytest.raises(ValueError, match="max_list must be >= 0"):
        list_decode(r, Fraction(1, 100), max_list=-1, counter=counter)
    assert counter.ops == 0
    with pytest.raises(ValueError, match="max_list must be >= 0"):
        list_decode(r, Fraction(1, 100), 2, max_list=-1)


def test_base_case_cap_fires_before_the_grid_is_built() -> None:
    # at eta = 10**5 the origin's grid holds 314 197 members, at 10**6
    # over 3 M; the cap must stop the grid at its (max_list + 1)-th entry
    for eta in (10**5, 10**6):
        start = time.perf_counter()
        with pytest.raises(MaxListExceeded) as exc:
            list_decode(CVector([0]), eta, max_list=10)
        assert exc.value.limit == 10
        assert time.perf_counter() - start < 2


def test_max_list_cap_allows_exact_fit() -> None:
    r = CVector([HALF_PHI, HALF_PHI])
    result = list_decode(r, Fraction(1, 2), max_list=8)
    assert len(result) == 8


def test_combine_cap_fires_during_the_scan() -> None:
    # every child list fits under the cap and only the top combine exceeds
    # it: the level-1 deep hole (children of 4, 4, 1 and 1 members, 8 on
    # top) scans flat, and the level-4 crafted word (children of at most
    # 282, 1242 on top) scans through the trie.  The scan must stop at the
    # (max_list + 1)-th survivor rather than finish the node first.
    crafted = lower_bound_instance(4, Fraction(1, 4)).received
    for r, eta, cap in ((CVector([HALF_PHI] * 2), Fraction(1, 2), 5),
                        (crafted, Fraction(3, 4), 300)):
        with pytest.raises(MaxListExceeded) as exc:
            list_decode(r, eta, max_list=cap)
        assert exc.value.limit == cap


def _assert_no_child_left() -> None:
    """Every process the decode forked has been reaped: this process has
    no child, running or a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_combine_cap_fires_on_the_pool_path(monkeypatch) -> None:
    # lower_bound_instance(5, 1/4) at 3/4 at 2 workers (the CPU count reads
    # 2, so a 1-CPU machine forks too): the caller decodes r0 (no list
    # past 64), then the root's round gives r1 (1 member) to the caller and
    # r_plus, which equals r_minus, to a forked child, whose lists grow to
    # 1242.  Cap 1000 fires inside that child's decode and comes back
    # through its pipe.  Caps 2000 and 5000 fit every child list and fire
    # in the root's pair scan, which keeps 5210 members in the caller.
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    r = lower_bound_instance(5, Fraction(1, 4)).received
    for cap in (1000, 2000, 5000):
        with pytest.raises(MaxListExceeded) as exc:
            list_decode(r, Fraction(3, 4), 2, max_list=cap)
        assert exc.value.limit == cap
        # every child is reaped on the way out of a raised cap
        _assert_no_child_left()


def test_cap_on_a_skipped_subtree_fires_only_when_counted() -> None:
    # at 1/4 both halves of the level-1 deep hole decode empty, so the
    # uncounted decode skips the transformed halves, whose list (the
    # member i, at distance 0) would trip a cap of 0; a counted decode
    # runs the literal recursion, builds that list and raises
    r = CVector([HALF_PHI] * 2)
    assert len(list_decode(r, Fraction(1, 4), max_list=0)) == 0
    with pytest.raises(MaxListExceeded) as exc:
        list_decode(r, Fraction(1, 4), max_list=0, counter=CostCounter())
    assert exc.value.limit == 0


def test_counted_decode_calls_every_node_of_the_recursion(
        monkeypatch) -> None:
    # the level-4 deep hole at 1/2 repeats its subproblems at every level:
    # the counted decode must still visit all 4**(4 - n) nodes of each
    # level n, 341 in all, and only the uncounted decode may reuse them
    core = decode._decode_core
    levels = []

    def spy(nums, den, n, *args, **kwargs):
        levels.append(n)
        return core(nums, den, n, *args, **kwargs)

    monkeypatch.setattr(decode, "_decode_core", spy)
    r = CVector([HALF_PHI] * 16)
    list_decode(r, Fraction(1, 2), counter=CostCounter())
    assert collections.Counter(levels) == {4: 1, 3: 4, 2: 16, 1: 64, 0: 256}
    levels.clear()
    list_decode(r, Fraction(1, 2))
    assert 0 < len(levels) < 341


def test_cost_counter_is_deterministic_and_positive() -> None:
    r = CVector([HALF_PHI] * 4)
    a, b = CostCounter(), CostCounter()
    list_decode(r, Fraction(1, 2), counter=a)
    list_decode(r, Fraction(1, 2), counter=b)
    assert a.ops == b.ops
    assert a.ops > 0


def test_parallel_matches_sequential_small(monkeypatch) -> None:
    # 2 workers fork the root's rounds (the CPU count reads 2, so on any
    # machine) and give the output of one worker: on a level-4 word of
    # small fractions, on the level-4 and level-5 deep holes, whose inner
    # lists hold one point, so the root scans flat, on the level-4 crafted
    # word, whose root has a one-point outer list, and on two random
    # level-5 words
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rng = random.Random(6)

    def coord() -> QComplex:
        return QComplex(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))),
                        Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))))

    cases = [(CVector(coord() for _ in range(16)), Fraction(1, 2))]
    rng = random.Random(8)
    cases += [(CVector([HALF_PHI] * 16), Fraction(1, 2)),
              (CVector([HALF_PHI] * 32), Fraction(1, 2)),
              (lower_bound_instance(4, Fraction(1, 4)).received,
               Fraction(3, 4)),
              (random_word(rng, 5), Fraction(3, 4)),
              (random_word(rng, 5), Fraction(3, 4))]
    for r, eta in cases:
        assert (list_decode(r, eta, 2).to_lines()
                == list_decode(r, eta).to_lines())


def test_parallel_combine_matches_sequential_at_every_pool_size(
        monkeypatch) -> None:
    # lower_bound_instance(5, 1/4) at 3/4: the level-5 combine has 161 460
    # candidate pairs, and the ownership limits leave 80 860 for the
    # caller to scan; it keeps 5210 members, found by up to four pairings,
    # kept by one.  Workers are clamped to the CPU count, which reads 8
    # here, so on any machine 2, 3 and 8 workers fork the root's round;
    # its distinct words are r1 and r_plus, which equals r_minus, so each
    # forks one child
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    r = lower_bound_instance(5, Fraction(1, 4)).received
    eta = Fraction(3, 4)
    seq = list_decode(r, eta).to_lines()
    assert len(seq) == 5210
    for workers in (2, 3, 8):
        assert list_decode(r, eta, workers).to_lines() == seq, workers


@pytest.fixture
def inline_fork_map(monkeypatch):
    """An in-process stand-in for `decode._fork_map`, so no process
    starts.  It records each map the decode makes as (fn, calls,
    workers)."""
    maps = []

    def fork_map(fn, calls, workers):
        maps.append((fn, calls, workers))
        return [fn(*args) for args in calls]

    monkeypatch.setattr(decode, "_fork_map", fork_map)
    return maps


def test_pool_is_never_larger_than_the_machine(monkeypatch,
                                               inline_fork_map) -> None:
    # on a machine of 3 CPUs a million workers become 3
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    r = lower_bound_instance(5, Fraction(1, 4)).received
    eta = Fraction(3, 4)
    assert (list_decode(r, eta, 10**6).to_lines()
            == list_decode(r, eta).to_lines())
    assert {workers for _, _, workers in inline_fork_map} == {3}
    # r0's list is non-empty, so r1 and the transformed halves go as one
    # round; the crafted word's two transformed halves are the same word,
    # so the round decodes it once
    assert [len(calls) for fn, calls, _ in inline_fork_map
            if fn is decode._decode_core] == [2]
    # the root's pair scan runs in the caller: no map carries it
    assert not any(fn is decode._scan_blocks for fn, _, _ in inline_fork_map)


def test_pool_skips_the_transformed_round(monkeypatch,
                                          inline_fork_map) -> None:
    # at 1/4 the level-4 deep hole's plain halves, which are the same word,
    # decode empty in-process, so the root sends no round and forks
    # nothing: the zero word among its transformed halves would trip a cap
    # of 0
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    r = CVector([HALF_PHI] * 16)
    eta = Fraction(1, 4)
    par = list_decode(r, eta, 2, max_list=0)
    assert len(par) == 0
    assert par.to_lines() == list_decode(r, eta, max_list=0).to_lines()
    assert inline_fork_map == []


def test_counted_decode_opens_no_pool(monkeypatch, inline_fork_map) -> None:
    # a counted decode runs the literal recursion in-process at any worker
    # count: at 5/8 this word's r0 list holds 22 members, so the uncounted
    # 2-worker decode sends a round to _fork_map, and the counted one must
    # not.  The CPU count reads 2, so 2 workers fork on any machine
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    r = random_word(random.Random(0), 4)
    eta = Fraction(5, 8)
    one, two = CostCounter(), CostCounter()
    lines = list_decode(r, eta, counter=one).to_lines()
    assert list_decode(r, eta, 2, counter=two).to_lines() == lines
    assert two.ops == one.ops > 0
    assert inline_fork_map == []
    assert list_decode(r, eta, 2).to_lines() == lines
    assert [workers for _, _, workers in inline_fork_map] == [2]


@pytest.fixture
def deadline():
    """Fails the test with TimeoutError if it runs for more than 60 s, so
    a decode that would hang cannot stall the suite."""

    def expire(signum, frame):
        raise TimeoutError("the test ran past its 60 s deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, old)


def test_child_that_dies_without_its_result_is_reported(deadline) -> None:
    # the forked child, which makes call 1, ends with exit status 1 and
    # sends nothing: _fork_map names that status, and reaps the child
    caller = os.getpid()

    def dies_in_the_child(i):
        if os.getpid() != caller:
            os._exit(1)
        return i

    with pytest.raises(RuntimeError, match="exit status 1 ") as exc:
        decode._fork_map(dies_in_the_child, [(0,), (1,)], 2)
    assert not isinstance(exc.value, MaxListExceeded)
    _assert_no_child_left()


def test_cap_in_the_callers_slice_leaves_a_blocked_child(deadline) -> None:
    # the caller's own call raises the cap while the child holds a result
    # far over a pipe's 64 KiB buffer: the child is blocked writing it, and
    # _fork_map must close the pipe, reap the child and raise at once
    caller = os.getpid()

    def scan(max_list):
        if os.getpid() != caller:
            return [(i, 0) for i in range(10**5)]
        time.sleep(0.2)
        raise MaxListExceeded(max_list)

    start = time.perf_counter()
    with pytest.raises(MaxListExceeded) as exc:
        decode._fork_map(scan, [(5000,), (5000,)], 2)
    assert exc.value.limit == 5000
    assert time.perf_counter() - start < 10
    _assert_no_child_left()


def test_fork_map_keeps_call_order() -> None:
    # process k of w makes calls[k::w]: the results come back in call
    # order, and of two calls that raise in different processes, the one
    # the in-process loop meets first is re-raised
    def square_unless_bad(i, bad):
        if i in bad:
            raise ValueError(i)
        return i * i

    for w in (2, 3):
        assert (decode._fork_map(square_unless_bad,
                                 [(i, ()) for i in range(7)], w)
                == [i * i for i in range(7)])
        for bad in ({1, 2}, {3, 4}):
            with pytest.raises(ValueError) as exc:
                decode._fork_map(square_unless_bad,
                                 [(i, bad) for i in range(7)], w)
            assert exc.value.args == (min(bad),), (w, bad)
    _assert_no_child_left()


def test_platform_without_fork_decodes_in_process(monkeypatch) -> None:
    # without os.fork every worker count decodes in this process alone
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "fork")
    r = lower_bound_instance(5, Fraction(1, 4)).received
    eta = Fraction(3, 4)
    assert list_decode(r, eta, 2).to_lines() == list_decode(r, eta).to_lines()
    _assert_no_child_left()


def test_pool_free_decode_loads_no_pool() -> None:
    # a decode whose plain halves both decode empty forks nothing, and one
    # that forks, the crafted word at 2 workers, forks without a pool:
    # neither imports concurrent.futures or multiprocessing.  The CPU count
    # reads 2, so 2 workers fork on any machine
    script = ("import os, sys\n"
              "from fractions import Fraction\n"
              "from bwlist.arith import CVector, QComplex\n"
              "from bwlist.decode import list_decode\n"
              "from bwlist.rmcode import lower_bound_instance\n"
              "os.cpu_count = lambda: 2\n"
              "half_phi = QComplex(Fraction(1, 2), Fraction(1, 2))\n"
              "r = CVector([half_phi] * 16)\n"
              "assert len(list_decode(r, Fraction(1, 4), 2)) == 0\n"
              "r = lower_bound_instance(5, Fraction(1, 4)).received\n"
              "assert len(list_decode(r, Fraction(3, 4), 2)) == 5210\n"
              "for name in ('concurrent.futures.process', 'multiprocessing'):\n"
              "    assert name not in sys.modules, name\n")
    proc = subprocess.run([sys.executable, "-c", script], env=SRC_ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_name_is_the_one_entry_point() -> None:
    # the benchmark's traced run imports list_decode_parallel; it must stay
    # list_decode itself, not a second body
    assert decode.list_decode_parallel is list_decode


def test_parallel_rejects_bad_worker_count() -> None:
    with pytest.raises(ValueError):
        list_decode(CVector([0, 0]), Fraction(1, 2), 0)


# Radii in [1/2, 1], capped per level so that the Fraction-based brute
# force below stays at a few thousand candidate pairs per example.
_RADIUS_CAP = {2: Fraction(1), 3: Fraction(3, 4), 4: Fraction(5, 8)}

_parts = st.builds(Fraction, st.integers(-8, 8), st.sampled_from((1, 2, 4)))
_coords = st.builds(QComplex, _parts, _parts)


@st.composite
def _words_and_radii(draw):
    n = draw(st.integers(2, 4))
    word = CVector(draw(st.lists(_coords, min_size=1 << n, max_size=1 << n)))
    eta = draw(st.fractions(Fraction(1, 2), _RADIUS_CAP[n],
                            max_denominator=8))
    return word, eta


def _brute_force_combine(r: CVector, eta: Fraction):
    """The level-n list rebuilt from its four child lists by brute force.

    Each child word is decoded with `list_decode`; every pairing of a known
    half with a transformed half is assembled by `combine_candidates` and
    kept when its exact relative squared distance is within eta (computed
    over r's common denominator; each kept one is checked against `rsd`).
    Returns the canonical lines and the child lists' sizes.
    """
    r0, r1 = r.halves()
    r_plus, r_minus = automorphism_t(r).halves()
    children = {
        key: [e.point for e in list_decode(word, eta)]
        for key, word in (("0", r0), ("1", r1), ("+", r_plus),
                          ("-", r_minus))
    }
    den = lcm(*(x.denominator for z in r for x in (z.re, z.im)))
    scaled = [(int(z.re * den), int(z.im * den)) for z in r]
    limit = eta * den * den * len(r)
    kept = {}
    for pairing in PAIRINGS:
        for known in children[pairing[0]]:
            for trans in children[pairing[1]]:
                pt = tuple(z.to_gaussian()
                           for z in combine_candidates(pairing, known, trans))
                tot = sum((x - den * z.re) ** 2 + (y - den * z.im) ** 2
                          for (x, y), z in zip(scaled, pt))
                if tot <= limit:
                    dist = rsd(r, CVector(pt))
                    assert dist == Fraction(tot, den * den * len(r))
                    kept[tuple((z.re, z.im) for z in pt)] = (pt, dist)
    lines = [f"{format_vector(pt)}\t{dist}"
             for _, (pt, dist) in sorted(kept.items())]
    return lines, {key: len(pts) for key, pts in children.items()}


# Without a cap, radii in [1/8, 1] capped per level so that a counted
# decode stays under half a second; a cap of at most 8 stops any level
# early, so with one every level takes radii up to 1.
_UNCAPPED_RADIUS = {4: Fraction(7, 8), 5: Fraction(3, 4)}


@st.composite
def _differential_cases(draw):
    n = draw(st.integers(0, 5))
    size = 1 << n
    word = draw(st.lists(_coords, min_size=size, max_size=size))
    other = draw(st.lists(_coords, min_size=size, max_size=size))
    cap = draw(st.none() | st.integers(0, 8))
    top = _UNCAPPED_RADIUS.get(n, Fraction(1)) if cap is None else Fraction(1)
    radii = st.fractions(Fraction(1, 8), top, max_denominator=8)
    # the second word shares the first word's left half, so a memo kept
    # from one decode to the next would be hit on that whole subtree
    other = word[:size // 2] + other[size // 2:]
    return CVector(word), CVector(other), draw(radii), draw(radii), cap


def _lines_or_cap(*args, **kwargs):
    """list_decode's lines, or the limit of the cap that fires."""
    try:
        return list_decode(*args, **kwargs).to_lines()
    except MaxListExceeded as exc:
        return exc.limit


def _literal(r, eta, max_list):
    """The counted decode's lines or cap: the literal recursion, which
    never touches the memo."""
    return _lines_or_cap(r, eta, max_list=max_list, counter=CostCounter())


def _check_fast(fast, literal, r, eta):
    """An uncounted decode's lines or cap against the literal decode's."""
    if isinstance(literal, list):
        assert fast == literal
    if isinstance(fast, int):
        assert isinstance(literal, int)
    else:
        # a cap that fires nowhere the fast decode looks leaves it exact
        assert fast == list_decode(r, eta).to_lines()


@settings(max_examples=40, deadline=None)
@given(_differential_cases())
@example((random_word(random.Random(18), 4), CVector([0] * 16),
          Fraction(3, 8), Fraction(3, 8), 2))
@example((random_word(random.Random(0), 4), CVector([0] * 16),
          Fraction(5, 8), Fraction(5, 8), 22))
def test_fast_decode_matches_literal_decode(case) -> None:
    # the counted decode runs the literal four-call recursion and never
    # touches the memo; the uncounted one takes the early exit and memoises
    # repeated subproblems.  The first example's word at 3/8 has lists over
    # a cap of 2 only in subtrees the early exit skips, so the 2-worker
    # decode must skip them too.  In the second, r0's list of 22 fits a cap
    # of 22 and r_plus's 27 do not, so the 2-worker decode's cap fires in
    # its forked round
    r, other, eta, other_eta, cap = case
    # the other word, which shares r's left half, is decoded uncounted
    # before and after r: a memo that outlived its decode would hand one
    # word's lists, found at one radius, to the other word's decode
    other_before = _lines_or_cap(other, other_eta, max_list=cap)
    fast = _lines_or_cap(r, eta, max_list=cap)
    # the CPU count reads 2, so words of level >= 4 fork on any machine
    with mock.patch.object(os, "cpu_count", lambda: 2):
        par = _lines_or_cap(r, eta, 2, max_list=cap)
    other_after = _lines_or_cap(other, other_eta, max_list=cap)
    _check_fast(fast, _literal(r, eta, cap), r, eta)
    assert par == fast
    other_literal = _literal(other, other_eta, cap)
    for got in (other_before, other_after):
        _check_fast(got, other_literal, other, other_eta)


@settings(max_examples=50, deadline=None)
@given(_words_and_radii())
@example((CVector([HALF_PHI] * 4), Fraction(1)))
@example((random_word(random.Random(2), 2), Fraction(1)))
@example((CVector([HALF_PHI] * 8), Fraction(1, 2)))
@example((lower_bound_instance(3, Fraction(1, 4)).received, Fraction(3, 4)))
@example((random_word(random.Random(1_000_008), 1), Fraction(9, 10)))
@example((random_word(random.Random(1_000_009), 1), Fraction(9, 10)))
def test_pair_scan_matches_brute_force_combine(case) -> None:
    # the fixed examples put members where an ownership limit one unit off
    # keeps a member twice or loses it: every member of the deep hole at
    # 1/2 and both its halves lie on the radius, the crafted word's
    # witnesses lie on 3/4, and the two level-1 words at 9/10, whose child
    # limits are not whole, each have a member whose plus transform lies
    # one unit past r_plus's limit, kept by 0- in the first and by 1- in
    # the second
    r, eta = case
    lines, _ = _brute_force_combine(r, eta)
    assert list_decode(r, eta).to_lines() == lines


def test_trie_join_matches_brute_force_on_the_crafted_word() -> None:
    # lower_bound_instance(4, 1/4) at 3/4: the transformed child lists hold
    # 282 members each, far past the trie cutoff, and the witnesses sit
    # exactly on the radius
    r = lower_bound_instance(4, Fraction(1, 4)).received
    eta = Fraction(3, 4)
    lines, sizes = _brute_force_combine(r, eta)
    assert min(sizes["+"], sizes["-"]) >= _TRIE_MIN
    assert list_decode(r, eta).to_lines() == lines


def test_every_scan_survivor_is_a_member(monkeypatch,
                                         inline_fork_map) -> None:
    # every point the pair scan assembles and keeps must be a lattice
    # member, kept once, on both of its routes: flat (the level-2 deep
    # hole, whose transformed child lists hold one member) and through a
    # trie.  The crafted level-5 word at 2 workers, its round made
    # in-process here so that every scan is checked, scans its root in
    # one part of 5210
    scan = decode._scan_blocks
    survivors = {"flat": 0, "trie": 0}
    root_parts = []

    def checked_scan(nums, den, half, limit, blocks, max_list):
        out = scan(nums, den, half, limit, blocks, max_list)
        points = [pt for pt, _ in out]
        assert all(member_pairs(pt) for pt in points)
        assert len(set(points)) == len(points)
        trie = any(len(inners) >= _TRIE_MIN for _, inners, _ in blocks)
        survivors["trie" if trie else "flat"] += len(out)
        if half == 16:
            root_parts.append(len(out))
        return out

    monkeypatch.setattr(decode, "_scan_blocks", checked_scan)
    assert len(list_decode(CVector([HALF_PHI] * 4), Fraction(1, 2))) == 16
    assert survivors["flat"] > 0 and survivors["trie"] == 0
    assert list_decode(random_word(random.Random(2), 2), Fraction(1))
    assert survivors["trie"] > 0
    before = sum(survivors.values())
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    r = lower_bound_instance(5, Fraction(1, 4)).received
    assert len(list_decode(r, Fraction(3, 4), 2)) == 5210
    assert sum(survivors.values()) > before
    assert root_parts == [5210]


def test_ownership_limits_prune_pairs_before_the_scan(monkeypatch) -> None:
    # every combine scans just the pairs of an outer and an inner that a
    # pair on the radius could still have kept: a w1 whose w0 could lie
    # past r0's own limit, a minus transform whose plus transform could lie
    # past r_plus's.  The level-4 deep hole at 1/2 has w1s on that bound and
    # the level-3 crafted word at 3/4 w1s one unit inside it and minus
    # transforms on it and one unit inside it
    combine, scan = decode._combine_core, decode._scan_blocks
    ruled_in, scanned = [], []

    def combine_spy(nums, den, n, p, q, sub0, sub1, subp, subm, *rest):
        half = 1 << (n - 1)
        limit = p * den * den * 2 * half // q
        lim0 = p * den * den * half // q
        lim_p = p * (2 * den) ** 2 * half // q
        outers = len(sub0) + sum(limit - tot > lim0 for _, tot in sub1)
        inners = len(subp) + sum(4 * limit - tot > lim_p for _, tot in subm)
        ruled_in.append(outers * inners)
        scanned.append(0)
        return combine(nums, den, n, p, q, sub0, sub1, subp, subm, *rest)

    def scan_spy(nums, den, half, limit, blocks, max_list):
        scanned[-1] += sum(len(outers) * len(inners)
                           for outers, inners, _ in blocks)
        return scan(nums, den, half, limit, blocks, max_list)

    deep_hole = CVector([HALF_PHI] * 16)
    _, sizes = _brute_force_combine(deep_hole, Fraction(1, 2))
    monkeypatch.setattr(decode, "_combine_core", combine_spy)
    monkeypatch.setattr(decode, "_scan_blocks", scan_spy)
    for r, eta in ((lower_bound_instance(3, Fraction(1, 4)).received,
                    Fraction(3, 4)),
                   (deep_hole, Fraction(1, 2))):
        ruled_in.clear()
        scanned.clear()
        list_decode(r, eta)
        assert scanned == ruled_in, (r, eta)
    # at the deep hole's root every w1 lies on r1's radius, so the 1+ and 1-
    # pairings get no outer and the scan visits half of the candidate pairs
    # that the ops count
    npairs = (sizes["0"] + sizes["1"]) * (sizes["+"] + sizes["-"])
    assert npairs > 0 and scanned[-1] * 2 == npairs


@settings(max_examples=300, deadline=None)
@given(st.integers(-200, 200), st.integers(-200, 200), st.integers(1, 12),
       st.integers(-9, 9), st.integers(-9, 9), st.sampled_from((1, -1)))
@example(0, 0, 1, 0, 0, 1)
@example(1, 0, 1, 0, 0, 1)
@example(3, -3, 2, 1, 0, -1)
def test_coset_floor_is_the_least_term_over_every_inner_coordinate(
        x, y, den, a, b, sign) -> None:
    # the trie walk's floor for coordinate j is the least
    # |base_j - den (1-i) T_j|^2 over every Gaussian integer T_j: a brute
    # force over the T = c + d i around the nearest lattice point, where
    # den (1-i) T = den (c + d, d - c)
    floor = decode._coset_floor(x, y, den)
    d2 = 2 * den
    cs = range((x - y) // d2 - 1, (x - y) // d2 + 3)
    ds = range((x + y) // d2 - 1, (x + y) // d2 + 3)
    assert floor == min((x - den * (c + d)) ** 2 + (y - den * (d - c)) ** 2
                        for c in cs for d in ds)
    # base_j = R_j -/+ den K_j: the floor reads K_j only through the parity
    # of K_j.re + K_j.im
    assert (decode._coset_floor(x - sign * den * a, y - sign * den * b, den)
            == decode._coset_floor(x - den * ((a + b) & 1), y, den))


def _text_and_ops_per_scan_path(r: CVector, eta: Fraction):
    """list_decode's text and counted ops with the default trie cutoff, with
    a trie for every inner list, and with a flat scan for every one."""
    runs = []
    for trie_min in (_TRIE_MIN, 1, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decode, "_TRIE_MIN", trie_min)
            counter = CostCounter()
            lines = list_decode(r, eta, counter=counter).to_lines()
        runs.append((lines, counter.ops))
    return runs


def test_flat_scan_and_trie_agree_on_every_list_length() -> None:
    # by default the flat loop never sees an inner list of _TRIE_MIN or more
    # points and the trie never sees a shorter one; forcing either path onto
    # every list must keep every member, every distance and the op count.
    # The deep holes and the crafted word put members exactly on the radius
    rng = random.Random(9)
    cases = [(CVector([HALF_PHI] * 16), Fraction(1, 2)),
             (CVector([HALF_PHI] * 32), Fraction(1, 2)),
             (lower_bound_instance(4, Fraction(1, 4)).received, Fraction(3, 4))]
    cases += [(random_word(rng, n), eta) for n in (3, 4, 5)
              for eta in (Fraction(1, 4), Fraction(3, 4))]
    for r, eta in cases:
        default, trie, flat = _text_and_ops_per_scan_path(r, eta)
        assert trie == default and flat == default, (r.n, eta)


@settings(max_examples=10, deadline=None)
@given(_words_and_radii())
def test_flat_scan_and_trie_agree_on_small_words(case) -> None:
    default, trie, flat = _text_and_ops_per_scan_path(*case)
    assert trie == default and flat == default


@st.composite
def _distinct_points(draw):
    """Distinct inner points of one length, as (pt, tot) entries, and a den.

    Each point copies a prefix of one shared stem and draws the rest, so
    points share prefixes of every length up to the whole stem.
    """
    half = draw(st.integers(1, 8))
    coord = st.tuples(st.integers(-1, 1), st.integers(-1, 1))
    stem = tuple(draw(st.lists(coord, min_size=half, max_size=half)))
    point = st.integers(0, half).flatmap(
        lambda cut: st.lists(coord, min_size=half - cut,
                             max_size=half - cut).map(
            lambda tail: stem[:cut] + tuple(tail)))
    pts = draw(st.lists(point, min_size=1, max_size=40, unique=True))
    return [(pt, 0) for pt in pts], draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(_distinct_points())
def test_inner_trie_shape(case) -> None:
    inners, den = case
    root, keys = decode._inner_trie(inners, den)
    assert keys == [tuple((den * (c + d), den * (d - c)) for c, d in pt)
                    for pt, _ in inners]
    # every point's key path ends at a leaf that holds its index
    for i, kt in enumerate(keys):
        node, j = root, 0
        while node.__class__ is dict:
            node = node[kt[j]]
            j += 1
        assert node == i
    stack = [((), root)]
    while stack:
        prefix, node = stack.pop()
        j = len(prefix)
        under = [i for i, kt in enumerate(keys) if kt[:j] == prefix]
        # every child dict holds at least two points
        assert len(under) >= 2 or not prefix
        # keys are in order of first appearance
        assert list(node) == list(dict.fromkeys(keys[i][j] for i in under))
        for k, child in node.items():
            if child.__class__ is dict:
                stack.append((prefix + (k,), child))
            else:
                # no other point shares the key prefix of a leaf
                assert [i for i in under if keys[i][j] == k] == [child]


def _object_lines(result) -> list[str]:
    """The text of a result built from its DecodeEntry objects."""
    return [f"{format_vector(e.point)}\t{e.distance}" for e in result]


# coordinates with large and coprime denominators, so the common
# denominator is large and every distance needs Fraction's reduction
_rational_coords = st.builds(
    QComplex,
    st.fractions(-6, 6, max_denominator=10**6),
    st.fractions(-6, 6, max_denominator=10**6),
)


@st.composite
def _rational_words(draw):
    n = draw(st.integers(0, 3))
    word = CVector(draw(st.lists(_rational_coords, min_size=1 << n,
                                 max_size=1 << n)))
    eta = draw(st.fractions(Fraction(1, 4), 1, max_denominator=97))
    return word, eta


@settings(max_examples=60, deadline=None)
@given(_rational_words())
@example((CVector([HALF_PHI] * 8), Fraction(1, 2)))
@example((CVector([QComplex(Fraction(1, 3), Fraction(2, 7)),
                   QComplex(Fraction(-5, 11), Fraction(999_983, 10**6))]),
          Fraction(3, 4)))
def test_lean_text_equals_object_text(case) -> None:
    r, eta = case
    for result in (list_decode(r, eta), oracle_list(r, eta)):
        lines = result.to_lines()
        assert lines == _object_lines(result)
        assert len(result) == len(lines)
    assert list_decode(r, eta).to_lines() == oracle_list(r, eta).to_lines()


def test_lean_text_equals_object_text_for_fixed_lists() -> None:
    _, shell = shortest_vectors(2)
    witnesses = lower_bound_instance(4, Fraction(1, 4)).witnesses
    for result in (shell, witnesses):
        lines = result.to_lines()
        assert lines and lines == _object_lines(result)


def test_text_path_builds_no_objects(monkeypatch) -> None:
    # formatting and len() read only the scaled integers; only iteration
    # builds points and Gaussian integers
    def refuse(*args):
        raise AssertionError("object built on the text path")

    monkeypatch.setattr(decode, "BWPoint", refuse)
    monkeypatch.setattr(decode, "GaussianInt", refuse)
    result = list_decode(CVector([HALF_PHI] * 8), Fraction(1, 2))
    assert len(result) == 32
    lines = result.to_lines()
    assert len(lines) == 32
    assert all(line.endswith("\t1/2") for line in lines)
    assert len(lower_bound_instance(4, Fraction(1, 4)).witnesses.to_lines()) == 35
    with pytest.raises(AssertionError, match="text path"):
        list(result)
