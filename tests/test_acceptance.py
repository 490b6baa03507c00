"""Acceptance checks, one test per criterion.

Each test prints a single `[check k] ...: PASS` or `FAIL` line; run with
`pytest -s tests/test_acceptance.py` to stream the lines as they complete.
The slow entries are the exhaustive decoder/oracle comparison (check 1)
and the worker-count determinism sweep (check 8), which re-decodes the
level-8 radius-3/4 instance once per worker count.
"""
from __future__ import annotations

import random
import time
from fractions import Fraction

from bwlist.arith import CVector, QComplex, rsd
from bwlist.bounds import random_word, validate_bounds
from bwlist.decode import CostCounter, list_decode
from bwlist.lattice import is_member
from bwlist.oracle import oracle_list, shortest_vectors
from bwlist.rmcode import lower_bound_instance
from reference import (
    NotAMember,
    bw_from_rm_layers,
    bw_to_rm_layers,
    gaussian_binomial,
    lower_eps,
    multilinear_evaluate,
    multilinear_interpolate,
    random_member,
)
from symmetry import automorphism_t, half_relation, swap_halves, to_cvector

HALF_PHI = QComplex(Fraction(1, 2), Fraction(1, 2))


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_01_decoder_matches_exhaustive_oracle() -> None:
    radii = (Fraction(1, 4), Fraction(1, 2), Fraction(5, 8),
             Fraction(3, 4), Fraction(9, 10), Fraction(1))
    mismatches = []
    total = 0
    for n in range(4):
        for trial in range(100):
            word = random_word(random.Random(1_000_003 * n + trial), n)
            for eta in radii:
                total += 1
                if (list_decode(word, eta).to_lines()
                        != oracle_list(word, eta).to_lines()):
                    mismatches.append((n, trial, str(eta)))
    _report("[check 1] decoder output matches exhaustive enumeration",
            not mismatches,
            f"{total} instances" if not mismatches else f"bad: {mismatches[:5]}")


def test_02_deep_hole_list_size_is_4n() -> None:
    sizes = []
    for n in range(4):
        word = CVector([HALF_PHI] * (1 << n))
        sizes.append(len(list_decode(word, Fraction(1, 2))))
    _report("[check 2] all-phi/2 word at radius 1/2 has exactly 4N members",
            sizes == [4, 8, 16, 32], f"sizes {sizes}")


def test_03_minimum_norm_and_shortest_vector_counts() -> None:
    norms = []
    counts = {}
    for n in range(4):
        min_norm, shell = shortest_vectors(n)
        norms.append(min_norm)
        counts[n] = len(shell)
    ok = norms == [1, 2, 4, 8] and counts[0] == 4 and counts[1] == 24
    _report("[check 3] minimum squared norm doubles per level; counts pinned",
            ok, f"norms {norms}, counts {counts[0]}/{counts[1]}")


def test_04_crafted_words_have_many_equidistant_members() -> None:
    failures = []
    for n, eps in ((2, Fraction(1, 2)), (3, Fraction(1, 4)), (4, Fraction(1, 4))):
        inst = lower_bound_instance(n, eps)
        k = inst.scale_exp
        count = len(inst.witnesses)
        expect_dist = (1 << n) - (1 << k)
        if count != gaussian_binomial(n, n - k):
            failures.append(f"n={n}: count {count}")
        if count < lower_eps(eps, n):
            failures.append(f"n={n}: count below closed form")
        for e in inst.witnesses:
            if not is_member(e.point):
                failures.append(f"n={n}: non-member witness")
                break
            if (inst.received - to_cvector(e.point)).norm_sq() != expect_dist:
                failures.append(f"n={n}: wrong distance")
                break
        if n <= 3:
            decoded = {e.point for e in list_decode(inst.received, 1 - eps)}
            if not {e.point for e in inst.witnesses} <= decoded:
                failures.append(f"n={n}: witness missing from decoded list")
    _report("[check 4] crafted words meet the witness count and distance",
            not failures, "; ".join(failures) or "3 instances")


def test_05_measured_list_sizes_respect_closed_forms() -> None:
    bad = []
    total = 0
    for n in range(4):
        for rep in validate_bounds(n):
            total += 1
            if not rep.ok:
                bad.append((rep.n, str(rep.eta), rep.word))
    _report("[check 5] every measured list size sits between the closed forms",
            not bad, f"{total} reports" if not bad else f"bad: {bad[:5]}")


def test_06_structural_invariants_hold_on_random_members() -> None:
    # The layer round trip is exact at every level where a layered form
    # exists.  From level 6 on some members have none (the 0/1 embedding's
    # carries are not closed under the RM degree bounds), and
    # `bw_to_rm_layers` documents that case as one specific ValueError; it
    # is tallied, any other peel error fails the check.
    failures: list[str] = []
    i_unit = QComplex(0, 1)
    for n in range(7):
        rng = random.Random(8_675_309 + n)
        no_form = 0
        for trial in range(1000):
            w = random_member(rng, n)
            wv = to_cvector(w)

            coeffs = multilinear_interpolate(w)
            if multilinear_evaluate(coeffs) != w:
                failures.append(f"n={n}: multilinear round trip")
                break

            try:
                layers, extra = bw_to_rm_layers(w)
            except NotAMember:
                failures.append(f"n={n}: peel called a member a non-member")
                break
            except ValueError as exc:
                if n <= 5 or not str(exc).startswith(
                        "member has no layered form"):
                    failures.append(f"n={n}: trial {trial}: {exc}")
                    break
                no_form += 1
            else:
                if bw_from_rm_layers(layers, extra) != w:
                    failures.append(f"n={n}: layer round trip not the identity")
                    break

            if n >= 1:
                t_w = automorphism_t(wv)
                if not is_member(t_w):
                    failures.append(f"n={n}: image not a member")
                    break
                if automorphism_t(t_w) != i_unit * wv:
                    failures.append(f"n={n}: double transform is not i*x")
                    break
                if not is_member(swap_halves(wv)):
                    failures.append(f"n={n}: swapped halves not a member")
                    break
                x = random_word(rng, n)
                if rsd(automorphism_t(x), t_w) != rsd(x, wv):
                    failures.append(f"n={n}: transform changed a distance")
                    break
                eta, eta0, eta1 = half_relation(x, wv)
                if eta != eta0 / 2 + eta1:
                    failures.append(f"n={n}: half relation violated")
                    break
        if failures:
            break
    # only level 6 can tally members without a layered form
    _report("[check 6] structural invariants hold on 1000 members per level",
            not failures,
            "; ".join(failures)
            or f"levels 0..6; n=6: {no_form}/1000 members have no layered "
               f"form, the other {1000 - no_form} round-trip")


def test_06b_layer_peeling_agrees_with_membership() -> None:
    # peeling succeeds exactly on members
    from bwlist.arith import GaussianInt

    failures = []
    for n in range(1, 5):
        rng = random.Random(271_828 + n)
        for _ in range(200):
            w = random_member(rng, n)
            bumped = list(w)
            bumped[0] = bumped[0] + GaussianInt(1, 0)
            if is_member(bumped):
                failures.append(f"n={n}: bump stayed a member")
                break
            try:
                bw_to_rm_layers(bumped)
            except NotAMember:
                pass
            else:
                failures.append(f"n={n}: peeling accepted a non-member")
                break
    _report("[check 6b] layer peeling succeeds exactly on members",
            not failures, "; ".join(failures) or "levels 1..4")


def test_07_operation_count_scales_as_grid_squared() -> None:
    ratios = []
    walls = {}
    for n in range(4, 11):
        word = random_word(random.Random(31 + n), n)
        counter = CostCounter()
        start = time.perf_counter()
        list_decode(word, Fraction(1, 4), counter=counter)
        walls[n] = time.perf_counter() - start
        ratios.append(counter.ops / 4**n)
    spread = max(ratios) / min(ratios)
    ok = spread <= 2 and walls[10] < 30
    _report("[check 7] counted work fits C*4^n across levels 4..10",
            ok, f"spread {spread:.3f}, level-10 wall {walls[10]:.2f}s")


def test_08_worker_count_never_changes_output() -> None:
    # every decode runs in one process, so the worker count is checked and
    # changes nothing: 1, 2 and 8 workers give the same bytes
    failures = []
    cells = 0
    for n in range(9):
        for eta in (Fraction(1, 4), Fraction(3, 4)):
            word = random_word(random.Random(97 * n + eta.numerator), n)
            outs = [list_decode(word, eta, w).to_lines()
                    for w in (1, 2, 8)]
            cells += 1
            if not (outs[0] == outs[1] == outs[2]):
                failures.append((n, str(eta)))
    _report("[check 8] outputs are byte-identical for 1, 2, and 8 workers",
            not failures,
            f"{cells} cells" if not failures else f"bad: {failures}")
