"""Correctness checks on decode outputs.

None of this is timed.  `gate` compares one output against the values
pinned from the seed commit; `verify_independently` re-derives every
printed distance with plain integer arithmetic from the input text and
tests membership with `lattice.is_member`; `oracle_crosscheck` compares the
decoder with the brute-force oracle at the oracle's level cap.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import lcm

from bwlist.arith import GaussianInt
from bwlist.bounds import applicable_upper
from bwlist.decode import list_decode
from bwlist.lattice import is_member
from bwlist.oracle import DEFAULT_CAP, oracle_list

from workloads import Input, Workload, build_input, rotate

Pairs = list[tuple[int, int]]


class CheckFailed(Exception):
    """A decode output or a cross-check is wrong."""


def parse_output(text: str) -> list[tuple[Pairs, str]]:
    """(coordinate pairs, distance text) per 'vector<TAB>distance' line."""
    entries = []
    for line in text.splitlines():
        coords, dist = line.split("\t")
        pairs = [tuple(map(int, tok.split(","))) for tok in coords.split()]
        entries.append((pairs, dist))
    return entries


def canonical_lines(entries: list[tuple[Pairs, str]], inp: Input) -> list[str]:
    """The base word's decode lines: undo the seed's symmetry and re-sort."""
    cr, ci = inp.offset
    base = []
    for pairs, dist in entries:
        point = []
        for x, y in pairs:
            x, y = rotate(x, y, -inp.unit)
            point.append((x - cr, y - ci))
        base.append((tuple(point), dist))
    base.sort()
    return [
        " ".join(f"{x},{y}" for x, y in pairs) + "\t" + dist
        for pairs, dist in base
    ]


def lines_digest(lines: list[str]) -> str:
    """SHA-256 of the lines as `bwlist decode` writes them."""
    return hashlib.sha256("".join(l + "\n" for l in lines).encode()).hexdigest()


def gate(workload: Workload, inp: Input, entries, pin: dict) -> list[str]:
    """Every pinned or structural property one decode output must have."""
    problems = []
    lines = canonical_lines(entries, inp)
    size = len(lines)
    if lines_digest(lines) != pin["digest"]:
        problems.append("output digest differs from the pinned digest")
    if size != pin["list_size"]:
        problems.append(f"list size {size}, pinned {pin['list_size']}")
    if workload.kind == "deep-hole" and size != 4 << workload.n:
        problems.append(f"deep hole list size {size}, expected 4N")
    if inp.witnesses is not None:
        missing = set(inp.witnesses) - set(lines)
        if missing:
            problems.append(f"{len(missing)} witnesses missing or at wrong distance")
    formula, upper = applicable_upper(workload.eta, workload.n)
    if upper is not None and size > upper:
        problems.append(f"list size {size} exceeds the {formula} bound {upper}")
    return problems


def verify_independently(input_text: str, entries, eta: Fraction) -> list[str]:
    """Membership and exact distance of every entry, from the input text."""
    word = []
    for tok in input_text.split():
        re_text, im_text = tok.split(",")
        word.append((Fraction(re_text), Fraction(im_text)))
    den = 1
    for re_part, im_part in word:
        den = lcm(den, re_part.denominator, im_part.denominator)
    scaled = [(int(a * den), int(b * den)) for a, b in word]
    scale = den * den * len(scaled)
    problems = []
    for pairs, dist in entries:
        if len(pairs) != len(scaled):
            problems.append(f"entry has {len(pairs)} coordinates")
            continue
        if not is_member([GaussianInt(x, y) for x, y in pairs]):
            problems.append(f"non-member in output: {pairs[:4]}...")
        tot = 0
        for (x, y), (ra, rb) in zip(pairs, scaled):
            dx, dy = ra - den * x, rb - den * y
            tot += dx * dx + dy * dy
        exact = Fraction(tot, scale)
        if exact != Fraction(dist) or exact > eta:
            problems.append(f"printed distance {dist}, recomputed {exact}")
    return problems


def oracle_crosscheck(workload: Workload, seed: int) -> list[str]:
    """The workload's generator at the oracle cap, decoded both ways."""
    n = min(workload.n, DEFAULT_CAP)
    word = build_input(workload, seed, n).word
    got = list_decode(word, workload.eta).to_lines()
    want = oracle_list(word, workload.eta).to_lines()
    if got != want:
        return [f"decoder and oracle disagree at level {n}"]
    return []
