"""The traced in-process run behind the per-layer metrics.

Spans are recorded here, in the benchmark's own code, around calls into
each module's public functions; the program itself is not instrumented.
Per-level numbers come from decoding each recursion node's four child
words with `list_decode`, which returns exactly the lists the decoder
combines at that node.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from bwlist.arith import CVector, QComplex, parse_vector
from bwlist.decode import CostCounter, list_decode, list_decode_parallel

from verify import CheckFailed

HALF_PHI = QComplex(Fraction(1, 2), Fraction(1, 2))
# levels n, n-1, n-2 are reported; their pair counts need the lists one
# level further down
LEVELS = 3
STARTUP_REPEATS = 3


class Tracer:
    """Spans (name, start, end, parent) kept in memory until `write`."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1]["id"] if self._open else None
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "start": time.perf_counter(), "end": None, **attrs}
        self.spans.append(rec)
        self._open.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans, indent=0) + "\n")


def seconds(span: dict) -> float:
    return span["end"] - span["start"]


def level_name(depth: int) -> str:
    return "Ln" if depth == 0 else f"Ln-{depth}"


def child_words(r: CVector) -> tuple[CVector, ...]:
    """r0, r1 and (phi/2)(r0 +/- r1): the four subproblems of one node."""
    r0, r1 = r.halves()
    return r0, r1, (r0 + r1) * HALF_PHI, (r0 - r1) * HALF_PHI


def level_stats(tracer: Tracer, root: CVector, eta: Fraction,
                root_size: int, root_s: float) -> dict:
    """Per-level pairs, members, keep ratio, largest list and self time."""
    n = root.n
    depth_max = min(LEVELS, n)
    nodes = [[(root, root_size, root_s)]]
    for depth in range(1, depth_max + 1):
        level = []
        with tracer.span("level", level=n - depth):
            for word, *_ in nodes[-1]:
                for child in child_words(word):
                    with tracer.span("decode.list_decode",
                                     level=n - depth) as sp:
                        size = len(list_decode(child, eta))
                    level.append((child, size, seconds(sp)))
        nodes.append(level)

    stats = {}
    for depth in range(depth_max):
        pairs = members = list_max = 0
        for i, (_, got, _) in enumerate(nodes[depth]):
            kids = [kid[1] for kid in nodes[depth + 1][4 * i:4 * i + 4]]
            node_pairs = (kids[0] + kids[1]) * (kids[2] + kids[3])
            pairs += node_pairs
            members += got
            list_max = max(list_max, got)
        self_s = (sum(node[2] for node in nodes[depth])
                  - sum(node[2] for node in nodes[depth + 1]))
        stats[level_name(depth)] = {
            "level": n - depth,
            "pairs": pairs,
            "members": members,
            "keep_ratio": members / pairs if pairs else 0.0,
            "list_max": list_max,
            "self_s": self_s,
        }
    return stats


def traced_run(tracer: Tracer, word_path: Path, eta: Fraction,
               startup_cmd: list[str], env: dict) -> tuple[dict, list[str], dict]:
    """(layer metrics, output lines, per-level stats) of one traced pass."""
    startups = []
    for _ in range(STARTUP_REPEATS):
        with tracer.span("cli.startup") as sp:
            proc = subprocess.run(startup_cmd, env=env, capture_output=True,
                                  text=True, check=False)
        if proc.returncode != 0 or proc.stdout.strip() != "true":
            raise CheckFailed(f"bwlist member failed: {proc.stderr.strip()}")
        startups.append(seconds(sp))

    text = word_path.read_text()
    with tracer.span("arith.parse_vector") as parse_sp:
        word = parse_vector(text)
    with tracer.span("decode.list_decode_parallel", workers=2) as par_sp:
        par = list_decode_parallel(word, eta, 2)
    par_lines = par.to_lines()
    del par
    # the sequential decode runs right before its children's, so that slow
    # drift in machine speed distorts the level-n self time least
    counter = CostCounter()
    with tracer.span("decode.list_decode", level=word.n) as seq_sp:
        result = list_decode(word, eta, counter=counter)
    with tracer.span("arith.to_lines") as fmt_sp:
        lines = result.to_lines()
    size = len(result)
    del result
    if par_lines != lines:
        raise CheckFailed("list_decode_parallel output differs")
    del par_lines

    levels = level_stats(tracer, word, eta, size, seconds(seq_sp))
    seq_s, par_s = seconds(seq_sp), seconds(par_sp)
    metrics = {
        "cli.startup_s": statistics.median(startups),
        "arith.parse_s": seconds(parse_sp),
        "arith.format_s": seconds(fmt_sp),
        "decode.seq_s": seq_s,
        "decode.ops": counter.ops,
        "decode.ops_per_s": counter.ops / seq_s,
        "decode.list_size": size,
        "decode.par_s": par_s,
        "decode.par_speedup": seq_s / par_s,
    }
    for name, stat in levels.items():
        for key in ("pairs", "members", "keep_ratio", "list_max", "self_s"):
            metrics[f"decode.{name}.{key}"] = stat[key]
    return metrics, lines, levels
