#!/usr/bin/env python3
"""Self-test of the benchmark at level 3, where every workload is quick.

    python3 perfbench/selftest.py

It checks that the workloads and their rationales match BENCHMARK.json.
For each workload it pins the level-3 decode of the current code, then
checks that:
* a run, untraced and traced, goes end to end and passes every check;
* the per-level pair counts times 2^k sum to no more than the counted ops;
* a run against a wrong pin fails.
Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import harness  # noqa: E402
from pin import pin  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LEVEL = 3


def main() -> int:
    failures = []
    declared = {w["name"]: w["why"] for w in harness.SPEC["workloads"]}
    if declared != {w.name: w.why for w in WORKLOADS.values()}:
        failures.append("workloads differ from BENCHMARK.json")
    for workload in WORKLOADS.values():
        small = dataclasses.replace(workload, name=f"selftest-{workload.name}",
                                    n=LEVEL)
        good = pin(small, 0)
        envelope = sum(pairs << (LEVEL - depth)
                       for depth, pairs in enumerate(good["pairs"].values()))
        if envelope > good["ops"]:
            failures.append(f"{small.name}: pairs x 2^k = {envelope} "
                            f"> ops {good['ops']}")
        bad = dict(good, digest="0" * 64)
        for trace, use, want in ((0, good, 0), (1, good, 0), (0, bad, 1)):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                got = harness.run(small, 1, 0.1, trace, pin=use)
            if got != want:
                failures.append(f"{small.name} trace={trace}: exit {got}, "
                                f"expected {want}\n{out.getvalue()}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
