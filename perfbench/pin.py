#!/usr/bin/env python3
"""Prints the pins the benchmark checks every output against.

    python3 perfbench/pin.py > perfbench/pins.json

Run it from the root of a checkout of the commit whose outputs are to be
pinned.  For each workload it decodes the inputs of two seeds and requires
them to agree once the seed's symmetry is undone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bwlist.decode import CostCounter, list_decode  # noqa: E402

from tracing import Tracer, level_stats  # noqa: E402
from verify import canonical_lines, lines_digest, parse_output  # noqa: E402
from workloads import WORKLOADS, build_input  # noqa: E402


def pin(workload, seed: int) -> dict:
    inp = build_input(workload, seed)
    counter = CostCounter()
    result = list_decode(inp.word, workload.eta, counter=counter)
    text = "".join(line + "\n" for line in result.to_lines())
    lines = canonical_lines(parse_output(text), inp)
    levels = level_stats(Tracer(), inp.word, workload.eta, len(result), 0.0)
    return {
        "digest": lines_digest(lines),
        "list_size": len(result),
        "ops": counter.ops,
        "pairs": {name: stat["pairs"] for name, stat in levels.items()},
    }


def main() -> int:
    pins = {}
    for name, workload in WORKLOADS.items():
        first, second = pin(workload, 0), pin(workload, 1)
        if first != second:
            print(f"error: {name}: seeds 0 and 1 disagree", file=sys.stderr)
            return 1
        pins[name] = first
    print(json.dumps(pins, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
