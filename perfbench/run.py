#!/usr/bin/env python3
"""Benchmark of `bwlist decode`, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it times `bwlist decode` subprocesses, one at a time, on the
workload's generated word and reports the end-to-end metrics.  With
--trace 1 it instead makes a traced in-process pass and reports the
per-layer metrics.  Every output is checked; a failed check makes the run
exit 1.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Spans and a fuller record of the
run are written under perfbench/out/.

    python3 perfbench/run.py --all --seconds S

runs every workload once with tracing off and once with it on.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, traced and untraced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bwlist" / "cli.py").is_file():
        print(f"error: no bwlist sources under {SRC}; run from the root of a "
              "bwlist checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    if args.all:
        status = 0
        for name in WORKLOADS:
            for trace in (0, 1):
                status |= harness.run(WORKLOADS[name], args.seed,
                                      args.seconds, trace)
        return status
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    return harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                       args.trace)


if __name__ == "__main__":
    sys.exit(main())
