"""The benchmark harness runs against the library's current API."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from bwlist.decode import CostCounter, list_decode
from srcenv import SRC_ENV

ROOT = Path(__file__).resolve().parent.parent
PINS = json.loads((ROOT / "perfbench" / "pins.json").read_text())


def test_perfbench_selftest_passes() -> None:
    # level-3 decodes of every workload through perfbench/selftest.py: a
    # change to an API the benchmark reads fails here, not only in a bench run
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, env=SRC_ENV, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.fixture(scope="module")
def workloads():
    # perfbench/ is a directory of scripts, not a package; only read here
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return workloads


@pytest.mark.parametrize("name", sorted(PINS))
def test_counted_ops_equal_the_benchmark_pins(workloads, name) -> None:
    # the traced bench run reports these; pinning them here too means a memo
    # or an early exit that miscounts shows up in every test run
    workload = workloads.WORKLOADS[name]
    counter = CostCounter()
    result = list_decode(workloads.build_input(workload, 0).word,
                         workload.eta, counter=counter)
    assert (counter.ops, len(result)) == (PINS[name]["ops"],
                                          PINS[name]["list_size"])
