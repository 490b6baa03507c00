"""The benchmark harness runs against the library's current API."""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from srcenv import SRC_ENV

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes() -> None:
    # level-3 decodes of every workload through perfbench/selftest.py: a
    # change to an API the benchmark reads fails here, not only in a bench run
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          cwd=ROOT, env=SRC_ENV, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
