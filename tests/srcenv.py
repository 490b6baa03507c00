"""The environment for tests that start a fresh Python interpreter.

pyproject.toml puts src/ on sys.path only inside the pytest process; a
child started as `sys.executable` sees PYTHONPATH alone.  SRC_ENV is the
current environment with this checkout's src/ ahead of any PYTHONPATH
already set, so the child imports the same bwlist as the tests.
`tests/test_layout.py` fails if a test starts `sys.executable` without it.
"""
from __future__ import annotations

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_PATH = os.environ.get("PYTHONPATH")

SRC_ENV = dict(os.environ,
               PYTHONPATH=_SRC + os.pathsep + _PATH if _PATH else _SRC)
