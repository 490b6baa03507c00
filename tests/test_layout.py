"""Source-layout rules that keep module boundaries honest."""
from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# `from bwlist.x import a, _b` or the parenthesised form spread over lines
_IMPORT_RE = re.compile(r"from bwlist\.[a-z]+ import (\([^)]*\)|.*)")
_PRIVATE_RE = re.compile(r"\b_[A-Za-z]")


def test_no_private_names_imported_across_modules() -> None:
    # the benchmark too imports only public names, so refactoring the
    # package's internals cannot break it
    offenders = []
    paths = [*ROOT.glob("src/bwlist/*.py"), *ROOT.glob("perfbench/*.py")]
    for path in sorted(paths):
        for match in _IMPORT_RE.finditer(path.read_text(encoding="utf-8")):
            if _PRIVATE_RE.search(match.group(1)):
                offenders.append(f"{path.name}: {match.group(0)}")
    assert not offenders, offenders
