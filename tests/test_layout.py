"""Source-layout rules that keep module boundaries honest."""
from __future__ import annotations

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bwlist"

# `from bwlist.x import a, _b` or the parenthesised form spread over lines
_IMPORT_RE = re.compile(r"from bwlist\.[a-z]+ import (\([^)]*\)|.*)")
_PRIVATE_RE = re.compile(r"\b_[a-z]")


def test_no_private_names_imported_across_modules() -> None:
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for match in _IMPORT_RE.finditer(path.read_text(encoding="utf-8")):
            if _PRIVATE_RE.search(match.group(1)):
                offenders.append(f"{path.name}: {match.group(0)}")
    assert not offenders, offenders
