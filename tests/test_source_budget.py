"""Tooling check: the library source stays within its line budget.

The budget is the size of ``src/gammakernel`` when it was fixed, counted as
``cat src/gammakernel/*.py | wc -l``; new work has to pay for itself by
removing code elsewhere.
"""

from pathlib import Path

LINE_BUDGET = 3358
SRC = Path(__file__).resolve().parents[1] / "src" / "gammakernel"


def test_library_within_line_budget():
    files = sorted(SRC.glob("*.py"))
    assert files, f"no sources under {SRC}"
    lines = sum(p.read_bytes().count(b"\n") for p in files)
    assert lines <= LINE_BUDGET, f"src/gammakernel has {lines} lines, budget {LINE_BUDGET}"
