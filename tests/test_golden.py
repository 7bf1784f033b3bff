"""Pinned reports: verdicts, counterexamples and fixed bindings stay byte-stable.

The files under ``tests/golden`` are rewritten only by
``scripts/golden_reports.py --update``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import golden_reports  # noqa: E402

CASES = golden_reports.cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case):
    text_a, text_b = CASES[case]
    assert golden_reports.render(text_a, text_b) == golden_reports.golden_path(case).read_text()
