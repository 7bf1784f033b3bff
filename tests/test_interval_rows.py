"""Interval rows for integer inputs only compared with constants.

With ``unfold.INTERVAL_ROWS`` off every integer input is enumerated value
by value, the reference the interval rows must reproduce: the same
verdicts, counterexample rows, pair and query counts.
"""

import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from dfcompat import (
    CheckConfig,
    DfcError,
    DomainTooLarge,
    build_step,
    check_compatibility,
    flatten_and_validate,
    parse_model,
    unfold,
    unfold_to_ts,
)
from dfcompat.model import domain_size
from helpers import model_path, random_model_pair

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))

import golden_reports  # noqa: E402
from compat_matrix import CONFIGS  # noqa: E402

GOLDEN = golden_reports.cases()
RANDOM_SEEDS = range(200)


def outcomes(model_a, model_b, configs=CONFIGS):
    """Per config, the report without ``elapsed``, or the error raised."""
    out = {}
    for label, config in configs.items():
        try:
            report = check_compatibility(model_a, model_b, config=config).to_dict()
        except DfcError as exc:
            out[label] = (type(exc).__name__, str(exc))
            continue
        for side in ("backward", "upward"):
            if report[side] is not None:
                del report[side]["elapsed"]
        out[label] = report
    return out


def same_without_intervals(monkeypatch, model_a, model_b, configs=CONFIGS):
    for a, b in ((model_a, model_b), (model_b, model_a)):
        with_intervals = outcomes(a, b, configs)
        monkeypatch.setattr(unfold, "INTERVAL_ROWS", False)
        assert outcomes(a, b, configs) == with_intervals
        monkeypatch.setattr(unfold, "INTERVAL_ROWS", True)


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_golden_cases_same_as_full_enumeration(monkeypatch, case):
    text_a, text_b = GOLDEN[case]
    same_without_intervals(monkeypatch, parse_model(text_a), parse_model(text_b))


def compressed_rows(model):
    """Whether some state of the model's system has interval rows."""
    ts = unfold_to_ts(build_step(flatten_and_validate(model)))
    return any(
        len(vals) < domain_size(ts.inputs[n])
        for stored in ts.rows for n, vals in zip(stored.names, stored.values)
    )


def test_random_pairs_same_as_full_enumeration(monkeypatch):
    compressed = 0
    for seed in RANDOM_SEEDS:
        model_a, model_b = random_model_pair(seed)
        same_without_intervals(
            monkeypatch, model_a, model_b, {"default": CONFIGS["default"]}
        )
        compressed += compressed_rows(model_a)
    # the slice must reach interval rows to mean anything
    assert compressed >= 10
    monkeypatch.setattr(unfold, "INTERVAL_ROWS", False)
    assert not any(compressed_rows(random_model_pair(s)[0]) for s in RANDOM_SEEDS)


def bands(name, hi):
    text = model_path(name).read_text()
    return parse_model(re.sub(r"in u : int\[0,\d+\]", f"in u : int[0,{hi}]", text))


def test_widened_range_decided_by_intervals():
    """A release that widens a compared-only command range to ten million
    values is decided: the old one refuses the first new value."""
    new, old = bands("bands_v1", 10_000_000), bands("bands_v0", 8_000_000)
    tracemalloc.start()
    try:
        report = check_compatibility(new, old)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024
    assert report.verdict == "backward-only"
    cx = report.upward.counterexample
    assert cx.kind == "uncovered-input"
    assert cx.rows_a == cx.rows_b == [{"u": 8_000_001}]
    assert report.backward.counterexample is None


SHOWN = """\
model {name}
in u : int[0,200]
in p : bool
out y : int[0,200]
block D : UnitDelay(false)
block Zero : Constant(0)
block Pick : Switch
wire p -> D.in
wire D -> Pick.ctrl
wire u -> Pick.in1
wire Zero -> Pick.in3
wire Pick -> y
"""


def test_simulation_refusal_names_models_and_states():
    """y shows u once D is set, so comparing outputs there takes every
    value of u, past a budget the unfolding (over p alone) stays within."""
    cand, ref = (parse_model(SHOWN.format(name=n)) for n in ("ShownA", "ShownB"))
    with pytest.raises(DomainTooLarge, match=re.escape(
        "simulating ShownB by ShownA needs 201 input rows in candidate state "
        "D=1, reference state D=1 (budget 100)"
    )):
        check_compatibility(cand, ref, config=CheckConfig(solver_budget=100))
