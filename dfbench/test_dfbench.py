"""Tests of the benchmark itself: python -m pytest dfbench"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import dfcompat  # noqa: E402
import families as fam  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SEED = 7

# the smallest scale of every family, plus the bundled corpus
SMALLEST = [
    fam.charge_pump(4, SEED),
    fam.bands(10, SEED),
    fam.counter(3, SEED),
    fam.toggle_bank(1, SEED),
    fam.keeper(1, SEED, top=1),
    fam.counter_off_by_one(3, SEED),
    fam.gated_counter(3, 1, SEED),
    fam.toggle_bank_broken(2, SEED, fanin=2),
    fam.keeper_mutant(1, SEED),
    fam.gate_chains(1, 3, SEED),
    fam.gate_chains(2, 3, SEED, mutant=True, fanin=2),
    fam.nested(2, 2, SEED),
] + [
    fam.bundled(ROOT / "models", a, b, exp)
    for a, b, exp in fam.BUNDLED_PAIRS
    if a != "charge_pump"
]

# the fast members past a budget: each must end inconclusive
OVER_BUDGET = [
    fam.counter(3, SEED, enables=fam.OVER_BUDGET_BOOLS - 1),
    fam.counter_off_by_one(3, SEED, enables=fam.OVER_BUDGET_BOOLS - 1),
    fam.toggle_bank(1, SEED, fanin=fam.OVER_BUDGET_BOOLS),
    fam.keeper(6, SEED, parallel=True),
    fam.gated_counter(3, 5, SEED),
    fam.nested(2, 2, SEED, fanin=fam.OVER_BUDGET_BOOLS),
    fam.gate_chains(1, 3, SEED, fanin=fam.OVER_BUDGET_BOOLS),
    fam.toggle_bank_broken(1, SEED, fanin=fam.OVER_BUDGET_BOOLS),
    fam.keeper_mutant(6, SEED, parallel=True),
]


def check(member):
    runner = run.Runner(dfcompat, "lib", Path("unused"))
    try:
        result = runner.op(0, member)
    except dfcompat.DfcError as exc:
        return run.Outcome(error=type(exc).__name__)
    return run.Outcome(report=result)


@pytest.mark.parametrize("member", SMALLEST, ids=lambda m: m.name)
def test_smallest_member_parses_validates_and_matches_expected(member):
    for text in (member.text_a, member.text_b):
        dfcompat.flatten_and_validate(dfcompat.parse_model(text))
    decided, failure, wrong = run.judge(member, check(member), run.Oracle(dfcompat))
    assert (decided, failure, wrong) == (True, None, None)


@pytest.mark.parametrize("member", OVER_BUDGET, ids=lambda m: m.name)
def test_member_past_budget_ends_inconclusive(member):
    out = check(member)
    assert out.error == member.expected.raises
    assert member.expected.exit_code == 4
    assert run.judge(member, out, run.Oracle(dfcompat)) == (False, None, None)


def test_same_seed_same_text_other_seed_other_names():
    a, b, c = fam.gate_chains(2, 5, 1), fam.gate_chains(2, 5, 1), fam.gate_chains(2, 5, 2)
    assert (a.text_a, a.text_b) == (b.text_a, b.text_b)
    assert a.text_a != c.text_a
    assert len(a.text_a.splitlines()) == len(c.text_a.splitlines())


def test_gate_rejects_wrong_verdict_and_fix():
    member = fam.gated_counter(3, 1, SEED)
    out = check(member)
    oracle = run.Oracle(dfcompat)
    wrong_verdict = dataclasses.replace(member, expected=fam.Expected("full"))
    assert run.judge(wrong_verdict, out, oracle)[2]
    wrong_fix = dataclasses.replace(
        member, expected=dataclasses.replace(member.expected, fixed={"g0": False}))
    assert run.judge(wrong_fix, out, oracle)[2]


def test_gate_rejects_counterexample_that_does_not_replay():
    member = fam.counter_off_by_one(3, SEED)
    out = check(member)
    cx = out.report.upward.counterexample
    cx.actual = {cx.port: cx.expected[cx.port]}
    assert run.Oracle(dfcompat)(member, out.report)
    out = check(member)
    out.report.backward.counterexample.rows_a.pop(0)
    out.report.backward.counterexample.rows_b.pop(0)
    assert run.judge(member, out, run.Oracle(dfcompat))[2]


def test_unexpected_error_counts_as_failed_not_wrong():
    member = fam.counter(3, SEED)
    out = run.Outcome(error="RecursionError")
    assert run.judge(member, out, run.Oracle(dfcompat)) == (False, "RecursionError", None)


def test_p90_leaves_ten_timed_runs_beyond_on_every_workload():
    assert run.p90([float(i) for i in range(25)]) == (22.0, 2)
    assert run.p90([float(i) for i in range(10)]) == (8.0, 1)
    for build, _mode in run.WORKLOADS.values():
        assert run.p90([0.0] * len(build(SEED)))[1] * run.MIN_PASSES >= 10


def test_absent_wrapped_name_is_reported(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + [
        ("dfcompat.simcheck", "no_such_function", "simcheck", None),
        ("dfcompat.no_such_module", "f", "simcheck", None),
    ])
    tracer = tracing.Tracer()
    assert tracer.absent == ["dfcompat.simcheck.no_such_function", "dfcompat.no_such_module.f"]


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    code = run.main(["--workload", "refute_fix", "--seed", "1",
                     "--seconds", "0", "--trace", str(trace)])
    result = last_json(capsys)
    assert code == 0 and result["correct"] is True
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in spec[key]} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_workload_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
