"""Acceptance suite: one test per shipping criterion.

Each test name carries its criterion number; the terminal summary hook in
conftest.py prints one pass/fail line per criterion at the end of a run.
"""

import itertools
import os
import shutil
import time

import pytest

from dfcompat import (
    CheckConfig,
    Domain,
    Interpreter,
    build_step,
    check_compatibility,
    flatten_and_validate,
    parse_model,
    simulates,
    unfold_to_ts,
)
from dfcompat.cli import _smt_queries
from dfcompat.simcheck import prepare
from dfcompat.solver import minimal_cover, run_solver_cmd
from dfcompat.symbolic import restrict_to_outputs
from dfcompat.unfold import run_ts
from helpers import (
    DRIFTER,
    EXPECTED_VERDICTS,
    FIXTURE_PAIRS,
    MIRROR,
    all_rows,
    interp_for,
    load_model,
    random_model_pair,
    trace_containment,
)


def ts_of(name):
    step = build_step(flatten_and_validate(load_model(name)))
    return unfold_to_ts(step)


def dom_of(name):
    return Domain(flatten_and_validate(load_model(name)).input_domains())


def test_criterion_01_image_map():
    """Level-doubling automaton: exact successor map and reachable set."""
    started = time.monotonic()
    step = build_step(flatten_and_validate(load_model("charge_pump")))
    from dfcompat import build_efa, image_map

    maps = [m for m in image_map(build_efa(step)) if m]
    assert len(maps) == 1
    assert maps[0] == {
        (2,): {(4,), (5,)},
        (3,): {(6,), (7,), (8,)},
        (4,): {(8,), (9,), (10,), (11,)},
        (5,): {(10,), (11,), (12,), (13,), (14,)},
    }
    ts = unfold_to_ts(step)
    assert ts.states[ts.init] == (2,)
    assert {s[0] for s in ts.states} == {2, 4, 5, 8, 9, 10, 11, 12, 13, 14}
    assert len(ts.states) == 10
    assert time.monotonic() - started < 5.0


def test_criterion_02_latch_pipeline():
    """Set/reset latch: 2-state system, full self-compatibility, exhaustive
    agreement between interpreter and transition system to depth 6."""
    started = time.monotonic()
    ts = ts_of("flipflop")
    assert len(ts.states) == 2

    model = load_model("flipflop")
    assert check_compatibility(model, model).verdict == "full"

    flat = flatten_and_validate(model)
    interp = Interpreter(flat)
    rows = all_rows(Domain(flat.input_domains()))
    assert len(rows) == 4
    checked = 0
    for seq in itertools.product(rows, repeat=6):
        assert interp.run(seq) == run_ts(ts, seq)
        checked += 1
    assert checked == 4 ** 6
    assert time.monotonic() - started < 10.0


def test_criterion_03_random_pair_oracle():
    """Simulation answer matches depth-6 brute-force trace containment on
    100 generated deterministic pairs."""
    started = time.monotonic()
    holds = fails = 0
    for seed in range(100):
        model_a, model_b = random_model_pair(seed)
        flat_a = flatten_and_validate(model_a)
        flat_b = flatten_and_validate(model_b)
        dom = Domain(flat_b.input_domains())
        ts_a = unfold_to_ts(build_step(flat_a))
        ts_b = unfold_to_ts(build_step(flat_b))
        got = simulates(ts_a, ts_b, dom).holds
        assert got == trace_containment(ts_a, ts_b, dom), f"seed {seed}"
        holds += got
        fails += not got
    # the corpus must exercise both outcomes to mean anything
    assert holds >= 10 and fails >= 10
    assert time.monotonic() - started < 300.0


def test_criterion_04_guard_cover_and_uncovered_witness():
    """One coarse transition is covered by exactly two refined ones; the
    reverse check fails on the first input past the old range."""
    v1, v2 = ts_of("bands_v1"), ts_of("bands_v2")
    dom_v1 = dom_of("bands_v1")

    stay = next(
        g for g, t in v1.transitions[v1.init] if v1.states[t] == (0,)
    )
    refined = [g for g, _ in v2.transitions[v2.init]]
    cover = minimal_cover(stay, refined, dom_v1)
    assert cover.covered
    assert cover.residual_witness is None
    assert len(cover.chosen) == 2

    reverse = check_compatibility(load_model("bands_v2"), load_model("bands_v1")).upward
    assert not reverse.holds
    assert reverse.counterexample.kind == "uncovered-input"
    assert reverse.counterexample.rows_a == [{"u": 70}]


def test_criterion_05_free_port_fixing():
    """The added gate port gets the constant false and backward holds."""
    report = check_compatibility(
        load_model("cruise_v4"), load_model("cruise_v3")
    )
    assert report.extra_inputs_a == ["F"]
    assert report.backward.holds
    assert report.backward.fixed_inputs == {"F": False}
    assert report.conditional


def test_criterion_06_conditional_verdict():
    """Backward compatible under Sign_b=false, not upward compatible; the
    verdict is cross-checked against the interpreter."""
    report = check_compatibility(
        load_model("limiter_sign"), load_model("limiter_plain")
    )
    assert report.verdict == "backward-only"
    assert report.conditional
    assert report.backward.fixed_inputs == {"Sign_b": False}
    assert not report.upward.holds

    new, old = interp_for("limiter_sign"), interp_for("limiter_plain")
    reqs = range(-8, 9)
    for req in reqs:
        fixed_row = {"req": req, "Sign_b": False}
        assert new.run([fixed_row])[0] == old.run([{"req": req}])[0]
    diverged = [
        req for req in reqs
        if new.run([{"req": req, "Sign_b": True}])[0] != old.run([{"req": req}])[0]
    ]
    assert diverged


def test_criterion_07_config_invariance():
    """Verdicts do not depend on clone pruning or per-output splitting."""
    for cand, ref in FIXTURE_PAIRS:
        model_a, model_b = load_model(cand), load_model(ref)
        for pruning, split in itertools.product((True, False), repeat=2):
            config = CheckConfig(clone_pruning=pruning, output_split=split)
            report = check_compatibility(model_a, model_b, config=config)
            assert report.verdict == EXPECTED_VERDICTS[(cand, ref)], (
                cand, ref, pruning, split
            )


def test_criterion_08_counterexample_replay():
    """Every incompatible verdict ships a trace that replays on both models,
    agreeing before the divergence step and differing at it."""
    pairs = [
        (load_model(cand), load_model(ref)) for cand, ref in FIXTURE_PAIRS
    ] + [(parse_model(DRIFTER), parse_model(MIRROR))]

    incompatible = 0
    for model_a, model_b in pairs:
        report = check_compatibility(model_a, model_b)
        if report.verdict != "incompatible":
            continue
        incompatible += 1
        out_map = {
            b: a for b, a in report.mapping
            if any(p.name == b for p in flatten_and_validate(model_b).outputs)
        }
        failing = [
            r for r in (report.backward, report.upward)
            if r is not None and not r.holds
        ]
        assert failing
        for res in failing:
            cx = res.counterexample
            assert cx is not None and cx.rows_a
            outs_a = Interpreter(flatten_and_validate(model_a)).run(cx.rows_a)
            outs_b = Interpreter(flatten_and_validate(model_b)).run(cx.rows_b)
            last = len(cx.rows_a) - 1
            for step in range(last):
                for b_port, a_port in out_map.items():
                    assert outs_a[step][a_port] == outs_b[step][b_port]
            if cx.kind == "output-mismatch":
                b_port = next(b for b, a in out_map.items() if a == cx.port)
                a_val = outs_a[last][cx.port]
                b_val = outs_b[last][b_port]
                assert a_val != b_val
                # "actual" is the candidate side: A backward, B upward
                if cx.direction == "backward":
                    assert (a_val, b_val) == (cx.actual[cx.port], cx.expected[cx.port])
                else:
                    assert (b_val, a_val) == (cx.actual[cx.port], cx.expected[cx.port])
    assert incompatible >= 2


def test_criterion_09_output_split_reduction():
    """Three independent latches: 2 states per output against 8 joint."""
    step = build_step(flatten_and_validate(load_model("tri_latch")))
    joint = unfold_to_ts(step)
    assert len(joint.states) == 8
    for port in ("x", "y", "z"):
        sliced = restrict_to_outputs(step, [port])
        assert len(unfold_to_ts(sliced).states) == 2


def _external_solver():
    cmd = os.environ.get("DFCOMPAT_SOLVER_CMD")
    if cmd:
        return cmd
    for exe in ("z3", "cvc5"):
        path = shutil.which(exe)
        if path:
            return path
    return None


def test_criterion_10_external_solver_agreement():
    """Built-in enumeration and a configured SMT solver answer alike on the
    emitted queries for every fixture pair."""
    cmd = _external_solver()
    if cmd is None:
        pytest.skip("no external SMT solver configured")
    config = CheckConfig()
    checked = 0
    for cand, ref in FIXTURE_PAIRS:
        prep = prepare(load_model(cand), load_model(ref), None, config)
        for name, script, expected in _smt_queries(prep):
            got = run_solver_cmd(cmd, script)
            assert got == expected, f"{cand} vs {ref}: {name}"
            checked += 1
    assert checked >= len(FIXTURE_PAIRS)
