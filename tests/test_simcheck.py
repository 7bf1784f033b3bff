"""Simulation preorder, constant fixing, and the two-way compatibility check."""

import pytest

from dfcompat import (
    CheckConfig,
    CompatReport,
    Domain,
    Interpreter,
    IterationCapExceeded,
    build_step,
    check_compatibility,
    flatten_and_validate,
    parse_model,
    simulates,
    unfold_to_ts,
)
from dfcompat import simcheck
from dfcompat.errors import UnmappedPort
from dfcompat.exprs import Binary, Const, InputRef, Ite, VarRef, eval_expr
from dfcompat.model import BoolType, IntType
from dfcompat.simcheck import fix_free_ports, prepare
from dfcompat.symbolic import SymbolicStep
from helpers import (
    DRIFTER,
    EXPECTED_VERDICTS,
    FIXTURE_PAIRS,
    MIRROR,
    NESTED_ENABLED,
    NESTED_REWIRED,
    load_model,
    random_model_pair,
)


def report_for(cand, ref, **kw):
    return check_compatibility(load_model(cand), load_model(ref), **kw)


def ts_for(name):
    return unfold_to_ts(build_step(flatten_and_validate(load_model(name))))


def input_dom(name):
    flat = flatten_and_validate(load_model(name))
    return Domain(flat.input_domains())


# ---------------------------------------------------------------------------
# fixture verdicts


@pytest.mark.parametrize("cand,ref", FIXTURE_PAIRS)
def test_fixture_verdicts(cand, ref):
    assert report_for(cand, ref).verdict == EXPECTED_VERDICTS[(cand, ref)]


def test_added_gate_port_fixed_to_false():
    report = report_for("cruise_v4", "cruise_v3")
    assert report.backward.holds
    assert report.backward.fixed_inputs == {"F": False}
    assert report.conditional
    assert not report.upward.holds
    assert report.verdict == "backward-only"


def test_sign_port_fixed_to_false():
    report = report_for("limiter_sign", "limiter_plain")
    assert report.backward.fixed_inputs == {"Sign_b": False}
    assert report.extra_inputs_a == ["Sign_b"]
    cx = report.upward.counterexample
    assert cx is not None and cx.kind == "output-mismatch" and cx.port == "cmd"
    assert cx.expected != cx.actual


def test_incompatible_latch_pair_has_single_step_divergence():
    report = report_for("flipflop_reset", "flipflop")
    assert report.verdict == "incompatible"
    cx = report.backward.counterexample
    assert cx.kind == "output-mismatch"
    assert cx.port == "Q"
    assert len(cx.rows_a) == 1
    assert cx.rows_a[0] == {"S": True, "R": True}


def test_widened_range_only_breaks_upward():
    report = report_for("bands_v2", "bands_v1")
    assert report.verdict == "backward-only"
    assert report.backward.fixed_inputs is None
    cx = report.upward.counterexample
    assert cx.kind == "uncovered-input"
    assert cx.port is None
    assert cx.rows_a == [{"u": 70}]
    assert cx.rows_b == [{"u": 70}]


def test_nested_enabled_subsystems_checked_and_refuted():
    model = parse_model(NESTED_ENABLED)
    assert check_compatibility(model, model).verdict == "full"

    mutant = parse_model(NESTED_REWIRED)
    report = check_compatibility(mutant, model)
    assert report.verdict == "incompatible"
    for res in (report.backward, report.upward):
        cx = res.counterexample
        assert cx.kind == "output-mismatch"
        outs_a = [o[cx.port] for o in Interpreter(flatten_and_validate(mutant)).run(cx.rows_a)]
        outs_b = [o[cx.port] for o in Interpreter(flatten_and_validate(model)).run(cx.rows_b)]
        assert outs_a[:-1] == outs_b[:-1]
        assert outs_a[-1] != outs_b[-1]
        cand, ref = (outs_a, outs_b) if res is report.backward else (outs_b, outs_a)
        assert (cx.actual[cx.port], cx.expected[cx.port]) == (cand[-1], ref[-1])


def test_mapped_ports_and_stats_present():
    report = report_for("flipflop_logic", "flipflop")
    assert report.mapping == [("S", "S"), ("R", "R"), ("Q", "Q")]
    assert report.stats["mapped_output_ports"] == ["Q"]
    assert report.stats["a"]["state_vars"] == 1
    assert report.stats["b"]["blocks"] == 8


# ---------------------------------------------------------------------------
# simulation preorder on transition systems


@pytest.mark.parametrize("name", ["flipflop", "bands_v1", "cruise_v3", "tri_latch"])
def test_simulation_is_reflexive(name):
    ts = ts_for(name)
    res = simulates(ts, ts, input_dom(name))
    assert res.holds


def test_self_simulation_visits_diagonal_only():
    ts = ts_for("flipflop")
    res = simulates(ts, ts, input_dom("flipflop"))
    assert res.visited == (("Delay=0", "Delay=0"), ("Delay=1", "Delay=1"))
    assert res.pairs == 2


def test_simulation_transitive_over_shared_domain():
    dom = input_dom("bands_v0")
    v0, v1, v2 = ts_for("bands_v0"), ts_for("bands_v1"), ts_for("bands_v2")
    assert simulates(v2, v1, dom).holds
    assert simulates(v1, v0, dom).holds
    assert simulates(v2, v0, dom).holds


def _plain_ts(outputs, updates=None, inputs=None):
    """Output y = outputs, with m : bool when updates gives m's update."""
    return unfold_to_ts(SymbolicStep(
        name="hand",
        inputs=inputs or {"u": IntType(0, 5)},
        vars={"m": (BoolType(), False)} if updates else {},
        outputs={"y": outputs},
        updates={"m": updates} if updates else {},
    ))


def lt(k):
    return Binary("lt", InputRef("u"), Const(k))


def test_different_guard_partitions_still_equivalent():
    u = InputRef("u")
    # m=0 goes to m=1 on u >= 3 and stays on u < 3; m=1 returns to m=0
    ref = _plain_ts(u, updates=Ite(VarRef("m"), Const(False), Binary("ge", u, Const(3))))
    assert [[t for _, t in ts] for ts in ref.transitions] == [[0, 1], [0]]
    cand = _plain_ts(u)
    dom = Domain.of(u=IntType(0, 5))
    assert simulates(cand, ref, dom).holds
    assert simulates(ref, cand, dom).holds


def test_outputs_compared_only_inside_domain():
    u = InputRef("u")
    clamped = Binary("min", u, Const(5))
    cand = _plain_ts(u, inputs={"u": IntType(0, 9)})
    ref = _plain_ts(clamped)
    dom = Domain.of(u=IntType(0, 5))
    assert simulates(cand, ref, dom).holds
    # beyond the clamp point they disagree
    wide = Domain.of(u=IntType(0, 9))
    res = simulates(cand, ref, wide)
    assert not res.holds
    assert res.failure.kind == "output-mismatch"
    assert res.failure.rows == [{"u": 6}]


def test_partial_guard_coverage_reported_as_uncovered():
    """The candidate declares u : int[0, 3], and its rows, which m's
    update splits, take no transition on u = 4 or 5."""
    u = InputRef("u")
    cand = _plain_ts(u, updates=lt(2), inputs={"u": IntType(0, 3)})
    assert len(cand.transitions[0]) == 2
    ref = _plain_ts(u)
    dom = Domain.of(u=IntType(0, 5))
    res = simulates(cand, ref, dom)
    assert not res.holds
    assert res.failure.kind == "uncovered-input"
    assert res.failure.rows == [{"u": 4}]


def test_divergence_after_warmup_step():
    """First step agrees, the armed inverter differs from step two on."""
    report = check_compatibility(parse_model(DRIFTER), parse_model(MIRROR))
    assert report.verdict == "incompatible"
    cx = report.backward.counterexample
    assert cx.kind == "output-mismatch"
    assert len(cx.rows_a) == 2
    assert cx.expected != cx.actual


def _last_outputs(model, rows):
    """The model's outputs on the last of the rows, as the interpreter, which
    shares no stage with the check, runs them."""
    return Interpreter(flatten_and_validate(model)).run(rows)[-1]


def test_counterexample_values_are_the_interpreters():
    """Every output-mismatch counterexample, also one kept on a direction a
    constant fix made hold, reports as expected and actual the outputs the
    interpreter gives on its trace's last row: the candidate (A backward, B
    upward) gives actual.  Types are compared too, since True == 1.  Each
    pair is also checked swapped, unless B has a port A lacks."""
    pairs = [(load_model(a), load_model(b)) for a, b in FIXTURE_PAIRS]
    pairs += [random_model_pair(seed) for seed in range(100)]
    seen = 0
    for model_a, model_b in pairs:
        for a, b in ((model_a, model_b), (model_b, model_a)):
            try:
                report = check_compatibility(a, b)
            except UnmappedPort:
                continue
            b_port = {pa: pb for pb, pa in report.mapping}
            for res in (report.backward, report.upward):
                cx = res and res.counterexample
                if cx is None or cx.kind != "output-mismatch":
                    continue
                seen += 1
                a_val = _last_outputs(a, cx.rows_a)[cx.port]
                b_val = _last_outputs(b, cx.rows_b)[b_port[cx.port]]
                if cx.direction == "upward":
                    a_val, b_val = b_val, a_val
                want = (a_val, b_val)
                got = (cx.actual[cx.port], cx.expected[cx.port])
                assert got == want and list(map(type, got)) == list(map(type, want)), (
                    report.a_name, report.b_name, cx.direction
                )
    assert seen > 20


# ---------------------------------------------------------------------------
# constant search for added ports


# the candidate's y repeats u one step late only with k high; z always does.
# Both k pass the initial-output filter, so k=false is verified and refused
# before k=true is found.
DELAY_REF = (
    "model Ref\nin u : bool\nout y : bool\nout z : bool\n"
    "block Ry : UnitDelay(false)\nblock Rz : UnitDelay(false)\n"
    "wire u -> Ry.in\nwire u -> Rz.in\nwire Ry -> y\nwire Rz -> z\n"
)
DELAY_KEYED = (
    "model Keyed\nin u : bool\nin k : bool\nout y : bool\nout z : bool\n"
    "block Inv : Logic(NOT)\nblock Pick : Switch\n"
    "block Dy : UnitDelay(false)\nblock Dz : UnitDelay(false)\n"
    "wire u -> Inv.in1\nwire k -> Pick.ctrl\nwire u -> Pick.in1\nwire Inv -> Pick.in3\n"
    "wire Pick -> Dy.in\nwire u -> Dz.in\nwire Dy -> y\nwire Dz -> z\n"
)


def _record_unfolds(monkeypatch) -> list[str]:
    """Model name of the step behind every unfold_to_ts call of a check."""
    names = []
    real = simcheck.unfold_to_ts

    def counted(step, *args):
        names.append(step.name)
        return real(step, *args)

    monkeypatch.setattr(simcheck, "unfold_to_ts", counted)
    return names


def test_both_directions_share_unfolded_systems(monkeypatch):
    unfolds = _record_unfolds(monkeypatch)
    assert report_for("tri_latch", "tri_latch").verdict == "full"
    assert len(unfolds) == 2 * 3


def test_rows_evaluated_by_compiled_code(monkeypatch):
    """unfold_to_ts and simulates tree-walk no expression, per row or
    otherwise, and unfolding turns no row back into an assignment: a
    witness is read off the stored rows when asked for."""
    from dfcompat import rows, unfold

    running: list[str] = []  # the patched functions currently running
    walked: list[str] = []  # per eval_expr call inside them, which one
    decoded: list[str] = []  # per Grid.row call inside them, which one

    def counted(real, calls):
        def call(*args):
            if running:
                calls.append(running[-1])
            return real(*args)
        return call

    def tracked(name, real):
        def run(*args):
            running.append(name)
            try:
                return real(*args)
            finally:
                running.pop()
        return run

    # unfold and simcheck do not import eval_expr; setting the name there
    # still catches a change that would call it
    for module in (unfold, simcheck):
        monkeypatch.setattr(module, "eval_expr", counted(eval_expr, walked), raising=False)
    monkeypatch.setattr(rows.Grid, "row", counted(rows.Grid.row, decoded))
    monkeypatch.setattr(
        simcheck, "unfold_to_ts", tracked("unfold_to_ts", simcheck.unfold_to_ts)
    )
    monkeypatch.setattr(simcheck, "simulates", tracked("simulates", simcheck.simulates))
    for cand, ref in FIXTURE_PAIRS:
        report_for(cand, ref)
    assert walked == []
    # counterexample rows are decoded; unfolding decodes none
    assert "simulates" in decoded and "unfold_to_ts" not in decoded


def test_fix_attempts_share_reference_systems(monkeypatch):
    unfolds = _record_unfolds(monkeypatch)
    binds = []
    monkeypatch.setattr(
        simcheck, "bind_inputs",
        lambda step, binding, real=simcheck.bind_inputs: binds.append(binding)
        or real(step, binding),
    )
    report = check_compatibility(parse_model(DELAY_KEYED), parse_model(DELAY_REF))
    assert report.backward.fixed_inputs == {"k": True}
    assert binds == [{"k": False}, {"k": True}]
    # per port group: each model once, then the bound candidate per attempt
    assert unfolds.count("Ref") == 2
    assert unfolds.count("Keyed") == 2 + 2 * len(binds)


def test_fix_free_ports_direct():
    config = CheckConfig()
    prep = prepare(load_model("cruise_v4"), load_model("cruise_v3"), None, config)
    b_side = {p.name: p.dtype for p in prep.flat_b.inputs}
    extras = {n: prep.step_a.inputs[n] for n in prep.mapping.extra_inputs_a}
    dom = Domain(b_side | extras)
    fixed = fix_free_ports(prep, dom, ["engaged"], config)
    assert fixed is not None
    binding, per_port, pairs, queries = fixed
    assert binding == {"F": False}
    assert per_port == {"engaged": True}
    assert queries > 0


def test_fix_search_returns_none_when_hopeless():
    a = parse_model(
        "model A\nin u : bool\nin F : bool\nout y : bool\n"
        "block Inv : Logic(NOT)\nblock Or : Logic(OR)\n"
        "wire u -> Inv.in1\nwire F -> Or.in1\nwire Inv -> Or.in2\nwire Or -> y\n"
    )
    b = parse_model(MIRROR.replace("Mirror", "B"))
    report = check_compatibility(a, b)
    assert report.verdict == "incompatible"
    assert report.backward.fixed_inputs is None
    assert report.backward.counterexample is not None


def test_fix_search_iteration_cap():
    # every constant passes the initial-output filter yet fails verification
    a = parse_model(
        "model A\nin u : bool\nin F : int[0,20]\nout y : bool\n" +
        DRIFTER.split("out y : bool\n", 1)[1]
    )
    b = parse_model(MIRROR.replace("Mirror", "B"))
    with pytest.raises(IterationCapExceeded, match="16"):
        check_compatibility(a, b)


def test_fix_search_cap_can_be_raised():
    a = parse_model(
        "model A\nin u : bool\nin F : int[0,20]\nout y : bool\n" +
        DRIFTER.split("out y : bool\n", 1)[1]
    )
    b = parse_model(MIRROR.replace("Mirror", "B"))
    report = check_compatibility(a, b, config=CheckConfig(fix_iterations=22))
    assert report.verdict == "incompatible"
    assert report.backward.fixed_inputs is None


# ---------------------------------------------------------------------------
# interface handling


def test_extra_candidate_outputs_ignored():
    a = parse_model(
        "model Debug\nin req : int[-8,8]\nout cmd : int[-5,5]\nout raw : int[-8,8]\n"
        "block Clamp : Saturation(-5, 5)\nwire req -> Clamp\nwire Clamp -> cmd\n"
        "wire req -> raw\n"
    )
    report = check_compatibility(a, load_model("limiter_plain"))
    assert report.extra_outputs_a == ["raw"]
    assert report.verdict == "full"


def test_interface_mismatch_short_circuits():
    a = parse_model("model A\nin u : bool\nout y : bool\nwire u -> y\n")
    b = parse_model(
        "model B\nin u : bool\nout y : int[0,1]\nblock K : Constant(1)\nwire K -> y\n"
    )
    report = check_compatibility(a, b)
    assert not report.interface_ok
    assert report.backward is None and report.upward is None
    assert report.verdict == "incompatible"
    assert any(port == "y" for port, _ in report.interface_violations)


def test_override_mapping_applied():
    a = parse_model("model A\nin v : bool\nout y : bool\nwire v -> y\n")
    b = parse_model("model B\nin u : bool\nout y : bool\nwire u -> y\n")
    report = check_compatibility(a, b, overrides={"u": "v"})
    assert report.verdict == "full"
    assert ("u", "v") in [tuple(p) for p in report.mapping]


def test_globalized_stores_compared_at_boundary():
    text = (
        "model Mailbox\nin x : int[0,9]\nout y : int[0,9]\n"
        "block Box : DataStoreMemory(0, int[0,9])\n"
        "block Put : DataStoreWrite(Box)\nblock Take : DataStoreRead(Box)\n"
        "wire x -> Put\nwire Take -> y\n"
    )
    a, b = parse_model(text), parse_model(text)
    internal = check_compatibility(a, b)
    boundary = check_compatibility(a, b, config=CheckConfig(datastore="global"))
    assert internal.verdict == "full"
    assert boundary.verdict == "full"
    assert ("Box", "Box") in [tuple(p) for p in boundary.mapping]


# ---------------------------------------------------------------------------
# configuration knobs


def test_clone_pruning_reduces_state_vars():
    text = (
        "model Twin\nin p : bool\nout y : bool\n"
        "block D1 : UnitDelay(false)\nblock D2 : UnitDelay(false)\n"
        "block N1 : Logic(NOT)\nblock N2 : Logic(NOT)\nblock X : Logic(XOR)\n"
        "wire p -> N1\nwire p -> N2\nwire N1 -> D1.in\nwire N2 -> D2.in\n"
        "wire D1 -> X.in1\nwire D2 -> X.in2\nwire X -> y\n"
    )
    flat = flatten_and_validate(parse_model(text))
    pruned = build_step(flat)
    kept = build_step(flat, CheckConfig(clone_pruning=False))
    assert len(pruned.vars) == 1
    assert len(kept.vars) == 2


def test_joint_output_check_same_verdict():
    split = report_for("tri_latch", "tri_latch")
    joint = report_for("tri_latch", "tri_latch",
                       config=CheckConfig(output_split=False))
    assert split.verdict == joint.verdict == "full"
    assert set(split.backward.per_port) == set(joint.backward.per_port)
    # the joint product explores the full state space; split stays small
    assert joint.backward.pairs > split.backward.pairs


# ---------------------------------------------------------------------------
# report serialization


@pytest.mark.parametrize("cand,ref", [
    ("flipflop", "flipflop"),
    ("limiter_sign", "limiter_plain"),
    ("bands_v2", "bands_v1"),
    ("flipflop_reset", "flipflop"),
])
def test_report_round_trips_through_json(cand, ref):
    report = report_for(cand, ref)
    again = CompatReport.from_json(report.to_json())
    assert again == report
    assert again.verdict == report.verdict
    assert again.conditional == report.conditional


def test_report_dict_carries_verdict():
    d = report_for("flipflop", "flipflop").to_dict()
    assert d["verdict"] == "full"
    assert d["conditional"] is False
