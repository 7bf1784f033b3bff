"""Closed-form step summaries: substitution, case splits, clone pruning."""

import itertools

import pytest
from hypothesis import given

from dfcompat import (
    Interpreter,
    PathExplosion,
    extract_cfg,
    flatten_and_validate,
    parse_model,
    prune_clones,
    summarize,
)
from dfcompat.exprs import Binary, Const, InputRef, Ite, Unary, VarRef, eval_expr
from dfcompat.model import domain_values
from dfcompat.symbolic import (
    bind_inputs,
    detect_clones,
    rename_inputs,
    restrict_to_outputs,
    split_expr,
    step_to_text,
)
from helpers import any_exprs, envs, load_model


def step_of(name):
    return summarize(extract_cfg(flatten_and_validate(load_model(name))))


def test_latch_closed_form():
    step = step_of("flipflop")
    expected = Ite(
        InputRef("S"),
        Const(True),
        Ite(InputRef("R"), Const(False), VarRef("Delay")),
    )
    assert step.outputs == {"Q": expected}
    assert step.updates == {"Delay": expected}
    assert step.inputs and step.vars["Delay"][1] is False
    assert step.initial_state() == {"Delay": False}


@pytest.mark.parametrize(
    "name", ["flipflop", "flipflop_reset", "bands_v1", "cruise_v4", "limiter_sign"]
)
def test_summary_agrees_with_interpreter_exhaustively(name):
    flat = flatten_and_validate(load_model(name))
    step = summarize(extract_cfg(flat))
    interp = Interpreter(flat)
    var_names = sorted(step.vars)
    in_names = sorted(step.inputs)
    for vals in itertools.product(*(domain_values(step.vars[v][0]) for v in var_names)):
        state = dict(zip(var_names, vals))
        for ivals in itertools.product(*(domain_values(step.inputs[n]) for n in in_names)):
            row = dict(zip(in_names, ivals))
            env = {**state, **row}
            out, nxt = interp.step(state, row)
            assert {p: eval_expr(e, env) for p, e in step.outputs.items()} == out
            assert {v: eval_expr(e, env) for v, e in step.updates.items()} == nxt


def test_summary_agrees_with_interpreter_sampled():
    flat = flatten_and_validate(load_model("charge_pump"))
    step = summarize(extract_cfg(flat))
    interp = Interpreter(flat)
    for level in (2, 3, 5, 6, 50, 100):
        for u in (0, 1, 4, 5, 6, 100, 249):
            env = {"Level": level, "u": u}
            out, nxt = interp.step({"Level": level}, {"u": u})
            assert eval_expr(step.outputs["y"], env) == out["y"]
            assert eval_expr(step.updates["Level"], env) == nxt["Level"]


def test_summary_resolves_nested_scopes():
    step = step_of("pulse_keeper")
    assert set(step.vars) == {"Shell/Core/Prev", "Shell/Core/mem.hold"}
    flat = flatten_and_validate(load_model("pulse_keeper"))
    interp = Interpreter(flat)
    state = {"Shell/Core/Prev": 3, "Shell/Core/mem.hold": 6}
    for run in (False, True):
        row = {"run": run, "x": 5}
        env = {**state, **row}
        out, nxt = interp.step(state, row)
        assert eval_expr(step.outputs["held"], env) == out["held"]
        assert {v: eval_expr(e, env) for v, e in step.updates.items()} == nxt


# ---------------------------------------------------------------------------
# case splitting


@given(any_exprs(), envs())
def test_split_has_exactly_one_active_alternative(e, env):
    cases = split_expr(e)
    active = [
        gd for gd in cases if all(eval_expr(c, env) for c in gd.conds)
    ]
    assert len(active) == 1
    assert eval_expr(active[0].value, env) == eval_expr(e, env)


def test_split_on_nested_ite_condition():
    # a branch inside a condition also splits
    inner = Ite(InputRef("p"), Const(True), InputRef("q"))
    e = Ite(inner, Const(1), Const(2))
    cases = split_expr(e)
    assert len(cases) >= 3
    for env in ({"p": True, "q": False}, {"p": False, "q": True},
                {"p": False, "q": False}):
        active = [g for g in cases if all(eval_expr(c, env) for c in g.conds)]
        assert len(active) == 1


def test_split_drops_contradictory_sets():
    p = InputRef("p")
    e = Ite(p, Ite(p, Const(1), Const(2)), Const(3))
    values = {g.value for g in split_expr(e)}
    # the p && !p alternative for Const(2) can never survive
    assert values == {Const(1), Const(3)}


def test_split_cap_enforced():
    e: object = InputRef("u")
    for i in range(6):
        e = Ite(InputRef(f"p{i}"), Binary("add", e, Const(1)), e)
    with pytest.raises(PathExplosion, match="cap"):
        split_expr(e, cap=3)


# ---------------------------------------------------------------------------
# clone pruning

TWIN = (
    "model Twin\nin p : bool\nout y : bool\n"
    "block D1 : UnitDelay(false)\nblock D2 : UnitDelay(false)\n"
    "block N1 : Logic(NOT)\nblock N2 : Logic(NOT)\nblock X : Logic(XOR)\n"
    "wire p -> N1\nwire p -> N2\nwire N1 -> D1.in\nwire N2 -> D2.in\n"
    "wire D1 -> X.in1\nwire D2 -> X.in2\nwire X -> y\n"
)

SWAP = (
    "model Swap\nin p : bool\nout y : bool\n"
    "block D1 : UnitDelay(false)\nblock D2 : UnitDelay(false)\n"
    "wire D2 -> D1.in\nwire D1 -> D2.in\nwire D1 -> y\n"
)


def test_parallel_clones_merged():
    step = summarize(extract_cfg(flatten_and_validate(parse_model(TWIN))))
    pruned, mapping = prune_clones(step)
    assert mapping == {"D2": "D1"}
    assert set(pruned.vars) == {"D1"}


def test_mutually_recursive_clones_merged():
    step = summarize(extract_cfg(flatten_and_validate(parse_model(SWAP))))
    assert detect_clones(step) == {"D2": "D1"}


def test_different_inits_not_merged():
    text = SWAP.replace("block D2 : UnitDelay(false)", "block D2 : UnitDelay(true)")
    step = summarize(extract_cfg(flatten_and_validate(parse_model(text))))
    assert detect_clones(step) == {}


def test_independent_latches_not_merged():
    assert detect_clones(step_of("tri_latch")) == {}


def test_pruning_preserves_behavior():
    flat = flatten_and_validate(parse_model(TWIN))
    step = summarize(extract_cfg(flat))
    pruned, _ = prune_clones(step)
    interp = Interpreter(flat)
    state = interp.initial_state()
    pstate = pruned.initial_state()
    for p in (True, False, False, True, True):
        row = {"p": p}
        out, state = interp.step(state, row)
        env = {**pstate, **row}
        assert eval_expr(pruned.outputs["y"], env) == out["y"]
        pstate = {v: eval_expr(e, env) for v, e in pruned.updates.items()}


# ---------------------------------------------------------------------------
# interface adjustments


def test_bind_inputs_matches_plain_variant():
    signed = bind_inputs(step_of("limiter_sign"), {"Sign_b": False})
    plain = step_of("limiter_plain")
    assert set(signed.inputs) == {"req"}
    for req in range(-8, 9):
        env = {"req": req}
        assert eval_expr(signed.outputs["cmd"], env) == eval_expr(
            plain.outputs["cmd"], env
        )


def test_rename_inputs_rewrites_references():
    step = rename_inputs(step_of("flipflop"), {"S": "set", "R": "reset"})
    assert set(step.inputs) == {"set", "reset"}
    env = {"set": True, "reset": False, "Delay": False}
    assert eval_expr(step.outputs["Q"], env) is True


def test_restrict_to_single_output():
    step = step_of("tri_latch")
    only_x = restrict_to_outputs(step, ["x"])
    assert set(only_x.outputs) == {"x"}
    assert set(only_x.vars) == {"Dx"}
    assert set(only_x.inputs) == {"a"}


def test_restrict_follows_update_chain():
    # an output may read one var whose update reads another
    text = (
        "model Chain\nin p : bool\nout y : bool\n"
        "block A : UnitDelay(false)\nblock B : UnitDelay(false)\n"
        "wire p -> B.in\nwire B -> A.in\nwire A -> y\n"
    )
    step = summarize(extract_cfg(flatten_and_validate(parse_model(text))))
    kept = restrict_to_outputs(step, ["y"])
    assert set(kept.vars) == {"A", "B"}


def test_step_text_dump():
    text = step_to_text(step_of("flipflop"))
    assert text.splitlines()[0] == "step FlipFlop"
    assert "  out Q = " in text
    assert "  Delay' = " in text


def _switch_bank(n: int) -> str:
    """n switches on one control, each choosing between u and its own
    inverse, every switch and inverse an output."""
    lines = ["model Bank", "in c : bool", "in u : bool"]
    lines += [f"out y{i} : bool\nout z{i} : bool" for i in range(n)]
    for i in range(n):
        lines += [
            f"block N{i} : Logic(NOT)", f"block S{i} : Switch",
            f"wire u -> N{i}.in1", f"wire c -> S{i}.ctrl", f"wire u -> S{i}.in1",
            f"wire N{i} -> S{i}.in3", f"wire S{i} -> y{i}", f"wire N{i} -> z{i}",
        ]
    return "\n".join(lines) + "\n"


def test_summarize_merges_only_what_a_branch_assigns(monkeypatch):
    """A branch merges the names its arms assigned, not every signal
    assigned before it: the equality checks grow linearly in the number of
    branches."""
    from dfcompat import symbolic

    calls = []
    monkeypatch.setattr(
        symbolic, "equal", lambda a, b, real=symbolic.equal: calls.append(1) or real(a, b)
    )
    counts = {}
    for n in (8, 16, 32):
        calls.clear()
        step = summarize(extract_cfg(flatten_and_validate(parse_model(_switch_bank(n)))))
        counts[n] = len(calls)
        assert len(step.outputs) == 2 * n
    assert counts[8] <= 8
    assert counts[32] == 2 * counts[16] == 4 * counts[8]
