"""Guarded-transition machines: product construction and image maps."""

import tracemalloc

import pytest

from dfcompat import (
    DomainTooLarge,
    build_efa,
    extract_cfg,
    flatten_and_validate,
    image_map,
    parse_model,
)
from dfcompat.simcheck import build_step
from dfcompat.efa import efa_to_text, full_domain
from dfcompat.errors import DomainError
from dfcompat.exprs import TRUE, Binary, Const, InputRef, Ite, VarRef, eval_expr
from dfcompat.model import BoolType, IntType
from dfcompat.symbolic import SymbolicStep
from helpers import all_rows, load_model, model_path


def pump_step():
    """Level-tracking controller with a two-way mode split."""
    u, lvl = InputRef("u"), VarRef("level")
    act = Binary("and", Binary("lt", u, lvl), Binary("le", lvl, Const(5)))
    rise = Binary("add", Binary("mul", Const(5), u), lvl)
    coast = Binary("mul", Const(3), u)
    grow = Binary("add", Binary("mul", Const(2), lvl), u)
    return SymbolicStep(
        name="PumpCore",
        inputs={"u": IntType(0, 249)},
        vars={"level": (IntType(2, 100), 2)},
        outputs={"y": Ite(act, rise, coast)},
        updates={"level": Ite(act, grow, lvl)},
    )


PUMP_IMAGE = {
    (2,): frozenset({(4,), (5,)}),
    (3,): frozenset({(6,), (7,), (8,)}),
    (4,): frozenset({(8,), (9,), (10,), (11,)}),
    (5,): frozenset({(10,), (11,), (12,), (13,), (14,)}),
}


def model_step(name):
    from dfcompat import summarize

    return summarize(extract_cfg(flatten_and_validate(load_model(name))))


def test_pump_efa_has_two_transitions():
    efa = build_efa(pump_step())
    assert len(efa.transitions) == 2


def test_pump_image_map():
    maps = image_map(build_efa(pump_step()))
    assert len(maps) == 2
    # the hold branch moves no state and contributes nothing
    assert {} in maps
    big = next(m for m in maps if m)
    assert big == PUMP_IMAGE


def test_pump_model_matches_direct_step():
    """The same machine written in the DSL produces the same image map."""
    efa = build_efa(model_step("charge_pump"))
    maps = image_map(efa)
    nonempty = [m for m in maps if m]
    assert len(nonempty) == 1
    assert nonempty[0] == PUMP_IMAGE


def test_latch_efa_partitions_inputs():
    efa = build_efa(model_step("flipflop"))
    assert len(efa.transitions) == 3
    rows = all_rows(full_domain(efa.step))
    for row in rows:
        fires = [t for t in efa.transitions if eval_expr(t.guard, row)]
        assert len(fires) == 1
        t = fires[0]
        assert eval_expr(t.outputs["Q"], row) == eval_expr(t.updates["Delay"], row)


def test_verify_flag_changes_nothing_on_valid_input():
    a = build_efa(pump_step(), verify=True)
    b = build_efa(pump_step(), verify=False)
    assert [t.guard for t in a.transitions] == [t.guard for t in b.transitions]


def test_transition_semantics_match_step():
    step = model_step("bands_v1")
    efa = build_efa(step)
    for row in all_rows(full_domain(step)):
        t = next(t for t in efa.transitions if eval_expr(t.guard, row))
        for p, e in step.outputs.items():
            assert eval_expr(t.outputs[p], row) == eval_expr(e, row)
        for v, e in step.updates.items():
            assert eval_expr(t.updates[v], row) == eval_expr(e, row)


def test_stateless_model_single_total_transition():
    efa = build_efa(model_step("cruise_v3"))
    assert image_map(efa) == [{}]


def test_bool_toggle_image():
    step = SymbolicStep(
        name="Toggle",
        inputs={"p": BoolType()},
        vars={"b": (BoolType(), False)},
        outputs={"y": VarRef("b")},
        updates={"b": Binary("xor", VarRef("b"), InputRef("p"))},
    )
    maps = image_map(build_efa(step))
    assert maps == [
        {
            (False,): frozenset({(False,), (True,)}),
            (True,): frozenset({(False,), (True,)}),
        }
    ]


def test_image_respects_budget():
    with pytest.raises(DomainTooLarge, match="budget"):
        image_map(build_efa(pump_step()), budget=10)


def test_image_refuses_counting_rows_and_naming_the_model():
    # 99 values of level times 250 of u, which the guard compares with level
    with pytest.raises(DomainTooLarge, match=r"^image of a transition of PumpCore needs "
                       r"24750 input rows over its states \(budget 10\)$"):
        image_map(build_efa(pump_step()), budget=10)


def test_image_of_wide_interval_input_counts_interval_rows():
    # u is only compared with constants: a row per interval, not per value
    text = model_path("bands_v1").read_text().replace("int[0,69]", "int[0,10000000]")
    efa = build_efa(build_step(flatten_and_validate(parse_model(text))))
    tracemalloc.start()
    try:
        maps = image_map(efa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [m for m in maps if m] == [
        {(0,): frozenset({(band,)}), (1,): frozenset({(band,)}), (2,): frozenset({(band,)})}
        for band in (0, 1, 2)
    ]
    assert peak < 10 << 20


def test_guard_checks_refuse_naming_the_model():
    with pytest.raises(DomainTooLarge, match=r"^checking the guarded transitions of "
                       r"PumpCore needs 24750 input rows over 2 names \(budget 10\)$"):
        build_efa(pump_step(), budget=10)


def test_image_detects_domain_escape():
    step = SymbolicStep(
        name="Run",
        inputs={"p": BoolType()},
        vars={"n": (IntType(0, 3), 0)},
        outputs={"y": VarRef("n")},
        updates={"n": Binary("add", VarRef("n"), Const(1))},
    )
    with pytest.raises(DomainError, match="leaves"):
        image_map(build_efa(step))


def test_text_dump_lists_transitions():
    efa = build_efa(model_step("flipflop"))
    text = efa_to_text(efa)
    assert text.splitlines()[0] == "machine FlipFlop"
    assert sum(1 for ln in text.splitlines() if ln.lstrip().startswith("[")) == 3
    assert "Delay' = " in text


def test_guard_true_rendered_for_total_transition():
    efa = build_efa(model_step("cruise_v3"))
    assert len(efa.transitions) == 1
    assert efa.transitions[0].guard == TRUE
    assert "when true:" in efa_to_text(efa)
