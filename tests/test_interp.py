"""Reference interpreter: step semantics, traces, CSV round trips."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfcompat import (
    DomainError,
    Interpreter,
    flatten_and_validate,
    parse_model,
    read_trace_csv,
    write_trace_csv,
)
from dfcompat.errors import CsvSchemaError
from helpers import NESTED_ENABLED, interp_for, load_model


def run_outputs(name, rows, port):
    return [r[port] for r in interp_for(name).run(rows)]


def bool_rows(names, length):
    for combo in itertools.product([False, True], repeat=length * len(names)):
        it = iter(combo)
        yield [dict(zip(names, it)) for _ in range(length)]


def test_nested_subsystems_run_only_under_every_enclosing_enable():
    interp = Interpreter(flatten_and_validate(parse_model(NESTED_ENABLED)))
    rows = [
        {"a": True, "b": False, "t": True},  # Plain toggles, Inner is off
        {"a": False, "b": True, "t": True},  # Outer off: both hold
        {"a": True, "b": True, "t": True},  # both toggle
        {"a": True, "b": True, "t": False},
    ]
    outs = [(r["p"], r["q"]) for r in interp.run(rows)]
    assert outs == [(False, False), (False, False), (False, True), (True, False)]


def test_latch_set_hold_reset():
    rows = [
        {"S": True, "R": False},
        {"S": False, "R": False},
        {"S": False, "R": True},
    ]
    assert run_outputs("flipflop", rows, "Q") == [True, True, False]


def test_latch_set_wins_over_reset():
    rows = [{"S": True, "R": True}]
    assert run_outputs("flipflop", rows, "Q") == [True]
    assert run_outputs("flipflop_reset", rows, "Q") == [False]


def test_latch_gate_formulation_agrees_everywhere():
    a = interp_for("flipflop")
    b = interp_for("flipflop_logic")
    for rows in bool_rows(["S", "R"], 3):
        assert a.run(rows) == b.run(rows)


def test_latch_variants_differ_only_when_both_inputs_high():
    a = interp_for("flipflop")
    c = interp_for("flipflop_reset")
    for rows in bool_rows(["S", "R"], 2):
        both_high = any(r["S"] and r["R"] for r in rows)
        if not both_high:
            assert a.run(rows) == c.run(rows)


def test_pump_level_tracking():
    rows = [{"u": 0}, {"u": 0}, {"u": 0}]
    assert run_outputs("charge_pump", rows, "y") == [2, 4, 0]


def test_enabled_subsystem_holds_output():
    rows = [
        {"run": False, "x": 5},
        {"run": True, "x": 5},
        {"run": True, "x": 3},
        {"run": False, "x": 7},
        {"run": True, "x": 2},
    ]
    assert run_outputs("pulse_keeper", rows, "held") == [0, 0, 5, 5, 5]


def test_run_accepts_explicit_state():
    interp = interp_for("flipflop")
    out = interp.run([{"S": False, "R": False}], state={"Delay": True})
    assert out == [{"Q": True}]


def test_step_returns_only_changed_vars_applied():
    interp = interp_for("charge_pump")
    state = interp.initial_state()
    assert state == {"Level": 2}
    out, nxt = interp.step(state, {"u": 1})
    assert out == {"y": 7}
    assert nxt == {"Level": 5}


def test_missing_input_rejected():
    interp = interp_for("flipflop")
    with pytest.raises(DomainError, match="missing"):
        interp.run([{"S": True}])


def test_out_of_domain_input_rejected():
    interp = interp_for("charge_pump")
    with pytest.raises(DomainError, match="u"):
        interp.run([{"u": 250}])
    with pytest.raises(DomainError):
        interp.run([{"u": -1}])


def test_out_of_domain_output_detected():
    text = (
        "model Bad\nin u : int[0,3]\nout y : int[0,3]\nblock A : Sum(++)\n"
        "wire u -> A.in1\nwire u -> A.in2\nwire A -> y\n"
    )
    interp = Interpreter(flatten_and_validate(parse_model(text)))
    assert interp.run([{"u": 1}]) == [{"y": 2}]
    with pytest.raises(DomainError, match="outside"):
        interp.run([{"u": 2}])


@given(st.lists(st.fixed_dictionaries(
    {"S": st.booleans(), "R": st.booleans()}), max_size=8))
def test_interpreter_deterministic_and_prefix_stable(rows):
    interp = interp_for("flipflop")
    full = interp.run(rows)
    again = interp.run(rows)
    assert full == again
    # a prefix of the input trace yields a prefix of the output trace
    cut = len(rows) // 2
    assert interp.run(rows[:cut]) == full[:cut]


# ---------------------------------------------------------------------------
# trace CSV handling


def test_csv_round_trip():
    flat = flatten_and_validate(load_model("flipflop"))
    rows = [{"S": True, "R": False}, {"S": False, "R": True}]
    text = write_trace_csv(rows, flat.inputs)
    assert text.splitlines()[0] == "S,R"
    assert read_trace_csv(text, flat.inputs) == rows


def test_csv_bools_render_as_bits():
    flat = flatten_and_validate(load_model("flipflop"))
    text = write_trace_csv([{"S": True, "R": False}], flat.inputs)
    assert text.splitlines()[1] == "1,0"


def test_csv_accepts_word_booleans():
    flat = flatten_and_validate(load_model("flipflop"))
    rows = read_trace_csv("S,R\ntrue,false\n1,0\n", flat.inputs)
    assert rows == [{"S": True, "R": False}] * 2


def test_csv_extra_columns_ignored():
    flat = flatten_and_validate(load_model("charge_pump"))
    rows = read_trace_csv("u,note\n7,hello\n", flat.inputs)
    assert rows == [{"u": 7}]


def test_csv_missing_column_rejected():
    flat = flatten_and_validate(load_model("flipflop"))
    with pytest.raises(CsvSchemaError, match="missing input column"):
        read_trace_csv("S\n1\n", flat.inputs)


def test_csv_empty_rejected():
    flat = flatten_and_validate(load_model("flipflop"))
    with pytest.raises(CsvSchemaError, match="empty"):
        read_trace_csv("", flat.inputs)


def test_csv_header_only_gives_empty_trace():
    flat = flatten_and_validate(load_model("flipflop"))
    assert read_trace_csv("S,R\n", flat.inputs) == []


def test_csv_bad_value_rejected():
    flat = flatten_and_validate(load_model("charge_pump"))
    with pytest.raises(CsvSchemaError):
        read_trace_csv("u\nseven\n", flat.inputs)


def test_csv_enum_values():
    text = (
        "model P\ntype C = enum { red, blue }\nin x : C\nout y : C\nwire x -> y\n"
    )
    flat = flatten_and_validate(parse_model(text))
    rows = [{"x": "red"}, {"x": "blue"}]
    out = write_trace_csv(rows, flat.inputs)
    assert read_trace_csv(out, flat.inputs) == rows
    with pytest.raises(CsvSchemaError):
        read_trace_csv("x\ngreen\n", flat.inputs)
