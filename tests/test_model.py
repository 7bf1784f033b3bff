"""Flattening, static validation, scheduling, stores, and port mapping."""

import re

import pytest

from dfcompat import (
    BoolType,
    check_interface,
    derive_port_mapping,
    flatten_and_validate,
    parse_model,
    sorted_order,
)
from dfcompat.errors import (
    AlgebraicLoop,
    ConflictingOverride,
    DataStoreOrder,
    ModelValidationError,
    TypeMismatch,
    UnconnectedInput,
    UnmappedPort,
)
from dfcompat.interp import Interpreter
from dfcompat.model import Block, Connection, Diagram, Model, Port, hold_var
from helpers import load_model


def test_flatten_flipflop_shape():
    flat = flatten_and_validate(load_model("flipflop"))
    assert sorted(flat.blocks) == [
        "Delay", "One", "Q", "R", "S", "Switch_R", "Switch_S", "Zero",
    ]
    assert flat.var_decls == {"Delay": (BoolType(), False)}
    assert flat.output_sources == {"Q": ("sig", "Switch_S")}
    assert [p.name for p in flat.inputs] == ["S", "R"]


def test_schedule_is_topological_with_lexicographic_ties():
    sched = sorted_order(flatten_and_validate(load_model("flipflop")))
    assert sched.output_phase == ("Delay", "One", "Zero", "Switch_R", "Switch_S")
    assert sched.update_phase == ("Delay",)


def test_flatten_nested_subsystems():
    flat = flatten_and_validate(load_model("pulse_keeper"))
    assert set(flat.var_decls) == {"Shell/Core/Prev", hold_var("Shell/Core/mem")}
    prev = flat.blocks["Shell/Core/Prev"]
    assert prev.group == ("Shell/Core",)
    assert prev.enables == (("in", "run"),)
    latch = flat.blocks["Shell/Core/mem"]
    assert latch.kind == "HoldOutput"
    # the latch itself runs in the enclosing scope; its gate is the chain
    assert latch.enables == ()
    assert latch.group == ()
    assert latch.params["gate"] == (("in", "run"),)


def test_algebraic_loop_detected():
    text = (
        "model Loop\nin p : bool\nout y : bool\n"
        "block A : Logic(AND)\nblock B : Logic(OR)\n"
        "wire p -> A.in1\nwire B -> A.in2\n"
        "wire p -> B.in1\nwire A -> B.in2\n"
        "wire A -> y\n"
    )
    with pytest.raises(AlgebraicLoop) as exc:
        flatten_and_validate(parse_model(text))
    assert set(exc.value.cycle) & {"A", "B"}


def test_delay_breaks_loop():
    text = (
        "model Ok\nin p : bool\nout y : bool\n"
        "block D : UnitDelay(false)\nblock X : Logic(XOR)\n"
        "wire p -> X.in1\nwire D -> X.in2\nwire X -> D\nwire X -> y\n"
    )
    flat = flatten_and_validate(parse_model(text))
    assert "D" in flat.var_decls


def test_degenerate_wire_cycle():
    text = (
        "model Weird\nin p : bool\nout y : bool\n"
        "block S : Subsystem {\nin a : bool\nout b : bool\nwire a -> b\n}\n"
        "wire S.b -> S.a\nwire S.b -> y\n"
    )
    with pytest.raises(ModelValidationError, match="cycle"):
        flatten_and_validate(parse_model(text))


def test_multiple_drivers_rejected():
    text = (
        "model M\nin p : bool\nin q : bool\nout y : bool\n"
        "wire p -> y\nwire q -> y\n"
    )
    with pytest.raises(ModelValidationError, match="driver"):
        flatten_and_validate(parse_model(text))


def test_unconnected_input_rejected():
    text = (
        "model M\nin p : bool\nout y : bool\nblock S : Switch\n"
        "wire p -> S.ctrl\nwire p -> S.in1\nwire S -> y\n"
    )
    with pytest.raises(UnconnectedInput, match="in3"):
        flatten_and_validate(parse_model(text))


def test_unwired_output_rejected():
    with pytest.raises(UnconnectedInput, match="y"):
        flatten_and_validate(parse_model("model M\nin p : bool\nout y : bool\n"))


def test_kind_mismatches_rejected():
    logic_on_int = (
        "model M\nin u : int[0,3]\nout y : bool\nblock L : Logic(NOT)\n"
        "wire u -> L.in1\nwire L -> y\n"
    )
    with pytest.raises(TypeMismatch):
        flatten_and_validate(parse_model(logic_on_int))
    mixed_switch = (
        "model M\nin p : bool\nin u : int[0,3]\nout y : int[0,3]\n"
        "block S : Switch\nwire p -> S.ctrl\nwire p -> S.in1\n"
        "wire u -> S.in3\nwire S -> y\n"
    )
    with pytest.raises(TypeMismatch):
        flatten_and_validate(parse_model(mixed_switch))
    order_on_bool = (
        "model M\nin p : bool\nout y : bool\nblock R : Relational(<)\n"
        "wire p -> R.in1\nwire p -> R.in2\nwire R -> y\n"
    )
    with pytest.raises(TypeMismatch):
        flatten_and_validate(parse_model(order_on_bool))
    delay_fed_int = (
        "model M\nin u : int[0,3]\nout y : bool\nblock D : UnitDelay(false)\n"
        "wire u -> D\nwire D -> y\n"
    )
    with pytest.raises(TypeMismatch):
        flatten_and_validate(parse_model(delay_fed_int))
    out_fed_wrong = (
        "model M\nin p : bool\nout y : int[0,3]\nwire p -> y\n"
    )
    with pytest.raises(TypeMismatch):
        flatten_and_validate(parse_model(out_fed_wrong))


def test_enable_must_be_bool():
    text = (
        "model M\nin u : int[0,3]\nout y : int[0,3] = 0\n"
        "block E : EnabledSubsystem {\nin v : int[0,3]\nout w : int[0,3] = 0\n"
        "wire v -> w\n}\n"
        "wire u -> E.enable\nwire u -> E.v\nwire E.w -> y\n"
    )
    with pytest.raises(TypeMismatch, match="enable"):
        flatten_and_validate(parse_model(text))


def test_equal_enum_types_interchangeable():
    text = (
        "model M\ntype C = enum { a, b }\nin x : C\nout y : C\n"
        "block K : Constant(C.a)\nblock E : Relational(==)\n"
        "block S : Switch\n"
        "wire x -> E.in1\nwire K -> E.in2\n"
        "wire E -> S.ctrl\nwire K -> S.in1\nwire x -> S.in3\nwire S -> y\n"
    )
    flat = flatten_and_validate(parse_model(text))
    interp = Interpreter(flat)
    out, _ = interp.step(interp.initial_state(), {"x": "b"})
    assert out == {"y": "b"}
    out, _ = interp.step(interp.initial_state(), {"x": "a"})
    assert out == {"y": "a"}


# ---------------------------------------------------------------------------
# data stores

MAILBOX = (
    "model Mailbox\nin x : int[0,9]\nout y : int[0,9]\n"
    "block Box : DataStoreMemory(0, int[0,9])\n"
    "block Put : DataStoreWrite(Box)\nblock Take : DataStoreRead(Box)\n"
    "wire x -> Put\nwire Take -> y\n"
)

METER = (
    "model Meter\nin x : int[0,3]\nout y : int[0,9]\n"
    "block Acc : DataStoreMemory(0, int[0,9])\n"
    "block Get : DataStoreRead(Acc)\nblock Put : DataStoreWrite(Acc)\n"
    "block Add : Sum(++)\nblock Cap : Saturation(0, 9)\n"
    "wire Get -> Add.in1\nwire x -> Add.in2\nwire Add -> Cap\nwire Cap -> Put\n"
    "wire Get -> y\n"
)


def test_store_write_visible_same_step():
    interp = Interpreter(flatten_and_validate(parse_model(MAILBOX)))
    rows = [{"x": 4}, {"x": 7}, {"x": 0}]
    assert [r["y"] for r in interp.run(rows)] == [4, 7, 0]


def test_store_read_before_write_rejected_by_default():
    flat = flatten_and_validate(parse_model(METER))
    with pytest.raises(DataStoreOrder, match="Get"):
        Interpreter(flat)


def test_store_read_before_write_allowed_in_schedule_mode():
    flat = flatten_and_validate(parse_model(METER))
    interp = Interpreter(flat, datastore_order="schedule")
    rows = [{"x": 3}, {"x": 2}, {"x": 1}]
    # reads observe the previous step's write
    assert [r["y"] for r in interp.run(rows)] == [0, 3, 5]


def test_store_globalized_interface():
    flat = flatten_and_validate(parse_model(MAILBOX), datastore="global")
    assert [p.name for p in flat.inputs] == ["x", "Box"]
    assert [p.name for p in flat.outputs] == ["y", "Box_out"]
    interp = Interpreter(flat)
    # the read now observes the environment, the write feeds the new port
    out, _ = interp.step(interp.initial_state(), {"x": 4, "Box": 8})
    assert out == {"y": 8, "Box_out": 4}


def test_store_globalized_read_only():
    text = (
        "model Probe\nin p : bool\nout y : int[0,9]\n"
        "block Box : DataStoreMemory(0, int[0,9])\n"
        "block Take : DataStoreRead(Box)\nwire Take -> y\n"
    )
    flat = flatten_and_validate(parse_model(text), datastore="global")
    assert [p.name for p in flat.inputs] == ["p", "Box"]
    assert [p.name for p in flat.outputs] == ["y"]
    interp = Interpreter(flat)
    out, _ = interp.step(interp.initial_state(), {"p": False, "Box": 6})
    assert out == {"y": 6}


def test_store_globalized_two_writers_rejected():
    text = (
        "model Twice\nin x : int[0,9]\nout y : int[0,9]\n"
        "block Box : DataStoreMemory(0, int[0,9])\n"
        "block P1 : DataStoreWrite(Box)\nblock P2 : DataStoreWrite(Box)\n"
        "block Take : DataStoreRead(Box)\n"
        "wire x -> P1\nwire x -> P2\nwire Take -> y\n"
    )
    with pytest.raises(ModelValidationError, match="writer"):
        flatten_and_validate(parse_model(text), datastore="global")


def test_store_unknown_name_rejected():
    text = (
        "model M\nin x : int[0,9]\nout y : int[0,9]\n"
        "block Take : DataStoreRead(Ghost)\nwire Take -> y\n"
    )
    with pytest.raises(ModelValidationError, match="Ghost"):
        flatten_and_validate(parse_model(text))


# ---------------------------------------------------------------------------
# port mapping and interface checks


def test_mapping_by_name():
    a = load_model("limiter_sign")
    b = load_model("limiter_plain")
    mapping = derive_port_mapping(flatten_and_validate(a), flatten_and_validate(b))
    assert ("req", "req") in mapping.pairs
    assert ("cmd", "cmd") in mapping.pairs
    assert mapping.extra_inputs_a == ("Sign_b",)


def test_mapping_with_override():
    a = parse_model("model A\nin v : int[0,3]\nout y : int[0,3]\nwire v -> y\n")
    b = parse_model("model B\nin u : int[0,3]\nout y : int[0,3]\nwire u -> y\n")
    fa, fb = flatten_and_validate(a), flatten_and_validate(b)
    with pytest.raises(UnmappedPort):
        derive_port_mapping(fa, fb)
    mapping = derive_port_mapping(fa, fb, overrides={"u": "v"})
    assert ("u", "v") in mapping.pairs


def test_mapping_override_conflicts():
    a = parse_model("model A\nin u : int[0,3]\nout y : int[0,3]\nwire u -> y\n")
    b = parse_model("model B\nin u : int[0,3]\nout y : int[0,3]\nwire u -> y\n")
    fa, fb = flatten_and_validate(a), flatten_and_validate(b)
    with pytest.raises(ConflictingOverride):
        derive_port_mapping(fa, fb, overrides={"u": "ghost"})
    with pytest.raises(ConflictingOverride):
        derive_port_mapping(fa, fb, overrides={"u": "y"})


def test_interface_accepts_widened_input_range():
    fa = flatten_and_validate(load_model("bands_v1"))
    fb = flatten_and_validate(load_model("bands_v0"))
    report = check_interface(fa, fb, derive_port_mapping(fa, fb))
    assert report.compatible


def test_interface_rejects_narrowed_input_range():
    fa = flatten_and_validate(load_model("bands_v0"))
    fb = flatten_and_validate(load_model("bands_v1"))
    report = check_interface(fa, fb, derive_port_mapping(fa, fb))
    assert not report.compatible
    assert any(port == "u" for port, _ in report.violations)


def test_interface_requires_equal_output_types():
    a = parse_model("model A\nin u : int[0,3]\nout y : int[0,4]\n"
                    "block S : Saturation(0,4)\nwire u -> S\nwire S -> y\n")
    b = parse_model("model B\nin u : int[0,3]\nout y : int[0,3]\nwire u -> y\n")
    fa, fb = flatten_and_validate(a), flatten_and_validate(b)
    report = check_interface(fa, fb, derive_port_mapping(fa, fb))
    assert not report.compatible
    assert any(port == "y" for port, _ in report.violations)


def test_interface_rejects_kind_mismatch():
    a = parse_model("model A\nin u : int[0,1]\nout y : int[0,1]\nwire u -> y\n")
    b = parse_model("model B\nin u : bool\nout y : bool\nwire u -> y\n")
    fa, fb = flatten_and_validate(a), flatten_and_validate(b)
    report = check_interface(fa, fb, derive_port_mapping(fa, fb))
    assert not report.compatible


# ---------------------------------------------------------------------------
# models built through the API, which no parser checked


def _api_model(wire):
    """Mirror (y = u) built without the parser, wired by wire."""
    return Model("Api", diagram=Diagram(
        inputs=[Port("u", "in", BoolType())],
        outputs=[Port("y", "out", BoolType())],
        blocks={"u": Block("u", "Inport"), "y": Block("y", "Outport")},
        connections=[wire],
    ))


def test_api_built_model_with_valid_wire_flattens():
    flat = flatten_and_validate(_api_model(Connection("u", "out", "y", "in")))
    assert flat.output_sources == {"y": ("in", "u")}


@pytest.mark.parametrize("wire,message", [
    (Connection("u", "out", "Ghost", "in"), "wire references unknown block 'Ghost'"),
    (Connection("u", "out", "u", "out"), "block 'u' has no input port 'out'"),
])
def test_api_built_wire_endpoints_are_checked(wire, message):
    with pytest.raises(ModelValidationError, match=re.escape(message)):
        flatten_and_validate(_api_model(wire))
