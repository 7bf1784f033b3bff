"""DSL parsing, printing, and the syntax errors the grammar must reject."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfcompat import parse_mapping_file, parse_model, print_model
from dfcompat.errors import (
    DslSyntaxError,
    DuplicateName,
    TypeAnnotationMissing,
    UnknownBlockKind,
)
from dfcompat.model import BoolType, EnumType, IntType
from helpers import FIXTURE_PAIRS, MODELS_DIR, load_model

ALL_FIXTURES = sorted({name for pair in FIXTURE_PAIRS for name in pair})


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_print_parse_round_trip(name):
    text = (MODELS_DIR / f"{name}.dfm").read_text()
    once = print_model(parse_model(text))
    twice = print_model(parse_model(once))
    assert once == twice


def test_basic_model_shape():
    m = load_model("flipflop")
    assert m.name == "FlipFlop"
    assert [p.name for p in m.diagram.inputs] == ["S", "R"]
    assert [p.name for p in m.diagram.outputs] == ["Q"]
    assert m.diagram.inputs[0].dtype == BoolType()


def test_repeated_parses_share_port_and_model_names():
    first, again = load_model("limiter_plain"), load_model("limiter_plain")
    assert again.name is first.name
    for ports in ("inputs", "outputs"):
        for p, q in zip(getattr(first.diagram, ports), getattr(again.diagram, ports)):
            assert q.name is p.name


def test_int_port_bounds():
    m = parse_model("model M\nin u : int[-3,7]\nout y : int[-3,7]\nwire u -> y\n")
    assert m.diagram.inputs[0].dtype == IntType(-3, 7)


def test_comments_and_blank_lines_ignored():
    text = "# preamble\nmodel M\n\nin p : bool  # trailing\nout y : bool\nwire p -> y\n"
    m = parse_model(text)
    assert m.name == "M"
    assert [p.name for p in m.diagram.inputs] == ["p"]


def test_enum_declaration_and_constant():
    text = (
        "model Palette\n"
        "type Color = enum { red, green, blue }\n"
        "in pick : bool\n"
        "out c : Color\n"
        "block Red : Constant(Color.red)\n"
        "block Blue : Constant(Color.blue)\n"
        "block Sel : Switch\n"
        "wire pick -> Sel.ctrl\n"
        "wire Red -> Sel.in1\n"
        "wire Blue -> Sel.in3\n"
        "wire Sel -> c\n"
    )
    m = parse_model(text)
    assert m.enums["Color"] == EnumType(("red", "green", "blue"))
    assert m.diagram.outputs[0].dtype == m.enums["Color"]
    assert print_model(parse_model(print_model(m))) == print_model(m)


def test_output_initializer_is_hold_seed():
    m = parse_model("model M\nin p : bool\nout y : bool = true\nwire p -> y\n")
    assert m.diagram.outputs[0].init is True


def test_wire_with_explicit_ports_matches_implicit():
    a = parse_model("model M\nin p : bool\nout y : bool\nblock N : Logic(NOT)\nwire p -> N.in1\nwire N.out -> y\n")
    b = parse_model("model M\nin p : bool\nout y : bool\nblock N : Logic(NOT)\nwire p -> N\nwire N -> y\n")
    assert print_model(a) == print_model(b)


# ---------------------------------------------------------------------------
# rejected inputs


def _bad(text, exc, match):
    with pytest.raises(exc, match=match):
        parse_model(text)


def test_empty_text_rejected():
    _bad("", DslSyntaxError, "empty model text")
    _bad("# only a comment\n", DslSyntaxError, "empty model text")


def test_missing_model_header():
    _bad("in p : bool\n", DslSyntaxError, "expected 'model")


def test_unknown_block_kind():
    _bad("model M\nin p : bool\nout y : bool\nblock B : Bogus\nwire p -> y\n",
         UnknownBlockKind, "unknown block kind")


def test_hold_output_not_user_visible():
    # internal marker kind cannot be named in source text
    _bad("model M\nin p : bool\nout y : bool\nblock H : HoldOutput\nwire p -> y\n",
         UnknownBlockKind, "unknown block kind")


def test_duplicate_names_rejected():
    _bad("model M\nin p : bool\nin p : bool\nout y : bool\nwire p -> y\n",
         DuplicateName, "already used")
    _bad("model M\nin p : bool\nout y : bool\nblock p : Switch\nwire p -> y\n",
         DuplicateName, "already used")


def test_unbounded_int_rejected():
    _bad("model M\nin u : int\nout y : bool\nwire u -> y\n",
         TypeAnnotationMissing, "explicit bounds")


def test_input_initializer_rejected():
    _bad("model M\nin p : bool = true\nout y : bool\nwire p -> y\n",
         DslSyntaxError, "cannot carry an initial value")


def test_out_initializer_outside_domain():
    _bad("model M\nin u : int[0,3]\nout y : int[0,3] = 7\nwire u -> y\n",
         DslSyntaxError, "outside")


def test_unit_delay_int_needs_domain():
    _bad("model M\nin u : int[0,3]\nout y : int[0,3]\nblock D : UnitDelay(0)\n"
         "wire u -> D\nwire D -> y\n",
         TypeAnnotationMissing, "needs a domain")


def test_unit_delay_bool_rejects_domain():
    _bad("model M\nin p : bool\nout y : bool\nblock D : UnitDelay(false, int[0,1])\n"
         "wire p -> D\nwire D -> y\n",
         DslSyntaxError, "domain only applies")


def test_unit_delay_init_outside_domain():
    _bad("model M\nin u : int[0,3]\nout y : int[0,3]\nblock D : UnitDelay(9, int[0,3])\n"
         "wire u -> D\nwire D -> y\n",
         DslSyntaxError, "outside declared domain")


def test_saturation_bounds_validated():
    _bad("model M\nin u : int[0,3]\nout y : int[0,3]\nblock S : Saturation(5, 1)\n"
         "wire u -> S\nwire S -> y\n",
         DslSyntaxError, "lo <= hi")


def test_logic_op_validated():
    _bad("model M\nin p : bool\nout y : bool\nblock L : Logic(NAND)\n"
         "wire p -> L.in1\nwire L -> y\n",
         DslSyntaxError, "Logic op")


def test_sum_signs_validated():
    _bad("model M\nin u : int[0,3]\nout y : int[0,3]\nblock S : Sum(+*)\n"
         "wire u -> S.in1\nwire u -> S.in2\nwire S -> y\n",
         DslSyntaxError, "signs")


def test_switch_takes_no_params():
    _bad("model M\nin p : bool\nout y : bool\nblock S : Switch(1)\nwire p -> y\n",
         DslSyntaxError, "0 parameter")


def test_wire_to_unknown_block():
    _bad("model M\nin p : bool\nout y : bool\nwire ghost -> y\n",
         DslSyntaxError, "unknown block")


def test_ambiguous_endpoint_needs_port_name():
    _bad("model M\nin p : bool\nin q : bool\nout y : bool\nblock S : Switch\n"
         "wire p -> S\nwire p -> S.in1\nwire q -> S.in3\nwire S -> y\n",
         DslSyntaxError, "name one")


def test_unknown_port_name():
    _bad("model M\nin p : bool\nout y : bool\nblock N : Logic(NOT)\n"
         "wire p -> N.in9\nwire N -> y\n",
         DslSyntaxError, "no input port")


def test_subsystem_braces_required():
    _bad("model M\nin p : bool\nout y : bool\nblock S : Subsystem\nwire p -> y\n",
         DslSyntaxError, "must open")
    _bad("model M\nin p : bool\nout y : bool\nblock N : Logic(NOT) {\n}\nwire p -> y\n",
         DslSyntaxError, "does not open")


def test_unterminated_subsystem():
    _bad("model M\nin p : bool\nout y : bool\nblock S : Subsystem {\nin a : bool\n",
         DslSyntaxError, "unterminated")


def test_unmatched_closing_brace():
    _bad("model M\nin p : bool\nout y : bool\nwire p -> y\n}\n",
         DslSyntaxError, "unmatched")


def test_enum_only_at_top_level():
    _bad("model M\nin p : bool\nout y : bool\nblock S : Subsystem {\n"
         "type C = enum { a, b }\n}\nwire p -> y\n",
         DslSyntaxError, "top level")


def test_duplicate_enum_rejected():
    _bad("model M\ntype C = enum { a }\ntype C = enum { b }\n"
         "in p : bool\nout y : bool\nwire p -> y\n",
         DuplicateName, "already declared")


def test_garbage_line_reports_position():
    with pytest.raises(DslSyntaxError, match="cannot parse line") as exc:
        parse_model("model M\nin p : bool\nnonsense here\n")
    assert exc.value.line == 3


# ---------------------------------------------------------------------------
# mapping files


def test_mapping_file_parsed():
    text = "# renames\nF = Fz\nSign_b = sgn\n\n"
    assert parse_mapping_file(text) == {"F": "Fz", "Sign_b": "sgn"}


def test_mapping_file_duplicate_rejected():
    with pytest.raises(DslSyntaxError, match="duplicate mapping"):
        parse_mapping_file("a = b\na = c\n")


def test_mapping_file_bad_line_rejected():
    with pytest.raises(DslSyntaxError, match="expected"):
        parse_mapping_file("a -> b\n")


@given(st.text(alphabet="mwxyz io:[]{}()\n=#->", max_size=80))
def test_parser_never_hangs_or_crashes_unexpectedly(text):
    """Arbitrary noise either parses or raises the documented error type."""
    try:
        parse_model("model M\n" + text)
    except DslSyntaxError:
        pass
