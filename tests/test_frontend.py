"""The front end does each block's work once.

A parsed diagram carries each block's port table, which the parser
computed once, and flattening reads it; for a diagram built through the
API flattening computes each table once.  One function,
``model.wire_end``, checks each wire end once: the parser, whose errors
carry the wire's line, or flattening, whose errors are
``ModelValidationError``.  ``summarize`` builds each assignment's node
directly, so its generic expression passes run a fixed number of times.
"""

from __future__ import annotations

import pytest

import dfcompat.exprs
import dfcompat.model
import dfcompat.parser
import dfcompat.symbolic
from dfcompat import parse_model
from dfcompat.cfg import extract_cfg
from dfcompat.errors import DslSyntaxError, ModelValidationError
from dfcompat.model import Block, Connection, Diagram, Model, flatten_and_validate
from dfcompat.symbolic import summarize
from helpers import MODELS_DIR, chain_text, random_model_pair

BUNDLED = sorted(p.stem for p in MODELS_DIR.glob("*.dfm"))

# a data store read into an enabled subsystem, which the bundled and the
# random models lack
STORE_TEXT = """\
model Store
in u : bool
in e : bool
out y : bool
block S : DataStoreMemory(false)
block W : DataStoreWrite(S)
block R : DataStoreRead(S)
block E : EnabledSubsystem {
  in x : bool
  out z : bool = true
  block N : Logic(NOT)
  wire x -> N
  wire N -> z
}
wire u -> W
wire R -> E.x
wire e -> E.enable
wire E.z -> y
"""


def _rebuilt(model: Model) -> Model:
    """The model built again through the API, without the parser."""

    def diagram(d: Diagram) -> Diagram:
        return Diagram(
            inputs=list(d.inputs),
            outputs=list(d.outputs),
            blocks={
                name: Block(blk.name, blk.kind, dict(blk.params),
                            None if blk.children is None else diagram(blk.children))
                for name, blk in d.blocks.items()
            },
            connections=[
                Connection(c.src_block, c.src_port, c.dst_block, c.dst_port)
                for c in d.connections
            ],
        )

    return Model(model.name, dict(model.enums), diagram(model.diagram))


def _flat_view(model: Model, datastore: str):
    try:
        flat = flatten_and_validate(model, datastore)
    except ModelValidationError as exc:
        return type(exc).__name__, str(exc)
    return flat.blocks, flat.order, flat.signal_kinds, flat.output_sources, flat.var_decls


def _parity_models():
    for name in BUNDLED:
        yield name, parse_model((MODELS_DIR / f"{name}.dfm").read_text())
    yield "store", parse_model(STORE_TEXT)
    for seed in range(50):
        a, b = random_model_pair(seed)
        yield f"random {seed} A", a
        yield f"random {seed} B", b


def test_api_built_models_flatten_like_parsed_ones():
    checked = 0
    for label, parsed in _parity_models():
        api = _rebuilt(parsed)
        assert api == parsed, label
        for datastore in ("internal", "global"):
            assert _flat_view(api, datastore) == _flat_view(parsed, datastore), (label, datastore)
        checked += 1
    assert checked == len(BUNDLED) + 101


_HEAD = "model M\nin u : bool\nin v : bool\nout y : bool\nblock g : Logic(AND)\n"
_GOOD = _HEAD + "wire u -> g.in1\nwire v -> g.in2\nwire g -> y\n"


@pytest.mark.parametrize("bad,api_wire,message", [
    ("wire v -> Ghost.in", Connection("v", "out", "Ghost", "in"),
     "wire references unknown block 'Ghost'"),
    ("wire v -> g.in3", Connection("v", "out", "g", "in3"),
     "block 'g' has no input port 'in3'"),
    ("wire Ghost -> g.in2", Connection("Ghost", "out", "g", "in2"),
     "wire references unknown block 'Ghost'"),
    ("wire g.in1 -> g.in2", Connection("g", "in1", "g", "in2"),
     "block 'g' has no output port 'in1'"),
    ("wire v -> g", None, "block 'g' has 2 input ports; name one"),
])
def test_bad_wire_end_is_refused_by_parser_and_flattening(bad, api_wire, message):
    # the second wire of _GOOD replaced: line 7 of the text
    text = _GOOD.replace("wire v -> g.in2", bad)
    with pytest.raises(DslSyntaxError) as err:
        parse_model(text)
    assert (type(err.value), err.value.line, str(err.value)) == (
        DslSyntaxError, 7, f"line 7: {message}"
    )
    if api_wire is None:  # an API wire always names its ports
        return
    api = _rebuilt(parse_model(_GOOD))
    api.diagram.connections[1] = api_wire
    with pytest.raises(ModelValidationError) as err:
        flatten_and_validate(api)
    assert (type(err.value), str(err.value)) == (ModelValidationError, message)


# ---------------------------------------------------------------------------
# work counts


def _count_calls(monkeypatch, module, name: str) -> list:
    """Wrap module.name where the module binds it; one entry per call."""
    calls: list = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def _all_blocks(d: Diagram) -> list[Block]:
    out = list(d.blocks.values())
    for blk in d.blocks.values():
        if blk.children is not None:
            out += _all_blocks(blk.children)
    return out


@pytest.mark.parametrize("text", [
    chain_text(50, restyled=True),
    (MODELS_DIR / "pulse_keeper.dfm").read_text(),
    STORE_TEXT,
], ids=["chain_50", "pulse_keeper", "store"])
def test_each_port_table_is_computed_once(monkeypatch, text):
    calls = [_count_calls(monkeypatch, m, "block_ports") for m in (dfcompat.parser, dfcompat.model)]

    def per_block() -> list[int]:
        ids = [id(blk) for c in calls for (blk,) in c]
        return sorted(ids.count(i) for i in set(ids))

    # parsing computes every table once, and flattening reads them
    model = parse_model(text)
    flatten_and_validate(model)
    blocks = _all_blocks(model.diagram)
    assert per_block() == [1] * len(blocks)
    assert len(calls[1]) == 0

    # an API-built model: flattening computes every table once
    api = _rebuilt(model)
    for c in calls:
        c.clear()
    flatten_and_validate(api)
    assert per_block() == [1] * len(blocks)


def test_each_wire_end_is_checked_once(monkeypatch):
    text = chain_text(50, restyled=True)
    wires = text.count("wire ")
    calls = [_count_calls(monkeypatch, m, "wire_end") for m in (dfcompat.parser, dfcompat.model)]
    model = parse_model(text)
    flatten_and_validate(model)
    assert (len(calls[0]), len(calls[1])) == (2 * wires, 0)
    flatten_and_validate(_rebuilt(model))
    assert (len(calls[0]), len(calls[1])) == (2 * wires, 2 * wires)


def test_edited_parsed_diagram_is_checked_when_its_tables_are_dropped():
    model = parse_model(_GOOD)
    model.diagram.connections[1] = Connection("v", "out", "g", "in3")
    model.diagram.port_tables = None
    with pytest.raises(ModelValidationError, match="block 'g' has no input port 'in3'"):
        flatten_and_validate(model)


def test_parsed_diagram_with_a_block_added_flattens_as_one_built_through_the_api():
    """The parser's port tables no longer name every block, so flattening
    computes the tables and checks every wire itself."""
    model = parse_model("model M\nin u : bool\nout y : bool\nwire u -> y\n")
    tables = dict(model.diagram.port_tables)
    model.diagram.blocks["N"] = Block("N", "Logic", {"op": "NOT"})
    model.diagram.connections[:] = [
        Connection("u", "out", "N", "in1"), Connection("N", "out", "y", "in")
    ]
    api = parse_model(
        "model M\nin u : bool\nout y : bool\nblock N : Logic(NOT)\n"
        "wire u -> N.in1\nwire N -> y.in\n"
    )
    assert flatten_and_validate(model) == flatten_and_validate(_rebuilt(api))
    assert model.diagram.port_tables == tables


def test_summarize_runs_generic_passes_a_fixed_number_of_times(monkeypatch):
    calls = []
    for n in (50, 400):
        flat = flatten_and_validate(parse_model(chain_text(n, restyled=True)))
        cfg = extract_cfg(flat)
        # both bindings: a call through exprs (substitute, fold) counts too
        counts = [
            _count_calls(monkeypatch, module, name)
            for name in ("postorder", "rewrite")
            for module in (dfcompat.symbolic, dfcompat.exprs)
        ]
        summarize(cfg)
        calls.append((len(counts[0]) + len(counts[1]), len(counts[2]) + len(counts[3])))
        monkeypatch.undo()
    assert calls[0] == calls[1]
    assert calls[0] == (1, 1)
