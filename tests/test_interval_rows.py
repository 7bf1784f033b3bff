"""Interval rows for integer inputs compared with constants, split rows
for those also read by value, and two rows per interval for affine output
comparisons.

With ``rows.INTERVAL_ROWS`` off every integer input is enumerated value
by value, in the unfolding, the simulation and the satisfiability checks
of fix search: the reference the interval rows must reproduce, with the
same verdicts, counterexample rows, pair and query counts.
"""

import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from dfcompat import (
    CheckConfig,
    DfcError,
    Domain,
    DomainTooLarge,
    build_efa,
    build_step,
    check_compatibility,
    exists_forall_constants,
    flatten_and_validate,
    image_map,
    parse_model,
    rows,
    sat_witness,
    simcheck,
    unfold_to_ts,
)
from dfcompat.errors import ArithmeticOverflow
from dfcompat.exprs import Binary, Const, InputRef, VarRef
from dfcompat.model import BoolType, IntType, domain_size, domain_values
from dfcompat.rows import box_reads
from dfcompat.simcheck import simulates
from dfcompat.symbolic import SymbolicStep
from dfcompat.unfold import Ts
from helpers import load_model, model_path, random_model_pair, state_rows

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
        monkeypatch.setattr(rows, "INTERVAL_ROWS", False)
        assert outcomes(a, b, configs) == with_intervals
        monkeypatch.setattr(rows, "INTERVAL_ROWS", True)


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
    affine = []

    def counted(exprs, box):
        reads = box_reads(exprs, box)
        affine.append(any(reads.values()))
        return reads

    monkeypatch.setattr(simcheck, "box_reads", counted)
    # the generator's split inputs are narrow: split them all the same
    monkeypatch.setattr(rows, "SPLIT_MIN_VALUES", 0)
    compressed = split = 0
    for seed in RANDOM_SEEDS:
        model_a, model_b = random_model_pair(seed)
        same_without_intervals(
            monkeypatch, model_a, model_b, {"default": CONFIGS["default"]}
        )
        compressed += compressed_rows(model_a)
        # x is compared with a constant and read by value
        split += any(p.name == "x" for p in model_a.inputs) and compressed_rows(model_a)
    # the slice must reach interval rows, split rows and affine output rows
    # to mean anything
    assert compressed >= 10
    assert split >= 10
    assert sum(affine) >= 100
    monkeypatch.setattr(rows, "INTERVAL_ROWS", False)
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
out y : int[0,40000]
block D : UnitDelay(false)
block Zero : Constant(0)
block Square : Product
block Pick : Switch
wire p -> D.in
wire D -> Pick.ctrl
wire u -> Square.in1
wire u -> Square.in2
wire Square -> Pick.in1
wire Zero -> Pick.in3
wire Pick -> y
"""


def test_simulation_refusal_names_models_and_states():
    """y shows u * u once D is set, so comparing outputs there takes every
    value of u, past a budget the unfolding (over p alone) stays within."""
    cand, ref = (parse_model(SHOWN.format(name=n)) for n in ("ShownA", "ShownB"))
    with pytest.raises(DomainTooLarge, match=re.escape(
        "simulating ShownB by ShownA needs 201 input rows in candidate state "
        "D=1, reference state D=1 (budget 100)"
    )):
        check_compatibility(cand, ref, config=CheckConfig(solver_budget=100))


SCALED = """\
model {name}
in u : int[0,{hi}]
out y : int[-9223372036854775808,9223372036854775807]
block G : Gain({k})
wire u -> G
wire G -> y
"""


def scaled(name, k, hi):
    """y = k * u over u : int[0, hi]."""
    return parse_model(SCALED.format(name=name, k=k, hi=hi))


def test_affine_outputs_give_the_least_differing_row():
    """2u and u agree at u = 0 only: two rows per interval find u = 1, the
    row enumerating ten million values would find."""
    twice, once = scaled("Twice", 2, 10_000_000), scaled("Once", 1, 10_000_000)
    tracemalloc.start()
    try:
        report = check_compatibility(twice, once)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024
    assert report.verdict == "incompatible"
    for side in (report.backward, report.upward):
        cx = side.counterexample
        assert (cx.kind, cx.rows_a) == ("output-mismatch", [{"u": 1}])
    assert report.backward.counterexample.expected == {"y": 1}
    assert report.backward.counterexample.actual == {"y": 2}


def test_affine_outputs_same_as_full_enumeration(monkeypatch):
    for k_a, k_b in ((2, 1), (3, 3), (-1, 1), (0, 1)):
        same_without_intervals(
            monkeypatch, scaled("A", k_a, 300), scaled("B", k_b, 300),
            {"default": CONFIGS["default"]},
        )


def test_overflowing_affine_output_enumerated_by_value(monkeypatch):
    """u * 2**60 leaves 64 bits from u = 8: the interval's greatest value
    raises, so it is enumerated value by value and the overflow comes
    where full enumeration meets it, or, over ten million values, past
    the budget."""
    monkeypatch.setattr(rows, "SPLIT_MIN_VALUES", 0)
    big = 2**60
    a, b = scaled("A", big, 20), scaled("B", big, 20)
    with pytest.raises(ArithmeticOverflow, match="9223372036854775808"):
        check_compatibility(a, b)
    same_without_intervals(monkeypatch, a, b, {"default": CONFIGS["default"]})
    # a difference before the overflow is found first
    same_without_intervals(monkeypatch, a, scaled("C", 0, 20), {"default": CONFIGS["default"]})
    wide = scaled("Wide", 2**40, 10_000_000)
    with pytest.raises(DomainTooLarge, match=re.escape(
        "simulating Wide by Wide needs 10000001 input rows in candidate state "
        "s0, reference state s0 (budget 10000000)"
    )):
        check_compatibility(wide, wide)


def test_off_switch_reaches_every_planner(monkeypatch):
    """With ``rows.INTERVAL_ROWS`` off, every grid the planner returns, to
    any stage, gives each name every declared value."""
    planned = []
    original = rows.plan

    def recorded(uses, dtypes, budget, what, *args, **kwargs):
        grid = original(uses, dtypes, budget, what, *args, **kwargs)
        planned.append((what, grid, dtypes))
        return grid

    for name, module in list(sys.modules.items()):
        if name.startswith("dfcompat") and getattr(module, "plan", None) is original:
            monkeypatch.setattr(module, "plan", recorded)
    monkeypatch.setattr(rows, "INTERVAL_ROWS", False)
    text_a, text_b = GOLDEN["cruise_v4__cruise_v3"]
    assert check_compatibility(parse_model(text_a), parse_model(text_b)).conditional
    u, k = InputRef("u"), InputRef("k")
    wide = Domain.of(k=BoolType(), u=IntType(0, 100_000))
    band = Binary("and", Binary("ge", u, Const(7)), Binary("lt", u, Const(9)))
    assert sat_witness(band, wide) == {"k": False, "u": 7}
    either = Binary("or", k, Binary("lt", u, Const(5)))
    assert exists_forall_constants(either, ["k"], wide) == {"k": True}
    pump = build_step(flatten_and_validate(load_model("charge_pump")))
    assert any(image_map(build_efa(pump)))
    stages = {what.split()[0] for what, _, _ in planned}
    # build_efa's guard checks are "checking the guarded transitions of ..."
    assert stages == {
        "unfolding", "simulating", "fix", "satisfiability", "constant", "checking", "image",
    }
    for what, grid, dtypes in planned:
        assert grid.values == tuple(domain_values(dtypes[n]) for n in grid.names), what


WIDE = IntType(0, 1_000_000)
SQUARE_SMALL = Binary("lt", Binary("mul", InputRef("u"), InputRef("u")), Const(5))


def wide_step(name, outputs, updates):
    """A step over u : int[0, 1000000] and, with updates, m : bool."""
    return SymbolicStep(
        name=name,
        inputs={"u": WIDE},
        vars={"m": (BoolType(), False)} if updates else {},
        outputs=outputs,
        updates=updates,
    )


NARROW = IntType(0, 1000)


def hand_built(name, read):
    """One state whose two transitions split the values of read : int[0,
    1000], stored value by value, so a query over it reads it by value."""
    values = domain_values(NARROW)
    return Ts(
        name=name, var_names=(), states=[()], init=0, outputs=[{"y": Const(0)}],
        inputs={read: NARROW},
        rows=[state_rows((read,), (values,), [v % 2 for v in values], [0, 0])],
    )


def shifted(name):
    """No state, y = u * 2**60, which overflows at the top of u's range."""
    return unfold_to_ts(wide_step(name, {"y": Binary("mul", InputRef("u"), Const(2**60))}, {}))


# per stage: the call refused, with a budget of 1000, and its message
REFUSALS = {
    "unfold": (
        lambda: unfold_to_ts(wide_step("Wide", {"y": VarRef("m")}, {"m": SQUARE_SMALL}),
                             budget=1000),
        "unfolding Wide needs 1000001 input rows in state m=0 (budget 1000)",
    ),
    "simulate space": (
        lambda a=hand_built("A", "u"), b=hand_built("B", "v"):
            simulates(a, b, Domain.of(u=NARROW, v=NARROW), 1000),
        "simulating B by A needs 1002001 input rows in candidate state s0, "
        "reference state s0 (budget 1000)",
    ),
    "simulate output_space": (
        lambda a=shifted("A"), b=shifted("B"): simulates(a, b, Domain.of(u=WIDE), 1000),
        "simulating B by A needs 1000001 input rows in candidate state s0, "
        "reference state s0 (budget 1000)",
    ),
    "sat_witness": (
        lambda: sat_witness(SQUARE_SMALL, Domain.of(u=WIDE), 1000),
        "satisfiability needs 1000001 input rows over 1 names (budget 1000)",
    ),
    "exists_forall_constants": (
        lambda: exists_forall_constants(
            Binary("or", InputRef("k"), SQUARE_SMALL), ["k"],
            Domain.of(k=BoolType(), u=WIDE), 1000,
        ),
        "constant search needs 2000002 input rows over 1+1 names (budget 1000)",
    ),
    "image_map": (
        lambda efa=build_efa(wide_step("Wide", {"y": VarRef("m")}, {"m": SQUARE_SMALL})):
            image_map(efa, 1000),
        "image of a transition of Wide needs 2000002 input rows over its states "
        "(budget 1000)",
    ),
}


@pytest.mark.parametrize("stage", sorted(REFUSALS))
def test_query_refused_before_any_rows_are_built(stage):
    """u, read by value, has 1,000,001 values: listing them would take
    about 36 MB, so a peak under 1 MB shows the rows were counted, not
    built.  The two names of ``hand_built``, each read by value, make
    1,002,001 rows, refused before their bitsets are built."""
    refused, message = REFUSALS[stage]
    tracemalloc.start()
    try:
        with pytest.raises(DomainTooLarge, match=f"^{re.escape(message)}$"):
            refused()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
