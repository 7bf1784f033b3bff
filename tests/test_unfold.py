"""Reachable unfolding into explicit transition systems."""

import dataclasses
import itertools
import json
import re
import sys
import tracemalloc
from pathlib import Path

import pytest

from dfcompat import (
    ArithmeticOverflow,
    DomainError,
    DomainTooLarge,
    Interpreter,
    StateBudgetExceeded,
    build_efa,
    check_compatibility,
    compute_image,
    extract_cfg,
    flatten_and_validate,
    image_map,
    parse_model,
    summarize,
    unfold_to_ts,
)
from dfcompat.exprs import (
    TRUE, Binary, Const, InputRef, Ite, Unary, VarRef, eval_expr, postorder, specialise, to_str,
)
from dfcompat.model import BoolType, IntType
from dfcompat.simcheck import build_step
from dfcompat.symbolic import SymbolicStep
from dfcompat.rows import input_uses
from dfcompat import rows, unfold
from dfcompat.unfold import run_ts, ts_to_dot
from helpers import (
    FIXTURE_PAIRS,
    MODELS_DIR,
    all_rows,
    load_model,
    random_model_pair,
    run_cli,
    ts_outputs,
    ts_step,
)
from test_efa import model_step, pump_step

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from dfbench import families  # noqa: E402


def ts_of(name, **kw):
    step = summarize(extract_cfg(flatten_and_validate(load_model(name))))
    return unfold_to_ts(step, **kw)


def test_latch_two_states():
    ts = ts_of("flipflop")
    assert len(ts.states) == 2
    assert ts.label(0) == "Delay=0"
    assert ts.label(1) == "Delay=1"
    assert ts.init == 0


def test_latch_guards_partition_each_state():
    ts = ts_of("flipflop")
    rows = all_rows(ts.input_domain())
    for state in range(len(ts.states)):
        for row in rows:
            assert len([t for g, t in ts.transitions[state] if eval_expr(g, row)]) == 1


def test_pump_reachable_states():
    ts = unfold_to_ts(pump_step())
    assert {vec[0] for vec in ts.states} == {2, 4, 5, 8, 9, 10, 11, 12, 13, 14}
    assert len(ts.states) == 10


def test_pump_image_of_initial_state():
    step = pump_step()
    image = compute_image(step, {"level": 2})
    assert image == {(4,): {"u": 0}, (5,): {"u": 1}, (2,): {"u": 2}}


def test_image_witness_is_least_row():
    step = pump_step()
    image = compute_image(step, {"level": 5})
    # staying put first happens at u = 5, every rise below that
    assert image[(5,)] == {"u": 5}
    assert image[(10,)] == {"u": 0}


@pytest.mark.parametrize(
    "name", ["pump"] + sorted(p.stem for p in MODELS_DIR.glob("*.dfm"))
)
def test_unfold_compute_image_and_image_map_agree(name):
    step = pump_step() if name == "pump" else model_step(name)
    ts = unfold_to_ts(step)
    maps = image_map(build_efa(step))
    for s, vec in enumerate(ts.states):
        image = compute_image(step, ts.state_binding(s))
        targets = ts.rows[s].targets
        # each transition's stored bitset holds exactly the rows taking it
        assert ts.rows[s].bits == [
            sum(1 << i for i, e in enumerate(ts.rows[s].edges) if e == j)
            for j in range(len(targets))
        ]
        reached = {ts.states[t] for t in targets}
        assert reached == set(image)
        for t in targets:
            assert ts.witness(s, t) == image[ts.states[t]]
        # image_map leaves out transitions that move no variable
        listed = set().union(*(m.get(vec, ()) for m in maps))
        assert listed <= reached
        assert reached - {vec} <= listed


def test_band_classifier_states_follow_modes():
    ts = ts_of("bands_v2")
    assert sorted(vec[0] for vec in ts.states) == [0, 1, 2, 3, 4]
    # public output stays three-valued in every state
    for state in range(len(ts.states)):
        out = ts.outputs[state]["band"]
        assert isinstance(out, Const)
        assert out.value in (0, 1, 2)


def test_independent_latches_full_product():
    ts = ts_of("tri_latch")
    assert len(ts.states) == 8


def test_gated_max_tracker_states():
    ts = ts_of("pulse_keeper")
    assert len(ts.states) == 36


def test_witnesses_replay_to_their_successor():
    ts = ts_of("bands_v1")
    step = summarize(extract_cfg(flatten_and_validate(load_model("bands_v1"))))
    for i, stored in enumerate(ts.rows):
        binding = ts.state_binding(i)
        for t in stored.targets:
            env = ts.witness(i, t)
            succ = tuple(
                eval_expr(step.updates[v], {**binding, **env}) for v in ts.var_names
            )
            assert succ == ts.states[t]


def _bundled_and_random_models():
    for pair in FIXTURE_PAIRS:
        yield from map(load_model, pair)
    for seed in range(200):
        yield from random_model_pair(seed)


def test_every_state_has_a_transition_and_its_bitsets_partition_its_rows():
    """What the simulation relies on: each state has a target, each row's
    edge indexes a transition, and the transitions' bitsets partition the
    rows, bit i of ``bits[edges[i]]`` being row i's."""
    states = 0
    for model in _bundled_and_random_models():
        ts = unfold_to_ts(build_step(flatten_and_validate(model)))
        for stored in ts.rows:
            count = len(stored.targets)
            assert count >= 1 and len(stored.bits) == count
            assert len(stored.edges) == stored.size
            assert all(0 <= e < count for e in stored.edges)
            union = 0
            for bits in stored.bits:
                assert bits and not bits & union
                union |= bits
            assert union == (1 << stored.size) - 1
            assert all(stored.bits[e] >> i & 1 for i, e in enumerate(stored.edges))
        states += len(ts.states)
    assert states > 1000


def _assert_rows_follow_specialisation(step, ts):
    """Each state's stored rows against its specialised updates: a row's
    successor is what ``eval_expr`` of them gives on the row, the other
    inputs at their first value, Python type included, and the rows name
    exactly the inputs those updates mention (``input_uses``)."""
    first = ts.input_domain().first_values()
    rows = 0
    for s, stored in enumerate(ts.rows):
        spec = specialise([step.updates[v] for v in ts.var_names], ts.state_binding(s))
        assert stored.names == tuple(sorted(input_uses(spec)[0]))
        for i, edge in enumerate(stored.edges):
            env = first | stored.row(i)
            expected = [eval_expr(e, env) for e in spec]
            got = ts.states[stored.targets[edge]]
            assert [(type(x), x) for x in got] == [(type(x), x) for x in expected]
        rows += len(stored.edges)
    return rows


def test_stored_rows_follow_each_states_specialised_updates():
    """The updates are compiled once per system, but every row's successor
    and every state's rows are those the state's specialisation gives."""
    rows = 0
    for model in _bundled_and_random_models():
        step = build_step(flatten_and_validate(model))
        rows += _assert_rows_follow_specialisation(step, unfold_to_ts(step))
    assert rows > 1000


# u * 2**62 > 0, which overflows from u = 2 on
_BIG = Binary("gt", Binary("mul", InputRef("u"), Const(2**62)), Const(0))
# 0 below u = 3 and 1 from it on: the rows take u = 0 and u = 3
_STEP = Ite(Binary("lt", InputRef("u"), Const(3)), Const(0), Const(1))


def _edge_step(updates, vars_, hi=3):
    return SymbolicStep(
        name="Edge",
        inputs={"u": IntType(0, hi)},
        vars=vars_,
        outputs={"y": VarRef(next(iter(vars_)))},
        updates=updates,
    )


@pytest.mark.parametrize("updates,vars_,states", [
    # at c = 0 the conjunction folds to false, and its product is not
    # evaluated; evaluated, it overflows at u = 3
    (
        {"c": Ite(Binary("and", Binary("eq", VarRef("c"), Const(5)), _BIG), Const(0), _STEP)},
        {"c": (IntType(0, 5), 0)},
        [(0,), (1,)],
    ),
    # both arms fold to 0, so the condition is not evaluated
    (
        {"c": Ite(_BIG, VarRef("c"), Const(0)), "d": _STEP},
        {"c": (IntType(0, 3), 0), "d": (IntType(0, 1), 0)},
        [(0, 0), (0, 1)],
    ),
])
def test_compiled_updates_raise_only_where_specialised_ones_do(
    updates, vars_, states, monkeypatch,
):
    """Whenever the cost rule compiles the updates once, here from the
    first state on, a row they raise on is evaluated with the state's
    specialised updates."""
    step = _edge_step(updates, vars_)
    roots = [step.updates[v] for v in sorted(step.vars)]
    assert unfold._one_type(postorder(roots), step)

    def at_once(image, spec, rows):
        if image.fns is None:
            image.fns = unfold.compile_all(image.roots, image.names)
        return image.fns

    monkeypatch.setattr(unfold._Image, "_compiled", at_once)
    ts = unfold_to_ts(step)
    assert ts.states == states
    assert [stored.values for stored in ts.rows] == [((0, 3),)] * len(states)
    _assert_rows_follow_specialisation(step, ts)


@pytest.mark.parametrize("read", [
    Unary("not", Unary("not", InputRef("u"))),
    Binary("and", TRUE, InputRef("u")),
])
def test_folds_that_drop_a_bool_keep_the_specialised_value(read):
    """``not(not u)`` and ``and(true, u)`` evaluate to ``bool(u)``, but
    specialised they fold to u itself: the successors are u's values, and
    a boolean variable given them leaves its type, as the specialised
    updates have it."""
    step = _edge_step({"c": Binary("add", read, Const(0))}, {"c": (IntType(0, 3), 0)})
    ts = unfold_to_ts(step)
    assert ts.states == [(0,), (1,), (2,), (3,)]
    _assert_rows_follow_specialisation(step, ts)
    with pytest.raises(DomainError, match=re.escape(
        "Edge: b=0 leaves BoolType() from state {'b': False} on inputs {'u': 0}"
    )):
        unfold_to_ts(_edge_step({"b": read}, {"b": (BoolType(), False)}, hi=1))


def _unfolded_compiling(monkeypatch, member):
    """The unfolding of member's candidate, and the roots compile_all was
    given meanwhile."""
    compiled = []
    compile_all = unfold.compile_all

    def counted_all(roots, names):
        compiled.append(roots)
        return compile_all(roots, names)

    monkeypatch.setattr(unfold, "compile_all", counted_all)
    step = build_step(flatten_and_validate(parse_model(member.text_a)))
    return step, unfold_to_ts(step), compiled


def test_updates_compiled_once_and_outputs_once_per_state(monkeypatch):
    """Unfolding compiles its updates once, however many states it
    reaches, after the first states' specialised ones, and a check
    compiles each state's output once per set of names, for both
    directions and the constant-fix search together."""
    counts = []
    for k in (30, 400):
        step, ts, compiled = _unfolded_compiling(monkeypatch, families.counter(k, 1))
        assert len(ts.states) == k
        assert compiled[-1] == [step.updates[v] for v in ts.var_names]
        counts.append(len(compiled))
    assert counts[0] == counts[1] <= 3
    # a chain of gates specialises to a few nodes over its two inputs: each
    # state's own are compiled, as evaluating the chain on every row would
    # cost more
    step, ts, compiled = _unfolded_compiling(monkeypatch, families.gate_chains(1, 50, 1))
    assert len(compiled) == len(ts.states) == 2
    assert [step.updates[v] for v in ts.var_names] not in compiled
    monkeypatch.undo()

    asked: list[tuple] = []
    output_fn, compile_expr = unfold.Ts.output_fn, unfold.compile_expr

    def recorded(ts, s, port, names):
        asked.append((ts, s, port, names))
        try:
            return output_fn(ts, s, port, names)
        finally:
            asked.pop()

    made = []

    def counted(e, names):
        made.append(asked[-1])
        return compile_expr(e, names)

    monkeypatch.setattr(unfold.Ts, "output_fn", recorded)
    monkeypatch.setattr(unfold, "compile_expr", counted)
    member = families.counter(30, 1)
    pairs = [(parse_model(member.text_a), parse_model(member.text_b))]
    pairs.append((load_model("cruise_v4"), load_model("cruise_v3")))
    for a, b in pairs:
        made.clear()
        report = check_compatibility(a, b)
        assert report.backward.holds
        # made holds the systems, so no two of them share an id
        keys = [(id(ts), s, port, names) for ts, s, port, names in made]
        assert len(keys) == len(set(keys)) > 0


def test_stateless_system_has_single_total_state():
    ts = ts_of("cruise_v3")
    assert len(ts.states) == 1
    assert ts.label(0) == "s0"
    assert ts.transitions[0] == [(Const(True), 0)]


def test_run_matches_interpreter_on_traces():
    flat = flatten_and_validate(load_model("flipflop"))
    ts = ts_of("flipflop")
    interp = Interpreter(flat)
    rows_space = all_rows(ts.input_domain())
    for seq in itertools.product(rows_space, repeat=4):
        assert run_ts(ts, list(seq)) == interp.run(list(seq))


def test_run_rejects_out_of_domain_input():
    ts = ts_of("bands_v1")
    with pytest.raises(DomainError, match="no transition"):
        run_ts(ts, [{"u": 70}])


def _report_without_elapsed(model_a, model_b):
    report = check_compatibility(model_a, model_b).to_dict()
    for side in ("backward", "upward"):
        del report[side]["elapsed"]
    return report


def test_run_ts_and_stats_read_rows_not_guards(monkeypatch):
    """Running a trace, counting transitions and checking a pair (both
    directions and the constant-fix search) build no guard."""
    trace = [{"u": 69}, {"u": 10}, {"u": 35}, {"u": 0}]
    flat = flatten_and_validate(load_model("bands_v1"))
    built = unfold_to_ts(build_step(flat))
    outputs = run_ts(built, trace)
    transitions = sum(len(t) for t in built.transitions)
    cruise = load_model("cruise_v4"), load_model("cruise_v3")
    report = _report_without_elapsed(*cruise)
    assert report["backward"]["fixed_inputs"] and not report["upward"]["holds"]

    def refuse(*_):
        raise AssertionError("a guard was built")

    monkeypatch.setattr(unfold, "_guards", refuse)
    ts = unfold_to_ts(build_step(flat))
    assert run_ts(ts, trace) == outputs
    code, out, err = run_cli("stats", str(MODELS_DIR / "bands_v1.dfm"), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["ts_transitions"] == transitions > len(ts.states)
    assert _report_without_elapsed(*cruise) == report
    with pytest.raises(AssertionError, match="a guard was built"):
        ts.transitions[0]


def test_state_budget_enforced():
    with pytest.raises(StateBudgetExceeded, match="reachable states"):
        unfold_to_ts(pump_step(), state_budget=3)


def _huge_step(cmp_operand):
    """m := (operand < 5 ? 0 : 1) over u : int[0, 10**12]."""
    return SymbolicStep(
        name="Huge",
        inputs={"u": IntType(0, 10**12)},
        vars={"m": (IntType(0, 1), 0)},
        outputs={"y": VarRef("m")},
        updates={"m": Ite(Binary("lt", cmp_operand, Const(5)), Const(0), Const(1))},
    )


def _peak_bytes(run):
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_huge_input_refused_without_building_its_domain():
    u = InputRef("u")
    step = _huge_step(Binary("mul", u, u))

    def refused():
        with pytest.raises(DomainTooLarge, match=re.escape(
            "unfolding Huge needs 1000000000001 input rows in state m=0 "
            "(budget 10000000)"
        )):
            unfold_to_ts(step)

    _, peak = _peak_bytes(refused)
    assert peak < 10 * 1024 * 1024


def test_huge_comparison_only_input_unfolds_by_intervals():
    ts, peak = _peak_bytes(lambda: unfold_to_ts(_huge_step(InputRef("u"))))
    assert peak < 10 * 1024 * 1024
    assert ts.states == [(0,), (1,)]
    for stored in ts.rows:
        assert stored.names == ("u",)
        assert stored.values == ((0, 5),)
        assert stored.edges == [0, 1]
    assert ts.witness(0, 0) == {"u": 0}
    assert ts.witness(0, 1) == {"u": 5}
    # the guards stay exact on every declared value
    assert [to_str(g) for g, _ in ts.transitions[0]] == [
        "(0 <= u) && (u <= 4)", "(5 <= u) && (u <= 1000000000000)",
    ]
    assert run_ts(ts, [{"u": 4}, {"u": 10**12}, {"u": 5}]) == [
        {"y": 0}, {"y": 0}, {"y": 1},
    ]
    with pytest.raises(DomainError, match="no transition"):
        run_ts(ts, [{"u": 10**12 + 1}])


@pytest.mark.parametrize("e,names", [
    # per name, the cut points of its comparisons with a constant, either
    # side, which give the values where their truth may change ...
    (Binary("lt", InputRef("u"), Const(5)), ({"u": {5}}, set())),
    (Binary("le", InputRef("u"), Const(5)), ({"u": {6}}, set())),
    (Binary("gt", Const(5), InputRef("u")), ({"u": {5}}, set())),
    (Binary("ge", Const(5), InputRef("u")), ({"u": {6}}, set())),
    (Binary("eq", InputRef("u"), Const(5)), ({"u": {5, 6}}, set())),
    (Binary("ne", Const(5), InputRef("u")), ({"u": {5, 6}}, set())),
    (Ite(Binary("gt", InputRef("u"), Const(2)), InputRef("v"), Const(0)),
     ({"u": {3}, "v": set()}, {"v"})),
    # ... and the names any other use reads the value of
    (Binary("lt", InputRef("u"), InputRef("v")), ({"u": set(), "v": set()}, {"u", "v"})),
    (Binary("lt", Binary("add", InputRef("u"), Const(1)), Const(5)), ({"u": set()}, {"u"})),
    (Binary("and", Binary("lt", InputRef("u"), Const(5)),
            Binary("eq", Binary("max", InputRef("u"), Const(0)), Const(3))),
     ({"u": {5}}, {"u"})),
    # a variable is not an input
    (Binary("lt", VarRef("m"), Const(5)), ({}, set())),
])
def test_input_uses(e, names):
    assert input_uses([e]) == names


def test_outputs_take_no_part_in_stored_rows():
    """u only meets a constant in the update; the output, specialised to
    each state, shows it in state m=1 only, and output comparisons build
    their own rows, so both states' rows split u at 5."""
    u = InputRef("u")
    step = SymbolicStep(
        name="Shown",
        inputs={"u": IntType(0, 9)},
        vars={"m": (BoolType(), False)},
        outputs={"y": Ite(VarRef("m"), u, Const(0))},
        updates={"m": Binary("lt", u, Const(5))},
    )
    ts = unfold_to_ts(step)
    assert ts.states == [(False,), (True,)]
    assert [stored.values for stored in ts.rows] == [((0, 5),), ((0, 5),)]


def _pump_like_step(hi, step_expr):
    """m := (u < 2 ? step_expr : m) over u : int[0, hi]: u is compared
    with 2 and, below it, read by value."""
    u, m = InputRef("u"), VarRef("m")
    return SymbolicStep(
        name="Split",
        inputs={"u": IntType(0, hi)},
        vars={"m": (IntType(0, 100), 3)},
        outputs={"y": m},
        updates={"m": Ite(Binary("lt", u, Const(2)), step_expr, m)},
    )


def test_input_compared_and_read_is_split():
    """Below 2 each value of u is its own row; from 2 up, where the update
    does not read it, one row stands for ten million values."""
    step = _pump_like_step(10**7, Binary("add", InputRef("u"), Const(10)))
    ts, peak = _peak_bytes(lambda: unfold_to_ts(step))
    assert peak < 10 * 1024 * 1024
    assert ts.rows[0].values == ((0, 1, 2),)
    assert [ts.witness(0, t) for t in ts.rows[0].targets] == [
        {"u": 0}, {"u": 1}, {"u": 2},
    ]
    assert [to_str(g) for g, _ in ts.transitions[0]] == [
        "u == 0", "u == 1", "(2 <= u) && (u <= 10000000)",
    ]


def test_split_keeps_the_domain_error_row():
    """The update leaves m's domain only at u = 1: the split enumerates
    that row, as full enumeration does."""
    step = _pump_like_step(10**7, Binary("mul", InputRef("u"), Const(200)))
    with pytest.raises(DomainError, match=re.escape("m=200 leaves") + ".*'u': 1"):
        unfold_to_ts(step)


def test_split_reads_eager_operands_of_decided_operators(monkeypatch):
    """From 2 up the conjunction is false whatever u * 2**61 is, but
    compiled code still evaluates that product, which overflows from
    u = 4: the interval keeps a row per value, and unfolding raises where
    full enumeration does."""
    monkeypatch.setattr(rows, "SPLIT_MIN_VALUES", 0)
    u = InputRef("u")
    big = Binary("eq", Binary("mul", u, Const(2**61)), Const(0))
    step = SymbolicStep(
        name="Eager",
        inputs={"u": IntType(0, 9)},
        vars={"m": (BoolType(), False)},
        outputs={"y": VarRef("m")},
        updates={"m": Binary("and", Binary("lt", u, Const(2)), big)},
    )

    def error(interval_rows):
        rows.INTERVAL_ROWS = interval_rows
        try:
            unfold_to_ts(step)
        except ArithmeticOverflow as exc:
            return str(exc)
        finally:
            rows.INTERVAL_ROWS = True

    assert error(True) == error(False) == "value 9223372036854775808 exceeds 64-bit signed range"
    # in an arm an ite does not take, the product is not evaluated
    lazy = Ite(Binary("lt", u, Const(2)), big, Const(False))
    assert unfold_to_ts(dataclasses.replace(step, updates={"m": lazy})).rows[0].values == (
        (0, 1, 2),
    )


def test_narrow_input_read_by_value_is_not_split():
    """Splitting ten values costs more than enumerating them."""
    step = _pump_like_step(9, Binary("add", InputRef("u"), Const(10)))
    assert unfold_to_ts(step).rows[0].values == (tuple(range(10)),)


def test_two_split_inputs_stay_a_product():
    """u is read below 2 only while v is below 3, and v below 3 only while
    u is below 2: each name takes a row per value on those intervals, in
    every box, and one row elsewhere."""
    u, v = InputRef("u"), InputRef("v")
    both = Binary("and", Binary("lt", u, Const(2)), Binary("lt", v, Const(3)))
    step = SymbolicStep(
        name="Two",
        inputs={"u": IntType(0, 1000), "v": IntType(0, 1000)},
        vars={"m": (IntType(0, 100), 0)},
        outputs={"y": VarRef("m")},
        updates={"m": Ite(both, Binary("add", u, v), Const(50))},
    )
    ts = unfold_to_ts(step)
    assert ts.rows[0].names == ("u", "v")
    assert ts.rows[0].values == ((0, 1, 2), (0, 1, 2, 3))
    full = unfold_to_ts(dataclasses.replace(
        step, inputs={"u": IntType(0, 4), "v": IntType(0, 5)}
    ))
    assert sorted(ts.states) == sorted(full.states)


def test_unfold_detects_domain_escape():
    step = SymbolicStep(
        name="Count",
        inputs={"p": BoolType()},
        vars={"n": (IntType(0, 3), 0)},
        outputs={"y": VarRef("n")},
        updates={"n": Binary("add", VarRef("n"), Const(1))},
    )
    with pytest.raises(DomainError, match=re.escape(
        "Count: n=4 leaves IntType(lo=0, hi=3) from state {'n': 3} on inputs {}"
    )):
        unfold_to_ts(step)


def test_outputs_specialized_per_state():
    ts = ts_of("flipflop")
    env = {"S": False, "R": False}
    assert ts_outputs(ts, 0, env) == {"Q": False}
    assert ts_outputs(ts, 1, env) == {"Q": True}
    assert ts_step(ts, 0, {"S": True, "R": False}) == 1
    assert ts_step(ts, 1, {"S": False, "R": True}) == 0


def test_dot_rendering():
    ts = ts_of("flipflop")
    dot = ts_to_dot(ts)
    assert dot.count("[label=\"Delay=") == 2
    assert "init -> s0" in dot
    assert "s0 -> s1" in dot
