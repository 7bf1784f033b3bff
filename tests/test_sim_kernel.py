"""The extensional simulation kernel against the guards it stands for.

An unfolded transition system keeps the rows each state enumerated, the
one description of its transitions; ``Ts.transitions`` derives a guard per
transition from them.  The stored rows must agree with the guards on every
declared input, and every row bitset the kernel answers during a
simulation must be the rows of the query space whose guard holds there,
each guard evaluated row by row.
"""

import bisect
import contextlib
import itertools
import math
import re

import pytest

from dfcompat import (
    ArithmeticOverflow, DfcError, Domain, DomainError, check_compatibility, parse_model, simulates,
    unfold_to_ts,
)
from dfcompat.exprs import TRUE, Binary, Const, InputRef, Ite, VarRef, eval_expr
from dfcompat.model import BoolType, IntType, domain_values
from dfcompat.simcheck import (
    CheckConfig,
    _Side,
    prepare,
)
from dfcompat.solver import sat_witness
from dfcompat.symbolic import SymbolicStep, restrict_to_outputs
from dfcompat.unfold import Ts, run_ts
from helpers import (
    FIXTURE_PAIRS, LATE_WRAP, MOD12, latch_text, load_model, random_model_pair, state_rows,
)


def direction_cases(model_a, model_b):
    """(candidate, reference, domain) per mapped output port for the
    backward direction, as check_compatibility searches it, and for its
    mirror, B as the candidate, over the same domain."""
    prep = prepare(model_a, model_b, None, CheckConfig())
    if not prep.iface.compatible:
        return []
    out = []
    for port in prep.ports:
        a = unfold_to_ts(restrict_to_outputs(prep.step_a, [port]))
        b = unfold_to_ts(restrict_to_outputs(prep.step_b, [port]))
        out += [(a, b, prep.dom_backward), (b, a, prep.dom_backward)]
    return out


def guard_bits(ts, s, space):
    """Per transition of state s, the rows of space its guard holds on,
    the guard evaluated row by row."""
    out = [0] * len(ts.transitions[s])
    for i, combo in enumerate(itertools.product(*space.values)):
        env = dict(zip(space.names, combo))
        for j, (g, _) in enumerate(ts.transitions[s]):
            if eval_expr(g, env):
                out[j] |= 1 << i
    return out


def record_bits(monkeypatch):
    """Every (system, state, space) ``_Side.bits`` answers from now on,
    with its answer."""
    answered = {}
    bits = _Side.bits

    def recorded(side, s, space):
        got = bits(side, s, space)
        answered[id(side.ts), s, space] = (side.ts, s, space, got)
        return got

    monkeypatch.setattr(_Side, "bits", recorded)
    return answered


def assert_bits_match_guards(answered):
    """Each recorded answer is the one the guards give; forgets them."""
    for ts, s, space, got in answered.values():
        assert got == guard_bits(ts, s, space), (ts.name, ts.label(s), space.names)
    answered.clear()


def stored_row(stored, combo):
    """The stored row standing for declared values: per name, the last row
    value not above an integer, or the value itself."""
    i = 0
    for vals, v in zip(stored.values, combo):
        k = bisect.bisect_right(vals, v) - 1 if isinstance(v, int) else vals.index(v)
        i = i * len(vals) + k
    return i


def assert_rows_match_guards(ts):
    """On every declared input combination exactly one guard holds: that
    of the transition the stored row standing for it takes."""
    assert len(ts.rows) == len(ts.states)
    for s, stored in enumerate(ts.rows):
        assert len(stored.edges) == math.prod(map(len, stored.values))
        declared = [domain_values(ts.inputs[n]) for n in stored.names]
        for combo in itertools.product(*declared):
            env = dict(zip(stored.names, combo))
            fired = [j for j, (g, _) in enumerate(ts.transitions[s]) if eval_expr(g, env)]
            assert fired == [stored.edges[stored_row(stored, combo)]]


def _check_pair(model_a, model_b, answered):
    """Simulates each direction case, refused or not, and checks the
    bitsets it answered against the guards; returns how many."""
    for cand, ref, dom in direction_cases(model_a, model_b):
        assert_rows_match_guards(cand)
        assert_rows_match_guards(ref)
        with contextlib.suppress(DfcError):
            simulates(cand, ref, dom)
    count = len(answered)
    assert_bits_match_guards(answered)
    return count


@pytest.mark.parametrize("cand,ref", FIXTURE_PAIRS)
def test_stored_rows_equal_guards_on_bundled_pairs(cand, ref, monkeypatch):
    _check_pair(load_model(cand), load_model(ref), record_bits(monkeypatch))


def test_stored_rows_equal_guards_on_random_pairs(monkeypatch):
    answered = record_bits(monkeypatch)
    assert sum(_check_pair(*random_model_pair(seed), answered) for seed in range(200))


def test_stored_rows_equal_guards_on_a_thirteen_step_refutation(monkeypatch):
    assert _check_pair(parse_model(LATE_WRAP), parse_model(MOD12), record_bits(monkeypatch))


# ---------------------------------------------------------------------------
# hand-built cases


def _latch_step(name, lo, hi, threshold):
    """m := u < threshold, output m, over u : int[lo, hi]."""
    u = InputRef("u")
    return SymbolicStep(
        name=name,
        inputs={"u": IntType(lo, hi)},
        vars={"m": (BoolType(), False)},
        outputs={"y": VarRef("m")},
        updates={"m": Binary("lt", u, Const(threshold))},
    )


def test_domain_outside_declared_range_refused():
    """A domain must lie inside both systems' declared types: a candidate
    whose state takes one transition, one whose rows split, and a reference
    narrower than the domain are each refused before the search."""
    dom = Domain.of(u=IntType(0, 5))
    wide = unfold_to_ts(_latch_step("Wide", 0, 5, 10))
    one = unfold_to_ts(_latch_step("Narrow", 0, 3, 10))
    split = unfold_to_ts(_latch_step("Narrow", 0, 3, 2))
    assert one.transitions[0] == [(TRUE, 1)] and len(split.transitions[0]) == 2
    for cand, ref in ((one, wide), (split, wide), (wide, split)):
        with pytest.raises(DomainError, match=re.escape(
            f"simulating {ref.name} by {cand.name}: the domain's u : int[0,5] is not "
            "inside Narrow's int[0,3]"
        )):
            simulates(cand, ref, dom)
    # inside both declared ranges the search runs
    assert simulates(one, wide, Domain.of(u=IntType(0, 3))).holds


def _widened_latch(threshold, monkeypatch):
    """The state of Narrow, u : int[0, 3], and the check of Wide, the same
    latch over u : int[0, 5], against it, every bitset it answered checked
    against the guards."""
    wide = parse_model(latch_text("Wide", 5, threshold))
    narrow = parse_model(latch_text("Narrow", 3, threshold))
    answered = record_bits(monkeypatch)
    report = check_compatibility(wide, narrow)
    assert answered
    assert_bits_match_guards(answered)
    state = unfold_to_ts(prepare(wide, narrow).step_b).transitions[0]
    return state, report


def test_true_guard_holds_outside_declared_range(monkeypatch):
    """Every row of Narrow's [0, 3] reaches m = true, so its state's one
    guard is TRUE and holds on u = 4 and 5 too, which Narrow never
    declared.  The guard does not answer there: the upward direction is
    refuted on u = 4, as it is where the rows split."""
    state, report = _widened_latch(10, monkeypatch)
    assert state == [(TRUE, 1)] and eval_expr(TRUE, {"u": 4})
    assert report.backward.holds and not report.upward.holds
    assert report.upward.counterexample.kind == "uncovered-input"
    assert report.upward.counterexample.rows_a == [{"u": 4}]


def test_listed_guard_fails_outside_declared_range(monkeypatch):
    """Narrow's rows split at u = 2 into two listed guards, neither of
    which holds on u = 4: the upward direction is refuted there."""
    state, report = _widened_latch(2, monkeypatch)
    assert len(state) == 2 and not any(eval_expr(g, {"u": 4}) for g, _ in state)
    assert report.backward.holds and not report.upward.holds
    assert report.upward.counterexample.kind == "uncovered-input"
    assert report.upward.counterexample.rows_a == [{"u": 4}]


def test_run_ts_refuses_out_of_range_inputs_in_every_state():
    """A row outside the declared range takes no transition, also in a
    state whose rows all take one."""
    one = unfold_to_ts(_latch_step("Narrow", 0, 3, 10))
    assert len(one.rows[one.init].targets) == 1
    assert run_ts(one, [{"u": 3}]) == [{"y": False}]
    with pytest.raises(DomainError, match="no transition for inputs"):
        run_ts(one, [{"u": 5}])


def _single_state(name, out):
    """No state, y = out, over u : int[0, 5]."""
    return unfold_to_ts(SymbolicStep(
        name=name, inputs={"u": IntType(0, 5)}, vars={}, outputs={"y": out}, updates={},
    ))


BIG = Const(1 << 62)


def test_output_overflow_after_first_difference_is_not_raised():
    # u * 2^62 leaves 64 bits at u = 2; the outputs already differ at u = 1
    u = InputRef("u")
    cand = _single_state("Cand", Binary("mul", u, BIG))
    ref = _single_state("Ref", Const(0))
    dom = Domain.of(u=IntType(0, 5))
    expected = sat_witness(Binary("ne", Binary("mul", u, BIG), Const(0)), dom)
    assert expected == {"u": 1}
    res = simulates(cand, ref, dom)
    assert res.failure.kind == "output-mismatch"
    assert res.failure.rows == [expected]


def test_output_overflow_before_first_difference_is_raised():
    u = InputRef("u")
    cand = _single_state("Cand", Binary("mul", u, BIG))
    ref = _single_state("Ref", Binary("mul", BIG, u))
    dom = Domain.of(u=IntType(0, 5))
    with pytest.raises(ArithmeticOverflow):
        sat_witness(Binary("ne", Binary("mul", u, BIG), Binary("mul", BIG, u)), dom)
    with pytest.raises(ArithmeticOverflow):
        simulates(cand, ref, dom)


def test_hand_built_guards_over_different_names(monkeypatch):
    """Rows over p alone and rows over p and q meet in the space of both.

    The reference's rows are written by hand: its first transition, the
    one row p & q == 2 takes, leads to m=1, while an unfolding numbers
    transitions by their least row, (p, q) = (false, 0), which stays.
    Successors are discovered by their joint move's least row, not by
    transition number, so the candidate's move into m=1 with the reference
    staying at m=0, first taken at (p, q) = (true, 0), comes first."""
    p = InputRef("p")
    dom = Domain.of(p=BoolType(), q=IntType(0, 2))
    ref = Ts(
        name="Ref", var_names=("m",), states=[(0,), (1,)], init=0,
        outputs=[{"y": Const(0)}, {"y": Const(0)}],
        inputs={"p": BoolType(), "q": IntType(0, 2)},
        rows=[
            state_rows(("p", "q"), ((False, True), (0, 1, 2)), [1, 1, 1, 1, 1, 0], [1, 0]),
            state_rows((), (), [0], [1]),
        ],
    )
    cand = unfold_to_ts(SymbolicStep(
        name="Cand", inputs={"p": BoolType()}, vars={"m": (IntType(0, 1), 0)},
        outputs={"y": VarRef("m")},
        updates={"m": Ite(p, Const(1), VarRef("m"))},
    ))
    assert cand.states == [(0,), (1,)] and len(cand.rows[0].targets) == 2
    answered = record_bits(monkeypatch)
    res = simulates(cand, ref, dom)
    assert not res.holds
    # the least row into a bad pair leads the candidate into m=1 alone
    assert res.failure.rows == [{"p": True, "q": 0}, {"p": False, "q": 0}]
    assert res.failure.cand_state == "m=1" and res.failure.ref_state == "m=0"
    assert_bits_match_guards(answered)


def test_transition_numbering_leaves_the_search_unchanged():
    """Numbering a hand-built state's transitions otherwise, its targets and
    the edges naming them, changes nothing: successors are discovered by
    their joint move's least row.  The candidate's m=1 differs from every
    reference state, and p = true leads the reference from m=0 to m=2,
    m=1 or m=0 as q is 0, 1 or 2, so the first bad pair is (m=1, m=2),
    whichever reference transition is numbered first."""
    names, values = ("p", "q"), ((False, True), (0, 1, 2))

    def system(name, inputs, init_rows, outputs):
        # state 0 takes init_rows; every other state returns to it
        return Ts(
            name=name, var_names=("m",), states=[(k,) for k in range(len(outputs))], init=0,
            outputs=[{"y": Const(o)} for o in outputs], inputs=inputs,
            rows=[init_rows, *(state_rows((), (), [0], [0]) for _ in outputs[1:])],
        )

    def renumbered(names, values, edges, targets, perm):
        # transition j becomes transition perm[j]
        moved = [0] * len(targets)
        for j, t in enumerate(targets):
            moved[perm[j]] = t
        return state_rows(names, values, [perm[e] for e in edges], moved)

    dom = Domain.of(p=BoolType(), q=IntType(0, 2))
    results = []
    for perm_c in itertools.permutations(range(2)):
        cand = system("Cand", {"p": BoolType()},
                      renumbered(("p",), ((False, True),), [0, 1], [0, 1], perm_c), [0, 1])
        for perm_r in itertools.permutations(range(3)):
            ref = system("Ref", dict(dom.dtypes),
                         renumbered(names, values, [0, 1, 0, 2, 1, 0], [0, 1, 2], perm_r),
                         [0, 0, 0])
            res = simulates(cand, ref, dom)
            results.append((res, res.visited))
    res, visited = results[0]
    assert res.failure.rows == [{"p": True, "q": 0}, {"p": False, "q": 0}]
    assert (res.failure.cand_state, res.failure.ref_state) == ("m=1", "m=2")
    assert visited == (("m=0", "m=0"), ("m=0", "m=1"), ("m=1", "m=2"), ("m=1", "m=1"),
                       ("m=1", "m=0"))
    assert all(r == results[0] for r in results)


def test_counterexample_rows_are_shared():
    report = check_compatibility(parse_model(LATE_WRAP), parse_model(MOD12))
    cx = report.backward.counterexample
    assert len(cx.rows_a) == 13
    assert cx.rows_a[0] == {"inc": True}
    assert all(r is cx.rows_a[0] for r in cx.rows_a[:12])
    assert all(a is b for a, b in zip(cx.rows_a, cx.rows_b))
    # the upward trace repeats the same rows
    up = report.upward.counterexample
    assert all(u is r for u, r in zip(up.rows_a, cx.rows_a))


def test_stored_rows_placed_in_a_wider_space(monkeypatch):
    """A candidate state enumerating p alone meets a reference state
    enumerating p and q: its rows are placed by their value of p."""
    p, q = InputRef("p"), InputRef("q")

    def step(name, inputs, update):
        return SymbolicStep(
            name=name, inputs=inputs, vars={"m": (BoolType(), False)},
            outputs={"y": VarRef("m")}, updates={"m": update},
        )

    cand = unfold_to_ts(step("Cand", {"p": BoolType()}, p))
    ref = unfold_to_ts(step(
        "Ref", {"p": BoolType(), "q": IntType(0, 2)},
        Binary("and", p, Binary("eq", q, Const(2))),
    ))
    assert cand.rows[0].names == ("p",) and ref.rows[0].names == ("p", "q")
    dom = Domain.of(p=BoolType(), q=IntType(0, 2))
    answered = record_bits(monkeypatch)
    res = simulates(cand, ref, dom)
    assert_bits_match_guards(answered)
    # p with q != 2 keeps the reference low but raises the candidate
    assert res.failure.kind == "output-mismatch"
    assert res.failure.rows == [{"p": True, "q": 0}, {"p": False, "q": 0}]
    assert (res.failure.cand_state, res.failure.ref_state) == ("m=1", "m=0")


def test_place_reads_held_names_at_their_value():
    """Placing a grid without some of the stored names, those held at one
    value, picks per row the stored row holding its values and the held
    ones."""
    from dfcompat.rows import Grid

    types = {"i": IntType(0, 9), "j": IntType(-3, 40)}
    grid = Grid(("i", "j"), ((0, 5), (-3, 10)))
    other = Grid(("j",), ((-3, 12),))
    assert grid.place(other, types, {"i": 7}) == [2, 3]
    assert grid.place(other, types, {"i": 4}) == [0, 1]
