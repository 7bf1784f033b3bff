"""The extensional simulation kernel against the guards it stands for.

An unfolded transition system keeps the rows each state enumerated; a copy
without them has only its expression guards, which the kernel evaluates
once per row.  Both must give the same result, and the stored rows must
agree with the guards row by row.
"""

import bisect
import dataclasses
import itertools
import math

import pytest

from dfcompat import ArithmeticOverflow, Domain, check_compatibility, parse_model, simulates, unfold_to_ts
from dfcompat.exprs import TRUE, Binary, Const, InputRef, Ite, VarRef, eval_expr
from dfcompat.model import BoolType, IntType, domain_values
from dfcompat.simcheck import (
    CheckConfig,
    _mapped_input_domains,
    _mapped_output_ports,
    prepare,
)
from dfcompat.solver import sat_witness
from dfcompat.symbolic import SymbolicStep, restrict_to_outputs
from dfcompat.unfold import Ts
from helpers import FIXTURE_PAIRS, LATE_WRAP, MOD12, load_model, random_model_pair


def direction_cases(model_a, model_b):
    """(candidate, reference, domain) per direction and mapped output port,
    as check_compatibility builds them."""
    prep = prepare(model_a, model_b, None, CheckConfig())
    if not prep.iface.compatible:
        return []
    b_side, a_side = _mapped_input_domains(prep)
    extras = {n: prep.step_a.inputs[n] for n in prep.mapping.extra_inputs_a}
    out = []
    for cand, ref, dom in (
        (prep.step_a, prep.step_b, b_side | extras),
        (prep.step_b, prep.step_a, a_side | extras),
    ):
        for port in _mapped_output_ports(prep):
            out.append((
                unfold_to_ts(restrict_to_outputs(cand, [port])),
                unfold_to_ts(restrict_to_outputs(ref, [port])),
                Domain(dom),
            ))
    return out


def outcome(cand, ref, dom):
    try:
        return dataclasses.replace(simulates(cand, ref, dom), queries=0)
    except Exception as exc:  # the same error must come out of both
        return type(exc).__name__, str(exc)


def without_rows(ts):
    return dataclasses.replace(ts, rows=[])


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


def _check_pair(model_a, model_b):
    for cand, ref, dom in direction_cases(model_a, model_b):
        assert_rows_match_guards(cand)
        assert_rows_match_guards(ref)
        assert outcome(cand, ref, dom) == outcome(without_rows(cand), without_rows(ref), dom)


@pytest.mark.parametrize("cand,ref", FIXTURE_PAIRS)
def test_stored_rows_equal_guards_on_bundled_pairs(cand, ref):
    _check_pair(load_model(cand), load_model(ref))


def test_stored_rows_equal_guards_on_random_pairs():
    for seed in range(200):
        _check_pair(*random_model_pair(seed))


def test_stored_rows_equal_guards_through_the_fixpoint():
    _check_pair(parse_model(LATE_WRAP), parse_model(MOD12))


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


def test_true_guard_holds_outside_declared_range():
    dom = Domain.of(u=IntType(0, 5))
    wide = unfold_to_ts(_latch_step("Wide", 0, 5, 10))
    # every row of [0, 3] reaches m = true, so the guard is TRUE and also
    # answers u = 4 and 5, which the narrow system never declared
    narrow = unfold_to_ts(_latch_step("Narrow", 0, 3, 10))
    assert narrow.transitions[0] == [(TRUE, 1)]
    for cand in (narrow, without_rows(narrow)):
        assert simulates(cand, wide, dom).holds


def test_listed_guard_fails_outside_declared_range():
    dom = Domain.of(u=IntType(0, 5))
    wide = unfold_to_ts(_latch_step("Wide", 0, 5, 2))
    narrow = unfold_to_ts(_latch_step("Narrow", 0, 3, 2))
    assert len(narrow.transitions[0]) == 2
    for cand in (narrow, without_rows(narrow)):
        res = simulates(cand, wide, dom)
        assert not res.holds
        assert res.failure.kind == "uncovered-input"
        assert res.failure.rows == [{"u": 4}]


def _single_state(name, out):
    return Ts(
        name=name,
        var_names=(),
        states=[()],
        init=0,
        outputs=[{"y": out}],
        transitions=[[(TRUE, 0)]],
        inputs={"u": IntType(0, 5)},
    )


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


def test_hand_built_guards_over_different_names():
    """A guard over p alone and one over p and q meet in the space of both."""
    p, q = InputRef("p"), InputRef("q")
    dom = Domain.of(p=BoolType(), q=IntType(0, 2))
    both = Binary("and", p, Binary("eq", q, Const(2)))
    ref = Ts(
        name="Ref", var_names=("m",), states=[(0,), (1,)], init=0,
        outputs=[{"y": Const(0)}, {"y": Const(0)}],
        transitions=[[(both, 1), (Ite(both, Const(False), Const(True)), 0)], [(TRUE, 1)]],
        inputs={"p": BoolType(), "q": IntType(0, 2)},
    )
    cand = Ts(
        name="Cand", var_names=("m",), states=[(0,), (1,)], init=0,
        outputs=[{"y": Const(0)}, {"y": Const(1)}],
        transitions=[[(p, 1), (Binary("eq", p, Const(False)), 0)], [(TRUE, 1)]],
        inputs={"p": BoolType()},
    )
    res = simulates(cand, ref, dom)
    assert not res.holds
    # the least reference row of p & q == 2 leads the candidate into m=1
    assert res.failure.rows == [{"p": True, "q": 2}, {"p": False, "q": 0}]
    assert res.failure.cand_state == "m=1" and res.failure.ref_state == "m=1"


def test_state_without_transitions_leaves_the_least_reference_row_uncovered():
    """A candidate state with no transition answers no reference move: the
    first reference transition's least row, u = 2, is uncovered.  Backwards,
    a reference state without moves asks for none."""
    u = InputRef("u")
    dom = Domain.of(u=IntType(0, 5))
    stuck = Ts(
        name="Stuck", var_names=(), states=[()], init=0,
        outputs=[{"y": Const(0)}], transitions=[[]], inputs={"u": IntType(0, 5)},
    )
    ref = Ts(
        name="Ref", var_names=(), states=[()], init=0, outputs=[{"y": Const(0)}],
        transitions=[[(Binary("ge", u, Const(2)), 0), (Binary("lt", u, Const(2)), 0)]],
        inputs={"u": IntType(0, 5)},
    )
    res = simulates(stuck, ref, dom)
    assert not res.holds
    assert res.failure.kind == "uncovered-input"
    assert res.failure.rows == [{"u": 2}]
    assert simulates(ref, stuck, dom).holds


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


def test_stored_rows_placed_in_a_wider_space():
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
    res = simulates(cand, ref, dom)
    assert dataclasses.replace(res, queries=0) == outcome(without_rows(cand), without_rows(ref), dom)
    # p with q != 2 keeps the reference low but raises the candidate
    assert res.failure.kind == "output-mismatch"
    assert res.failure.rows == [{"p": True, "q": 0}, {"p": False, "q": 0}]
    assert (res.failure.cand_state, res.failure.ref_state) == ("m=1", "m=0")
