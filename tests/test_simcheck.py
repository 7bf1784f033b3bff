"""Simulation preorder, constant fixing, and the two-way compatibility check."""

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from dfcompat import (
    CheckConfig,
    CompatReport,
    Domain,
    Interpreter,
    IterationCapExceeded,
    build_step,
    check_compatibility,
    flatten_and_validate,
    parse_model,
    simulates,
    unfold_to_ts,
)
from dfcompat import simcheck
from dfcompat.errors import ArithmeticOverflow, DomainError, DomainTooLarge, UnmappedPort
from dfcompat.exprs import Binary, Const, InputRef, Ite, VarRef, eval_expr
from dfcompat.model import BoolType, IntType, domain_values
from dfcompat.rows import SPLIT_MIN_VALUES
from dfcompat.simcheck import fix_free_ports, prepare
from dfcompat.symbolic import SymbolicStep, bind_inputs, restrict_to_outputs
from dfcompat.unfold import Ts
from helpers import (
    DRIFTER,
    EXPECTED_VERDICTS,
    FIXTURE_PAIRS,
    MIRROR,
    MODELS_DIR,
    NESTED_ENABLED,
    NESTED_REWIRED,
    all_rows,
    latch_text,
    load_model,
    multi_output_pair,
    narrow_widened_pair,
    random_model_pair,
    state_rows,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from dfbench import families  # noqa: E402


def report_for(cand, ref, **kw):
    return check_compatibility(load_model(cand), load_model(ref), **kw)


def ts_for(name):
    return unfold_to_ts(build_step(flatten_and_validate(load_model(name))))


def input_dom(name):
    flat = flatten_and_validate(load_model(name))
    return Domain(flat.input_domains())


# ---------------------------------------------------------------------------
# fixture verdicts


@pytest.mark.parametrize("cand,ref", FIXTURE_PAIRS)
def test_fixture_verdicts(cand, ref):
    assert report_for(cand, ref).verdict == EXPECTED_VERDICTS[(cand, ref)]


def test_added_gate_port_fixed_to_false():
    report = report_for("cruise_v4", "cruise_v3")
    assert report.backward.holds
    assert report.backward.fixed_inputs == {"F": False}
    assert report.conditional
    assert not report.upward.holds
    assert report.verdict == "backward-only"


def test_sign_port_fixed_to_false():
    report = report_for("limiter_sign", "limiter_plain")
    assert report.backward.fixed_inputs == {"Sign_b": False}
    assert report.extra_inputs_a == ["Sign_b"]
    cx = report.upward.counterexample
    assert cx is not None and cx.kind == "output-mismatch" and cx.port == "cmd"
    assert cx.expected != cx.actual


def test_incompatible_latch_pair_has_single_step_divergence():
    report = report_for("flipflop_reset", "flipflop")
    assert report.verdict == "incompatible"
    cx = report.backward.counterexample
    assert cx.kind == "output-mismatch"
    assert cx.port == "Q"
    assert len(cx.rows_a) == 1
    assert cx.rows_a[0] == {"S": True, "R": True}


def test_widened_range_only_breaks_upward():
    report = report_for("bands_v2", "bands_v1")
    assert report.verdict == "backward-only"
    assert report.backward.fixed_inputs is None
    cx = report.upward.counterexample
    assert cx.kind == "uncovered-input"
    assert cx.port is None
    assert cx.rows_a == [{"u": 70}]
    assert cx.rows_b == [{"u": 70}]


def test_nested_enabled_subsystems_checked_and_refuted():
    model = parse_model(NESTED_ENABLED)
    assert check_compatibility(model, model).verdict == "full"

    mutant = parse_model(NESTED_REWIRED)
    report = check_compatibility(mutant, model)
    assert report.verdict == "incompatible"
    for res in (report.backward, report.upward):
        cx = res.counterexample
        assert cx.kind == "output-mismatch"
        outs_a = [o[cx.port] for o in Interpreter(flatten_and_validate(mutant)).run(cx.rows_a)]
        outs_b = [o[cx.port] for o in Interpreter(flatten_and_validate(model)).run(cx.rows_b)]
        assert outs_a[:-1] == outs_b[:-1]
        assert outs_a[-1] != outs_b[-1]
        cand, ref = (outs_a, outs_b) if res is report.backward else (outs_b, outs_a)
        assert (cx.actual[cx.port], cx.expected[cx.port]) == (cand[-1], ref[-1])


def test_mapped_ports_and_stats_present():
    report = report_for("flipflop_logic", "flipflop")
    assert report.mapping == [("S", "S"), ("R", "R"), ("Q", "Q")]
    assert report.stats["mapped_output_ports"] == ["Q"]
    assert report.stats["a"]["state_vars"] == 1
    assert report.stats["b"]["blocks"] == 8


# ---------------------------------------------------------------------------
# simulation preorder on transition systems


@pytest.mark.parametrize("name", ["flipflop", "bands_v1", "cruise_v3", "tri_latch"])
def test_simulation_is_reflexive(name):
    ts = ts_for(name)
    res = simulates(ts, ts, input_dom(name))
    assert res.holds


def test_self_simulation_visits_diagonal_only():
    ts = ts_for("flipflop")
    res = simulates(ts, ts, input_dom("flipflop"))
    assert res.visited == (("Delay=0", "Delay=0"), ("Delay=1", "Delay=1"))
    assert res.pairs == 2


def test_simulation_transitive_over_shared_domain():
    dom = input_dom("bands_v0")
    v0, v1, v2 = ts_for("bands_v0"), ts_for("bands_v1"), ts_for("bands_v2")
    assert simulates(v2, v1, dom).holds
    assert simulates(v1, v0, dom).holds
    assert simulates(v2, v0, dom).holds


def _plain_ts(outputs, updates=None, inputs=None):
    """Output y = outputs, with m : bool when updates gives m's update."""
    return unfold_to_ts(SymbolicStep(
        name="hand",
        inputs=inputs or {"u": IntType(0, 5)},
        vars={"m": (BoolType(), False)} if updates else {},
        outputs={"y": outputs},
        updates={"m": updates} if updates else {},
    ))


def test_different_guard_partitions_still_equivalent():
    u = InputRef("u")
    # m=0 goes to m=1 on u >= 3 and stays on u < 3; m=1 returns to m=0
    ref = _plain_ts(u, updates=Ite(VarRef("m"), Const(False), Binary("ge", u, Const(3))))
    assert [[t for _, t in ts] for ts in ref.transitions] == [[0, 1], [0]]
    cand = _plain_ts(u)
    dom = Domain.of(u=IntType(0, 5))
    assert simulates(cand, ref, dom).holds
    assert simulates(ref, cand, dom).holds


def test_outputs_compared_only_inside_domain():
    u = InputRef("u")
    clamped = Binary("min", u, Const(5))
    cand = _plain_ts(u, inputs={"u": IntType(0, 9)})
    ref = _plain_ts(clamped)
    dom = Domain.of(u=IntType(0, 5))
    assert simulates(cand, ref, dom).holds
    # beyond the clamp point they disagree, on a reference declaring them
    wide = Domain.of(u=IntType(0, 9))
    res = simulates(cand, _plain_ts(clamped, inputs={"u": IntType(0, 9)}), wide)
    assert not res.holds
    assert res.failure.kind == "output-mismatch"
    assert res.failure.rows == [{"u": 6}]


def test_partial_guard_coverage_reported_as_uncovered():
    """B declares u : int[0, 3], and its rows, which m's update splits,
    cover none of u = 4 and 5 that A adds: upward is refuted at step 1 on
    the least of them, an uncovered input on no port, which B's own
    interpreter rejects."""
    prep = prepare(parse_model(latch_text("Wide", 5, 2)), parse_model(latch_text("Narrow", 3, 2)))
    assert len(unfold_to_ts(prep.step_b).transitions[0]) == 2
    report = simcheck.check_prepared(prep)
    assert report.verdict == "backward-only"
    up = report.upward
    assert (up.pairs, up.queries) == (1, 0)
    cx = up.counterexample
    assert (cx.kind, cx.port) == ("uncovered-input", None)
    assert cx.rows_a == cx.rows_b == [{"u": 4}]
    interp_b = Interpreter(prep.flat_b)
    interp_b.validate_inputs({"u": 3})
    with pytest.raises(DomainError):
        interp_b.validate_inputs(cx.rows_b[0])


def test_search_stops_at_the_first_bad_pair():
    """Two ten-state chains over u whose outputs differ at state 2 alone.
    State 1 steps to 2 on u = false and to 3 on u = true; every other state
    stays on u = false and steps on u = true.  The search discovers (2, 2)
    as the third pair and (3, 3) as the fourth, and stops at (2, 2) before
    the rest of the chain, which an exploration of the whole product
    would go on to."""
    def chain(name, outputs):
        return Ts(
            name=name, var_names=("k",), states=[(k,) for k in range(10)], init=0,
            outputs=[{"y": Const(v)} for v in outputs], inputs={"u": BoolType()},
            rows=[state_rows(("u",), ((False, True),), [0, 1],
                             [2, 3] if k == 1 else [k, (k + 1) % 10])
                  for k in range(10)],
        )

    ref = chain("Ref", range(10))
    cand = chain("Cand", [12 if k == 2 else k for k in range(10)])
    res = simulates(cand, ref, Domain.of(u=BoolType()))
    assert not res.holds
    assert res.pairs <= 4
    assert res.failure.kind == "output-mismatch"
    assert res.failure.rows == [{"u": True}, {"u": False}, {"u": False}]
    assert (res.failure.cand_state, res.failure.ref_state) == ("k=2", "k=2")
    assert (res.failure.expected, res.failure.actual) == (2, 12)


def test_divergence_after_warmup_step():
    """First step agrees, the armed inverter differs from step two on."""
    report = check_compatibility(parse_model(DRIFTER), parse_model(MIRROR))
    assert report.verdict == "incompatible"
    cx = report.backward.counterexample
    assert cx.kind == "output-mismatch"
    assert len(cx.rows_a) == 2
    assert cx.expected != cx.actual


def _last_outputs(model, rows):
    """The model's outputs on the last of the rows, as the interpreter, which
    shares no stage with the check, runs them."""
    return Interpreter(flatten_and_validate(model)).run(rows)[-1]


def test_counterexample_values_are_the_interpreters():
    """Every output-mismatch counterexample, also one kept on a direction a
    constant fix made hold, reports as expected and actual the outputs the
    interpreter gives on its trace's last row: the candidate (A backward, B
    upward) gives actual.  Types are compared too, since True == 1.  Each
    pair is also checked swapped, unless B has a port A lacks."""
    pairs = [(load_model(a), load_model(b)) for a, b in FIXTURE_PAIRS]
    pairs += [random_model_pair(seed) for seed in range(100)]
    seen = 0
    for model_a, model_b in pairs:
        for a, b in ((model_a, model_b), (model_b, model_a)):
            try:
                report = check_compatibility(a, b)
            except UnmappedPort:
                continue
            b_port = {pa: pb for pb, pa in report.mapping}
            for res in (report.backward, report.upward):
                cx = res and res.counterexample
                if cx is None or cx.kind != "output-mismatch":
                    continue
                seen += 1
                a_val = _last_outputs(a, cx.rows_a)[cx.port]
                b_val = _last_outputs(b, cx.rows_b)[b_port[cx.port]]
                if cx.direction == "upward":
                    a_val, b_val = b_val, a_val
                want = (a_val, b_val)
                got = (cx.actual[cx.port], cx.expected[cx.port])
                assert got == want and list(map(type, got)) == list(map(type, want)), (
                    report.a_name, report.b_name, cx.direction
                )
    assert seen > 20


def _shortest_refutation(cand, ref, rows, ports, cap=2000):
    """The length of a shortest input sequence on which the candidate
    interpreter rejects a row or differs from the reference's on a mapped
    output, found by breadth-first search over pairs of interpreter
    states; 0 when there is none, None past cap pairs.  rows are
    (candidate row, reference row) pairs, ports (candidate port, reference
    port) pairs.  The models are deterministic, so the search is complete
    once no new pair appears."""
    def key(sa, sb):
        return tuple(sorted(sa.items())), tuple(sorted(sb.items()))

    level = [(cand.initial_state(), ref.initial_state())]
    seen = {key(*level[0])}
    depth = 0
    while level:
        depth += 1
        nxt = []
        for sa, sb in level:
            for row_a, row_b in rows:
                try:
                    cand.validate_inputs(row_a)
                except DomainError:
                    return depth
                out_a, na = cand.step(sa, row_a)
                out_b, nb = ref.step(sb, row_b)
                if any(out_a[pa] != out_b[pb] for pa, pb in ports):
                    return depth
                if key(na, nb) not in seen:
                    seen.add(key(na, nb))
                    nxt.append((na, nb))
        if len(seen) > cap:
            return None
        level = nxt
    return 0


def _oracle_directions(model_a, model_b, overrides=None, config=CheckConfig()):
    """Per direction of the pair, both ways, whose domain has at most 256
    rows: where it is, its result, the candidate's and the reference's
    interpreter, its rows and compared ports as (candidate, reference)
    pairs, and A's extra inputs' types.  Each direction's domain is built
    from the ports and the mapping: B's declared mapped inputs (backward)
    or A's (upward), then A's extra inputs.  The pair is checked under
    config, with overrides, turned round when the models are."""
    turned = {a: b for b, a in (overrides or {}).items()}
    for a, b, ov in ((model_a, model_b, overrides), (model_b, model_a, turned)):
        try:
            report = check_compatibility(a, b, ov, config)
        except UnmappedPort:
            continue
        if not report.interface_ok:
            continue
        flat_a, flat_b = flatten_and_validate(a), flatten_and_validate(b)
        a_in = {p.name: p.dtype for p in flat_a.inputs}
        b_in = {p.name: p.dtype for p in flat_b.inputs}
        b_outs = {p.name for p in flat_b.outputs}
        mapped = [(pb, pa) for pb, pa in report.mapping if pb in b_in]
        extras = {n: a_in[n] for n in report.extra_inputs_a}
        ports = [(pa, pb) for pb, pa in report.mapping if pb in b_outs]
        interp_a, interp_b = Interpreter(flat_a), Interpreter(flat_b)
        for res, dtypes, cand, ref in (
            (report.backward, {pa: b_in[pb] for pb, pa in mapped}, interp_a, interp_b),
            (report.upward, {pa: a_in[pa] for pb, pa in mapped}, interp_b, interp_a),
        ):
            dom = Domain(dtypes | extras)
            if dom.space() > 256:
                continue
            # rows and ports as (A, B) pairs, turned round when B is the candidate
            rows = [(row, {pb: row[pa] for pb, pa in mapped}) for row in all_rows(dom)]
            compared = ports
            if cand is interp_b:
                rows = [(rb, ra) for ra, rb in rows]
                compared = [(pb, pa) for pa, pb in ports]
            where = (report.a_name, report.b_name, res is report.backward)
            yield where, res, cand, ref, rows, compared, extras


def _smaller_vectors_refute(res, cand, ref, rows, compared, extras) -> int:
    """For a backward direction a fix made hold: the interpreters, with A's
    extra inputs held at the fixed binding, cannot be driven apart, and
    with them held at any lexicographically smaller vector whose one-step
    outputs agree on every row they can.  Returns how many smaller vectors
    were searched."""
    def held(c):
        return [(ra, rb) for ra, rb in rows if all(ra[n] == v for n, v in c.items())]

    def agrees_at_first_step(c):
        init_a, init_b = cand.initial_state(), ref.initial_state()
        return all(
            cand.step(init_a, ra)[0][pa] == ref.step(init_b, rb)[0][pb]
            for ra, rb in held(c) for pa, pb in compared
        )

    fixed = res.fixed_inputs
    assert _shortest_refutation(cand, ref, held(fixed), compared) == 0, fixed
    names = sorted(extras)
    searched = 0
    for combo in itertools.product(*(domain_values(extras[n]) for n in names)):
        c = dict(zip(names, combo))
        if c == fixed:
            return searched
        if agrees_at_first_step(c):
            searched += 1
            assert _shortest_refutation(cand, ref, held(c), compared) > 0, c
    raise AssertionError(f"{fixed} is not a vector of {extras}")


def test_counterexample_is_a_shortest_refutation():
    """A direction is refuted exactly when the interpreters, which share no
    stage with the check past flattening, can be driven apart, and its
    trace is as long as the shortest input sequence that does it; over the
    bundled pairs, the constant-fix pairs, 100 random pairs and 100 random
    pairs whose candidate widens a narrow integer input, both ways, where
    the domain has at most 256 rows.  A direction a fix made hold keeps the
    unfixed counterexample, so the search runs without the fix; with the
    fix, the interpreters agree, and every smaller vector that passes the
    one-step filter refutes (``_smaller_vectors_refute``).

    A row outside the candidate's declared range is one its interpreter
    rejects in every state, and one the check's candidate takes in none, so
    every direction, an upward one over a widened input included, has the
    interpreter search's verdict and trace length."""
    # charge_pump's self-check alone walks pairs for about 0.4 s
    pairs = [(load_model(a), load_model(b)) for a, b in FIXTURE_PAIRS if a != "charge_pump"]
    pairs.append((parse_model(DELAY_KEYED), parse_model(DELAY_REF)))
    for gates in (1, 2):
        member = families.gated_counter(10, gates, seed=1)
        pairs.append((parse_model(member.text_a), parse_model(member.text_b)))
    drawn = [random_model_pair(seed) for seed in range(100)]
    drawn += [narrow_widened_pair(seed) for seed in range(100)]
    covered = refuted = fixed = smaller = uncovered = drawn_uncovered = 0
    for i, (model_a, model_b) in enumerate(pairs + drawn):
        for where, res, cand, ref, rows, compared, extras in _oracle_directions(model_a, model_b):
            try:
                depth = _shortest_refutation(cand, ref, rows, compared)
            except DomainError:
                continue
            if depth is None:
                continue
            cx = res.counterexample
            covered += 1
            refuted += depth > 0
            if res.fixed_inputs is not None:
                fixed += 1
                smaller += _smaller_vectors_refute(res, cand, ref, rows, compared, extras)
            if cx is not None and cx.kind == "uncovered-input":
                uncovered += 1
                drawn_uncovered += i >= len(pairs)
            assert (cx is not None) == (depth > 0), where
            assert cx is None or len(cx.rows_a) == depth, where
    assert covered >= 490 and refuted >= 265, (covered, refuted)
    assert fixed >= 5 and smaller >= 5, (fixed, smaller)
    assert uncovered >= 7 and drawn_uncovered >= 4, (uncovered, drawn_uncovered)


def test_multi_output_counterexample_is_a_shortest_refutation():
    """The oracle of ``test_counterexample_is_a_shortest_refutation`` on 50
    pairs with two or three mapped outputs, one of them renamed, a
    candidate-only output and sometimes an extra input
    (``helpers.multi_output_pair``), with and without port splitting: each
    direction is refuted exactly when the interpreters can be driven apart
    on some mapped output, and its trace is as long as the shortest input
    sequence that does it on any mapped output, whichever port's group
    the check refutes first."""
    covered = refuted = fixed = smaller = 0
    for seed in range(50):
        model_a, model_b, overrides = multi_output_pair(seed)
        for split in (True, False):
            config = CheckConfig(output_split=split)
            for where, res, cand, ref, rows, compared, extras in _oracle_directions(
                model_a, model_b, overrides, config
            ):
                depth = _shortest_refutation(cand, ref, rows, compared)
                cx = res.counterexample
                covered += 1
                refuted += depth > 0
                if res.fixed_inputs is not None:
                    fixed += 1
                    smaller += _smaller_vectors_refute(res, cand, ref, rows, compared, extras)
                assert (cx is not None) == (depth > 0), (seed, split, where)
                assert cx is None or len(cx.rows_a) == depth, (seed, split, where)
    # both directions of A against B under both configs; B against A leaves
    # dbg without a counterpart
    assert covered >= 200 and refuted >= 110, (covered, refuted)
    assert fixed >= 4 and smaller >= 4, (fixed, smaller)


def _mirror_cases():
    """Every pair the mirror test checks: ``random_model_pair`` seeds 0-299
    in both orders and 2458, whose upward trace once differed from the
    mirrored backward one, ``multi_output_pair`` seeds 0-299 with their
    overrides, and every ordered pair of bundled models."""
    for seed in (*range(300), 2458):
        a, b = random_model_pair(seed)
        yield f"random {seed}", a, b, None
        yield f"random {seed} swapped", b, a, None
    for seed in range(300):
        yield f"multi {seed}", *multi_output_pair(seed)
    names = sorted(p.stem for p in MODELS_DIR.glob("*.dfm"))
    for cand, ref in itertools.product(names, repeat=2):
        yield f"{cand} vs {ref}", load_model(cand), load_model(ref), None


def test_equal_domains_upward_search_mirrors_backward():
    """``check_prepared`` builds the upward direction from the backward
    one's unfixed search when both have one domain.  Both searches run
    here on every such case, and the upward one must be the backward one
    with the two states and the two outputs swapped, so a holding upward
    search implies a holding backward one.  Where the domains differ, A
    widens an input and ``check_prepared`` refutes upward itself, so the
    verdict ``upward-only`` is reached by no input."""
    equal = refuted = 0
    for where, model_a, model_b, overrides in _mirror_cases():
        try:
            prep = prepare(model_a, model_b, overrides)
        except UnmappedPort:
            continue
        if not prep.iface.compatible or prep.dom_backward != prep.dom_upward:
            continue
        equal += 1
        searched = []
        for cand, ref in ((prep.unfold_a, prep.unfold_b), (prep.unfold_b, prep.unfold_a)):
            try:
                searched.append(simcheck._check_direction(
                    cand, ref, prep.ports, prep.dom_backward, prep.config))
            except (DomainTooLarge, ArithmeticOverflow) as exc:
                searched.append(type(exc))
        back, up = searched
        if not isinstance(back, tuple):
            assert up is back, where
            continue
        holds, per_port, failure, pairs, queries = back
        if failure is not None:
            refuted += 1
            failure = replace(failure, cand_state=failure.ref_state, ref_state=failure.cand_state,
                              expected=failure.actual, actual=failure.expected)
        assert up == (holds, per_port, failure, pairs, queries), where
    assert equal >= 830 and refuted >= 410, (equal, refuted)


def test_widened_upward_refutes_at_step_one():
    """A row outside B's declared range of a mapped input is a row B takes
    in no state, so an upward direction over an input A widens is refuted
    at step 1 on every port: by the backward mismatch mirrored when the
    backward search fails at step 1, on a row B's interpreter accepts,
    else by the least row of A's domain that B's interpreter rejects, as
    an uncovered input.  Every widened case of ``narrow_widened_pair``
    seeds 0-99 and ``random_model_pair`` seeds 0-299, both ways."""
    mirrored = uncovered = 0
    pairs = [narrow_widened_pair(seed) for seed in range(100)]
    pairs += [random_model_pair(seed) for seed in range(300)]
    for i, (model_a, model_b) in enumerate(pairs):
        for a, b in ((model_a, model_b), (model_b, model_a)):
            prep = prepare(a, b)
            if not prep.iface.compatible or prep.dom_backward == prep.dom_upward:
                continue
            report = simcheck.check_prepared(prep)
            where = (i, report.a_name, report.b_name)
            up, back = report.upward, report.backward.counterexample
            cx, interp_b = up.counterexample, Interpreter(prep.flat_b)
            assert not up.holds and not any(up.per_port.values()), where
            assert len(cx.rows_a) == len(cx.rows_b) == 1, where
            if back is not None and len(back.rows_a) == 1:
                mirrored += 1
                assert cx == replace(back, direction="upward", cand_state=back.ref_state,
                                     ref_state=back.cand_state, expected=back.actual,
                                     actual=back.expected), where
                interp_b.validate_inputs(cx.rows_b[0])
                continue
            uncovered += 1
            assert cx.kind == "uncovered-input" and (up.pairs, up.queries) == (1, 0), where
            with pytest.raises(DomainError):
                interp_b.validate_inputs(cx.rows_b[0])
            # the least row of A's domain, in lexicographic order, that B rejects
            dom, to_b = prep.dom_upward, prep.mapping.a_to_b()
            names = dom.sorted_names()
            for combo in itertools.product(*map(dom.values, names)):
                row = dict(zip(names, combo))
                try:
                    interp_b.validate_inputs({to_b[n]: v for n, v in row.items() if n in to_b})
                except DomainError:
                    break
            assert cx.rows_a == [row], where
    # 45 random and 100 narrow directions widen an input
    assert mirrored >= 55 and uncovered >= 90, (mirrored, uncovered)


# ---------------------------------------------------------------------------
# constant search for added ports


# the candidate's y repeats u one step late only with k high; z always does.
# Both k pass the initial-output filter, so k=false is verified and refused
# before k=true is found.
DELAY_REF = (
    "model Ref\nin u : bool\nout y : bool\nout z : bool\n"
    "block Ry : UnitDelay(false)\nblock Rz : UnitDelay(false)\n"
    "wire u -> Ry.in\nwire u -> Rz.in\nwire Ry -> y\nwire Rz -> z\n"
)
DELAY_KEYED = (
    "model Keyed\nin u : bool\nin k : bool\nout y : bool\nout z : bool\n"
    "block Inv : Logic(NOT)\nblock Pick : Switch\n"
    "block Dy : UnitDelay(false)\nblock Dz : UnitDelay(false)\n"
    "wire u -> Inv.in1\nwire k -> Pick.ctrl\nwire u -> Pick.in1\nwire Inv -> Pick.in3\n"
    "wire Pick -> Dy.in\nwire u -> Dz.in\nwire Dy -> y\nwire Dz -> z\n"
)


def _record_unfolds(monkeypatch) -> list[str]:
    """Model name of the step behind every unfold_to_ts call of a check."""
    names = []
    real = simcheck.unfold_to_ts

    def counted(step, *args):
        names.append(step.name)
        return real(step, *args)

    monkeypatch.setattr(simcheck, "unfold_to_ts", counted)
    return names


# two latches whose cones differ: x toggles on a, y latches a or b
TWO_CONES = (
    "model TwoCones\nin a : bool\nin b : bool\nout x : bool\nout y : bool\n"
    "block Dx : UnitDelay(false)\nblock Tx : Logic(XOR)\n"
    "block Dy : UnitDelay(false)\nblock Oy : Logic(OR)\n"
    "wire a -> Tx.in1\nwire Dx -> Tx.in2\nwire Tx -> Dx.in\nwire Dx -> x\n"
    "wire a -> Oy.in1\nwire b -> Oy.in2\nwire Oy -> Dy.in\nwire Dy -> y\n"
)


def test_both_directions_share_unfolded_systems(monkeypatch):
    """tri_latch's three latch groups are one problem up to renaming: the
    first is unfolded on both sides and searched, and the other two take
    its result.  Groups whose cones differ are each unfolded on both
    sides."""
    unfolds = _record_unfolds(monkeypatch)
    assert report_for("tri_latch", "tri_latch").verdict == "full"
    assert len(unfolds) == 2
    unfolds.clear()
    model = parse_model(TWO_CONES)
    assert check_compatibility(model, model).verdict == "full"
    assert len(unfolds) == 2 * 2


def test_rows_evaluated_by_compiled_code(monkeypatch):
    """unfold_to_ts and simulates tree-walk no expression, per row or
    otherwise, and unfolding turns no row back into an assignment: a
    witness is read off the stored rows when asked for."""
    from dfcompat import rows, unfold

    running: list[str] = []  # the patched functions currently running
    walked: list[str] = []  # per eval_expr call inside them, which one
    decoded: list[str] = []  # per Grid.row call inside them, which one

    def counted(real, calls):
        def call(*args):
            if running:
                calls.append(running[-1])
            return real(*args)
        return call

    def tracked(name, real):
        def run(*args):
            running.append(name)
            try:
                return real(*args)
            finally:
                running.pop()
        return run

    # unfold and simcheck do not import eval_expr; setting the name there
    # still catches a change that would call it
    for module in (unfold, simcheck):
        monkeypatch.setattr(module, "eval_expr", counted(eval_expr, walked), raising=False)
    monkeypatch.setattr(rows.Grid, "row", counted(rows.Grid.row, decoded))
    monkeypatch.setattr(
        simcheck, "unfold_to_ts", tracked("unfold_to_ts", simcheck.unfold_to_ts)
    )
    monkeypatch.setattr(simcheck, "simulates", tracked("simulates", simcheck.simulates))
    for cand, ref in FIXTURE_PAIRS:
        report_for(cand, ref)
    assert walked == []
    # counterexample rows are decoded; unfolding decodes none
    assert "simulates" in decoded and "unfold_to_ts" not in decoded


def test_fix_attempts_share_reference_systems(monkeypatch):
    """Every fix attempt reads the systems both directions built: each model
    is unfolded once per port group across the whole check, no step is
    bound, and each attempt pins k in the simulation instead."""
    unfolds = []
    real_unfold = simcheck.unfold_to_ts
    monkeypatch.setattr(
        simcheck, "unfold_to_ts",
        lambda step, *args: unfolds.append((step.name, tuple(step.outputs)))
        or real_unfold(step, *args),
    )
    monkeypatch.setattr(
        simcheck, "bind_inputs", lambda *args: pytest.fail("a fix attempt bound a step")
    )
    pins = []
    real_simulates = simcheck.simulates
    monkeypatch.setattr(
        simcheck, "simulates",
        lambda *args: pins.append(args[4] if len(args) > 4 else None)
        or real_simulates(*args),
    )
    report = check_compatibility(parse_model(DELAY_KEYED), parse_model(DELAY_REF))
    assert report.backward.fixed_inputs == {"k": True}
    assert sorted(unfolds) == [
        ("Keyed", ("y",)), ("Keyed", ("z",)), ("Ref", ("y",)), ("Ref", ("z",)),
    ]
    # two port groups per search: unpinned backward, k false, k true; both
    # directions have one domain, so the upward result mirrors the first
    assert pins == [None, None, {"k": False}, {"k": False}, {"k": True}, {"k": True}]


def test_fix_free_ports_direct():
    config = CheckConfig()
    prep = prepare(load_model("cruise_v4"), load_model("cruise_v3"), None, config)
    fixed = fix_free_ports(prep)
    assert fixed is not None
    binding, per_port, pairs, queries = fixed
    assert binding == {"F": False}
    assert per_port == {"engaged": True}
    assert queries > 0


def test_fix_search_returns_none_when_hopeless():
    a = parse_model(
        "model A\nin u : bool\nin F : bool\nout y : bool\n"
        "block Inv : Logic(NOT)\nblock Or : Logic(OR)\n"
        "wire u -> Inv.in1\nwire F -> Or.in1\nwire Inv -> Or.in2\nwire Or -> y\n"
    )
    b = parse_model(MIRROR.replace("Mirror", "B"))
    report = check_compatibility(a, b)
    assert report.verdict == "incompatible"
    assert report.backward.fixed_inputs is None
    assert report.backward.counterexample is not None


def test_fix_search_iteration_cap():
    # every constant passes the initial-output filter yet fails verification
    a = parse_model(
        "model A\nin u : bool\nin F : int[0,20]\nout y : bool\n" +
        DRIFTER.split("out y : bool\n", 1)[1]
    )
    b = parse_model(MIRROR.replace("Mirror", "B"))
    with pytest.raises(IterationCapExceeded, match="16"):
        check_compatibility(a, b)


def test_fix_search_cap_can_be_raised():
    a = parse_model(
        "model A\nin u : bool\nin F : int[0,20]\nout y : bool\n" +
        DRIFTER.split("out y : bool\n", 1)[1]
    )
    b = parse_model(MIRROR.replace("Mirror", "B"))
    report = check_compatibility(a, b, config=CheckConfig(fix_iterations=22))
    assert report.verdict == "incompatible"
    assert report.backward.fixed_inputs is None


# an extra integer compared only with constants: each state's rows hold it
# in two intervals, [0, 150] and [151, 300]
THRESHOLD = (
    "model Thresh\nin u : bool\nin k : int[0,300]\nout y : bool\n"
    "block Lim : Constant(150)\nblock Low : Relational(<=)\nblock Inv : Logic(NOT)\n"
    "block Pick : Switch\nblock D : UnitDelay(false)\n"
    "wire k -> Low.in1\nwire Lim -> Low.in2\nwire u -> Inv.in1\nwire Low -> Pick.ctrl\n"
    "wire u -> Pick.in1\nwire Inv -> Pick.in3\nwire Pick -> D.in\nwire D -> y\n"
)
THRESHOLD_REF = (
    "model ThreshRef\nin u : bool\nout y : bool\nblock D : UnitDelay(false)\n"
    "wire u -> D.in\nwire D -> y\n"
)


# the reference cuts u at 4 and 6 where the candidate cuts it at 6 and 8,
# so each joint move's rows place the candidate's stored rows with k held
CUTS = (
    "model Cuts\nin u : int[0,9]\nin k : bool\nout y : bool\n"
    "block C5 : Constant(5)\nblock C7 : Constant(7)\n"
    "block Le5 : Relational(<=)\nblock Le7 : Relational(<=)\n"
    "block Pick : Switch\nblock D : UnitDelay(false)\n"
    "wire u -> Le5.in1\nwire C5 -> Le5.in2\nwire u -> Le7.in1\nwire C7 -> Le7.in2\n"
    "wire k -> Pick.ctrl\nwire Le5 -> Pick.in1\nwire Le7 -> Pick.in3\n"
    "wire Pick -> D.in\nwire D -> y\n"
)
CUTS_REF = (
    "model CutsRef\nin u : int[0,9]\nout y : bool\n"
    "block C5 : Constant(5)\nblock C3 : Constant(3)\n"
    "block Le5 : Relational(<=)\nblock Le3 : Relational(<=)\n"
    "block Or : Logic(OR)\nblock D : UnitDelay(false)\n"
    "wire u -> Le5.in1\nwire C5 -> Le5.in2\nwire u -> Le3.in1\nwire C3 -> Le3.in2\n"
    "wire Le5 -> Or.in1\nwire Le3 -> Or.in2\nwire Or -> D.in\nwire D -> y\n"
)


def _offset(extra: bool, budget_case: bool = False) -> str:
    """y is u plus k (the candidate's extra input) or plus 5 once a delay
    has switched on, 0 before; z is k == 5, or true."""
    u_hi = 999 if budget_case else SPLIT_MIN_VALUES * 2
    lines = [
        f"model {'Late' if extra else 'LateRef'}", f"in u : int[0,{u_hi}]",
        *(["in k : int[0,99]"] if extra else []),
        f"out y : int[0,{u_hi + 200}]", "out z : bool",
        "block On : Constant(true)", "block D : UnitDelay(false)", "block S : Sum(++)",
        "block Zero : Constant(0)", "block Pick : Switch", "block Five : Constant(5)",
        "wire On -> D.in", "wire u -> S.in1", "wire D -> Pick.ctrl", "wire S -> Pick.in1",
        "wire Zero -> Pick.in3", "wire Pick -> y",
    ]
    if extra:
        lines += ["block Is5 : Relational(==)", "wire k -> S.in2", "wire k -> Is5.in1",
                  "wire Five -> Is5.in2", "wire Is5 -> z"]
    else:
        lines += ["wire Five -> S.in2", "wire On -> z"]
    return "\n".join(lines) + "\n"


def _pinned_against_bound(model_a, model_b) -> tuple[int, int]:
    """For every vector c of A's extra inputs and every port group, the
    search over A's own systems with the extra inputs pinned to c holds
    exactly when A's step with them bound to c, restricted and unfolded
    anew, simulates B over B's mapped inputs.  Returns how many (vector,
    group) pairs held and how many did not."""
    config = CheckConfig()
    prep = prepare(model_a, model_b, None, config)
    dom, ports = prep.dom_backward, prep.ports
    extras = sorted(prep.mapping.extra_inputs_a)
    b_side = {n: t for n, t in dom.dtypes.items() if n not in extras}
    groups = simcheck._port_groups(ports, config)
    cand, ref = prep.unfold_a, prep.unfold_b
    outcomes = [0, 0]
    for combo in itertools.product(*(domain_values(prep.step_a.inputs[n]) for n in extras)):
        c = dict(zip(extras, combo))
        for group in groups:
            bound = unfold_to_ts(restrict_to_outputs(bind_inputs(prep.step_a, c), group))
            want = simulates(bound, ref(group), Domain(b_side)).holds
            assert simulates(cand(group), ref(group), dom, pinned=c).holds == want, (c, group)
            outcomes[not want] += 1
    return outcomes[0], outcomes[1]


@pytest.mark.parametrize("case,held,refuted", [
    ("cruise", 1, 1),
    ("delay_keyed", 3, 1),
    ("gated_k10_g1", 1, 1),
    ("gated_k10_g2", 1, 3),
    ("gated_k10_g3", 1, 7),
    ("gated_k10_g4", 1, 15),
    ("threshold", 151, 150),
    ("cuts", 1, 1),
    ("offset", 2, 198),
])
def test_pinned_search_decides_what_the_bound_step_does(case, held, refuted):
    if case == "cruise":
        pair = load_model("cruise_v4"), load_model("cruise_v3")
    elif case == "delay_keyed":
        pair = parse_model(DELAY_KEYED), parse_model(DELAY_REF)
    elif case.startswith("gated"):
        member = families.gated_counter(10, int(case[-1]), seed=1)
        pair = parse_model(member.text_a), parse_model(member.text_b)
    elif case == "threshold":
        pair = parse_model(THRESHOLD), parse_model(THRESHOLD_REF)
    elif case == "cuts":
        pair = parse_model(CUTS), parse_model(CUTS_REF)
    else:  # y reads u and k by value: the pinned search splits u alone
        pair = parse_model(_offset(True)), parse_model(_offset(False))
    assert _pinned_against_bound(*pair) == (held, refuted)


def test_fix_rows_are_counted_with_the_extra_inputs_pinned():
    """The unpinned comparison of y reads u and k by value, 100,000 rows;
    with k pinned it reads u alone, and u, read affinely, takes two rows of
    each interval (with k at its pinned value where the split rule
    evaluates y).  A budget under both 100,000 and u's 1,000 values refuses
    the first, and the fix is still found, as the bound step's check finds
    it.  Without port splitting the backward check stops at z, which
    differs at the initial pair, before it compares y where the delay is
    on."""
    config = CheckConfig(solver_budget=500, output_split=False)
    a, b = parse_model(_offset(True, True)), parse_model(_offset(False, True))
    report = check_compatibility(a, b, config=config)
    assert report.backward.fixed_inputs == {"k": 5}
    with pytest.raises(DomainTooLarge, match="needs 100000 input rows"):
        check_compatibility(a, b, config=replace(config, output_split=True))


# y is u * u where the extra input k is true, once a delay has switched on,
# else 0; z is k.  A's unfolded state with the delay on reads u by value,
# 1,000 rows, where A's step with k bound to false reads nothing.
SQUARE = (
    "model Square\nin u : int[0,999]\nin k : bool\nout y : int[0,998001]\nout z : bool\n"
    "block On : Constant(true)\nblock D : UnitDelay(false)\nblock Sq : Product\n"
    "block Zero : Constant(0)\nblock Arm : Switch\nblock Pick : Switch\n"
    "wire On -> D.in\nwire u -> Sq.in1\nwire u -> Sq.in2\nwire k -> Arm.ctrl\n"
    "wire Sq -> Arm.in1\nwire Zero -> Arm.in3\nwire D -> Pick.ctrl\nwire Arm -> Pick.in1\n"
    "wire Zero -> Pick.in3\nwire Pick -> y\nwire k -> z\n"
)
SQUARE_REF = (
    "model SquareRef\nin u : int[0,999]\nout y : int[0,998001]\nout z : bool\n"
    "block Zero : Constant(0)\nblock Off : Constant(false)\nwire Zero -> y\nwire Off -> z\n"
)
# y is k and 4 * 2**62 > 5 once a delay has switched on, else false; z is
# k.  Compiled ``and`` evaluates both operands, so A's unfolded state with
# the delay on overflows, where A's step with k bound to false folds y to
# false.
OVERFLOW = (
    "model Over\nin u : bool\nin k : bool\nout y : bool\nout z : bool\n"
    "block On : Constant(true)\nblock Off : Constant(false)\nblock D : UnitDelay(false)\n"
    "block Four : Constant(4)\nblock Big : Gain(4611686018427387904)\n"
    "block Five : Constant(5)\nblock Gt : Relational(>)\nblock And : Logic(AND)\n"
    "block Pick : Switch\n"
    "wire On -> D.in\nwire Four -> Big\nwire Big -> Gt.in1\nwire Five -> Gt.in2\n"
    "wire k -> And.in1\nwire Gt -> And.in2\nwire D -> Pick.ctrl\nwire And -> Pick.in1\n"
    "wire Off -> Pick.in3\nwire Pick -> y\nwire k -> z\n"
)
OVERFLOW_REF = (
    "model OverRef\nin u : bool\nout y : bool\nout z : bool\n"
    "block Off : Constant(false)\nwire Off -> y\nwire Off -> z\n"
)


@pytest.mark.parametrize("text_a,text_b,error", [
    (SQUARE, SQUARE_REF, DomainTooLarge),
    (OVERFLOW, OVERFLOW_REF, ArithmeticOverflow),
])
def test_an_attempt_the_pinned_search_fails_is_decided_on_the_bound_step(
    monkeypatch, text_a, text_b, error
):
    """The initial agreement on z leaves k = false alone.  Pinned to it, the
    search over A's own systems reads what binding folds away, and exceeds
    a budget of 500 rows, or overflows; the attempt is then decided on A's
    step with k bound, unfolded anew, and the fix is found, as it is
    without pinning.  Without port splitting the backward check stops at
    z, which differs at the initial pair, before y reads anything."""
    config = CheckConfig(solver_budget=500, output_split=False)
    a, b = parse_model(text_a), parse_model(text_b)
    prep = prepare(a, b, None, config)
    with pytest.raises(error):
        simcheck._check_direction(
            prep.unfold_a, prep.unfold_b, prep.ports, prep.dom_backward, config, {"k": False}
        )
    binds = []
    real_bind = simcheck.bind_inputs
    monkeypatch.setattr(
        simcheck, "bind_inputs", lambda step, c: binds.append(c) or real_bind(step, c)
    )
    report = check_compatibility(a, b, config=config)
    assert report.backward.fixed_inputs == {"k": False}
    assert binds == [{"k": False}]


# ---------------------------------------------------------------------------
# interface handling


def test_extra_candidate_outputs_ignored():
    a = parse_model(
        "model Debug\nin req : int[-8,8]\nout cmd : int[-5,5]\nout raw : int[-8,8]\n"
        "block Clamp : Saturation(-5, 5)\nwire req -> Clamp\nwire Clamp -> cmd\n"
        "wire req -> raw\n"
    )
    report = check_compatibility(a, load_model("limiter_plain"))
    assert report.extra_outputs_a == ["raw"]
    assert report.verdict == "full"


def test_prepare_maps_ports_and_builds_both_domains_once():
    """Input u and output w are renamed through overrides; y and z are the
    two mapped outputs, k is A's extra input and dbg A's own output."""
    a = parse_model(
        "model Cand\nin v : int[0,20]\nin k : bool\nout y : int[0,20]\nout z : bool\n"
        "out dbg : bool\nblock Off : Constant(false)\n"
        "wire v -> y\nwire Off -> z\nwire k -> dbg\n"
    )
    b = parse_model(
        "model Ref\nin u : int[0,10]\nout w : int[0,20]\nout z : bool\n"
        "block Off : Constant(false)\nwire u -> w\nwire Off -> z\n"
    )
    prep = prepare(a, b, {"u": "v", "w": "y"})
    assert prep.mapping.inputs == (("u", "v"),)
    assert prep.mapping.outputs == (("w", "y"), ("z", "z"))
    assert prep.ports == ["y", "z"]
    assert prep.dom_backward == Domain({"v": IntType(0, 10), "k": BoolType()})
    assert prep.dom_upward == Domain({"v": IntType(0, 20), "k": BoolType()})
    report = simcheck.check_prepared(prep)
    assert report.mapping == [("u", "v"), ("w", "y"), ("z", "z")]
    assert report.extra_inputs_a == ["k"]
    assert report.extra_outputs_a == ["dbg"]
    # A widens v from [0,10] to [0,20], which B does not take
    assert report.verdict == "backward-only"


def test_interface_mismatch_short_circuits():
    a = parse_model("model A\nin u : bool\nout y : bool\nwire u -> y\n")
    b = parse_model(
        "model B\nin u : bool\nout y : int[0,1]\nblock K : Constant(1)\nwire K -> y\n"
    )
    report = check_compatibility(a, b)
    assert not report.interface_ok
    assert report.backward is None and report.upward is None
    assert report.verdict == "incompatible"
    assert any(port == "y" for port, _ in report.interface_violations)


def test_override_mapping_applied():
    a = parse_model("model A\nin v : bool\nout y : bool\nwire v -> y\n")
    b = parse_model("model B\nin u : bool\nout y : bool\nwire u -> y\n")
    report = check_compatibility(a, b, overrides={"u": "v"})
    assert report.verdict == "full"
    assert ("u", "v") in [tuple(p) for p in report.mapping]


def test_globalized_stores_compared_at_boundary():
    text = (
        "model Mailbox\nin x : int[0,9]\nout y : int[0,9]\n"
        "block Box : DataStoreMemory(0, int[0,9])\n"
        "block Put : DataStoreWrite(Box)\nblock Take : DataStoreRead(Box)\n"
        "wire x -> Put\nwire Take -> y\n"
    )
    a, b = parse_model(text), parse_model(text)
    internal = check_compatibility(a, b)
    boundary = check_compatibility(a, b, config=CheckConfig(datastore="global"))
    assert internal.verdict == "full"
    assert boundary.verdict == "full"
    assert ("Box", "Box") in [tuple(p) for p in boundary.mapping]


# ---------------------------------------------------------------------------
# port groups equal up to renaming


def _each_group_searched(cand, ref, ports, config, dom, pinned=None):
    """``_check_direction``'s result computed with no group answered by
    another: every group's restriction of both steps unfolded afresh and
    searched, the failure kept a shortest one, the first in group order;
    or the error's class and message."""
    per_port, failure, pairs, queries = {}, None, 0, 0
    try:
        for group in simcheck._port_groups(ports, config):
            systems = [
                unfold_to_ts(restrict_to_outputs(step, group), config.state_budget,
                             config.solver_budget)
                for step in (cand, ref)
            ]
            res = simulates(*systems, dom, config.solver_budget, pinned)
            pairs, queries = pairs + res.pairs, queries + res.queries
            per_port.update(dict.fromkeys(group, res.holds))
            if not res.holds and (failure is None or len(res.failure.rows) < len(failure.rows)):
                failure = res.failure
    except Exception as exc:  # noqa: BLE001 - an error is a result to compare
        return type(exc), str(exc)
    return all(per_port.values()), per_port, failure, pairs, queries


def _direction_or_error(cand, ref, ports, config, dom, pinned=None):
    try:
        return simcheck._check_direction(cand, ref, ports, dom, config, pinned)
    except Exception as exc:  # noqa: BLE001 - an error is a result to compare
        return type(exc), str(exc)


def _count_searches(monkeypatch) -> list[int]:
    """A one-element count of the simulates calls from here on."""
    calls = [0]
    real = simcheck.simulates

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(simcheck, "simulates", counted)
    return calls


# the candidate toggles x on a and y on b when its extra input k is high,
# and follows them inverted when it is low; the reference always toggles
KEYED_PAIR = (
    "model KeyedPair\nin a : bool\nin b : bool\nin k : bool\nout x : bool\nout y : bool\n"
    "block Ix : Logic(NOT)\nblock Px : Switch\nblock Tx : Logic(XOR)\nblock Dx : UnitDelay(false)\n"
    "block Iy : Logic(NOT)\nblock Py : Switch\nblock Ty : Logic(XOR)\nblock Dy : UnitDelay(false)\n"
    "wire a -> Ix.in1\nwire k -> Px.ctrl\nwire a -> Px.in1\nwire Ix -> Px.in3\n"
    "wire Px -> Tx.in1\nwire Dx -> Tx.in2\nwire Tx -> Dx.in\nwire Dx -> x\n"
    "wire b -> Iy.in1\nwire k -> Py.ctrl\nwire b -> Py.in1\nwire Iy -> Py.in3\n"
    "wire Py -> Ty.in1\nwire Dy -> Ty.in2\nwire Ty -> Dy.in\nwire Dy -> y\n"
)
KEYED_PAIR_REF = (
    "model KeyedPairRef\nin a : bool\nin b : bool\nout x : bool\nout y : bool\n"
    "block Tx : Logic(XOR)\nblock Dx : UnitDelay(false)\n"
    "block Ty : Logic(XOR)\nblock Dy : UnitDelay(false)\n"
    "wire a -> Tx.in1\nwire Dx -> Tx.in2\nwire Tx -> Dx.in\nwire Dx -> x\n"
    "wire b -> Ty.in1\nwire Dy -> Ty.in2\nwire Ty -> Dy.in\nwire Dy -> y\n"
)


def _group_cases():
    """(where, model A, model B, overrides, pinned vectors) of every case
    the equal-groups test checks."""
    for seed in (1, 2):
        for make in (families.toggle_bank, families.toggle_bank_broken):
            member = make(8, seed)
            yield member.name, parse_model(member.text_a), parse_model(member.text_b), None, [None]
    tri = load_model("tri_latch")
    broken = parse_model((MODELS_DIR / "tri_latch.dfm").read_text().replace("XOR", "OR"))
    yield "tri_latch", tri, tri, None, [None]
    yield "tri_latch broken", tri, broken, None, [None]
    for seed in range(100):
        yield f"multi {seed}", *multi_output_pair(seed), [None]
    keyed = parse_model(KEYED_PAIR), parse_model(KEYED_PAIR_REF)
    yield "keyed pair", *keyed, None, [None, {"k": False}, {"k": True}]


def test_groups_equal_up_to_renaming_are_answered_by_the_first(monkeypatch):
    """On every case, in both orders of its sides, over the backward domain
    and with each pinned vector, ``_check_direction`` gives what searching
    every group afresh gives: the same holds, per-port results and failure,
    and the same summed pairs and queries, or the same error.  Groups it
    answers from an earlier equal group are counted: all but one per class
    of holding banks, none of a class that refutes."""
    calls = _count_searches(monkeypatch)
    answered = refuted = 0
    for where, model_a, model_b, overrides, vectors in _group_cases():
        prep = prepare(model_a, model_b, overrides)
        assert prep.iface.compatible, where
        groups = len(simcheck._port_groups(prep.ports, prep.config))
        sides = ((prep.unfold_a, prep.step_a), (prep.unfold_b, prep.step_b))
        for (cand, cand_step), (ref, ref_step) in (sides, sides[::-1]):
            for pinned in vectors:
                if pinned is not None and cand is prep.unfold_b:
                    continue  # B has no extra input to pin
                args = prep.ports, prep.config, prep.dom_backward, pinned
                want = _each_group_searched(cand_step, ref_step, *args)
                calls[0] = 0
                got = _direction_or_error(cand, ref, *args)
                assert got == want, (where, pinned)
                if isinstance(got[0], bool):
                    answered += groups - calls[0]
                    refuted += got[2] is not None
    # per order of both seeds: toggle_bank(8)'s eight latches are one class,
    # the broken bank's refuting latch is a class of its own; tri_latch's
    # three latches are one class; the keyed pair's two with k high.  The
    # multi-output pairs' groups all differ.
    assert answered == 4 * 7 + 4 * 6 + 2 * 2 + 1 and refuted >= 100, (answered, refuted)


def test_fix_search_answers_equal_groups_under_pinned_values(monkeypatch):
    """With k pinned low both of KeyedPair's groups refute, and each is
    searched; pinned high they hold, and y takes x's result."""
    calls = _count_searches(monkeypatch)
    report = check_compatibility(parse_model(KEYED_PAIR), parse_model(KEYED_PAIR_REF))
    assert report.backward.fixed_inputs == {"k": True}
    assert report.backward.per_port == {"x": True, "y": True}
    # the unpinned search, then k false, then k true
    assert calls[0] == 2 + 2 + 1


def _counter(var, ins, op="add", k=1, init=0, in_hi=1):
    """One port's cone: its output is var, which steps by k through op,
    kept in [0, 3], when the first of the two inputs ins is above the
    second.  Returns its inputs, variables, output and update."""
    first, second = (InputRef(n) for n in ins)
    stepped = Binary("max", Binary("min", Binary(op, VarRef(var), Const(k)), Const(3)), Const(0))
    update = Ite(Binary("gt", first, second), stepped, VarRef(var))
    return (dict.fromkeys(sorted(ins), IntType(0, in_hi)), {var: (IntType(0, 3), init)},
            VarRef(var), update)


def _two_ports(p, q) -> SymbolicStep:
    """A step with ports p and q, the counters ``_counter`` makes of the
    keyword dicts p and q over variables x and y."""
    cones = (_counter("x", **p), _counter("y", **q))
    return SymbolicStep(
        "TwoPorts",
        inputs={n: t for c in cones for n, t in c[0].items()},
        vars={v: d for c in cones for v, d in c[1].items()},
        outputs={"p": cones[0][2], "q": cones[1][2]},
        updates={"x": cones[0][3], "y": cones[1][3]},
    )


@pytest.mark.parametrize("p,q,dom,pinned,searches", [
    # equal up to renaming: q takes p's result
    ({}, {}, {}, None, 1),
    ({}, {}, {}, {"a": 1, "c": 1}, 1),
    # an operator, as ``x + 1`` against ``x - 1``
    ({}, {"op": "sub"}, {}, None, 2),
    # a constant
    ({}, {"k": 2}, {}, None, 2),
    # an initial value
    ({}, {"init": 1}, {}, None, 2),
    # a declared range, over one domain
    ({"in_hi": 2}, {}, {"a": IntType(0, 1), "b": IntType(0, 1)}, None, 2),
    # the domain's type of an input
    ({"in_hi": 2}, {"in_hi": 2}, {"c": IntType(0, 1)}, None, 2),
    # a pinned value
    ({}, {}, {}, {"a": 1, "c": 0}, 2),
    # q compares d with c where p compares a with b: renaming each by first
    # use would make them equal, but not keep c before d
    ({}, {"ins": ("d", "c")}, {}, None, 2),
])
def test_groups_differing_up_to_renaming_are_each_searched(
    monkeypatch, p, q, dom, pinned, searches
):
    """Two-port steps whose cones have one shape: q's counter equals p's up
    to renaming, or differs from it in one way, and is then searched too.
    Either way the direction gives what searching each group afresh gives."""
    step = _two_ports({"ins": ("a", "b"), **p}, {"ins": ("c", "d"), **q})
    config, ports = CheckConfig(), ["p", "q"]
    domain = Domain(dict(step.inputs) | dom)
    calls = _count_searches(monkeypatch)
    got = _direction_or_error(
        simcheck.Unfolder(step, config, {}), simcheck.Unfolder(step, config, {}),
        ports, config, domain, pinned,
    )
    assert calls[0] == searches
    assert got == _each_group_searched(step, step, ports, config, domain, pinned)
    assert got[0] is True


# ---------------------------------------------------------------------------
# configuration knobs


def test_clone_pruning_reduces_state_vars():
    text = (
        "model Twin\nin p : bool\nout y : bool\n"
        "block D1 : UnitDelay(false)\nblock D2 : UnitDelay(false)\n"
        "block N1 : Logic(NOT)\nblock N2 : Logic(NOT)\nblock X : Logic(XOR)\n"
        "wire p -> N1\nwire p -> N2\nwire N1 -> D1.in\nwire N2 -> D2.in\n"
        "wire D1 -> X.in1\nwire D2 -> X.in2\nwire X -> y\n"
    )
    flat = flatten_and_validate(parse_model(text))
    pruned = build_step(flat)
    kept = build_step(flat, CheckConfig(clone_pruning=False))
    assert len(pruned.vars) == 1
    assert len(kept.vars) == 2


def test_joint_output_check_same_verdict():
    split = report_for("tri_latch", "tri_latch")
    joint = report_for("tri_latch", "tri_latch",
                       config=CheckConfig(output_split=False))
    assert split.verdict == joint.verdict == "full"
    assert set(split.backward.per_port) == set(joint.backward.per_port)
    # the joint product explores the full state space; split stays small
    assert joint.backward.pairs > split.backward.pairs


# p toggles on a in Toggle and stays false in Steady, so it differs after
# two steps; q is a in Toggle and not a in Steady, so it differs at once
TOGGLE = (
    "model Toggle\nin a : bool\nout p : bool\nout q : bool\n"
    "block D : UnitDelay(false)\nblock X : Logic(XOR)\n"
    "wire a -> X.in1\nwire D -> X.in2\nwire X -> D.in\nwire D -> p\nwire a -> q\n"
)
STEADY = (
    "model Steady\nin a : bool\nout p : bool\nout q : bool\n"
    "block Off : Constant(false)\nblock D : UnitDelay(false)\nblock Inv : Logic(NOT)\n"
    "wire Off -> D.in\nwire D -> p\nwire a -> Inv.in1\nwire Inv -> q\n"
)


@pytest.mark.parametrize("output_split", [True, False])
def test_a_refuted_direction_reports_its_shortest_trace(output_split):
    """With port splitting, p's group is refuted first in port order but
    after two steps; q's one-step refutation is the one reported, as
    without splitting."""
    config = CheckConfig(output_split=output_split)
    report = check_compatibility(parse_model(TOGGLE), parse_model(STEADY), config=config)
    for res in (report.backward, report.upward):
        cx = res.counterexample
        assert (cx.kind, cx.port, len(cx.rows_a)) == ("output-mismatch", "q", 1)


# ---------------------------------------------------------------------------
# report serialization


@pytest.mark.parametrize("cand,ref", [
    ("flipflop", "flipflop"),
    ("limiter_sign", "limiter_plain"),
    ("bands_v2", "bands_v1"),
    ("flipflop_reset", "flipflop"),
])
def test_report_round_trips_through_json(cand, ref):
    report = report_for(cand, ref)
    again = CompatReport.from_json(report.to_json())
    assert again == report
    assert again.verdict == report.verdict
    assert again.conditional == report.conditional


def test_report_dict_carries_verdict():
    d = report_for("flipflop", "flipflop").to_dict()
    assert d["verdict"] == "full"
    assert d["conditional"] is False
