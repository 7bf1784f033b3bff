"""Finite-domain queries and SMT-LIB emission."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfcompat import Domain, DomainError, DomainTooLarge, minimal_cover, rows, sat_witness
from dfcompat.errors import SolverFailure
from dfcompat.exprs import TRUE, Binary, Const, InputRef, Unary, VarRef, eval_expr
from dfcompat.model import BoolType, EnumType, IntType
from dfcompat.solver import (
    emit_check_sat,
    emit_exists_forall,
    exists_forall_constants,
    expr_to_smt,
    is_sat,
    run_solver_cmd,
)
from helpers import EXPR_DOM, any_exprs, bool_exprs


def lt(name, k):
    return Binary("lt", InputRef(name), Const(k))


def ge(name, k):
    return Binary("ge", InputRef(name), Const(k))


def band(name, lo, hi):
    return Binary("and", ge(name, lo), lt(name, hi))


# ---------------------------------------------------------------------------
# domains


def test_domain_space_and_values():
    dom = Domain.of(p=BoolType(), u=IntType(0, 3))
    assert dom.sorted_names() == ["p", "u"]
    assert dom.values("u") == (0, 1, 2, 3)
    assert dom.values("p") == (False, True)
    assert dom.first("u") == 0
    assert dom.space() == 8
    assert dom.space(["u"]) == 4


def test_domain_restrict_and_merge():
    dom = Domain.of(p=BoolType(), u=IntType(0, 3))
    only_u = dom.restrict(["u"])
    assert only_u.sorted_names() == ["u"]
    merged = only_u.merged(Domain.of(p=BoolType()))
    assert merged.sorted_names() == ["p", "u"]
    with pytest.raises(DomainError, match="conflicting"):
        dom.merged(Domain.of(u=IntType(0, 5)))


def test_enum_domain_values_follow_declaration_order():
    dom = Domain.of(c=EnumType(("red", "green", "blue")))
    assert dom.values("c") == ("red", "green", "blue")
    assert dom.first("c") == "red"


# ---------------------------------------------------------------------------
# satisfiability


def test_witness_is_least():
    dom = Domain.of(u=IntType(0, 249))
    assert sat_witness(lt("u", 3), dom) == {"u": 0}
    assert sat_witness(ge("u", 200), dom) == {"u": 200}


def test_witness_is_total_over_domain():
    dom = Domain.of(u=IntType(0, 9), w=IntType(0, 9))
    w = sat_witness(ge("u", 4), dom)
    # names the formula ignores sit at their first value
    assert w == {"u": 4, "w": 0}


def test_unsat_returns_none():
    dom = Domain.of(u=IntType(0, 9))
    assert sat_witness(ge("u", 10), dom) is None
    assert not is_sat(Binary("and", lt("u", 3), ge("u", 7)), dom)


def test_undeclared_name_rejected():
    with pytest.raises(DomainError, match="ghost"):
        sat_witness(InputRef("ghost"), Domain.of(u=IntType(0, 3)))


def test_budget_enforced():
    dom = Domain.of(u=IntType(0, 999), w=IntType(0, 999))
    with pytest.raises(DomainTooLarge, match="budget"):
        sat_witness(Binary("lt", InputRef("u"), InputRef("w")), dom, budget=100)


def test_compared_integer_enumerated_by_intervals(monkeypatch):
    """u is only compared with constants: one row per interval, at its
    least value, finds the least witness in ten million values.  With
    interval rows off, u takes every value."""
    dom = Domain.of(p=BoolType(), u=IntType(0, 10_000_000))
    band = Binary("and", ge("u", 7_000_000), Binary("le", InputRef("u"), Const(7_000_004)))
    e = Binary("and", band, Binary("ne", InputRef("u"), Const(7_000_000)))
    assert sat_witness(Binary("and", e, InputRef("p")), dom, budget=10) == {
        "p": True, "u": 7_000_001,
    }
    assert sat_witness(Binary("and", e, ge("u", 7_000_005)), dom, budget=10) is None
    monkeypatch.setattr(rows, "INTERVAL_ROWS", False)
    with pytest.raises(DomainTooLarge, match=r"^satisfiability needs 20000002 input rows"):
        sat_witness(Binary("and", e, InputRef("p")), dom, budget=10)


def test_refusal_names_the_stage():
    dom = Domain.of(u=IntType(0, 999), w=IntType(0, 999))
    with pytest.raises(DomainTooLarge, match=r"^checking M needs 1000000 input rows over 2 "
                       r"names \(budget 100\)$"):
        sat_witness(Binary("lt", InputRef("u"), InputRef("w")), dom, 100, "checking M")
    with pytest.raises(DomainTooLarge, match=r"^fix search for M needs 4000 input rows over "
                       r"1\+2 names \(budget 100\)$"):
        exists_forall_constants(
            Binary("lt", InputRef("u"), InputRef("w")), ["k"],
            Domain.of(k=BoolType(), u=IntType(0, 999), w=IntType(0, 1)), 100,
            stage="fix search for M",
        )


_CMP = st.builds(
    Binary, st.sampled_from(["lt", "le", "eq", "ne", "gt", "ge"]),
    st.just(InputRef("u")), st.builds(Const, st.integers(-2, 45)),
)
_FORMULAS = st.recursive(
    st.one_of(_CMP, st.just(InputRef("p"))),
    lambda sub: st.one_of(
        st.builds(Unary, st.just("not"), sub),
        st.builds(Binary, st.sampled_from(["and", "or", "xor"]), sub, sub),
    ),
    max_leaves=6,
)


@given(_FORMULAS)
def test_interval_witness_is_the_least_witness(e):
    dom = Domain.of(p=BoolType(), u=IntType(0, 40))
    expected = next(
        (env for env in ({"p": p, "u": u} for p in (False, True) for u in range(41))
         if eval_expr(e, env)),
        None,
    )
    assert sat_witness(e, dom) == expected


@given(any_exprs())
def test_witness_agrees_with_brute_force(e):
    if not isinstance(eval_expr(e, {"p": False, "q": False, "u": 0, "w": -2}), bool):
        e = Binary("lt", e, Const(2))
    got = sat_witness(e, EXPR_DOM)
    names = EXPR_DOM.sorted_names()
    expected = None
    for combo in itertools.product(*(EXPR_DOM.values(n) for n in names)):
        env = dict(zip(names, combo))
        if eval_expr(e, env):
            expected = env
            break
    if expected is None:
        assert got is None
    else:
        # sat_witness fixes non-free names at first values; re-evaluate
        assert got is not None and eval_expr(e, got)


# ---------------------------------------------------------------------------
# guard covers


def test_cover_reports_residual_witness():
    dom = Domain.of(u=IntType(0, 249))
    res = minimal_cover(lt("u", 80), [lt("u", 60)], dom)
    assert not res.covered
    assert res.chosen == (0,)
    assert res.residual_witness == {"u": 60}


def test_cover_selects_only_overlapping_candidates():
    dom = Domain.of(u=IntType(0, 99))
    cells = [lt("u", 10), band("u", 10, 20), ge("u", 20)]
    res = minimal_cover(lt("u", 20), cells, dom)
    assert res.covered
    assert res.chosen == (0, 1)
    assert res.residual_witness is None


def test_cover_of_empty_target():
    dom = Domain.of(u=IntType(0, 9))
    res = minimal_cover(ge("u", 10), [TRUE], dom)
    assert res.covered
    assert res.chosen == ()


@given(st.data())
def test_cover_over_random_partitions(data):
    hi = 30
    a = data.draw(st.integers(1, hi - 2))
    b = data.draw(st.integers(a + 1, hi - 1))
    c = data.draw(st.integers(0, hi - 1))
    d = data.draw(st.integers(c, hi - 1))
    dom = Domain.of(u=IntType(0, hi - 1))
    cells = [lt("u", a), band("u", a, b), ge("u", b)]
    target = band("u", c, d + 1)
    res = minimal_cover(target, cells, dom)
    assert res.covered  # the cells partition the whole domain
    assert implies(target, _disj([cells[i] for i in res.chosen]), dom)
    # every chosen cell is necessary
    for i in res.chosen:
        rest = _disj([cells[j] for j in res.chosen if j != i])
        assert not implies(target, rest, dom)


def implies(p, q, dom):
    """Validity of p -> q over the domain."""
    return sat_witness(Binary("and", p, Unary("not", q)), dom) is None


def _disj(terms):
    from dfcompat.exprs import disjoin

    return disjoin(terms)


# ---------------------------------------------------------------------------
# constant search


def test_constant_search_picks_least_vector():
    dom = Domain.of(F=BoolType(), set=BoolType())
    tautology = Binary("or", InputRef("F"), Unary("not", InputRef("F")))
    assert exists_forall_constants(tautology, ["F"], dom) == {"F": False}


def test_constant_search_cruise_shape():
    dom = Domain.of(F=BoolType(), set=BoolType())
    s, f = InputRef("set"), InputRef("F")
    formula = Binary("eq", Binary("and", Unary("not", f), s), s)
    assert exists_forall_constants(formula, ["F"], dom) == {"F": False}


def test_constant_search_unwinnable():
    dom = Domain.of(F=BoolType(), u=BoolType())
    f, u = InputRef("F"), InputRef("u")
    formula = Binary("eq", Binary("or", f, Unary("not", u)), u)
    assert exists_forall_constants(formula, ["F"], dom) is None


def test_constant_search_respects_exclusions():
    dom = Domain.of(F=BoolType())
    tautology = Binary("or", InputRef("F"), Unary("not", InputRef("F")))
    got = exists_forall_constants(tautology, ["F"], dom, exclude=[{"F": False}])
    assert got == {"F": True}


def test_constant_search_integer_constants():
    dom = Domain.of(k=IntType(0, 20), u=IntType(0, 3))
    k, u = InputRef("k"), InputRef("u")
    formula = Binary("ge", Binary("add", k, u), Const(5))
    assert exists_forall_constants(formula, ["k"], dom) == {"k": 5}


def test_constant_search_budget():
    dom = Domain.of(k=IntType(0, 20), u=IntType(0, 3))
    formula = Binary("ge", Binary("add", InputRef("k"), InputRef("u")), Const(5))
    with pytest.raises(DomainTooLarge):
        exists_forall_constants(formula, ["k"], dom, budget=10)


def test_constant_search_undeclared_constant():
    dom = Domain.of(u=IntType(0, 3))
    with pytest.raises(DomainError, match="ghost"):
        exists_forall_constants(TRUE, ["ghost"], dom)


# ---------------------------------------------------------------------------
# SMT-LIB emission


def test_check_sat_script_shape():
    dom = Domain.of(u=IntType(0, 249))
    script = emit_check_sat(lt("u", 3), dom)
    lines = script.splitlines()
    assert lines[0] == "(set-logic ALL)"
    assert "(declare-const u Int)" in lines
    assert "(assert (and (>= u 0) (<= u 249)))" in lines
    assert "(assert (< u 3))" in lines
    assert lines[-1] == "(check-sat)"


def test_smt_literals_and_operators():
    assert expr_to_smt(Const(-5), {}) == "(- 5)"
    assert expr_to_smt(Const(True), {}) == "true"
    e = Binary("min", InputRef("a"), InputRef("b"))
    assert expr_to_smt(e, {}) == "(ite (<= a b) a b)"
    assert expr_to_smt(Binary("ne", InputRef("a"), InputRef("b")), {}) == \
        "(distinct a b)"


def test_smt_path_symbols_quoted():
    assert expr_to_smt(VarRef("Shell/Core/Prev"), {}) == "|Shell/Core/Prev|"


def test_smt_enum_declarations():
    enums = {"Color": EnumType(("red", "blue"))}
    dom = Domain.of(c=enums["Color"])
    script = emit_check_sat(Binary("eq", InputRef("c"), Const("red")), dom, enums)
    assert "(declare-datatypes ((Color 0)) (((|Color.red|) (|Color.blue|))))" in script
    assert "(assert (= c |Color.red|))" in script
    assert "(declare-const c Color)" in script


def test_smt_ambiguous_variant_rejected():
    enums = {
        "A": EnumType(("x", "y")),
        "B": EnumType(("x", "z")),
    }
    with pytest.raises(SolverFailure, match="2 declared enums"):
        expr_to_smt(Const("x"), enums)


def test_validity_script_negates_consequent():
    dom = Domain.of(u=IntType(0, 9))
    script = emit_check_sat(Binary("and", lt("u", 3), Unary("not", lt("u", 5))), dom)
    assert "(assert (and (< u 3) (not (< u 5))))" in script


def test_exists_forall_script_quantifies_rest():
    dom = Domain.of(F=BoolType(), set=BoolType())
    s, f = InputRef("set"), InputRef("F")
    formula = Binary("eq", Binary("and", Unary("not", f), s), s)
    script = emit_exists_forall(formula, ["F"], dom)
    assert "(declare-const F Bool)" in script
    assert "(assert (forall ((set Bool))" in script


def test_exists_forall_script_without_universals():
    dom = Domain.of(F=BoolType())
    script = emit_exists_forall(InputRef("F"), ["F"], dom)
    assert "forall" not in script
    assert "(assert F)" in script


def test_exists_forall_script_guards_int_ranges():
    dom = Domain.of(k=IntType(0, 20), u=IntType(0, 3))
    formula = Binary("ge", Binary("add", InputRef("k"), InputRef("u")), Const(5))
    script = emit_exists_forall(formula, ["k"], dom)
    assert "(assert (forall ((u Int)) (=> (and (>= u 0) (<= u 3))" in script


# ---------------------------------------------------------------------------
# external solver plumbing (stub commands; no real solver required)


def _stub(tmp_path, name, body):
    path = tmp_path / name
    path.write_text("#!/bin/sh\n" + body)
    path.chmod(0o755)
    return str(path)


def test_run_solver_reads_verdict(tmp_path):
    cmd = _stub(tmp_path, "saysat", "echo sat\n")
    assert run_solver_cmd(cmd, "(check-sat)\n") == "sat"
    cmd = _stub(tmp_path, "saysunsat", "echo unsat\n")
    assert run_solver_cmd(cmd, "(check-sat)\n") == "unsat"


def test_run_solver_skips_noise(tmp_path):
    cmd = _stub(tmp_path, "noisy", "echo '(progress 1)'\necho unknown\n")
    assert run_solver_cmd(cmd, "(check-sat)\n") == "unknown"


def test_run_solver_no_verdict(tmp_path):
    cmd = _stub(tmp_path, "mute", "echo done\n")
    with pytest.raises(SolverFailure, match="no verdict"):
        run_solver_cmd(cmd, "(check-sat)\n")


def test_run_solver_missing_binary(tmp_path):
    with pytest.raises(SolverFailure, match="failed"):
        run_solver_cmd(str(tmp_path / "nonexistent"), "(check-sat)\n")


def test_run_solver_receives_script(tmp_path):
    # the script path is appended as the final argument
    cmd = _stub(tmp_path, "grepper", 'grep -q check-sat "$1" && echo sat\n')
    assert run_solver_cmd(cmd, "(set-logic ALL)\n(check-sat)\n") == "sat"


@given(bool_exprs())
def test_emitted_script_is_balanced(e):
    script = emit_check_sat(e, EXPR_DOM)
    assert script.count("(") == script.count(")")
