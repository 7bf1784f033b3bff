"""Expression layer: evaluation, folding, normalization, rendering."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dfcompat import ArithmeticOverflow
from dfcompat.exprs import (
    FALSE,
    INT64_MAX,
    INT64_MIN,
    TRUE,
    Binary,
    Const,
    InputRef,
    Ite,
    SignalRef,
    Unary,
    VarRef,
    conjoin,
    disjoin,
    equal,
    eval_expr,
    fold,
    free_inputs,
    free_names,
    free_signals,
    free_vars,
    normalize,
    partial_eval,
    structural_key,
    substitute,
    postorder,
    to_str,
)
from dfcompat.rows import box_reads, compile_all, compile_expr
from helpers import any_exprs, bool_exprs, envs, int_exprs


def test_eval_arithmetic_and_logic():
    e = Binary("add", Binary("mul", Const(3), InputRef("u")), VarRef("w"))
    assert eval_expr(e, {"u": 4, "w": -2}) == 10
    e = Binary("and", InputRef("p"), Unary("not", VarRef("q")))
    assert eval_expr(e, {"p": True, "q": False}) is True
    e = Ite(Binary("lt", InputRef("u"), Const(0)), Unary("neg", InputRef("u")), InputRef("u"))
    assert eval_expr(e, {"u": -7}) == 7
    assert eval_expr(Binary("min", Const(2), Const(5)), {}) == 2
    assert eval_expr(Binary("max", Const(2), Const(5)), {}) == 5


def test_eval_enum_equality():
    e = Binary("eq", InputRef("mode"), Const("idle"))
    assert eval_expr(e, {"mode": "idle"}) is True
    assert eval_expr(e, {"mode": "busy"}) is False


def test_eval_overflow_checked():
    big = Binary("mul", Const(2**62), Const(4))
    with pytest.raises(ArithmeticOverflow):
        eval_expr(big, {})
    # 2**63 - 1 is the last representable value
    edge = Binary("add", Const(2**63 - 2), Const(1))
    assert eval_expr(edge, {}) == 2**63 - 1
    with pytest.raises(ArithmeticOverflow):
        eval_expr(Binary("add", Const(2**63 - 1), Const(1)), {})


def test_eval_rejects_unsubstituted_signal():
    with pytest.raises(KeyError):
        eval_expr(SignalRef("Sum"), {"Sum": 1})


def test_fold_keeps_overflowing_subterm():
    e = Binary("mul", Const(2**62), Const(4))
    assert fold(e) == e


def test_fold_collapses_constant_ite():
    e = Ite(Binary("lt", Const(1), Const(2)), InputRef("u"), Const(0))
    assert fold(e) == InputRef("u")


def test_fold_merges_equal_arms():
    e = Ite(InputRef("p"), Const(3), Const(3))
    assert fold(e) == Const(3)


@given(any_exprs(), envs())
def test_fold_preserves_value(e, env):
    assert eval_expr(fold(e), env) == eval_expr(e, env)


@given(any_exprs(), envs())
def test_normalize_preserves_value(e, env):
    assert eval_expr(normalize(e), env) == eval_expr(e, env)


@given(any_exprs())
def test_normalize_idempotent(e):
    n = normalize(e)
    assert normalize(n) == n


def test_normalize_orders_commutative_operands():
    a = Binary("add", VarRef("w"), InputRef("u"))
    b = Binary("add", InputRef("u"), VarRef("w"))
    assert normalize(a) == normalize(b)


def test_normalize_identities():
    u = InputRef("u")
    assert normalize(Binary("eq", u, u)) == TRUE
    assert normalize(Binary("lt", u, u)) == FALSE
    assert normalize(Binary("add", u, Const(0))) == u
    assert normalize(Binary("mul", u, Const(1))) == u
    assert normalize(Unary("not", Unary("not", InputRef("p")))) == InputRef("p")
    assert normalize(Ite(InputRef("p"), TRUE, FALSE)) == InputRef("p")


def test_substitute_namespaces_are_distinct():
    e = Binary("add", InputRef("x"), VarRef("x"))
    out = substitute(e, inputs={"x": Const(1)})
    assert out == Binary("add", Const(1), VarRef("x"))
    out = substitute(e, variables={"x": Const(2)})
    assert out == Binary("add", InputRef("x"), Const(2))


def test_substitute_signals():
    e = Binary("or", SignalRef("Gate"), InputRef("p"))
    out = substitute(e, signals={"Gate": Binary("and", InputRef("p"), VarRef("q"))})
    assert free_signals(out) == set()
    assert eval_expr(out, {"p": True, "q": False}) is True


@given(any_exprs(), envs())
def test_partial_eval_grounds_to_constant(e, env):
    r = partial_eval(e, env)
    assert r == Const(eval_expr(e, env))


def test_partial_eval_partial_binding():
    e = Binary("add", InputRef("u"), VarRef("w"))
    r = partial_eval(e, {"u": 3})
    assert free_names(r) == {"w"}
    assert eval_expr(r, {"w": 2}) == 5


# leaves of both namespaces under each name, and constants whose products,
# sums and negations leave 64 bits, so that some folds must keep their node
_PE_LEAVES = st.sampled_from([
    Const(True), Const(False), Const(0), Const(-2), Const(1 << 62),
    Const(INT64_MIN), Const(INT64_MAX),
    InputRef("p"), VarRef("p"), InputRef("u"), VarRef("u"), VarRef("q"), VarRef("w"),
])
_PE_EXPRS = st.recursive(
    _PE_LEAVES,
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["not", "neg"]), sub),
        st.builds(
            Binary,
            st.sampled_from(["and", "or", "xor", "add", "sub", "mul", "min", "max",
                             "eq", "ne", "lt", "le", "gt", "ge"]),
            sub, sub,
        ),
        st.builds(Ite, sub, sub, sub),
        st.builds(lambda c, t: Ite(c, t, t), sub, sub),
    ),
    max_leaves=24,
)


@given(_PE_EXPRS, envs(), st.sets(st.sampled_from(["p", "q", "u", "w"])))
def test_partial_eval_is_fold_of_substitute(e, env, bound):
    binding = {k: v for k, v in env.items() if k in bound}
    consts = {k: Const(v) for k, v in binding.items()}
    want = fold(substitute(e, variables=consts, inputs=consts))
    # repr also tells Const(True) from Const(1), which == does not
    assert repr(partial_eval(e, binding)) == repr(want)


# leaves of both namespaces, constants whose sums, products and negations
# leave 64 bits, an enum variant (a TypeError under arithmetic and
# ordering) and an unsubstituted signal; ops include unknown ones
_COMPILE_LEAVES = st.sampled_from([
    Const(True), Const(False), Const(0), Const(-2), Const(1 << 62),
    Const(INT64_MIN), Const(INT64_MAX), Const("Red"),
    InputRef("p"), VarRef("q"), InputRef("u"), VarRef("w"), SignalRef("s"),
])
_COMPILE_EXPRS = st.recursive(
    _COMPILE_LEAVES,
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["not", "neg", "inv"]), sub),
        st.builds(
            Binary,
            st.sampled_from(["and", "or", "xor", "add", "sub", "mul", "min", "max",
                             "eq", "ne", "lt", "le", "gt", "ge", "pow"]),
            sub, sub,
        ),
        st.builds(Ite, sub, sub, sub),
    ),
    max_leaves=24,
)


def _outcome(f):
    """The value (repr tells True from 1) or the exception class and args."""
    try:
        return "value", repr(f())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), exc.args


@given(_COMPILE_EXPRS, envs(), st.permutations(["p", "q", "u", "w"]), st.integers(0, 4))
def test_compiled_expr_matches_eval_expr(e, env, order, k):
    # names left out of the row are unresolvable references
    names = tuple(order[:k])
    row = tuple(env[n] for n in names)
    want = _outcome(lambda: eval_expr(e, dict(zip(names, row))))
    assert _outcome(lambda: compile_expr(e, names)(row)) == want


# the same with operands that share subtrees, as step summaries do: a node
# read twice, on both sides of an operator or in an arm and a condition
_SHARED_EXPRS = st.recursive(
    _COMPILE_LEAVES,
    lambda sub: st.one_of(
        st.builds(Unary, st.sampled_from(["not", "neg", "inv"]), sub),
        st.builds(
            Binary,
            st.sampled_from(["and", "or", "xor", "add", "sub", "mul", "min", "max",
                             "eq", "ne", "lt", "le", "gt", "ge", "pow"]),
            sub, sub,
        ),
        st.builds(Ite, sub, sub, sub),
        st.builds(lambda op, a, b: Binary(op, a, Binary(op, b, a)),
                  st.sampled_from(["xor", "add", "and", "lt"]), sub, sub),
        st.builds(lambda c, a: Ite(c, a, Unary("not", a)), sub, sub),
        st.builds(lambda a, b: Ite(a, b, a), sub, sub),
    ),
    max_leaves=24,
)


@given(_SHARED_EXPRS, _SHARED_EXPRS, envs(), st.permutations(["p", "q", "u", "w"]),
       st.integers(0, 4), st.booleans())
def test_compiled_dag_matches_eval_expr(e, f, env, order, k, looped):
    """Roots sharing nodes, compiled together, evaluate one after another on
    one row as each alone would; looped, deep DAGs' evaluator is used."""
    from dfcompat import rows

    names = tuple(order[:k])
    row = tuple(env[n] for n in names)
    roots = [e, Binary("add", e, f), f, e]
    want = [_outcome(lambda r=r: eval_expr(r, dict(zip(names, row)))) for r in roots]
    nested = rows._NESTED_MAX
    rows._NESTED_MAX = 0 if looped else nested
    try:
        fns = compile_all(roots, names)
    finally:
        rows._NESTED_MAX = nested
    assert [_outcome(lambda fn=fn: fn(row)) for fn in fns] == want


@given(_SHARED_EXPRS, _SHARED_EXPRS)
def test_equal_is_structural_equality(e, f):
    assert equal(e, f) == (e == f)
    assert equal(e, e)


@pytest.mark.parametrize("e", [
    # both operands of and/or are evaluated, so the overflow raises
    Binary("and", Const(False), Binary("mul", Const(1 << 62), Const(4))),
    Binary("or", Const(True), Unary("neg", Const(INT64_MIN))),
    Binary("add", InputRef("u"), Const(INT64_MAX)),
    # the arm ite does not take is not evaluated
    Ite(InputRef("p"), Const(1), Binary("sub", Const(INT64_MIN), Const(1))),
    Ite(Unary("not", InputRef("p")), SignalRef("s"), InputRef("u")),
])
def test_compiled_expr_keeps_eval_semantics(e):
    names, row = ("p", "u"), (True, 1)
    want = _outcome(lambda: eval_expr(e, dict(zip(names, row))))
    assert _outcome(lambda: compile_expr(e, names)(row)) == want


def test_compiled_expr_raises_when_called_not_when_built():
    f = compile_expr(Binary("add", SignalRef("acc"), InputRef("x")), ("u",))
    with pytest.raises(KeyError, match="unsubstituted signal reference 'acc'"):
        f((1,))
    with pytest.raises(KeyError, match="x"):
        compile_expr(InputRef("x"), ("u",))((1,))
    with pytest.raises(ArithmeticOverflow, match="exceeds 64-bit signed range"):
        compile_expr(Binary("mul", InputRef("u"), Const(1 << 62)), ("u",))((4,))


def test_partial_eval_keeps_overflowing_node():
    e = Binary("mul", VarRef("w"), Const(1 << 62))
    assert partial_eval(e, {"w": 2}) == Binary("mul", Const(2), Const(1 << 62))
    assert partial_eval(e, {"w": 1}) == Const(1 << 62)


def test_free_name_queries():
    e = Ite(InputRef("p"), VarRef("w"), SignalRef("Acc"))
    assert free_inputs(e) == {"p"}
    assert free_vars(e) == {"w"}
    assert free_signals(e) == {"Acc"}
    # signals live in their own namespace and are not input/var names
    assert free_names(e) == {"p", "w"}


def test_postorder_lists_each_node_once_after_its_children():
    w = Unary("neg", VarRef("w"))
    e = Binary("add", Const(1), Binary("mul", w, w))
    kinds = [type(n).__name__ for n in postorder([e, w])]
    assert kinds == ["Const", "VarRef", "Unary", "Binary", "Binary"]
    # w is read twice by the product and is a root as well
    shared = set()
    postorder([e, w], shared)
    assert shared == {id(w)}


def test_conjoin_disjoin():
    p, q = InputRef("p"), InputRef("q")
    assert conjoin([]) == TRUE
    assert disjoin([]) == FALSE
    assert conjoin([TRUE, p]) == p
    assert disjoin([FALSE, q]) == q
    assert conjoin([p, q]) == Binary("and", p, q)


def test_normalize_keys_each_node_once(monkeypatch):
    from dfcompat import exprs

    # a left-deep commutative chain: re-keying every operand subtree at
    # each level would take about depth**2 / 2 key computations
    depth = 200
    e = InputRef("x0")
    for i in range(1, depth + 1):
        e = Binary("add", e, InputRef(f"x{i}"))
    want = normalize(e)
    calls = []
    real = exprs._structural_key
    monkeypatch.setattr(
        exprs, "_structural_key", lambda n, sub: calls.append(n) or real(n, sub)
    )
    assert normalize(e) == want
    assert len(calls) <= 2 * depth + 1


def test_structural_key_ranks_kinds():
    ordered = sorted(
        [VarRef("a"), Const(1), InputRef("a")], key=structural_key
    )
    assert ordered == [Const(1), InputRef("a"), VarRef("a")]


def test_to_str_rendering():
    e = Binary("mul", Binary("add", InputRef("a"), Const(1)), VarRef("b"))
    assert to_str(e) == "(a + 1) * b"
    assert to_str(Binary("min", InputRef("a"), Const(2))) == "min(a, 2)"
    assert to_str(Unary("not", Binary("and", InputRef("p"), InputRef("q")))) == "!(p && q)"
    assert to_str(Const(True)) == "true"
    assert to_str(Ite(InputRef("p"), Const(1), Const(0))) == "ite(p, 1, 0)"


@given(int_exprs(), envs())
def test_int_exprs_stay_within_64_bits(e, env):
    # generator magnitudes are tiny, evaluation must never raise
    v = eval_expr(e, env)
    assert -(2**63) <= v < 2**63


@given(bool_exprs(), envs())
def test_bool_exprs_evaluate_to_bool(e, env):
    assert eval_expr(e, env) in (True, False)


def _evaluated(e, env):
    try:
        return ("value", eval_expr(e, env))
    except ArithmeticOverflow as exc:
        return ("raises", str(exc))


@given(any_exprs(), envs(), st.integers(0, 3), st.integers(0, 3))
def test_box_reads_matches_evaluation(e, env, a, b):
    """Off its reads a name changes nothing; read affinely, it moves the
    value along a line."""
    lo, hi = min(a, b), max(a, b)
    reads = box_reads([e], {"u": (lo, hi)})
    got = [_evaluated(e, env | {"u": x}) for x in range(lo, hi + 1)]
    if "u" not in reads:
        assert all(g == got[0] for g in got)
    elif reads["u"] and all(kind == "value" for kind, _ in got) and hi > lo:
        step = got[1][1] - got[0][1]
        assert [v for _, v in got] == [got[0][1] + k * step for k in range(len(got))]


def test_box_reads_decides_comparisons_and_follows_evaluation():
    u, v = InputRef("u"), InputRef("v")
    pick = Ite(Binary("lt", u, Const(2)), Binary("mul", u, u), Binary("add", u, v))
    assert box_reads([pick], {"u": (0, 1)}) == {"u": False}
    assert box_reads([pick], {"u": (2, 9)}) == {"u": True}
    assert box_reads([pick], {"u": (2, 9), "v": (0, 5)}) == {"u": True, "v": True}
    # an undecided comparison reads the value
    assert box_reads([pick], {"u": (1, 9)}) == {"u": False}
    # a decided conjunction still evaluates both operands
    eager = Binary("and", Binary("ge", u, Const(2)), Binary("eq", Binary("mul", u, v), Const(0)))
    assert box_reads([eager], {"u": (0, 1)}) == {"u": False}
    # a product of two reads is not affine in either shared name
    assert box_reads([Binary("mul", Binary("add", u, v), u)], {"u": (0, 9), "v": (0, 9)}) == {
        "u": False, "v": True,
    }
    # equality is decided off its constant only
    assert box_reads([Ite(Binary("eq", u, Const(5)), u, Const(0))], {"u": (0, 4)}) == {}
    assert box_reads([Ite(Binary("eq", u, Const(5)), u, Const(0))], {"u": (5, 9)}) == {
        "u": False,
    }
