"""Expression DAGs shared by the symbolic pipeline.

Expressions are immutable and reference three namespaces: input ports
(:class:`InputRef`), state variables (:class:`VarRef`) and block-local wires
(:class:`SignalRef`).  Signal references only exist between CFG extraction and
substitution; everything downstream works over inputs and variables alone.

A node may have several parents: a step summary reuses a signal's expression
wherever the signal is read.  Every pass below loops over ``postorder`` of its
roots with a memo keyed by node identity, so it visits each distinct node once
and needs no recursion however deep the expression.  ``eval_expr`` alone is
the plain recursive definition of evaluation, which compiled code
(``rows.compile_all``) must match.

Values are plain Python ``bool``/``int`` plus enum variants carried as ``str``.
Integer arithmetic is evaluated in 64-bit signed range; leaving it raises
:class:`~dfcompat.errors.ArithmeticOverflow`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import ArithmeticOverflow

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

Value = Union[bool, int, str]

CMP_OPS = ("eq", "ne", "lt", "le", "gt", "ge")
COMMUTATIVE_OPS = frozenset({"and", "or", "xor", "add", "mul", "min", "max", "eq", "ne"})


@dataclass(frozen=True, slots=True)
class Const:
    value: Value


@dataclass(frozen=True, slots=True)
class InputRef:
    name: str


@dataclass(frozen=True, slots=True)
class VarRef:
    name: str


@dataclass(frozen=True, slots=True)
class SignalRef:
    name: str


@dataclass(frozen=True, slots=True)
class Unary:
    op: str  # "not" | "neg"
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Ite:
    cond: "Expr"
    then: "Expr"
    other: "Expr"


Expr = Union[Const, InputRef, VarRef, SignalRef, Unary, Binary, Ite]

TRUE = Const(True)
FALSE = Const(False)


def _check64(n: int) -> int:
    if n < INT64_MIN or n > INT64_MAX:
        raise ArithmeticOverflow(f"value {n} exceeds 64-bit signed range")
    return n


def eval_expr(e: Expr, env: Mapping[str, Value]) -> Value:
    """Evaluate ``e`` under a total valuation of its inputs and variables."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (InputRef, VarRef)):
        return env[e.name]
    if isinstance(e, SignalRef):
        raise KeyError(f"unsubstituted signal reference {e.name!r}")
    if isinstance(e, Unary):
        v = eval_expr(e.arg, env)
        if e.op == "not":
            return not v
        if e.op == "neg":
            return _check64(-v)
        raise ValueError(f"unknown unary op {e.op!r}")
    if isinstance(e, Binary):
        a = eval_expr(e.left, env)
        b = eval_expr(e.right, env)
        op = e.op
        if op == "and":
            return bool(a) and bool(b)
        if op == "or":
            return bool(a) or bool(b)
        if op == "xor":
            return bool(a) != bool(b)
        if op == "add":
            return _check64(a + b)
        if op == "sub":
            return _check64(a - b)
        if op == "mul":
            return _check64(a * b)
        if op == "min":
            return a if a <= b else b
        if op == "max":
            return a if a >= b else b
        if op == "eq":
            return a == b
        if op == "ne":
            return a != b
        if op == "lt":
            return a < b
        if op == "le":
            return a <= b
        if op == "gt":
            return a > b
        if op == "ge":
            return a >= b
        raise ValueError(f"unknown binary op {op!r}")
    # Ite
    return eval_expr(e.then, env) if eval_expr(e.cond, env) else eval_expr(e.other, env)


# eval_expr's binary operations on already evaluated operands
_BINARY = {
    "and": lambda a, b: bool(a) and bool(b),
    "or": lambda a, b: bool(a) or bool(b),
    "xor": lambda a, b: bool(a) != bool(b),
    "add": lambda a, b: _check64(a + b),
    "sub": lambda a, b: _check64(a - b),
    "mul": lambda a, b: _check64(a * b),
    "min": lambda a, b: a if a <= b else b,
    "max": lambda a, b: a if a >= b else b,
    "eq": operator.eq,
    "ne": operator.ne,
    "lt": operator.lt,
    "le": operator.le,
    "gt": operator.gt,
    "ge": operator.ge,
}

def postorder(roots: Iterable[Expr], shared: set[int] | None = None) -> list[Expr]:
    """Each distinct node under roots, by identity, once and after its
    children.  shared, when given, receives the ids of operator nodes
    reached more than once: those with several parents, or repeated among
    the roots."""
    stack = list(roots)
    if len(stack) == 1 and type(stack[0]) in _LEAVES:
        return stack
    order: list[Expr] = []
    seen: set[int] = set()
    stack.reverse()
    pop, emit, add = stack.pop, order.append, seen.add
    while stack:
        n = pop()
        if n is _AFTER:  # the node below it has its children listed
            emit(pop())
            continue
        i = id(n)
        if i in seen:
            if shared is not None and type(n) not in _LEAVES:
                shared.add(i)
            continue
        add(i)
        kind = type(n)
        # an operator whose operands are all leaves is listed right away
        if kind is Binary:
            a, b = n.left, n.right
            if type(a) in _LEAVES and type(b) in _LEAVES:
                if (j := id(a)) not in seen:
                    add(j)
                    emit(a)
                if (j := id(b)) not in seen:
                    add(j)
                    emit(b)
                emit(n)
            else:
                stack += (n, _AFTER, b, a)
        elif kind is Unary:
            a = n.arg
            if type(a) not in _LEAVES:
                stack += (n, _AFTER, a)
                continue
            if (j := id(a)) not in seen:
                add(j)
                emit(a)
            emit(n)
        elif kind is Ite:
            kids = (n.cond, n.then, n.other)
            if type(kids[0]) in _LEAVES and type(kids[1]) in _LEAVES and type(kids[2]) in _LEAVES:
                for c in kids:
                    if (j := id(c)) not in seen:
                        add(j)
                        emit(c)
                emit(n)
            else:
                stack += (n, _AFTER, kids[2], kids[1], kids[0])
        else:
            emit(n)
    return order


_AFTER = object()
_LEAVES = frozenset({Const, InputRef, VarRef, SignalRef})
_OPERATORS = frozenset({Unary, Binary, Ite})


def _children(n: Expr) -> tuple[Expr, ...]:
    kind = type(n)
    if kind is Binary:
        return (n.left, n.right)
    if kind is Ite:
        return (n.cond, n.then, n.other)
    return (n.arg,) if kind is Unary else ()


def _names(e: Expr, kinds: tuple[type, ...]) -> frozenset[str]:
    return frozenset(n.name for n in postorder([e]) if type(n) in kinds)


def free_names(e: Expr) -> frozenset[str]:
    """Input and variable names referenced by ``e``."""
    return _names(e, (InputRef, VarRef))


def free_signals(e: Expr) -> frozenset[str]:
    return _names(e, (SignalRef,))


def rewrite(
    roots: Sequence[Expr],
    signals: Mapping[str, Expr] | None = None,
    variables: Mapping[str, Expr] | None = None,
    inputs: Mapping[str, Expr] | None = None,
    fold: bool = False,
    order: list[Expr] | None = None,
) -> list[Expr]:
    """The roots with references replaced by the expressions the maps give
    their names (missing names are left untouched), each distinct node
    rebuilt once, so nodes the roots share stay shared.

    With fold, constants fold on the way up: the result is ``fold`` of the
    substituted roots when the replacements are folded already, as
    constants and references are.  order, when given, is
    ``postorder(roots)``, computed once for many calls.
    """
    maps = {SignalRef: signals or {}, VarRef: variables or {}, InputRef: inputs or {}}
    memo: dict[int, Expr] = {}
    for n in postorder(roots) if order is None else order:
        kind = type(n)
        if kind is Binary:
            a, b = memo[id(n.left)], memo[id(n.right)]
            if fold:
                r = _fold_binary(n.op, a, b, n)
            else:
                r = n if a is n.left and b is n.right else Binary(n.op, a, b)
        elif kind is Unary:
            a = memo[id(n.arg)]
            r = _fold_unary(n.op, a, n) if fold else (n if a is n.arg else Unary(n.op, a))
        elif kind is Ite:
            c = memo[id(n.cond)]
            if fold and type(c) is Const:
                r = memo[id(n.then if c.value else n.other)]
            else:
                t, o = memo[id(n.then)], memo[id(n.other)]
                if fold and (t is o or type(t) is type(o) and (
                    t == o if type(t) in _LEAVES else equal(t, o)
                )):
                    r = t
                elif c is n.cond and t is n.then and o is n.other:
                    r = n
                else:
                    r = Ite(c, t, o)
        elif kind is Const:
            r = n
        else:
            r = maps[kind].get(n.name, n)
        memo[id(n)] = r
    return list(map(memo.__getitem__, map(id, roots)))


def substitute(
    e: Expr,
    signals: Mapping[str, Expr] | None = None,
    variables: Mapping[str, Expr] | None = None,
    inputs: Mapping[str, Expr] | None = None,
) -> Expr:
    """Replace references by expressions; missing names are left untouched."""
    return rewrite([e], signals, variables, inputs)[0]


def specialise(
    roots: Sequence[Expr], binding: Mapping[str, Value], order: list[Expr] | None = None
) -> list[Expr]:
    """``partial_eval`` of every root with one memo; order, when given, is
    ``postorder(roots)``."""
    consts = dict(zip(binding, map(Const, binding.values())))
    return rewrite(roots, variables=consts, inputs=consts, fold=True, order=order)


def partial_eval(e: Expr, binding: Mapping[str, Value]) -> Expr:
    """Fix some inputs/variables to concrete values and fold constants.

    One bottom-up pass that substitutes at the leaves and folds on the way
    up, the same tree as ``fold`` applied after ``substitute``.  Total:
    overflowing folds are skipped.
    """
    return specialise([e], binding)[0]


def fold(e: Expr) -> Expr:
    """Bottom-up constant folding.  Total: overflowing folds are skipped."""
    return rewrite([e], fold=True)[0]


def equal(a: Expr, b: Expr) -> bool:
    """``a == b`` without recursion, each pair of distinct nodes once."""
    stack = [(a, b)]
    seen: set[tuple[int, int]] = set()
    while stack:
        x, y = stack.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        kind = type(x)
        if kind is not type(y):
            return False
        if kind in (Binary, Ite, Unary):
            if kind is not Ite and x.op != y.op:
                return False
            seen.add((id(x), id(y)))
            stack += zip(_children(x), _children(y))
        elif x != y:
            return False
    return True


# The folds return node n itself, when given, if nothing folds and its
# operands are the ones given.


def _fold_unary(op: str, a: Expr, n: Unary | None = None) -> Expr:
    if op == "not":
        if type(a) is Const:
            return Const(not a.value)
        if type(a) is Unary and a.op == "not":
            return a.arg
    elif op == "neg" and type(a) is Const:
        if INT64_MIN <= -a.value <= INT64_MAX:
            return Const(-a.value)
    return n if n is not None and n.arg is a else Unary(op, a)


def _fold_binary(op: str, a: Expr, b: Expr, n: Binary | None = None) -> Expr:
    ca, cb = type(a) is Const, type(b) is Const
    if ca and cb and op in _BINARY:
        try:
            return Const(_BINARY[op](a.value, b.value))
        except ArithmeticOverflow:
            pass  # keep the node, evaluation will raise with context
    # a constant operand's value compares as ``a == TRUE`` does: 1 is true
    if op == "and" or op == "or":
        unit = op == "and"
        if ca and a.value == unit:
            return b
        if cb and b.value == unit:
            return a
        if ca and a.value == (not unit) or cb and b.value == (not unit):
            return FALSE if unit else TRUE
    elif op == "xor":
        if ca and a.value == False:  # noqa: E712
            return b
        if cb and b.value == False:  # noqa: E712
            return a
    return n if n is not None and n.left is a and n.right is b else Binary(op, a, b)


def structural_key(e: Expr) -> tuple:
    """Total order key used for canonical operand ordering."""
    keys: dict[int, tuple] = {}
    for n in postorder([e]):
        keys[id(n)] = _structural_key(n, lambda c: keys[id(c)])
    return keys[id(e)]


_RANK = {Const: 0, InputRef: 1, VarRef: 2, SignalRef: 3, Unary: 4, Binary: 5, Ite: 6}


def _structural_key(e: Expr, sub: Callable[[Expr], tuple]) -> tuple:
    """e's structural key, with ``sub`` giving its children's keys."""
    kind = type(e)
    if kind is Const:
        v = e.value
        # bools sort before ints before enum variants, values ascending
        return (0, (0, int(v)) if isinstance(v, bool) else (1, v) if isinstance(v, int) else (2, v))
    if kind in (InputRef, VarRef, SignalRef):
        return (_RANK[kind], e.name)
    head = (6,) if kind is Ite else (_RANK[kind], e.op)
    return head + tuple(map(sub, _children(e)))


ZERO, ONE = Const(0), Const(1)
# ``x op x`` for an operator of a comparison
_SELF_COMPARED = {"eq": TRUE, "le": TRUE, "ge": TRUE, "ne": FALSE, "lt": FALSE, "gt": FALSE}


def normalize(e: Expr, canon: dict | None = None) -> Expr:
    """Canonical form: folded constants, sorted commutative operands,
    double negation removed.  Idempotent; clone detection compares these.

    Forms are interned in canon, which maps a form's shape (``_shape``)
    to the form and the form's id to its structural key, computed once.
    Calls may share it: equal forms are then one object and compare by
    identity.
    """
    canon = {} if canon is None else canon
    memo: dict[int, Expr] = {}

    def key(c: Expr) -> tuple:
        return canon[id(c)]

    for n in postorder([e]):
        kind = type(n)
        if kind is Unary:
            r = _fold_unary(n.op, memo[id(n.arg)])
        elif kind is Binary:
            op, a, b = n.op, memo[id(n.left)], memo[id(n.right)]
            if op in ("add", "sub") and b == ZERO:
                r = a
            elif op == "add" and a == ZERO:
                r = b
            elif op == "mul" and ZERO in (a, b):
                r = ZERO
            elif op == "mul" and ONE in (a, b):
                r = b if a == ONE else a
            elif op in _SELF_COMPARED and a is b:
                r = _SELF_COMPARED[op]
            else:
                if op in COMMUTATIVE_OPS and canon[id(b)] < canon[id(a)]:
                    a, b = b, a
                r = _fold_binary(op, a, b)
        elif kind is Ite:
            c, t, o = memo[id(n.cond)], memo[id(n.then)], memo[id(n.other)]
            if type(c) is Const:
                r = t if c.value else o
            elif t is o:
                r = t
            elif t == TRUE and o == FALSE:
                r = c
            elif t == FALSE and o == TRUE:
                r = _fold_unary("not", c)
            else:
                r = Ite(c, t, o)
        else:
            r = n
        shape = _shape(r)
        form = canon.get(shape)
        if form is None:
            form = canon[shape] = r
            canon[id(r)] = _structural_key(r, key)
        memo[id(n)] = form
    return memo[id(e)]


def _shape(n: Expr) -> tuple:
    """n's kind, operator or value, and the identities of its children."""
    kind = type(n)
    if kind is Const:
        return (kind, type(n.value), n.value)
    if kind in (InputRef, VarRef, SignalRef):
        return (kind, n.name)
    return (kind, getattr(n, "op", None), *map(id, _children(n)))


def conjoin(terms: list[Expr]) -> Expr:
    """Left-associated conjunction; empty list means true."""
    out: Expr = TRUE
    for t in terms:
        if t == TRUE:
            continue
        out = t if out == TRUE else Binary("and", out, t)
    return out


def disjoin(terms: list[Expr]) -> Expr:
    out: Expr = FALSE
    for t in terms:
        if t == FALSE:
            continue
        out = t if out == FALSE else Binary("or", out, t)
    return out


_INFIX = {
    "and": "&&", "or": "||", "xor": "^", "add": "+", "sub": "-", "mul": "*",
    "eq": "==", "ne": "!=", "lt": "<", "le": "<=", "gt": ">", "ge": ">=",
}


def to_str(e: Expr) -> str:
    """Human-readable rendering used in dumps, DOT labels and messages."""
    return render([e])[id(e)]


def render(roots: Iterable[Expr]) -> dict[int, str]:
    """``to_str`` of every node under roots, by node id: the text of a
    shared node is built once and repeated where it occurs."""
    text: dict[int, str] = {}
    for n in postorder(roots):
        kind = type(n)
        if kind is Binary:
            a, b = text[id(n.left)], text[id(n.right)]
            if n.op in ("min", "max"):
                s = f"{n.op}({a}, {b})"
            else:  # a compound operand is parenthesised
                a = f"({a})" if type(n.left) in (Binary, Ite) else a
                b = f"({b})" if type(n.right) in (Binary, Ite) else b
                s = f"{a} {_INFIX[n.op]} {b}"
        elif kind is Unary:
            a = text[id(n.arg)]
            a = f"({a})" if type(n.arg) in (Binary, Ite) else a
            s = ("!" if n.op == "not" else "-") + a
        elif kind is Ite:
            s = f"ite({text[id(n.cond)]}, {text[id(n.then)]}, {text[id(n.other)]})"
        elif kind is Const:
            v = n.value
            s = ("true" if v else "false") if isinstance(v, bool) else str(v)
        else:
            s = n.name
        text[id(n)] = s
    return text
