"""Expression trees shared by the symbolic pipeline.

Expressions are immutable and reference three namespaces: input ports
(:class:`InputRef`), state variables (:class:`VarRef`) and block-local wires
(:class:`SignalRef`).  Signal references only exist between CFG extraction and
substitution; everything downstream works over inputs and variables alone.

Values are plain Python ``bool``/``int`` plus enum variants carried as ``str``.
Integer arithmetic is evaluated in 64-bit signed range; leaving it raises
:class:`~dfcompat.errors.ArithmeticOverflow`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

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

Row = Sequence[Value]


def compile_expr(e: Expr, names: Sequence[str]) -> Callable[[Row], Value]:
    """``e`` as a function of a row whose values are ordered like names.

    ``compile_expr(e, names)(row)`` returns what
    ``eval_expr(e, dict(zip(names, row)))`` returns and raises what it
    raises: both operands of a binary operator are evaluated, left first,
    ``ite`` evaluates only the arm it takes, and a reference the row cannot
    resolve raises ``KeyError`` when the function is called.  Built in one
    pass, it replaces a tree walk per row with one closure call per node.
    """
    return _compile(e, {n: i for i, n in enumerate(names)})


def _compile(n: Expr, pos: Mapping[str, int]) -> Callable[[Row], Value]:
    kind = type(n)
    if kind is Const:
        v = n.value
        return lambda r: v
    if kind is InputRef or kind is VarRef:
        if n.name in pos:
            return operator.itemgetter(pos[n.name])
        return _raising(KeyError, n.name)
    if kind is Binary:
        f = _BINARY.get(n.op) or _raising(ValueError, f"unknown binary op {n.op!r}")
        a, b = _compile(n.left, pos), _compile(n.right, pos)
        return lambda r: f(a(r), b(r))
    if kind is Ite:
        c, t, o = _compile(n.cond, pos), _compile(n.then, pos), _compile(n.other, pos)
        return lambda r: t(r) if c(r) else o(r)
    if kind is Unary:
        a = _compile(n.arg, pos)
        if n.op == "not":
            return lambda r: not a(r)
        if n.op == "neg":
            return lambda r: _check64(-a(r))
        bad = _raising(ValueError, f"unknown unary op {n.op!r}")
        return lambda r: bad(a(r))
    return _raising(KeyError, f"unsubstituted signal reference {n.name!r}")


def _raising(cls: type[Exception], arg: str) -> Callable[..., Value]:
    def fail(*_: object) -> Value:
        raise cls(arg)

    return fail


def walk(e: Expr) -> Iterator[Expr]:
    """Yield every node of ``e`` in preorder."""
    stack = [e]
    while stack:
        n = stack.pop()
        yield n
        if isinstance(n, Unary):
            stack.append(n.arg)
        elif isinstance(n, Binary):
            stack.append(n.right)
            stack.append(n.left)
        elif isinstance(n, Ite):
            stack.append(n.other)
            stack.append(n.then)
            stack.append(n.cond)


def free_inputs(e: Expr) -> frozenset[str]:
    return frozenset(n.name for n in walk(e) if isinstance(n, InputRef))


def free_vars(e: Expr) -> frozenset[str]:
    return frozenset(n.name for n in walk(e) if isinstance(n, VarRef))


def free_names(e: Expr) -> frozenset[str]:
    """Input and variable names referenced by ``e``."""
    return frozenset(
        n.name for n in walk(e) if isinstance(n, (InputRef, VarRef))
    )


def free_signals(e: Expr) -> frozenset[str]:
    return frozenset(n.name for n in walk(e) if isinstance(n, SignalRef))


# ``u op c`` can change truth only between c + k - 1 and c + k, for these k
_CUT_AT = {"lt": (0,), "ge": (0,), "le": (1,), "gt": (1,), "eq": (0, 1), "ne": (0, 1)}
# ``c op u`` is ``u op' c``
_MIRROR = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le", "eq": "eq", "ne": "ne"}


def input_uses(
    exprs: Iterable[Expr], kinds: tuple[type, ...] = (InputRef,)
) -> tuple[dict[str, set[int]], set[str]]:
    """The names the expressions reference through a node of kinds, each
    with the cut points of its comparisons with constants, and the names
    some occurrence of which reads the value in any other way.

    A cut point c says that some comparison may be true at c - 1 and false
    at c, or the other way round.  An occurrence is a comparison only as a
    direct operand of a comparison whose other operand is a ``Const``.
    """
    cuts: dict[str, set[int]] = {}
    reads: set[str] = set()
    stack = list(exprs)
    while stack:
        n = stack.pop()
        kind = type(n)
        if kind is Binary:
            hit = _compared(n, kinds) if n.op in CMP_OPS else None
            if hit is not None:
                name, c, op = hit
                found = cuts.get(name)
                if found is None or found is _NO_CUTS:
                    found = cuts[name] = set()
                # a comparison with a non-integer has one truth value
                if isinstance(c, int):
                    found.update(int(c) + k for k in _CUT_AT[op])
                continue
            stack.append(n.right)
            stack.append(n.left)
        elif kind in kinds:
            cuts.setdefault(n.name, _NO_CUTS)
            reads.add(n.name)
        elif kind is Unary:
            stack.append(n.arg)
        elif kind is Ite:
            stack += (n.other, n.then, n.cond)
    return cuts, reads


# the cut points of a name read only by value, shared and never changed
_NO_CUTS: frozenset[int] = frozenset()


def _compared(n: Binary, kinds: tuple[type, ...]) -> tuple[str, Value, str] | None:
    """For a comparison of a reference of kinds with a constant: the name,
    the constant and the operator with the name on the left."""
    if type(n.left) in kinds and type(n.right) is Const:
        return n.left.name, n.right.value, n.op
    if type(n.right) in kinds and type(n.left) is Const:
        return n.right.name, n.left.value, _MIRROR[n.op]
    return None


# a node whose value is not the same on every row of a box
_VARIES = object()
# a comparison whose truth is the same on every row of a box, unknown which
_FIXED = object()


def box_reads(
    exprs: Iterable[Expr], box: Mapping[str, tuple[int, int] | None]
) -> dict[str, bool]:
    """The names of box whose values the expressions read while each lies
    in its range ``(lo, hi)``, each with whether it is read affinely.

    A comparison of a boxed name with a constant whose truth is the same
    over the whole range is decided, and an ``ite`` with a decided
    condition evaluates one arm only, the way compiled code does; every
    other node is evaluated, as ``compile_expr`` evaluates both operands of
    a binary operator.  So on a box where a name is not read, evaluating
    the expressions gives the same values, or raises the same error, for
    every value of it in its range.  A name boxed with None lies in some
    range on which each of its comparisons with a constant keeps its
    truth, unknown which: those comparisons read nothing, and decide no
    ``ite``.  A read is affine when every node that reads the name is the
    name itself, ``add``, ``sub``, ``neg``, ``mul`` with one operand not
    reading it, or an ``ite`` whose condition does not read it: each such
    node is then affine in the name, and monotone, for any fixed values of
    the other names.
    """
    out: dict[str, bool] = {}
    for e in exprs:
        out = _merged(out, _box_reads(e, box)[1])
    return out


def _box_reads(
    n: Expr, box: Mapping[str, tuple[int, int] | None]
) -> tuple[object, dict[str, bool]]:
    """n's value when the same on the whole box (else ``_VARIES``), and
    the boxed names it reads, each with whether affinely."""
    kind = type(n)
    if kind is Const:
        return n.value, {}
    if kind is InputRef:
        return _VARIES, ({n.name: True} if n.name in box else {})
    if kind is Binary:
        op = n.op
        if op in CMP_OPS:
            val = _decided(n, box)
            if val is _FIXED:
                return _VARIES, {}
            if val is not _VARIES:
                return val, {}
        lv, lr = _box_reads(n.left, box)
        rv, rr = _box_reads(n.right, box)
        if op == "add" or op == "sub":
            reads = _merged(lr, rr)
        elif op == "mul":
            reads = _not_affine(_merged(lr, rr), lr.keys() & rr.keys())
        else:
            reads = _not_affine(_merged(lr, rr))
        if lv is not _VARIES and rv is not _VARIES:
            try:
                return _BINARY[op](lv, rv), reads
            except ArithmeticOverflow:
                return _VARIES, reads
        if (op == "and" and False in (lv, rv)) or (op == "or" and True in (lv, rv)):
            return op == "or", reads
        return _VARIES, reads
    if kind is Ite:
        cv, cr = _box_reads(n.cond, box)
        cr = _not_affine(cr)
        if cv is not _VARIES:
            val, reads = _box_reads(n.then if cv else n.other, box)
            return val, _merged(cr, reads)
        arms = _merged(_box_reads(n.then, box)[1], _box_reads(n.other, box)[1])
        return _VARIES, _merged(cr, arms)
    if kind is Unary:
        v, reads = _box_reads(n.arg, box)
        if n.op == "neg":
            return _VARIES, reads
        return (_VARIES if v is _VARIES else not v), _not_affine(reads)
    return _VARIES, {}


def _decided(n: Binary, box: Mapping[str, tuple[int, int] | None]) -> object:
    """For a comparison n of a boxed name with an integer constant: its
    truth when the same over the name's whole range, ``_FIXED`` when the
    range is not given; else ``_VARIES``."""
    hit = _compared(n, (InputRef,))
    if hit is None or hit[0] not in box or type(hit[1]) is not int:
        return _VARIES
    name, c, op = hit
    if box[name] is None:
        return _FIXED
    lo, hi = box[name]
    if any(lo < c + k <= hi for k in _CUT_AT[op]):
        return _VARIES
    return _BINARY[op](lo, c)


def _merged(a: dict[str, bool], b: dict[str, bool]) -> dict[str, bool]:
    """The reads of two subtrees: a name is read affinely when it is read
    affinely wherever it is read."""
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for name, affine in b.items():
        out[name] = out.get(name, True) and affine
    return out


def _not_affine(reads: dict[str, bool], names: Iterable[str] | None = None) -> dict[str, bool]:
    """reads with the given names (default all) no longer read affinely."""
    names = reads.keys() if names is None else names
    if not any(reads[n] for n in names):
        return reads
    return {n: a and n not in names for n, a in reads.items()}


def substitute(
    e: Expr,
    signals: Mapping[str, Expr] | None = None,
    variables: Mapping[str, Expr] | None = None,
    inputs: Mapping[str, Expr] | None = None,
) -> Expr:
    """Replace references by expressions; missing names are left untouched."""
    def go(n: Expr) -> Expr:
        if isinstance(n, SignalRef):
            if signals is not None and n.name in signals:
                return signals[n.name]
            return n
        if isinstance(n, VarRef):
            if variables is not None and n.name in variables:
                return variables[n.name]
            return n
        if isinstance(n, InputRef):
            if inputs is not None and n.name in inputs:
                return inputs[n.name]
            return n
        if isinstance(n, Const):
            return n
        if isinstance(n, Unary):
            a = go(n.arg)
            return n if a is n.arg else Unary(n.op, a)
        if isinstance(n, Binary):
            l, r = go(n.left), go(n.right)
            return n if l is n.left and r is n.right else Binary(n.op, l, r)
        c, t, o = go(n.cond), go(n.then), go(n.other)
        if c is n.cond and t is n.then and o is n.other:
            return n
        return Ite(c, t, o)

    return go(e)


def partial_eval(e: Expr, binding: Mapping[str, Value]) -> Expr:
    """Fix some inputs/variables to concrete values and fold constants.

    One bottom-up pass that substitutes at the leaves and folds on the way
    up, the same tree as ``fold`` applied after ``substitute``.  Total:
    overflowing folds are skipped.
    """
    if isinstance(e, (InputRef, VarRef)):
        return Const(binding[e.name]) if e.name in binding else e
    if isinstance(e, (Const, SignalRef)):
        return e
    if isinstance(e, Unary):
        return _fold_unary(e.op, partial_eval(e.arg, binding))
    if isinstance(e, Binary):
        return _fold_binary(
            e.op, partial_eval(e.left, binding), partial_eval(e.right, binding)
        )
    c = partial_eval(e.cond, binding)
    if isinstance(c, Const):
        return partial_eval(e.then if c.value else e.other, binding)
    t, o = partial_eval(e.then, binding), partial_eval(e.other, binding)
    return t if t == o else Ite(c, t, o)


def _fold_unary(op: str, a: Expr) -> Expr:
    if op == "not":
        if isinstance(a, Const):
            return Const(not a.value)
        if isinstance(a, Unary) and a.op == "not":
            return a.arg
    elif op == "neg" and isinstance(a, Const):
        n = -a.value
        if INT64_MIN <= n <= INT64_MAX:
            return Const(n)
    return Unary(op, a)


def _fold_binary(op: str, a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        try:
            return Const(eval_expr(Binary(op, a, b), {}))
        except ArithmeticOverflow:
            pass  # keep the node, evaluation will raise with context
    if op == "and":
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if FALSE in (a, b):
            return FALSE
    elif op == "or":
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if TRUE in (a, b):
            return TRUE
    elif op == "xor":
        if a == FALSE:
            return b
        if b == FALSE:
            return a
    return Binary(op, a, b)


def fold(e: Expr) -> Expr:
    """Bottom-up constant folding.  Total: overflowing folds are skipped."""
    return partial_eval(e, {})


def structural_key(e: Expr) -> tuple:
    """Total order key used for canonical operand ordering."""
    return _structural_key(e, structural_key)


def _structural_key(e: Expr, sub: Callable[[Expr], tuple]) -> tuple:
    """e's structural key, with ``sub`` giving its children's keys."""
    if isinstance(e, Const):
        v = e.value
        # bools sort before ints before enum variants, values ascending
        if isinstance(v, bool):
            tag = (0, int(v))
        elif isinstance(v, int):
            tag = (1, v)
        else:
            tag = (2, v)
        return (0, tag)
    if isinstance(e, InputRef):
        return (1, e.name)
    if isinstance(e, VarRef):
        return (2, e.name)
    if isinstance(e, SignalRef):
        return (3, e.name)
    if isinstance(e, Unary):
        return (4, e.op, sub(e.arg))
    if isinstance(e, Binary):
        return (5, e.op, sub(e.left), sub(e.right))
    return (6, sub(e.cond), sub(e.then), sub(e.other))


def normalize(e: Expr) -> Expr:
    """Canonical form: folded constants, sorted commutative operands,
    double negation removed.  Idempotent; clone detection compares these.

    Structural keys are memoised per node for the call, so each node is
    keyed at most once instead of whole operand subtrees being keyed
    again at every commutative node above them.
    """
    # id -> (node, its structural_key); holding the node keeps its id from
    # being reused within the call
    keys: dict[int, tuple[Expr, tuple]] = {}

    def key(n: Expr) -> tuple:
        hit = keys.get(id(n))
        if hit is not None:
            return hit[1]
        k = _structural_key(n, key)
        keys[id(n)] = (n, k)
        return k

    return _normalize(e, key)


def _normalize(e: Expr, key: Callable[[Expr], tuple]) -> Expr:
    if isinstance(e, (Const, InputRef, VarRef, SignalRef)):
        return e
    if isinstance(e, Unary):
        return _fold_unary(e.op, _normalize(e.arg, key))
    if isinstance(e, Binary):
        a, b = _normalize(e.left, key), _normalize(e.right, key)
        op = e.op
        if op in ("add", "sub") and b == Const(0):
            return a
        if op == "add" and a == Const(0):
            return b
        if op == "mul":
            if Const(0) in (a, b):
                return Const(0)
            if a == Const(1):
                return b
            if b == Const(1):
                return a
        if op == "eq" and a == b:
            return TRUE
        if op in ("ne", "lt", "gt") and a == b:
            return FALSE
        if op in ("le", "ge") and a == b:
            return TRUE
        if op in COMMUTATIVE_OPS and key(b) < key(a):
            a, b = b, a
        return _fold_binary(op, a, b)
    c = _normalize(e.cond, key)
    if isinstance(c, Const):
        return _normalize(e.then, key) if c.value else _normalize(e.other, key)
    t, o = _normalize(e.then, key), _normalize(e.other, key)
    if t == o:
        return t
    if t == TRUE and o == FALSE:
        return c
    if t == FALSE and o == TRUE:
        return _fold_unary("not", c)
    return Ite(c, t, o)


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
    if isinstance(e, Const):
        if isinstance(e.value, bool):
            return "true" if e.value else "false"
        return str(e.value)
    if isinstance(e, (InputRef, SignalRef)):
        return e.name
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Unary):
        inner = to_str(e.arg)
        if isinstance(e.arg, (Binary, Ite)):
            inner = f"({inner})"
        return ("!" if e.op == "not" else "-") + inner
    if isinstance(e, Binary):
        if e.op in ("min", "max"):
            return f"{e.op}({to_str(e.left)}, {to_str(e.right)})"
        l, r = to_str(e.left), to_str(e.right)
        if isinstance(e.left, (Binary, Ite)):
            l = f"({l})"
        if isinstance(e.right, (Binary, Ite)):
            r = f"({r})"
        return f"{l} {_INFIX[e.op]} {r}"
    return f"ite({to_str(e.cond)}, {to_str(e.then)}, {to_str(e.other)})"
