"""Expressions over rows of input values.

A row gives each name a query enumerates one value; an integer compared
with constants may take one row per interval of its range.  ``Grid`` lays
the rows out, ``input_uses`` and ``box_reads`` tell which names the rows
must fix, and how finely, and ``compile_all`` turns expressions into
functions of a row, evaluated as ``eval_expr`` evaluates them.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ArithmeticOverflow
from .exprs import (
    _BINARY,
    _OPERATORS,
    CMP_OPS,
    Binary,
    Const,
    Expr,
    InputRef,
    Ite,
    SignalRef,
    Unary,
    Value,
    VarRef,
    _check64,
    _children,
    postorder,
)
from .model import DataType, IntType

Row = Sequence[Value]


@dataclass(eq=False, slots=True)
class Grid:
    """The rows over some names: the product of each name's row values.

    ``values[k]`` are the row values of ``names[k]``, ascending; names are
    sorted.  An integer's row value stands for the interval up to its next
    row value, the last one up to the declared maximum; any other row value
    for itself.  Row i is the i-th combination of the row values in
    ``itertools.product`` order, the first name most significant, so the
    lowest set bit of a row bitset is the lexicographically least row, and
    the least value of its intervals the least input full enumeration
    would find.
    """

    names: tuple[str, ...]
    values: tuple[tuple[Value, ...], ...]
    size: int = field(init=False)

    def __post_init__(self) -> None:
        self.size = math.prod(map(len, self.values))

    def row(self, i: int) -> dict[str, Value]:
        """Row i: each name's row value."""
        picked = []
        for vals in reversed(self.values):
            i, r = divmod(i, len(vals))
            picked.append(vals[r])
        return dict(zip(self.names, reversed(picked)))

    def index(self, row: Mapping[str, Value], dtypes: Mapping[str, DataType]) -> int | None:
        """The row standing for the values row gives the names, None when
        one lies outside its type in dtypes."""
        return self.place(Grid(self.names, tuple((row[n],) for n in self.names)), dtypes)[0]

    def place(self, other: "Grid", dtypes: Mapping[str, DataType]) -> list[int | None]:
        """Per row of other, the row standing for its values, None where
        one lies outside its type in dtypes.  other has every name of this
        grid; its other names do not matter."""
        slots: list[int | None] = [0]
        own = dict(zip(self.names, self.values))
        for n, vals in zip(other.names, other.values):
            mine = own.get(n)
            if mine is None:
                slots = [k for k in slots for _ in vals]
                continue
            dt, width = dtypes[n], len(mine)
            if isinstance(dt, IntType):
                pos = [bisect.bisect_right(mine, v) - 1 if dt.lo <= v <= dt.hi else None
                       for v in vals]
            else:
                pos = [mine.index(v) if v in mine else None for v in vals]
            slots = [
                None if k is None or p is None else k * width + p
                for k in slots for p in pos
            ]
        return slots


def compile_expr(e: Expr, names: Sequence[str]) -> Callable[[Row], Value]:
    """``e`` as a function of a row whose values are ordered like names."""
    if type(e) is Const:  # as a specialised output often is
        return lambda r, v=e.value: v
    return compile_all([e], names)[0]


def compile_all(roots: Sequence[Expr], names: Sequence[str]) -> list[Callable[[Row], Value]]:
    """Each root as a function of a row whose values are ordered like names.

    ``f(row)`` returns what ``eval_expr(root, dict(zip(names, row)))``
    returns and raises what it raises: both operands of a binary operator
    are evaluated, left first, ``ite`` evaluates only the arm it takes, and
    a reference the row cannot resolve raises ``KeyError`` when called.
    Each distinct node is one closure; one with several parents among the
    roots keeps its value for the last row it saw (by identity, so rows
    must not be changed in place) and is evaluated once per row.  A closure
    calls its operands' closures, a Python call per level, so a DAG deeper
    than ``_NESTED_MAX`` is evaluated by ``_looped`` instead.
    """
    pos = dict(zip(names, range(len(names))))
    shared: set[int] = set()
    order = postorder(roots, shared=shared)
    if len(order) > _NESTED_MAX and _height(order) > _NESTED_MAX:
        return _looped(roots, order, pos)
    fns: dict[int, Callable[[Row], Value]] = {}
    # operands are bound as default arguments, one set per closure
    for n in order:
        kind = type(n)
        if kind is Const:
            f = lambda r, v=n.value: v  # noqa: E731
        elif kind is InputRef or kind is VarRef:
            f = operator.itemgetter(pos[n.name]) if n.name in pos else _raising(KeyError, n.name)
        elif kind is SignalRef:
            f = _read(n, pos)
        elif kind is Binary:
            op = _BINARY.get(n.op) or _raising(ValueError, f"unknown binary op {n.op!r}")
            f = lambda r, op=op, a=fns[id(n.left)], b=fns[id(n.right)]: op(a(r), b(r))  # noqa: E731
        elif kind is Ite:
            f = lambda r, c=fns[id(n.cond)], t=fns[id(n.then)], o=fns[id(n.other)]: (  # noqa: E731
                t(r) if c(r) else o(r)
            )
        else:
            a = fns[id(n.arg)]
            if n.op == "not":
                f = lambda r, a=a: not a(r)  # noqa: E731
            else:
                f = lambda r, op=_unary(n.op), a=a: op(a(r))  # noqa: E731
        if id(n) in shared:
            f = _once_per_row(f)
        fns[id(n)] = f
    return list(map(fns.__getitem__, map(id, roots)))


def _read(n: Expr, pos: Mapping[str, int]) -> Callable[[Row], Value]:
    """A reference as a function of a row."""
    if type(n) is SignalRef:
        return _raising(KeyError, f"unsubstituted signal reference {n.name!r}")
    return operator.itemgetter(pos[n.name]) if n.name in pos else _raising(KeyError, n.name)


def _unary(op: str) -> Callable[[Value], Value]:
    if op == "not":
        return operator.not_
    if op == "neg":
        return lambda a: _check64(-a)
    return _raising(ValueError, f"unknown unary op {op!r}")


# the height up to which compiled closures nest
_NESTED_MAX = 150


def _height(order: list[Expr]) -> int:
    """The most nodes on a path from a root of order to a leaf."""
    height: dict[int, int] = {}
    for n in order:
        height[id(n)] = 1 + max((height[id(c)] for c in _children(n)), default=0)
    return max(height.values())


def _looped(
    roots: Sequence[Expr], order: list[Expr], pos: Mapping[str, int]
) -> list[Callable[[Row], Value]]:
    """``compile_all`` of a deep DAG: each root's value on a row comes from
    a loop over an explicit stack of nodes, operands left first and only the
    taken arm of an ``ite``, keeping each node's value for the last row."""
    at = {id(n): k for k, n in enumerate(order)}
    # per node: its operands' positions and the function of their values
    # (of the row for a leaf, None for an ite)
    steps: list[tuple[tuple[int, ...], Callable | None]] = []
    for n in order:
        kind = type(n)
        kids = tuple(at[id(c)] for c in _children(n))
        if kind is Binary:
            f = _BINARY.get(n.op) or _raising(ValueError, f"unknown binary op {n.op!r}")
        elif kind is Unary:
            f = _unary(n.op)
        elif kind is Const:
            f = lambda r, v=n.value: v  # noqa: E731
        else:
            f = None if kind is Ite else _read(n, pos)
        steps.append((kids, f))
    last: Row | None = None
    vals: dict[int, Value] = {}

    def value(k: int, r: Row) -> Value:
        nonlocal last, vals
        if r is not last:
            last, vals = r, {}
        stack = [k]
        while stack:
            i = stack[-1]
            kids, f = steps[i]
            if f is None:  # an ite needs its condition, then the arm it takes
                c = kids[0]
                kids = (c,) if c not in vals else (kids[1] if vals[c] else kids[2],)
            todo = [j for j in kids if j not in vals]
            if todo:
                stack.append(todo[0])
                continue
            stack.pop()
            vals[i] = vals[kids[0]] if f is None else f(*[vals[j] for j in kids]) if kids else f(r)
        return vals[k]

    return [lambda r, k=at[id(root)]: value(k, r) for root in roots]


def _once_per_row(f: Callable[[Row], Value]) -> Callable[[Row], Value]:
    row = val = None

    def read(r: Row) -> Value:
        nonlocal row, val
        if r is not row:
            val = f(r)  # a raise leaves the slot as it was
            row = r
        return val

    return read


def _raising(cls: type[Exception], arg: str) -> Callable[..., Value]:
    def fail(*_: object) -> Value:
        raise cls(arg)

    return fail


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
    # the operands of a node met again are not pushed again; a reference or
    # a comparison with a constant met again is harmless
    seen: set[int] = set()
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
            elif id(n) not in seen:
                seen.add(id(n))
                stack += (n.right, n.left)
        elif kind in kinds:
            cuts.setdefault(n.name, _NO_CUTS)
            reads.add(n.name)
        elif kind in _OPERATORS and id(n) not in seen:
            seen.add(id(n))
            stack += (n.arg,) if kind is Unary else (n.other, n.then, n.cond)
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
    exprs: Sequence[Expr], box: Mapping[str, tuple[int, int] | None],
    order: list[Expr] | None = None,
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
    the other names.  order, when given, is ``postorder(exprs)``.
    """
    memo: dict[int, tuple[object, dict[str, bool]]] = {}
    for n in postorder(exprs) if order is None else order:
        memo[id(n)] = _box_read(n, box, memo)
    out: dict[str, bool] = {}
    for e in exprs:
        out = _merged(out, memo[id(e)][1])
    return out


def _box_read(
    n: Expr, box: Mapping[str, tuple[int, int] | None],
    memo: Mapping[int, tuple[object, dict[str, bool]]],
) -> tuple[object, dict[str, bool]]:
    """n's value when the same on the whole box (else ``_VARIES``), and
    the boxed names it reads, each with whether affinely, given those of
    its children in memo."""
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
        lv, lr = memo[id(n.left)]
        rv, rr = memo[id(n.right)]
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
        cv, cr = memo[id(n.cond)]
        cr = _not_affine(cr)
        if cv is not _VARIES:
            val, reads = memo[id(n.then if cv else n.other)]
            return val, _merged(cr, reads)
        arms = _merged(memo[id(n.then)][1], memo[id(n.other)][1])
        return _VARIES, _merged(cr, arms)
    if kind is Unary:
        v, reads = memo[id(n.arg)]
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
