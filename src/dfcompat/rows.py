"""Expressions over rows of input values.

A row gives each name a query enumerates one value; an integer compared
with constants may take one row per interval of its range.  ``Grid`` lays
the rows out, ``input_uses`` and ``box_reads`` tell which names the rows
must fix, and how finely, and ``compile_all`` turns expressions into
functions of a row, evaluated as ``eval_expr`` evaluates them.

``plan`` is the one place that chooses a query's rows, counts them and
refuses a query over its budget: the unfolding, the simulation, the
satisfiability checks and ``efa.image_map`` all call it.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Collection, Iterable, Mapping, NamedTuple, Sequence

from .errors import ArithmeticOverflow, DomainError, DomainTooLarge
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
from .model import DataType, IntType, domain_size, domain_values

Row = Sequence[Value]

# Enumerate integer inputs compared with constants by intervals, in the
# unfolding, the simulation's queries and the satisfiability checks; when
# off, every integer input is enumerated value by value, as a reference.
INTERVAL_ROWS = True
# An integer input read by value with at most this many values takes every
# value, in the unfolding and in the simulation's output comparisons:
# splitting its range costs more than the rows it saves.
SPLIT_MIN_VALUES = 64
# Bitsets of up to this many rows are built on Python ints, a word each;
# longer ones are filled in bytearrays, where setting bits one by one on an
# ever longer int would copy it at every step (quadratic in the rows).
WORD_ROWS = 64


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

    def place(
        self, other: "Grid", dtypes: Mapping[str, DataType],
        held: Mapping[str, Value] | None = None,
    ) -> list[int]:
        """Per row of other, the row standing for its values, each of which
        lies inside its type in dtypes.  other has every name of this grid
        but those held at one value; its other names do not matter."""
        slots = [0]
        own = dict(zip(self.names, self.values))
        cols: Iterable = zip(other.names, other.values)
        if held:
            cols = sorted([*cols, *((n, (v,)) for n, v in held.items() if n in own)])
        for n, vals in cols:
            mine = own.get(n)
            if mine is None:
                slots = [k for k in slots for _ in vals]
                continue
            if isinstance(dtypes[n], IntType):
                pos = [bisect.bisect_right(mine, v) - 1 for v in vals]
            else:
                pos = list(map(mine.index, vals))
            width = len(mine)
            slots = [k * width + p for k in slots for p in pos]
        return slots


class Split(NamedTuple):
    """How ``plan`` splits an integer it would read by value.

    An integer with more than ``SPLIT_MIN_VALUES`` values is cut at the
    cut points ``cuts(name)`` gives (None: it is not split) and at its ends
    into intervals, unless that leaves its range whole and ``whole`` is
    false.  Each interval takes its ``keep`` least values, and every value
    where ``widen(names, values, intervals)`` says so: given ``values(k)``,
    the row values of the k-th name so far, and per split name by position
    its intervals, it returns per split name whether each interval takes
    every value.
    """

    cuts: Callable[[str], Collection[int] | None]
    keep: int
    whole: bool
    widen: Callable[..., dict[int, list[bool]]]


def plan(
    uses: Mapping[str, Collection[int] | None],
    dtypes: Mapping[str, DataType],
    budget: int,
    what: str,
    where: Callable[[tuple[str, ...]], str],
    cache: dict | None = None,
    times: int = 1,
    split: Split | None = None,
) -> Grid:
    """The rows of a query over the names of uses.

    uses gives each name the cut points of its comparisons with constants,
    or None when the query reads its value otherwise.  An integer with cut
    points takes one row per interval of them, at the interval's least
    value; every other name takes every declared value, unless split.  With
    ``INTERVAL_ROWS`` off every name takes every value.
    Each name's rows are None (every declared value) or (least, greatest)
    segments each value of which is a row; they are counted, times
    ``times``, before any value list is built, and a query over the budget
    is refused with DomainTooLarge, naming ``what`` and ``where(names)``.
    cache, kept by the caller, holds each name's declared values and the
    grids built, so an equal plan is one Grid.  Raises DomainError for
    names dtypes does not declare.
    """
    names = tuple(sorted(uses))
    cache = {} if cache is None else cache
    segs: list[tuple[tuple[int, int], ...] | None] = [None] * len(names)
    sizes: list[int] = []
    cut: dict[int, list[tuple[int, int]]] = {}
    for k, n in enumerate(names):
        dt, c = dtypes.get(n), uses[n]
        if dt is None:
            declared_names(uses, dtypes)  # raises, naming every undeclared name
        size = None
        if c is not None:
            s = interval_starts(dt, c)
            if s is not None:
                segs[k], size = tuple((lo, lo) for lo in s), len(s)
        elif (split is not None and isinstance(dt, IntType)
              and domain_size(dt) > SPLIT_MIN_VALUES and (at := split.cuts(n)) is not None):
            s = interval_starts(dt, at)
            if s is not None and (split.whole or len(s) > 1):
                cut[k] = spans(dt, s)
                segs[k] = tuple((lo, min(lo + split.keep - 1, hi)) for lo, hi in cut[k])
                size = sum(hi - lo + 1 for lo, hi in segs[k])
        sizes.append(domain_size(dt) if size is None else size)
    # the one refusal of every stage: the rows are counted, and counted again
    # once the split rule has widened some intervals
    while True:
        rows = times * math.prod(sizes)
        if rows > budget:
            raise DomainTooLarge(f"{what} needs {rows} input rows{where(names)} (budget {budget})")
        if not cut:
            break
        row_values = lambda k: _values(names[k], segs[k], dtypes, cache)  # noqa: E731
        for k, wide in split.widen(names, row_values, cut).items():
            segs[k] = tuple(r if w else s for r, s, w in zip(cut[k], segs[k], wide))
            sizes[k] = sum(hi - lo + 1 for lo, hi in segs[k])
        cut = {}
    key = (names, tuple(segs))
    grid = cache.get(key)
    if grid is None:
        values = tuple(_values(n, s, dtypes, cache) for n, s in zip(names, segs))
        grid = cache[key] = Grid(names, values)
    return grid


def _values(
    name: str, segs: tuple[tuple[int, int], ...] | None, dtypes: Mapping[str, DataType],
    cache: dict,
) -> tuple[Value, ...]:
    """A name's row values: every value of its segments, or its declared
    values, kept in cache."""
    if segs is not None:
        return tuple(itertools.chain.from_iterable(range(lo, hi + 1) for lo, hi in segs))
    if name not in cache:
        cache[name] = domain_values(dtypes[name])
    return cache[name]


def declared_names(names: Iterable[str], dtypes: Mapping[str, DataType]) -> list[str]:
    """The names in sorted order; DomainError when one is not declared."""
    names = sorted(names)
    missing = [n for n in names if n not in dtypes]
    if missing:
        raise DomainError(f"formula mentions undeclared names: {missing}")
    return names


def interval_starts(dt: DataType, cuts: Collection[int]) -> tuple[int, ...] | None:
    """The least values of the intervals the cut points split an integer
    range into, in ascending order; None for any other type, and for every
    type when ``INTERVAL_ROWS`` is off."""
    if not INTERVAL_ROWS or not isinstance(dt, IntType):
        return None
    return (dt.lo, *sorted(c for c in cuts if dt.lo < c <= dt.hi))


def spans(dt: IntType, starts: Sequence[int]) -> list[tuple[int, int]]:
    """The (least, greatest) values of the intervals with these starts."""
    return list(zip(starts, [s - 1 for s in starts[1:]] + [dt.hi]))


def row_bitsets(placed: Iterable[tuple[int, int]], count: int, size: int) -> list[int]:
    """Row bitsets of size bits for transitions 0..count-1 from (row,
    transition) pairs."""
    if size <= WORD_ROWS:
        bits = [0] * count
        for i, edge in placed:
            bits[edge] |= 1 << i
        return bits
    bufs = [bytearray((size + 7) >> 3) for _ in range(count)]
    for i, edge in placed:
        bufs[edge][i >> 3] |= 1 << (i & 7)
    return [int.from_bytes(b, "little") for b in bufs]


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
    if not nests(order):
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


def nests(order: list[Expr]) -> bool:
    """Whether ``compile_all`` evaluates the nodes of order, a ``postorder``,
    as nested closures: unless they are deeper than ``_NESTED_MAX``.  Its
    loop for a deeper DAG costs about ten times as much per node."""
    return len(order) <= _NESTED_MAX or _height(order) <= _NESTED_MAX


def _height(order: list[Expr]) -> int:
    """The most nodes on a path from a root of order to a leaf."""
    height: dict[int, int] = {}
    top = 0
    for n in order:
        h = 0
        for c in _children(n):
            if height[id(c)] > h:
                h = height[id(c)]
        height[id(n)] = h = h + 1
        if h > top:
            top = h
    return top


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


def row_uses(
    exprs: Iterable[Expr], kinds: tuple[type, ...] = (InputRef,)
) -> dict[str, Collection[int] | None]:
    """The uses ``plan`` takes: per name of ``input_uses``, its cut points,
    or None when some occurrence reads its value otherwise."""
    cuts, reads = input_uses(exprs, kinds)
    return {n: None if n in reads else c for n, c in cuts.items()}


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
