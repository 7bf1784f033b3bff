"""Reachable-state unfolding.

A symbolic step summary is turned into an explicit transition system: state
variables become enumerated states, each state keeps its output expressions
specialized to that state (functions of inputs only), and transitions carry
input guards partitioned by successor.  Every transition also remembers one
concrete input row, so counterexample traces can be replayed later, and every
state keeps the transition each of its enumerated input rows takes, and per
transition the bitset of those rows, which the simulation check reads
instead of the guards.

An integer input that a state's specialised updates, guard and outputs only
compare with constants is enumerated one row per interval of its declared
range on which every such comparison keeps its truth; the row's value is
the interval's least value.  Every other input is enumerated value by
value.  ``_Image.rows`` enumerates one state's rows and the successor each
reaches, evaluating the state's updates as closures compiled once per
state; ``unfold_to_ts``, ``compute_image`` and ``efa.image_map`` keep only
their own bookkeeping around it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Collection, Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple

from .errors import DomainError, DomainTooLarge, StateBudgetExceeded
from .exprs import (
    CMP_OPS,
    Binary,
    Const,
    Expr,
    InputRef,
    Ite,
    TRUE,
    Unary,
    Value,
    compile_expr,
    conjoin,
    disjoin,
    eval_expr,
    partial_eval,
    to_str,
)
from .model import DataType, EnumType, IntType, domain_size, in_domain
from .solver import DEFAULT_BUDGET, Domain
from .symbolic import SymbolicStep

DEFAULT_STATE_BUDGET = 100_000
# Bitsets of up to this many rows are built on Python ints, a word each;
# longer ones are filled in bytearrays, where setting bits one by one on an
# ever longer int would copy it at every step (quadratic in the rows).
WORD_ROWS = 64
# Enumerate comparison-only integer inputs one row per interval; when off,
# every integer input is enumerated value by value, as a reference.
INTERVAL_ROWS = True

StateVec = tuple[Value, ...]


Row = tuple[tuple[Value, ...], StateVec]

# ``u op c`` can change truth only between c + k - 1 and c + k, for these k
_CUT_AT = {"lt": (0,), "ge": (0,), "le": (1,), "gt": (1,), "eq": (0, 1), "ne": (0, 1)}
# ``c op u`` is ``u op' c``
_MIRROR = {"lt": "gt", "gt": "lt", "le": "ge", "ge": "le", "eq": "eq", "ne": "ne"}


def input_uses(
    exprs: Iterable[Expr], kinds: tuple[type, ...] = (InputRef,)
) -> dict[str, set[int] | None]:
    """Per name the expressions reference through a node of kinds: the
    cut points of its comparisons with constants, or None when some
    occurrence uses its value in any other way.

    A cut point c says that some comparison may be true at c - 1 and false
    at c, or the other way round.  An occurrence is a comparison only as a
    direct operand of a comparison whose other operand is a ``Const``.
    """
    uses: dict[str, set[int] | None] = {}
    stack = list(exprs)
    while stack:
        n = stack.pop()
        kind = type(n)
        if kind is Binary:
            left, right, op = n.left, n.right, n.op
            if op in CMP_OPS:
                if type(left) in kinds and type(right) is Const:
                    ref, c = left, right.value
                elif type(right) in kinds and type(left) is Const:
                    ref, c, op = right, left.value, _MIRROR[op]
                else:
                    ref = None
                if ref is not None:
                    cuts = uses.setdefault(ref.name, set())
                    # a comparison with a non-integer has one truth value
                    if cuts is not None and isinstance(c, int):
                        cuts.update(int(c) + k for k in _CUT_AT[op])
                    continue
            stack.append(right)
            stack.append(left)
        elif kind in kinds:
            uses[n.name] = None
        elif kind is Unary:
            stack.append(n.arg)
        elif kind is Ite:
            stack += (n.other, n.then, n.cond)
    return uses


def interval_starts(dt: DataType, cuts: Collection[int] | None) -> tuple[int, ...] | None:
    """The least values of the intervals the cut points split an integer
    range into, in ascending order; None when the input is enumerated value
    by value (not an integer, no cuts given, or ``INTERVAL_ROWS`` off)."""
    if cuts is None or not INTERVAL_ROWS or not isinstance(dt, IntType):
        return None
    return (dt.lo, *sorted(c for c in set(cuts) if dt.lo < c <= dt.hi))


class _Image:
    """A step's successors, one state and one input row at a time: the one
    loop that evaluates a step's updates per input row.  For every state of
    one call it keeps each input's declared values, and one row-values
    tuple per distinct set of rows, which the states enumerating those
    rows share."""

    def __init__(self, step: SymbolicStep, budget: int):
        self.step = step
        self.budget = budget
        self.var_names = tuple(sorted(step.vars))
        self.dom = Domain(dict(step.inputs))
        self.base = {n: self.dom.first(n) for n in self.dom.sorted_names()}
        self._declared: dict[str, tuple[Value, ...]] = {}
        self._row_values: dict[tuple, tuple[tuple[Value, ...], ...]] = {}
        self.ints = any(isinstance(dt, IntType) for dt in step.inputs.values())

    def rows(
        self, binding: dict[str, Value], updates: Mapping[str, Expr],
        guard: Expr | None = None, outputs: Iterable[Expr] = (),
    ) -> tuple[tuple[str, ...], tuple[tuple[Value, ...], ...], Iterator[Row]]:
        """The inputs a state's rows range over, each one's row values, and
        the rows themselves.

        The updates and the guard are specialised to the state and compiled
        once, and only the inputs they still mention are enumerated, in
        ``itertools.product`` order of their row values; every other input
        sits at its first value.  An integer input that they and the
        (specialised) outputs only compare with constants takes one row per
        interval, at its least value (``input_uses``, ``interval_starts``).
        The budget counts these rows.  Each row the guard admits (every row
        without one) yields its values over the inputs and the successor
        vector; ``assignment`` makes a row a total assignment.
        """
        spec = [partial_eval(updates[v], binding) for v in self.var_names]
        if guard is not None:
            guard = partial_eval(guard, binding)
        uses = input_uses(spec if guard is None else spec + [guard])
        # a step without integer inputs has nothing to split
        if self.ints and any(cuts is not None for cuts in uses.values()):
            for n, cuts in input_uses(outputs).items():
                if cuts is None and n in uses:
                    uses[n] = None
        names = tuple(sorted(uses))
        starts = [interval_starts(self.dom.dtypes[n], uses[n]) for n in names]
        space = math.prod(
            domain_size(self.dom.dtypes[n]) if s is None else len(s)
            for n, s in zip(names, starts)
        )
        if space > self.budget:
            state = _label(self.var_names, [binding[v] for v in self.var_names])
            raise DomainTooLarge(
                f"unfolding {self.step.name} needs {space} input rows in state "
                f"{state} (budget {self.budget})"
            )
        key = (names, tuple(starts))
        values = self._row_values.get(key)
        if values is None:
            values = self._row_values[key] = tuple(
                self._values(n) if s is None else s for n, s in zip(names, starts)
            )
        return names, values, self._walk(binding, names, values, spec, guard)

    def _values(self, name: str) -> tuple[Value, ...]:
        if name not in self._declared:
            self._declared[name] = self.dom.values(name)
        return self._declared[name]

    def _walk(
        self, binding: dict[str, Value], names: tuple[str, ...],
        values: tuple[tuple[Value, ...], ...], spec: list[Expr], guard: Expr | None,
    ) -> Iterator[Row]:
        checks = [
            (v, self.step.vars[v][0], compile_expr(e, names))
            for v, e in zip(self.var_names, spec)
        ]
        admits = None if guard is None else compile_expr(guard, names)
        for combo in itertools.product(*values):
            if admits is not None and not admits(combo):
                continue
            succ = []
            for v, dt, f in checks:
                val = f(combo)
                if not in_domain(dt, val):
                    raise DomainError(
                        f"{self.step.name}: {v}={val!r} leaves {dt} from state "
                        f"{binding} on inputs {dict(zip(names, combo))}"
                    )
                succ.append(val)
            yield combo, tuple(succ)

    def assignment(self, names: tuple[str, ...], combo: tuple[Value, ...]) -> dict[str, Value]:
        """A row as a total assignment, other inputs at their first value."""
        return self.base | dict(zip(names, combo))


def compute_image(
    step: SymbolicStep,
    state: Mapping[str, Value],
    budget: int = DEFAULT_BUDGET,
) -> dict[StateVec, dict[str, Value]]:
    """Successor states of one state with the least input row reaching each.

    Successors are keyed by the sorted-variable value vector; inputs the
    updates do not mention sit at their first domain value in the witness.
    """
    image = _Image(step, budget)
    names, _, rows = image.rows(dict(state), step.updates)
    least: dict[StateVec, dict[str, Value]] = {}
    for combo, succ in rows:
        if succ not in least:
            least[succ] = image.assignment(names, combo)
    return least


class StateRows(NamedTuple):
    """The input rows one state's unfolding enumerated.

    ``values[k]`` are the row values of ``names[k]``: every declared value,
    or for an integer input enumerated by intervals, each interval's least
    value, the interval reaching up to the next one (the last one to the
    declared maximum).  Row i is the i-th combination of the names' row
    values in ``itertools.product`` order and stands for every declared
    input its intervals contain; ``edges[i]`` is the position, in the
    state's transition list, of the transition row i takes, ``targets[j]``
    is the successor state of transition j, and bit i of ``bits[j]`` is set
    when row i takes transition j.
    """

    names: tuple[str, ...]
    values: tuple[tuple[Value, ...], ...]
    edges: list[int]
    targets: list[int]
    bits: list[int]


@dataclass
class Ts:
    """Explicit transition system over enumerated reachable states.

    ``rows`` holds one StateRows per state when the system was unfolded and
    is empty for a system built by hand, whose guards are then the only
    description of its transitions.
    """

    name: str
    var_names: tuple[str, ...]
    states: list[StateVec]
    init: int
    outputs: list[dict[str, Expr]]
    transitions: Sequence[list[tuple[Expr, int]]]
    witnesses: dict[tuple[int, int], dict[str, Value]]
    inputs: dict[str, DataType]
    enums: dict[str, EnumType] = field(default_factory=dict)
    rows: list[StateRows] = field(default_factory=list)

    def input_domain(self) -> Domain:
        return Domain(dict(self.inputs))

    def state_binding(self, idx: int) -> dict[str, Value]:
        return dict(zip(self.var_names, self.states[idx]))

    def label(self, idx: int) -> str:
        return _label(self.var_names, self.states[idx])


def _label(var_names: Sequence[str], vec: Sequence[Value]) -> str:
    if not var_names:
        return "s0"
    return ",".join(f"{v}={_fmt(x)}" for v, x in zip(var_names, vec))


def _fmt(v: Value) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


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


def _guards(rows: StateRows, inputs: Mapping[str, DataType]) -> list[Expr]:
    """One guard per transition: the disjunction of its rows' predicates,
    or TRUE when every row takes the only transition.  A row's predicate
    conjoins, per name, ``u == v`` for one value or ``lo <= u && u <= hi``
    for an interval."""
    if len(rows.targets) == 1:
        return [TRUE]
    cells = [
        _cells(InputRef(n), vals, inputs[n]) for n, vals in zip(rows.names, rows.values)
    ]
    terms: list[list[Expr]] = [[] for _ in rows.targets]
    for combo, edge in zip(itertools.product(*cells), rows.edges):
        terms[edge].append(conjoin(list(combo)))
    return [disjoin(t) for t in terms]


def _cells(ref: InputRef, vals: tuple[Value, ...], dt: DataType) -> list[Expr]:
    """Per row value of one name, the inputs it stands for as a predicate."""
    if not isinstance(dt, IntType):
        return [Binary("eq", ref, Const(v)) for v in vals]
    out: list[Expr] = []
    for lo, nxt in zip(vals, (*vals[1:], dt.hi + 1)):
        if nxt - 1 == lo:
            out.append(Binary("eq", ref, Const(lo)))
        else:
            out.append(Binary(
                "and", Binary("le", Const(lo), ref), Binary("le", ref, Const(nxt - 1))
            ))
    return out


class _LazyTransitions(Sequence):
    """Transition lists of an unfolded system.

    The simulation check reads the stored rows, so a state's guards are
    only built when something asks for its transition list (DOT output,
    ``run_ts``, ``--emit-ts``).
    """

    def __init__(self, rows: list[StateRows], inputs: Mapping[str, DataType]):
        self._rows = rows
        self._inputs = inputs
        self._built: dict[int, list[tuple[Expr, int]]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, s: int) -> list[tuple[Expr, int]]:
        rows = self._rows[s]
        if s not in self._built:
            guards = _guards(rows, self._inputs)
            self._built[s] = list(zip(guards, rows.targets))
        return self._built[s]


def unfold_to_ts(
    step: SymbolicStep,
    state_budget: int = DEFAULT_STATE_BUDGET,
    budget: int = DEFAULT_BUDGET,
) -> Ts:
    """Breadth-first unfolding from the initial state."""
    image = _Image(step, budget)
    var_names = image.var_names
    init_binding = step.initial_state()
    init_vec = tuple(init_binding[v] for v in var_names)
    for v in var_names:
        dt = step.vars[v][0]
        if not in_domain(dt, init_binding[v]):
            raise DomainError(f"initial {v}={init_binding[v]!r} outside {dt}")

    index: dict[StateVec, int] = {init_vec: 0}
    states: list[StateVec] = [init_vec]
    outputs: list[dict[str, Expr]] = []
    witnesses: dict[tuple[int, int], dict[str, Value]] = {}
    state_rows: list[StateRows] = []

    queue = 0
    while queue < len(states):
        sidx = queue
        queue += 1
        binding = dict(zip(var_names, states[sidx]))
        outputs.append(
            {p: partial_eval(e, binding) for p, e in sorted(step.outputs.items())}
        )
        names, values, rows = image.rows(
            binding, step.updates, outputs=outputs[-1].values()
        )
        edge_of: dict[int, int] = {}
        order: list[int] = []
        edges: list[int] = []
        for combo, vec in rows:
            if vec not in index:
                if len(states) >= state_budget:
                    raise StateBudgetExceeded(
                        f"{step.name}: more than {state_budget} reachable states"
                    )
                index[vec] = len(states)
                states.append(vec)
            tidx = index[vec]
            edge = edge_of.get(tidx)
            if edge is None:
                edge = edge_of[tidx] = len(order)
                order.append(tidx)
                witnesses[(sidx, tidx)] = image.assignment(names, combo)
            edges.append(edge)
        bits = (
            row_bitsets(enumerate(edges), len(order), len(edges)) if len(order) > 1
            else [(1 << len(edges)) - 1]
        )
        state_rows.append(StateRows(names, values, edges, order, bits))

    return Ts(
        name=step.name,
        var_names=var_names,
        states=states,
        init=0,
        outputs=outputs,
        transitions=_LazyTransitions(state_rows, dict(step.inputs)),
        witnesses=witnesses,
        inputs=dict(step.inputs),
        enums=dict(step.enums),
        rows=state_rows,
    )


def run_ts(
    ts: Ts, rows: Sequence[Mapping[str, Value]]
) -> list[dict[str, Value]]:
    """Execute an input trace on the transition system.

    Raises DomainError when no transition guard matches a row, which only
    happens for inputs outside the system's declared domain.
    """
    state = ts.init
    out: list[dict[str, Value]] = []
    for row in rows:
        env = dict(row)
        out.append({p: eval_expr(e, env) for p, e in ts.outputs[state].items()})
        matches = [t for g, t in ts.transitions[state] if eval_expr(g, env)]
        if len(matches) > 1:
            raise AssertionError(
                f"state {ts.label(state)}: {len(matches)} guards matched one row"
            )
        if not matches:
            raise DomainError(
                f"state {ts.label(state)}: no transition for inputs {dict(row)}"
            )
        state = matches[0]
    return out


def ts_to_dot(ts: Ts, title: str | None = None) -> str:
    lines = [
        f"digraph \"{title or ts.name}\" {{",
        "  node [shape=ellipse, fontname=monospace];",
        f"  init [shape=point]; init -> s{ts.init};",
    ]
    for i in range(len(ts.states)):
        outs = "\\n".join(f"{p}: {to_str(e)}" for p, e in ts.outputs[i].items())
        lines.append(f"  s{i} [label=\"{ts.label(i)}\\n{outs}\"];")
    for i, edges in enumerate(ts.transitions):
        for g, t in edges:
            label = "" if g == TRUE else f" [label=\"{to_str(g)}\"]"
            lines.append(f"  s{i} -> s{t}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
