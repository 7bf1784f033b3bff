"""Reachable-state unfolding.

A symbolic step summary is turned into an explicit transition system: state
variables become enumerated states, each state keeps its output expressions
specialized to that state (functions of inputs only), and transitions carry
input guards partitioned by successor.  Every transition also remembers one
concrete input row, so counterexample traces can be replayed later, and every
state keeps the transition each of its enumerated input rows takes, and per
transition the bitset of those rows, which the simulation check reads
instead of the guards.

``_Image.rows`` enumerates one state's input rows and the successor each
reaches, evaluating the state's updates as closures compiled once per
state; ``unfold_to_ts``, ``compute_image`` and ``efa.image_map`` keep
only their own bookkeeping around it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import NamedTuple

from .errors import DomainError, DomainTooLarge, StateBudgetExceeded
from .exprs import (
    Binary,
    Const,
    Expr,
    InputRef,
    TRUE,
    Value,
    compile_expr,
    conjoin,
    disjoin,
    eval_expr,
    free_inputs,
    partial_eval,
    to_str,
)
from .model import DataType, EnumType, in_domain
from .solver import DEFAULT_BUDGET, Domain
from .symbolic import SymbolicStep

DEFAULT_STATE_BUDGET = 100_000
# Bitsets of up to this many rows are built on Python ints, a word each;
# longer ones are filled in bytearrays, where setting bits one by one on an
# ever longer int would copy it at every step (quadratic in the rows).
WORD_ROWS = 64

StateVec = tuple[Value, ...]


Row = tuple[tuple[Value, ...], StateVec]


class _Image:
    """A step's successors, one state and one input row at a time: the one
    loop that evaluates a step's updates per input row.  ``values`` keeps
    each input's value tuple for every state of one call."""

    def __init__(self, step: SymbolicStep, budget: int):
        self.step = step
        self.budget = budget
        self.var_names = tuple(sorted(step.vars))
        self.dom = Domain(dict(step.inputs))
        self.base = {n: self.dom.first(n) for n in self.dom.sorted_names()}
        self.values: dict[str, tuple[Value, ...]] = {}

    def rows(
        self, binding: dict[str, Value], updates: Mapping[str, Expr],
        guard: Expr | None = None,
    ) -> tuple[tuple[str, ...], Iterator[Row]]:
        """The inputs a state's rows range over, and the rows themselves.

        The updates and the guard are specialised to the state and compiled
        once, and only the inputs they still mention are enumerated, in
        ``itertools.product`` order; every other input sits at its first
        value.  Each row the guard admits (every row without one) yields
        its values over those inputs and the successor vector;
        ``assignment`` makes a row a total assignment.
        """
        spec = [partial_eval(updates[v], binding) for v in self.var_names]
        mentioned = set().union(*map(free_inputs, spec))
        if guard is not None:
            guard = partial_eval(guard, binding)
            mentioned |= free_inputs(guard)
        names = tuple(sorted(mentioned))
        space = self.dom.space(names)
        if space > self.budget:
            raise DomainTooLarge(
                f"unfolding {self.step.name} needs {space} input evaluations "
                f"per state (budget {self.budget})"
            )
        for n in names:
            if n not in self.values:
                self.values[n] = self.dom.values(n)
        return names, self._walk(binding, names, spec, guard)

    def _walk(
        self, binding: dict[str, Value], names: tuple[str, ...],
        spec: list[Expr], guard: Expr | None,
    ) -> Iterator[Row]:
        checks = [
            (v, self.step.vars[v][0], compile_expr(e, names))
            for v, e in zip(self.var_names, spec)
        ]
        admits = None if guard is None else compile_expr(guard, names)
        for combo in itertools.product(*(self.values[n] for n in names)):
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
    names, rows = image.rows(dict(state), step.updates)
    least: dict[StateVec, dict[str, Value]] = {}
    for combo, succ in rows:
        if succ not in least:
            least[succ] = image.assignment(names, combo)
    return least


class StateRows(NamedTuple):
    """The input rows one state's unfolding enumerated.

    Row i is the i-th combination of the names' declared values in
    ``itertools.product`` order; ``edges[i]`` is the position, in the state's
    transition list, of the transition row i takes, ``targets[j]`` is
    the successor state of transition j, and bit i of ``bits[j]`` is set
    when row i takes transition j.
    """

    names: tuple[str, ...]
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
        if not self.var_names:
            return "s0"
        parts = [f"{v}={_fmt(x)}" for v, x in zip(self.var_names, self.states[idx])]
        return ",".join(parts)


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


def _guards(rows: StateRows, values: Sequence[tuple[Value, ...]]) -> list[Expr]:
    """One guard per transition: the disjunction of its rows' point
    equalities, or TRUE when every row takes the only transition."""
    if len(rows.targets) == 1:
        return [TRUE]
    refs = [InputRef(n) for n in rows.names]
    terms: list[list[Expr]] = [[] for _ in rows.targets]
    for combo, edge in zip(itertools.product(*values), rows.edges):
        terms[edge].append(
            conjoin([Binary("eq", r, Const(v)) for r, v in zip(refs, combo)])
        )
    return [disjoin(t) for t in terms]


class _LazyTransitions(Sequence):
    """Transition lists of an unfolded system.

    The simulation check reads the stored rows, so a state's guards are
    only built when something asks for its transition list (DOT output,
    ``run_ts``, ``--emit-ts``).
    """

    def __init__(self, rows: list[StateRows], values: Mapping[str, tuple[Value, ...]]):
        self._rows = rows
        self._values = values
        self._built: dict[int, list[tuple[Expr, int]]] = {}

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, s: int) -> list[tuple[Expr, int]]:
        rows = self._rows[s]
        if s not in self._built:
            guards = _guards(rows, [self._values[n] for n in rows.names])
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
        names, rows = image.rows(binding, step.updates)
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
        state_rows.append(StateRows(names, edges, order, bits))

    return Ts(
        name=step.name,
        var_names=var_names,
        states=states,
        init=0,
        outputs=outputs,
        transitions=_LazyTransitions(state_rows, image.values),
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
