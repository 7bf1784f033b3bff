"""Reachable-state unfolding.

A symbolic step summary is turned into an explicit transition system: state
variables become enumerated states, each state keeps its output expressions
specialized to that state (functions of inputs only), and transitions carry
input guards partitioned by successor.  Every transition also remembers one
concrete input row, so counterexample traces can be replayed later, and every
state keeps the transition each of its enumerated input rows takes, and per
transition the bitset of those rows, which the simulation check reads
instead of the guards.

An integer input that a state's specialised updates and guard compare with
constants is split where those comparisons can change truth.  On an
interval where they do not read its value otherwise, the interval is one
row, at its least value; where they do, each value is a row.  Every other
input is enumerated value by value.  ``_Image.rows`` enumerates one state's
rows and the successor each reaches, evaluating the state's updates as
closures compiled once per state; ``unfold_to_ts``, ``compute_image`` and
``efa.image_map`` keep only their own bookkeeping around it.  Each of them
lists its expressions' nodes once (``postorder``) and specialises them to
every state in one flat loop over that list.
"""

from __future__ import annotations

import itertools
import math
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
    conjoin,
    disjoin,
    postorder,
    render,
    specialise,
)
from .model import DataType, EnumType, IntType, domain_size, in_domain
from .rows import box_reads, compile_all, input_uses
from .solver import DEFAULT_BUDGET, Domain, interval_starts
from .symbolic import SymbolicStep

DEFAULT_STATE_BUDGET = 100_000
# Bitsets of up to this many rows are built on Python ints, a word each;
# longer ones are filled in bytearrays, where setting bits one by one on an
# ever longer int would copy it at every step (quadratic in the rows).
WORD_ROWS = 64
# An integer input read by value with at most this many values takes every
# value, in the unfolding and in the simulation's output comparisons:
# splitting its range costs more than the rows it saves.
SPLIT_MIN_VALUES = 64

StateVec = tuple[Value, ...]


Row = tuple[tuple[Value, ...], StateVec]


def spans(dt: IntType, starts: Sequence[int]) -> list[tuple[int, int]]:
    """The (least, greatest) values of the intervals with these starts."""
    return list(zip(starts, [s - 1 for s in starts[1:]] + [dt.hi]))


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
        self, binding: dict[str, Value], spec: list[Expr], guard: Expr | None = None,
    ) -> tuple[tuple[str, ...], tuple[tuple[Value, ...], ...], Iterator[Row]]:
        """The inputs a state's rows range over, each one's row values, and
        the rows themselves.

        spec are the updates of ``var_names``, and guard the guard, both
        specialised to the state; they are compiled once, together, and
        only the inputs they still mention are enumerated, in
        ``itertools.product`` order of their row values; every other input
        sits at its first value.  An integer input they compare with
        constants is split into intervals where those comparisons can
        change truth (``input_uses``, ``interval_starts``).  One only
        compared takes one row per interval, at its least value.  One also
        read otherwise, with more than ``SPLIT_MIN_VALUES`` values, takes a
        row per value on the intervals where some box of the split inputs'
        intervals reads it (``box_reads``), and one row elsewhere.  The
        budget counts these rows.  Each row the guard
        admits (every row without one) yields its values over the inputs
        and the successor vector; ``assignment`` makes a row a total
        assignment.
        """
        exprs = spec if guard is None else spec + [guard]
        cuts, reads = input_uses(exprs)
        names = tuple(sorted(cuts))
        dtypes = self.dom.dtypes
        # per name: the (least, greatest) values of the segments each value
        # of which is a row, or None for every declared value
        plan: list[tuple[tuple[int, int], ...] | None] = [None] * len(names)
        split = {}
        if self.ints and any(cuts.values()):
            for k, n in enumerate(names):
                s = interval_starts(dtypes[n], cuts[n])
                if s is not None and (
                    n not in reads or len(s) > 1 and domain_size(dtypes[n]) > SPLIT_MIN_VALUES
                ):
                    plan[k] = tuple((lo, lo) for lo in s)
                    if n in reads:
                        split[k] = spans(dtypes[n], s)
        # one row per interval of a split name bounds the rows from below
        if split and self._count(names, plan) <= self.budget:
            for k, segments in self._split(exprs, names, split).items():
                plan[k] = segments
        space = self._count(names, plan)
        if space > self.budget:
            state = _label(self.var_names, [binding[v] for v in self.var_names])
            raise DomainTooLarge(
                f"unfolding {self.step.name} needs {space} input rows in state "
                f"{state} (budget {self.budget})"
            )
        key = (names, tuple(plan))
        values = self._row_values.get(key)
        if values is None:
            values = self._row_values[key] = tuple(
                self._values(n) if g is None
                else tuple(itertools.chain.from_iterable(range(lo, hi + 1) for lo, hi in g))
                for n, g in zip(names, plan)
            )
        return names, values, self._walk(binding, names, values, spec, guard)

    def _count(self, names: tuple[str, ...], plan: list) -> int:
        return math.prod(
            domain_size(self.dom.dtypes[n]) if g is None else sum(hi - lo + 1 for lo, hi in g)
            for n, g in zip(names, plan)
        )

    def _split(
        self, exprs: list[Expr], names: tuple[str, ...], split: dict[int, list[tuple[int, int]]]
    ) -> dict[int, tuple[tuple[int, int], ...]]:
        """Per split name (by position), its segments: each interval that
        some box of the split names' intervals reads it on, and the least
        value of every other."""
        read = {k: [False] * len(r) for k, r in split.items()}
        order = postorder(exprs)
        for box in itertools.product(*(enumerate(r) for r in split.values())):
            found = box_reads(exprs, {names[k]: span for k, (_, span) in zip(split, box)}, order)
            for k, (i, _) in zip(split, box):
                read[k][i] |= names[k] in found
        return {
            k: tuple((lo, hi if r else lo) for (lo, hi), r in zip(split[k], read[k]))
            for k in split
        }

    def _values(self, name: str) -> tuple[Value, ...]:
        if name not in self._declared:
            self._declared[name] = self.dom.values(name)
        return self._declared[name]

    def _walk(
        self, binding: dict[str, Value], names: tuple[str, ...],
        values: tuple[tuple[Value, ...], ...], spec: list[Expr], guard: Expr | None,
    ) -> Iterator[Row]:
        fns = compile_all(spec if guard is None else spec + [guard], names)
        checks = [
            (v, self.step.vars[v][0], f) for v, f in zip(self.var_names, fns)
        ]
        admits = None if guard is None else fns[-1]
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
    spec = specialise([step.updates[v] for v in image.var_names], state)
    names, _, rows = image.rows(dict(state), spec)
    least: dict[StateVec, dict[str, Value]] = {}
    for combo, succ in rows:
        if succ not in least:
            least[succ] = image.assignment(names, combo)
    return least


class StateRows(NamedTuple):
    """The input rows one state's unfolding enumerated.

    ``values[k]`` are the row values of ``names[k]``, ascending: every
    declared value, or for an integer input split into intervals, some of
    them, each standing for the values up to the next one (the last one
    up to the declared maximum).  Row i is the i-th combination of the
    names' row values in ``itertools.product`` order and stands for every
    declared input its intervals contain; ``edges[i]`` is the position, in the
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
    ports = sorted(step.outputs)
    roots = [step.outputs[p] for p in ports] + [step.updates[v] for v in var_names]
    nodes = postorder(roots)

    queue = 0
    while queue < len(states):
        sidx = queue
        queue += 1
        binding = dict(zip(var_names, states[sidx]))
        spec = specialise(roots, binding, nodes)
        outputs.append(dict(zip(ports, spec)))
        names, values, rows = image.rows(binding, spec[len(ports):])
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
    happens for inputs outside the system's declared domain.  A state's
    outputs and guards are compiled once per set of names the rows give.
    """
    state = ts.init
    out: list[dict[str, Value]] = []
    compiled: dict[tuple, list] = {}
    for row in rows:
        key = (state, tuple(row))
        if key not in compiled:
            exprs = [*ts.outputs[state].values(), *(g for g, _ in ts.transitions[state])]
            compiled[key] = compile_all(exprs, key[1])
        values = tuple(row.values())
        got = [f(values) for f in compiled[key]]
        out.append(dict(zip(ts.outputs[state], got)))
        held = got[len(ts.outputs[state]):]
        matches = [t for (_, t), h in zip(ts.transitions[state], held) if h]
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
    text = render([e for outs in ts.outputs for e in outs.values()]
                  + [g for edges in ts.transitions for g, _ in edges])
    for i in range(len(ts.states)):
        outs = "\\n".join(f"{p}: {text[id(e)]}" for p, e in ts.outputs[i].items())
        lines.append(f"  s{i} [label=\"{ts.label(i)}\\n{outs}\"];")
    for i, edges in enumerate(ts.transitions):
        for g, t in edges:
            label = "" if g == TRUE else f" [label=\"{text[id(g)]}\"]"
            lines.append(f"  s{i} -> s{t}{label};")
    lines.append("}")
    return "\n".join(lines) + "\n"
