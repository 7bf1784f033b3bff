"""Reachable-state unfolding.

A symbolic step summary is turned into an explicit transition system: state
variables become enumerated states, each state keeps its output expressions
specialized to that state (functions of inputs only), and keeps the input
rows it enumerated (``StateRows``, a ``rows.Grid``), the transition each row
takes, and per transition the bitset of those rows.  These rows are the
one description of the transitions that the simulation check, ``run_ts``,
the ``stats`` counts and each transition's witness row (``Ts.witness``)
read; a transition's guard, the disjunction of its rows, is built only for
the text of DOT output and ``--emit-ts``.

A state's rows are ``rows.plan``'s, split by the unfolding's rule
(``_box_widen``).  ``_Image.rows`` walks them and the successor each
reaches, evaluating the state's updates as closures compiled once per
state; ``unfold_to_ts``, ``compute_image`` and ``efa.image_map`` keep only
their own bookkeeping around it.  Each of them lists its expressions' nodes
once (``postorder``) and specialises them to every state in one flat loop
over that list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial
from collections.abc import Callable, Iterator, Mapping, Sequence

from .errors import DomainError, StateBudgetExceeded
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
from .model import DataType, IntType, in_domain
from .rows import Grid, Split, box_reads, compile_all, input_uses, plan, row_bitsets
from .solver import DEFAULT_BUDGET, Domain
from .symbolic import SymbolicStep

DEFAULT_STATE_BUDGET = 100_000

StateVec = tuple[Value, ...]


Row = tuple[tuple[Value, ...], StateVec]


class _Image:
    """A step's successors, one state and one input row at a time: the one
    loop that evaluates a step's updates per input row.  The row plans of
    every state of one call share one cache of declared values and grids."""

    def __init__(self, step: SymbolicStep, budget: int):
        self.step = step
        self.budget = budget
        self.var_names = tuple(sorted(step.vars))
        self.dom = Domain(dict(step.inputs))
        self.what = f"unfolding {step.name}"
        self.cache: dict = {}
        # the split rule reads integer inputs only
        self.ints = any(isinstance(dt, IntType) for dt in step.inputs.values())

    def rows(
        self, binding: dict[str, Value], spec: list[Expr], guard: Expr | None = None,
    ) -> tuple[Grid, Iterator[Row]]:
        """A state's rows, and the rows themselves as they are walked.

        spec are the updates of ``var_names``, and guard the guard, both
        specialised to the state; they are compiled once, together, and
        only the inputs they still mention are enumerated, in
        ``itertools.product`` order of the rows ``rows.plan`` gives them;
        every other input sits at its first value.  An integer input they
        compare with constants is split where those comparisons can change
        truth: an interval is one row, at its least value, unless they also
        read its value there (``_box_widen``), and then each value is a row.
        Each row the guard admits (every row without one) yields its values
        over the inputs and the successor vector.
        """
        exprs = spec if guard is None else spec + [guard]
        cuts, reads = input_uses(exprs)
        split = Split(cuts.get, 1, False, partial(_box_widen, exprs)) if self.ints else None
        grid = plan(
            {n: None if n in reads else c for n, c in cuts.items()}, self.dom.dtypes,
            self.budget, self.what,
            lambda _: f" in state {_label(self.var_names, [binding[v] for v in self.var_names])}",
            self.cache, split=split,
        )
        return grid, self._walk(binding, grid, spec, guard)

    def _walk(
        self, binding: dict[str, Value], grid: Grid, spec: list[Expr], guard: Expr | None,
    ) -> Iterator[Row]:
        names = grid.names
        fns = compile_all(spec if guard is None else spec + [guard], names)
        checks = [
            (v, self.step.vars[v][0], f) for v, f in zip(self.var_names, fns)
        ]
        admits = None if guard is None else fns[-1]
        for combo in itertools.product(*grid.values):
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


def _box_widen(
    exprs: list[Expr], names: tuple[str, ...], values: Callable[[int], tuple],
    split: dict[int, list[tuple[int, int]]],
) -> dict[int, list[bool]]:
    """The unfolding's split rule: per split input (by position), whether
    each of its intervals is read on some box of the split inputs'
    intervals (``box_reads``), and so takes a row per value."""
    read = {k: [False] * len(r) for k, r in split.items()}
    order = postorder(exprs)
    for box in itertools.product(*(enumerate(r) for r in split.values())):
        found = box_reads(exprs, {names[k]: span for k, (_, span) in zip(split, box)}, order)
        for k, (i, _) in zip(split, box):
            read[k][i] |= names[k] in found
    return read


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
    grid, rows = image.rows(dict(state), spec)
    first = image.dom.first_values()
    least: dict[StateVec, dict[str, Value]] = {}
    for combo, succ in rows:
        if succ not in least:
            least[succ] = first | dict(zip(grid.names, combo))
    return least


@dataclass(eq=False, slots=True)
class StateRows(Grid):
    """The input rows one state's unfolding enumerated, laid out as a
    ``Grid``: an input's row values are every declared value, or for an
    integer split into intervals, some of them.

    ``edges[i]`` is the position, in the state's transition list, of the
    transition row i takes, ``targets[j]`` is the successor state of
    transition j, and bit i of ``bits[j]`` is set when row i takes
    transition j.
    """

    edges: list[int]
    targets: list[int]
    bits: list[int]


@dataclass
class Ts:
    """Explicit transition system over enumerated reachable states.

    ``rows`` holds one StateRows per state, the one description of its
    transitions; every row takes exactly one, so every state has one.
    """

    name: str
    var_names: tuple[str, ...]
    states: list[StateVec]
    init: int
    outputs: list[dict[str, Expr]]
    inputs: dict[str, DataType]
    rows: list[StateRows]

    @cached_property
    def transitions(self) -> list[list[tuple[Expr, int]]]:
        """Per state, its ``(guard, target)`` list, a view built from the
        rows when first read."""
        return [list(zip(_guards(r, self.inputs), r.targets)) for r in self.rows]

    def input_domain(self) -> Domain:
        return Domain(dict(self.inputs))

    def state_binding(self, idx: int) -> dict[str, Value]:
        return dict(zip(self.var_names, self.states[idx]))

    def label(self, idx: int) -> str:
        return _label(self.var_names, self.states[idx])

    def witness(self, s: int, t: int) -> dict[str, Value]:
        """The least stored row taking state s to state t, as a total
        assignment, other inputs at their first value."""
        stored = self.rows[s]
        bits = stored.bits[stored.targets.index(t)]
        first = self.input_domain().first_values()
        return first | stored.row((bits & -bits).bit_length() - 1)


def _label(var_names: Sequence[str], vec: Sequence[Value]) -> str:
    if not var_names:
        return "s0"
    return ",".join(f"{v}={_fmt(x)}" for v, x in zip(var_names, vec))


def _fmt(v: Value) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v)


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
        grid, rows = image.rows(binding, spec[len(ports):])
        edge_of: dict[int, int] = {}
        order: list[int] = []
        edges: list[int] = []
        for _, vec in rows:
            if vec not in index:
                if len(states) >= state_budget:
                    raise StateBudgetExceeded(
                        f"unfolding {step.name} needs more than {state_budget} "
                        f"reachable states (budget {state_budget})"
                    )
                index[vec] = len(states)
                states.append(vec)
            tidx = index[vec]
            edge = edge_of.get(tidx)
            if edge is None:
                edge = edge_of[tidx] = len(order)
                order.append(tidx)
            edges.append(edge)
        bits = (
            row_bitsets(enumerate(edges), len(order), len(edges)) if len(order) > 1
            else [(1 << len(edges)) - 1]
        )
        state_rows.append(StateRows(grid.names, grid.values, edges, order, bits))

    return Ts(
        name=step.name,
        var_names=var_names,
        states=states,
        init=0,
        outputs=outputs,
        inputs=dict(step.inputs),
        rows=state_rows,
    )


def run_ts(
    ts: Ts, rows: Sequence[Mapping[str, Value]]
) -> list[dict[str, Value]]:
    """Execute an input trace on an unfolded transition system: each input
    row takes the transition of the stored row standing for its values.

    A state with one transition takes it on every row; in any other,
    an input outside the system's declared domain raises DomainError.  A
    state's outputs are compiled once per set of names the rows give.
    """
    state = ts.init
    out: list[dict[str, Value]] = []
    compiled: dict[tuple, list] = {}
    for row in rows:
        key = (state, tuple(row))
        if key not in compiled:
            compiled[key] = compile_all(list(ts.outputs[state].values()), key[1])
        values = tuple(row.values())
        out.append(dict(zip(ts.outputs[state], [f(values) for f in compiled[key]])))
        stored = ts.rows[state]
        i = stored.index(row, ts.inputs) if len(stored.targets) > 1 else 0
        if i is None:
            raise DomainError(
                f"state {ts.label(state)}: no transition for inputs {dict(row)}"
            )
        state = stored.targets[stored.edges[i]]
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
