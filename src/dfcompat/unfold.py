"""Reachable-state unfolding.

A symbolic step summary is turned into an explicit transition system: state
variables become enumerated states, each state keeps its output expressions
specialized to that state (functions of inputs only), and transitions carry
input guards partitioned by successor.  Every transition also remembers one
concrete input row, so counterexample traces can be replayed later, and every
state keeps the transition each of its enumerated input rows takes, which
the simulation check reads instead of the guards.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from collections.abc import Mapping, Sequence
from typing import NamedTuple

from .errors import DomainError, DomainTooLarge, StateBudgetExceeded
from .exprs import (
    Binary,
    Const,
    Expr,
    InputRef,
    Ite,
    TRUE,
    Unary,
    Value,
    VarRef,
    conjoin,
    disjoin,
    eval_expr,
    free_inputs,
    partial_eval,
    to_str,
)
from .model import DataType, EnumType, IntType, in_domain
from .solver import DEFAULT_BUDGET, Domain
from .symbolic import SymbolicStep

DEFAULT_STATE_BUDGET = 100_000

StateVec = tuple[Value, ...]


def expr_interval(e: Expr, dom: Domain) -> tuple[int, int] | None:
    """Static bounds of an integer expression, None when not integer-typed.

    A coarse corner analysis: sound for bounding reachable values, used to
    fail fast before enumerating a state's whole input space.
    """
    if isinstance(e, Const):
        if isinstance(e.value, int) and not isinstance(e.value, bool):
            return (e.value, e.value)
        return None
    if isinstance(e, (InputRef, VarRef)):
        dt = dom.dtypes.get(e.name)
        return (dt.lo, dt.hi) if isinstance(dt, IntType) else None
    if isinstance(e, Binary):
        a = expr_interval(e.left, dom)
        b = expr_interval(e.right, dom)
        if a is None or b is None:
            return None
        if e.op == "add":
            return (a[0] + b[0], a[1] + b[1])
        if e.op == "sub":
            return (a[0] - b[1], a[1] - b[0])
        if e.op == "mul":
            corners = [x * y for x in a for y in b]
            return (min(corners), max(corners))
        if e.op == "min":
            return (min(a[0], b[0]), min(a[1], b[1]))
        if e.op == "max":
            return (max(a[0], b[0]), max(a[1], b[1]))
        return None
    if isinstance(e, Ite):
        t = expr_interval(e.then, dom)
        o = expr_interval(e.other, dom)
        if t is None or o is None:
            return None
        return (min(t[0], o[0]), max(t[1], o[1]))
    if isinstance(e, Unary) and e.op == "neg":
        a = expr_interval(e.arg, dom)
        return (-a[1], -a[0]) if a else None
    return None


def _enum_space(dom: Domain, names: Sequence[str], budget: int, what: str) -> None:
    space = dom.space(names)
    if space > budget:
        raise DomainTooLarge(
            f"{what} needs {space} input evaluations per state (budget {budget})"
        )


def compute_image(
    step: SymbolicStep,
    state: Mapping[str, Value],
    budget: int = DEFAULT_BUDGET,
) -> dict[StateVec, dict[str, Value]]:
    """Successor states of one state with the least input row reaching each.

    Successors are keyed by the sorted-variable value vector; inputs the
    updates do not mention sit at their first domain value in the witness.
    """
    var_names = sorted(step.vars)
    dom = Domain(dict(step.inputs))
    spec_updates = {v: partial_eval(step.updates[v], state) for v in var_names}
    active = sorted(set().union(*(free_inputs(e) for e in spec_updates.values()))
                    if spec_updates else set())
    _enum_space(dom, active, budget, "image computation")
    for v in var_names:
        iv = expr_interval(spec_updates[v], dom)
        dt = step.vars[v][0]
        if iv is not None and isinstance(dt, IntType) and (
            iv[1] < dt.lo or iv[0] > dt.hi
        ):
            raise DomainError(
                f"update of {v} always lands in [{iv[0]}, {iv[1]}], outside {dt}"
            )
    base = {n: dom.first(n) for n in dom.sorted_names()}
    image: dict[StateVec, dict[str, Value]] = {}
    for combo in itertools.product(*(dom.values(n) for n in active)):
        row = base | dict(zip(active, combo))
        succ = []
        for v in var_names:
            val = eval_expr(spec_updates[v], row)
            dt = step.vars[v][0]
            if not in_domain(dt, val):
                raise DomainError(
                    f"state {v}={val!r} leaves {dt} from {dict(state)} on {row}"
                )
            succ.append(val)
        image.setdefault(tuple(succ), row)
    return image


class StateRows(NamedTuple):
    """The input rows one state's unfolding enumerated.

    Row i is the i-th combination of the names' declared values in
    ``itertools.product`` order; ``edges[i]`` is the position, in the state's
    transition list, of the transition row i takes, and ``targets[j]`` is
    the successor state of transition j.
    """

    names: tuple[str, ...]
    edges: list[int]
    targets: list[int]


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
    var_names = tuple(sorted(step.vars))
    dom = Domain(dict(step.inputs))
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
    values: dict[str, tuple[Value, ...]] = {}

    base = {n: dom.first(n) for n in dom.sorted_names()}
    queue = 0
    while queue < len(states):
        sidx = queue
        queue += 1
        binding = dict(zip(var_names, states[sidx]))
        outputs.append(
            {p: partial_eval(e, binding) for p, e in sorted(step.outputs.items())}
        )
        spec_updates = {v: partial_eval(step.updates[v], binding) for v in var_names}
        active = sorted(
            set().union(*(free_inputs(e) for e in spec_updates.values()))
            if spec_updates
            else set()
        )
        _enum_space(dom, active, budget, f"unfolding {step.name}")
        for n in active:
            if n not in values:
                values[n] = dom.values(n)
        active_values = [values[n] for n in active]
        edge_of: dict[int, int] = {}
        order: list[int] = []
        edges: list[int] = []
        for combo in itertools.product(*active_values):
            row = dict(zip(active, combo))
            env = base | row
            succ = []
            for v in var_names:
                val = eval_expr(spec_updates[v], env)
                dt = step.vars[v][0]
                if not in_domain(dt, val):
                    raise DomainError(
                        f"{step.name}: {v}={val!r} leaves {dt} from state "
                        f"{binding} on inputs {row or '{}'}"
                    )
                succ.append(val)
            vec = tuple(succ)
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
                witnesses[(sidx, tidx)] = env
            edges.append(edge)
        state_rows.append(StateRows(tuple(active), edges, order))

    return Ts(
        name=step.name,
        var_names=var_names,
        states=states,
        init=0,
        outputs=outputs,
        transitions=_LazyTransitions(state_rows, values),
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
