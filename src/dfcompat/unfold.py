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
reaches, evaluating the step's updates as closures compiled once per
system, a row being the state's values followed by the inputs', once the
first states' specialised updates have cost as much to compile
(``_Image._compiled``); ``unfold_to_ts``, ``compute_image`` and
``efa.image_map`` keep only their own bookkeeping around it.  Each of them
lists its expressions' nodes once (``postorder``) and specialises them to
every state in one flat loop over that list: the specialised updates choose
the state's rows, and the specialised outputs are stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial
from collections.abc import Callable, Iterator, Mapping, Sequence

from .errors import DomainError, StateBudgetExceeded
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
    VarRef,
    conjoin,
    disjoin,
    postorder,
    render,
    specialise,
)
from .model import DataType, IntType, first_value, in_domain
from .rows import (
    Grid, Split, box_reads, compile_all, compile_expr, input_uses, nests, plan, row_bitsets,
)
from .solver import DEFAULT_BUDGET, Domain
from .symbolic import SymbolicStep

DEFAULT_STATE_BUDGET = 100_000

StateVec = tuple[Value, ...]


Row = tuple[tuple[Value, ...], StateVec]


class _Image:
    """A step's successors, one state and one input row at a time: the one
    loop that evaluates a step's updates per input row.

    The updates are compiled once, over ``names``, the state variables
    followed by the inputs, each sorted, unless compiling each state's
    specialised updates costs less (``_compiled``); a row is a state's value
    vector followed by input values.  The row plans of every state of one
    call share one cache of declared values and grids.
    """

    def __init__(self, step: SymbolicStep, budget: int, size: float = float("inf")):
        self.step = step
        self.budget = budget
        self.var_names = tuple(sorted(step.vars))
        self.names = self.var_names + tuple(sorted(step.inputs))
        self.dom = Domain(dict(step.inputs))
        self.first = self.dom.first_values()
        self.what = f"unfolding {step.name}"
        self.cache: dict = {}
        # the split rule reads integer inputs only
        self.ints = any(isinstance(dt, IntType) for dt in step.inputs.values())
        self.var_types = [step.vars[v][0] for v in self.var_names]
        self.roots = [step.updates[v] for v in self.var_names]
        # see _compiled: the compiled updates, the nodes they have or more
        # (infinite: never compiled once), and the nodes compiled for single
        # states so far (None: the updates are never to be compiled once)
        self.fns: list[Callable] | None = None
        self.size = size
        self.spent: int | None = 0

    def rows(
        self, binding: dict[str, Value], spec: list[Expr], guard: Expr | None = None,
    ) -> tuple[Grid, Iterator[Row]]:
        """A state's rows, and the rows themselves as they are walked.

        spec are the updates of ``var_names``, and guard the guard, both
        specialised to the state; only the inputs they still mention are
        enumerated, in ``itertools.product`` order of the rows ``rows.plan``
        gives them; every other input sits at its first value.  An integer
        input they compare with constants is split where those comparisons
        can change truth: an interval is one row, at its least value, unless
        they also read its value there (``_box_widen``), and then each value
        is a row.  Without an integer input the split rule cannot apply, and
        the rows of equal sets of mentioned inputs are planned once.  Each
        row the guard admits (every row without one) yields its values over
        ``names`` and the successor vector.
        """
        exprs = spec if guard is None else spec + [guard]
        cuts, reads = input_uses(exprs)
        key = None if self.ints else frozenset(cuts)
        grid = self.cache.get(key)
        if grid is None:
            split = Split(cuts.get, 1, False, partial(_box_widen, exprs)) if self.ints else None
            grid = plan(
                {n: None if n in reads else c for n, c in cuts.items()}, self.dom.dtypes,
                self.budget, self.what,
                lambda _: f" in state {_label(self.var_names, [binding[v] for v in self.var_names])}",
                self.cache, split=split,
            )
            if key is not None:
                self.cache[key] = grid
        return grid, self._walk(binding, grid, spec, guard)

    def _walk(
        self, binding: dict[str, Value], grid: Grid, spec: list[Expr], guard: Expr | None,
    ) -> Iterator[Row]:
        """The rows of grid, over ``names``, with their successors.

        Each row's successor comes from the updates compiled once, when
        they are.  Where they raise, or leave a variable's domain, or are
        not compiled, the row is evaluated with spec, compiled for the state
        when first needed, whose value or error decides: evaluating the
        updates visits every node evaluating spec does, with the same values
        (``_one_type``), and more, which may raise where spec, folded to the
        state, raises nothing.
        """
        own = dict(zip(grid.names, grid.values))
        at = len(self.var_names)
        cols = [(binding[v],) for v in self.var_names]
        cols += [own.get(n, (self.first[n],)) for n in self.names[at:]]
        admits = None if guard is None else compile_all([guard], self.names)[0]
        fns, dts = self._compiled(spec, grid.size), self.var_types
        specialised = None
        for row in itertools.product(*cols):
            if admits is not None and not admits(row):
                continue
            if fns is not None:
                try:
                    succ = tuple([f(row) for f in fns])
                except Exception:  # whatever it is, spec's evaluation decides
                    succ = None
                if succ is not None and all(map(in_domain, dts, succ)):
                    yield row, succ
                    continue
            if specialised is None:
                specialised = compile_all(spec, self.names)
            succ = []
            for v, dt, f in zip(self.var_names, dts, specialised):
                val = f(row)
                if not in_domain(dt, val):
                    read = {n: x for n, x in zip(self.names[at:], row[at:]) if n in own}
                    raise DomainError(
                        f"{self.step.name}: {v}={val!r} leaves {dt} from state "
                        f"{binding} on inputs {read}"
                    )
                succ.append(val)
            yield row, tuple(succ)

    def _compiled(self, spec: list[Expr], rows: int) -> list[Callable] | None:
        """The updates compiled once, for this state and every later one,
        or None while the state's specialised updates spec are compiled.

        A row evaluates every node of the updates, where spec's are fewer
        but compiled per state, at about ``_COMPILE_COST`` evaluations a
        node.  While, over the state's rows, the nodes spec folds away cost
        no more than compiling spec's, the nodes compiled for single states
        are counted; once they are as many as the updates have (``size``,
        which may count more), compiling those has paid, and they are
        compiled once.  They never are after a state folds away more, nor
        when they do not nest (a deeper DAG is evaluated node by node, about
        as slowly as it is specialised) or have no one type (``_one_type``).
        """
        if self.fns is not None or self.spent is None:
            return self.fns
        kept = len(postorder(spec))
        if rows * (self.size - kept) > _COMPILE_COST * kept:
            self.spent = None
        elif self.spent + kept < self.size:
            self.spent += kept
        else:
            order = postorder(self.roots)
            if nests(order) and _one_type(order, self.step):
                self.fns = compile_all(self.roots, self.names)
            else:
                self.spent = None
        return self.fns


# compiling a node costs about as much as evaluating its closure twenty times
_COMPILE_COST = 20


def _one_type(order: list[Expr], step: SymbolicStep) -> bool:
    """Whether every node of order, a ``postorder``, gives values of one
    Python type: a reference its declared type's, a constant its value's, a
    comparison and ``and``, ``or``, ``xor`` and ``not`` of booleans bool,
    arithmetic int, and ``ite``, ``min`` and ``max`` their operands' one
    type.  Then no fold of ``exprs.specialise`` changes a value or its type
    (dropping ``bool()`` from ``and(true, b)`` or from ``not(not b)`` keeps
    a boolean b; ``ite`` arms equal as expressions give equal values of one
    type), and evaluating the nodes, where they do not raise, gives what
    their specialisation gives.  False also when a variable and an input
    share a name, which one row cannot hold apart."""
    if step.vars.keys() & step.inputs.keys():
        return False
    of: dict[int, type | None] = {}
    for n in order:
        kind = type(n)
        if kind is Const:
            t = type(n.value)
        elif kind is Binary:
            a, b = of[id(n.left)], of[id(n.right)]
            if n.op in ("and", "or", "xor"):
                t = bool if a is b is bool else None
            elif n.op in ("min", "max"):
                t = a if a is b else None
            else:
                t = bool if n.op in CMP_OPS else int if n.op in ("add", "sub", "mul") else None
        elif kind is Ite:
            t = of[id(n.then)] if of[id(n.then)] is of[id(n.other)] else None
        elif kind is Unary:
            t = int if n.op == "neg" else bool if n.op == "not" and of[id(n.arg)] is bool else None
        else:
            dt = step.inputs.get(n.name) if kind is InputRef else (
                step.vars[n.name][0] if kind is VarRef and n.name in step.vars else None
            )
            t = None if dt is None else type(first_value(dt))
        if t is None:
            return False
        of[id(n)] = t
    return True


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
    _, rows = image.rows(dict(state), spec)
    at = len(image.var_names)
    least: dict[StateVec, dict[str, Value]] = {}
    for row, succ in rows:
        if succ not in least:
            least[succ] = dict(zip(image.names[at:], row[at:]))
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

    @cached_property
    def kept(self) -> dict[str, dict]:
        """What readers work out about single states of this system, kept
        with it and filled on first ask: per question, its answers by
        argument.  ``output_fn`` keeps its functions here, and the
        simulation (``simcheck._Side``) its parts, cut points and raise
        checks, so both directions of a check, and every fix attempt that
        reads the system, share them."""
        return {}

    def output_fn(self, s: int, port: str, names: tuple[str, ...]) -> Callable:
        """State s's output on port as a function of a row over names,
        compiled when first asked for."""
        fns = self.kept.setdefault("output_fn", {})
        key = (s, port, names)
        f = fns.get(key)
        if f is None:
            f = fns[key] = compile_expr(self.outputs[s][port], names)
        return f

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
    var_names = tuple(sorted(step.vars))
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
    image = _Image(step, budget, len(nodes))

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

    A row giving a declared input a value outside its type raises
    DomainError, in every state.  A state's outputs are the system's own
    (``Ts.output_fn``), compiled once per set of names the rows give.
    """
    state = ts.init
    out: list[dict[str, Value]] = []
    for row in rows:
        if not all(in_domain(ts.inputs[n], v) for n, v in row.items() if n in ts.inputs):
            raise DomainError(
                f"state {ts.label(state)}: no transition for inputs {dict(row)}"
            )
        names, values = tuple(row), tuple(row.values())
        out.append({p: ts.output_fn(state, p, names)(values) for p in ts.outputs[state]})
        stored = ts.rows[state]
        i = 0
        if len(stored.targets) > 1:
            (i,) = stored.place(Grid(stored.names, tuple((row[n],) for n in stored.names)),
                                ts.inputs)
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
