"""Behavioral compatibility decisions.

Two models are compared through a simulation preorder on their unfolded
transition systems: the candidate must match the reference's outputs on
every mapped port and answer every reference transition, over the
reference side's input domain.  The systems are deterministic, so a
breadth-first search of their product for a reachable pair that breaks
this decides it.  Checking both directions classifies a pair as fully
compatible, safe only for existing callers, safe only for new callers,
or incompatible, and every refusal comes with a replayable input trace,
a shortest one; an output mismatch also carries the two outputs the
simulation compared on the trace's last row.  Extra candidate inputs can
be searched for constant settings that restore compatibility, each
setting verified by the same search with the inputs pinned to it.  Every
query's rows come from ``rows.plan``; an output comparison gives it the
affine two-point split rule.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ArithmeticOverflow, DomainError, DomainTooLarge, IterationCapExceeded
from .exprs import (
    Binary,
    Expr,
    InputRef,
    Value,
    VarRef,
    conjoin,
    partial_eval,
)
from .model import (
    FlatModel,
    IntType,
    InterfaceReport,
    Model,
    PortMapping,
    check_interface,
    derive_port_mapping,
    domain_size,
    dtype_str,
    flatten_and_validate,
)
from .cfg import Cfg, extract_cfg, sorted_order
from .solver import (
    DEFAULT_BUDGET,
    Domain,
    exists_forall_constants,
    sat_witness,  # noqa: F401 - dfbench/tracing.py wraps this module's sat_witness
)
from .rows import (
    Grid,
    Split,
    box_reads,
    input_uses,
    plan,
    row_bitsets,
)
from .symbolic import (
    DEFAULT_SPLIT_CAP,
    SymbolicStep,
    bind_inputs,
    prune_clones,
    rename_inputs,
    restrict_to_outputs,
    summarize,
)
from .unfold import DEFAULT_STATE_BUDGET, Ts, unfold_to_ts


@dataclass(frozen=True)
class CheckConfig:
    clone_pruning: bool = True
    output_split: bool = True
    datastore: str = "internal"
    datastore_order: str = "strict"
    solver_budget: int = DEFAULT_BUDGET
    split_cap: int = DEFAULT_SPLIT_CAP
    state_budget: int = DEFAULT_STATE_BUDGET
    fix_iterations: int = 16


# ---------------------------------------------------------------------------
# simulation preorder


@dataclass
class SimFailure:
    kind: str  # "output-mismatch" | "uncovered-input"
    port: str | None
    rows: list[dict[str, Value]]
    cand_state: str
    ref_state: str
    # on an output mismatch, the reference's and the candidate's output on
    # port at the last row; None otherwise
    expected: Value | None = None
    actual: Value | None = None


@dataclass
class SimResult:
    holds: bool
    failure: SimFailure | None
    pairs: int
    queries: int
    _visited: Callable[[], tuple[tuple[str, str], ...]] = field(
        default=tuple, repr=False, compare=False
    )

    @property
    def visited(self) -> tuple[tuple[str, str], ...]:
        """State labels of the product pairs discovered, in discovery
        order; formatted when read."""
        return self._visited()


# A query part: ``rows.plan``'s uses of some expressions, in a hashable
# form (per name its sorted cut points, or None when read by value).
# Query spaces are cached by their parts.
Part = tuple[tuple[str, "tuple[Value, ...] | None"], ...]


def _part(exprs: Iterable[Expr]) -> Part:
    """The names the expressions read, with the cut points of their
    comparisons."""
    cuts, reads = input_uses(exprs, (InputRef, VarRef))
    if not cuts:
        return ()
    return tuple((n, None if n in reads else tuple(sorted(cuts[n]))) for n in sorted(cuts))


class _Side:
    """One transition system seen through the rows of one direction's
    simulation domain.

    A state's transitions share one part: its stored names and row values,
    the interval starts of an input split into intervals and None for one
    with a row per value.  A state whose rows all take one transition has
    the guard TRUE, with no names, which holds on every row of the domain.
    A state's part, its outputs' parts, cut points and functions, and
    whether an output raises on some rows depend on the system alone: they
    are kept with it (``Ts.kept``), so the check's search, and every fix
    attempt reading the system, answer each once.  The direction's own are
    the row bitsets per query space: the unfolding's bitsets serve the space
    with the state's own rows, and on any other space each row is placed in
    the stored row holding its values.

    Inputs pinned to a value are held: they are left out of every part, so
    no query's rows name them, and each row of a space is placed in the
    stored row holding its values and the pinned ones.
    """

    def __init__(self, ts: Ts, pinned: Mapping[str, Value] | None):
        self.ts = ts
        # the system's pinned inputs
        self.held = {n: v for n, v in pinned.items() if n in ts.inputs} if pinned else None
        kept = ts.kept
        self._parts: dict[int, Part] = kept.setdefault("part", {})
        self._out_parts: dict[tuple[int, str], Part] = kept.setdefault("output_part", {})
        self._affine: dict[tuple[int, str, str], tuple[int, ...] | None] = (
            kept.setdefault("affine_cuts", {})
        )
        self._raising: dict[tuple, bool] = kept.setdefault("raises", {})
        self._bits: dict[tuple[int, Grid], list[int]] = {}

    def output_part(self, s: int, port: str) -> Part:
        """The part of state s's output on port, pinned inputs left out."""
        key = (s, port)
        if key not in self._out_parts:
            self._out_parts[key] = _part([self.ts.outputs[s][port]])
        part = self._out_parts[key]
        return self._free(part) if self.held else part

    def _free(self, part: Part) -> Part:
        """part without the pinned inputs."""
        return tuple(use for use in part if use[0] not in self.held)

    def affine_cuts(self, s: int, port: str, name: str) -> tuple[int, ...] | None:
        """The cut points of name in state s's output on port when, within
        each interval of them, the output reads name affinely or not at
        all; else None."""
        key = (s, port, name)
        if key not in self._affine:
            out = self.ts.outputs[s][port]
            affine = box_reads([out], {name: None}).get(name, True)
            self._affine[key] = tuple(input_uses([out])[0].get(name, ())) if affine else None
        return self._affine[key]

    def raises(self, s: int, port: str, names: tuple[str, ...],
               rows: tuple[tuple[Value, ...], ...]) -> bool:
        """Whether state s's output on port raises on some row of rows, per
        name its values."""
        key = (s, port, names, rows)
        if key not in self._raising:
            f = self.ts.output_fn(s, port, names)
            try:
                for combo in itertools.product(*rows):
                    f(combo)
            except Exception:
                self._raising[key] = True
            else:
                self._raising[key] = False
        return self._raising[key]

    def part(self, s: int) -> Part:
        """The part of state s's guards, pinned inputs left out."""
        if s not in self._parts:
            stored = self.ts.rows[s]
            self._parts[s] = () if len(stored.targets) == 1 else tuple(
                (n, None if len(vals) == domain_size(self.ts.inputs[n]) else vals)
                for n, vals in zip(stored.names, stored.values)
            )
        part = self._parts[s]
        return self._free(part) if self.held else part

    def bits(self, s: int, space: Grid) -> list[int]:
        """Per transition of state s, its row bitset over space, which
        spans the names of the state's part."""
        key = (s, space)
        if key in self._bits:
            return self._bits[key]
        stored = self.ts.rows[s]
        count = len(stored.targets)
        if count == 1:
            bits = [(1 << space.size) - 1]
        elif stored.names == space.names and stored.values == space.values:
            bits = stored.bits
        else:
            slots = stored.place(space, self.ts.inputs, self.held)
            bits = row_bitsets(enumerate(map(stored.edges.__getitem__, slots)), count, space.size)
        self._bits[key] = bits
        return bits


def simulates(
    cand: Ts, ref: Ts, dom: Domain, budget: int = DEFAULT_BUDGET,
    pinned: Mapping[str, Value] | None = None,
) -> SimResult:
    """Can the candidate mimic every behavior of the reference over dom?

    Both systems are deterministic: each stored row of a state takes
    exactly one transition (``tests/test_unfold.py::
    test_every_state_has_a_transition_and_its_bitsets_partition_its_rows``).
    For deterministic systems simulation and trace inclusion coincide, so
    the candidate simulates the reference exactly when no bad pair is
    reachable in their product: a pair whose outputs differ on some row,
    or with a reference row that no candidate transition takes.  A
    breadth-first search from the initial pair decides it, and stops at
    the first bad pair in discovery order.  Systems that may take two
    transitions on one row, say under an environment model, would need the
    greatest simulation fixpoint back.

    A pair's successors are discovered in order of their joint move's least
    row; its joint moves are disjoint, so there are no ties.  Rows, not
    transition numbers, decide the order: a search that meets no uncovered
    row, its ``pairs``, ``queries`` and trace, depend neither on how the
    systems number their transitions nor on which one is the candidate.
    dom must lie inside both systems' declared types of the names they
    declare, as the check's domains do (``check_prepared``); any other
    raises DomainError before the search starts.

    The counterexample is the search tree's path to that pair, each step
    the least row of the joint move that first reached the next pair,
    then the pair's least row on which the output of the first differing
    port, in sorted order, differs (with both outputs there), or else the
    least uncovered row of its first reference transition, in order, that
    has one.  ``pairs`` counts the pairs discovered when the search stops;
    ``queries`` the output and joint checks answered.

    Guards are row bitsets over a query space (``rows.Grid``), so a joint
    move is a nonzero ``ga & gb`` and an uncovered row a set bit of ``gb``
    outside every joint move; outputs compare row by row up to the first
    difference.  A row stands for an interval of each integer name on which
    every expression the query reads is constant, and its values are the
    least ones, so every witness is the one enumerating each value would
    find.  The joint moves of a product pair share one space, over both
    states' parts.  A query whose rows exceed the budget raises
    DomainTooLarge.

    Each name of ``pinned`` holds its value throughout the search: no
    query's rows name it, so the budget counts rows without it, a state's
    transitions are those of its stored rows holding the value, and outputs
    are evaluated at it, as is every failure row.  Since both systems are
    deterministic, the search visits exactly the pairs reachable on the
    pinned values; this is how a constant fix is verified on the systems
    the check unfolded with those names as inputs (``fix_free_ports``).
    """
    a, b = _Side(cand, pinned), _Side(ref, pinned)
    queries = 0
    # the pinned names as columns of one value, which follow a query's rows
    # wherever outputs are evaluated
    pinned = pinned or {}
    pin_names = tuple(sorted(pinned))
    pin_cols = tuple((pinned[n],) for n in pin_names)

    def total(row: dict[str, Value]) -> dict[str, Value]:
        """A failure row over some names, every other name at its first
        value, or a pinned name at its pinned one."""
        return dom.first_values() | pinned | row

    what = f"simulating {ref.name} by {cand.name}"
    for ts in (cand, ref):
        for n, declared in ts.inputs.items():
            dt = dom.dtypes.get(n, declared)
            if dt != declared and not (
                isinstance(dt, IntType) and isinstance(declared, IntType)
                and declared.lo <= dt.lo and dt.hi <= declared.hi
            ):
                raise DomainError(f"{what}: the domain's {n} : {dtype_str(dt)} is not "
                                  f"inside {ts.name}'s {dtype_str(declared)}")
    # the planner's cache, and the spaces planned per tuple of parts
    cache: dict = {}
    spaces: dict[tuple[Part, ...], Grid] = {}

    def space(pair: tuple[int, int], parts: tuple[Part, ...], split: Split | None = None) -> Grid:
        """The rows of a query over these parts, asked at the state pair:
        ``rows.plan`` of the parts' names, a name taking the union of their
        cut points, or every value when one part reads it.  Raises
        DomainError for names outside the domain and DomainTooLarge, naming
        both systems and the state pair, when the rows exceed the budget.
        Spaces planned without a split rule are kept per parts."""
        hit = spaces.get(parts)
        if hit is not None:
            return hit
        uses: dict[str, set[Value] | None] = {}
        for n, c in itertools.chain.from_iterable(parts):
            seen = uses.get(n, ())
            uses[n] = None if c is None or seen is None else {*seen, *c}
        ai, bi = pair
        grid = plan(
            uses, dom.dtypes, budget, what,
            lambda _: f" in candidate state {cand.label(ai)}, reference state {ref.label(bi)}",
            cache, split=split,
        )
        if split is None:
            spaces[parts] = grid
        return grid

    def output_space(pair: tuple[int, int], port: str) -> Grid:
        """The rows of comparing the outputs on port of the candidate's and
        the reference's states of the pair.

        When the outputs read one integer name by value, and both read it
        affinely (``box_reads``) within each interval of their cut points,
        the planner may split its range at those cut points, and each
        interval takes its two least values: on it, the difference of two
        affine functions that is zero at both is zero throughout, so a row
        value's outputs differ from the row's at most where they do at the
        next one.  Evaluating the outputs at
        the interval's greatest value, for every row of the other names,
        must not raise: affine nodes are monotone, so none raises anywhere
        in the interval.  An interval where one does takes every value, and
        the error comes where full enumeration meets it.  Other names, and
        every name of any other comparison, take the rows of ``space``.
        """
        ai, bi = pair
        parts = (a.output_part(ai, port), b.output_part(bi, port))
        hit = spaces.get(parts)
        if hit is not None:
            return hit
        read = {
            n for n, c in itertools.chain.from_iterable(parts)
            if c is None and isinstance(dom.dtypes.get(n), IntType)
        }
        if len(read) != 1:
            return space(pair, parts)

        def affine(name):
            # both outputs' cut points of name, when both read it affinely
            cuts = a.affine_cuts(ai, port, name), b.affine_cuts(bi, port, name)
            return None if None in cuts else {*cuts[0], *cuts[1]}

        consulted: list[bool] = []

        def raising(names, values, split):
            # per interval, whether an output raises at its greatest value
            consulted.append(True)
            ((at, ranges),) = split.items()
            rows, wide = list(map(values, range(len(names)))), []
            names += pin_names
            for _, hi in ranges:
                rows[at] = (hi,)
                top = (*rows, *pin_cols)
                wide.append(a.raises(ai, port, names, top) or b.raises(bi, port, names, top))
            return {at: wide}

        grid = space(pair, parts, Split(affine, 2, True, raising))
        if not consulted:  # nothing was split: the plain space of the parts
            spaces[parts] = grid
        return grid

    def output_diff(ai: int, bi: int, port: str) -> tuple[dict[str, Value], Value, Value] | None:
        # rows in order, the candidate's output evaluated first: the least
        # differing row, and an overflow only where enumeration reaches it
        # first, as sat_witness over the two outputs' inequality; with the
        # reference's and the candidate's output there
        grid = output_space((ai, bi), port)
        names = grid.names + pin_names
        fa, fb = cand.output_fn(ai, port, names), ref.output_fn(bi, port, names)
        for i, combo in enumerate(itertools.product(*grid.values, *pin_cols)):
            if fa(combo) != fb(combo):
                return total(grid.row(i)), fb(combo), fa(combo)
        return None

    # breadth-first search of the product, in discovery order, up to the
    # first bad pair; order grows while it is read.  Per pair after the
    # first, its link: the pair that first reached it, and the space and
    # bit of the least row of that joint move.
    order = [(cand.init, ref.init)]
    seen = set(order)
    links: list[tuple[int, Grid, int] | None] = [None]

    def bad(i: int) -> SimFailure | None:
        """Pair i's least differing output row, or its least reference row
        no candidate transition takes, as a one-row failure; None once its
        successors are discovered, by their joint move's least row."""
        nonlocal queries
        ai, bi = order[i]
        for port in sorted(ref.outputs[bi]):
            queries += 1
            diff = output_diff(ai, bi, port)
            if diff is not None:
                row, expected, actual = diff
                return SimFailure("output-mismatch", port, [row], cand.label(ai),
                                  ref.label(bi), expected, actual)
        grid = space((ai, bi), (a.part(ai), b.part(bi)))
        bits_a, bits_b = a.bits(ai, grid), b.bits(bi, grid)
        found, uncovered = [], None  # (least joint row, successor) per new pair
        for jb, bj in enumerate(ref.rows[bi].targets):
            cover = 0
            for ja, aj in enumerate(cand.rows[ai].targets):
                queries += 1
                joint = bits_a[ja] & bits_b[jb]
                if joint:
                    cover |= joint
                    if (aj, bj) not in seen:
                        seen.add((aj, bj))
                        found.append((_low(joint), aj, bj))
            rest = bits_b[jb] & ~cover
            if rest:
                row = total(grid.row(_low(rest)))
                uncovered = SimFailure("uncovered-input", None, [row], cand.label(ai), ref.label(bi))
                break
        for low, aj, bj in sorted(found):
            order.append((aj, bj))
            links.append((i, grid, low))
        return uncovered

    for i, _ in enumerate(order):
        failure = bad(i)
        if failure is not None:
            break

    def visited() -> tuple[tuple[str, str], ...]:
        return tuple((cand.label(x), ref.label(y)) for x, y in order)

    if failure is None:
        return SimResult(True, None, len(order), queries, visited)
    while links[i] is not None:
        i, grid, low = links[i]
        failure.rows.insert(0, total(grid.row(low)))
    return SimResult(False, failure, len(order), queries, visited)


def _low(bits: int) -> int:
    """The index of the lowest set bit."""
    return (bits & -bits).bit_length() - 1


# ---------------------------------------------------------------------------
# reporting types


@dataclass
class Counterexample:
    direction: str  # "backward" | "upward"
    kind: str
    port: str | None
    rows_a: list[dict[str, Value]]
    rows_b: list[dict[str, Value]]
    expected: dict[str, Value] | None
    actual: dict[str, Value] | None
    cand_state: str = ""
    ref_state: str = ""


@dataclass
class DirectionResult:
    holds: bool
    counterexample: Counterexample | None = None
    fixed_inputs: dict[str, Value] | None = None
    per_port: dict[str, bool] = field(default_factory=dict)
    pairs: int = 0
    queries: int = 0
    elapsed: float = 0.0


@dataclass
class CompatReport:
    a_name: str
    b_name: str
    mapping: list[tuple[str, str]]  # (b port, a port)
    extra_inputs_a: list[str]
    extra_outputs_a: list[str]
    interface_ok: bool
    interface_violations: list[tuple[str, str]]  # (port, reason)
    backward: DirectionResult | None = None
    upward: DirectionResult | None = None
    stats: dict = field(default_factory=dict)

    @property
    def conditional(self) -> bool:
        return bool(self.backward and self.backward.fixed_inputs)

    @property
    def verdict(self) -> str:
        back = bool(self.backward and self.backward.holds)
        up = bool(self.upward and self.upward.holds)
        if back and up:
            return "full"
        if back:
            return "backward-only"
        # upward holds only when no input is widened and the mirrored backward
        # search holds, so the backward direction holds too: reached by no input
        return "upward-only" if up else "incompatible"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["verdict"] = self.verdict
        d["conditional"] = self.conditional
        return d

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: Mapping) -> "CompatReport":
        def direction(sub) -> DirectionResult | None:
            if sub is None:
                return None
            cx = sub.get("counterexample")
            return DirectionResult(
                holds=sub["holds"],
                counterexample=Counterexample(**cx) if cx else None,
                fixed_inputs=sub.get("fixed_inputs"),
                per_port=sub.get("per_port", {}),
                pairs=sub.get("pairs", 0),
                queries=sub.get("queries", 0),
                elapsed=sub.get("elapsed", 0.0),
            )

        return CompatReport(
            a_name=d["a_name"],
            b_name=d["b_name"],
            mapping=[tuple(p) for p in d["mapping"]],
            extra_inputs_a=list(d["extra_inputs_a"]),
            extra_outputs_a=list(d["extra_outputs_a"]),
            interface_ok=d["interface_ok"],
            interface_violations=[tuple(v) for v in d["interface_violations"]],
            backward=direction(d.get("backward")),
            upward=direction(d.get("upward")),
            stats=dict(d.get("stats", {})),
        )

    @staticmethod
    def from_json(text: str) -> "CompatReport":
        return CompatReport.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# pipeline pieces


def build_step(
    flat: FlatModel, config: CheckConfig = CheckConfig()
) -> SymbolicStep:
    """Flat model to symbolic step under the configured reductions."""
    return cfg_and_step(flat, config)[1]


def cfg_and_step(
    flat: FlatModel, config: CheckConfig = CheckConfig()
) -> tuple[Cfg, SymbolicStep]:
    """The model's CFG and the symbolic step build_step makes of it."""
    cfg = extract_cfg(flat, sorted_order(flat, config.datastore_order))
    step = summarize(cfg)
    if config.clone_pruning:
        step, _ = prune_clones(step)
    return cfg, step


Unfolder = Callable[[tuple[str, ...]], Ts]


@dataclass
class _Prepared:
    """A pair worked out once, under its config, for the check, the fix
    search and the emitters; the fields after config are filled in only
    when the interface holds."""

    flat_a: FlatModel
    flat_b: FlatModel
    mapping: PortMapping
    iface: InterfaceReport
    config: CheckConfig
    cfg_a: Cfg | None = None
    cfg_b: Cfg | None = None
    step_a: SymbolicStep | None = None
    step_b: SymbolicStep | None = None  # ports renamed onto A's names
    # the mapped output ports by A's names, sorted
    ports: list[str] = field(default_factory=list)
    # the backward and the upward check's input domains by A's names: B's
    # or A's declared mapped inputs, then A's extra inputs
    dom_backward: Domain | None = None
    dom_upward: Domain | None = None
    # per side ("A", "B"), the systems unfolded so far, by port group, and
    # each side's unfolder, which keeps what it builds there
    systems: dict[str, dict[tuple[str, ...], Ts]] = field(
        default_factory=lambda: {"A": {}, "B": {}}
    )
    unfold_a: Unfolder | None = None
    unfold_b: Unfolder | None = None


def prepare(
    model_a: Model,
    model_b: Model,
    overrides: Mapping[str, str] | None = None,
    config: CheckConfig = CheckConfig(),
) -> _Prepared:
    flat_a = flatten_and_validate(model_a, datastore=config.datastore)
    flat_b = flatten_and_validate(model_b, datastore=config.datastore)
    mapping = derive_port_mapping(flat_a, flat_b, overrides or {})
    iface = check_interface(flat_a, flat_b, mapping)
    prep = _Prepared(flat_a, flat_b, mapping, iface, config)
    if not iface.compatible:
        return prep
    prep.cfg_a, step_a = cfg_and_step(flat_a, config)
    prep.cfg_b, step_b = cfg_and_step(flat_b, config)
    b_to_a = dict(mapping.pairs)
    step_b = rename_inputs(step_b, b_to_a)
    step_b = replace(step_b, outputs={b_to_a.get(p, p): e for p, e in step_b.outputs.items()})
    prep.step_a, prep.step_b = step_a, step_b
    prep.ports = sorted(a for _, a in mapping.outputs)
    a_in = {p.name: p.dtype for p in flat_a.inputs}
    b_in = {p.name: p.dtype for p in flat_b.inputs}
    extras = {n: step_a.inputs[n] for n in mapping.extra_inputs_a}
    prep.dom_backward = Domain({a: b_in[b] for b, a in mapping.inputs} | extras)
    prep.dom_upward = Domain({a: a_in[a] for _, a in mapping.inputs} | extras)
    prep.unfold_a = _unfolder(step_a, config, prep.systems["A"])
    prep.unfold_b = _unfolder(step_b, config, prep.systems["B"])
    return prep


def _initial_agreement(prep: _Prepared) -> list[Binary]:
    """Per port, both models' outputs at their initial states set equal."""
    init_a = prep.step_a.initial_state()
    init_b = prep.step_b.initial_state()
    return [
        Binary(
            "eq",
            partial_eval(prep.step_a.outputs[p], init_a),
            partial_eval(prep.step_b.outputs[p], init_b),
        )
        for p in prep.ports
    ]


def _unfolder(
    step: SymbolicStep, config: CheckConfig, systems: dict[tuple[str, ...], Ts]
) -> Unfolder:
    """Per port group, the step restricted to the group's outputs and
    unfolded; built once and kept in systems."""
    def build(group: tuple[str, ...]) -> Ts:
        ts = systems.get(group)
        if ts is None:
            ts = systems[group] = unfold_to_ts(
                restrict_to_outputs(step, group), config.state_budget, config.solver_budget
            )
        return ts

    return build


def checked_system(prep: _Prepared, tag: str) -> Ts | None:
    """Side tag's ("A" or "B") system over all its outputs as a check of
    the pair unfolded it, when restricting the step to them kept every
    variable and input; else None."""
    step = prep.step_a if tag == "A" else prep.step_b
    group = tuple(sorted(step.outputs))
    ts = prep.systems[tag].get(group)
    if ts is None:
        return None
    whole = set(ts.var_names) == step.vars.keys() and ts.inputs.keys() == step.inputs.keys()
    return ts if whole else None


def _port_groups(ports: Sequence[str], config: CheckConfig) -> list[tuple[str, ...]]:
    """The port groups a direction simulates, in order: one per mapped
    output port under ``output_split``, else all ports jointly."""
    return [(p,) for p in ports] if config.output_split and len(ports) > 1 else [tuple(ports)]


def _check_direction(
    cand: Unfolder,
    ref: Unfolder,
    ports: Sequence[str],
    dom: Domain,
    config: CheckConfig,
    pinned: Mapping[str, Value] | None = None,
) -> tuple[bool, dict[str, bool], SimFailure | None, int, int]:
    """Simulate per mapped output port (or jointly) and merge the results,
    with the names of pinned held at their values (``simulates``).

    A group's systems are obtained, the candidate's first, only when its
    simulation starts, so errors from building and from simulating them
    come in group order.  Every group runs; the failure kept is a shortest
    one, the first in group order among those of fewest rows.
    """
    per_port: dict[str, bool] = {}
    failure: SimFailure | None = None
    pairs = queries = 0
    for group in _port_groups(ports, config):
        res = simulates(cand(group), ref(group), dom, config.solver_budget, pinned)
        pairs += res.pairs
        queries += res.queries
        for p in group:
            per_port[p] = res.holds
        if not res.holds and (failure is None or len(res.failure.rows) < len(failure.rows)):
            failure = res.failure
    return all(per_port.values()) if per_port else True, per_port, failure, pairs, queries


def _to_counterexample(
    prep: _Prepared,
    failure: SimFailure,
    direction: str,
    shared: dict[tuple, dict[str, Value]],
) -> Counterexample:
    """Lift witness rows into replayable traces for both concrete models,
    with the two outputs the simulation compared on the last row.

    Equal rows, keys in the same order, are kept as one object, the one in
    shared: a report often repeats a row across steps, between both
    namespaces and between both directions.
    """
    a_names = [p.name for p in prep.flat_a.inputs]
    a_to_b = prep.mapping.a_to_b()

    def share(row: dict[str, Value]) -> dict[str, Value]:
        return shared.setdefault(tuple((k, type(v), v) for k, v in row.items()), row)

    rows_a = [share({n: row[n] for n in a_names if n in row}) for row in failure.rows]
    rows_b = [
        share({a_to_b[n]: v for n, v in row.items() if n in a_to_b}) for row in failure.rows
    ]
    expected = actual = None
    if failure.kind == "output-mismatch":
        expected, actual = {failure.port: failure.expected}, {failure.port: failure.actual}
    return Counterexample(
        direction=direction,
        kind=failure.kind,
        port=failure.port,
        rows_a=rows_a,
        rows_b=rows_b,
        expected=expected,
        actual=actual,
        cand_state=failure.cand_state,
        ref_state=failure.ref_state,
    )


def fix_free_ports(prep: _Prepared) -> tuple[dict[str, Value], dict[str, bool], int, int] | None:
    """Search constants for A's extra inputs restoring backward simulation.

    Candidates must at least equalize all mapped outputs at the initial
    state pair for every shared input; each survivor is then verified by a
    full simulation run over the backward domain, with the extra inputs
    pinned to the candidate's values, and excluded on failure.  Returns
    None when no candidate exists; raises IterationCapExceeded when the
    verification loop runs out of attempts.

    Every attempt reads the pair's systems (``prep.unfold_a`` and
    ``prep.unfold_b``), with the extra inputs as A's inputs, which the
    check's own directions read too.  Nothing is bound or unfolded per
    attempt: both systems are deterministic, so the pinned search visits
    exactly the pairs reachable on the candidate's rows, where each A
    state takes the transition of its stored row holding the candidate's
    values, as A's step with the extra inputs bound to them would.

    A's unfolded states still read what binding would fold away: a name
    read only in an arm the pinned values never take, or an operand of
    ``and(false, ...)``.  A pinned search can so exceed the budget, or
    overflow, where A's step with the values bound does not; only such an
    attempt is decided on that step, restricted and unfolded anew, against
    B's same systems over the backward domain, which raises where it does.
    """
    config, dom, ports, ref = prep.config, prep.dom_backward, prep.ports, prep.unfold_b
    extras = sorted(prep.mapping.extra_inputs_a)
    necessary = conjoin(_initial_agreement(prep))

    exclude: list[dict[str, Value]] = []
    for _ in range(config.fix_iterations):
        vector = exists_forall_constants(
            necessary, extras, dom, config.solver_budget, exclude,
            stage=f"fix search for {prep.flat_a.name}",
        )
        if vector is None:
            return None
        try:
            holds, per_port, _, pairs, queries = _check_direction(
                prep.unfold_a, ref, ports, dom, config, vector
            )
        except (DomainTooLarge, ArithmeticOverflow):
            bound = _unfolder(bind_inputs(prep.step_a, vector), config, {})
            holds, per_port, _, pairs, queries = _check_direction(
                bound, ref, ports, dom, config
            )
        if holds:
            return vector, per_port, pairs, queries
        exclude.append(vector)
    raise IterationCapExceeded(
        f"fix search for {prep.flat_a.name}: no verified constant fix within "
        f"{config.fix_iterations} attempts"
    )


# ---------------------------------------------------------------------------
# top-level check


def check_compatibility(
    model_a: Model,
    model_b: Model,
    overrides: Mapping[str, str] | None = None,
    config: CheckConfig = CheckConfig(),
) -> CompatReport:
    """Full pipeline: flatten, align interfaces, unfold, simulate both ways."""
    return check_prepared(prepare(model_a, model_b, overrides, config))


def check_prepared(prep: _Prepared) -> CompatReport:
    """The check on a pair prepare() built: the interface verdict, the
    backward search and the constant-fix search, which read the pair's
    systems as the emitted artifacts do, each built on first use, and the
    upward direction decided from the backward search.  A row outside B's
    declared range of a mapped input is a row B takes in no state.  With no
    input widened, upward is the unfixed backward result mirrored, states
    and outputs swapped (``simulates``).  Where A widens one, upward fails
    at step 1 on every port: on the mirrored backward mismatch when that is
    at step 1, an in-range row, else on the least row of A's domain outside
    B's ranges, uncovered at the initial pair."""
    report = CompatReport(
        a_name=prep.flat_a.name,
        b_name=prep.flat_b.name,
        mapping=list(prep.mapping.pairs),
        extra_inputs_a=sorted(prep.mapping.extra_inputs_a),
        extra_outputs_a=sorted(
            {p.name for p in prep.flat_a.outputs} - {a for _, a in prep.mapping.outputs}
        ),
        interface_ok=prep.iface.compatible,
        interface_violations=list(prep.iface.violations),
    )
    if not prep.iface.compatible:
        return report

    shared_rows: dict[tuple, dict[str, Value]] = {}
    t0 = time.perf_counter()
    holds, per_port, failure, pairs, queries = searched = _check_direction(
        prep.unfold_a, prep.unfold_b, prep.ports, prep.dom_backward, prep.config)
    assert failure is None or failure.kind == "output-mismatch", failure  # A's ranges hold B's
    # a refuted backward direction keeps its counterexample when a constant
    # fix of A's extra inputs makes it hold
    cx = None if failure is None else _to_counterexample(prep, failure, "backward", shared_rows)
    binding = None
    if not holds and prep.mapping.extra_inputs_a and (fixed := fix_free_ports(prep)):
        binding, per_port, pairs_f, queries_f = fixed
        holds, pairs, queries = True, pairs + pairs_f, queries + queries_f
    report.backward = DirectionResult(holds, cx, binding, per_port, pairs, queries,
                                      time.perf_counter() - t0)

    t0 = time.perf_counter()
    holds, per_port, failure, pairs, queries = searched
    back, up = prep.dom_backward.dtypes, prep.dom_upward.dtypes
    widened = sorted(n for n in up if up[n] != back[n])  # int ranges only (check_interface)
    per_port = dict.fromkeys(per_port, False) if widened else dict(per_port)
    if failure is not None:
        failure = replace(failure, cand_state=failure.ref_state, ref_state=failure.cand_state,
                          expected=failure.actual, actual=failure.expected)
    if widened and (failure is None or len(failure.rows) > 1):
        row = prep.dom_upward.first_values()
        if all(up[n].lo == back[n].lo for n in widened):
            row[widened[-1]] = back[widened[-1]].hi + 1
        # the initial pair of _check_direction's first port group
        group = _port_groups(prep.ports, prep.config)[0]
        cand, ref = prep.unfold_b(group), prep.unfold_a(group)
        failure = SimFailure("uncovered-input", None, [row], cand.label(cand.init),
                             ref.label(ref.init))
        pairs, queries = 1, 0
    cx = None if failure is None else _to_counterexample(prep, failure, "upward", shared_rows)
    report.upward = DirectionResult(holds and not widened, cx, None, per_port, pairs, queries,
                                    time.perf_counter() - t0)

    report.stats = {
        "a": _step_stats(prep.flat_a, prep.step_a),
        "b": _step_stats(prep.flat_b, prep.step_b),
        "mapped_output_ports": prep.ports,
    }
    return report


def _step_stats(flat: FlatModel, step: SymbolicStep) -> dict:
    return {
        "blocks": len(flat.blocks),
        "inputs": len(flat.inputs),
        "outputs": len(flat.outputs),
        "state_vars": len(step.vars),
    }
