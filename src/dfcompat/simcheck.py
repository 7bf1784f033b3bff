"""Behavioral compatibility decisions.

Two models are compared through a simulation preorder on their unfolded
transition systems: the candidate must match the reference's outputs on
every mapped port and answer every reference transition, over the
reference side's input domain.  Checking both directions classifies a pair
as fully compatible, safe only for existing callers, safe only for new
callers, or incompatible, and every refusal comes with a replayable input
trace.  Extra candidate inputs can be searched for constant settings that
restore compatibility.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Mapping, Sequence

from .errors import DomainTooLarge, IterationCapExceeded
from .exprs import (
    Binary,
    Expr,
    InputRef,
    Value,
    VarRef,
    conjoin,
    eval_expr,
    partial_eval,
)
from .model import (
    DataType,
    FlatModel,
    IntType,
    InterfaceReport,
    Model,
    PortMapping,
    check_interface,
    derive_port_mapping,
    domain_size,
    flatten_and_validate,
)
from .cfg import Cfg, extract_cfg, sorted_order
from .solver import (
    DEFAULT_BUDGET,
    Domain,
    exists_forall_constants,
    declared_names,
    interval_starts,
    row_count,
    sat_witness,  # noqa: F401 - dfbench/tracing.py wraps this module's sat_witness
)
from .rows import box_reads, compile_all, compile_expr, input_uses
from .symbolic import (
    DEFAULT_SPLIT_CAP,
    SymbolicStep,
    bind_inputs,
    prune_clones,
    rename_inputs,
    restrict_to_outputs,
    summarize,
)
from . import solver, unfold
from .unfold import (
    DEFAULT_STATE_BUDGET,
    StateRows,
    Ts,
    row_bitsets,
    spans,
    unfold_to_ts,
)


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
        """State labels of the product pairs explored, in discovery order;
        formatted when read."""
        return self._visited()


# A query part: the names some expressions read, each with the cut points
# their comparisons with constants put into the name's range, or None when
# they read the name's value otherwise (rows then take every value, but for
# an integer an output comparison reads affinely).  Query spaces are cached
# by their parts.
Part = tuple[tuple[str, "tuple[Value, ...] | None"], ...]


def _part(exprs: Iterable[Expr]) -> Part:
    """The names the expressions read, with the cut points of their
    comparisons."""
    cuts, reads = input_uses(exprs, (InputRef, VarRef))
    if not cuts:
        return ()
    return tuple(
        (n, None if n in reads else tuple(sorted(cuts[n]))) for n in sorted(cuts)
    )


class _Space:
    """The rows of one query: the product of each name's row values.

    A row value of an integer name stands for the interval up to the next
    one (the last one up to the domain's maximum), on which every
    expression the query evaluates keeps its value, or, for the rows of an
    affine output comparison (``_Rows.output_space``), differs from the
    row value's at most where it does at the next one; of any other name,
    for itself.  Row i is the i-th combination in ``itertools.product``
    order, the first name most significant, so the lowest set bit of a row
    bitset is the lexicographically least row, and the least input value
    of its intervals is the least input full enumeration would find.
    """

    __slots__ = ("names", "values", "size")

    def __init__(self, names: tuple[str, ...], values: tuple[tuple[Value, ...], ...]):
        self.names = names
        self.values = values
        self.size = math.prod(map(len, values))


class _Rows:
    """The query spaces of one simulates call.

    A query over parts (``Part``) spans their names; each integer name
    they only compare takes as row values the common refinement of the
    parts' cut points and of both systems' declared range ends, so the
    candidate's extra range, or the part of the domain it does not
    declare, is an interval of its own.
    """

    def __init__(self, dom: Domain, budget: int, cand: Ts, ref: Ts):
        self.dom = dom
        self.budget = budget
        self.cand = cand
        self.ref = ref
        self._values: dict[str, tuple[Value, ...]] = {}
        self._stored: dict[int, tuple[tuple, Part]] = {}
        self._spaces: dict[tuple[Part, ...], _Space] = {}
        self._interned: dict[tuple, _Space] = {}
        self._base = {n: dom.first(n) for n in dom.sorted_names()}

    def values(self, name: str) -> tuple[Value, ...]:
        if name not in self._values:
            self._values[name] = self.dom.values(name)
        return self._values[name]

    def stored_part(self, stored: StateRows, inputs: Mapping[str, DataType]) -> Part:
        """The part of a stored state's guards.

        The row values of an input split into intervals are its cut
        points; an input with a row per value reads values.  The unfolding
        shares one row-values tuple among the states with the same rows,
        so this is worked out once per tuple.
        """
        hit = self._stored.get(id(stored.values))
        if hit is None:
            part = tuple(
                (n, None if len(vals) == domain_size(inputs[n]) else vals)
                for n, vals in zip(stored.names, stored.values)
            )
            # holding the tuple keeps its id from being reused
            hit = self._stored[id(stored.values)] = (stored.values, part)
        return hit[1]

    def _layout(self, parts: Iterable[Part]) -> tuple[tuple[str, ...], list]:
        """The names of the parts, in sorted order, and per name its
        interval starts, refined with both systems' declared range ends,
        or None when it takes every value.  Raises DomainError for names
        outside the domain."""
        cuts: dict[str, set[Value] | None] = {}
        for n, c in itertools.chain.from_iterable(parts):
            seen = cuts.get(n, set())
            cuts[n] = None if c is None or seen is None else seen | set(c)
        names = tuple(declared_names(cuts, self.dom))
        return names, [self._starts(n, cuts[n]) for n in names]

    def _starts(self, name: str, cuts: set[Value] | None) -> tuple[int, ...] | None:
        if cuts is None:
            return None
        for ts in (self.cand, self.ref):
            dt = ts.inputs.get(name)
            if isinstance(dt, IntType):
                cuts = cuts | {dt.lo, dt.hi + 1}
        return interval_starts(self.dom.dtypes[name], cuts)

    def _refuse(self, pair: tuple[int, int], size: int) -> None:
        if size > self.budget:
            ai, bi = pair
            raise DomainTooLarge(
                f"simulating {self.ref.name} by {self.cand.name} needs {size} "
                f"input rows in candidate state {self.cand.label(ai)}, reference "
                f"state {self.ref.label(bi)} (budget {self.budget})"
            )

    def space(self, pair: tuple[int, int], *parts: Part) -> _Space:
        """The rows of a query over these parts, asked at the state pair.

        Raises DomainError for names outside the domain and DomainTooLarge,
        naming both systems and the state pair, when the rows exceed the
        budget.
        """
        hit = self._spaces.get(parts)
        if hit is not None:
            return hit
        names, starts = self._layout(parts)
        self._refuse(pair, row_count(self.dom, zip(names, starts)))
        values = tuple(self.values(n) if s is None else s for n, s in zip(names, starts))
        hit = self._interned.setdefault((names, values), _Space(names, values))
        self._spaces[parts] = hit
        return hit

    def output_space(self, pair: tuple[int, int], port: str, a: "_Side", b: "_Side") -> _Space:
        """The rows of comparing the outputs on port of the candidate's and
        the reference's states of the pair.

        When the outputs read one integer name by value, with more than
        ``unfold.SPLIT_MIN_VALUES`` values, and both read it affinely
        (``box_reads``) within each interval of their cut points, its range
        is split at those cut points and both systems' range ends, and each
        interval takes its two least values: on it, the difference of two
        affine functions that is zero at both is zero throughout.
        Evaluating the outputs at the interval's greatest value, for every
        row of the other names, must not raise: affine nodes are monotone,
        so none raises anywhere in the interval.  An interval where one
        does takes every value, and the error comes where full enumeration
        meets it.  Other names, and every name of any other comparison,
        take the rows of ``space``.
        """
        ai, bi = pair
        parts = (a.output_part(ai, port), b.output_part(bi, port))
        hit = self._spaces.get(parts)
        if hit is not None:
            return hit
        read = {
            n for n, c in itertools.chain.from_iterable(parts)
            if c is None and isinstance(self.dom.dtypes.get(n), IntType)
        }
        if not solver.INTERVAL_ROWS or len(read) != 1:
            return self.space(pair, *parts)
        (name,) = read
        dt = self.dom.dtypes[name]
        if domain_size(dt) <= unfold.SPLIT_MIN_VALUES:
            return self.space(pair, *parts)
        cuts = a.affine_cuts(ai, port, name), b.affine_cuts(bi, port, name)
        if None in cuts:
            return self.space(pair, *parts)
        names, starts = self._layout(parts)
        at = names.index(name)
        starts[at] = ()
        # only the one name read by value takes every value of a wide range
        values = [self.values(n) if s is None else s for n, s in zip(names, starts)]
        others = math.prod(map(len, values[:at] + values[at + 1:]))
        ranges = spans(dt, self._starts(name, set(cuts[0] + cuts[1])))
        # per interval, the least and the greatest value that is a row
        segments = [(lo, min(lo + 1, hi)) for lo, hi in ranges]
        self._refuse(pair, others * sum(hi - lo + 1 for lo, hi in segments))
        fns = (a.output_fn(ai, port, names), b.output_fn(bi, port, names))
        for i, (lo, hi) in enumerate(ranges):
            values[at] = (hi,)
            try:
                for combo in itertools.product(*values):
                    for f in fns:
                        f(combo)
            except Exception:
                segments[i] = (lo, hi)
        self._refuse(pair, others * sum(hi - lo + 1 for lo, hi in segments))
        values[at] = tuple(
            itertools.chain.from_iterable(range(lo, hi + 1) for lo, hi in segments)
        )
        return self._interned.setdefault((names, tuple(values)), _Space(names, tuple(values)))

    def row(self, space: _Space, i: int) -> dict[str, Value]:
        """Row i of space as a total assignment, other names at their
        first value."""
        row = dict(self._base)
        for n, vals in zip(reversed(space.names), reversed(space.values)):
            i, r = divmod(i, len(vals))
            row[n] = vals[r]
        return row


class _Side:
    """One transition system seen through the rows of the simulation domain.

    A state's transitions share one part: the names its guards mention,
    with their cut points; a stored state's are its names and row values.
    Per query space a state has a row bitset per transition: the
    unfolding's bitsets serve the space with the state's own rows, on any
    other space each row is placed in the stored row holding its values,
    and a hand-built state's guards are compiled and evaluated once per
    row.  A stored state whose rows all take one transition has the guard
    TRUE, with no names, which holds on every row of the domain, also
    outside the system's declared input range.  Each state's outputs are
    compiled once per query space.
    """

    def __init__(self, ts: Ts, rows: _Rows):
        self.ts = ts
        self.rows = rows
        self._parts: dict[int, list[Part]] = {}
        self._bits: dict[tuple[int, _Space], list[int]] = {}
        self._out_parts: dict[tuple[int, str], Part] = {}
        self._out_fns: dict[tuple[int, str, tuple[str, ...]], Callable] = {}
        self._affine: dict[tuple[int, str, str], tuple[int, ...] | None] = {}

    def output_part(self, s: int, port: str) -> Part:
        """The part of state s's output on port."""
        key = (s, port)
        if key not in self._out_parts:
            self._out_parts[key] = _part([self.ts.outputs[s][port]])
        return self._out_parts[key]

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

    def output_fn(self, s: int, port: str, names: tuple[str, ...]) -> Callable:
        """State s's output on port as a function of a row over names."""
        key = (s, port, names)
        if key not in self._out_fns:
            self._out_fns[key] = compile_expr(self.ts.outputs[s][port], names)
        return self._out_fns[key]

    def targets(self, s: int) -> list[int]:
        if self.ts.rows:
            return self.ts.rows[s].targets
        return [t for _, t in self.ts.transitions[s]]

    def parts(self, s: int) -> list[Part]:
        """Per transition, the part of its state's guards."""
        if s not in self._parts:
            if self.ts.rows:
                stored = self.ts.rows[s]
                count = len(stored.targets)
                part = self.rows.stored_part(stored, self.ts.inputs) if count > 1 else ()
            else:
                guards = [g for g, _ in self.ts.transitions[s]]
                count, part = len(guards), _part(guards)
            self._parts[s] = [part] * count
        return self._parts[s]

    def bits(self, s: int, j: int, space: _Space) -> int:
        """Row bitset over space of transition j of state s.

        The space spans the names of the state's part.
        """
        key = (s, space)
        if key not in self._bits:
            self._bits[key] = (
                self._stored_bits(s, space) if self.ts.rows else self._guard_bits(s, space)
            )
        return self._bits[key][j]

    def _guard_bits(self, s: int, space: _Space) -> list[int]:
        guards = [compile_expr(g, space.names) for g, _ in self.ts.transitions[s]]
        fires = (
            (i, j) for i, combo in enumerate(itertools.product(*space.values))
            for j, guard in enumerate(guards) if guard(combo)
        )
        return row_bitsets(fires, len(guards), space.size)

    def _stored_bits(self, s: int, space: _Space) -> list[int]:
        stored = self.ts.rows[s]
        count = len(stored.targets)
        if count == 1:
            return [(1 << space.size) - 1]
        if stored.names == space.names and stored.values == space.values:
            return stored.bits
        # place each row of the space in the stored row holding its values;
        # a row outside the declared ranges takes no transition.  Both name
        # tuples are sorted, so the state's names come in the same order.
        slots: list[int | None] = [0]
        own = dict(zip(stored.names, stored.values))
        for n, vals in zip(space.names, space.values):
            if n not in own:
                slots = [k for k in slots for _ in vals]
                continue
            width = len(own[n])
            pos = [_position(self.ts.inputs[n], own[n], v) for v in vals]
            slots = [
                None if k is None or p is None else k * width + p
                for k in slots for p in pos
            ]
        placed = ((i, stored.edges[k]) for i, k in enumerate(slots) if k is not None)
        return row_bitsets(placed, count, space.size)

    def edge(self, s: int, row: Mapping[str, Value]) -> int | None:
        """The first transition of state s whose guard holds on a total
        row, None when none does."""
        if self.ts.rows:
            stored = self.ts.rows[s]
            if len(stored.targets) == 1:
                return 0
            k = 0
            for n, vals in zip(stored.names, stored.values):
                p = _position(self.ts.inputs[n], vals, row[n])
                if p is None:
                    return None
                k = k * len(vals) + p
            return stored.edges[k]
        for j, (g, _) in enumerate(self.ts.transitions[s]):
            if eval_expr(g, row):
                return j
        return None


def _position(dt: DataType, vals: Sequence[Value], v: Value) -> int | None:
    """Position of the row value in vals standing for v, None when v lies
    outside dt."""
    if isinstance(dt, IntType):
        return bisect.bisect_right(vals, v) - 1 if dt.lo <= v <= dt.hi else None
    return vals.index(v) if v in vals else None


def simulates(
    cand: Ts, ref: Ts, dom: Domain, budget: int = DEFAULT_BUDGET
) -> SimResult:
    """Can the candidate mimic every behavior of the reference over dom?

    Computed as the greatest simulation relation on the reachable product:
    pairs failing output equality die immediately, then pairs whose
    reference moves are no longer answerable by moves into live pairs are
    removed until the relation stabilizes.

    Guards are row bitsets over a query space (``_Space``), so a joint move
    is a nonzero ``ga & gb`` and the least uncovered row is the lowest set
    bit of ``gb & ~live``; outputs compare row by row up to the first
    difference.  A row stands for an interval of each integer name on which
    every expression the query reads is constant, and its values are the
    least ones, so every witness is the one enumerating each value would
    find.  A query whose rows exceed the budget raises DomainTooLarge.
    ``queries`` counts the joint, residual and output checks answered.
    """
    rows = _Rows(dom, budget, cand, ref)
    a, b = _Side(cand, rows), _Side(ref, rows)
    queries = 0

    def output_diff(ai: int, bi: int, port: str) -> dict[str, Value] | None:
        # rows in order, the candidate's output evaluated first: the least
        # differing row, and an overflow only where enumeration reaches it
        # first, as sat_witness over the two outputs' inequality
        space = rows.output_space((ai, bi), port, a, b)
        fa = a.output_fn(ai, port, space.names)
        fb = b.output_fn(bi, port, space.names)
        for i, combo in enumerate(itertools.product(*space.values)):
            if fa(combo) != fb(combo):
                return rows.row(space, i)
        return None

    # breadth-first product exploration; index = discovery order
    start = (cand.init, ref.init)
    index = {start: 0}
    order = [start]
    alive: list[bool] = []
    # per pair and reference transition: (candidate transition, successor
    # pair) for every candidate move jointly enabled with it
    moves: list[list[list[tuple[int, int]]]] = []
    reason: dict[int, tuple] = {}
    i = 0
    while i < len(order):
        ai, bi = order[i]
        moves.append([])
        alive.append(True)
        for port in sorted(ref.outputs[bi]):
            queries += 1
            diff = output_diff(ai, bi, port)
            if diff is not None:
                reason[i] = ("output", port, diff)
                alive[i] = False
                break
        if alive[i]:
            parts_a, parts_b = a.parts(ai), b.parts(bi)
            targets_a = a.targets(ai)
            for jb, bj in enumerate(b.targets(bi)):
                hits = []
                for ja, aj in enumerate(targets_a):
                    queries += 1
                    space = rows.space(order[i], parts_a[ja], parts_b[jb])
                    if a.bits(ai, ja, space) & b.bits(bi, jb, space):
                        pair = (aj, bj)
                        if pair not in index:
                            index[pair] = len(order)
                            order.append(pair)
                        hits.append((ja, index[pair]))
                moves[i].append(hits)
        i += 1
    preds: list[list[int]] = [[] for _ in order]
    for i, per_ref in enumerate(moves):
        for hits in per_ref:
            for _, q in hits:
                preds[q].append(i)

    def residual(i: int) -> tuple[dict[str, Value], int] | None:
        """The least reference row no live candidate move answers, with the
        successor pair the candidate move it takes leads to."""
        nonlocal queries
        ai, bi = order[i]
        parts_a, parts_b = a.parts(ai), b.parts(bi)
        for jb, hits in enumerate(moves[i]):
            live = [ja for ja, q in hits if alive[q]]
            queries += 1
            space = rows.space(order[i], parts_b[jb], *(parts_a[ja] for ja in live))
            cover = 0
            for ja in live:
                cover |= a.bits(ai, ja, space)
            rest = b.bits(bi, jb, space) & ~cover
            if not rest:
                continue
            row = rows.row(space, (rest & -rest).bit_length() - 1)
            ja = a.edge(ai, row)
            if ja is None:
                return row, -1
            return row, index[(a.targets(ai)[ja], b.targets(bi)[jb])]
        return None

    # Worklist fixpoint with the visit order of a loop that rescans all
    # pairs in discovery order until nothing changes: a pair is re-checked
    # only after one of its successors died, later in this round when it
    # comes after the dead pair and in the next round otherwise, so every
    # death and witness is the one the rescanning loop finds.
    current = [i for i in range(len(order)) if alive[i]]
    while current:
        queued = set(current)
        later: set[int] = set()
        while current:
            i = heapq.heappop(current)
            if not alive[i]:
                continue
            found = residual(i)
            if found is None:
                continue
            row, nxt = found
            reason[i] = ("step", row, nxt) if nxt >= 0 else ("uncovered", row)
            alive[i] = False
            for p in preds[i]:
                if not alive[p]:
                    continue
                if p < i:
                    later.add(p)
                elif p not in queued:
                    queued.add(p)
                    heapq.heappush(current, p)
        current = sorted(later)

    def visited() -> tuple[tuple[str, str], ...]:
        return tuple((cand.label(x), ref.label(y)) for x, y in order)

    if alive[0]:
        return SimResult(True, None, len(order), queries, visited)

    trace: list[dict[str, Value]] = []
    cur = 0
    while reason[cur][0] == "step":
        trace.append(reason[cur][1])
        cur = reason[cur][2]
    tail = reason[cur]
    ca, cb = cand.label(order[cur][0]), ref.label(order[cur][1])
    if tail[0] == "output":
        trace.append(tail[2])
        failure = SimFailure("output-mismatch", tail[1], trace, ca, cb)
    else:
        trace.append(tail[1])
        failure = SimFailure("uncovered-input", None, trace, ca, cb)
    return SimResult(False, failure, len(order), queries, visited)


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
    backward: DirectionResult | None
    upward: DirectionResult | None
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
        if up:
            return "upward-only"
        return "incompatible"

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


@dataclass
class _Prepared:
    flat_a: FlatModel
    flat_b: FlatModel
    mapping: PortMapping
    iface: InterfaceReport
    cfg_a: Cfg | None = None
    cfg_b: Cfg | None = None
    step_a: SymbolicStep | None = None
    step_b: SymbolicStep | None = None  # ports renamed onto A's names
    # per side ("A", "B"), the systems the last check unfolded, by port group
    systems: dict[str, dict[tuple[str, ...], Ts]] = field(default_factory=dict)


def _rename_outputs(step: SymbolicStep, name_map: Mapping[str, str]) -> SymbolicStep:
    return replace(
        step,
        outputs={name_map.get(p, p): e for p, e in step.outputs.items()},
    )


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
    prep = _Prepared(flat_a, flat_b, mapping, iface)
    if not iface.compatible:
        return prep
    prep.cfg_a, prep.step_a = cfg_and_step(flat_a, config)
    prep.cfg_b, step_b = cfg_and_step(flat_b, config)
    b_to_a = {b: a for b, a in mapping.pairs}
    prep.step_b = _rename_outputs(rename_inputs(step_b, b_to_a), b_to_a)
    return prep


def _mapped_input_domains(prep: _Prepared) -> tuple[dict, dict]:
    """Input dtypes keyed by A-side names: (B's declared, A's declared)."""
    a_in = {p.name: p.dtype for p in prep.flat_a.inputs}
    b_in = {p.name: p.dtype for p in prep.flat_b.inputs}
    b_side = {}
    a_side = {}
    for b, a in prep.mapping.pairs:
        if b in b_in:
            b_side[a] = b_in[b]
            a_side[a] = a_in[a]
    return b_side, a_side


def _direction_domains(prep: _Prepared) -> tuple[Domain, Domain]:
    """Input domains of the backward and the upward check, keyed by A-side
    names: B's or A's declared mapped inputs, then A's extra inputs."""
    b_side, a_side = _mapped_input_domains(prep)
    extras = {n: prep.step_a.inputs[n] for n in prep.mapping.extra_inputs_a}
    return Domain(b_side | extras), Domain(a_side | extras)


def _mapped_output_ports(prep: _Prepared) -> list[str]:
    b_out = {p.name for p in prep.flat_b.outputs}
    return sorted(a for b, a in prep.mapping.pairs if b in b_out)


def _initial_agreement(prep: _Prepared, ports: Sequence[str]) -> list[Binary]:
    """Per port, both models' outputs at their initial states set equal."""
    init_a = prep.step_a.initial_state()
    init_b = prep.step_b.initial_state()
    return [
        Binary(
            "eq",
            partial_eval(prep.step_a.outputs[p], init_a),
            partial_eval(prep.step_b.outputs[p], init_b),
        )
        for p in ports
    ]


Unfolder = Callable[[tuple[str, ...]], Ts]


def _unfolder(
    step: SymbolicStep, config: CheckConfig,
    systems: dict[tuple[str, ...], Ts] | None = None,
) -> Unfolder:
    """Per port group, the step restricted to the group's outputs and
    unfolded; built once and kept in systems when given."""
    def build(group: tuple[str, ...]) -> Ts:
        ts = None if systems is None else systems.get(group)
        if ts is None:
            ts = unfold_to_ts(
                restrict_to_outputs(step, group), config.state_budget, config.solver_budget
            )
            if systems is not None:
                systems[group] = ts
        return ts

    return build


def checked_system(prep: _Prepared, tag: str) -> Ts | None:
    """Side tag's ("A" or "B") system over all its outputs as the last
    check unfolded it, when restricting the step to them kept every
    variable and input; else None."""
    step = prep.step_a if tag == "A" else prep.step_b
    group = tuple(sorted(step.outputs))
    ts = prep.systems.get(tag, {}).get(group)
    if ts is None:
        return None
    whole = set(ts.var_names) == step.vars.keys() and ts.inputs.keys() == step.inputs.keys()
    return ts if whole else None


def _check_direction(
    cand: Unfolder,
    ref: Unfolder,
    ports: Sequence[str],
    dom: Domain,
    config: CheckConfig,
) -> tuple[bool, dict[str, bool], SimFailure | None, int, int]:
    """Simulate per mapped output port (or jointly) and merge the results.

    A group's systems are obtained, the candidate's first, only when its
    simulation starts, so errors from building and from simulating them
    come in group order.
    """
    groups: list[tuple[str, ...]]
    if config.output_split and len(ports) > 1:
        groups = [(p,) for p in ports]
    else:
        groups = [tuple(ports)]

    per_port: dict[str, bool] = {}
    failure: SimFailure | None = None
    pairs = queries = 0
    for group in groups:
        res = simulates(cand(group), ref(group), dom, config.solver_budget)
        pairs += res.pairs
        queries += res.queries
        for p in group:
            per_port[p] = res.holds
        if not res.holds and failure is None:
            failure = res.failure
    return all(per_port.values()) if per_port else True, per_port, failure, pairs, queries


def _to_counterexample(
    prep: _Prepared,
    failure: SimFailure,
    direction: str,
    ref_step: SymbolicStep,
    cand_step: SymbolicStep,
    bound: Mapping[str, Value] | None,
    shared: dict[tuple, dict[str, Value]],
) -> Counterexample:
    """Lift witness rows into replayable traces for both concrete models.

    Equal rows, keys in the same order, are kept as one object, the one in
    shared: a report often repeats a row across steps, between both
    namespaces and between both directions.
    """
    a_names = [p.name for p in prep.flat_a.inputs]
    a_to_b = {a: b for b, a in prep.mapping.pairs}
    bound = dict(bound or {})

    def share(row: dict[str, Value]) -> dict[str, Value]:
        return shared.setdefault(tuple((k, type(v), v) for k, v in row.items()), row)

    rows_a = []
    rows_b = []
    for row in failure.rows:
        full = dict(row) | bound
        rows_a.append(share({n: full[n] for n in a_names if n in full}))
        rows_b.append(
            share({a_to_b[n]: v for n, v in full.items() if n in a_to_b})
        )
    expected = actual = None
    if failure.kind == "output-mismatch" and failure.port:
        expected = {failure.port: _trace_output(ref_step, failure.rows, bound, failure.port)}
        actual = {failure.port: _trace_output(cand_step, failure.rows, bound, failure.port)}
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


def _trace_output(
    step: SymbolicStep,
    rows: Sequence[Mapping[str, Value]],
    bound: Mapping[str, Value],
    port: str,
) -> Value:
    """The output on port after the rows, the output and the updates
    compiled once per set of names the rows give values."""
    state = step.initial_state()
    val: Value | None = None
    compiled: dict[tuple[str, ...], list[Callable]] = {}
    for i, row in enumerate(rows):
        env = dict(row) | dict(bound) | state
        names = tuple(env)
        if names not in compiled:
            compiled[names] = compile_all([step.outputs[port], *step.updates.values()], names)
        out, *updates = compiled[names]
        values = tuple(env.values())
        val = out(values)
        if i + 1 < len(rows):
            state = {v: f(values) for v, f in zip(step.updates, updates)}
    return val


def fix_free_ports(
    prep: _Prepared,
    dom_free: Domain,
    ports: Sequence[str],
    config: CheckConfig,
    ref: Unfolder | None = None,
) -> tuple[dict[str, Value], dict[str, bool], int, int] | None:
    """Search constants for A's extra inputs restoring backward simulation.

    Candidates must at least equalize all mapped outputs at the initial
    state pair for every shared input; each survivor is then verified by a
    full simulation run and excluded on failure.  Returns None when no
    candidate exists; raises IterationCapExceeded when the verification
    loop runs out of attempts.  ``ref`` gives B's unfolded systems, which
    every attempt shares; by default they are built here.
    """
    extras = sorted(prep.mapping.extra_inputs_a)
    step_a, step_b = prep.step_a, prep.step_b
    assert step_a is not None and step_b is not None
    necessary = conjoin(_initial_agreement(prep, ports))

    if ref is None:
        ref = _unfolder(step_b, config, {})
    b_side, _ = _mapped_input_domains(prep)
    dom_check = Domain(b_side)
    exclude: list[dict[str, Value]] = []
    for _ in range(config.fix_iterations):
        cand = exists_forall_constants(
            necessary, extras, dom_free, config.solver_budget, exclude,
            stage=f"fix search for {prep.flat_a.name}",
        )
        if cand is None:
            return None
        fixed_a = _unfolder(bind_inputs(step_a, cand), config)
        holds, per_port, _, pairs, queries = _check_direction(
            fixed_a, ref, ports, dom_check, config
        )
        if holds:
            return cand, per_port, pairs, queries
        exclude.append(cand)
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
    return check_prepared(prepare(model_a, model_b, overrides, config), config)


def check_prepared(prep: _Prepared, config: CheckConfig) -> CompatReport:
    """The check on a pair prepare() built: the interface verdict, then
    simulation both ways and the constant-fix search."""
    b_outs = {p.name for p in prep.flat_b.outputs}
    report = CompatReport(
        a_name=prep.flat_a.name,
        b_name=prep.flat_b.name,
        mapping=list(prep.mapping.pairs),
        extra_inputs_a=sorted(prep.mapping.extra_inputs_a),
        extra_outputs_a=sorted(
            {p.name for p in prep.flat_a.outputs}
            - {a for b, a in prep.mapping.pairs if b in b_outs}
        ),
        interface_ok=prep.iface.compatible,
        interface_violations=list(prep.iface.violations),
        backward=None,
        upward=None,
    )
    if not prep.iface.compatible:
        return report

    step_a, step_b = prep.step_a, prep.step_b
    assert step_a is not None and step_b is not None
    ports = _mapped_output_ports(prep)
    dom_backward, dom_upward = _direction_domains(prep)
    shared_rows: dict[tuple, dict[str, Value]] = {}
    # each model's system per port group, built on first use and kept for
    # this check: both directions, every fix attempt and the emitted
    # artifacts use the same ones.  A fix candidate's step is bound anew
    # per attempt and not kept.
    prep.systems = {"A": {}, "B": {}}
    unfold_a = _unfolder(step_a, config, prep.systems["A"])
    unfold_b = _unfolder(step_b, config, prep.systems["B"])

    t0 = time.perf_counter()
    holds, per_port, failure, pairs, queries = _check_direction(
        unfold_a, unfold_b, ports, dom_backward, config
    )
    back = DirectionResult(
        holds, per_port=per_port, pairs=pairs, queries=queries,
        elapsed=time.perf_counter() - t0,
    )
    if not holds and failure is not None:
        back.counterexample = _to_counterexample(
            prep, failure, "backward", step_b, step_a, None, shared_rows
        )
    if not holds and prep.mapping.extra_inputs_a:
        fixed = fix_free_ports(prep, dom_backward, ports, config, unfold_b)
        if fixed is not None:
            binding, per_port_f, pairs_f, queries_f = fixed
            back = DirectionResult(
                True,
                fixed_inputs=binding,
                per_port=per_port_f,
                pairs=pairs + pairs_f,
                queries=queries + queries_f,
                elapsed=time.perf_counter() - t0,
                counterexample=back.counterexample,
            )
    report.backward = back

    t1 = time.perf_counter()
    holds, per_port, failure, pairs, queries = _check_direction(
        unfold_b, unfold_a, ports, dom_upward, config
    )
    up = DirectionResult(
        holds, per_port=per_port, pairs=pairs, queries=queries,
        elapsed=time.perf_counter() - t1,
    )
    if not holds and failure is not None:
        up.counterexample = _to_counterexample(
            prep, failure, "upward", step_a, step_b, None, shared_rows
        )
    report.upward = up

    report.stats = {
        "a": _step_stats(prep.flat_a, step_a),
        "b": _step_stats(prep.flat_b, step_b),
        "mapped_output_ports": ports,
    }
    return report


def _step_stats(flat: FlatModel, step: SymbolicStep) -> dict:
    return {
        "blocks": len(flat.blocks),
        "inputs": len(flat.inputs),
        "outputs": len(flat.outputs),
        "state_vars": len(step.vars),
    }
