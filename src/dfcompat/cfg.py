"""Step-body control flow graphs.

One CFG traversal corresponds to one synchronous step of the flat model:
outputs are computed in sorted order, then a final node updates the state
variables.  Unconditional blocks contribute one assignment node each; a
Switch or a conditioned subsystem contributes a two-way guarded branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from .errors import DataStoreOrder
from .exprs import (
    Binary,
    Const,
    Expr,
    InputRef,
    Ite,
    SignalRef,
    TRUE,
    Unary,
    Value,
    VarRef,
    conjoin,
    eval_expr,
    render,
)
from .model import FlatBlock, FlatModel, Src, hold_var, kind_of, schedule_units

_REL_OP_MAP = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_LOGIC_OP_MAP = {"AND": "and", "OR": "or", "XOR": "xor"}


@dataclass(frozen=True)
class Schedule:
    output_phase: tuple[str, ...]
    update_phase: tuple[str, ...]


def sorted_order(flat: FlatModel, datastore_order: str = "strict") -> Schedule:
    """Execution order: output phase in topological order with lexicographic
    tie-breaks, then every delay element once in the update phase.

    In strict mode a data store read scheduled before a same-step write of
    that store is rejected; "schedule" mode lets the read observe the value
    as of its schedule position.  The output phase is the order flattening
    computed, when it kept one.
    """
    output = flat.order if flat.order is not None else tuple(schedule_units(flat))
    update = tuple(sorted(
        p for p, b in flat.blocks.items() if b.kind in ("UnitDelay", "HoldOutput")
    ))
    if datastore_order == "strict":
        pos = {p: i for i, p in enumerate(output)}
        writes: dict[str, list[int]] = {}
        for p, b in flat.blocks.items():
            if b.kind == "DataStoreWrite":
                writes.setdefault(b.params["store"], []).append(pos[p])
        for p, b in flat.blocks.items():
            if b.kind != "DataStoreRead":
                continue
            later = [w for w in writes.get(b.params["store"], []) if w > pos[p]]
            if later:
                raise DataStoreOrder(
                    f"{flat.name}: {p} reads store {b.params['store']} before a "
                    f"same-step write; use --datastore-order=schedule to allow"
                )
    elif datastore_order != "schedule":
        raise ValueError(f"unknown datastore order {datastore_order!r}")
    return Schedule(output, update)


# ---------------------------------------------------------------------------
# graph construction


def src_expr(src: Src) -> Expr:
    tag, name = src
    return InputRef(name) if tag == "in" else SignalRef(name)


def block_expr(blk: FlatBlock, source: Callable[[Src], Expr]) -> Expr:
    """Right-hand side of an unconditional block's output assignment, with
    source giving the reference to each input's source."""
    k, ins = blk.kind, blk.inputs
    if k == "Logic":
        op = blk.params["op"]
        if op == "NOT":
            return Unary("not", source(ins["in1"]))
        return Binary(_LOGIC_OP_MAP[op], source(ins["in1"]), source(ins["in2"]))
    if k == "Constant":
        return Const(blk.params["value"])
    if k == "UnitDelay":
        return VarRef(blk.path)
    if k == "DataStoreRead":
        return VarRef(blk.params["store"])
    if k == "Relational":
        return Binary(_REL_OP_MAP[blk.params["op"]], source(ins["in1"]), source(ins["in2"]))
    if k == "Sum":
        acc: Expr | None = None
        for i, sign in enumerate(blk.params["signs"]):
            term = source(ins[f"in{i + 1}"])
            if acc is None:
                acc = Unary("neg", term) if sign == "-" else term
            else:
                acc = Binary("add" if sign == "+" else "sub", acc, term)
        return acc
    if k == "Product":
        return Binary("mul", source(ins["in1"]), source(ins["in2"]))
    if k == "Gain":
        return Binary("mul", Const(blk.params["k"]), source(ins["in"]))
    if k == "MinMax":
        return Binary(blk.params["mode"], source(ins["in1"]), source(ins["in2"]))
    if k == "Saturation":
        lo, hi = blk.params["lo"], blk.params["hi"]
        return Binary("min", Binary("max", source(ins["in"]), Const(lo)), Const(hi))
    raise AssertionError(f"no direct expression for kind {k}")


@dataclass
class Straight:
    node: int


@dataclass
class BranchEl:
    guard: Expr
    then: list = field(default_factory=list)
    other: list = field(default_factory=list)


@dataclass
class CfgEdge:
    src: int
    dst: int
    guard: Expr


Assign = tuple[str, str, Expr]
"""("sig"|"var", target name, rhs).  Signal and state namespaces overlap for
delay blocks, whose path names both the emitted old value and the variable."""


@dataclass
class Cfg:
    nodes: dict[int, list[Assign]]
    edges: list[CfgEdge]
    entry: int
    exit: int
    elements: list
    update_assigns: list[tuple[str, Expr]]
    flat: FlatModel
    schedule: Schedule


def extract_cfg(flat: FlatModel, schedule: Schedule | None = None) -> Cfg:
    """Build the step-body CFG following the schedule."""
    if schedule is None:
        schedule = sorted_order(flat)

    nodes: dict[int, list[Assign]] = {}
    # one reference object per source: a signal read by several blocks is
    # one leaf, which every expression pass visits once
    refs: dict[Src, Expr] = {}

    def ref(src: Src) -> Expr:
        hit = refs.get(src)
        if hit is None:
            hit = refs[src] = src_expr(src)
        return hit

    in_kinds = {p.name: kind_of(p.dtype) for p in flat.inputs}

    def cond(src: Src) -> Expr:
        """Reference usable as a branch condition; numeric controls test != 0."""
        r = ref(src)
        k = in_kinds[src[1]] if src[0] == "in" else flat.signal_kinds[src[1]]
        return Binary("ne", r, Const(0)) if k == "int" else r

    def new_node(assigns: list[Assign] | None = None) -> int:
        nid = len(nodes)
        nodes[nid] = assigns or []
        return nid

    entry = new_node()
    root: list = []
    # stack of open conditioned-subsystem scopes: (group chain, container list)
    stack: list[tuple[tuple[str, ...], BranchEl]] = []

    def container() -> list:
        return stack[-1][1].then if stack else root

    for path in schedule.output_phase:
        blk = flat.blocks[path]
        # close scopes that do not enclose this block
        while stack and stack[-1][0] != blk.group[: len(stack[-1][0])]:
            chain, br = stack.pop()
            (stack[-1][1].then if stack else root).append(br)
        # open scopes down to the block's group
        while len(stack) < len(blk.group):
            depth = len(stack)
            guard = ref(blk.enables[depth])
            stack.append((blk.group[: depth + 1], BranchEl(guard)))

        if blk.kind == "Switch":
            ctrl = cond(blk.inputs["ctrl"])
            br = BranchEl(
                ctrl,
                [Straight(new_node([("sig", path, ref(blk.inputs["in1"]))]))],
                [Straight(new_node([("sig", path, ref(blk.inputs["in3"]))]))],
            )
            container().append(br)
        elif blk.kind == "HoldOutput":
            gate = conjoin([cond(s) for s in blk.params["gate"]])
            br = BranchEl(
                gate,
                [Straight(new_node([("sig", path, ref(blk.inputs["in"]))]))],
                [Straight(new_node([("sig", path, VarRef(hold_var(path)))]))],
            )
            container().append(br)
        elif blk.kind == "DataStoreWrite":
            store = blk.params["store"]
            container().append(
                Straight(new_node([("var", store, ref(blk.inputs["in"]))]))
            )
        else:
            container().append(Straight(new_node([("sig", path, block_expr(blk, ref))])))

    while stack:
        chain, br = stack.pop()
        (stack[-1][1].then if stack else root).append(br)

    update_assigns: list[tuple[str, Expr]] = []
    for path in schedule.update_phase:
        blk = flat.blocks[path]
        rhs: Expr
        if blk.kind == "UnitDelay":
            var, rhs = path, ref(blk.inputs["in"])
        else:  # HoldOutput: latch the emitted value
            var, rhs = hold_var(path), SignalRef(path)
        if blk.enables:  # only while every enclosing scope runs
            gate = conjoin([cond(s) for s in blk.enables])
            rhs = Ite(gate, rhs, VarRef(var))
        update_assigns.append((var, rhs))

    exit_node = new_node([("var", t, e) for t, e in update_assigns])
    edges: list[CfgEdge] = []

    def emit_seq(elems: list, cur: int, pend: Expr) -> tuple[int, Expr]:
        for el in elems:
            if isinstance(el, Straight):
                edges.append(CfgEdge(cur, el.node, pend))
                cur, pend = el.node, TRUE
            else:
                if pend != TRUE:
                    bridge = new_node()
                    edges.append(CfgEdge(cur, bridge, pend))
                    cur, pend = bridge, TRUE
                t_end, t_g = emit_seq(el.then, cur, el.guard)
                e_end, e_g = emit_seq(el.other, cur, Unary("not", el.guard))
                merge = new_node()
                edges.append(CfgEdge(t_end, merge, t_g))
                edges.append(CfgEdge(e_end, merge, e_g))
                cur, pend = merge, TRUE
        return cur, pend

    end, pend = emit_seq(root, entry, TRUE)
    edges.append(CfgEdge(end, exit_node, pend))

    return Cfg(nodes, edges, entry, exit_node, root, update_assigns, flat, schedule)


def count_paths(cfg: Cfg) -> int:
    """Number of distinct entry-to-exit paths (the CFG is a DAG)."""
    succ: dict[int, list[int]] = {}
    for e in cfg.edges:
        succ.setdefault(e.src, []).append(e.dst)
    memo: dict[int, int] = {cfg.exit: 1}
    # depth-first without recursion: a chain of blocks is as deep as long
    stack = [cfg.entry]
    while stack:
        n = stack[-1]
        if n in memo:
            stack.pop()
            continue
        todo = [s for s in succ.get(n, []) if s not in memo]
        if todo:
            stack += todo
        else:
            memo[n] = sum(memo[s] for s in succ.get(n, []))
            stack.pop()
    return memo[cfg.entry]


def run_cfg_step(
    cfg: Cfg, state: Mapping[str, Value], inputs: Mapping[str, Value]
) -> tuple[dict[str, Value], dict[str, Value]]:
    """Execute one step by walking guarded edges; test oracle for extraction.

    Returns (outputs, new state).  Exactly one outgoing guard may hold at
    every node; anything else means the CFG lost path totality.
    """
    sigs: dict[str, Value] = {}
    varvals: dict[str, Value] = dict(state)

    def ev(e: Expr) -> Value:
        if isinstance(e, SignalRef):
            return sigs[e.name]
        if isinstance(e, VarRef):
            return varvals[e.name]
        if isinstance(e, InputRef):
            return inputs[e.name]
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Unary):
            return eval_expr(Unary(e.op, Const(ev(e.arg))), {})
        if isinstance(e, Binary):
            return eval_expr(Binary(e.op, Const(ev(e.left)), Const(ev(e.right))), {})
        return ev(e.then) if ev(e.cond) else ev(e.other)

    succ: dict[int, list[CfgEdge]] = {}
    for edge in cfg.edges:
        succ.setdefault(edge.src, []).append(edge)

    node = cfg.entry
    while True:
        for space, target, rhs in cfg.nodes[node]:
            val = ev(rhs)
            if space == "var":
                varvals[target] = val
            else:
                sigs[target] = val
        if node == cfg.exit:
            break
        enabled = [e for e in succ[node] if bool(ev(e.guard))]
        if len(enabled) != 1:
            raise AssertionError(
                f"node {node}: {len(enabled)} enabled edges, expected exactly 1"
            )
        node = enabled[0].dst

    outputs = {}
    for name, (tag, src) in cfg.flat.output_sources.items():
        outputs[name] = inputs[src] if tag == "in" else sigs[src]
    new_state = {v: varvals[v] for v in cfg.flat.var_decls}
    return outputs, new_state


def cfg_to_dot(cfg: Cfg, title: str = "cfg") -> str:
    """Graphviz rendering with assignments in nodes and guards on edges;
    an edge whose guard is TRUE has no label."""
    lines = [f"digraph \"{title}\" {{", "  node [shape=box, fontname=monospace];"]
    labelled = [g is not TRUE and g != TRUE for g in (e.guard for e in cfg.edges)]
    text = render([e for assigns in cfg.nodes.values() for _, _, e in assigns]
                  + [e.guard for e, keep in zip(cfg.edges, labelled) if keep])
    for nid, assigns in cfg.nodes.items():
        if len(assigns) == 1:  # most nodes: one block's assignment
            (space, t, e), = assigns
            body = f"{t}' := {text[id(e)]}" if space == "var" else f"{t} := {text[id(e)]}"
        else:
            body = "\\n".join(
                f"{t}' := {text[id(e)]}" if space == "var" else f"{t} := {text[id(e)]}"
                for space, t, e in assigns
            ) or " "
        if nid == cfg.exit:
            lines.append(f"  n{nid} [label=\"{body}\", style=filled, fillcolor=lightgray];")
        elif nid == cfg.entry:
            lines.append(f"  n{nid} [label=\"{body}\", style=bold];")
        else:
            lines.append(f"  n{nid} [label=\"{body}\"];")
    for e, keep in zip(cfg.edges, labelled):
        if keep:
            lines.append(f"  n{e.src} -> n{e.dst} [label=\"{text[id(e.guard)]}\"];")
        else:
            lines.append(f"  n{e.src} -> n{e.dst};")
    lines.append("}")
    return "\n".join(lines) + "\n"
