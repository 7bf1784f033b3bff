"""Core model representation: typed ports, blocks, hierarchy and flattening.

A :class:`Model` is a tree of diagrams.  ``flatten_and_validate`` inlines the
hierarchy into a :class:`FlatModel` of atomic blocks with fully resolved input
sources, attaches enable conditions of conditionally executed subsystems to
their children, type-checks every connection and rejects feedback cycles that
do not pass through a delay element.

Port mapping and the static interface check between two models live here too;
they are the entry gate of a compatibility run.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Union

from .errors import (
    AlgebraicLoop,
    ConflictingOverride,
    ModelValidationError,
    TypeMismatch,
    UnconnectedInput,
    UnmappedPort,
)
from .exprs import Value

# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class BoolType:
    pass


@dataclass(frozen=True)
class IntType:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ModelValidationError(f"empty int range [{self.lo},{self.hi}]")


@dataclass(frozen=True)
class EnumType:
    """Structural enum type; two declarations with equal variant lists match."""

    variants: tuple[str, ...]


DataType = Union[BoolType, IntType, EnumType]

BOOL = BoolType()


def domain_values(dt: DataType) -> tuple[Value, ...]:
    """Domain of a type in canonical ascending order."""
    if isinstance(dt, BoolType):
        return (False, True)
    if isinstance(dt, IntType):
        return tuple(range(dt.lo, dt.hi + 1))
    return dt.variants


def domain_size(dt: DataType) -> int:
    if isinstance(dt, BoolType):
        return 2
    if isinstance(dt, IntType):
        return dt.hi - dt.lo + 1
    return len(dt.variants)


def first_value(dt: DataType) -> Value:
    """First element of domain_values(dt), without building the domain."""
    if isinstance(dt, BoolType):
        return False
    if isinstance(dt, IntType):
        return dt.lo
    return dt.variants[0]


def in_domain(dt: DataType, v: Value) -> bool:
    if isinstance(dt, BoolType):
        return isinstance(v, bool)
    if isinstance(dt, IntType):
        return isinstance(v, int) and not isinstance(v, bool) and dt.lo <= v <= dt.hi
    return isinstance(v, str) and v in dt.variants


# signal kinds: value category without range information
Kind = Union[str, EnumType]  # "bool" | "int" | EnumType


def kind_of(dt: DataType) -> Kind:
    if isinstance(dt, BoolType):
        return "bool"
    if isinstance(dt, IntType):
        return "int"
    return dt


def kind_str(k: Kind) -> str:
    if isinstance(k, EnumType):
        return "enum{" + ",".join(k.variants) + "}"
    return k


def dtype_str(dt: DataType, enum_names: Mapping[EnumType, str] | None = None) -> str:
    if isinstance(dt, BoolType):
        return "bool"
    if isinstance(dt, IntType):
        return f"int[{dt.lo},{dt.hi}]"
    if enum_names and dt in enum_names:
        return enum_names[dt]
    return kind_str(dt)


# ---------------------------------------------------------------------------
# structure


@dataclass(frozen=True)
class Port:
    name: str
    direction: str  # "in" | "out"
    dtype: DataType
    init: Value | None = None  # hold seed when owned by a conditioned subsystem


@dataclass(frozen=True)
class Connection:
    src_block: str
    src_port: str
    dst_block: str
    dst_port: str
    line: int = field(default=0, compare=False)


@dataclass
class Block:
    name: str
    kind: str
    params: dict = field(default_factory=dict)
    children: "Diagram | None" = None
    line: int = field(default=0, compare=False)


@dataclass
class Diagram:
    inputs: list[Port] = field(default_factory=list)
    outputs: list[Port] = field(default_factory=list)
    blocks: dict[str, Block] = field(default_factory=dict)
    connections: list[Connection] = field(default_factory=list)


@dataclass
class Model:
    name: str
    enums: dict[str, EnumType] = field(default_factory=dict)
    diagram: Diagram = field(default_factory=Diagram)

    @property
    def inputs(self) -> list[Port]:
        return self.diagram.inputs

    @property
    def outputs(self) -> list[Port]:
        return self.diagram.outputs


# atomic block kinds and their port tables; subsystems derive ports from
# their boundary declarations
_PORT_TABLE: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "Inport": ((), ("out",)),
    "Outport": (("in",), ()),
    "Constant": ((), ("out",)),
    "UnitDelay": (("in",), ("out",)),
    "Switch": (("in1", "ctrl", "in3"), ("out",)),
    "Relational": (("in1", "in2"), ("out",)),
    "Sum": ((), ("out",)),  # inputs depend on the sign string
    "Product": (("in1", "in2"), ("out",)),
    "Gain": (("in",), ("out",)),
    "MinMax": (("in1", "in2"), ("out",)),
    "Saturation": (("in",), ("out",)),
    "DataStoreMemory": ((), ()),
    "DataStoreRead": ((), ("out",)),
    "DataStoreWrite": (("in",), ()),
    "HoldOutput": (("in",), ("out",)),  # synthesized during flattening only
}

ATOMIC_KINDS = frozenset(_PORT_TABLE) | {"Logic"}
SUBSYSTEM_KINDS = frozenset({"Subsystem", "EnabledSubsystem"})
ALL_KINDS = ATOMIC_KINDS | SUBSYSTEM_KINDS


def block_ports(block: Block) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Input and output port names of a block, in declaration order."""
    if block.kind == "Logic":
        ins = ("in1",) if block.params["op"] == "NOT" else ("in1", "in2")
        return ins, ("out",)
    if block.kind == "Sum":
        n = len(block.params["signs"])
        return tuple(f"in{i + 1}" for i in range(n)), ("out",)
    if block.kind in SUBSYSTEM_KINDS:
        assert block.children is not None
        ins = tuple(p.name for p in block.children.inputs)
        if block.kind == "EnabledSubsystem":
            ins = ins + ("enable",)
        return ins, tuple(p.name for p in block.children.outputs)
    return _PORT_TABLE[block.kind]


# ---------------------------------------------------------------------------
# flat form

# a resolved value source: ("in", external input name) or ("sig", block path)
Src = tuple[str, str]


@dataclass
class FlatBlock:
    path: str
    kind: str
    params: dict
    inputs: dict[str, Src]
    enables: tuple[Src, ...] = ()
    group: tuple[str, ...] = ()  # chain of conditioned-subsystem paths


@dataclass
class FlatModel:
    name: str
    inputs: list[Port]
    outputs: list[Port]
    blocks: dict[str, FlatBlock]
    output_sources: dict[str, Src]
    stores: dict[str, tuple[DataType, Value]]
    var_decls: dict[str, tuple[DataType, Value]]
    signal_kinds: dict[str, Kind]
    enums: dict[str, EnumType] = field(default_factory=dict)
    # schedule_units of the blocks as flattening left them, or None
    order: tuple[str, ...] | None = None

    @property
    def connections(self) -> list[Connection]:
        """Derived wire list over flat block paths (diagnostic view)."""
        out = []
        for blk in self.blocks.values():
            for port, (_tag, name) in sorted(blk.inputs.items()):
                out.append(Connection(name, "out", blk.path, port))
        return out

    def input_port(self, name: str) -> Port:
        for p in self.inputs:
            if p.name == name:
                return p
        raise KeyError(name)

    def input_domains(self) -> dict[str, DataType]:
        return {p.name: p.dtype for p in self.inputs}


HOLD_SUFFIX = ".hold"


def hold_var(path: str) -> str:
    return path + HOLD_SUFFIX


# ---------------------------------------------------------------------------
# flattening


class _Level:
    """One diagram instance during flattening."""

    def __init__(self, diagram: Diagram, prefix: str, parent: "_Level | None",
                 name_in_parent: str, group: tuple[str, ...]):
        self.diagram = diagram
        self.prefix = prefix  # "" at top, otherwise "Sub/" style
        self.parent = parent
        self.name_in_parent = name_in_parent
        self.group = group
        self.drivers: dict[tuple[str, str], Connection] = {}

    def path(self, block_name: str) -> str:
        return self.prefix + block_name


def _index_drivers(level: _Level) -> None:
    for conn in level.diagram.connections:
        key = (conn.dst_block, conn.dst_port)
        if key in level.drivers:
            raise ModelValidationError(
                f"port {conn.dst_block}.{conn.dst_port} has multiple drivers"
            )
        level.drivers[key] = conn


def _check_endpoints(level: _Level) -> None:
    blocks = level.diagram.blocks
    for conn in level.diagram.connections:
        for bname, pname, want_out in (
            (conn.src_block, conn.src_port, True),
            (conn.dst_block, conn.dst_port, False),
        ):
            if bname not in blocks:
                raise ModelValidationError(f"wire references unknown block {bname!r}")
            ins, outs = block_ports(blocks[bname])
            ok = pname in (outs if want_out else ins)
            if not ok:
                raise ModelValidationError(
                    f"block {bname!r} has no {'output' if want_out else 'input'} "
                    f"port {pname!r}"
                )


def flatten_and_validate(model: Model, datastore: str = "internal") -> FlatModel:
    """Inline subsystems, resolve wires and stores, and type-check.

    ``datastore`` selects how data stores are interpreted: ``"internal"``
    keeps them as state variables, ``"global"`` turns reads into fresh input
    ports and writes into fresh output ports.
    """
    if datastore not in ("internal", "global"):
        raise ValueError(f"unknown datastore mode {datastore!r}")

    flat = FlatModel(
        name=model.name,
        inputs=list(model.inputs),
        outputs=list(model.outputs),
        blocks={},
        output_sources={},
        stores={},
        var_decls={},
        signal_kinds={},
        enums=dict(model.enums),
    )

    in_names = {p.name for p in model.inputs}
    clash = in_names & {p.name for p in model.outputs}
    if clash:
        raise ModelValidationError(
            f"ports used as both input and output: {sorted(clash)}"
        )

    levels: list[_Level] = []
    store_paths: dict[_Level, dict[str, str]] = {}

    def build_level(diagram, prefix, parent, name_in_parent, group) -> _Level:
        lvl = _Level(diagram, prefix, parent, name_in_parent, group)
        _check_endpoints(lvl)
        _index_drivers(lvl)
        levels.append(lvl)
        store_paths[lvl] = {
            name: lvl.path(name)
            for name, blk in diagram.blocks.items()
            if blk.kind == "DataStoreMemory"
        }
        return lvl

    top = build_level(model.diagram, "", None, "", ())

    # source resolution with through-wire cycle detection
    memo: dict[tuple[int, str, str], Src] = {}
    resolving: set[tuple[int, str, str]] = set()
    child_levels: dict[tuple[int, str], _Level] = {}

    def driver_src(level: _Level, block: str, port: str) -> Src:
        conn = level.drivers.get((block, port))
        if conn is None:
            raise UnconnectedInput(
                f"{model.name}: input port {level.path(block)}.{port} is not wired"
            )
        return source_of(level, conn.src_block, conn.src_port)

    def source_of(level: _Level, block: str, port: str) -> Src:
        key = (id(level), block, port)
        if key in memo:
            return memo[key]
        if key in resolving:
            raise ModelValidationError(
                f"degenerate wire cycle through {level.path(block)}.{port}"
            )
        resolving.add(key)
        blk = level.diagram.blocks[block]
        if blk.kind == "Inport":
            if level.parent is None:
                src: Src = ("in", block)
            else:
                src = driver_src(level.parent, level.name_in_parent, block)
        elif blk.kind == "Subsystem":
            sub = child_levels[(id(level), block)]
            src = driver_src(sub, port, "in")  # inner Outport pseudo-block
        elif blk.kind == "EnabledSubsystem":
            sub = child_levels[(id(level), block)]
            src = ("sig", sub.prefix + port)  # hold block synthesized below
        else:
            src = ("sig", level.path(block))
        resolving.discard(key)
        memo[key] = src
        return src

    # pass 1: create all levels so cross-subsystem wires resolve lazily
    def expand(level: _Level) -> None:
        for name, blk in level.diagram.blocks.items():
            if blk.kind not in ALL_KINDS:
                raise ModelValidationError(f"unknown block kind {blk.kind!r}")
            if blk.kind in SUBSYSTEM_KINDS:
                prefix = level.path(name) + "/"
                group = level.group
                if blk.kind == "EnabledSubsystem":
                    group += (level.path(name),)
                sub = build_level(blk.children, prefix, level, name, group)
                child_levels[(id(level), name)] = sub
                expand(sub)

    expand(top)

    # pass 2: emit flat blocks in creation order; outer is the enable chain
    # of the enclosing scope, one source per enabled subsystem around it
    def emit(level: _Level, outer: tuple[Src, ...]) -> None:
        enables = outer
        if level.parent is not None:
            pblk = level.parent.diagram.blocks[level.name_in_parent]
            if pblk.kind == "EnabledSubsystem":
                enables += (driver_src(level.parent, level.name_in_parent, "enable"),)

        for name, blk in level.diagram.blocks.items():
            path = level.path(name)
            if blk.kind in SUBSYSTEM_KINDS:
                emit(child_levels[(id(level), name)], enables)
                continue
            if blk.kind == "Inport":
                if level.parent is None:
                    flat.blocks[path] = FlatBlock(path, "Inport", {}, {})
                continue
            if blk.kind == "Outport":
                if level.parent is None:
                    flat.blocks[path] = FlatBlock(
                        path, "Outport", {}, {"in": driver_src(level, name, "in")}
                    )
                    flat.output_sources[name] = driver_src(level, name, "in")
                # boundary outputs dissolve; conditioned ones get hold blocks below
                continue
            params = dict(blk.params)
            if blk.kind in ("DataStoreRead", "DataStoreWrite"):
                params["store"] = _resolve_store(level, params["store"])
            inputs = {
                port: driver_src(level, name, port)
                for port in block_ports(blk)[0]
            }
            flat.blocks[path] = FlatBlock(
                path, blk.kind, params, inputs, enables, level.group
            )
            if blk.kind == "UnitDelay":
                flat.var_decls[path] = (params["dtype"], params["init"])
            elif blk.kind == "DataStoreMemory":
                flat.stores[path] = (params["dtype"], params["init"])
                flat.var_decls[path] = (params["dtype"], params["init"])

        # synthesize hold blocks for conditioned boundary outputs
        if level.parent is not None:
            pblk = level.parent.diagram.blocks[level.name_in_parent]
            if pblk.kind == "EnabledSubsystem":
                for port in level.diagram.outputs:
                    path = level.prefix + port.name
                    init = port.init if port.init is not None else first_value(port.dtype)
                    if not in_domain(port.dtype, init):
                        raise ModelValidationError(
                            f"hold seed {init!r} outside domain of {path}"
                        )
                    blkf = FlatBlock(
                        path,
                        "HoldOutput",
                        {"dtype": port.dtype, "init": init, "gate": enables},
                        {"in": driver_src(level, port.name, "in")},
                        enables=outer,  # runs in the parent scope
                        group=level.group[:-1],
                    )
                    flat.blocks[path] = blkf
                    flat.var_decls[hold_var(path)] = (port.dtype, init)

    def _resolve_store(level: _Level, store_name: str) -> str:
        lvl: _Level | None = level
        while lvl is not None:
            if store_name in store_paths[lvl]:
                return store_paths[lvl][store_name]
            lvl = lvl.parent
        raise ModelValidationError(f"unknown data store {store_name!r}")

    emit(top, ())

    _check_inits(flat)
    order = schedule_units(flat)
    _infer_kinds(flat, order)
    if datastore != "global":
        flat.order = tuple(order)
    else:  # the blocks change, and so may their order
        _globalize_stores(flat)
        # interface changed; re-check name clashes
        names = [p.name for p in flat.inputs] + [p.name for p in flat.outputs]
        if len(names) != len(set(names)):
            raise ModelValidationError("data store port names clash with interface")
    return flat


def _check_inits(flat: FlatModel) -> None:
    for var, (dt, init) in flat.var_decls.items():
        if not in_domain(dt, init):
            raise ModelValidationError(
                f"initial value {init!r} outside declared domain of {var}"
            )


def _globalize_stores(flat: FlatModel) -> None:
    """Rewrite stores to fresh ports: reads become inputs, writes outputs."""
    for store, (dt, _init) in list(flat.stores.items()):
        port_name = store.replace("/", "_")
        reads = [b for b in flat.blocks.values()
                 if b.kind == "DataStoreRead" and b.params["store"] == store]
        writes = [b for b in flat.blocks.values()
                  if b.kind == "DataStoreWrite" and b.params["store"] == store]
        if len(writes) > 1:
            raise ModelValidationError(
                f"global data store {store} has {len(writes)} writers; at most one"
            )
        if reads:
            flat.inputs.append(Port(port_name, "in", dt))
            alias: Src = ("in", port_name)
            read_paths = {b.path for b in reads}
            for blk in flat.blocks.values():
                for p, src in list(blk.inputs.items()):
                    if src[0] == "sig" and src[1] in read_paths:
                        blk.inputs[p] = alias
            for name, src in list(flat.output_sources.items()):
                if src[0] == "sig" and src[1] in read_paths:
                    flat.output_sources[name] = alias
            for b in reads:
                del flat.blocks[b.path]
        if writes:
            w = writes[0]
            out_name = port_name + "_out"
            flat.outputs.append(Port(out_name, "out", dt))
            flat.output_sources[out_name] = w.inputs["in"]
            del flat.blocks[w.path]
        del flat.stores[store]
        del flat.var_decls[store]
        if store in flat.blocks:
            del flat.blocks[store]


# ---------------------------------------------------------------------------
# execution order (shared by the interpreter and CFG extraction)

_UNSCHEDULED = frozenset({"Inport", "Outport", "DataStoreMemory"})


def _item_of(flat: FlatModel, path: str, depth: int) -> str:
    """Scheduling item for a block seen from group depth ``depth``."""
    g = flat.blocks[path].group
    if len(g) > depth:
        return g[depth]  # the conditioned subsystem containing it
    return path


def schedule_units(flat: FlatModel) -> list[str]:
    """Topological execution order of the output phase.

    Conditioned subsystems are scheduled as atomic units (their children stay
    contiguous); ties are broken lexicographically by block path.  Raises
    :class:`AlgebraicLoop` when a cycle does not pass through a delay.
    """
    members: dict[tuple[str, ...], list[str]] = {}
    for path, blk in flat.blocks.items():
        if blk.kind in _UNSCHEDULED:
            continue
        members.setdefault(blk.group, []).append(path)

    def order_level(prefix: tuple[str, ...]) -> list[str]:
        depth = len(prefix)
        items: dict[str, list[str]] = {}
        for group, paths in members.items():
            if group[:depth] != prefix:
                continue
            for p in paths:
                items.setdefault(_item_of(flat, p, depth), []).append(p)
        deps: dict[str, set[str]] = {it: set() for it in items}
        rdeps: dict[str, set[str]] = {it: set() for it in items}

        def add_edge(src_item: str, dst_item: str) -> None:
            if src_item == dst_item or src_item not in items or dst_item not in items:
                return
            deps[dst_item].add(src_item)
            rdeps[src_item].add(dst_item)

        for it, paths in items.items():
            for p in paths:
                blk = flat.blocks[p]
                if blk.kind == "UnitDelay":
                    continue  # input consumed in the update phase
                srcs = list(blk.inputs.values())
                if blk.kind == "HoldOutput":
                    srcs += list(blk.params["gate"])
                srcs += list(blk.enables)
                for tag, name in srcs:
                    if tag != "sig":
                        continue
                    if name not in flat.blocks:
                        continue
                    add_edge(_item_of(flat, name, depth), _item_of(flat, p, depth))

        ready = [it for it, d in deps.items() if not d]
        heapq.heapify(ready)
        out: list[str] = []
        done: set[str] = set()
        while ready:
            it = heapq.heappop(ready)
            done.add(it)
            if it in flat.blocks:
                out.append(it)
            else:
                out.extend(order_level(prefix + (it,)))
            for nxt in sorted(rdeps[it]):
                deps[nxt].discard(it)
                if not deps[nxt] and nxt not in done:
                    heapq.heappush(ready, nxt)
        if len(done) != len(items):
            remaining = {it for it in items if it not in done}
            raise AlgebraicLoop(_find_cycle(deps, remaining))
        return out

    return order_level(())


def _find_cycle(deps: dict[str, set[str]], remaining: set[str]) -> list[str]:
    start = min(remaining)
    path = [start]
    seen = {start}
    cur = start
    while True:
        nxt = min(d for d in deps[cur] if d in remaining)
        if nxt in seen:
            i = path.index(nxt)
            return path[i:] + [nxt]
        path.append(nxt)
        seen.add(nxt)
        cur = nxt


# ---------------------------------------------------------------------------
# signal kinds and type checking

_INT_ONLY = frozenset({"Sum", "Product", "Gain", "MinMax", "Saturation"})
_ORDER_OPS = frozenset({"<", "<=", ">", ">="})


def _src_kind(flat: FlatModel, src: Src) -> Kind:
    tag, name = src
    if tag == "in":
        return kind_of(flat.input_port(name).dtype)
    return flat.signal_kinds[name]


def _infer_kinds(flat: FlatModel, order: list[str]) -> None:
    kinds = flat.signal_kinds

    def require(cond: bool, msg: str) -> None:
        if not cond:
            raise TypeMismatch(f"{flat.name}: {msg}")

    for path in order:
        blk = flat.blocks[path]
        k = blk.kind
        if k == "UnitDelay":
            # runs before its feeder; the input kind is checked afterwards
            kinds[path] = kind_of(blk.params["dtype"])
            continue
        ins = {p: _src_kind(flat, s) for p, s in blk.inputs.items()}
        if k == "Constant":
            kinds[path] = blk.params["kind"]
        elif k == "Switch":
            require(ins["in1"] == ins["in3"],
                    f"{path} mixes {kind_str(ins['in1'])} and {kind_str(ins['in3'])}")
            require(ins["ctrl"] in ("bool", "int"),
                    f"{path} control must be bool or int")
            kinds[path] = ins["in1"]
        elif k == "Logic":
            for p, kk in ins.items():
                require(kk == "bool", f"{path}.{p} must be bool, got {kind_str(kk)}")
            kinds[path] = "bool"
        elif k == "Relational":
            require(ins["in1"] == ins["in2"],
                    f"{path} compares {kind_str(ins['in1'])} with {kind_str(ins['in2'])}")
            if blk.params["op"] in _ORDER_OPS:
                require(ins["in1"] == "int", f"{path} order comparison needs ints")
            kinds[path] = "bool"
        elif k in _INT_ONLY:
            for p, kk in ins.items():
                require(kk == "int", f"{path}.{p} must be int, got {kind_str(kk)}")
            kinds[path] = "int"
        elif k == "DataStoreRead":
            kinds[path] = kind_of(flat.stores[blk.params["store"]][0])
        elif k == "DataStoreWrite":
            want = kind_of(flat.stores[blk.params["store"]][0])
            require(ins["in"] == want,
                    f"{path} writes {kind_str(ins['in'])} into {kind_str(want)} store")
        elif k == "HoldOutput":
            want = kind_of(blk.params["dtype"])
            require(ins["in"] == want,
                    f"{path} holds {kind_str(want)} but is fed {kind_str(ins['in'])}")
            kinds[path] = want

    # delayed check: a delay's feeder is scheduled after the delay itself
    for path, blk in flat.blocks.items():
        if blk.kind == "UnitDelay":
            want = kind_of(blk.params["dtype"])
            got = _src_kind(flat, blk.inputs["in"])
            require(got == want,
                    f"{path} stores {kind_str(want)} but is fed {kind_str(got)}")

    # enable signals must be boolean
    for blk in flat.blocks.values():
        gates = set(blk.enables)
        if blk.kind == "HoldOutput":
            gates |= set(blk.params["gate"])
        for src in gates:
            if _src_kind(flat, src) != "bool":
                raise TypeMismatch(
                    f"{flat.name}: enable feeding {blk.path} must be bool"
                )

    # external outputs
    for port in flat.outputs:
        if port.name not in flat.output_sources:
            raise UnconnectedInput(f"{flat.name}: output {port.name} is not wired")
        got = _src_kind(flat, flat.output_sources[port.name])
        if got != kind_of(port.dtype):
            raise TypeMismatch(
                f"{flat.name}: output {port.name} declared "
                f"{kind_str(kind_of(port.dtype))} but wired to {kind_str(got)}"
            )


# ---------------------------------------------------------------------------
# port mapping and interface check


@dataclass(frozen=True)
class PortMapping:
    """Pairs every port of the model under replacement (B) with one of the
    candidate (A); candidate inputs without a counterpart are listed as free.
    """

    pairs: tuple[tuple[str, str], ...]  # (b port, a port)
    extra_inputs_a: tuple[str, ...]

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def a_to_b(self) -> dict[str, str]:
        return {a: b for b, a in self.pairs}


def derive_port_mapping(
    a: FlatModel | Model,
    b: FlatModel | Model,
    overrides: Mapping[str, str] | None = None,
) -> PortMapping:
    """Match B's ports to A's by name, honoring explicit overrides."""
    overrides = dict(overrides or {})
    a_ports = {p.name: p for p in list(a.inputs) + list(a.outputs)}
    b_ports = {p.name: p for p in list(b.inputs) + list(b.outputs)}

    for bp, ap in overrides.items():
        if bp not in b_ports:
            raise ConflictingOverride(f"override source {bp!r} is not a port of B")
        if ap not in a_ports:
            raise ConflictingOverride(f"override target {ap!r} is not a port of A")
        if b_ports[bp].direction != a_ports[ap].direction:
            raise ConflictingOverride(
                f"override {bp} = {ap} crosses port directions"
            )

    pairs: list[tuple[str, str]] = []
    used_a: dict[str, str] = {}
    for name, port in b_ports.items():
        target = overrides.get(name)
        if target is None:
            cand = a_ports.get(name)
            if cand is None or cand.direction != port.direction:
                raise UnmappedPort(
                    f"no counterpart for B port {name!r}; add a mapping override"
                )
            target = name
        if target in used_a:
            raise ConflictingOverride(
                f"A port {target!r} matched by both {used_a[target]!r} and {name!r}"
            )
        used_a[target] = name
        pairs.append((name, target))

    extra = tuple(
        p.name for p in a.inputs if p.name not in used_a
    )
    return PortMapping(tuple(pairs), extra)


@dataclass
class InterfaceReport:
    compatible: bool
    violations: list[tuple[str, str]]
    dom_b: dict[str, DataType]
    extra_inputs_a: tuple[str, ...]


def check_interface(
    a: FlatModel | Model, b: FlatModel | Model, mapping: PortMapping
) -> InterfaceReport:
    """Static port compatibility: kinds must match on every mapped pair,
    B's input ranges must fit inside A's, output types must be equal.
    """
    a_ports = {p.name: p for p in list(a.inputs) + list(a.outputs)}
    b_ports = {p.name: p for p in list(b.inputs) + list(b.outputs)}
    violations: list[tuple[str, str]] = []

    for bname, aname in mapping.pairs:
        bp, ap = b_ports[bname], a_ports[aname]
        if kind_of(bp.dtype) != kind_of(ap.dtype):
            violations.append((
                bname,
                f"kind mismatch: {kind_str(kind_of(bp.dtype))} vs "
                f"{kind_str(kind_of(ap.dtype))}",
            ))
            continue
        if bp.direction == "in":
            if isinstance(bp.dtype, IntType) and isinstance(ap.dtype, IntType):
                if bp.dtype.lo < ap.dtype.lo or bp.dtype.hi > ap.dtype.hi:
                    violations.append((
                        bname,
                        f"input range [{bp.dtype.lo},{bp.dtype.hi}] not contained "
                        f"in [{ap.dtype.lo},{ap.dtype.hi}]",
                    ))
            elif isinstance(bp.dtype, EnumType) and bp.dtype != ap.dtype:
                violations.append((bname, "enum variants differ"))
        else:
            if bp.dtype != ap.dtype:
                violations.append((bname, "output types differ"))

    dom_b = {p.name: p.dtype for p in b.inputs}
    return InterfaceReport(not violations, violations, dom_b, mapping.extra_inputs_a)
