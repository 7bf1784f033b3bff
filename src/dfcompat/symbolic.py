"""Symbolic step summaries.

Walking the step CFG with an expression environment eliminates every
internal signal: what remains is, per output port and per state variable,
one expression over current-state variables and current inputs.  Branches
merge as if-then-else terms, so the summary stays a single definition per
target no matter how many paths the CFG has.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, Sequence

from .errors import PathExplosion
from .exprs import (
    Binary,
    Const,
    Expr,
    InputRef,
    Ite,
    SignalRef,
    Unary,
    Value,
    VarRef,
    equal,
    fold,
    free_names,
    free_signals,
    normalize,
    postorder,
    render,
    rewrite,
)
from .cfg import BranchEl, Cfg, Straight
from .model import DataType, EnumType

DEFAULT_SPLIT_CAP = 4096


@dataclass(frozen=True)
class SymbolicStep:
    """One synchronous step as closed-form expressions.

    outputs[p] and updates[v] mention only InputRef and VarRef terms; the
    VarRefs denote pre-step values throughout.
    """

    name: str
    inputs: dict[str, DataType]
    vars: dict[str, tuple[DataType, Value]]
    outputs: dict[str, Expr]
    updates: dict[str, Expr]
    enums: dict[str, EnumType] = field(default_factory=dict)

    def initial_state(self) -> dict[str, Value]:
        return {v: init for v, (_, init) in self.vars.items()}


def _read(n: Expr, sigs: Mapping[str, Expr], varenv: Mapping[str, Expr]) -> Expr | None:
    """A leaf with its read replaced by the current expression; None for
    an operator node."""
    kind = type(n)
    if kind is SignalRef:
        return sigs.get(n.name, n)
    if kind is VarRef:
        return varenv.get(n.name, n)
    return n if kind is Const or kind is InputRef else None


def _current(rhs: Expr, sigs: Mapping[str, Expr], varenv: Mapping[str, Expr]) -> Expr:
    """``substitute(rhs, signals=sigs, variables=varenv)``: built directly
    when rhs is a leaf or one operator over leaves, as a block's
    assignment is; a deeper rhs goes through ``rewrite``."""
    kind = type(rhs)
    if kind is Binary:
        a, b = _read(rhs.left, sigs, varenv), _read(rhs.right, sigs, varenv)
        if a is not None and b is not None:
            return rhs if a is rhs.left and b is rhs.right else Binary(rhs.op, a, b)
    elif kind is Unary:
        a = _read(rhs.arg, sigs, varenv)
        if a is not None:
            return rhs if a is rhs.arg else Unary(rhs.op, a)
    elif kind is Ite:
        c = _read(rhs.cond, sigs, varenv)
        t = _read(rhs.then, sigs, varenv)
        o = _read(rhs.other, sigs, varenv)
        if c is not None and t is not None and o is not None:
            if c is rhs.cond and t is rhs.then and o is rhs.other:
                return rhs
            return Ite(c, t, o)
    else:
        return _read(rhs, sigs, varenv)
    return rewrite([rhs], signals=sigs, variables=varenv)[0]


# a name that had no value before a branch arm
_UNSET = object()


def summarize(cfg: Cfg) -> SymbolicStep:
    flat = cfg.flat

    def process(elems: list, sigs: dict[str, Expr], varenv: dict[str, Expr],
                log: dict[tuple[str, str], Expr] | None = None):
        """Walk elems, assigning in sigs and varenv in place.  Inside a
        branch arm, log keeps per name assigned, by space, its value before
        the arm (``_UNSET`` when it had none)."""
        envs = {"var": varenv, "sig": sigs}
        for el in elems:
            if isinstance(el, Straight):
                assigns = cfg.nodes[el.node]
                if log is not None:
                    for space, target, _ in assigns:
                        if (space, target) not in log:
                            log[space, target] = envs[space].get(target, _UNSET)
                for space, target, rhs in assigns:
                    val = _current(rhs, sigs, varenv)
                    if space == "var":
                        varenv[target] = val
                    else:
                        sigs[target] = val
                continue
            # each arm runs from the values before the branch, which are put
            # back after it; only the names some arm assigned are merged
            guard = _current(el.guard, sigs, varenv)
            before: dict[tuple[str, str], Expr] = {}
            arms = []
            for body in (el.then, el.other):
                arm: dict[tuple[str, str], Expr] = {}
                process(body, sigs, varenv, arm)
                arms.append({k: envs[k[0]][k[1]] for k in arm})
                for (space, target), old in arm.items():
                    if old is _UNSET:
                        del envs[space][target]
                    else:
                        envs[space][target] = old
                before |= arm
            then, other = arms
            for key, old in before.items():
                a, b = then.get(key, old), other.get(key, old)
                if a is _UNSET:
                    val = b
                elif b is _UNSET or equal(a, b):
                    val = a
                else:
                    val = Ite(guard, a, b)
                if log is not None and key not in log:
                    log[key] = old
                envs[key[0]][key[1]] = val

    sigs: dict[str, Expr] = {}
    varenv: dict[str, Expr] = {v: VarRef(v) for v in flat.var_decls}
    process(cfg.elements, sigs, varenv)

    outputs: dict[str, Expr] = {
        port: InputRef(name) if tag == "in" else sigs[name]
        for port, (tag, name) in flat.output_sources.items()
    }
    updates: dict[str, Expr] = {
        var: _current(rhs, sigs, varenv)
        for var, rhs in cfg.update_assigns
    }
    # stores are updated in place during the walk, not via the exit node
    for var in flat.var_decls:
        if var not in updates:
            updates[var] = varenv[var]
    # one memo for all: an output and an update reading one signal stay
    # one object, which every later pass handles once
    roots = [*outputs.values(), *updates.values()]
    nodes = postorder(roots)
    folded = rewrite(roots, fold=True, order=nodes)
    outputs = dict(zip(outputs, folded))
    updates = dict(zip(updates, folded[len(outputs):]))

    # folding adds no signal reference, so only then can one be left
    if any(type(n) is SignalRef for n in nodes):
        for label, exprs in (("output", outputs), ("update", updates)):
            for target, e in exprs.items():
                left = free_signals(e)
                if left:
                    raise AssertionError(
                        f"{label} {target} still references signals {sorted(left)}"
                    )

    return SymbolicStep(
        name=flat.name,
        inputs={p.name: p.dtype for p in flat.inputs},
        vars=dict(flat.var_decls),
        outputs=outputs,
        updates=updates,
        enums=dict(flat.enums),
    )


# ---------------------------------------------------------------------------
# case splitting


@dataclass(frozen=True)
class GuardedDef:
    """One branch-free alternative: value applies when all conds hold."""

    conds: tuple[Expr, ...]
    value: Expr


def _extend(conds: tuple[Expr, ...], lit: Expr) -> tuple[Expr, ...] | None:
    """Add a normalized literal; None signals a contradictory set."""
    lit = normalize(lit)
    if lit == Const(False):
        return None
    if lit == Const(True) or any(equal(lit, c) for c in conds):
        return conds
    neg = normalize(Unary("not", lit))
    if any(equal(neg, c) for c in conds):
        return None
    return conds + (lit,)


def _joined(conds: tuple[Expr, ...] | None, lits: tuple[Expr, ...]) -> tuple[Expr, ...] | None:
    """conds extended by each literal in turn; None once contradictory."""
    for lit in lits:
        if conds is None:
            break
        conds = _extend(conds, lit)
    return conds


def split_expr(
    e: Expr, cap: int = DEFAULT_SPLIT_CAP, stage: str = "splitting an expression"
) -> list[GuardedDef]:
    """All branch-free alternatives of an expression.

    Splits on every Ite, including ones nested inside conditions and
    arithmetic operands.  Contradictory condition sets are dropped as they
    form; more than `cap` live alternatives aborts with PathExplosion,
    naming the stage.
    Each distinct node is split once.  An arm is only needed where its
    condition can hold, so a node past the cap marks its parents as past
    it too, and only the marked root raises.
    """
    root = fold(e)
    # per node id: its (conds, value) alternatives, or None past the cap
    alts: dict[int, list[tuple[tuple[Expr, ...], Expr]] | None] = {}
    for n in postorder([root]):
        kind = type(n)
        if kind is Unary:
            arg = alts[id(n.arg)]
            out = None if arg is None else [
                (c, n if v is n.arg else Unary(n.op, v)) for c, v in arg
            ]
        elif kind is Binary:
            left, right = alts[id(n.left)], alts[id(n.right)]
            out = None if left is None or right is None else [
                (conds, n if vl is n.left and vr is n.right else Binary(n.op, vl, vr))
                for cl, vl in left for cr, vr in right
                if (conds := _joined(cl, cr)) is not None
            ]
        elif kind is Ite:
            out = _split_ite(n, alts)
        else:
            out = [((), n)]
        alts[id(n)] = None if out is None or len(out) > cap else out
    pairs = alts[id(root)]
    if pairs is None:
        raise PathExplosion(f"{stage} needs more than {cap} alternatives (cap {cap})")
    if len(pairs) == 1 and pairs[0][1] is root:  # no ite: the folded e itself
        return [GuardedDef(*pairs[0])]
    values = rewrite([v for _, v in pairs], fold=True)
    return [GuardedDef(conds, v) for (conds, _), v in zip(pairs, values)]


def _split_ite(n: Ite, alts: dict) -> list[tuple[tuple[Expr, ...], Expr]] | None:
    """The alternatives of n from its children's, None when its condition
    or an arm it may take is past the cap."""
    if alts[id(n.cond)] is None:
        return None
    out = []
    for cc, cv in alts[id(n.cond)]:
        for arm, taken in ((n.then, cv), (n.other, Unary("not", cv))):
            base = _extend(cc, taken)
            if base is None:
                continue
            if alts[id(arm)] is None:
                return None
            out += [(conds, va) for ca, va in alts[id(arm)]
                    if (conds := _joined(base, ca)) is not None]
    return out


# ---------------------------------------------------------------------------
# clone pruning


def detect_clones(step: SymbolicStep) -> dict[str, str]:
    """Map each redundant state variable to its surviving representative.

    Two variables are merged when they start equal and their updates are
    structurally identical once every variable is read through its class
    representative; the partition is refined from the coarsest grouping, so
    any stable mutual recursion between clones is kept merged.
    """
    groups: dict[object, list[str]] = {}
    for v, (dtype, init) in step.vars.items():
        groups.setdefault((dtype, init), []).append(v)
    classes = [sorted(g) for g in groups.values()]
    # normal forms interned across the search: equal forms are one object
    canon: dict = {}

    while True:
        rep = {v: members[0] for members in classes for v in members}
        remap = {v: VarRef(r) for v, r in rep.items() if r != v}
        refined: list[list[str]] = []
        changed = False
        for members in classes:
            if len(members) == 1:  # a class of one never splits
                refined.append(members)
                continue
            sig_groups: dict[int, list[str]] = {}
            forms = rewrite([step.updates[v] for v in members], variables=remap)
            for v, form in zip(members, forms):
                sig_groups.setdefault(id(normalize(form, canon)), []).append(v)
            if len(sig_groups) > 1:
                changed = True
            refined.extend(sorted(g) for g in sig_groups.values())
        classes = refined
        if not changed:
            break

    return {
        v: members[0]
        for members in classes
        for v in members[1:]
        if len(members) > 1
    }


def prune_clones(step: SymbolicStep) -> tuple[SymbolicStep, dict[str, str]]:
    """Drop variables that provably mirror another one."""
    mapping = detect_clones(step)
    if not mapping:
        return step, {}
    remap = {v: VarRef(r) for v, r in mapping.items()}
    kept = [v for v in step.updates if v not in mapping]
    outputs, updates = _rewrite_step(step, kept, variables=remap, fold=True)
    vars_left = {v: d for v, d in step.vars.items() if v not in mapping}
    return replace(step, vars=vars_left, outputs=outputs, updates=updates), mapping


# ---------------------------------------------------------------------------
# interface adjustments


def bind_inputs(step: SymbolicStep, binding: Mapping[str, Value]) -> SymbolicStep:
    """Pin input ports to constants and remove them from the interface."""
    consts = {n: Const(v) for n, v in binding.items()}
    outputs, updates = _rewrite_step(step, step.updates, inputs=consts, fold=True)
    return replace(
        step,
        inputs={n: d for n, d in step.inputs.items() if n not in binding},
        outputs=outputs,
        updates=updates,
    )


def rename_inputs(step: SymbolicStep, name_map: Mapping[str, str]) -> SymbolicStep:
    """Rewrite input port names, e.g. onto the peer model's port names."""
    refs = {old: InputRef(new) for old, new in name_map.items() if old != new}
    if not refs:
        return step
    outputs, updates = _rewrite_step(step, step.updates, inputs=refs)
    return replace(
        step,
        inputs={name_map.get(n, n): d for n, d in step.inputs.items()},
        outputs=outputs,
        updates=updates,
    )


def _rewrite_step(
    step: SymbolicStep, kept: Iterable[str], **how
) -> tuple[dict[str, Expr], dict[str, Expr]]:
    """The step's outputs and the updates of the kept variables, rewritten
    (``rewrite``) with one memo."""
    kept = list(kept)
    roots = [*step.outputs.values(), *(step.updates[v] for v in kept)]
    done = rewrite(roots, **how)
    return dict(zip(step.outputs, done)), dict(zip(kept, done[len(step.outputs):]))


def step_to_text(step: SymbolicStep) -> str:
    """Readable dump of the closed-form step definitions."""
    lines = [f"step {step.name}"]
    text = render([*step.outputs.values(), *step.updates.values()])
    for n, dt in sorted(step.inputs.items()):
        lines.append(f"  in  {n} : {dt}")
    for v, (dt, init) in sorted(step.vars.items()):
        lines.append(f"  var {v} : {dt} = {init!r}")
    for p, e in sorted(step.outputs.items()):
        lines.append(f"  out {p} = {text[id(e)]}")
    for v, e in sorted(step.updates.items()):
        lines.append(f"  {v}' = {text[id(e)]}")
    return "\n".join(lines) + "\n"


def restrict_to_outputs(step: SymbolicStep, ports: Sequence[str]) -> SymbolicStep:
    """Keep only the given outputs plus the state they transitively need."""
    found: dict[int, frozenset[str]] = {}

    def names(e: Expr) -> frozenset[str]:  # once per distinct expression
        if id(e) not in found:
            found[id(e)] = free_names(e)
        return found[id(e)]

    used = set().union(*(names(step.outputs[p]) for p in ports))
    keep: set[str] = set()
    frontier = used & step.vars.keys()
    while frontier:
        keep |= frontier
        new = set().union(*(names(step.updates[v]) for v in frontier))
        used |= new
        frontier = (new & step.vars.keys()) - keep
    used_inputs = used & step.inputs.keys()
    return replace(
        step,
        inputs={n: d for n, d in step.inputs.items() if n in used_inputs},
        vars={v: d for v, d in step.vars.items() if v in keep},
        outputs={p: step.outputs[p] for p in ports},
        updates={v: step.updates[v] for v in keep},
    )
