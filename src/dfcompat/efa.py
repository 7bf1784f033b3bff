"""Guarded-transition form of a symbolic step.

Case-splitting every output and update definition and taking the product
of the alternatives yields a flat list of transitions, each with an
ite-free guard over inputs and pre-state plus ite-free right-hand sides.
Unsatisfiable combinations are pruned as the product is built, and the
result can be verified to be deterministic (pairwise disjoint guards) and
total (guards cover the whole domain).  ``image_map`` takes each state's
successors under one transition from unfolding's row primitive
(``unfold._Image``), so it shares unfolding's per-state budget and errors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import DomainTooLarge
from .exprs import (
    Binary,
    Expr,
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
from .solver import DEFAULT_BUDGET, Domain, is_sat, row_count, row_starts, sat_witness
from .symbolic import (
    DEFAULT_SPLIT_CAP,
    GuardedDef,
    SymbolicStep,
    _extend,
    split_expr,
)
from .unfold import _Image


def state_domain(step: SymbolicStep) -> Domain:
    return Domain({v: dt for v, (dt, _) in step.vars.items()})


def full_domain(step: SymbolicStep) -> Domain:
    return Domain(dict(step.inputs)).merged(state_domain(step))


@dataclass(frozen=True)
class EfaTransition:
    guard: Expr
    outputs: dict[str, Expr]
    updates: dict[str, Expr]


@dataclass
class Efa:
    step: SymbolicStep
    transitions: list[EfaTransition]

    def domain(self) -> Domain:
        return full_domain(self.step)


def build_efa(
    step: SymbolicStep,
    cap: int = DEFAULT_SPLIT_CAP,
    budget: int = DEFAULT_BUDGET,
    verify: bool = True,
) -> Efa:
    out_ports = sorted(step.outputs)
    var_names = sorted(step.updates)
    targets: list[tuple[str, str]] = [("out", p) for p in out_ports] + [
        ("upd", v) for v in var_names
    ]
    # an output and an update that are one expression are split once
    split: dict[int, list[GuardedDef]] = {}
    roots = [step.outputs[p] for p in out_ports] + [step.updates[v] for v in var_names]
    for e in roots:
        if id(e) not in split:
            split[id(e)] = split_expr(e, cap)
    cases = [split[id(e)] for e in roots]

    dom = full_domain(step)
    stage = f"checking the guarded transitions of {step.name}"
    transitions: list[EfaTransition] = []

    def product(i: int, conds: tuple[Expr, ...], vals: list[Expr]) -> None:
        if i == len(targets):
            outputs = dict(zip(out_ports, vals[: len(out_ports)]))
            updates = dict(zip(var_names, vals[len(out_ports):]))
            transitions.append(EfaTransition(conjoin(list(conds)), outputs, updates))
            return
        for gd in cases[i]:
            merged: tuple[Expr, ...] | None = conds
            for lit in gd.conds:
                merged = _extend(merged, lit)
                if merged is None:
                    break
            if merged is None:
                continue
            if merged != conds and not is_sat(conjoin(list(merged)), dom, budget, stage):
                continue
            product(i + 1, merged, vals + [gd.value])

    product(0, (), [])

    if verify:
        union = disjoin([t.guard for t in transitions])
        hole = sat_witness(Unary("not", union), dom, budget, stage)
        if hole is not None:
            raise AssertionError(f"transition guards miss assignment {hole}")
        for i in range(len(transitions)):
            for j in range(i + 1, len(transitions)):
                overlap = sat_witness(
                    Binary("and", transitions[i].guard, transitions[j].guard),
                    dom,
                    budget,
                    stage,
                )
                if overlap is not None:
                    raise AssertionError(
                        f"transitions {i} and {j} overlap on {overlap}"
                    )
    return Efa(step, transitions)


def image_map(
    efa: Efa, budget: int = DEFAULT_BUDGET
) -> list[dict[tuple[Value, ...], frozenset[tuple[Value, ...]]]]:
    """Per-transition successor map: old state vector to the set of new ones.

    Keys are exactly the valuations whose guard is satisfiable for some
    input.  Transitions that leave every variable unchanged contribute an
    empty map since they cannot reach new states.  Before a transition's
    states are walked, its rows are counted as ``sat_witness`` counts them
    (``row_starts``): every state times the input rows of the names it
    mentions, an integer only compared with constants taking a row per
    interval.
    """
    image = _Image(efa.step, budget)
    var_names = image.var_names
    var_dom = state_domain(efa.step)
    maps: list[dict[tuple[Value, ...], frozenset[tuple[Value, ...]]]] = []
    for tr in efa.transitions:
        if all(tr.updates[v] == VarRef(v) for v in var_names):
            maps.append({})
            continue
        roots = [tr.updates[v] for v in var_names] + [tr.guard]
        names, starts = row_starts(roots, efa.domain())
        inputs = [(n, s) for n, s in zip(names, starts) if n in image.dom]
        space = var_dom.space(var_names) * row_count(image.dom, inputs)
        if space > budget:
            raise DomainTooLarge(
                f"image of a transition of {efa.step.name} needs {space} input rows "
                f"over its states (budget {budget})"
            )
        order = postorder(roots)
        entry: dict[tuple[Value, ...], frozenset[tuple[Value, ...]]] = {}
        for old in itertools.product(*(var_dom.values(v) for v in var_names)):
            binding = dict(zip(var_names, old))
            *spec, guard = specialise(roots, binding, order)
            _, _, rows = image.rows(binding, spec, guard)
            succs = frozenset(succ for _, succ in rows)
            if succs:
                entry[old] = succs
        maps.append(entry)
    return maps


def efa_to_text(efa: Efa) -> str:
    lines = [f"machine {efa.step.name}"]
    lines.append(f"  inputs: {', '.join(sorted(efa.step.inputs)) or '(none)'}")
    lines.append(
        "  state: "
        + (
            ", ".join(f"{v}={init!r}" for v, (_, init) in sorted(efa.step.vars.items()))
            or "(none)"
        )
    )
    text = render(
        e for t in efa.transitions for e in (t.guard, *t.outputs.values(), *t.updates.values())
    )
    for i, t in enumerate(efa.transitions):
        guard = "true" if t.guard == TRUE else text[id(t.guard)]
        lines.append(f"  [{i}] when {guard}:")
        for p, e in sorted(t.outputs.items()):
            lines.append(f"        {p} = {text[id(e)]}")
        for v, e in sorted(t.updates.items()):
            lines.append(f"        {v}' = {text[id(e)]}")
    return "\n".join(lines) + "\n"
