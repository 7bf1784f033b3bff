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
    free_inputs,
    to_str,
)
from .solver import DEFAULT_BUDGET, Domain, is_sat, sat_witness
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
    cases: list[list[GuardedDef]] = [
        split_expr(step.outputs[p], cap) for p in out_ports
    ] + [split_expr(step.updates[v], cap) for v in var_names]

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
    empty map since they cannot reach new states.
    """
    image = _Image(efa.step, budget)
    var_names = image.var_names
    var_dom = state_domain(efa.step)
    maps: list[dict[tuple[Value, ...], frozenset[tuple[Value, ...]]]] = []
    for tr in efa.transitions:
        if all(tr.updates[v] == VarRef(v) for v in var_names):
            maps.append({})
            continue
        active = free_inputs(tr.guard).union(*map(free_inputs, tr.updates.values()))
        space = var_dom.space(var_names) * image.dom.space(active)
        if space > budget:
            raise DomainTooLarge(
                f"image of one transition needs {space} evaluations (budget {budget})"
            )
        entry: dict[tuple[Value, ...], frozenset[tuple[Value, ...]]] = {}
        for old in itertools.product(*(var_dom.values(v) for v in var_names)):
            _, _, rows = image.rows(dict(zip(var_names, old)), tr.updates, tr.guard)
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
    for i, t in enumerate(efa.transitions):
        guard = "true" if t.guard == TRUE else to_str(t.guard)
        lines.append(f"  [{i}] when {guard}:")
        for p, e in sorted(t.outputs.items()):
            lines.append(f"        {p} = {to_str(e)}")
        for v, e in sorted(t.updates.items()):
            lines.append(f"        {v}' = {to_str(e)}")
    return "\n".join(lines) + "\n"
