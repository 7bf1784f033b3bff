"""Finite-domain satisfiability by bounded enumeration.

All queries the compatibility checker needs reduce to searching a product
of small declared domains.  Witnesses are deterministic: variables are
enumerated in sorted name order, values in ascending domain order, and
variables the formula does not mention stay at their first domain value,
which makes every witness the lexicographically least satisfying total
assignment.  A query's rows, and its refusal with DomainTooLarge when they
exceed the evaluation budget, are ``rows.plan``'s, as for every other
stage: an integer only compared with constants takes a row per interval.

SMT-LIB 2 emission of the same queries supports cross-checking against an
external solver.
"""

from __future__ import annotations

import itertools
import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, SolverFailure
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
    disjoin,
    free_names,
    postorder,
    substitute,
)
from .model import (
    BoolType,
    DataType,
    EnumType,
    IntType,
    domain_size,
    domain_values,
    first_value,
)
from .rows import compile_expr, declared_names, plan, row_uses

DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Domain:
    """Finite domain assignment for every name a formula may mention."""

    dtypes: Mapping[str, DataType]

    @staticmethod
    def of(**dtypes: DataType) -> "Domain":
        return Domain(dict(dtypes))

    def __contains__(self, name: str) -> bool:
        return name in self.dtypes

    def sorted_names(self) -> list[str]:
        return sorted(self.dtypes)

    def values(self, name: str) -> tuple[Value, ...]:
        return domain_values(self.dtypes[name])

    def first(self, name: str) -> Value:
        return first_value(self.dtypes[name])

    def first_values(self) -> dict[str, Value]:
        """Every name at its first value, which fills in the names a row
        leaves out."""
        return {n: self.first(n) for n in self.sorted_names()}

    def space(self, names: Iterable[str] | None = None) -> int:
        size = 1
        for n in self.sorted_names() if names is None else names:
            size *= domain_size(self.dtypes[n])
        return size

    def restrict(self, names: Iterable[str]) -> "Domain":
        return Domain({n: self.dtypes[n] for n in names})

    def merged(self, other: "Domain") -> "Domain":
        joined = dict(self.dtypes)
        for n, dt in other.dtypes.items():
            if n in joined and joined[n] != dt:
                raise DomainError(f"conflicting domains for {n}: {joined[n]} vs {dt}")
            joined[n] = dt
        return Domain(joined)


def _free_in_domain(expr: Expr, dom: Domain) -> list[str]:
    return declared_names(free_names(expr), dom.dtypes)


def sat_witness(
    expr: Expr, dom: Domain, budget: int = DEFAULT_BUDGET, stage: str = "satisfiability"
) -> dict[str, Value] | None:
    """Least satisfying total assignment, or None when unsatisfiable.

    The rows are ``rows.plan``'s: an integer the formula only compares with
    constants takes one row per interval, at its least value.  Raises
    DomainError for undeclared names and DomainTooLarge, naming the stage,
    when the rows exceed the budget; no value list is built then.
    """
    grid = plan(
        row_uses([expr], (InputRef, VarRef)), dom.dtypes, budget, stage,
        lambda names: f" over {len(names)} names",
    )
    holds = compile_expr(expr, grid.names)
    for combo in itertools.product(*grid.values):
        if holds(combo):
            return dom.first_values() | dict(zip(grid.names, combo))
    return None


def is_sat(
    expr: Expr, dom: Domain, budget: int = DEFAULT_BUDGET, stage: str = "satisfiability"
) -> bool:
    return sat_witness(expr, dom, budget, stage) is not None


@dataclass(frozen=True)
class CoverResult:
    covered: bool
    chosen: tuple[int, ...]
    residual_witness: dict[str, Value] | None


def minimal_cover(
    target: Expr,
    candidates: Sequence[Expr],
    dom: Domain,
    budget: int = DEFAULT_BUDGET,
) -> CoverResult:
    """Which candidate guards are needed to cover the target guard.

    Every candidate with a satisfiable overlap is selected (candidates are
    pairwise disjoint in the intended use, so each overlapping one is
    necessary).  If their union still misses part of the target, the least
    missed assignment comes back as the residual witness.
    """
    chosen = tuple(
        i
        for i, cand in enumerate(candidates)
        if sat_witness(Binary("and", target, cand), dom, budget) is not None
    )
    union = disjoin([candidates[i] for i in chosen])
    residual = sat_witness(Binary("and", target, Unary("not", union)), dom, budget)
    return CoverResult(residual is None, chosen, residual)


def exists_forall_constants(
    formula: Expr,
    const_names: Sequence[str],
    dom: Domain,
    budget: int = DEFAULT_BUDGET,
    exclude: Sequence[Mapping[str, Value]] = (),
    stage: str = "constant search",
) -> dict[str, Value] | None:
    """Constants for const_names making the formula valid over the rest.

    Candidate constant vectors are tried in lexicographic order, skipping
    excluded ones; the first vector whose substituted formula has no
    counterexample wins.  The budget counts the constant vectors times the
    rows ``rows.plan`` gives the other names.
    """
    consts = sorted(const_names)
    for c in consts:
        if c not in dom:
            raise DomainError(f"constant {c} has no declared domain")
    uses = row_uses([formula], (InputRef, VarRef))
    plan(
        {n: c for n, c in uses.items() if n not in consts}, dom.dtypes, budget, stage,
        lambda names: f" over {len(consts)}+{len(names)} names", times=dom.space(consts),
    )
    skip = {tuple(sorted(e.items())) for e in exclude}
    inner_dom = dom.restrict(n for n in dom.sorted_names() if n not in consts)
    for combo in itertools.product(*(dom.values(c) for c in consts)):
        cand = dict(zip(consts, combo))
        if tuple(sorted(cand.items())) in skip:
            continue
        bound = substitute(
            formula,
            inputs={c: Const(v) for c, v in cand.items()},
            variables={c: Const(v) for c, v in cand.items()},
        )
        if sat_witness(Unary("not", bound), inner_dom, budget, stage) is None:
            return cand
    return None


# ---------------------------------------------------------------------------
# SMT-LIB 2 emission

_SMT_BINOPS = {
    "and": "and",
    "or": "or",
    "xor": "xor",
    "add": "+",
    "sub": "-",
    "mul": "*",
    "eq": "=",
    "ne": "distinct",
    "lt": "<",
    "le": "<=",
    "gt": ">",
    "ge": ">=",
}


def _smt_sym(name: str) -> str:
    if name.isidentifier():
        return name
    return f"|{name}|"


def _variant_owner(variant: str, enums: Mapping[str, EnumType]) -> str:
    owners = [n for n, e in enums.items() if variant in e.variants]
    if len(owners) != 1:
        raise SolverFailure(
            f"enum value {variant!r} belongs to {len(owners)} declared enums"
        )
    return owners[0]


def expr_to_smt(e: Expr, enums: Mapping[str, EnumType]) -> str:
    """e as an SMT-LIB term; the text of a shared node is built once and
    repeated where it occurs."""
    text: dict[int, str] = {}
    for n in postorder([e]):
        if isinstance(n, Const):
            v = n.value
            if isinstance(v, bool):
                t = "true" if v else "false"
            elif isinstance(v, int):
                t = str(v) if v >= 0 else f"(- {-v})"
            else:
                t = _smt_sym(f"{_variant_owner(v, enums)}.{v}")
        elif isinstance(n, (InputRef, VarRef, SignalRef)):
            t = _smt_sym(n.name)
        elif isinstance(n, Unary):
            t = f"({'not' if n.op == 'not' else '-'} {text[id(n.arg)]})"
        elif isinstance(n, Binary):
            a, b = text[id(n.left)], text[id(n.right)]
            if n.op == "min":
                t = f"(ite (<= {a} {b}) {a} {b})"
            elif n.op == "max":
                t = f"(ite (>= {a} {b}) {a} {b})"
            else:
                t = f"({_SMT_BINOPS[n.op]} {a} {b})"
        else:
            assert isinstance(n, Ite)
            t = f"(ite {text[id(n.cond)]} {text[id(n.then)]} {text[id(n.other)]})"
        text[id(n)] = t
    return text[id(e)]


def _smt_sort(dtype: DataType, enums: Mapping[str, EnumType]) -> str:
    if isinstance(dtype, BoolType):
        return "Bool"
    if isinstance(dtype, IntType):
        return "Int"
    assert isinstance(dtype, EnumType)
    for name, et in enums.items():
        if et == dtype:
            return _smt_sym(name)
    raise SolverFailure(f"enum type {dtype.variants} has no declared name")


def _range_assert(name: str, dtype: DataType) -> str | None:
    if isinstance(dtype, IntType):
        sym = _smt_sym(name)
        return f"(and (>= {sym} {dtype.lo}) (<= {sym} {dtype.hi}))"
    return None


def _enum_decls(enums: Mapping[str, EnumType]) -> list[str]:
    lines = []
    for name in sorted(enums):
        ctors = " ".join(
            f"({_smt_sym(f'{name}.{v}')})" for v in enums[name].variants
        )
        lines.append(f"(declare-datatypes (({_smt_sym(name)} 0)) (({ctors})))")
    return lines


def emit_check_sat(
    expr: Expr, dom: Domain, enums: Mapping[str, EnumType] | None = None
) -> str:
    """Script whose check-sat answer matches is_sat for this formula."""
    enums = enums or {}
    names = _free_in_domain(expr, dom)
    lines = ["(set-logic ALL)"] + _enum_decls(enums)
    for n in names:
        lines.append(
            f"(declare-const {_smt_sym(n)} {_smt_sort(dom.dtypes[n], enums)})"
        )
    for n in names:
        rng = _range_assert(n, dom.dtypes[n])
        if rng:
            lines.append(f"(assert {rng})")
    lines.append(f"(assert {expr_to_smt(expr, enums)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def emit_exists_forall(
    formula: Expr,
    const_names: Sequence[str],
    dom: Domain,
    enums: Mapping[str, EnumType] | None = None,
) -> str:
    """Constants are free symbols; the rest is universally quantified."""
    enums = enums or {}
    consts = sorted(const_names)
    forall_names = [n for n in _free_in_domain(formula, dom) if n not in consts]
    lines = ["(set-logic ALL)"] + _enum_decls(enums)
    for c in consts:
        lines.append(
            f"(declare-const {_smt_sym(c)} {_smt_sort(dom.dtypes[c], enums)})"
        )
        rng = _range_assert(c, dom.dtypes[c])
        if rng:
            lines.append(f"(assert {rng})")
    binders = " ".join(
        f"({_smt_sym(n)} {_smt_sort(dom.dtypes[n], enums)})" for n in forall_names
    )
    constraints = [r for n in forall_names if (r := _range_assert(n, dom.dtypes[n]))]
    body = expr_to_smt(formula, enums)
    if constraints:
        pre = constraints[0] if len(constraints) == 1 else f"(and {' '.join(constraints)})"
        body = f"(=> {pre} {body})"
    if forall_names:
        lines.append(f"(assert (forall ({binders}) {body}))")
    else:
        lines.append(f"(assert {body})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def run_solver_cmd(cmd: str, smt_text: str, timeout: float = 60.0) -> str:
    """Run an external SMT solver on a script; returns sat, unsat or unknown."""
    with tempfile.NamedTemporaryFile(
        "w", suffix=".smt2", delete=False, prefix="dfcompat-"
    ) as handle:
        handle.write(smt_text)
        path = handle.name
    try:
        proc = subprocess.run(
            shlex.split(cmd) + [path],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise SolverFailure(f"external solver failed: {exc}")
    finally:
        Path(path).unlink(missing_ok=True)
    for line in proc.stdout.splitlines():
        word = line.strip()
        if word in ("sat", "unsat", "unknown"):
            return word
    raise SolverFailure(
        f"external solver produced no verdict (exit {proc.returncode}): "
        f"{proc.stdout[:200]!r} {proc.stderr[:200]!r}"
    )
