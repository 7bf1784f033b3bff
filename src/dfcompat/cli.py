"""Command line interface.

Subcommands: check (compare two model versions), replay (run a trace on one
model), stats (pipeline size numbers for one model), emit-smt (write the
key queries as SMT-LIB 2 scripts, optionally cross-checking an external
solver against the built-in enumeration).

Exit codes: 0 fully compatible, 1 one-directional or conditional,
2 incompatible, 3 invalid input, 4 inconclusive (budget or solver trouble).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    DfcError,
    DomainTooLarge,
    IterationCapExceeded,
    PathExplosion,
    SolverFailure,
    StateBudgetExceeded,
)
from .exprs import Binary, Unary, conjoin
from .interp import Interpreter, read_trace_csv, write_trace_csv
from .model import flatten_and_validate
from .parser import parse_mapping_file, parse_model
from .cfg import (
    Cfg,
    cfg_to_dot,
    count_paths,
    extract_cfg,  # noqa: F401 - dfbench/tracing.py wraps this module's extract_cfg
    sorted_order,  # noqa: F401 - dfbench/tracing.py wraps this module's sorted_order
)
from .efa import build_efa, efa_to_text
from .solver import (
    emit_check_sat,
    emit_exists_forall,
    exists_forall_constants,
    is_sat,
    run_solver_cmd,
)
from .simcheck import (
    CheckConfig,
    CompatReport,
    _initial_agreement,
    cfg_and_step,
    checked_system,
    check_compatibility,  # noqa: F401 - dfbench/tracing.py wraps this module's check_compatibility
    check_prepared,
    prepare,
)
from .symbolic import SymbolicStep, step_to_text
from .unfold import ts_to_dot, unfold_to_ts

_INCONCLUSIVE = (
    DomainTooLarge,
    PathExplosion,
    StateBudgetExceeded,
    IterationCapExceeded,
    SolverFailure,
)


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-clone-pruning", action="store_true",
                   help="keep provably duplicated state variables")
    p.add_argument("--no-output-split", action="store_true",
                   help="check all output ports on one joint state space")
    p.add_argument("--datastore", choices=("internal", "global"), default="internal",
                   help="treat data stores as hidden state or as extra ports")
    p.add_argument("--datastore-order", choices=("strict", "schedule"),
                   default="strict",
                   help="reject or allow reads scheduled before same-step writes")
    p.add_argument("--solver-budget", type=int, default=None, metavar="N",
                   help="max evaluations per satisfiability query")
    p.add_argument("--state-budget", type=int, default=None, metavar="N",
                   help="max reachable states per transition system")
    p.add_argument("--split-cap", type=int, default=None, metavar="N",
                   help="max alternatives per case split")
    p.add_argument("--fix-iterations", type=int, default=None, metavar="N",
                   help="max constant-fix candidates to verify")


def _config_from(args: argparse.Namespace) -> CheckConfig:
    # an integer flag left unset keeps CheckConfig's default
    return CheckConfig(
        clone_pruning=not args.no_clone_pruning,
        output_split=not args.no_output_split,
        datastore=args.datastore,
        datastore_order=args.datastore_order,
        **{
            k: v for k, v in vars(args).items()
            if k in ("solver_budget", "state_budget", "split_cap", "fix_iterations")
            and v is not None
        },
    )


def _load_model(path: str):
    return parse_model(Path(path).read_text())


def build_parser() -> argparse.ArgumentParser:
    """A new parser for all four subcommands.  ``main`` builds one on its
    first call and reuses it for every later call in the process."""
    top = argparse.ArgumentParser(
        prog="dfcompat",
        description="behavioral compatibility checking for dataflow models",
    )
    sub = top.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="compare two model versions")
    check.add_argument("model_a", help="candidate (newer) model file")
    check.add_argument("model_b", help="reference (older) model file")
    check.add_argument("--map", dest="map_file", metavar="FILE",
                       help="port mapping overrides, lines of 'oldPort = newPort'")
    check.add_argument("--format", choices=("text", "json"), default="text")
    check.add_argument("--artifacts", metavar="DIR",
                       help="directory for report, traces and emitted artifacts")
    for flag in ("cfg", "efa", "ts", "summary", "smt"):
        check.add_argument(f"--emit-{flag}", action="store_true",
                           help=f"write the {flag} artifacts (needs --artifacts)")
    check.add_argument("--solver-cmd", metavar="CMD",
                       help="external SMT solver to cross-check emitted queries")
    _add_pipeline_flags(check)

    replay = sub.add_parser("replay", help="run an input trace on a model")
    replay.add_argument("model", help="model file")
    replay.add_argument("trace", help="input trace CSV")
    replay.add_argument("--against", metavar="MODEL",
                        help="also run a second model and report the first "
                             "step where shared outputs diverge")
    replay.add_argument("--datastore", choices=("internal", "global"),
                        default="internal")
    replay.add_argument("--datastore-order", choices=("strict", "schedule"),
                        default="strict")

    stats = sub.add_parser("stats", help="pipeline size numbers for one model")
    stats.add_argument("model", help="model file")
    stats.add_argument("--format", choices=("text", "json"), default="text")
    _add_pipeline_flags(stats)

    emit = sub.add_parser("emit-smt", help="write key queries as SMT-LIB 2")
    emit.add_argument("model_a")
    emit.add_argument("model_b")
    emit.add_argument("--map", dest="map_file", metavar="FILE")
    emit.add_argument("--artifacts", metavar="DIR", required=True)
    emit.add_argument("--solver-cmd", metavar="CMD",
                      help="run each script and compare with the enumeration")
    _add_pipeline_flags(emit)

    return top


# ---------------------------------------------------------------------------
# check


def _direction_lines(name: str, res, what: str) -> list[str]:
    lines = []
    if res is None:
        lines.append(f"{name}: not checked")
        return lines
    if res.holds and res.fixed_inputs:
        fixed = ", ".join(f"{k}={_fmt_val(v)}" for k, v in sorted(res.fixed_inputs.items()))
        lines.append(f"{name}: holds with fixed inputs [{fixed}] ({what})")
    elif res.holds:
        lines.append(f"{name}: holds ({what})")
    else:
        lines.append(f"{name}: fails ({what})")
    cx = res.counterexample
    if cx is not None:
        where = f"port {cx.port}" if cx.port else "transition coverage"
        lines.append(
            f"  divergence after {len(cx.rows_a)} step(s) on {where}"
            + (
                f": expected {_fmt_val(cx.expected[cx.port])},"
                f" got {_fmt_val(cx.actual[cx.port])}"
                if cx.expected and cx.actual and cx.port
                else ""
            )
        )
    return lines


def _fmt_val(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def _report_text(report: CompatReport) -> str:
    lines = [f"candidate: {report.a_name}", f"reference: {report.b_name}"]
    pairs = ", ".join(f"{b}->{a}" for b, a in report.mapping)
    lines.append(f"port mapping: {pairs or '(none)'}")
    if report.extra_inputs_a:
        lines.append(f"extra candidate inputs: {', '.join(report.extra_inputs_a)}")
    if report.extra_outputs_a:
        lines.append(f"extra candidate outputs: {', '.join(report.extra_outputs_a)}")
    if not report.interface_ok:
        for port, reason in report.interface_violations:
            lines.append(f"interface: {port}: {reason}")
        lines.append("verdict: incompatible")
        return "\n".join(lines) + "\n"
    lines += _direction_lines(
        "backward", report.backward, "new version serves existing callers"
    )
    lines += _direction_lines(
        "upward", report.upward, "old version serves new callers"
    )
    verdict = report.verdict
    if report.conditional:
        verdict += " (conditional)"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines) + "\n"


def _write_counterexamples(report: CompatReport, outdir: Path, prep) -> None:
    a_ports = list(prep.flat_a.inputs)
    b_ports = list(prep.flat_b.inputs)
    for res, tag in ((report.backward, "backward"), (report.upward, "upward")):
        cx = res.counterexample if res else None
        if cx is None:
            continue
        (outdir / f"cex_{tag}.A.csv").write_text(
            write_trace_csv(cx.rows_a, [p for p in a_ports if p.name in cx.rows_a[0]])
        )
        if cx.rows_b and cx.rows_b[0]:
            (outdir / f"cex_{tag}.B.csv").write_text(
                write_trace_csv(cx.rows_b, [p for p in b_ports if p.name in cx.rows_b[0]])
            )


def _smt_queries(prep) -> list[tuple[str, str, str]]:
    """(name, script, expected verdict) for the three query shapes used."""
    config, dom = prep.config, prep.dom_backward
    extras = sorted(prep.mapping.extra_inputs_a)
    enums = {**prep.step_a.enums, **prep.step_b.enums}
    queries: list[tuple[str, str, str]] = []

    stage = f"SMT queries of {prep.flat_a.name} and {prep.flat_b.name}"
    ports = prep.ports
    agreements = _initial_agreement(prep)
    for port, agree in zip(ports, agreements):
        diff = Binary("ne", agree.left, agree.right)
        verdict = "sat" if is_sat(diff, dom, config.solver_budget, stage) else "unsat"
        queries.append(
            (f"init_output_diff_{port}", emit_check_sat(diff, dom, enums), verdict)
        )
    if agreements:
        joint = conjoin(agreements)
        neg = Unary("not", joint)
        verdict = "sat" if is_sat(neg, dom, config.solver_budget, stage) else "unsat"
        queries.append(
            ("init_outputs_agree_neg", emit_check_sat(neg, dom, enums), verdict)
        )
        if extras:
            found = exists_forall_constants(
                joint, extras, dom, config.solver_budget, stage=stage
            )
            queries.append(
                (
                    "fix_constants_exist",
                    emit_exists_forall(joint, extras, dom, enums),
                    "sat" if found is not None else "unsat",
                )
            )
    return queries


def _write_smt(prep, outdir: Path, solver_cmd: str | None, echo: bool) -> bool:
    """Write each SMT query to outdir as <name>.smt2 under its expected
    verdict and, given a solver command, check the verdicts against that
    solver, printing each disagreement; with echo, also print each file
    written and the solver's agreement.  False when the solver disagreed
    or answered unknown."""
    outdir.mkdir(parents=True, exist_ok=True)
    queries = _smt_queries(prep)
    for name, script, expected in queries:
        path = outdir / f"{name}.smt2"
        path.write_text(f"; expected: {expected}\n{script}")
        if echo:
            print(f"wrote {path} (expected {expected})")
    if not solver_cmd:
        return True
    problems = []
    for name, script, expected in queries:
        got = run_solver_cmd(solver_cmd, script)
        if got == "unknown":
            problems.append(f"{name}: external solver answered unknown")
        elif got != expected:
            problems.append(f"{name}: enumeration says {expected}, solver says {got}")
    for p in problems:
        print(f"solver cross-check: {p}", file=sys.stderr)
    if echo and not problems:
        print(f"external solver agrees on {len(queries)} queries")
    return not problems


def _cmd_check(args: argparse.Namespace) -> int:
    wants_emit = any(
        getattr(args, f"emit_{f}") for f in ("cfg", "efa", "ts", "summary", "smt")
    )
    if wants_emit and not args.artifacts:
        print("error: --emit-* flags require --artifacts DIR", file=sys.stderr)
        return 3
    config = _config_from(args)
    model_a = _load_model(args.model_a)
    model_b = _load_model(args.model_b)
    overrides = (
        parse_mapping_file(Path(args.map_file).read_text()) if args.map_file else {}
    )
    outdir: Path | None = None
    if args.artifacts:
        outdir = Path(args.artifacts)
        outdir.mkdir(parents=True, exist_ok=True)

    prep = prepare(model_a, model_b, overrides, config)
    report = check_prepared(prep)

    if outdir is not None:
        (outdir / "report.json").write_text(report.to_json() + "\n")
        if report.interface_ok:
            _write_counterexamples(report, outdir, prep)
            pairs = (("A", prep.cfg_a, prep.step_a), ("B", prep.cfg_b, prep.step_b))
            for tag, cfg, step in pairs:
                text: dict[int, str] = {}  # one render memo for the step and its efa
                if args.emit_cfg:
                    (outdir / f"cfg.{tag}.dot").write_text(cfg_to_dot(cfg, cfg.flat.name))
                if args.emit_summary:
                    (outdir / f"summary.{tag}.txt").write_text(step_to_text(step, text))
                if args.emit_efa:
                    efa = build_efa(step, config.split_cap, config.solver_budget)
                    (outdir / f"efa.{tag}.txt").write_text(efa_to_text(efa, text))
                if args.emit_ts:
                    ts = checked_system(prep, tag) or unfold_to_ts(
                        step, config.state_budget, config.solver_budget
                    )
                    (outdir / f"ts.{tag}.dot").write_text(ts_to_dot(ts))
            if args.emit_smt and not _write_smt(
                prep, outdir / "smt", args.solver_cmd, echo=False
            ):
                return 4

    if args.format == "json":
        print(report.to_json())
    else:
        print(_report_text(report), end="")

    if not report.interface_ok:
        return 2
    if report.verdict == "full":
        return 1 if report.conditional else 0
    if report.verdict == "incompatible":
        return 2
    return 1


# ---------------------------------------------------------------------------
# replay / stats / emit-smt


def _cmd_replay(args: argparse.Namespace) -> int:
    model = _load_model(args.model)
    flat = flatten_and_validate(model, datastore=args.datastore)
    interp = Interpreter(flat, args.datastore_order)
    text = Path(args.trace).read_text()
    rows = read_trace_csv(text, flat.inputs)
    outputs = interp.run(rows)
    print(write_trace_csv(outputs, flat.outputs), end="")
    if not args.against:
        return 0

    other = flatten_and_validate(_load_model(args.against), datastore=args.datastore)
    other_rows = read_trace_csv(text, other.inputs)
    other_out = Interpreter(other, args.datastore_order).run(other_rows)
    shared = sorted(
        {p.name for p in flat.outputs} & {p.name for p in other.outputs}
    )
    for i, (ours, theirs) in enumerate(zip(outputs, other_out)):
        diffs = [p for p in shared if ours[p] != theirs[p]]
        if diffs:
            detail = ", ".join(
                f"{p}: {_fmt_val(ours[p])} vs {_fmt_val(theirs[p])}" for p in diffs
            )
            print(f"divergence at step {i}: {detail}")
            return 0
    print(f"no divergence over {len(rows)} step(s)")
    return 0


def model_stats(cfg: Cfg, step: SymbolicStep, config: CheckConfig) -> dict:
    """Size of each pipeline stage for one model, as ``stats`` prints it."""
    flat = cfg.flat
    efa = build_efa(step, config.split_cap, config.solver_budget)
    ts = unfold_to_ts(step, config.state_budget, config.solver_budget)
    return {
        "model": flat.name,
        "blocks": len(flat.blocks),
        "inputs": len(flat.inputs),
        "outputs": len(flat.outputs),
        "state_vars": len(step.vars),
        "cfg_nodes": len(cfg.nodes),
        "cfg_edges": len(cfg.edges),
        "cfg_paths": count_paths(cfg),
        "efa_transitions": len(efa.transitions),
        "ts_states": len(ts.states),
        "ts_transitions": sum(len(r.targets) for r in ts.rows),
    }


def _cmd_stats(args: argparse.Namespace) -> int:
    config = _config_from(args)
    model = _load_model(args.model)
    flat = flatten_and_validate(model, datastore=config.datastore)
    data = model_stats(*cfg_and_step(flat, config), config)
    if args.format == "json":
        print(json.dumps(data, indent=2))
    else:
        width = max(len(k) for k in data)
        for k, v in data.items():
            print(f"{k:<{width}}  {v}")
    return 0


def _cmd_emit_smt(args: argparse.Namespace) -> int:
    config = _config_from(args)
    model_a = _load_model(args.model_a)
    model_b = _load_model(args.model_b)
    overrides = (
        parse_mapping_file(Path(args.map_file).read_text()) if args.map_file else {}
    )
    prep = prepare(model_a, model_b, overrides, config)
    if not prep.iface.compatible:
        for port, reason in prep.iface.violations:
            print(f"interface: {port}: {reason}", file=sys.stderr)
        return 2
    return 0 if _write_smt(prep, Path(args.artifacts), args.solver_cmd, echo=True) else 4


_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code.  The parser is built on
    the first call and reused by later calls in the same process; argparse
    exits with code 2 on a usage error and 0 after ``--help``."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    handlers = {
        "check": _cmd_check,
        "replay": _cmd_replay,
        "stats": _cmd_stats,
        "emit-smt": _cmd_emit_smt,
    }
    try:
        return handlers[args.command](args)
    except _INCONCLUSIVE as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return 4
    except DfcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
