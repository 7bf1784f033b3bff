#!/usr/bin/env python3
"""Statement lines of the checker that no benchmark member executes.

    python3 scripts/bench_lines.py [--seeds 1-2] [--workload NAME ...]

Every member of the dfbench workloads (all four unless ``--workload`` names
some) is run at each seed as ``dfbench/run.py`` runs it: through the
library for wide_inputs, deep_state and refute_fix, and through
``dfcompat check`` for big_diagram, here with every ``--emit-*`` flag.
Meanwhile ``sys.settrace`` records the lines executed under
``src/dfcompat``.  Then, per function of those sources, the statement
lines that no member executed are printed, or ``not run`` for a function
none of whose statements ran, and after them each member that raised,
with its error.

A statement is one of ``ast``'s within a function's body, a nested
function counting on its own; it ran when a line in its span did, a
compound statement's span being its header.  Docstrings and ``global`` or
``nonlocal`` declarations, which execute nothing, are left out.  Standard
library only; nothing is written into the checkout.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dfcompat"
EMIT = ["--emit-cfg", "--emit-summary", "--emit-efa", "--emit-ts", "--emit-smt"]
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def seed_list(text: str) -> list[int]:
    """'1-2' or '1,3,5' as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def statements(tree: ast.Module) -> dict[str, tuple[int, list[tuple[int, int]]]]:
    """Per function, by qualified name: its first line and the line spans of
    its own statements."""
    found: dict[str, tuple[int, list[tuple[int, int]]]] = {}

    def function(node, prefix: str) -> None:
        name = prefix + node.name
        spans: list[tuple[int, int]] = []
        found[name] = (node.lineno, spans)
        body = node.body
        if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            body = body[1:]
        block(body, spans, name + ".")

    def block(body, spans, prefix: str) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.Global, ast.Nonlocal)):
                continue
            inner = [getattr(stmt, f, None) for f in ("body", "orelse", "finalbody")]
            inner = [b for b in inner if b]
            if isinstance(stmt, FUNCTIONS):
                spans.append((stmt.lineno, stmt.lineno))
                function(stmt, prefix)
                continue
            if isinstance(stmt, ast.ClassDef):
                spans.append((stmt.lineno, stmt.lineno))
                members(stmt, prefix + stmt.name + ".")
                continue
            end = stmt.end_lineno if not inner else max(stmt.lineno, inner[0][0].lineno - 1)
            spans.append((stmt.lineno, end))
            for b in inner:
                block(b, spans, prefix)
            for handler in getattr(stmt, "handlers", ()):
                spans.append((handler.lineno, handler.lineno))
                block(handler.body, spans, prefix)
            for case in getattr(stmt, "cases", ()):
                spans.append((case.pattern.lineno, case.pattern.lineno))
                block(case.body, spans, prefix)

    def members(node, prefix: str) -> None:
        for child in node.body:
            if isinstance(child, FUNCTIONS):
                function(child, prefix)
            elif isinstance(child, ast.ClassDef):
                members(child, prefix + child.name + ".")

    members(tree, "")
    return found


def run_members(
    workloads: list[str], seeds: list[int]
) -> tuple[int, list[str], dict[str, set[int]]]:
    """Run the members under the tracer; returns how many ran, each one
    that raised with its error, and per source file the lines executed."""
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "dfbench")]
    import dfcompat
    from dfcompat import cli
    import run as bench

    prefix = str(SRC)
    hit: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        lines = hit.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    ran, raised = 0, []
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            members_of, mode = bench.WORKLOADS[workload]
            for seed in seeds:
                for k, m in enumerate(members_of(seed)):
                    base = Path(tmp, f"{workload}-{seed}-{k}")
                    base.mkdir()
                    a, b = base / "A.dfm", base / "B.dfm"
                    a.write_text(m.text_a)
                    b.write_text(m.text_b)
                    argv = ["check", str(a), str(b), "--artifacts", str(base / "art"), *EMIT]
                    sys.settrace(tracer)
                    try:
                        if mode == "lib":
                            dfcompat.check_compatibility(
                                dfcompat.parse_model(m.text_a), dfcompat.parse_model(m.text_b),
                                config=dfcompat.CheckConfig(),
                            )
                        else:
                            with contextlib.redirect_stdout(io.StringIO()), \
                                    contextlib.redirect_stderr(io.StringIO()):
                                cli.main(argv)
                    except Exception as exc:  # noqa: BLE001 - a member that raises still ran
                        raised.append(f"{workload}/seed{seed}/{k:02d}-{m.name}: "
                                      f"{type(exc).__name__}: {str(exc)[:160]}")
                    finally:
                        sys.settrace(None)
                    ran += 1
    return ran, raised, hit


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-2", help="seeds, as 1-2 or 1,3 (default 1-2)")
    ap.add_argument("--workload", action="append",
                    help="a workload to run (repeatable; default all four)")
    args = ap.parse_args(argv)
    workloads = args.workload or ["wide_inputs", "deep_state", "refute_fix", "big_diagram"]
    ran, raised, hit = run_members(workloads, seed_list(args.seeds))

    total = missed = 0
    for path in sorted(SRC.glob("*.py")):
        lines = hit.get(str(path), set())
        found = statements(ast.parse(path.read_text()))
        for name, (first, spans) in sorted(found.items(), key=lambda kv: kv[1][0]):
            total += len(spans)
            unrun = [lo for lo, hi in spans if not any(n in lines for n in range(lo, hi + 1))]
            if not unrun:
                continue
            missed += len(unrun)
            shown = "not run" if len(unrun) == len(spans) else " ".join(map(str, unrun))
            print(f"{path.name}:{first} {name}: {shown}")
    for line in raised:
        print(f"raised: {line}")
    print(f"{ran} members ({len(raised)} raised) of {', '.join(workloads)} at seeds {args.seeds}: "
          f"{missed} of {total} statements not executed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
