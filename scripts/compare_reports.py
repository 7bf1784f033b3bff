#!/usr/bin/env python3
"""Compare the reports of two checkouts on the standing-gate cases.

    python3 scripts/compare_reports.py OLD_DIR NEW_DIR

The cases are every member of the four dfbench workloads at seeds 1 and 2,
and, from each checkout's test helpers, ``random_model_pair(seed)`` and
``multi_output_pair(seed)`` for seeds 0-299, each checked in both
directions; a multi-output pair is checked with its overrides, and the
other way round with them inverted.  Only the multi-output pairs have two
or more port groups per direction.  A library case's result is
its report without ``elapsed`` (``queries`` kept) or its error class and
message.  big_diagram members go through ``dfcompat check`` with every
``--emit-*`` flag, as dfbench runs them plus ``--emit-smt``; their result is
the exit code, the standard output and error, ``report.json`` without
``elapsed``, and a SHA-256 of every other artifact's text.

Each checkout collects its results in a process of its own, running this
file with its own sources, tests and dfbench on the path; both run at once,
and neither writes bytecode into its checkout.
Every path at which a case's results differ is printed, one line each,
then per path, list indices dropped, the number of cases differing there
(``.verdict 26``), so that a deliberate change can be checked against
its expected counts; the exit code is 1 when any case differs.  Standard
library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 2)
RANDOM_PAIRS = 300
MULTI_PAIRS = 300


# ---------------------------------------------------------------------------
# collecting, inside one checkout


def _scrubbed(report: dict) -> dict:
    for side in ("backward", "upward"):
        if report.get(side) is not None:
            report[side].pop("elapsed", None)
    return report


def _failed(exc: BaseException) -> dict:
    return {"error": type(exc).__name__, "message": str(exc)}


def _library_case(api, model_a, model_b, overrides=None) -> dict:
    try:
        report = api.check_compatibility(model_a, model_b, overrides)
    except Exception as exc:  # noqa: BLE001 - an error is a result to compare
        return _failed(exc)
    return _scrubbed(report.to_dict())


def _cli_case(cli, text_a: str, text_b: str) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        a, b, art = Path(tmp, "A.dfm"), Path(tmp, "B.dfm"), Path(tmp, "artifacts")
        a.write_text(text_a)
        b.write_text(text_b)
        argv = ["check", str(a), str(b), "--artifacts", str(art), "--emit-cfg",
                "--emit-summary", "--emit-efa", "--emit-ts", "--emit-smt"]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - an error is a result to compare
            return _failed(exc)
        files = {}
        for path in sorted(p for p in art.rglob("*") if p.is_file()):
            name = str(path.relative_to(art))
            text = path.read_text()
            if name == "report.json":
                files[name] = _scrubbed(json.loads(text))
            else:
                files[name] = hashlib.sha256(text.encode()).hexdigest()
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                "artifacts": files}


def collect(checkout: Path) -> dict[str, dict]:
    """Every case's result, computed with the checkout's own code."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "dfbench"), str(checkout / "tests")]
    import dfcompat
    from dfcompat import cli
    import run as bench
    from helpers import multi_output_pair, random_model_pair

    results: dict[str, dict] = {}
    for workload, (members_of, mode) in bench.WORKLOADS.items():
        for seed in SEEDS:
            for k, m in enumerate(members_of(seed)):
                key = f"{workload}/seed{seed}/{k:02d}-{m.name}"
                if mode == "cli":
                    results[key] = _cli_case(cli, m.text_a, m.text_b)
                else:
                    results[key] = _library_case(
                        dfcompat, dfcompat.parse_model(m.text_a), dfcompat.parse_model(m.text_b)
                    )
    for seed in range(RANDOM_PAIRS):
        model_a, model_b = random_model_pair(seed)
        results[f"random/{seed}/ab"] = _library_case(dfcompat, model_a, model_b)
        results[f"random/{seed}/ba"] = _library_case(dfcompat, model_b, model_a)
    for seed in range(MULTI_PAIRS):
        model_a, model_b, overrides = multi_output_pair(seed)
        inverted = {a: b for b, a in overrides.items()}
        results[f"multi/{seed}/ab"] = _library_case(dfcompat, model_a, model_b, overrides)
        results[f"multi/{seed}/ba"] = _library_case(dfcompat, model_b, model_a, inverted)
    return results


# ---------------------------------------------------------------------------
# comparing


def differences(old, new, path: str = ""):
    """Every path at which two JSON values differ, with the two values
    there, in key and index order."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in list(old) + [k for k in new if k not in old]:
            o, n = old.get(k, "<absent>"), new.get(k, "<absent>")
            if o != n:
                yield from differences(o, n, f"{path}.{k}")
        return
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            if o != n:
                yield from differences(o, n, f"{path}[{i}]")
        return
    yield path or ".", old, new


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, nargs="?", help="checkout of the baseline")
    ap.add_argument("new", type=Path, nargs="?", help="checkout of the change")
    ap.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.collect is not None:
        json.dump(collect(args.collect.resolve()), sys.stdout)
        return 0
    if args.old is None or args.new is None:
        ap.error("OLD_DIR and NEW_DIR are required")

    procs = [
        subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--collect", str(side.resolve())],
            cwd=side, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        )
        for side in (args.old, args.new)
    ]
    results = []
    for side, proc in zip((args.old, args.new), procs):
        out, err = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"{side}: collecting failed (exit {proc.returncode}): "
                             f"{err.strip()[-800:]}")
        results.append(json.loads(out))
    old, new = results
    differ = 0
    tally: dict[str, set[str]] = {}  # per path, indices dropped, the cases
    for key in list(old) + [k for k in new if k not in old]:
        if old.get(key) != new.get(key):
            differ += 1
            for path, o, n in differences(old.get(key), new.get(key)):
                print(f"DIFF {key} {path}: {json.dumps(o)[:300]} -> {json.dumps(n)[:300]}")
                tally.setdefault(re.sub(r"\[\d+\]", "", path), set()).add(key)
    print(f"{len(old.keys() | new.keys())} cases, {differ} differ")
    for path, keys in sorted(tally.items()):
        print(f"{path} {len(keys)}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
