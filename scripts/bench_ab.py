#!/usr/bin/env python3
"""A/B comparison of two checkouts on the dfbench workloads.

    python3 scripts/bench_ab.py OLD_DIR NEW_DIR --workload wide_inputs \
        --seeds 601-610 --seconds 25 [--workload deep_state ...] [--out runs.json]

For each workload and seed, ``dfbench/run.py`` runs once in each checkout,
one after the other; which checkout runs first alternates from seed to
seed, so that drift on a shared host falls on both sides alike.  Per
end-to-end metric the table gives, for each side, the median and the
quartiles [q1, q3] over the seeds, the change of the medians, and in how
many seed pairs the new checkout was better (ties count for neither).
Which direction is better comes from ``BENCHMARK.json`` in NEW_DIR.  The
failed share is the share of attempted operations that failed.

The ``bound`` column reads each end-to-end metric against its bound in
``BENCHMARK.json``, a fraction of the old median: ``worse`` when the new
median is worse by more than the bound; ``unresolved`` when the old
quartiles [q1, q3] span more than the bound and not every new run beats
every old run; ``ok`` otherwise.  Metrics without a bound show ``-``.  The
column only reports; the exit code does not depend on it.  Under the table,
each ``unresolved`` metric is listed again with every seed's old and new
value.  Each checkout runs its own ``dfbench/run.py`` with its own sources;
nothing is written into either checkout except what the benchmark itself
writes.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "dfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(
            f"{checkout}: {workload} seed {seed} printed nothing "
            f"(exit {proc.returncode}): {proc.stderr.strip()[-500:]}"
        )
    out = json.loads(lines[-1])
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    metrics["failed_share"] = out["failed"] / out["attempted"] if out["attempted"] else 0.0
    metrics["correct"] = float(out["correct"])
    return metrics


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def fmt(x: float) -> str:
    return f"{x:.4g}"


def against_bound(old: list[float], new: list[float], sign: int, bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok``: the new runs against the old
    ones under a bound relative to the old median; sign is 1 when higher
    is better and -1 when lower is."""
    (mo, lo, ho), (mn, _, _) = summary(old), summary(new)
    if sign * (mn - mo) < -bound * abs(mo):
        return "worse"
    all_beat = min(sign * n for n in new) > max(sign * o for o in old)
    if ho - lo > bound * abs(mo) and not all_beat:
        return "unresolved"
    return "ok"


def table(
    seeds: list[int],
    runs: list[tuple[dict[str, float], dict[str, float]]],
    better: dict[str, str],
    bounds: dict[str, float],
) -> list[str]:
    unresolved = []
    lines = [f"{'metric':<16} {'old median [q1, q3]':<28} {'new median [q1, q3]':<28} "
             f"{'change':>8} {'wins':>6} {'bound':>10}"]
    for name in runs[0][0]:
        old = [r[0][name] for r in runs]
        new = [r[1][name] for r in runs]
        (mo, lo, ho), (mn, ln, hn) = summary(old), summary(new)
        sign = -1 if better.get(name, "higher") == "lower" else 1
        wins = sum(1 for o, n in zip(old, new) if sign * (n - o) > 0)
        change = f"{100 * (mn - mo) / mo:+.1f}%" if mo else "-"
        verdict = against_bound(old, new, sign, bounds[name]) if name in bounds else "-"
        lines.append(
            f"{name:<16} {fmt(mo) + ' [' + fmt(lo) + ', ' + fmt(ho) + ']':<28} "
            f"{fmt(mn) + ' [' + fmt(ln) + ', ' + fmt(hn) + ']':<28} "
            f"{change:>8} {f'{wins}/{len(runs)}':>6} {verdict:>10}"
        )
        if verdict == "unresolved":
            unresolved.append((name, old, new))
    for name, old, new in unresolved:
        per_seed = ", ".join(f"{s}: {fmt(o)}/{fmt(n)}" for s, o, n in zip(seeds, old, new))
        lines.append(f"{name} per seed, old/new: {per_seed}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old", type=Path, help="checkout of the baseline")
    ap.add_argument("new", type=Path, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="601-610", help="e.g. 601-610 or 1,2,5")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", type=Path, help="write every run's metrics as JSON")
    args = ap.parse_args(argv)

    spec = json.loads((args.new / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better["failed_share"] = "lower"
    better["correct"] = "higher"
    seeds = parse_seeds(args.seeds)
    raw: dict[str, list[dict]] = {}
    for workload in args.workload:
        runs = []
        for k, seed in enumerate(seeds):
            sides = [args.old, args.new] if k % 2 == 0 else [args.new, args.old]
            got = {side: run_once(side, workload, seed, args.seconds) for side in sides}
            runs.append((got[args.old], got[args.new]))
            print(f"# {workload} seed {seed}: checks_per_s "
                  f"{got[args.old]['checks_per_s']:.1f} -> "
                  f"{got[args.new]['checks_per_s']:.1f}", file=sys.stderr, flush=True)
        raw[workload] = [{"seed": s, "old": o, "new": n} for s, (o, n) in zip(seeds, runs)]
        print(f"## {workload} (seeds {args.seeds}, {args.seconds:g} s per run)")
        print("\n".join(table(seeds, runs, better, bounds)))
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(raw, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
