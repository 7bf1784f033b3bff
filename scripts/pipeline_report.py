#!/usr/bin/env python3
"""Stage-by-stage size and time report for each bundled model.

For every model the pipeline is run and the size of each intermediate
representation is recorded: flat block count, control-flow graph nodes,
edges and path count, symbolic state variables before and after clone
pruning, guarded-transition count, and unfolded state/transition counts.
The front end's stages are timed, best of ``REPEATS`` runs: ``parse_s``,
``flatten_s``, ``cfg_s`` and ``summarize_s``, with parsing per text line
(``parse_us_per_line``) and flattening per flat block
(``flatten_us_per_block``) in microseconds.  ``seconds`` adds to the
CFG's and the summary's best times one run of clone pruning and of the
stats (guarded-transition machine and unfolding).
"""

import argparse
import json
import sys
import time
from pathlib import Path

from dfcompat import CheckConfig, flatten_and_validate, parse_model
from dfcompat.cfg import extract_cfg, sorted_order
from dfcompat.cli import model_stats
from dfcompat.symbolic import prune_clones, summarize

COLUMNS = (
    "model", "blocks", "inputs", "outputs", "cfg_nodes", "cfg_edges", "cfg_paths",
    "vars_raw", "vars_pruned", "efa_transitions", "ts_states", "ts_transitions",
    "seconds", "parse_s", "flatten_s", "cfg_s", "summarize_s",
    "parse_us_per_line", "flatten_us_per_block",
)
STAGES = ("parse_s", "flatten_s", "cfg_s", "summarize_s")
REPEATS = 5


def front_end(text: str):
    """Seconds of each front-end stage, the CFG and the step before clone
    pruning."""
    clock = time.perf_counter
    t0 = clock()
    model = parse_model(text)
    t1 = clock()
    flat = flatten_and_validate(model)
    t2 = clock()
    cfg = extract_cfg(flat, sorted_order(flat))
    t3 = clock()
    raw = summarize(cfg)
    t4 = clock()
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3], cfg, raw


def report_one(path: Path) -> dict:
    """The numbers ``dfcompat stats`` prints, plus the state variables
    before clone pruning and the seconds the stages took."""
    text = path.read_text()
    best = [float("inf")] * len(STAGES)
    for _ in range(REPEATS):
        times, cfg, raw = front_end(text)
        best = list(map(min, best, times))
    started = time.perf_counter()
    step, _ = prune_clones(raw)
    stats = model_stats(cfg, step, CheckConfig())
    elapsed = best[2] + best[3] + time.perf_counter() - started
    row = stats | dict(zip(STAGES, (round(t, 6) for t in best))) | {
        "vars_raw": len(raw.vars),
        "vars_pruned": stats["state_vars"],
        "seconds": round(elapsed, 4),
        "parse_us_per_line": round(best[0] / max(text.count("\n"), 1) * 1e6, 3),
        "flatten_us_per_block": round(best[1] / max(stats["blocks"], 1) * 1e6, 3),
    }
    return {c: row[c] for c in COLUMNS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("models", nargs="*", type=Path,
                    help="model files (default: bundled models/*.dfm)")
    ap.add_argument("--json", type=Path, metavar="FILE")
    args = ap.parse_args(argv)

    paths = args.models or sorted(
        (Path(__file__).resolve().parents[1] / "models").glob("*.dfm")
    )
    rows = [report_one(p) for p in paths]

    cols = list(rows[0])
    widths = {
        c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols
    }
    print("  ".join(f"{c:<{widths[c]}}" for c in cols))
    for r in rows:
        print("  ".join(f"{str(r[c]):<{widths[c]}}" for c in cols))

    if args.json:
        args.json.write_text(json.dumps(rows, indent=2) + "\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
