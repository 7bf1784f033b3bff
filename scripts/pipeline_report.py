#!/usr/bin/env python3
"""Stage-by-stage size report for each bundled model.

For every model the pipeline is run once and the size of each intermediate
representation is recorded: flat block count, control-flow graph nodes,
edges and path count, symbolic state variables before and after clone
pruning, guarded-transition count, and unfolded state/transition counts.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from dfcompat import CheckConfig, flatten_and_validate, parse_model
from dfcompat.cli import model_stats
from dfcompat.simcheck import cfg_and_step
from dfcompat.symbolic import prune_clones

COLUMNS = (
    "model", "blocks", "inputs", "outputs", "cfg_nodes", "cfg_edges", "cfg_paths",
    "vars_raw", "vars_pruned", "efa_transitions", "ts_states", "ts_transitions",
    "seconds",
)


def report_one(path: Path) -> dict:
    """The numbers ``dfcompat stats`` prints, plus the state variables
    before clone pruning and the seconds the stages took."""
    model = parse_model(path.read_text())
    flat = flatten_and_validate(model)
    started = time.perf_counter()
    cfg, raw = cfg_and_step(flat, CheckConfig(clone_pruning=False))
    step, _ = prune_clones(raw)
    stats = model_stats(cfg, step, CheckConfig())
    elapsed = time.perf_counter() - started
    row = stats | {
        "vars_raw": len(raw.vars),
        "vars_pruned": stats["state_vars"],
        "seconds": round(elapsed, 4),
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
