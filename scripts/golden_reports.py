#!/usr/bin/env python3
"""Golden compatibility reports: pinned JSON for regression checks.

Every bundled pair of ``compat_matrix.py`` plus a few constructed pairs is
checked under each of its analysis configurations.  The reports, with the
run-dependent ``elapsed`` and ``queries`` fields removed, are kept in
``tests/golden/<case>.json`` and must stay byte-identical across refactors
of the checker.

    python3 scripts/golden_reports.py            # compare, exit 1 on drift
    python3 scripts/golden_reports.py --update   # rewrite the golden files
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"
MODELS_DIR = ROOT / "models"

sys.path.insert(0, str(Path(__file__).resolve().parent))
# the constructed pairs live with the test helpers, so the suite and the
# golden files share one definition
sys.path.insert(0, str(ROOT / "tests"))

from compat_matrix import CONFIGS, DEFAULT_PAIRS  # noqa: E402
from helpers import DRIFTER, LATE_WRAP, MIRROR, MOD12  # noqa: E402

from dfcompat import check_compatibility, parse_model  # noqa: E402


def cases() -> dict[str, tuple[str, str]]:
    """Case name to (candidate text, reference text)."""
    out = {
        f"{cand}__{ref}": (
            (MODELS_DIR / f"{cand}.dfm").read_text(),
            (MODELS_DIR / f"{ref}.dfm").read_text(),
        )
        for cand, ref in DEFAULT_PAIRS
    }
    out["drifter__mirror"] = (DRIFTER, MIRROR)
    out["late_wrap__mod12"] = (LATE_WRAP, MOD12)
    return out


def _scrub(report: dict) -> dict:
    for side in ("backward", "upward"):
        if report[side] is not None:
            del report[side]["elapsed"]
            del report[side]["queries"]
    return report


def render(text_a: str, text_b: str) -> str:
    """The golden file text of one case: every config's scrubbed report."""
    model_a, model_b = parse_model(text_a), parse_model(text_b)
    reports = {
        label: _scrub(check_compatibility(model_a, model_b, config=config).to_dict())
        for label, config in CONFIGS.items()
    }
    return json.dumps(reports, indent=2) + "\n"


def golden_path(case: str) -> Path:
    return GOLDEN_DIR / f"{case}.json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden files instead of comparing")
    args = ap.parse_args(argv)

    drift = 0
    for case, (text_a, text_b) in cases().items():
        got = render(text_a, text_b)
        path = golden_path(case)
        if args.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(got)
            print(f"wrote {path.relative_to(ROOT)}")
        elif not path.exists() or path.read_text() != got:
            drift += 1
            print(f"DRIFT {case}")
    if not args.update:
        print(f"{len(cases())} cases, {drift} drifted")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
