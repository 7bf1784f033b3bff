#!/usr/bin/env python3
"""Time to verdict of dfcompat on seeded model families.

Run from the root of a checkout:

    python3 dfbench/run.py --workload deep_state --seed 1 --seconds 25 --trace 0

One process, one thread, CheckConfig(workers=1).  The workload's model pairs
are generated from the seed; the checker receives only their text.  The run
repeats whole passes over the pairs (a closed loop with one client) until
``--seconds`` have gone by, and at least MIN_PASSES times, so every pair is
timed equally often.  A pair's time to verdict is the fastest of its passes,
as ``timeit`` advises for deterministic code on a shared host; the end-to-end
times are the median and p90 of those over the pairs, and checks_per_s is
pairs per second of the summed best times.  Every
outcome is then checked against the one known by construction, and every
counterexample is replayed on both models through ``dfcompat.Interpreter``,
outside the timed region.  A wrong verdict or fixed binding, or a
counterexample that does not replay, makes the run fail with exit code 1.
An operation that raises an error outside the documented ones counts as
failed under the error's class name and the run goes on.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` passes alternate between untraced and
traced, and it carries the per-layer metrics (see ``tracing.py``), with sums
given per traced pass.  Spans are written to ``.dfbench/spans_<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import families as fam  # noqa: E402
from families import Member, OVER_BUDGET, OVER_BUDGET_BOOLS  # noqa: E402

# Documented inconclusive outcomes: the CLI exits 4 on each of them.
INCONCLUSIVE = (
    "DomainTooLarge",
    "PathExplosion",
    "StateBudgetExceeded",
    "IterationCapExceeded",
    "SolverFailure",
)

SETUP_REPEATS = 5
# Each pair runs at least this often, so that the two pairs beyond the p90
# of a 20-pair workload stand for at least ten timed runs.
MIN_PASSES = 5
# address-space cap, so that a runaway check fails with MemoryError (counted
# as a failed operation) instead of exhausting the machine
MEMORY_LIMIT = 4 << 30


# ---------------------------------------------------------------------------
# workloads


# Scales are spaced so that neighbouring pairs differ in cost by a small
# factor: the median and the tail then fall inside a smooth spread of
# costs, not on the edge between two far-apart pairs.


def wide_inputs(seed: int) -> list[Member]:
    # Few states, wide integer inputs: simulates -> sat_witness enumerates
    # the input domain behind every query, so guard evaluation dominates.
    members = [
        fam.bundled(ROOT / "models", a, b, exp)
        for a, b, exp in fam.BUNDLED_PAIRS
        # the bundled charge_pump (width 250, about 4 s) is covered by the
        # scaled family below
        if a != "charge_pump"
    ]
    members += [fam.charge_pump(w, seed) for w in (10, 15, 20, 25, 30, 40)]
    members += [fam.bands(w, seed) for w in (20, 30, 40, 50, 60)]
    # each family's smallest member past the enumeration budget
    members += [fam.charge_pump(OVER_BUDGET + 1, seed), fam.bands(OVER_BUDGET * 4 // 5 + 1, seed)]
    return members


def deep_state(seed: int) -> list[Member]:
    # Compatible restyled pairs with hundreds to thousands of states and
    # boolean inputs: unfolding and per-pair overhead dominate, guards are
    # trivial.
    members = [fam.counter(k, seed)
               for k in (30, 40, 60, 80, 100, 130, 160, 200, 250, 300, 400)]
    members += [fam.toggle_bank(m, seed) for m in (4, 8, 12, 16, 24)]
    # pulse_keeper copies spend most of their time in sat_witness (int
    # inputs), so only small ones stay here; the bundled one is in wide_inputs
    members += [fam.keeper(3, seed, top=1), fam.keeper(4, seed, top=1)]
    # each family's smallest member past the enumeration budget
    members += [
        fam.counter(10, seed, enables=OVER_BUDGET_BOOLS - 1),
        fam.toggle_bank(1, seed, fanin=OVER_BUDGET_BOOLS),
        fam.keeper(6, seed, parallel=True),
    ]
    return members


def refute_fix(seed: int) -> list[Member]:
    # The deep families mutated: the simulation fixpoint must refute
    # (counterexamples up to k+1 steps deep) or fix search must try every
    # binding of added ports before the only fix.
    members = [fam.counter_off_by_one(k, seed)
               for k in (6, 8, 10, 12, 15, 18, 20, 25, 30, 35)]
    members += [fam.gated_counter(k, g, seed)
                for k, g in ((10, 1), (10, 2), (12, 2), (12, 3), (10, 4))]
    members += [fam.toggle_bank_broken(m, seed) for m in (4, 8, 16, 32, 64)]
    members += [fam.keeper_mutant(1, seed)]
    # past a budget: fix search gives up after 16 of 32 bindings, and each
    # other family's smallest member past the enumeration budget
    members += [
        fam.gated_counter(10, 5, seed),
        fam.counter_off_by_one(10, seed, enables=OVER_BUDGET_BOOLS - 1),
        fam.toggle_bank_broken(1, seed, fanin=OVER_BUDGET_BOOLS),
        fam.keeper_mutant(6, seed, parallel=True),
    ]
    return members


def big_diagram(seed: int) -> list[Member]:
    # Hundreds to thousands of blocks, boolean inputs, one delay, checked
    # through the CLI with every artifact emitted: the front end (parse,
    # flatten, CFG, summarize, clone pruning) and the artifact path dominate.
    members = [fam.gate_chains(c, n, seed) for c, n in (
        (1, 10), (1, 25), (1, 50), (1, 100), (2, 10), (2, 25), (2, 40), (4, 10), (4, 20),
        (4, 30), (8, 10), (8, 20), (8, 40), (16, 10), (16, 20))]
    members += [fam.nested(d, w, seed) for d, w in ((2, 20), (3, 15), (4, 10), (6, 10), (8, 10))]
    members += [fam.gate_chains(2, 25, seed, mutant=True)]
    # a single chain past the expression depth the checker's recursive
    # passes handle: today it raises RecursionError, where a clean exit 4
    # is required, and it stays in so that the defect shows
    members += [fam.gate_chains(1, 400, seed)]
    # each family's smallest member past the enumeration budget
    members += [fam.gate_chains(1, 10, seed, fanin=OVER_BUDGET_BOOLS),
                fam.nested(2, 10, seed, fanin=OVER_BUDGET_BOOLS)]
    return members


WORKLOADS = {
    "wide_inputs": (wide_inputs, "lib"),
    "deep_state": (deep_state, "lib"),
    "refute_fix": (refute_fix, "lib"),
    "big_diagram": (big_diagram, "cli"),
}


# ---------------------------------------------------------------------------
# running one operation


@dataclasses.dataclass
class Outcome:
    """What one operation ended in: a report (library) or an exit code with
    the report.json it wrote (CLI), or the class of the error it raised."""

    report: object | None = None
    exit_code: int | None = None
    error: str | None = None
    detail: str = ""


class Runner:
    def __init__(self, dfcompat, mode: str, workdir: Path):
        self.api = dfcompat
        self.cli = importlib.import_module("dfcompat.cli")
        self.mode = mode
        self.workdir = workdir
        fields = {f.name for f in dataclasses.fields(dfcompat.CheckConfig)}
        self.config = (
            dfcompat.CheckConfig(workers=1) if "workers" in fields else dfcompat.CheckConfig()
        )

    def files(self, idx: int) -> tuple[Path, Path, Path]:
        base = self.workdir / f"m{idx:02d}"
        return base / "A.dfm", base / "B.dfm", base / "artifacts"

    def write_inputs(self, members: list[Member]) -> None:
        for idx, m in enumerate(members):
            a, b, art = self.files(idx)
            art.mkdir(parents=True, exist_ok=True)
            a.write_text(m.text_a)
            b.write_text(m.text_b)

    def before(self, idx: int) -> None:
        """Untimed: clear the report a previous pass left behind."""
        if self.mode == "cli":
            self.files(idx)[2].joinpath("report.json").unlink(missing_ok=True)

    def op(self, idx: int, member: Member):
        if self.mode == "lib":
            api = self.api
            model_a = api.parse_model(member.text_a)
            model_b = api.parse_model(member.text_b)
            return api.check_compatibility(model_a, model_b, config=self.config)
        a, b, art = self.files(idx)
        argv = ["check", str(a), str(b), "--artifacts", str(art),
                "--emit-cfg", "--emit-summary", "--emit-efa", "--emit-ts"]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return self.cli.main(argv)

    def outcome(self, idx: int, result) -> Outcome:
        if self.mode == "lib":
            return Outcome(report=result)
        report_path = self.files(idx)[2] / "report.json"
        report = None
        if report_path.exists():
            report = self.api.CompatReport.from_json(report_path.read_text())
        return Outcome(report=report, exit_code=result)


def run_timed(runner: Runner, idx: int, call):
    """Run one operation; returns (seconds, Outcome).  Any exception is an
    outcome here: the run must go on and account for it."""
    runner.before(idx)
    t0 = time.perf_counter()
    try:
        result = call()
    except (Exception, SystemExit) as exc:  # noqa: BLE001 - accounted per operation
        elapsed = time.perf_counter() - t0
        return elapsed, Outcome(error=type(exc).__name__, detail=str(exc)[:200])
    elapsed = time.perf_counter() - t0
    return elapsed, runner.outcome(idx, result)


# ---------------------------------------------------------------------------
# correctness gate


def judge(member: Member, out: Outcome, oracle) -> tuple[bool, str | None, str | None]:
    """(decided, failure, wrong) for one outcome.

    failure names why the outcome differs from the expected one (it counts
    in ``failed``); wrong says why a verdict is incorrect (the run fails).
    """
    exp = member.expected
    if out.error is not None:
        if out.error in INCONCLUSIVE:
            if out.error == exp.raises:
                return False, None, None
            return False, f"inconclusive:{out.error}", None
        return False, out.error, None
    if out.exit_code is not None:  # CLI
        if out.exit_code == 4:
            if exp.raises:
                return False, None, None
            return False, "inconclusive:exit4", None
        if out.exit_code == 3:
            return False, "invalid-input:exit3", None
        if out.report is None:
            return True, "no-report", f"exit {out.exit_code} without report.json"
    report = out.report
    got = report.verdict
    fixed = report.backward.fixed_inputs if report.backward else None
    if got != exp.verdict:
        return True, "wrong-verdict", f"verdict {got}, expected {exp.verdict}"
    if (fixed or None) != (exp.fixed or None):
        return True, "wrong-fix", f"fixed inputs {fixed}, expected {exp.fixed}"
    if out.exit_code is not None and out.exit_code != exp.verdict_exit_code:
        return True, "wrong-exit", f"exit {out.exit_code} for verdict {got}"
    problem = oracle(member, report)
    if problem:
        return True, "bad-counterexample", problem
    return True, None, None


class Oracle:
    """Replays counterexamples on the flat models through the Interpreter,
    which shares no pipeline stage past flattening with the checker."""

    def __init__(self, dfcompat):
        self.api = dfcompat
        self._flat: dict[str, tuple] = {}
        self._seen: dict[tuple, str | None] = {}

    def flats(self, member: Member):
        if member.name not in self._flat:
            self._flat[member.name] = tuple(
                self.api.flatten_and_validate(self.api.parse_model(t))
                for t in (member.text_a, member.text_b)
            )
        return self._flat[member.name]

    def __call__(self, member: Member, report) -> str | None:
        key = (member.name, json.dumps(
            [dataclasses.asdict(d.counterexample) if d and d.counterexample else None
             for d in (report.backward, report.upward)], sort_keys=True, default=str))
        if key not in self._seen:
            self._seen[key] = self._check(member, report)
        return self._seen[key]

    def _check(self, member: Member, report) -> str | None:
        for direction, res in (("backward", report.backward), ("upward", report.upward)):
            if res is None:
                return f"{direction}: not checked"
            cx = res.counterexample
            refuted = not res.holds or bool(res.fixed_inputs)
            if refuted and cx is None:
                return f"{direction}: refuted without a counterexample"
            if cx is None:
                continue
            want = member.expected.cex_steps.get(direction)
            if want is not None and len(cx.rows_a) != want:
                return f"{direction}: {len(cx.rows_a)} steps, expected {want}"
            problem = self._replay(member, report, direction, cx)
            if problem:
                return f"{direction}: {problem}"
        return None

    def _replay(self, member: Member, report, direction: str, cx) -> str | None:
        Interpreter = self.api.Interpreter
        flat_a, flat_b = self.flats(member)
        rows = {"A": cx.rows_a, "B": cx.rows_b}
        cand, ref = ("A", "B") if direction == "backward" else ("B", "A")
        flats = {"A": flat_a, "B": flat_b}
        if len(cx.rows_a) != len(cx.rows_b) or not cx.rows_a:
            return "trace lengths differ or are empty"
        if cx.kind == "uncovered-input":
            Interpreter(flats[ref]).run(rows[ref])
            interp = Interpreter(flats[cand])
            interp.run(rows[cand][:-1])
            try:
                interp.validate_inputs(rows[cand][-1])
            except self.api.DomainError:
                return None
            return "candidate accepts the row reported as uncovered"
        if cx.kind != "output-mismatch" or not cx.port:
            return f"unknown counterexample kind {cx.kind}"
        a_to_b = {a: b for b, a in report.mapping}
        ports = {"A": cx.port, "B": a_to_b[cx.port]}
        outs = {s: Interpreter(flats[s]).run(rows[s]) for s in ("A", "B")}
        seq = {s: [o[ports[s]] for o in outs[s]] for s in ("A", "B")}
        if seq["A"][:-1] != seq["B"][:-1]:
            return f"port {cx.port} diverges before the last step"
        if seq[ref][-1] != cx.expected[cx.port] or seq[cand][-1] != cx.actual[cx.port]:
            return (f"last step gives expected {seq[ref][-1]!r}, actual {seq[cand][-1]!r}; "
                    f"reported {cx.expected[cx.port]!r}, {cx.actual[cx.port]!r}")
        if seq["A"][-1] == seq["B"][-1]:
            return f"no divergence on {cx.port} at the last step"
        return None


# ---------------------------------------------------------------------------
# metrics


def p90(values: list[float]) -> tuple[float, int]:
    """Nearest-rank 90th percentile and the number of values beyond it."""
    xs = sorted(values)
    k = -(-9 * len(xs) // 10) - 1
    return xs[k], len(xs) - 1 - k


def setup(workload: str, seed: int, mode: str, workdir: Path):
    """Import dfcompat afresh and build the workload; returns the module, the
    members and the runner."""
    for name in [n for n in sys.modules if n == "dfcompat" or n.startswith("dfcompat.")]:
        del sys.modules[name]
    dfcompat = importlib.import_module("dfcompat")
    members = WORKLOADS[workload][0](seed)
    runner = Runner(dfcompat, mode, workdir)
    if mode == "cli":
        runner.write_inputs(members)
    return dfcompat, members, runner


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dfcompat" / "__init__.py").is_file():
        print(f"error: no dfcompat sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    mode = WORKLOADS[args.workload][1]
    outdir = ROOT / ".dfbench"
    workdir = outdir / "work" / args.workload

    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        dfcompat, members, runner = setup(args.workload, args.seed, mode, workdir)
        setup_times.append(time.perf_counter() - t0)
    if not str(Path(dfcompat.__file__).resolve()).startswith(str(src.resolve())):
        print(f"error: imported dfcompat from {dfcompat.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    samples: list[float] = []
    outcomes: list[tuple[int, Outcome]] = []
    plain_s = traced_s = 0.0
    passes = traced_passes = 0
    started = time.perf_counter()
    while True:
        for idx, m in enumerate(members):
            dt, out = run_timed(runner, idx, lambda: runner.op(idx, m))
            samples.append(dt)
            plain_s += dt
            outcomes.append((idx, out))
        passes += 1
        if tracer is not None:
            tracer.install()
            try:
                for idx, m in enumerate(members):
                    op_id = traced_passes * len(members) + idx
                    dt, out = run_timed(runner, idx, lambda: tracer.run_op(
                        op_id, lambda: runner.op(idx, m)))
                    traced_s += dt
                    outcomes.append((idx, out))
            finally:
                tracer.uninstall()
            traced_passes += 1
        if time.perf_counter() - started >= args.seconds and passes >= MIN_PASSES:
            break
    wall = time.perf_counter() - started
    # A pair's time to verdict is its fastest pass: the checker is
    # deterministic, so slower repetitions measure interference from other
    # processes on the host, not the checker.
    best = [min(samples[i::len(members)]) for i in range(len(members))]
    for m, t in sorted(zip(members, best), key=lambda x: x[1]):
        print(f"# {t * 1000:10.2f} ms  {m.name}", file=sys.stderr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    oracle = Oracle(dfcompat)
    decided = failed = 0
    failures: dict[str, tuple[set[str], str]] = {}
    wrong: set[str] = set()
    for idx, out in outcomes:
        member = members[idx]
        try:
            ok_decided, failure, problem = judge(member, out, oracle)
        except Exception as exc:  # noqa: BLE001 - a replay that crashes does not replay
            ok_decided, failure, problem = True, "bad-counterexample", f"replay raised {exc!r}"
        decided += ok_decided
        if failure:
            failed += 1
            failures.setdefault(failure, (set(), out.detail))[0].add(member.name)
        if problem:
            wrong.add(f"{member.name}: {problem}")
    attempted = len(outcomes)
    for name, (names, detail) in sorted(failures.items()):
        print(f"failed: {name} on {', '.join(sorted(names))}: {detail}", file=sys.stderr)
    for problem in sorted(wrong):
        print(f"WRONG: {problem}", file=sys.stderr)

    if tracer is None:
        tail, beyond = p90(best)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "checks_per_s": (len(best) / sum(best), "1/s"),
            "verdict_p50_ms": (statistics.median(best) * 1000, "ms"),
            "verdict_tail_ms": (tail * 1000, "ms"),
            "decided_share": (decided / attempted, "share"),
            "correct_share": ((attempted - failed) / attempted, "share"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"# {args.workload} seed {args.seed}: {passes} passes over {len(members)} "
              f"pairs in {wall:.2f} s; verdict_tail_ms is the p90 over pairs, with "
              f"{beyond} pairs ({beyond * passes} timed runs) beyond it")
    else:
        overhead = traced_s / plain_s - 1 if plain_s else 0.0
        metrics = tracer.metrics(traced_passes, overhead)
        tracer.write(outdir / f"spans_{args.workload}.jsonl", [m.name for m in members])
        print(f"# {args.workload} seed {args.seed}: {traced_passes} traced passes, "
              f"{len(tracer.spans)} spans; absent: {', '.join(tracer.absent) or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if wrong else 0


def cap_memory() -> None:
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    cap = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


if __name__ == "__main__":
    cap_memory()
    sys.exit(main())
