"""End-to-end CLI behavior: exit codes, text output, artifacts."""

import hashlib
import io
import json
import re
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest

from dfcompat import CompatReport, cli, simcheck
from helpers import DRIFTER, MIRROR, model_path, run_cli

FLIPFLOP = str(model_path("flipflop"))
RESET = str(model_path("flipflop_reset"))
LIMITER_A = str(model_path("limiter_sign"))
LIMITER_B = str(model_path("limiter_plain"))


def write(tmp_path, name, text, mode=None):
    path = tmp_path / name
    path.write_text(text)
    if mode is not None:
        path.chmod(mode)
    return str(path)


def stub(tmp_path, name, body):
    return write(tmp_path, name, f"#!/bin/sh\n{body}\n", mode=0o755)


# ---------------------------------------------------------------------------
# check: verdicts and exit codes


def test_check_full():
    code, out, err = run_cli("check", str(model_path("flipflop_logic")), FLIPFLOP)
    assert code == 0
    assert "backward: holds (new version serves existing callers)" in out
    assert "upward: holds (old version serves new callers)" in out
    assert out.rstrip().endswith("verdict: full")
    assert err == ""



def test_fix_search_cap_exits_4_naming_the_model_and_budget(tmp_path):
    # every constant for F passes the initial-output filter, yet fails
    # verification (the drifter's output flips from the second step on)
    cand = write(tmp_path, "A.dfm", (
        "model Drift\nin u : bool\nin F : int[0,20]\nout y : bool\n"
        + DRIFTER.split("out y : bool\n", 1)[1]
    ))
    ref = write(tmp_path, "B.dfm", MIRROR)
    code, out, err = run_cli("check", cand, ref, "--fix-iterations", "3")
    assert code == 4
    assert out == ""
    assert err == (
        "inconclusive: fix search for Drift: no verified constant fix within 3 attempts\n"
    )


def test_split_cap_exits_4_naming_the_stage_model_and_cap():
    code, out, err = run_cli("stats", FLIPFLOP, "--split-cap", "1")
    assert (code, out) == (4, "")
    assert err == (
        "inconclusive: splitting the output Q of FlipFlop needs more than 1 "
        "alternatives (cap 1)\n"
    )


def test_check_conditional():
    code, out, _ = run_cli("check", str(model_path("cruise_v4")),
                           str(model_path("cruise_v3")))
    assert code == 1
    assert "backward: holds with fixed inputs [F=false]" in out
    assert "upward: fails" in out
    assert "extra candidate inputs: F" in out
    assert "verdict: backward-only (conditional)" in out


def test_check_one_directional():
    code, out, _ = run_cli("check", str(model_path("bands_v1")),
                           str(model_path("bands_v0")))
    assert code == 1
    assert "backward: holds" in out
    assert "divergence after 1 step(s) on transition coverage" in out
    assert "verdict: backward-only" in out


def test_check_incompatible():
    code, out, _ = run_cli("check", RESET, FLIPFLOP)
    assert code == 2
    assert "backward: fails" in out
    assert "divergence after 1 step(s) on port Q: expected true, got false" in out
    assert "verdict: incompatible" in out


def test_check_interface_mismatch(tmp_path):
    a = write(tmp_path, "a.dfm", "model A\nin u : bool\nout y : bool\nwire u -> y\n")
    b = write(tmp_path, "b.dfm",
              "model B\nin u : bool\nout y : int[0,1]\n"
              "block K : Constant(1)\nwire K -> y\n")
    code, out, _ = run_cli("check", a, b)
    assert code == 2
    assert "interface: y:" in out
    assert "verdict: incompatible" in out
    assert "backward:" not in out


def test_check_json_format():
    code, out, _ = run_cli("check", LIMITER_A, LIMITER_B, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data["verdict"] == "backward-only"
    assert data["conditional"] is True
    assert data["backward"]["fixed_inputs"] == {"Sign_b": False}
    report = CompatReport.from_json(out)
    assert report.verdict == "backward-only"


def test_check_map_file(tmp_path):
    a = write(tmp_path, "a.dfm", "model A\nin v : bool\nout y : bool\nwire v -> y\n")
    b = write(tmp_path, "b.dfm", "model B\nin u : bool\nout y : bool\nwire u -> y\n")
    mapping = write(tmp_path, "ports.map", "# renamed in v2\nu = v\n")
    code, out, _ = run_cli("check", a, b, "--map", mapping)
    assert code == 0
    assert "port mapping: u->v, y->y" in out


def test_check_pipeline_flags_accepted():
    code, out, _ = run_cli(
        "check", LIMITER_A, LIMITER_B,
        "--no-clone-pruning", "--no-output-split",
        "--datastore", "global", "--solver-budget", "100000",
    )
    assert code == 1
    assert "verdict: backward-only (conditional)" in out


def test_check_state_budget_inconclusive():
    code, out, err = run_cli("check", FLIPFLOP, FLIPFLOP, "--state-budget", "1")
    assert code == 4
    assert err == (
        "inconclusive: unfolding FlipFlop needs more than 1 reachable states (budget 1)\n"
    )
    assert out == ""


def wide_charge_pump(tmp_path, coast="Gain(3)"):
    """models/charge_pump.dfm over u : int[0,10000000], its coasting output
    3u made by the given block."""
    text = model_path("charge_pump").read_text()
    text = text.replace("in u : int[0,249]", "in u : int[0,10000000]")
    if coast != "Gain(3)":
        text = text.replace("block G3 : Gain(3)", f"block G3 : {coast}")
        text = text.replace("wire u -> G3\n", "wire u -> G3.in1\nwire u -> G3.in2\n")
    return write(tmp_path, "wide.dfm", text)


def test_check_wide_charge_pump_decided(tmp_path):
    """charge_pump adds u to its level below the level, and shows 5u + level
    or 3u: the update reads u on two values, and each output comparison is
    affine on each interval, so ten million values are decided."""
    wide = wide_charge_pump(tmp_path)
    tracemalloc.start()
    try:
        code, out, err = run_cli("check", wide, wide)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 1024 * 1024
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("verdict: full")


def test_check_wide_arithmetic_input_inconclusive(tmp_path):
    """Shown as u * u while coasting, u is compared by value on every
    coasting row, and ten million values are past the budget."""
    wide = wide_charge_pump(tmp_path, coast="Product")
    code, out, err = run_cli("check", wide, wide)
    assert code == 4
    assert out == ""
    assert err == (
        "inconclusive: simulating ChargePump by ChargePump needs 10000001 input "
        "rows in candidate state Level=2, reference state Level=2 (budget 10000000)\n"
    )


def test_check_wide_compared_input_emits_transitions(tmp_path):
    """The guarded transitions' satisfiability checks split a wide input
    only compared with constants, as the check does."""
    bands = {
        name: model_path(name).read_text().replace(
            "in u : int[0,69]", f"in u : int[0,{hi}]"
        ).replace("in u : int[0,49]", f"in u : int[0,{hi}]")
        for name, hi in (("bands_v1", 10_000_000), ("bands_v0", 8_000_000))
    }
    new = write(tmp_path, "new.dfm", bands["bands_v1"])
    old = write(tmp_path, "old.dfm", bands["bands_v0"])
    out_dir = tmp_path / "out"
    code, out, err = run_cli("check", new, old, "--artifacts", str(out_dir), "--emit-efa")
    assert (code, err) == (1, "")
    assert out.rstrip().endswith("verdict: backward-only")
    assert (out_dir / "efa.A.txt").read_text().startswith("machine ")
    assert (out_dir / "efa.B.txt").read_text().startswith("machine ")


# ---------------------------------------------------------------------------
# check: invalid inputs


def test_missing_file():
    code, _, err = run_cli("check", "no_such.dfm", FLIPFLOP)
    assert code == 3
    assert err.startswith("error:")


def test_bad_model_text(tmp_path):
    bad = write(tmp_path, "bad.dfm", "model Broken\nin u bool\n")
    code, _, err = run_cli("check", bad, FLIPFLOP)
    assert code == 3
    assert err.startswith("error:")


def test_emit_requires_artifacts():
    code, _, err = run_cli("check", FLIPFLOP, FLIPFLOP, "--emit-efa")
    assert code == 3
    assert "--emit-* flags require --artifacts" in err
    # the flags are checked before any model is read
    code, _, err = run_cli("check", "no_such.dfm", FLIPFLOP, "--emit-cfg")
    assert code == 3
    assert err == "error: --emit-* flags require --artifacts DIR\n"


# ---------------------------------------------------------------------------
# check: artifacts


def test_artifact_inventory(tmp_path):
    outdir = tmp_path / "arts"
    code, _, _ = run_cli(
        "check", LIMITER_A, LIMITER_B, "--artifacts", str(outdir),
        "--emit-cfg", "--emit-efa", "--emit-ts", "--emit-summary", "--emit-smt",
    )
    assert code == 1
    names = {p.relative_to(outdir).as_posix() for p in outdir.rglob("*") if p.is_file()}
    assert names == {
        "report.json",
        "cex_backward.A.csv", "cex_backward.B.csv",
        "cex_upward.A.csv", "cex_upward.B.csv",
        "cfg.A.dot", "cfg.B.dot",
        "efa.A.txt", "efa.B.txt",
        "ts.A.dot", "ts.B.dot",
        "summary.A.txt", "summary.B.txt",
        "smt/init_output_diff_cmd.smt2",
        "smt/init_outputs_agree_neg.smt2",
        "smt/fix_constants_exist.smt2",
    }
    report = CompatReport.from_json((outdir / "report.json").read_text())
    assert report.verdict == "backward-only"
    header = (outdir / "cex_backward.A.csv").read_text().splitlines()[0]
    assert set(header.split(",")) == {"req", "Sign_b"}
    for script in (outdir / "smt").iterdir():
        first = script.read_text().splitlines()[0]
        assert first in ("; expected: sat", "; expected: unsat")
    fix = (outdir / "smt" / "fix_constants_exist.smt2").read_text()
    assert fix.splitlines()[0] == "; expected: sat"


def test_artifacts_reuse_the_checked_pipeline(tmp_path, monkeypatch):
    flattened = []
    for module in (simcheck, cli):
        real = module.flatten_and_validate
        monkeypatch.setattr(
            module, "flatten_and_validate",
            lambda model, real=real, **kw: flattened.append(model.name) or real(model, **kw),
        )
    code, _, _ = run_cli(
        "check", LIMITER_A, LIMITER_B, "--artifacts", str(tmp_path / "arts"),
        "--emit-cfg", "--emit-efa", "--emit-ts", "--emit-summary", "--emit-smt",
    )
    assert code == 1
    assert len(flattened) == 2 and len(set(flattened)) == 2


def test_cfg_extracted_once_per_model(tmp_path, monkeypatch):
    extracted = []
    for module in (simcheck, cli):
        real = module.extract_cfg
        monkeypatch.setattr(
            module, "extract_cfg",
            lambda flat, *a, real=real: extracted.append(flat.name) or real(flat, *a),
        )
    code, _, _ = run_cli(
        "check", LIMITER_A, LIMITER_B, "--artifacts", str(tmp_path / "arts"),
        "--emit-cfg", "--emit-efa", "--emit-ts", "--emit-summary", "--emit-smt",
    )
    assert code == 1
    assert sorted(extracted) == ["LimiterPlain", "LimiterSign"]
    extracted.clear()
    code, _, _ = run_cli("stats", FLIPFLOP)
    assert code == 0
    assert extracted == ["FlipFlop"]


def test_interface_failure_writes_report_only(tmp_path):
    a = write(tmp_path, "a.dfm", "model A\nin u : bool\nout y : bool\nwire u -> y\n")
    b = write(tmp_path, "b.dfm",
              "model B\nin u : bool\nout y : int[0,1]\n"
              "block K : Constant(1)\nwire K -> y\n")
    outdir = tmp_path / "arts"
    code, _, _ = run_cli("check", a, b, "--artifacts", str(outdir))
    assert code == 2
    assert [p.name for p in outdir.iterdir()] == ["report.json"]


def test_smt_cross_check_via_stub(tmp_path):
    agree = stub(tmp_path, "agree.sh", "echo unsat")
    outdir = tmp_path / "ok"
    code, out, err = run_cli(
        "check", FLIPFLOP, FLIPFLOP, "--artifacts", str(outdir),
        "--emit-smt", "--solver-cmd", agree,
    )
    assert code == 0
    assert "verdict: full" in out
    assert err == ""

    disagree = stub(tmp_path, "disagree.sh", "echo sat")
    outdir = tmp_path / "bad"
    code, out, err = run_cli(
        "check", FLIPFLOP, FLIPFLOP, "--artifacts", str(outdir),
        "--emit-smt", "--solver-cmd", disagree,
    )
    assert code == 4
    assert "enumeration says unsat, solver says sat" in err


# ---------------------------------------------------------------------------
# replay


def test_replay_outputs_csv(tmp_path):
    trace = write(tmp_path, "t.csv", "S,R\n1,0\n0,0\n0,1\n")
    code, out, _ = run_cli("replay", FLIPFLOP, trace)
    assert code == 0
    assert out == "Q\n1\n1\n0\n"


def test_replay_empty_trace(tmp_path):
    trace = write(tmp_path, "t.csv", "S,R\n")
    code, out, _ = run_cli("replay", FLIPFLOP, trace)
    assert code == 0
    assert out == "Q\n"


def test_replay_against_divergence(tmp_path):
    trace = write(tmp_path, "t.csv", "S,R\n1,0\n1,1\n")
    code, out, _ = run_cli("replay", RESET, trace, "--against", FLIPFLOP)
    assert code == 0
    assert out.endswith("divergence at step 1: Q: false vs true\n")


def test_replay_against_agreement(tmp_path):
    trace = write(tmp_path, "t.csv", "S,R\n1,0\n0,0\n")
    code, out, _ = run_cli("replay", RESET, trace, "--against", FLIPFLOP)
    assert code == 0
    assert out.endswith("no divergence over 2 step(s)\n")


def test_replay_bad_csv(tmp_path):
    trace = write(tmp_path, "t.csv", "S\n1\n")
    code, _, err = run_cli("replay", FLIPFLOP, trace)
    assert code == 3
    assert "missing input column" in err


METER = (
    "model Meter\nin x : int[0,9]\nout y : int[0,9]\n"
    "block S : DataStoreMemory(0, int[0,9])\n"
    "block Get : DataStoreRead(S)\nblock Put : DataStoreWrite(S)\n"
    "wire x -> Put\nwire Get -> y\n"
)


def test_replay_datastore_order_flag(tmp_path):
    model = write(tmp_path, "meter.dfm", METER)
    trace = write(tmp_path, "t.csv", "x\n3\n5\n")
    code, _, err = run_cli("replay", model, trace)
    assert code == 3
    assert "error:" in err and "Get" in err
    code, out, _ = run_cli("replay", model, trace, "--datastore-order", "schedule")
    assert code == 0
    assert out == "y\n0\n3\n"


# ---------------------------------------------------------------------------
# stats


def test_stats_text():
    code, out, _ = run_cli("stats", FLIPFLOP)
    assert code == 0
    values = {}
    for line in out.splitlines():
        key, val = line.split()
        values[key] = val
    assert values["model"] == "FlipFlop"
    assert values["blocks"] == "8"
    assert values["state_vars"] == "1"
    assert values["cfg_paths"] == "4"
    assert values["efa_transitions"] == "3"
    assert values["ts_states"] == "2"
    assert values["ts_transitions"] == "4"


def test_stats_json_matches_artifacts(tmp_path):
    pump = str(model_path("charge_pump"))
    code, out, _ = run_cli("stats", pump, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ts_states"] == 10

    outdir = tmp_path / "arts"
    run_cli("check", pump, pump, "--artifacts", str(outdir),
            "--emit-efa", "--emit-ts")
    efa_lines = (outdir / "efa.A.txt").read_text().splitlines()
    assert sum(1 for l in efa_lines if l.strip().startswith("[")) == data["efa_transitions"]
    dot_lines = (outdir / "ts.A.dot").read_text().splitlines()
    # skip the entry marker; unconditional edges carry no label
    edges = [l for l in dot_lines if l.strip().startswith("s") and "->" in l]
    nodes = [l for l in dot_lines if l.strip().startswith("s") and "->" not in l]
    assert len(nodes) == data["ts_states"]
    assert len(edges) == data["ts_transitions"]


# ---------------------------------------------------------------------------
# emit-smt


def test_emit_smt_writes_scripts(tmp_path):
    outdir = tmp_path / "smt"
    code, out, _ = run_cli("emit-smt", FLIPFLOP, FLIPFLOP,
                           "--artifacts", str(outdir))
    assert code == 0
    wrote = [l for l in out.splitlines() if l.startswith("wrote ")]
    assert len(wrote) == 2
    assert all("(expected unsat)" in l for l in wrote)
    assert sorted(p.name for p in outdir.iterdir()) == [
        "init_output_diff_Q.smt2", "init_outputs_agree_neg.smt2",
    ]


def test_emit_smt_solver_agreement(tmp_path):
    agree = stub(tmp_path, "agree.sh", "echo unsat")
    code, out, _ = run_cli("emit-smt", FLIPFLOP, FLIPFLOP,
                           "--artifacts", str(tmp_path / "s"), "--solver-cmd", agree)
    assert code == 0
    assert "external solver agrees on 2 queries" in out


def test_emit_smt_solver_unknown(tmp_path):
    unk = stub(tmp_path, "unk.sh", "echo thinking\necho unknown")
    code, _, err = run_cli("emit-smt", FLIPFLOP, FLIPFLOP,
                           "--artifacts", str(tmp_path / "s"), "--solver-cmd", unk)
    assert code == 4
    assert "answered unknown" in err


def test_emit_smt_solver_missing_binary(tmp_path):
    code, _, err = run_cli("emit-smt", FLIPFLOP, FLIPFLOP,
                           "--artifacts", str(tmp_path / "s"),
                           "--solver-cmd", str(tmp_path / "nope"))
    assert code == 4
    assert err.startswith("inconclusive: external solver failed")


def test_emit_smt_interface_mismatch(tmp_path):
    a = write(tmp_path, "a.dfm", "model A\nin u : bool\nout y : bool\nwire u -> y\n")
    b = write(tmp_path, "b.dfm",
              "model B\nin u : bool\nout y : int[0,1]\n"
              "block K : Constant(1)\nwire K -> y\n")
    code, _, err = run_cli("emit-smt", a, b, "--artifacts", str(tmp_path / "s"))
    assert code == 2
    assert "interface: y:" in err


# ---------------------------------------------------------------------------
# help text and usage errors, pinned at 80 columns

HELP_TOP = """\
usage: dfcompat [-h] {check,replay,stats,emit-smt} ...

behavioral compatibility checking for dataflow models

positional arguments:
  {check,replay,stats,emit-smt}
    check               compare two model versions
    replay              run an input trace on a model
    stats               pipeline size numbers for one model
    emit-smt            write key queries as SMT-LIB 2

options:
  -h, --help            show this help message and exit
"""

HELP_CHECK = """\
usage: dfcompat check [-h] [--map FILE] [--format {text,json}]
                      [--artifacts DIR] [--emit-cfg] [--emit-efa] [--emit-ts]
                      [--emit-summary] [--emit-smt] [--solver-cmd CMD]
                      [--no-clone-pruning] [--no-output-split]
                      [--datastore {internal,global}]
                      [--datastore-order {strict,schedule}]
                      [--solver-budget N] [--state-budget N] [--split-cap N]
                      [--fix-iterations N]
                      model_a model_b

positional arguments:
  model_a               candidate (newer) model file
  model_b               reference (older) model file

options:
  -h, --help            show this help message and exit
  --map FILE            port mapping overrides, lines of 'oldPort = newPort'
  --format {text,json}
  --artifacts DIR       directory for report, traces and emitted artifacts
  --emit-cfg            write the cfg artifacts (needs --artifacts)
  --emit-efa            write the efa artifacts (needs --artifacts)
  --emit-ts             write the ts artifacts (needs --artifacts)
  --emit-summary        write the summary artifacts (needs --artifacts)
  --emit-smt            write the smt artifacts (needs --artifacts)
  --solver-cmd CMD      external SMT solver to cross-check emitted queries
  --no-clone-pruning    keep provably duplicated state variables
  --no-output-split     check all output ports on one joint state space
  --datastore {internal,global}
                        treat data stores as hidden state or as extra ports
  --datastore-order {strict,schedule}
                        reject or allow reads scheduled before same-step
                        writes
  --solver-budget N     max evaluations per satisfiability query
  --state-budget N      max reachable states per transition system
  --split-cap N         max alternatives per case split
  --fix-iterations N    max constant-fix candidates to verify
"""

HELP_REPLAY = """\
usage: dfcompat replay [-h] [--against MODEL] [--datastore {internal,global}]
                       [--datastore-order {strict,schedule}]
                       model trace

positional arguments:
  model                 model file
  trace                 input trace CSV

options:
  -h, --help            show this help message and exit
  --against MODEL       also run a second model and report the first step
                        where shared outputs diverge
  --datastore {internal,global}
  --datastore-order {strict,schedule}
"""

HELP_STATS = """\
usage: dfcompat stats [-h] [--format {text,json}] [--no-clone-pruning]
                      [--no-output-split] [--datastore {internal,global}]
                      [--datastore-order {strict,schedule}]
                      [--solver-budget N] [--state-budget N] [--split-cap N]
                      [--fix-iterations N]
                      model

positional arguments:
  model                 model file

options:
  -h, --help            show this help message and exit
  --format {text,json}
  --no-clone-pruning    keep provably duplicated state variables
  --no-output-split     check all output ports on one joint state space
  --datastore {internal,global}
                        treat data stores as hidden state or as extra ports
  --datastore-order {strict,schedule}
                        reject or allow reads scheduled before same-step
                        writes
  --solver-budget N     max evaluations per satisfiability query
  --state-budget N      max reachable states per transition system
  --split-cap N         max alternatives per case split
  --fix-iterations N    max constant-fix candidates to verify
"""

HELP_EMIT_SMT = """\
usage: dfcompat emit-smt [-h] [--map FILE] --artifacts DIR [--solver-cmd CMD]
                         [--no-clone-pruning] [--no-output-split]
                         [--datastore {internal,global}]
                         [--datastore-order {strict,schedule}]
                         [--solver-budget N] [--state-budget N]
                         [--split-cap N] [--fix-iterations N]
                         model_a model_b

positional arguments:
  model_a
  model_b

options:
  -h, --help            show this help message and exit
  --map FILE
  --artifacts DIR
  --solver-cmd CMD      run each script and compare with the enumeration
  --no-clone-pruning    keep provably duplicated state variables
  --no-output-split     check all output ports on one joint state space
  --datastore {internal,global}
                        treat data stores as hidden state or as extra ports
  --datastore-order {strict,schedule}
                        reject or allow reads scheduled before same-step
                        writes
  --solver-budget N     max evaluations per satisfiability query
  --state-budget N      max reachable states per transition system
  --split-cap N         max alternatives per case split
  --fix-iterations N    max constant-fix candidates to verify
"""


def run_main(monkeypatch, *argv: str) -> tuple[int, str, str]:
    """run_cli at 80 columns, also where argparse exits: (exit code, stdout,
    stderr)."""
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def usage_of(help_text: str) -> str:
    return help_text.split("\n\n")[0] + "\n"


@pytest.mark.parametrize("argv, text", [
    ((), HELP_TOP),
    (("check",), HELP_CHECK),
    (("replay",), HELP_REPLAY),
    (("stats",), HELP_STATS),
    (("emit-smt",), HELP_EMIT_SMT),
])
def test_help_text(monkeypatch, argv, text):
    assert run_main(monkeypatch, *argv, "--help") == (0, text, "")


def test_usage_error_without_subcommand(monkeypatch):
    assert run_main(monkeypatch) == (
        2, "", usage_of(HELP_TOP)
        + "dfcompat: error: the following arguments are required: command\n",
    )


def test_usage_error_check_with_one_model(monkeypatch):
    assert run_main(monkeypatch, "check", FLIPFLOP) == (
        2, "", usage_of(HELP_CHECK)
        + "dfcompat check: error: the following arguments are required: model_b\n",
    )


# ---------------------------------------------------------------------------
# main builds its parser once and reuses it


def test_parser_built_once_per_process(monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    monkeypatch.setattr(cli, "_parser", None)
    run_main(monkeypatch, "stats", FLIPFLOP)
    run_main(monkeypatch, "check", FLIPFLOP)
    run_main(monkeypatch, "check", FLIPFLOP, FLIPFLOP)
    assert len(built) == 1


def scrubbed(monkeypatch, *argv: str) -> tuple[int, str, str]:
    """run_main with each direction's run-dependent ``elapsed`` zeroed."""
    code, out, err = run_main(monkeypatch, *argv)
    return code, re.sub(r'"elapsed": [^,\n]+', '"elapsed": 0', out), err


def fresh(monkeypatch, *argv: str) -> tuple[int, str, str]:
    monkeypatch.setattr(cli, "_parser", None)
    return scrubbed(monkeypatch, *argv)


@pytest.mark.parametrize("first, then", [
    (("check", LIMITER_A, LIMITER_B, "--format", "json"), ("check", LIMITER_A, LIMITER_B)),
    (("stats", FLIPFLOP, "--format", "json"), ("stats", FLIPFLOP)),
    (("check", FLIPFLOP), ("check", LIMITER_A, LIMITER_B)),
])
def test_reused_parser_keeps_nothing_between_calls(monkeypatch, first, then):
    expected = [fresh(monkeypatch, *first), fresh(monkeypatch, *then)]
    monkeypatch.setattr(cli, "_parser", None)
    assert [scrubbed(monkeypatch, *first), scrubbed(monkeypatch, *then)] == expected


# ---------------------------------------------------------------------------
# artifact bytes

# sha256 of each file the four --emit-* flags write, as the checker wrote
# them before the emitters were reworked for speed
ARTIFACT_SHA256 = {
    ("bands_v1", "bands_v0"): {
        "cfg.A.dot": "6a7de4cf596621f9233bb7542aa46411a4600a73bb2a1350fafb914cc7b8ce8c",
        "cfg.B.dot": "c3f91e2037f254b257e06d71e62ed7afdb713382b996ecd2e4fc979d292bf01e",
        "efa.A.txt": "e53de9f655c98cf697785f20c10d828ac7f145934736df577b96a7014e4cd2ab",
        "efa.B.txt": "42935b47fd5d2d575fcb4461b2a80f95182f0fdf5c0d6b8aa6d51416d709e9d8",
        "summary.A.txt": "95c18dd90c14aa064a79ceeb9037cc40066d357cf5f200d8ca7b053362304819",
        "summary.B.txt": "463af92f66faec7d6357203f34a7095a7ff3398bce5af4264367f792728f338b",
        "ts.A.dot": "3b9c2c08ad2b9f344dd81a7c0f0020f1f310a2a1a3a8223bcfb655f1247f1c83",
        "ts.B.dot": "c36702d250d25a1838897e1a1e7d4c682b38ffd175cd2c6c4f0e34fafb3e4f24",
    },
    ("flipflop_reset", "flipflop"): {
        "cfg.A.dot": "b2966833057561071972f5fcb04a0ec10d4282dc979828efbbb7ac50849f2dee",
        "cfg.B.dot": "3e4860e9b11f148ca12680438949404f8ff1f3785f6e21b5611b6b510f2d5f16",
        "efa.A.txt": "c377991747c233ce78e93b2d6d037f45d30cf92cb4b798eb86d910fe02166751",
        "efa.B.txt": "8ec659bc87c183271ae803628226c70d7a33038df64a379093d35a9916c754d6",
        "summary.A.txt": "3434856450a8f662b7b6f65937a0d49f75fce59abbb09a414c6cbd6e5ba2dcf0",
        "summary.B.txt": "8728c9519cdf1c9eec3de17937f9038395d334e3b81d30fe5ea69ee67796b395",
        "ts.A.dot": "42bc4258bbfcd7df97a9fbb022468f19c39f5b1a30458984cd19f5ccd96b5242",
        "ts.B.dot": "7d7b1dadb0781cfd81184005402bc7d6ce1b2dd99836473b686a2d2d55b5d7a2",
    },
    ("pulse_keeper", "pulse_keeper"): {
        "cfg.A.dot": "78ff66833205a38e4e2f68458d1bb7d73c73aecf207fd57d795c2412657c143d",
        "efa.A.txt": "044cf609fa96a1e096115e79f40487db4b9c055993fa24966485ee8f75217cef",
        "summary.A.txt": "0552b56d2ae6f4fc489593973458d657946ecf308a03c3bef836f9b540edabfa",
        "ts.A.dot": "a7bd315ec450ba4b0549a4705575c76592c93db621e07196c339aa615a506209",
    },
    ("tri_latch", "tri_latch"): {
        "cfg.A.dot": "446cafb39ffdeeb4061760ecc12bd807353182a3773cb516a9469fb19c4f46f8",
        "efa.A.txt": "2107d93e0179385c748db7bcf8669a2431aab4163f3d5ea9db8fee46cc8f179b",
        "summary.A.txt": "e8c547efcaad4014a3337c502654cadba8534933071a1eb5e470e0169ce9d583",
        "ts.A.dot": "f056c625031be43a658380ebde817a23e43a7ca9e81dd66bb695318f4226e419",
    },
}


@pytest.mark.parametrize("a, b", sorted(ARTIFACT_SHA256))
def test_artifact_bytes(tmp_path, a, b):
    outdir = tmp_path / "arts"
    run_cli("check", str(model_path(a)), str(model_path(b)), "--artifacts", str(outdir),
            "--emit-cfg", "--emit-summary", "--emit-efa", "--emit-ts")
    expected = dict(ARTIFACT_SHA256[(a, b)])
    if a == b:  # a model checked against itself writes each artifact twice
        expected.update({k.replace(".A.", ".B."): v for k, v in list(expected.items())})
    got = {
        name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        for name in expected
    }
    assert got == expected
