"""End-to-end CLI behavior: exit codes, text output, artifacts."""

import json
import tracemalloc

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
