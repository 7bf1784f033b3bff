"""Expression DAGs: every pass visits each distinct node once, without
recursion, so a signal read by several blocks costs its size once and a
chain thousands of blocks deep is decided."""

import pytest

from dfcompat import check_compatibility, efa, exprs, parse_model, rows, solver, symbolic, unfold
from dfcompat.model import flatten_and_validate
from dfcompat.simcheck import build_step
from dfcompat.unfold import run_ts, unfold_to_ts
from helpers import chain_text, fanout_text, run_cli


@pytest.fixture
def listed(monkeypatch):
    """The number of nodes every ``postorder`` walk lists, so far."""
    count = [0]
    real = exprs.postorder

    def counting(roots, shared=None):
        out = real(roots, shared)
        count[0] += len(out)
        return out

    for module in (exprs, rows, symbolic, unfold, efa, solver):
        monkeypatch.setattr(module, "postorder", counting)
    return count


def test_fanout_model_work_is_linear_in_its_stages(listed):
    work = {}
    for n in (10, 20, 40):
        listed[0] = 0
        model = parse_model(fanout_text(n))
        assert check_compatibility(model, model).verdict == "full"
        work[n] = listed[0]
        # 2 * n + 2 blocks; as a tree the summary alone has 2**n leaves
        assert work[n] <= 30 * (2 * n + 2)
    assert work[40] - work[20] == pytest.approx(2 * (work[20] - work[10]), rel=0.1)


def test_summary_output_and_update_reading_one_signal_are_one_object():
    step = build_step(flatten_and_validate(parse_model(fanout_text(5))))
    assert step.outputs["y"] is step.updates["D"]


def test_deep_fanout_model_is_decided():
    # no constant shortens the chain in any state: 600 nodes deep when
    # evaluated, past what nested closures may call
    model = parse_model(fanout_text(300))
    assert check_compatibility(model, model).verdict == "full"


def test_deep_chain_is_decided_by_the_library_and_the_cli(tmp_path):
    cand, ref = chain_text(2000, restyled=True), chain_text(2000, restyled=False)
    assert check_compatibility(parse_model(cand), parse_model(ref)).verdict == "full"
    a, b = tmp_path / "A.dfm", tmp_path / "B.dfm"
    a.write_text(cand)
    b.write_text(ref)
    emits = ("--emit-cfg", "--emit-summary", "--emit-efa", "--emit-ts", "--emit-smt")
    code, out, err = run_cli("check", str(a), str(b), "--artifacts", str(tmp_path / "art"), *emits)
    assert (code, err) == (0, ""), err
    assert out.rstrip().endswith("verdict: full")
    for name in ("cfg.A.dot", "summary.B.txt", "efa.A.txt", "ts.B.dot",
                 "smt/init_outputs_agree_neg.smt2"):
        assert (tmp_path / "art" / name).stat().st_size > 0


def test_run_ts_evaluates_a_guard_of_thousands_of_rows():
    # y holds whether all 11 inputs were true on the step before: in the
    # initial state one transition takes 2047 of the 2048 rows, and its
    # guard disjoins one term per row
    lines = ["model Wide", *(f"in i{k} : bool" for k in range(11)), "out y : bool",
             "block D : UnitDelay(false)"]
    prev = "i0"
    for k in range(1, 11):
        lines += [f"block A{k} : Logic(AND)", f"wire {prev} -> A{k}.in1", f"wire i{k} -> A{k}.in2"]
        prev = f"A{k}"
    lines += [f"wire {prev} -> D.in", "wire D -> y"]
    ts = unfold_to_ts(build_step(flatten_and_validate(parse_model("\n".join(lines) + "\n"))))
    every, none = ({f"i{k}": v for k in range(11)} for v in (True, False))
    assert run_ts(ts, [every, none, none]) == [{"y": False}, {"y": True}, {"y": False}]
