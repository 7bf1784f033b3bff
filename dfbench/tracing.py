"""Spans around the public functions of each dfcompat layer.

Each function is wrapped where the calling module binds it (for example
``dfcompat.simcheck.sat_witness``, the name ``simulates`` looks up), so the
program's own code is untouched.  A name that no longer exists is reported as
absent rather than failing the run.  Per-row kernels such as ``eval_expr``
are never wrapped: their cost shows as self time of the layer calling them.

Spans are kept in memory as tuples and written out at the end; per-layer
times are self times, a span's duration minus that of its direct children.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path


def _lines(args, kwargs, result):
    return args[0].count("\n") if args and isinstance(args[0], str) else 0


def _blocks(args, kwargs, result):
    return len(result.blocks)


def _nodes(args, kwargs, result):
    return len(result.nodes)


def _expr_nodes(args, kwargs, result):
    """Distinct expression nodes in a step summary's outputs and updates."""
    seen: set[int] = set()
    stack = list(result.outputs.values()) + list(result.updates.values())
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen.add(id(e))
        for attr in ("arg", "left", "right", "cond", "then", "other"):
            child = getattr(e, attr, None)
            if child is not None and not isinstance(child, (str, int, bool)):
                stack.append(child)
    return len(seen)


def _pruned(args, kwargs, result):
    return (len(args[0].vars), len(result[0].vars))


def _states(args, kwargs, result):
    return len(result.states)


def _sim(args, kwargs, result):
    rows = len(result.failure.rows) if result.failure is not None else 0
    return (result.pairs, rows)


def _hit(args, kwargs, result):
    return 1 if result is not None and result is not False else 0


def _transitions(args, kwargs, result):
    return len(result.transitions)


# (module, name, layer, hook).  A hook reads a work count off the arguments
# or the result after the span has ended.
WRAPS = [
    ("dfcompat", "parse_model", "parser", _lines),
    ("dfcompat.cli", "parse_model", "parser", _lines),
    ("dfcompat.simcheck", "flatten_and_validate", "model", _blocks),
    ("dfcompat.simcheck", "derive_port_mapping", "model", None),
    ("dfcompat.simcheck", "check_interface", "model", None),
    ("dfcompat.simcheck", "sorted_order", "cfg", None),
    ("dfcompat.simcheck", "extract_cfg", "cfg", _nodes),
    ("dfcompat.cli", "sorted_order", "cfg", None),
    ("dfcompat.cli", "extract_cfg", "cfg", _nodes),
    ("dfcompat.cli", "cfg_to_dot", "cfg", None),
    ("dfcompat.simcheck", "summarize", "symbolic", _expr_nodes),
    ("dfcompat.simcheck", "prune_clones", "symbolic", _pruned),
    ("dfcompat.simcheck", "restrict_to_outputs", "symbolic", None),
    ("dfcompat.simcheck", "rename_inputs", "symbolic", None),
    ("dfcompat.simcheck", "bind_inputs", "symbolic", None),
    ("dfcompat.cli", "step_to_text", "symbolic", None),
    ("dfcompat.efa", "split_expr", "symbolic", None),
    ("dfcompat.simcheck", "unfold_to_ts", "unfold", _states),
    ("dfcompat.cli", "unfold_to_ts", "unfold", _states),
    ("dfcompat.cli", "ts_to_dot", "unfold", None),
    ("dfcompat", "check_compatibility", "simcheck", None),
    ("dfcompat.cli", "check_compatibility", "simcheck", None),
    ("dfcompat.simcheck", "prepare", "simcheck", None),
    ("dfcompat.cli", "prepare", "simcheck", None),
    ("dfcompat.simcheck", "build_step", "simcheck", None),
    ("dfcompat.simcheck", "simulates", "simcheck", _sim),
    ("dfcompat.simcheck", "fix_free_ports", "simcheck", None),
    ("dfcompat.simcheck", "sat_witness", "solver", _hit),
    ("dfcompat.simcheck", "exists_forall_constants", "solver", _hit),
    ("dfcompat.efa", "sat_witness", "solver", _hit),
    ("dfcompat.efa", "is_sat", "solver", _hit),
    ("dfcompat.cli", "build_efa", "efa", _transitions),
    ("dfcompat.cli", "efa_to_text", "efa", None),
    ("dfcompat.cli", "main", "cli", None),
]

LAYERS = ("parser", "model", "cfg", "symbolic", "unfold", "simcheck", "solver", "efa", "cli")

OP = "bench.op"
BOOKKEEPING = "trace.hook"


class Tracer:
    """Installs the wrappers and keeps the spans of every traced operation."""

    def __init__(self) -> None:
        self.names: list[str] = [OP, BOOKKEEPING]
        self.layers: list[str] = ["bench", "trace"]
        self.spans: list[tuple] = []  # (name, start, end, parent, op, value)
        self.absent: list[str] = []
        self._stack: list[int] = [-1]
        self._op = -1
        self._installed: list[tuple[object, str, object, object]] = []
        self._targets: list[tuple[object, str, int, object]] = []
        for module_name, attr, layer, hook in WRAPS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                getattr(module, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            self._targets.append((module, attr, len(self.names), hook))
            self.names.append(name)
            self.layers.append(layer)

    def install(self) -> None:
        for module, attr, idx, hook in self._targets:
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, idx, hook))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, fn, idx: int, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        # counting expression nodes takes time of its own: record it as a
        # bookkeeping span, so that it does not count as the caller's self time
        costly = hook is _expr_nodes

        def traced(*args, **kwargs):
            parent = stack[-1]
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[me] = (idx, start, clock(), parent, self._op, None)
                raise
            finally:
                stack.pop()
            end = clock()
            value = hook(args, kwargs, result) if hook is not None else None
            spans[me] = (idx, start, end, parent, self._op, value)
            if costly:
                spans.append((1, end, clock(), parent, self._op, None))
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn):
        """Call fn() inside a root span for operation op_id."""
        self._op = op_id
        me = len(self.spans)
        self.spans.append(None)
        self._stack.append(me)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            self._stack.pop()
            self.spans[me] = (0, start, time.perf_counter(), -1, op_id, None)

    # ------------------------------------------------------------------
    # analysis

    def metrics(self, passes: int, overhead_share: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, with times and counts per pass over the workload."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_time[s[3]] += s[2] - s[1]
        per = max(passes, 1)
        layer_self: dict[str, float] = defaultdict(float)
        fn_time: dict[str, float] = defaultdict(float)
        fn_self: dict[str, float] = defaultdict(float)
        fn_calls: dict[str, int] = defaultdict(int)
        fn_value: dict[str, float] = defaultdict(float)
        total_op = 0.0
        pruned = [0, 0]
        sim = [0, 0]
        fix_attempts = 0
        fix_spans = {i for i, n in enumerate(self.names) if n.endswith(".fix_free_ports")}
        for i, (idx, start, end, parent, _op, value) in enumerate(spans):
            dur = end - start
            own = dur - child_time[i]
            name = self.names[idx]
            short = name.rsplit(".", 1)[-1]
            layer_self[self.layers[idx]] += own
            if idx == 0:
                total_op += dur
            fn_time[short] += dur
            fn_self[short] += own
            fn_calls[short] += 1
            if short == "prune_clones" and value is not None:
                pruned[0] += value[0]
                pruned[1] += value[0] - value[1]
            elif short == "simulates" and value is not None:
                sim[0] += value[0]
                sim[1] += value[1]
            elif value is not None:
                fn_value[short] += value
            # a verified candidate binding: one the fix search got back
            in_fix = parent >= 0 and spans[parent][0] in fix_spans
            if short == "exists_forall_constants" and value and in_fix:
                fix_attempts += 1

        sat_calls = fn_calls["sat_witness"] + fn_calls["is_sat"]
        sat_hits = fn_value["sat_witness"] + fn_value["is_sat"]
        unfold_s = fn_time["unfold_to_ts"]
        sim_s = fn_time["simulates"]
        parser_s = layer_self["parser"]

        def ratio(a, b):
            return a / b if b else 0.0

        out = {
            "solver.sat_s": (fn_time["sat_witness"] + fn_time["is_sat"], "s"),
            "solver.sat_calls": (sat_calls, "count"),
            "solver.sat_hit_share": (ratio(sat_hits, sat_calls), "share"),
            "solver.ef_s": (fn_time["exists_forall_constants"], "s"),
            "solver.ef_calls": (fn_calls["exists_forall_constants"], "count"),
            "simcheck.simulate_self_s": (fn_self["simulates"], "s"),
            "simcheck.pairs": (sim[0], "count"),
            "simcheck.pairs_per_s": (ratio(sim[0], sim_s), "1/s"),
            "simcheck.cex_steps": (sim[1], "count"),
            "simcheck.fix_s": (fn_time["fix_free_ports"], "s"),
            "simcheck.fix_attempts": (fix_attempts, "count"),
            "unfold.time_s": (layer_self["unfold"], "s"),
            "unfold.calls": (fn_calls["unfold_to_ts"], "count"),
            "unfold.states": (fn_value["unfold_to_ts"], "count"),
            "unfold.states_per_s": (ratio(fn_value["unfold_to_ts"], unfold_s), "1/s"),
            "parser.time_s": (parser_s, "s"),
            "parser.lines_per_s": (ratio(fn_value["parse_model"], parser_s), "1/s"),
            "model.time_s": (layer_self["model"], "s"),
            "model.flat_blocks": (fn_value["flatten_and_validate"], "count"),
            "cfg.time_s": (layer_self["cfg"], "s"),
            "cfg.nodes": (fn_value["extract_cfg"], "count"),
            "symbolic.summarize_s": (fn_self["summarize"], "s"),
            "symbolic.prune_s": (fn_self["prune_clones"], "s"),
            "symbolic.vars_pruned_share": (ratio(pruned[1], pruned[0]), "share"),
            "symbolic.expr_nodes": (fn_value["summarize"], "count"),
            "efa.time_s": (layer_self["efa"], "s"),
            "efa.transitions": (fn_value["build_efa"], "count"),
            "cli.self_s": (fn_self["main"], "s"),
        }
        # sums are per pass over the workload; shares and rates stay as they are
        for key, (value, unit) in list(out.items()):
            if unit in ("s", "count"):
                out[key] = (value / per, unit)
        for layer in LAYERS:
            out[f"share.{layer}"] = (ratio(layer_self[layer], total_op), "share")
        out["trace.overhead_share"] = (overhead_share, "share")
        out["trace.absent_wraps"] = (len(self.absent), "count")
        return out

    def write(self, path: Path, ops: list[str]) -> None:
        """Spans as JSON lines: a header with the name tables, then one
        [name, start, end, parent, op, value] row per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            header = {
                "names": self.names,
                "layers": self.layers,
                "ops": ops,
                "absent": self.absent,
            }
            f.write(json.dumps(header) + "\n")
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
