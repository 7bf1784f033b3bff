"""Shared test utilities.

Covers corpus loading, exhaustive input enumeration, a brute-force
trace-containment oracle for cross-checking the simulation preorder, a
seeded random model-pair generator, and an in-process CLI runner.
"""

from __future__ import annotations

import copy
import io
import itertools
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import strategies as st

from dfcompat import Model, parse_model
from dfcompat.cli import main as cli_main
from dfcompat.exprs import Binary, Const, InputRef, Ite, Unary, Value, VarRef, eval_expr
from dfcompat.interp import Interpreter
from dfcompat.model import BoolType, IntType, flatten_and_validate
from dfcompat.solver import Domain
from dfcompat.unfold import StateRows, Ts

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"

_model_cache: dict[str, str] = {}


def model_path(name: str) -> Path:
    return MODELS_DIR / f"{name}.dfm"


def load_model(name: str) -> Model:
    if name not in _model_cache:
        _model_cache[name] = model_path(name).read_text()
    return parse_model(_model_cache[name])


def interp_for(name: str) -> Interpreter:
    return Interpreter(flatten_and_validate(load_model(name)))


# constructed pair whose first divergence needs a warm-up step: the armed
# switch flips the output from step two on
DRIFTER = (
    "model Drifter\nin u : bool\nout y : bool\n"
    "block One : Constant(true)\nblock Arm : UnitDelay(false)\n"
    "block Inv : Logic(NOT)\nblock Pick : Switch\n"
    "wire One -> Arm.in\nwire u -> Inv.in1\n"
    "wire Arm -> Pick.ctrl\nwire Inv -> Pick.in1\nwire u -> Pick.in3\n"
    "wire Pick -> y\n"
)

MIRROR = "model Mirror\nin u : bool\nout y : bool\nwire u -> y\n"

# an enabled subsystem (Inner, gated by b) and a plain one (Plain) inside an
# enabled subsystem (Outer, gated by a); each holds a toggle bit that flips
# on t while every enable around it is high
NESTED_ENABLED = """\
model Nested
in a : bool
in b : bool
in t : bool
out p : bool
out q : bool
block Outer : EnabledSubsystem {
  in g : bool
  in u : bool
  out ip : bool
  out iq : bool
  block Inner : EnabledSubsystem {
    in v : bool
    out m : bool = false
    block D : UnitDelay(false)
    block X : Logic(XOR)
    wire v -> X.in1
    wire D -> X.in2
    wire X -> D.in
    wire D -> m
  }
  block Plain : Subsystem {
    in w : bool
    out k : bool
    block E : UnitDelay(false)
    block Y : Logic(XOR)
    wire w -> Y.in1
    wire E -> Y.in2
    wire Y -> E.in
    wire E -> k
  }
  wire g -> Inner.enable
  wire u -> Inner.v
  wire u -> Plain.w
  wire Inner.m -> ip
  wire Plain.k -> iq
}
wire a -> Outer.enable
wire b -> Outer.g
wire t -> Outer.u
wire Outer.ip -> p
wire Outer.iq -> q
"""

# the same model with Inner gated by t instead of b
NESTED_REWIRED = NESTED_ENABLED.replace("wire g -> Inner.enable", "wire u -> Inner.enable")


def counter_text(name: str, top: int) -> str:
    """Counter of inc steps over 0..top shown on y, wrapping back to 0."""
    return (
        f"model {name}\nin inc : bool\nout y : int[0,12]\n"
        f"block Cnt : UnitDelay(0, int[0,{top}])\nblock Top : Constant({top})\n"
        "block AtTop : Relational(==)\nblock Zero : Constant(0)\n"
        "block One : Constant(1)\nblock Next : Sum(++)\n"
        "block Wrap : Switch\nblock Go : Switch\n"
        "wire Cnt -> AtTop.in1\nwire Top -> AtTop.in2\n"
        "wire Cnt -> Next.in1\nwire One -> Next.in2\n"
        "wire AtTop -> Wrap.ctrl\nwire Zero -> Wrap.in1\nwire Next -> Wrap.in3\n"
        "wire inc -> Go.ctrl\nwire Wrap -> Go.in1\nwire Cnt -> Go.in3\n"
        "wire Go -> Cnt.in\nwire Cnt -> y\n"
    )


def latch_text(name: str, hi: int, threshold: int) -> str:
    """y shows m, which latches u < threshold each step, over u : int[0, hi]."""
    return (
        f"model {name}\nin u : int[0,{hi}]\nout y : bool\nblock M : UnitDelay(false)\n"
        f"block T : Constant({threshold})\nblock Lt : Relational(<)\n"
        "wire u -> Lt.in1\nwire T -> Lt.in2\nwire Lt -> M.in\nwire M -> y\n"
    )


# the late counter wraps one count after the mod-12 one: the states agree
# for twelve increments, so refuting it takes a 13-step counterexample, the
# search's path through twelve good pairs to the first bad one
LATE_WRAP = counter_text("LateWrap", 12)
MOD12 = counter_text("Mod12", 11)


def fanout_text(n: int) -> str:
    """The fan-out model: stage i computes s_i+1 = s_i XOR (s_i AND b) from
    s_0 = a, so each stage reads the previous signal twice, and y = s_n XOR
    D, where the delay D holds y.  As a tree its output has 2**n leaves."""
    lines = ["model FanOut", "in a : bool", "in b : bool", "out y : bool",
             "block D : UnitDelay(false)", "block Y : Logic(XOR)"]
    s = "a"
    for i in range(n):
        lines += [f"block A{i} : Logic(AND)", f"block X{i} : Logic(XOR)",
                  f"wire {s} -> A{i}.in1", f"wire b -> A{i}.in2",
                  f"wire {s} -> X{i}.in1", f"wire A{i} -> X{i}.in2"]
        s = f"X{i}"
    lines += [f"wire {s} -> Y.in1", "wire D -> Y.in2", "wire Y -> D.in", "wire Y -> y"]
    return "\n".join(lines) + "\n"


def chain_text(n: int, restyled: bool) -> str:
    """A chain of n two-input gates from input a, s_i+1 = op_i(s_i, x_i),
    with ops cycling AND, OR, XOR and operands a, b and the delay D that
    holds y = s_n.  Restyled, each gate is its De Morgan form, three or four
    blocks that read s_i once; either way the output is n gates deep."""
    lines = ["model " + ("ChainCand" if restyled else "ChainRef"), "in a : bool",
             "in b : bool", "out y : bool", "block D : UnitDelay(false)"]
    count = 0

    def logic(op: str, *srcs: str) -> str:
        nonlocal count
        count += 1
        name = f"G{count}"
        lines.append(f"block {name} : Logic({op})")
        lines.extend(f"wire {src} -> {name}.in{k + 1}" for k, src in enumerate(srcs))
        return name

    s = "a"
    for i in range(n):
        op, x = ("AND", "OR", "XOR")[i % 3], ("b", "a", "D", "b")[i % 4]
        if not restyled:
            s = logic(op, s, x)
        elif op == "XOR":
            s = logic("NOT", logic("XOR", logic("NOT", s), x))
        else:
            dual = "OR" if op == "AND" else "AND"
            s = logic("NOT", logic(dual, logic("NOT", s), logic("NOT", x)))
    lines += [f"wire {s} -> y", f"wire {s} -> D.in"]
    return "\n".join(lines) + "\n"


# (candidate, reference) pairs exercised by several suites
FIXTURE_PAIRS = [
    ("flipflop", "flipflop"),
    ("flipflop_logic", "flipflop"),
    ("flipflop_reset", "flipflop"),
    ("bands_v1", "bands_v0"),
    ("bands_v2", "bands_v0"),
    ("bands_v2", "bands_v1"),
    ("cruise_v4", "cruise_v3"),
    ("limiter_sign", "limiter_plain"),
    ("charge_pump", "charge_pump"),
    ("tri_latch", "tri_latch"),
    ("pulse_keeper", "pulse_keeper"),
]

EXPECTED_VERDICTS = {
    ("flipflop", "flipflop"): "full",
    ("flipflop_logic", "flipflop"): "full",
    ("flipflop_reset", "flipflop"): "incompatible",
    ("bands_v1", "bands_v0"): "backward-only",
    ("bands_v2", "bands_v0"): "backward-only",
    ("bands_v2", "bands_v1"): "backward-only",
    ("cruise_v4", "cruise_v3"): "backward-only",
    ("limiter_sign", "limiter_plain"): "backward-only",
    ("charge_pump", "charge_pump"): "full",
    ("tri_latch", "tri_latch"): "full",
    ("pulse_keeper", "pulse_keeper"): "full",
}


# ---------------------------------------------------------------------------
# enumeration and oracles


def all_rows(dom: Domain) -> list[dict[str, Value]]:
    """Every total input row of the domain, in lexicographic order."""
    names = dom.sorted_names()
    return [
        dict(zip(names, combo))
        for combo in itertools.product(*(dom.values(n) for n in names))
    ]


def state_rows(names, values, edges, targets) -> StateRows:
    """One state's rows written by hand: row i takes transition
    ``edges[i]``, which leads to state ``targets[edges[i]]``."""
    bits = [sum(1 << i for i, e in enumerate(edges) if e == j) for j in range(len(targets))]
    return StateRows(names, values, edges, targets, bits)


def ts_step(ts: Ts, state: int, row: dict[str, Value]) -> int | None:
    """Deterministic successor under a row, or None when no guard matches."""
    matches = [t for g, t in ts.transitions[state] if eval_expr(g, row)]
    assert len(matches) <= 1, f"nondeterministic step from {ts.label(state)}"
    return matches[0] if matches else None


def ts_outputs(ts: Ts, state: int, row: dict[str, Value]) -> dict[str, Value]:
    return {p: eval_expr(e, row) for p, e in ts.outputs[state].items()}


def trace_containment(cand: Ts, ref: Ts, dom: Domain, depth: int = 6) -> bool:
    """Brute-force oracle: outputs agree on every input sequence up to depth.

    Explores state pairs reachable under common input prefixes; a pair with
    an output difference on some row, or a row the candidate cannot step on,
    refutes containment.  For deterministic systems this decides the same
    relation the simulation preorder does.  Each state's outputs on the
    reference's ports and its successor are evaluated once per row, with
    ``eval_expr``, and shared by every pair and depth.
    """
    rows = all_rows(dom)
    # per (system, state, ports): the outputs on ports and the successor
    # (None for none) of each row evaluated so far, in row order
    known: dict[tuple, list] = {}

    def at(ts: Ts, state: int, ports: tuple[str, ...], i: int) -> tuple:
        done = known.setdefault((id(ts), state, ports), [])
        while len(done) <= i:
            row = rows[len(done)]
            done.append(([eval_expr(ts.outputs[state][p], row) for p in ports],
                         ts_step(ts, state, row)))
        return done[i]

    level = {(cand.init, ref.init)}
    seen = set(level)
    for _ in range(depth):
        nxt: set[tuple[int, int]] = set()
        for a, b in level:
            ports = tuple(ref.outputs[b])
            for i in range(len(rows)):
                (want, b2), (got, a2) = at(ref, b, ports, i), at(cand, a, ports, i)
                if want != got or a2 is None or b2 is None:
                    return False
                if (a2, b2) not in seen:
                    seen.add((a2, b2))
                    nxt.add((a2, b2))
        level = nxt
    return True


def run_cli(*argv: str) -> tuple[int, str, str]:
    """Run the CLI in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# hypothesis strategies for well-typed expressions

EXPR_DOM = Domain.of(
    p=BoolType(), q=BoolType(), u=IntType(0, 3), w=IntType(-2, 2)
)

_BOOL_LEAVES = [Const(True), Const(False), InputRef("p"), VarRef("q")]
_INT_LEAVES = [Const(0), Const(1), Const(-2), InputRef("u"), VarRef("w")]


def bool_exprs(depth: int = 3) -> st.SearchStrategy:
    if depth == 0:
        return st.sampled_from(_BOOL_LEAVES)
    sub = bool_exprs(depth - 1)
    num = int_exprs(depth - 1)
    return st.one_of(
        st.sampled_from(_BOOL_LEAVES),
        st.builds(Unary, st.just("not"), sub),
        st.builds(Binary, st.sampled_from(["and", "or", "xor"]), sub, sub),
        st.builds(
            Binary, st.sampled_from(["lt", "le", "eq", "ne", "gt", "ge"]), num, num
        ),
        st.builds(Ite, sub, sub, sub),
    )


def int_exprs(depth: int = 3) -> st.SearchStrategy:
    if depth == 0:
        return st.sampled_from(_INT_LEAVES)
    sub = int_exprs(depth - 1)
    return st.one_of(
        st.sampled_from(_INT_LEAVES),
        st.builds(Unary, st.just("neg"), sub),
        st.builds(
            Binary, st.sampled_from(["add", "sub", "mul", "min", "max"]), sub, sub
        ),
        st.builds(Ite, bool_exprs(depth - 1), sub, sub),
    )


def any_exprs(depth: int = 3) -> st.SearchStrategy:
    return st.one_of(bool_exprs(depth), int_exprs(depth))


def envs() -> st.SearchStrategy:
    return st.fixed_dictionaries(
        {
            "p": st.booleans(),
            "q": st.booleans(),
            "u": st.integers(0, 3),
            "w": st.integers(-2, 2),
        }
    )


# ---------------------------------------------------------------------------
# random deterministic model pairs (shared interface, varied internals)


class GenSpec:
    """Block-diagram skeleton the generator renders to model text."""

    def __init__(self, inputs, out_kind):
        # [(name, "bool" | ("int", hi) | ("wide", hi) | ("summed", hi) |
        # ("split", hi))]: a "wide" input is only compared with a constant,
        # a "summed" one is an addend of a Sum, a "split" one is compared
        # with a constant and read by value on one side of it
        self.inputs = inputs
        self.out_kind = out_kind      # "bool" | ("int", hi)
        self.blocks: list[dict] = []  # {name, kind, params: list, wires: dict}
        self.out_src = ""


def _fmt_kind(kind) -> str:
    if kind == "bool":
        return "bool"
    return f"int[0,{kind[1]}]"


def _fmt_params(blk: dict) -> str:
    k, p = blk["kind"], blk["params"]
    if not p:
        return ""
    if k == "Constant":
        v = p[0]
        return ("true" if v else "false") if isinstance(v, bool) else str(v)
    if k == "UnitDelay":
        if isinstance(p[0], bool):
            return "true" if p[0] else "false"
        return f"{p[0]}, int[0,{p[1]}]"
    if k == "Saturation":
        return f"{p[0]}, {p[1]}"
    return str(p[0])


def render_spec(spec: GenSpec, name: str, outs=None) -> str:
    """The model text of spec; outs, (name, kind, source) per output, is by
    default the one output y of spec."""
    outs = outs or [("y", spec.out_kind, spec.out_src)]
    lines = [f"model {name}"]
    for n, kind in spec.inputs:
        lines.append(f"in {n} : {_fmt_kind(kind)}")
    for n, kind, _ in outs:
        lines.append(f"out {n} : {_fmt_kind(kind)}")
    for blk in spec.blocks:
        params = _fmt_params(blk)
        suffix = f"({params})" if params else ""
        lines.append(f"block {blk['name']} : {blk['kind']}{suffix}")
    for blk in spec.blocks:
        for port in sorted(blk["wires"]):
            lines.append(f"wire {blk['wires'][port]} -> {blk['name']}.{port}")
    for n, _, src in outs:
        lines.append(f"wire {src} -> {n}")
    return "\n".join(lines) + "\n"


def _gen_spec(rng: random.Random, inputs=None, out_kind=None) -> GenSpec:
    if inputs is None:
        inputs = []
        for i in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                inputs.append((f"i{i}", "bool"))
            else:
                inputs.append((f"i{i}", ("int", rng.randint(1, 4))))
        if rng.random() < 0.3:
            inputs.append(("w", ("wide", rng.randint(100, 300))))
        if rng.random() < 0.2:
            inputs.append(("s", ("summed", rng.randint(8, 30))))
        # not next to a wide input: the brute-force oracle walks every
        # combination of their values
        if rng.random() < 0.3 and all(n != "w" for n, _ in inputs):
            inputs.append(("x", ("split", rng.randint(8, 20))))
    split_hi = next((k[1] for _, k in inputs if k != "bool" and k[0] == "split"), None)
    if out_kind is None:
        if split_hi is not None:
            # the output shows the split input's scaled value
            out_kind = ("int", 5 * split_hi + 10)
        else:
            out_kind = "bool" if rng.random() < 0.5 else ("int", rng.randint(1, 3))
    spec = GenSpec(list(inputs), out_kind)
    bools = [n for n, k in inputs if k == "bool"]
    ints = [n for n, k in inputs if k != "bool" and k[0] == "int"]

    def add(name, kind, params, wires, pool):
        spec.blocks.append(
            {"name": name, "kind": kind, "params": params, "wires": wires}
        )
        if pool is not None:
            pool.append(name)

    add("K0", "Constant", [rng.randint(0, 3)], {}, ints)
    if rng.random() < 0.6:
        add("K1", "Constant", [rng.randint(0, 3)], {}, ints)

    split_out = None
    for n, k in inputs:
        if k == "bool" or k[0] == "int":
            continue
        if k[0] == "split":
            # a Switch control compares it with a constant; on one side it
            # flows by value through a Gain or a Sum, into the output and
            # into a delay
            add(f"k_{n}", "Constant", [rng.randint(1, k[1] // 2)], {}, None)
            wires = {"in1": n, "in2": f"k_{n}"}
            if rng.random() < 0.5:
                wires = {"in1": f"k_{n}", "in2": n}
            add(f"cmp_{n}", "Relational", [rng.choice(["<", "<="])], wires, bools)
            if rng.random() < 0.5:
                add(f"f_{n}", "Gain", [rng.choice([2, 3])], {"in": n}, None)
            else:
                add(f"f_{n}", "Sum", ["++"], {"in1": n, "in2": "K0"}, None)
            add(f"sel_{n}", "Switch", [],
                {"ctrl": f"cmp_{n}", "in1": f"f_{n}", "in3": "K0"}, None)
            hi = rng.randint(2, 5)
            add(f"sat_{n}", "Saturation", [0, hi], {"in": f"sel_{n}"}, None)
            add(f"d_{n}", "UnitDelay", [0, hi], {"in": f"sat_{n}"}, ints)
            split_out = f"sel_{n}"
        elif k[0] == "summed":
            add(f"sum_{n}", "Sum", [rng.choice(["++", "+-"])],
                {"in1": n, "in2": rng.choice(ints)}, ints)
        elif rng.random() < 0.7:
            add(f"k_{n}", "Constant", [rng.randint(0, k[1])], {}, None)
            op = rng.choice(["<", "<=", "==", "!="])
            wires = {"in1": n, "in2": f"k_{n}"}
            if rng.random() < 0.5:
                wires = {"in1": f"k_{n}", "in2": n}
            add(f"cmp_{n}", "Relational", [op], wires, bools)
        else:  # an integer control tests != 0
            add(f"sw_{n}", "Switch", [],
                {"ctrl": n, "in1": rng.choice(ints), "in3": rng.choice(ints)}, ints)

    delays = []
    for i in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            add(f"d{i}", "UnitDelay", [rng.random() < 0.3], {}, bools)
            delays.append((f"d{i}", "bool", None))
        else:
            hi = rng.randint(1, 3)
            add(f"d{i}", "UnitDelay", [0, hi], {}, ints)
            delays.append((f"d{i}", "int", hi))

    for i in range(rng.randint(2, 6)):
        name = f"b{i}"
        options = ["gain", "sat"]
        if bools:
            options += ["not"]
        if len(bools) >= 2:
            options += ["logic", "logic"]
        if len(ints) >= 2:
            options += ["rel", "sum", "minmax"]
        if bools and len(ints) >= 2:
            options += ["switch_int"]
        if len(bools) >= 3:
            options += ["switch_bool"]
        kind = rng.choice(options)
        if kind == "not":
            add(name, "Logic", ["NOT"], {"in1": rng.choice(bools)}, bools)
        elif kind == "logic":
            op = rng.choice(["AND", "OR", "XOR"])
            add(name, "Logic", [op],
                {"in1": rng.choice(bools), "in2": rng.choice(bools)}, bools)
        elif kind == "rel":
            op = rng.choice(["<", "<=", "==", "!="])
            add(name, "Relational", [op],
                {"in1": rng.choice(ints), "in2": rng.choice(ints)}, bools)
        elif kind == "sum":
            add(name, "Sum", [rng.choice(["++", "+-"])],
                {"in1": rng.choice(ints), "in2": rng.choice(ints)}, ints)
        elif kind == "minmax":
            add(name, "MinMax", [rng.choice(["min", "max"])],
                {"in1": rng.choice(ints), "in2": rng.choice(ints)}, ints)
        elif kind == "gain":
            add(name, "Gain", [rng.choice([-2, -1, 2, 3])],
                {"in": rng.choice(ints)}, ints)
        elif kind == "sat":
            add(name, "Saturation", [0, rng.randint(1, 4)],
                {"in": rng.choice(ints)}, ints)
        elif kind == "switch_int":
            add(name, "Switch", [],
                {"ctrl": rng.choice(bools), "in1": rng.choice(ints),
                 "in3": rng.choice(ints)}, ints)
        else:
            add(name, "Switch", [],
                {"ctrl": rng.choice(bools), "in1": rng.choice(bools),
                 "in3": rng.choice(bools)}, bools)

    for dname, dkind, hi in delays:
        blk = next(b for b in spec.blocks if b["name"] == dname)
        if dkind == "bool":
            blk["wires"]["in"] = rng.choice(bools)
        else:
            sat = f"s_{dname}"
            add(sat, "Saturation", [0, hi], {"in": rng.choice(ints)}, None)
            blk["wires"]["in"] = sat

    if spec.out_kind == "bool":
        if not bools:
            add("Cmp", "Relational", ["<"],
                {"in1": rng.choice(ints), "in2": rng.choice(ints)}, bools)
        spec.out_src = rng.choice(bools)
    elif split_out is not None:
        spec.out_src = split_out
        if rng.random() < 0.5:
            add("OutClamp", "Saturation", [0, 3], {"in": rng.choice(ints)}, None)
            add("OutSum", "Sum", ["++"], {"in1": split_out, "in2": "OutClamp"}, None)
            spec.out_src = "OutSum"
    else:
        hi = spec.out_kind[1]
        add("OutClamp", "Saturation", [0, hi], {"in": rng.choice(ints)}, None)
        spec.out_src = "OutClamp"

    # fan-out, as in the fan-out model: stages s' = s XOR (s op x), each
    # reading its input signal twice, XORed into a boolean output, on
    # narrow inputs only, which the brute-force oracle walks quickly.  Its
    # draws come from the spec built so far, not from rng, so rng is drawn
    # as often as without this shape.
    fan = random.Random(repr(spec.blocks))
    narrow = all(k == "bool" or k[0] == "int" for _, k in inputs)
    if spec.out_kind == "bool" and narrow and fan.random() < 0.6:
        s, x = fan.choice(bools), fan.choice(bools)
        for i in range(fan.randint(3, 5)):
            add(f"fa{i}", "Logic", [fan.choice(["AND", "OR"])], {"in1": s, "in2": x}, None)
            add(f"fx{i}", "Logic", ["XOR"], {"in1": s, "in2": f"fa{i}"}, None)
            s = f"fx{i}"
        add("FanY", "Logic", ["XOR"], {"in1": spec.out_src, "in2": s}, None)
        spec.out_src = "FanY"
    return spec


def _mutate(spec: GenSpec, rng: random.Random) -> None:
    """Tweak one block parameter or wiring in place."""
    swaps = {
        "<": "<=", "<=": "<", "==": "!=", "!=": "==",
        "AND": "OR", "OR": "AND", "XOR": "OR",
        "min": "max", "max": "min", "++": "+-", "+-": "++",
    }
    candidates = [
        b for b in spec.blocks
        if b["kind"] in ("Logic", "Relational", "Sum", "MinMax",
                         "Constant", "Gain", "Switch", "UnitDelay")
        and not (b["kind"] == "Logic" and b["params"][0] == "NOT")
    ]
    blk = rng.choice(candidates)
    k = blk["kind"]
    if k in ("Logic", "Relational", "Sum", "MinMax"):
        blk["params"][0] = swaps[blk["params"][0]]
    elif k == "Constant":
        blk["params"][0] = blk["params"][0] + 1
    elif k == "Gain":
        blk["params"][0] = blk["params"][0] + 1 or 2
    elif k == "Switch":
        blk["wires"]["in1"], blk["wires"]["in3"] = (
            blk["wires"]["in3"], blk["wires"]["in1"]
        )
    else:  # UnitDelay
        if isinstance(blk["params"][0], bool):
            blk["params"][0] = not blk["params"][0]
        else:
            blk["params"][0] = 1 if blk["params"][0] == 0 else 0


def _reference_spec(spec_a: GenSpec, rng: random.Random) -> GenSpec:
    """A reference for spec_a on its interface: the same spec, a tweaked
    copy, or a new one."""
    roll = rng.random()
    if roll < 0.25:
        return spec_a
    if roll < 0.6:
        spec_b = copy.deepcopy(spec_a)
        _mutate(spec_b, rng)
        return spec_b
    return _gen_spec(rng, inputs=spec_a.inputs, out_kind=spec_a.out_kind)


def random_model_pair(seed: int) -> tuple[Model, Model]:
    """Two models sharing an interface: identical, tweaked, or regenerated."""
    rng = random.Random(seed)
    spec_a = _gen_spec(rng)
    spec_b = _reference_spec(spec_a, rng)
    if any(k[0] == "wide" for _, k in spec_a.inputs if k != "bool") and rng.random() < 0.5:
        # the candidate accepts a wider range, as a new release may
        spec_a = copy.copy(spec_a)
        spec_a.inputs = [
            (n, ("wide", k[1] + rng.randint(1, 60)) if k != "bool" and k[0] == "wide" else k)
            for n, k in spec_a.inputs
        ]
    return (
        parse_model(render_spec(spec_a, "GenA")),
        parse_model(render_spec(spec_b, "GenB")),
    )


def narrow_widened_pair(seed: int) -> tuple[Model, Model]:
    """Two models sharing an interface, drawn as ``random_model_pair`` draws
    them, where the candidate widens a narrow integer input, i0 of at most
    five values, by one to three values.  The other one or two inputs are
    booleans or integers of at most five values, so every direction's
    domain has at most 8 * 5 * 5 = 200 rows."""
    rng = random.Random(seed)
    inputs = [("i0", ("int", rng.randint(1, 4)))]
    for i in range(1, rng.randint(1, 2) + 1):
        inputs.append((f"i{i}", "bool" if rng.random() < 0.5 else ("int", rng.randint(1, 4))))
    spec_a = _gen_spec(rng, inputs=inputs)
    spec_b = _reference_spec(spec_a, rng)
    spec_a = copy.copy(spec_a)
    spec_a.inputs = [("i0", ("int", inputs[0][1][1] + rng.randint(1, 3))), *inputs[1:]]
    return (
        parse_model(render_spec(spec_a, "GenA")),
        parse_model(render_spec(spec_b, "GenB")),
    )


def _prefixed(spec: GenSpec, prefix: str) -> GenSpec:
    """spec with every block, and every wire from a block, renamed by
    prefix."""
    names = {b["name"] for b in spec.blocks}

    def src(w: str) -> str:
        return prefix + w if w in names else w

    out = GenSpec(spec.inputs, spec.out_kind)
    out.blocks = [
        {"name": prefix + b["name"], "kind": b["kind"], "params": list(b["params"]),
         "wires": {p: src(w) for p, w in b["wires"].items()}}
        for b in spec.blocks
    ]
    out.out_src = src(spec.out_src)
    return out


def multi_output_pair(seed: int) -> tuple[Model, Model, dict[str, str]]:
    """A candidate, a reference and the overrides mapping them, with two or
    three mapped outputs.  Output k of each model is a circuit of its own
    over the shared inputs, drawn as ``random_model_pair`` draws its one
    output: the reference's is the candidate's, a tweaked copy or a new
    one.  Both models delay output k by the same zero to two steps, so
    ports differ after different numbers of steps.  The reference names
    its first output r0, mapped onto the candidate's y0 by the override;
    the candidate also has an output dbg of its own.  In about half the pairs the candidate has an extra input
    e choosing y0 between the reference's circuit and a tweaked copy, so
    that e = true may fix the pair.  The shared inputs are one or
    two booleans or integers of at most five values, so every direction's
    domain has at most 50 rows.  Drawn apart from ``random_model_pair``,
    whose draws stay as they are."""
    rng = random.Random(f"multi-{seed}")
    inputs = [
        (f"i{i}", "bool" if rng.random() < 0.5 else ("int", rng.randint(1, 4)))
        for i in range(rng.randint(1, 2))
    ]
    extra = rng.random() < 0.5
    outs_a, outs_b, blocks_a, blocks_b = [], [], [], []

    def delayed(blocks, src, kind, lag, k):
        for j in range(lag):
            params = [False] if kind == "bool" else [0, kind[1]]
            blocks.append({"name": f"o{k}_lag{j}", "kind": "UnitDelay", "params": params,
                           "wires": {"in": src}})
            src = f"o{k}_lag{j}"
        return src

    for k in range(rng.randint(2, 3)):
        spec_a = _gen_spec(rng, inputs=inputs)
        spec_b = spec_a if k == 0 and extra else _reference_spec(spec_a, rng)
        circ_a, circ_b = _prefixed(spec_a, f"o{k}_"), _prefixed(spec_b, f"o{k}_")
        blocks_a += circ_a.blocks
        blocks_b += circ_b.blocks
        src = circ_a.out_src
        if k == 0 and extra:
            alt = copy.deepcopy(spec_a)
            _mutate(alt, rng)
            alt = _prefixed(alt, "e_")
            blocks_a += alt.blocks
            blocks_a.append({"name": "Pick", "kind": "Switch", "params": [],
                             "wires": {"ctrl": "e", "in1": src, "in3": alt.out_src}})
            src = "Pick"
        if k == 0:
            outs_a.append(("dbg", spec_a.out_kind, src))
        lag, kind = rng.randint(0, 2), spec_a.out_kind
        outs_a.append((f"y{k}", kind, delayed(blocks_a, src, kind, lag, k)))
        outs_b.append(("r0" if k == 0 else f"y{k}", kind,
                       delayed(blocks_b, circ_b.out_src, kind, lag, k)))
    body_a = GenSpec(inputs + [("e", "bool")] if extra else inputs, None)
    body_b = GenSpec(inputs, None)
    body_a.blocks, body_b.blocks = blocks_a, blocks_b
    return (
        parse_model(render_spec(body_a, "MultiA", outs_a)),
        parse_model(render_spec(body_b, "MultiB", outs_b)),
        {"r0": "y0"},
    )
