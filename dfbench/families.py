"""Seeded, scale-parameterised model families with outcomes known by construction.

Every generator returns a :class:`Member`: the candidate text (A, the new
version), the reference text (B, the old version) and the :class:`Expected`
outcome of ``check A B``.  The seed renames internal blocks, reorders
declarations and picks gate operations and mutation sites, so two seeds give
different texts of the same size and about the same cost; the scale
arguments set the size.  Port names are fixed because they are the
interface.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# The checker's default evaluation budget per enumeration (solver and
# unfolding).  The smallest input spaces past it: 24 boolean inputs
# (16.8M rows) or one integer input of OVER_BUDGET + 1 values.
OVER_BUDGET = 10_000_000
OVER_BUDGET_BOOLS = 24
# The checker's default cap on constant-fix candidates it verifies.
FIX_ITERATIONS = 16


@dataclass(frozen=True)
class Expected:
    """Outcome of ``check A B`` at the default configuration.

    ``verdict`` is the decision by construction.  ``raises`` names the
    documented inconclusive error the checker gives at its default budgets
    instead; a checker that decides such a member anyway must still reach
    ``verdict``.  ``fixed`` is the constant binding of a conditional
    backward verdict, and ``cex_steps`` maps a refuted direction to the
    length of its least counterexample when the construction pins it.
    """

    verdict: str
    fixed: dict | None = None
    raises: str | None = None
    cex_steps: dict = field(default_factory=dict)

    @property
    def exit_code(self) -> int:
        """What ``dfcompat check`` exits with for this outcome."""
        return 4 if self.raises else self.verdict_exit_code

    @property
    def verdict_exit_code(self) -> int:
        """What ``dfcompat check`` exits with when it reaches the verdict."""
        if self.verdict == "full" and not self.fixed:
            return 0
        if self.verdict == "incompatible":
            return 2
        return 1


@dataclass(frozen=True)
class Member:
    name: str
    text_a: str
    text_b: str
    expected: Expected


class _Diagram:
    """Collects ports, blocks and wires of one diagram level and prints them
    in a seed-shuffled order with seed-chosen internal block names."""

    def __init__(self, rng: random.Random, names: set[str]):
        self.rng = rng
        self.names = names  # shared across one model, so names stay unique
        self.ports: list[str] = []
        self.blocks: list[tuple[str, str, _Diagram | None]] = []
        self.wires: list[tuple[str, str]] = []

    def port(self, line: str) -> None:
        self.ports.append(line)
        self.names.add(line.split()[1])

    def block(self, kind: str, child: "_Diagram | None" = None) -> str:
        while True:
            name = "b" + "".join(self.rng.choices("abcdefghjkmnpqrstuvwxyz", k=6))
            if name not in self.names:
                break
        self.names.add(name)
        self.blocks.append((name, kind, child))
        return name

    def sub(self) -> "_Diagram":
        return _Diagram(self.rng, self.names)

    def wire(self, src: str, dst: str) -> None:
        self.wires.append((src, dst))

    def lines(self, indent: str = "") -> list[str]:
        blocks = list(self.blocks)
        wires = list(self.wires)
        self.rng.shuffle(blocks)
        self.rng.shuffle(wires)
        out = [indent + p for p in self.ports]
        for name, kind, child in blocks:
            if child is None:
                out.append(f"{indent}block {name} : {kind}")
            else:
                out.append(f"{indent}block {name} : {kind} {{")
                out += child.lines(indent + "  ")
                out.append(indent + "}")
        out += [f"{indent}wire {s} -> {d}" for s, d in wires]
        return out


class _Model(_Diagram):
    def __init__(self, name: str, rng: random.Random):
        super().__init__(rng, set())
        self.model_name = name

    def text(self) -> str:
        return "\n".join([f"model {self.model_name}"] + self.lines()) + "\n"


# small combinators over a diagram; each returns the name of the block whose
# single output carries the result

def _logic(d: _Diagram, op: str, *srcs: str) -> str:
    b = d.block(f"Logic({op})")
    for i, s in enumerate(srcs):
        d.wire(s, f"{b}.in{i + 1}")
    return b


def _const(d: _Diagram, value) -> str:
    lit = value if not isinstance(value, bool) else ("true" if value else "false")
    return d.block(f"Constant({lit})")


def _rel(d: _Diagram, op: str, x: str, y: str) -> str:
    b = d.block(f"Relational({op})")
    d.wire(x, f"{b}.in1")
    d.wire(y, f"{b}.in2")
    return b


def _switch(d: _Diagram, ctrl: str, then: str, other: str) -> str:
    b = d.block("Switch")
    d.wire(ctrl, f"{b}.ctrl")
    d.wire(then, f"{b}.in1")
    d.wire(other, f"{b}.in3")
    return b


def _sum(d: _Diagram, signs: str, *srcs: str) -> str:
    b = d.block(f"Sum({signs})")
    for i, s in enumerate(srcs):
        d.wire(s, f"{b}.in{i + 1}")
    return b


def _gain(d: _Diagram, k: int, x: str) -> str:
    b = d.block(f"Gain({k})")
    d.wire(x, b)
    return b


def _and_all(d: _Diagram, srcs: list[str], restyled: bool) -> str:
    """Conjunction of srcs; the restyled form goes through De Morgan."""
    if len(srcs) == 1:
        return srcs[0]
    if not restyled:
        acc = srcs[0]
        for s in srcs[1:]:
            acc = _logic(d, "AND", acc, s)
        return acc
    acc = _logic(d, "NOT", srcs[0])
    for s in srcs[1:]:
        acc = _logic(d, "OR", acc, _logic(d, "NOT", s))
    return _logic(d, "NOT", acc)


def _bool_inputs(m: _Model, names: list[str]) -> None:
    for n in names:
        m.port(f"in {n} : bool")


# ---------------------------------------------------------------------------
# wide_inputs families: few states, wide integer inputs


# The bundled corpus as released with the checker: small hand-written pairs
# that cover every verdict kind, read from the checkout's models/ directory.
BUNDLED_PAIRS = [
    ("flipflop", "flipflop", Expected("full")),
    ("flipflop_logic", "flipflop", Expected("full")),
    ("flipflop_reset", "flipflop", Expected("incompatible", cex_steps={"backward": 1, "upward": 1})),
    ("bands_v1", "bands_v0", Expected("backward-only", cex_steps={"upward": 1})),
    ("bands_v2", "bands_v0", Expected("backward-only", cex_steps={"upward": 1})),
    ("bands_v2", "bands_v1", Expected("backward-only", cex_steps={"upward": 1})),
    ("cruise_v4", "cruise_v3", Expected("backward-only", fixed={"F": False})),
    ("limiter_sign", "limiter_plain", Expected("backward-only", fixed={"Sign_b": False})),
    ("charge_pump", "charge_pump", Expected("full")),
    ("tri_latch", "tri_latch", Expected("full")),
    ("pulse_keeper", "pulse_keeper", Expected("full")),
]


def bundled(models_dir: Path, cand: str, ref: str, expected: Expected) -> Member:
    return Member(
        f"corpus_{cand}_vs_{ref}",
        (models_dir / f"{cand}.dfm").read_text(),
        (models_dir / f"{ref}.dfm").read_text(),
        expected,
    )


def _charge_pump_text(width: int, rng: random.Random, restyled: bool) -> str:
    """models/charge_pump.dfm with u : int[0, width-1]."""
    m = _Model("ChargePump", rng)
    hi = width - 1
    m.port(f"in u : int[0,{hi}]")
    m.port(f"out y : int[0,{max(3 * hi, 25)}]")
    level = m.block("UnitDelay(2, int[2,100])")
    five = _const(m, 5)
    if restyled:
        low_in = _rel(m, ">", level, "u")
        small = _rel(m, ">=", five, level)
        act = _and_all(m, [low_in, small], restyled=True)
        five_u = _sum(m, "++", _gain(m, 4, "u"), "u")
        three_u = _sum(m, "++", _gain(m, 2, "u"), "u")
    else:
        low_in = _rel(m, "<", "u", level)
        small = _rel(m, "<=", level, five)
        act = _logic(m, "AND", low_in, small)
        five_u = _gain(m, 5, "u")
        three_u = _gain(m, 3, "u")
    rise = _sum(m, "++", five_u, level)
    y = _switch(m, act, rise, three_u)
    m.wire(y, "y")
    step = _sum(m, "++", _gain(m, 2, level), "u")
    nxt = _switch(m, act, step, level)
    m.wire(nxt, f"{level}.in")
    return m.text()


def charge_pump(width: int, seed: int) -> Member:
    """Charge pump against its restyled self (arithmetic and comparisons
    rewritten), with the command input u widened to ``width`` values."""
    rng = random.Random(f"charge_pump/{width}/{seed}")
    over = width > OVER_BUDGET
    return Member(
        f"charge_pump_w{width}",
        _charge_pump_text(width, rng, restyled=True),
        _charge_pump_text(width, rng, restyled=False),
        Expected("full", raises="DomainTooLarge" if over else None),
    )


def _bands_text(width: int, cand: bool, rng: random.Random) -> str:
    """Three-band classifier behind one delay, thresholds at 2/5 and 4/5 of
    ``width``.  The candidate classifies into five internal modes, coarsens
    them back to three bands, and accepts a quarter more input range."""
    m = _Model("BandsCand" if cand else "BandsRef", rng)
    top = width + width // 4 if cand else width
    m.port(f"in u : int[0,{top - 1}]")
    m.port("out band : int[0,2]")
    if not cand:
        mode = m.block("UnitDelay(0, int[0,2])")
        lt1 = _rel(m, "<", "u", _const(m, 2 * width // 5))
        lt2 = _rel(m, "<", "u", _const(m, 4 * width // 5))
        nxt = _switch(m, lt1, _const(m, 0), _switch(m, lt2, _const(m, 1), _const(m, 2)))
        m.wire(nxt, f"{mode}.in")
        m.wire(mode, "band")
        return m.text()
    mode = m.block("UnitDelay(0, int[0,4])")
    nxt = _const(m, 4)
    for q in (4, 3, 2, 1):
        lt = _rel(m, "<", "u", _const(m, q * width // 5))
        nxt = _switch(m, lt, _const(m, q - 1), nxt)
    m.wire(nxt, f"{mode}.in")
    lt2 = _rel(m, "<", mode, _const(m, 2))
    lt4 = _rel(m, "<", mode, _const(m, 4))
    band = _switch(m, lt2, _const(m, 0), _switch(m, lt4, _const(m, 1), _const(m, 2)))
    m.wire(band, "band")
    return m.text()


def bands(width: int, seed: int) -> Member:
    """Wider, finer-grained band classifier against the original: it serves
    existing callers, but the old one rejects the new upper range at once."""
    rng = random.Random(f"bands/{width}/{seed}")
    over = width + width // 4 > OVER_BUDGET  # the candidate's range
    return Member(
        f"bands_w{width}",
        _bands_text(width, True, rng),
        _bands_text(width, False, rng),
        Expected(
            "backward-only",
            raises="DomainTooLarge" if over else None,
            cex_steps={"upward": 1},
        ),
    )


# ---------------------------------------------------------------------------
# deep_state and refute_fix families: many states, boolean inputs


def _counter_text(
    k: int, rng: random.Random, *, down: bool, wrap: int, enables: int, gates: int
) -> str:
    """Counter of inc steps shown on y : int[0,k].

    The up form counts 0..wrap-1 and shows the count; the down form counts
    wrap-1..0 and shows wrap-1 minus it.  The counter steps when inc and all
    ``enables`` shared inputs e* are high; ``gates`` adds candidate-only
    inputs g* that must all be high as well.
    """
    m = _Model("CounterDown" if down else "CounterUp", rng)
    ens = ["inc"] + [f"e{i:02d}" for i in range(enables)]
    gs = [f"g{i}" for i in range(gates)]
    _bool_inputs(m, ens + gs)
    m.port(f"out y : int[0,{k}]")
    top = wrap - 1
    go = _and_all(m, ens + gs, restyled=down)
    if down:
        cnt = m.block(f"UnitDelay({top}, int[0,{top}])")
        at_end = _rel(m, "==", cnt, _const(m, 0))
        stepped = _switch(m, at_end, _const(m, top), _sum(m, "+-", cnt, _const(m, 1)))
        m.wire(_sum(m, "+-", _const(m, top), cnt), "y")
    else:
        cnt = m.block(f"UnitDelay(0, int[0,{top}])")
        at_end = _rel(m, "==", cnt, _const(m, top))
        stepped = _switch(m, at_end, _const(m, 0), _sum(m, "++", cnt, _const(m, 1)))
        m.wire(cnt, "y")
    m.wire(_switch(m, go, stepped, cnt), f"{cnt}.in")
    return m.text()


def counter(k: int, seed: int, enables: int = 0) -> Member:
    """Mod-k up counter against a restyled down counter: k reachable states."""
    rng = random.Random(f"counter/{k}/{enables}/{seed}")
    over = enables + 1 >= OVER_BUDGET_BOOLS
    common = dict(wrap=k, enables=enables, gates=0)
    return Member(
        f"counter_k{k}" + (f"_e{enables}" if enables else ""),
        _counter_text(k, rng, down=True, **common),
        _counter_text(k, rng, down=False, **common),
        Expected("full", raises="DomainTooLarge" if over else None),
    )


def counter_off_by_one(k: int, seed: int, enables: int = 0) -> Member:
    """The candidate wraps one count late: both directions fail after k
    increments, so each least counterexample is k+1 steps long."""
    rng = random.Random(f"counter_obo/{k}/{enables}/{seed}")
    over = enables + 1 >= OVER_BUDGET_BOOLS
    return Member(
        f"counter_obo_k{k}" + (f"_e{enables}" if enables else ""),
        _counter_text(k, rng, down=True, wrap=k + 1, enables=enables, gates=0),
        _counter_text(k, rng, down=False, wrap=k, enables=enables, gates=0),
        Expected(
            "incompatible",
            raises="DomainTooLarge" if over else None,
            cex_steps={"backward": k + 1, "upward": k + 1},
        ),
    )


def gated_counter(k: int, gates: int, seed: int) -> Member:
    """The candidate adds ``gates`` boolean ports that must all be high for
    it to count.  Every binding agrees at the initial state, so fix search
    verifies candidates in lexicographic order and the only fix, all true,
    is the last of 2^gates; past FIX_ITERATIONS the search gives up."""
    rng = random.Random(f"gated/{k}/{gates}/{seed}")
    over = 2 ** gates > FIX_ITERATIONS
    return Member(
        f"gated_k{k}_g{gates}",
        _counter_text(k, rng, down=True, wrap=k, enables=0, gates=gates),
        _counter_text(k, rng, down=False, wrap=k, enables=0, gates=0),
        Expected(
            "backward-only",
            fixed={f"g{i}": True for i in range(gates)},
            raises="IterationCapExceeded" if over else None,
            cex_steps={"backward": 2, "upward": 2},
        ),
    )


def _toggle_bank_text(
    m_latches: int, fanin: int, rng: random.Random, restyled: bool, broken: int
) -> str:
    """Latch i flips output x_i when all its fanin inputs a_i_* are high.
    The restyled form flips through a switch and a De Morgan conjunction;
    latch ``broken`` (if >= 0) ORs instead of XORs, so it sticks at true."""
    m = _Model("BankCand" if restyled else "BankRef", rng)
    for i in range(m_latches):
        ins = [f"a{i:02d}_{j:02d}" for j in range(fanin)]
        _bool_inputs(m, ins)
        m.port(f"out x{i:02d} : bool")
    for i in range(m_latches):
        ins = [f"a{i:02d}_{j:02d}" for j in range(fanin)]
        hit = _and_all(m, ins, restyled)
        d = m.block("UnitDelay(false)")
        if i == broken:
            nxt = _logic(m, "OR", hit, d)
        elif restyled:
            nxt = _switch(m, hit, _logic(m, "NOT", d), d)
        else:
            nxt = _logic(m, "XOR", hit, d)
        m.wire(nxt, f"{d}.in")
        m.wire(d, f"x{i:02d}")
    return m.text()


def toggle_bank(m_latches: int, seed: int, fanin: int = 1) -> Member:
    """Bank of independent toggle latches against its restyled self, checked
    one output port at a time (per-port overhead, tiny state spaces)."""
    rng = random.Random(f"bank/{m_latches}/{fanin}/{seed}")
    over = fanin >= OVER_BUDGET_BOOLS
    return Member(
        f"bank_m{m_latches}" + (f"_f{fanin}" if fanin > 1 else ""),
        _toggle_bank_text(m_latches, fanin, rng, True, -1),
        _toggle_bank_text(m_latches, fanin, rng, False, -1),
        Expected("full", raises="DomainTooLarge" if over else None),
    )


def toggle_bank_broken(m_latches: int, seed: int, fanin: int = 1) -> Member:
    """One seed-chosen latch latches instead of toggling: a 3-step
    counterexample on its port in both directions."""
    rng = random.Random(f"bank_broken/{m_latches}/{seed}" + (f"/{fanin}" if fanin > 1 else ""))
    broken = rng.randrange(m_latches)
    return Member(
        f"bank_broken_m{m_latches}" + (f"_f{fanin}" if fanin > 1 else ""),
        _toggle_bank_text(m_latches, fanin, rng, True, broken),
        _toggle_bank_text(m_latches, fanin, rng, False, -1),
        Expected(
            "incompatible",
            raises="DomainTooLarge" if fanin >= OVER_BUDGET_BOOLS else None,
            cex_steps={"backward": 3, "upward": 3},
        ),
    )


def _keeper_text(
    copies: int, top: int, rng: random.Random, restyled: bool, mutant: bool, parallel: bool
) -> str:
    """``copies`` pulse_keeper shells: copy i is a subsystem around an enabled
    core, gated by run_i, that keeps the running max of what reaches it.  In
    series, x feeds copy 0 and each held value feeds the next copy; in
    parallel, copy i reads x_i and held is the max of all copies.  The
    restyled max is a compare-and-switch; the mutant's last copy keeps the
    min instead."""
    m = _Model("KeeperCand" if restyled else "KeeperRef", rng)
    runs = [f"run{i}" for i in range(copies)]
    xs = [f"x{i}" for i in range(copies)] if parallel else ["x"]
    _bool_inputs(m, runs)
    for x in xs:
        m.port(f"in {x} : int[0,{top}]")
    m.port(f"out held : int[0,{top}]")
    cur = "x"
    kept = []
    for i in range(copies):
        core = m.sub()
        core.port(f"in v : int[0,{top}]")
        core.port(f"out mem : int[0,{top}] = 0")
        prev = core.block(f"UnitDelay(0, int[0,{top}])")
        if restyled and not (mutant and i == copies - 1):
            blend = _switch(core, _rel(core, ">", "v", prev), "v", prev)
        else:
            blend = core.block("MinMax(min)" if mutant and i == copies - 1 else "MinMax(max)")
            core.wire("v", f"{blend}.in1")
            core.wire(prev, f"{blend}.in2")
        core.wire(blend, f"{prev}.in")
        core.wire(prev, "mem")
        shell = m.sub()
        shell.port("in gate : bool")
        shell.port(f"in load : int[0,{top}]")
        shell.port(f"out kept : int[0,{top}]")
        inner = shell.block("EnabledSubsystem", core)
        shell.wire("gate", f"{inner}.enable")
        shell.wire("load", f"{inner}.v")
        shell.wire(f"{inner}.mem", "kept")
        outer = m.block("Subsystem", shell)
        m.wire(runs[i], f"{outer}.gate")
        m.wire(xs[i] if parallel else cur, f"{outer}.load")
        cur = f"{outer}.kept"
        kept.append(cur)
    if parallel:
        cur = kept[0]
        for k in kept[1:]:
            blend = m.block("MinMax(max)")
            m.wire(cur, f"{blend}.in1")
            m.wire(k, f"{blend}.in2")
            cur = blend
    m.wire(cur, "held")
    return m.text()


def keeper(copies: int, seed: int, top: int = 7, parallel: bool = False) -> Member:
    """pulse_keeper copies against a restyled set of copies.  In series only
    run0 and x are live at the initial state; in parallel every run_i and
    x_i is, so the input space grows as (2 * (top + 1)) ** copies."""
    rng = random.Random(f"keeper/{copies}/{top}/{parallel}/{seed}")
    space = (2 * (top + 1)) ** copies if parallel else 2 * (top + 1)
    return Member(
        f"keeper_{'p' if parallel else 'c'}{copies}" + (f"_x{top}" if top != 7 else ""),
        _keeper_text(copies, top, rng, True, False, parallel),
        _keeper_text(copies, top, rng, False, False, parallel),
        Expected("full", raises="DomainTooLarge" if space > OVER_BUDGET else None),
    )


def keeper_mutant(copies: int, seed: int, parallel: bool = False) -> Member:
    """The last copy tracks the min, so it never leaves 0: a peak loaded in
    the first step reaches the output after one step per copy in series,
    after one step in parallel."""
    rng = random.Random(f"keeper_mut/{copies}/{seed}" + ("/parallel" if parallel else ""))
    steps = 2 if parallel else copies + 1
    space = 16 ** copies if parallel else 16
    return Member(
        f"keeper_mut_{'p' if parallel else 'c'}{copies}",
        _keeper_text(copies, 7, rng, True, True, parallel),
        _keeper_text(copies, 7, rng, False, False, parallel),
        Expected(
            "incompatible",
            raises="DomainTooLarge" if space > OVER_BUDGET else None,
            cex_steps={"backward": steps, "upward": steps},
        ),
    )


# ---------------------------------------------------------------------------
# big_diagram families: hundreds to a thousand-plus blocks, one delay


_CHAIN_OPS = ("AND", "OR", "XOR")


def _chain_ops(n: int, rng: random.Random) -> list[tuple[str, str]]:
    return [(rng.choice(_CHAIN_OPS), rng.choice(("a", "b", "D"))) for _ in range(n)]


def _gate(d: _Diagram, op: str, p: str, q: str, restyled: bool) -> str:
    """One chain gate; the restyled form mentions p once and costs 3-4 blocks."""
    if not restyled:
        return _logic(d, op, p, q)
    if op == "XOR":
        return _logic(d, "NOT", _logic(d, "XOR", _logic(d, "NOT", p), q))
    dual = "OR" if op == "AND" else "AND"
    return _logic(d, "NOT", _logic(d, dual, _logic(d, "NOT", p), _logic(d, "NOT", q)))


def _chains_text(
    chains: list[list[tuple[str, str]]], rng: random.Random, restyled: bool, flip: bool,
    fanin: int,
) -> str:
    """Each chain starts at input a and applies its gates in turn, s_i+1 =
    op_i(s_i, operand_i); y is the XOR of the chain ends and of the
    conjunction of ``fanin`` more inputs f*, and one delay D holds y.
    ``flip`` negates y."""
    m = _Model("ChainCand" if restyled else "ChainRef", rng)
    fs = [f"f{i:02d}" for i in range(fanin)]
    _bool_inputs(m, ["a", "b"] + fs)
    m.port("out y : bool")
    delay = m.block("UnitDelay(false)")
    ends = []
    for ops in chains:
        cur = "a"
        for op, operand in ops:
            cur = _gate(m, op, cur, delay if operand == "D" else operand, restyled)
        ends.append(cur)
    while len(ends) > 1:
        pairs = [ends[i:i + 2] for i in range(0, len(ends), 2)]
        ends = [_logic(m, "XOR", *p) if len(p) == 2 else p[0] for p in pairs]
    y = ends[0]
    if fs:
        y = _logic(m, "XOR", y, _and_all(m, fs, restyled))
    if flip:
        y = _logic(m, "NOT", y)
    m.wire(y, "y")
    m.wire(y, f"{delay}.in")
    return m.text()


def gate_chains(
    count: int, length: int, seed: int, mutant: bool = False, fanin: int = 0
) -> Member:
    """``count`` chains of ``length`` two-input gates against their De Morgan
    restyling, about 3.5 candidate blocks per gate.  The expression depth
    grows with ``length`` and the size with both.  The mutant negates y, so
    the two differ from the first step."""
    rng = random.Random(f"chains/{count}/{length}/{mutant}/{seed}" + (f"/{fanin}" if fanin else ""))
    chains = [_chain_ops(length, rng) for _ in range(count)]
    raises = "DomainTooLarge" if fanin >= OVER_BUDGET_BOOLS else None
    expected = (
        Expected("incompatible", raises=raises, cex_steps={"backward": 1, "upward": 1})
        if mutant
        else Expected("full", raises=raises)
    )
    return Member(
        f"chains_{count}x{length}" + ("_mut" if mutant else "") + (f"_f{fanin}" if fanin else ""),
        _chains_text(chains, rng, True, mutant, fanin),
        _chains_text(chains, rng, False, False, fanin),
        expected,
    )


def _nest_text(
    ops: list[tuple[str, str]], depth: int, rng: random.Random, restyled: bool, fanin: int
) -> str:
    """``depth`` subsystems nested inside each other; each level applies its
    share of ``ops`` to its input and passes the result inward.  y is the
    innermost result, XORed with the conjunction of all ``fanin`` inputs a*
    when there is more than one, and one delay D holds y."""
    m = _Model("NestCand" if restyled else "NestRef", rng)
    ins = [f"a{i:02d}" for i in range(fanin)]
    _bool_inputs(m, ins + ["b"])
    m.port("out y : bool")
    delay = m.block("UnitDelay(false)")
    width = len(ops) // depth

    def level(d: _Diagram, i: int) -> _Diagram:
        for p in ("s", "a", "b", "D"):
            d.port(f"in {p} : bool")
        d.port("out r : bool")
        cur = "s"
        for op, operand in ops[i * width:(i + 1) * width]:
            cur = _gate(d, op, cur, operand, restyled)
        if i + 1 < depth:
            inner = d.block("Subsystem", level(d.sub(), i + 1))
            d.wire(cur, f"{inner}.s")
            for p in ("a", "b", "D"):
                d.wire(p, f"{inner}.{p}")
            d.wire(f"{inner}.r", "r")
        else:
            d.wire(cur, "r")
        return d

    outer = m.block("Subsystem", level(m.sub(), 0))
    for p, src in (("s", "a00"), ("a", "a00"), ("b", "b"), ("D", delay)):
        m.wire(src, f"{outer}.{p}")
    y = f"{outer}.r"
    if fanin > 1:
        y = _logic(m, "XOR", y, _and_all(m, ins, restyled))
    m.wire(y, "y")
    m.wire(y, f"{delay}.in")
    return m.text()


def nested(depth: int, width: int, seed: int, fanin: int = 1) -> Member:
    """Nested subsystems of gate rows against their De Morgan restyling."""
    rng = random.Random(f"nest/{depth}/{width}/{fanin}/{seed}")
    ops = _chain_ops(depth * width, rng)
    over = fanin >= OVER_BUDGET_BOOLS
    return Member(
        f"nest_d{depth}_w{width}" + (f"_f{fanin}" if fanin > 1 else ""),
        _nest_text(ops, depth, rng, True, fanin),
        _nest_text(ops, depth, rng, False, fanin),
        Expected("full", raises="DomainTooLarge" if over else None),
    )
