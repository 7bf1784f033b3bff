"""Step-body CFG extraction checked against the direct interpreter."""

import itertools

import pytest

from dfcompat import Interpreter, extract_cfg, flatten_and_validate, parse_model, sorted_order
from dfcompat.cfg import cfg_to_dot, count_paths, run_cfg_step
from dfcompat.model import domain_values
from helpers import NESTED_ENABLED, NESTED_REWIRED, chain_text, load_model

EXPECTED_PATHS = {
    "flipflop": 4,
    "flipflop_logic": 1,
    "charge_pump": 4,
    "bands_v1": 4,
    "bands_v2": 64,
    "tri_latch": 1,
    "cruise_v3": 1,
    "cruise_v4": 1,
    "limiter_plain": 1,
    "limiter_sign": 2,
    "pulse_keeper": 4,
}


@pytest.mark.parametrize("name,expected", sorted(EXPECTED_PATHS.items()))
def test_path_counts(name, expected):
    cfg = extract_cfg(flatten_and_validate(load_model(name)))
    assert count_paths(cfg) == expected


def test_path_count_of_a_chain_thousands_of_blocks_deep():
    cfg = extract_cfg(flatten_and_validate(parse_model(chain_text(1000, restyled=True))))
    assert len(cfg.nodes) > 3000
    assert count_paths(cfg) == 1


def _state_space(flat):
    names = sorted(flat.var_decls)
    spaces = [domain_values(flat.var_decls[n][0]) for n in names]
    for combo in itertools.product(*spaces):
        yield dict(zip(names, combo))


def _input_space(flat):
    names = [p.name for p in flat.inputs]
    spaces = [domain_values(p.dtype) for p in flat.inputs]
    for combo in itertools.product(*spaces):
        yield dict(zip(names, combo))


@pytest.mark.parametrize("name", ["flipflop", "flipflop_reset", "bands_v1", "tri_latch"])
def test_cfg_walk_matches_interpreter_exhaustively(name):
    flat = flatten_and_validate(load_model(name))
    cfg = extract_cfg(flat)
    interp = Interpreter(flat)
    for state in _state_space(flat):
        for inputs in _input_space(flat):
            assert run_cfg_step(cfg, state, inputs) == interp.step(state, inputs)


@pytest.mark.parametrize("name", ["charge_pump", "pulse_keeper", "limiter_sign"])
def test_cfg_walk_matches_interpreter_sampled(name):
    flat = flatten_and_validate(load_model(name))
    cfg = extract_cfg(flat)
    interp = Interpreter(flat)
    states = list(itertools.islice(_state_space(flat), 0, None, 7)) or [{}]
    rows = list(itertools.islice(_input_space(flat), 0, None, 11))
    for state in states[:40]:
        for inputs in rows[:40]:
            assert run_cfg_step(cfg, state, inputs) == interp.step(state, inputs)


@pytest.mark.parametrize("text", [NESTED_ENABLED, NESTED_REWIRED], ids=["nested", "rewired"])
def test_cfg_walk_matches_interpreter_in_nested_enabled_subsystems(text):
    flat = flatten_and_validate(parse_model(text))
    cfg = extract_cfg(flat)
    interp = Interpreter(flat)
    for trace in itertools.product(list(_input_space(flat)), repeat=3):
        state = interp.initial_state()
        for inputs in trace:
            step = run_cfg_step(cfg, state, inputs)
            assert step == interp.step(state, inputs)
            state = step[1]


def test_entry_is_empty_and_exit_updates_state():
    flat = flatten_and_validate(load_model("flipflop"))
    cfg = extract_cfg(flat)
    assert cfg.nodes[cfg.entry] == []
    assert [t for t, _ in cfg.update_assigns] == ["Delay"]
    assert cfg.nodes[cfg.exit] == [("var", t, e) for t, e in cfg.update_assigns]


def test_explicit_schedule_is_respected():
    flat = flatten_and_validate(load_model("flipflop"))
    sched = sorted_order(flat)
    cfg = extract_cfg(flat, schedule=sched)
    assert cfg.schedule == sched


def test_conditioned_scope_becomes_guarded_branch():
    flat = flatten_and_validate(load_model("pulse_keeper"))
    cfg = extract_cfg(flat)
    # one branch for the enabled scope, one for the boundary hold
    from dfcompat.cfg import BranchEl

    branches = [el for el in cfg.elements if isinstance(el, BranchEl)]
    assert len(branches) == 2


def test_dot_rendering_mentions_nodes_and_guards():
    flat = flatten_and_validate(load_model("flipflop"))
    dot = cfg_to_dot(extract_cfg(flat))
    assert dot.startswith("digraph")
    assert "n0" in dot and "->" in dot
    assert "S" in dot
