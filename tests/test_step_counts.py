"""Smoke test of ``tools/step_counts.py`` on a tiny config."""

from __future__ import annotations

import importlib.util
from dataclasses import replace
from pathlib import Path

import riskfilter as rf
from riskfilter import filters

ROOT = Path(__file__).resolve().parents[1]

TINY = """
run.preset = collision
run.agents = 3
run.controller = switching
run.rollouts = 2
run.steps = 3
value.states = 5
value.horizon = 12
value.epochs = 25
certify.states = 6
certify.samples = 20
"""

# Spring's two actuated agents: each search's 10 x 9 block fits one pass.
SPRING = """
run.preset = spring
run.controller = switching
run.rollouts = 2
run.steps = 4
value.states = 5
value.horizon = 12
value.epochs = 25
certify.states = 6
certify.samples = 20
"""


def load_tool():
    spec = importlib.util.spec_from_file_location("step_counts", ROOT / "tools" / "step_counts.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_counts_the_reference_steps(tmp_path, capsys):
    tool = load_tool()
    c = tool.counts(TINY, tmp_path)
    assert c["steps"] == 6 and "seeded" not in c
    # At least one kernel call per step (on this loose barrier some
    # first-corner rows survive the screen on every step), and every call
    # holds rows.
    assert 6 <= c["calls"] <= c["rows"]
    assert c["minflt_per_step"] >= 0 and c["minflt_per_certify"] >= 0
    # A step makes dozens of Python-level calls, the same on every run.
    assert c["py_calls_per_step"] > 20
    again = tool.counts(TINY, tmp_path)
    assert (again["calls"], again["py_calls_per_step"]) == (c["calls"], c["py_calls_per_step"])
    assert tool.main(["train-certify"]) == 2
    assert "rollout configs" in capsys.readouterr().err


def test_counts_digest_configs_that_run(capsys):
    # The digest configs that run ``run`` are counted by the same command
    # as the rollout workloads; train-certify and the train-only configs
    # are not rollout configs.
    tool = load_tool()
    names = tool.rollout_configs()
    assert {"collision2-switching", "collision4-switching", "collision3-switching-slack",
            "spring-switching", "collision3-switching"} <= set(names)
    assert not {"train-certify", "train-value-hidden32", "spring-certify700"} & set(names)
    assert tool.main(["collision2-switching"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    # 3 rollouts x 15 steps; collision M = 2's 10 x 9 blocks fit one pass,
    # so no screen runs.
    assert line.startswith("collision2-switching calls=")
    assert " screen_calls=0 screen_rows=0 steps=45 " in line


def test_counts_the_seeded_load(tmp_path):
    tool = load_tool()
    c = tool.counts(TINY, tmp_path, seed=7, rollouts=3)
    seeded = c["seeded"]
    assert seeded["steps"] == 9 and 9 <= seeded["calls"] <= seeded["rows"]
    assert seeded["py_calls_per_step"] > 20
    # The seeded load is the benchmark's: rollouts at extra_seed(7, i), not
    # the reference seeds.
    stack = tool.wl.build_stack(TINY, tmp_path)
    by_hand = tool.count_rollouts(stack, [tool.wl.extra_seed(7, i) for i in range(3)])
    assert (by_hand["calls"], by_hand["rows"]) == (seeded["calls"], seeded["rows"])
    assert by_hand["py_calls_per_step"] == seeded["py_calls_per_step"]


def test_counts_screen_rows_apart(tmp_path):
    # A screen calls transition_batch at sample 0 with a 2-D (B, A) block,
    # the kernel with (b, 1, A) stacks.  The centralized screen makes one
    # call per solve of all 9^3 + 1 = 730 candidates; the kernel gets only
    # the survivors.
    tool = load_tool()
    c = tool.counts(TINY.replace("switching", "centralized"), tmp_path)
    assert c["screen_calls"] == c["steps"] == 6 and c["screen_rows"] == 6 * 730
    assert c["rows"] < c["screen_rows"]
    # Switching on collision M = 3: every agent's search first screens its
    # 9 or 10 candidates at the first corner, and the three agents' rows
    # share one screen call a step, with per-row draws.
    switching = tool.counts(TINY, tmp_path)
    assert switching["screen_calls"] == switching["steps"] == 6
    assert 6 * 27 <= switching["screen_rows"] <= 6 * 30


def test_spring_steps_take_at_most_three_kernel_calls(tmp_path, monkeypatch):
    # A search whose block fits one pass takes at most three rounds (the
    # corner combos, the first survivor, the other survivors), each one
    # kernel call shared by both agents, of at most 2 x 9 x 7 = 126 rows:
    # one pass at S = 5.  Spring's blocks fit one pass, so no screen runs.
    tool = load_tool()
    c = tool.counts(SPRING, tmp_path)
    again = tool.counts(SPRING, tmp_path)
    assert (again["calls"], again["rows"]) == (c["calls"], c["rows"])
    assert c["screen_calls"] == 0 and c["steps"] == 8
    per_step = []
    inner = filters.pessimistic_filter

    def pessimistic_filter(model, *args):
        calls = []
        batch = model.transition_batch

        def transition_batch(x, u, thetas, noises):
            calls.append(len(u))
            return batch(x, u, thetas, noises)

        out = inner(replace(model, transition_batch=transition_batch), *args)
        per_step.append(len(calls))
        return out

    monkeypatch.setattr(filters, "pessimistic_filter", pessimistic_filter)
    stack = tool.wl.build_stack(SPRING, tmp_path)
    controller = tool.wl.make_controller(stack)
    for seed in range(stack.cfg.rollouts):
        rf.rollout(stack.model, controller, tool.wl.initial_state(stack, seed),
                   stack.cfg.steps, seed)
    assert len(per_step) == c["steps"] and sum(per_step) == c["calls"]
    assert 1 <= min(per_step) and max(per_step) <= 3
