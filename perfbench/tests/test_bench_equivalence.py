"""The benchmark drives the same computation the CLI ships, and its checks bite."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import riskfilter as rf
import workloads as wl
from riskfilter.experiments import write_certify_csv

ROOT = Path(__file__).resolve().parents[2]

TINY = {
    "spring-switching": """
run.preset = spring
run.controller = switching
run.rollouts = 2
run.steps = 6
value.states = 5
value.horizon = 12
value.epochs = 25
certify.states = 6
certify.samples = 20
""",
    "collision3-centralized": """
run.preset = collision
run.agents = 3
run.controller = centralized
run.rollouts = 2
run.steps = 3
value.states = 5
value.horizon = 12
value.epochs = 25
filter.grid = 3
certify.states = 6
certify.samples = 20
""",
}


def cli(text: str, out: Path, *commands) -> None:
    cfg = rf.config_with(rf.parse_config(text), out=str(out))
    for command in commands:
        assert rf.run_experiment(cfg, command) == 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_rollout_path_matches_cli_bytes(name, tmp_path):
    text = TINY[name]
    cli(text, tmp_path / "cli", "train-value", "run")
    scratch = tmp_path / "bench"
    scratch.mkdir()
    stack = wl.build_stack(text, scratch)
    assert ((scratch / "value_model-0.bin").read_bytes()
            == (tmp_path / "cli" / "value_model.bin").read_bytes())

    out = wl.Outcome()
    records = wl.drive(stack, wl.TimedController(wl.make_controller(stack)),
                          range(stack.cfg.rollouts), out)
    got = wl.trajectories_bytes(records, stack.model, scratch / "t.csv")
    assert got == (tmp_path / "cli" / "trajectories.csv").read_bytes()
    assert out.correct and out.attempted == stack.cfg.rollouts * stack.cfg.steps


def test_train_certify_cycle_matches_cli_bytes(tmp_path):
    text = TINY["spring-switching"]
    cli(text, tmp_path / "cli", "train-value", "certify")
    cfg = rf.parse_config(text)
    model = cfg.build_model()
    scratch = tmp_path / "bench"
    scratch.mkdir()
    out = wl.Outcome()
    _, _, report, pieces = wl.train_certify_cycle(cfg, model, cfg.safe_policy(model), cfg.seed,
                                                  scratch, out)
    assert ((scratch / "value_model-0.bin").read_bytes()
            == (tmp_path / "cli" / "value_model.bin").read_bytes())
    write_certify_csv(report, scratch / "certify.csv")
    assert ((scratch / "certify.csv").read_bytes()
            == (tmp_path / "cli" / "certify.csv").read_bytes())
    assert len(pieces) == cfg.value_states + 3 and out.correct


def test_tracing_wrappers_leave_outputs_unchanged(tmp_path):
    text = TINY["spring-switching"]
    plain = wl.build_stack(text, tmp_path)
    tracer = wl.Tracer()
    with wl.traced_filters(tracer):
        traced = wl.build_stack(text, tmp_path, tracer)
        recs = wl.drive(traced, wl.TimedController(wl.make_controller(traced), tracer),
                           range(2), wl.Outcome())
    base = wl.drive(plain, wl.TimedController(wl.make_controller(plain)), range(2),
                       wl.Outcome())
    assert (wl.trajectories_bytes(recs, traced.model, tmp_path / "a.csv")
            == wl.trajectories_bytes(base, plain.model, tmp_path / "b.csv"))
    names = {span[0] for span in tracer.spans}
    assert {"risk.risk_lower", "value.predict", "filters.switching", "filters.pessimistic",
            "simulate.act", "dynamics.transition", "value.collect_dataset"} <= names
    assert rf.filters.risk_lower is rf.risk.risk_lower   # patches restored


def test_step_check_flags_out_of_box_actions_and_inconsistent_branches(tmp_path):
    stack = wl.build_stack(TINY["spring-switching"], tmp_path)
    (rec,) = wl.drive(stack, wl.TimedController(wl.make_controller(stack)), [0],
                         wl.Outcome())
    assert wl.check_steps(rec, stack.model) == 0
    actions = [list(a) for a in rec.actions]
    actions[1][0] = np.array([stack.model.action_high + 0.5])
    branches = rec.branches.copy()
    branches[3, 0] = "proximity" if branches[3, 0] == "pessimistic" else "pessimistic"
    bad = dataclasses.replace(rec, actions=actions, branches=branches)
    assert wl.check_steps(bad, stack.model) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "train-certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
