"""Fixed-size layer probe: the per-layer cost table at set sizes.

Not a workload and not gated; the traced run reports it.  Each figure is
the median over repeated calls on inputs that do not depend on the
workload seed, so the table compares across commits as it stands.
"""

from __future__ import annotations

import time
from pathlib import Path
from statistics import median

import numpy as np

import riskfilter as rf

from workloads import (
    COLLISION3_BARRIER,
    SPRING_BARRIER,
    TimedController,
    build_stack,
    initial_state,
    make_controller,
)

REPEATS = 5


def per_call_s(fn, calls: int) -> float:
    """Median over REPEATS blocks of the seconds one call takes."""
    blocks = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - start) / calls)
    return median(blocks)


def step_ms(stack, n_steps: int) -> float:
    """Median controller-step latency along one fixed rollout (first step excluded)."""
    controller = TimedController(make_controller(stack))
    rf.rollout(stack.model, controller, initial_state(stack, 4242), n_steps + 1, 4242)
    return median(controller.latencies[1:]) * 1e3


def collision_stack(agents: int, scratch: Path):
    """The collision workloads' barrier recipe at another agent count."""
    return build_stack(COLLISION3_BARRIER.replace("run.agents = 3", f"run.agents = {agents}"),
                       scratch)


def run_probe(scratch: Path) -> dict:
    """Probe name -> (value, unit)."""
    out = {}
    rng = np.random.default_rng(7)
    for s in (5, 200):
        values = rng.standard_normal(s)
        out[f"probe.risk_lower.s{s}.us"] = (
            per_call_s(lambda: rf.risk_lower(values, 1.0), 2000) * 1e6, "us")

    spring = build_stack(SPRING_BARRIER, scratch)
    sampler = spring.cfg.value_sampler(spring.model)
    batch = np.stack([sampler(np.random.default_rng(i)).reshape(-1) for i in range(480)])
    for rows, calls in ((1, 2000), (5, 2000), (480, 200)):
        x = batch[:rows]
        out[f"probe.predict.rows{rows}.us"] = (
            per_call_s(lambda: spring.value_model.predict(x), calls) * 1e6, "us")

    out["probe.switching_step.spring.ms"] = (step_ms(spring, 40), "ms")
    for agents, n_steps in ((2, 15), (3, 9), (4, 3)):
        stack = collision_stack(agents, scratch)
        out[f"probe.switching_step.collision_m{agents}.ms"] = (step_ms(stack, n_steps), "ms")
        if agents < 4:
            stack.cfg = rf.config_with(stack.cfg, controller="centralized")
            out[f"probe.centralized_step.collision_m{agents}.ms"] = (step_ms(stack, n_steps), "ms")

    cfg = spring.cfg
    safe = cfg.safe_policy(spring.model)
    rows, horizon = 3, cfg.value_horizon

    def collect():
        rf.collect_dataset(spring.model, safe, rows, horizon, 1, 0, sampler)

    out["probe.collect.us_per_step"] = (per_call_s(collect, 1) / (rows * horizon) * 1e6, "us")
    return out
