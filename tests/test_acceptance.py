"""Acceptance suite: one test per criterion, each printing a PASS line.

Full-scale learned-policy results are not reproducible at desk scale, so
acceptance is property-based plus qualitative trend reproduction, with
the tolerances pinned below.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import itertools
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from conftest import (ConstantValue, constant_cost_model, h_of, make_static_model, src_env,
                      zero_policy)
from riskfilter import (
    Barrier,
    Branch,
    FilterConfig,
    PolicyController,
    SwitchingController,
    check_condition,
    compute_delta,
    compute_metrics,
    draw_risk_samples,
    entropic_risk,
    mc_cost_to_go,
    pessimistic_filter,
    proximity_filter,
    rollout,
    sweep,
    switching_filter,
)


def report(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} PASS: {label}")


def sample_in_sublevel(setup, n_states: int, seed: int) -> np.ndarray:
    """Fuzz states from the value-training box, keeping those with h >= 0."""
    model, barrier = setup.model, setup.barrier
    rng = np.random.default_rng(seed)
    kept = []
    while len(kept) < n_states:
        batch = np.stack([setup.box_sampler(rng) for _ in range(4 * n_states)])
        flat = batch.reshape(len(batch), -1)
        h = np.asarray(barrier.value(flat))
        for x, ok in zip(batch, h >= 0.0):
            if ok:
                kept.append(x)
                if len(kept) == n_states:
                    break
    return np.stack(kept)


def test_criterion_1_risk_operator_laws():
    """Translation equivariance, bounds, beta-monotonicity, risk-neutral limit."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    betas = (0.01, 0.1, 1.0, 10.0, 100.0)
    for _ in range(1000):
        size = int(rng.integers(2, 65))
        values = rng.uniform(-10.0, 10.0, size)
        shift = float(rng.uniform(-5.0, 5.0))
        risks = []
        for beta in betas:
            r = entropic_risk(values, beta)
            risks.append(r)
            assert abs(entropic_risk(values + shift, beta) - (r + shift)) <= 1e-9
            assert values.mean() - 1e-12 <= r <= values.max() + 1e-12
        assert all(b >= a - 1e-12 for a, b in zip(risks, risks[1:]))
        assert abs(entropic_risk(values, 1e-8) - values.mean()) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"risk-operator law suite over 1000 sample sets ({elapsed:.1f}s)")


def test_criterion_2_delta_formula():
    """Closed-form safety probability: corner cases, hand value, monotonicity."""
    # K = 1 closed form, exact.
    for beta, alpha, eps, h0 in [(1.0, 0.1, 0.5, 2.0), (2.5, 0.7, 0.0, 1.0),
                                 (0.3, 1.0, 1.2, 0.0)]:
        assert compute_delta(beta, alpha, eps, h0, 1) == math.exp(
            -beta * (alpha * h0 + eps))
    # epsilon = 0, K >= 2: vacuous bound, exactly 1.
    for k in (2, 5, 50):
        assert compute_delta(1.0, 0.1, 0.0, 2.0, k) == 1.0
    # Independent hand arithmetic.
    assert compute_delta(1.0, 0.1, 0.5, 2.0, 3) == pytest.approx(
        1.0 - (1.0 - math.exp(-0.7)) * (1.0 - math.exp(-0.5)) ** 2, abs=1e-12)
    assert compute_delta(1.0, 0.1, 0.5, 2.0, 3) == pytest.approx(0.92206, abs=1e-5)
    # Monotone nonincreasing in beta over a 20-point grid at epsilon = 0.5.
    deltas = [compute_delta(b, 0.1, 0.5, 2.0, 3) for b in np.linspace(0.05, 20, 20)]
    assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))
    report(2, "delta formula corner cases, hand value 0.92206, beta-monotone")


def test_criterion_3_worst_case_grid_property(spring_setup):
    """Feasible pessimistic outputs survive exhaustive re-enumeration of the
    other agents' action grid under the shared samples, zero tolerance."""
    start = time.monotonic()
    s = spring_setup
    cfg = FilterConfig(grid_size=5)
    states = sample_in_sublevel(s, 50, seed=77)
    axis = np.linspace(s.model.action_low, s.model.action_high, cfg.grid_size)
    n_feasible = 0
    for idx, x in enumerate(states):
        for agent in s.model.actuated_agents:
            samples = draw_risk_samples(s.model, cfg.n_samples, 10_000 + 7 * idx + agent)
            h_now = h_of(s.model, s.barrier, x)
            out = pessimistic_filter(s.model, s.barrier, [agent], x, s.nominal(x), cfg, [samples],
                                     h_now)[0]
            if out is None:
                continue
            n_feasible += 1
            others = [j for j in s.model.actuated_agents if j != agent]
            for combo in itertools.product(axis, repeat=len(others)):
                u = np.zeros(sum(s.model.action_dims))
                u[s.model.agent_columns(agent)] = out.action
                for j, g in zip(others, combo):
                    u[s.model.agent_columns(j)] = g
                ok, margin = check_condition(s.model, s.barrier, x, u, cfg,
                                             samples=samples, h_now=h_now)
                assert ok, (
                    f"state {idx} agent {agent}: margin {margin} < tolerance "
                    f"under combo {combo}")
    elapsed = time.monotonic() - start
    assert n_feasible > 0
    assert elapsed < 120.0
    report(3, f"worst-case grid property on {n_feasible} feasible solves "
              f"({elapsed:.1f}s), zero tolerance")


def test_criterion_4_proximity_projection():
    """10^4 random ball projections: feasibility, radius bound, optimality
    against a dense numeric search."""
    rng = np.random.default_rng(4321)
    total = 0
    for dim in (1, 2, 3, 4):
        model = replace(make_static_model(2), action_dims=(dim, dim))
        for _ in range(2500):
            total += 1
            safe_vec = rng.uniform(-1, 1, dim)
            nom_vec = rng.uniform(-2, 2, dim)
            radius = float(rng.uniform(0.0, 1.5))
            cfg = FilterConfig(radius=radius)
            u = proximity_filter(
                model, 0,
                np.concatenate([nom_vec, np.zeros(dim)]),
                np.concatenate([safe_vec, np.zeros(dim)]),
                cfg, 1.0,
            ).action
            assert np.all(np.isfinite(u))
            assert np.linalg.norm(u - safe_vec) <= radius + 1e-12
            # Dense numeric search over the ball.
            dirs = rng.normal(size=(120, dim))
            norms = np.linalg.norm(dirs, axis=1, keepdims=True)
            dirs = dirs / np.where(norms == 0, 1.0, norms)
            radii = radius * rng.uniform(0, 1, 120) ** (1.0 / dim)
            points = safe_vec + dirs * radii[:, None]
            best = np.linalg.norm(points - nom_vec, axis=1).min()
            best = min(best, float(np.linalg.norm(safe_vec - nom_vec)))
            assert np.linalg.norm(u - nom_vec) <= best + 1e-6
    assert total == 10_000
    report(4, "proximity projection: 10^4 instances in dims 1-4, "
              "feasible, in-ball, search-optimal")


def _fuzz_switching(setup, n_states: int, cfg: FilterConfig, seed: int):
    states = sample_in_sublevel(setup, n_states, seed)
    branches = []
    agents = setup.model.actuated_agents
    for idx, x in enumerate(states):
        agent = agents[idx % len(agents)]
        nominal, safe = setup.nominal(x), setup.safe(x)
        out = switching_filter(setup.model, setup.barrier, [agent], x, nominal, safe, cfg,
                               [draw_risk_samples(setup.model, cfg.n_samples, 50_000 + idx)],
                               h_of(setup.model, setup.barrier, x))[0]
        assert out.action is not None
        assert np.all(np.isfinite(np.asarray(out.action, dtype=float)))
        assert out.branch in (Branch.PESSIMISTIC, Branch.PROXIMITY)
        assert (out.margin is None) == (out.branch is Branch.PROXIMITY)
        branches.append(out.branch)
    return branches


def test_criterion_5_switching_well_defined(spring_setup, collision_setup):
    """10^4 fuzzed sublevel states per preset always produce an action and a
    branch; epsilon = 10 forces proximity; static dynamics stay pessimistic."""
    cfg = FilterConfig(grid_size=3, n_samples=3)
    for setup, seed in ((spring_setup, 5), (collision_setup, 6)):
        branches = _fuzz_switching(setup, 10_000, cfg, seed)
        assert len(branches) == 10_000

    # epsilon = 10 is unsatisfiable (h <= xi), so every branch falls back.
    eps_cfg = FilterConfig(grid_size=3, n_samples=3, epsilon=10.0)
    for setup, seed in ((spring_setup, 7), (collision_setup, 8)):
        branches = _fuzz_switching(setup, 10_000, eps_cfg, seed)
        assert all(b is Branch.PROXIMITY for b in branches)

    # Static test dynamics with a constant barrier: margin 0.9 everywhere,
    # the worst case always feasible, never a fallback.
    static = make_static_model(2)
    barrier = Barrier(ConstantValue(0.0), 1.0)
    nominal = np.array([0.4, -0.2])
    safe = np.zeros(2)
    static_cfg = FilterConfig(grid_size=3, n_samples=2)
    rng = np.random.default_rng(9)
    for i in range(10_000):
        x = rng.normal(size=(2, 2))
        out = switching_filter(static, barrier, [i % 2], x, nominal, safe, static_cfg,
                               [draw_risk_samples(static, static_cfg.n_samples, i)], 1.0)[0]
        assert out.branch is Branch.PESSIMISTIC
    report(5, "switching filter well-defined on 2x10^4 fuzzed states; "
              "eps=10 all-proximity; static all-pessimistic")


def test_criterion_6_spring_violation_reduction(spring_setup):
    """Filtered closed loop cuts the nominal violation rate at least in half
    over 20 seeded rollouts of 200 steps."""
    start = time.monotonic()
    s = spring_setup
    x0 = np.zeros((3, 2))
    base_seed = 1000

    nominal_records = [
        rollout(s.model, PolicyController(s.nominal), x0, 200, base_seed + i)
        for i in range(20)
    ]
    nominal_rate = compute_metrics(nominal_records, s.model).violation_rate
    assert nominal_rate > 0.0, "the nominal law must violate the constraints"

    controller = SwitchingController(barrier=s.barrier, nominal=s.nominal,
                                     safe=s.safe, cfg=FilterConfig())
    filtered_records = [
        rollout(s.model, controller, x0, 200, base_seed + i) for i in range(20)
    ]
    filtered = compute_metrics(filtered_records, s.model)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert filtered.violation_rate <= 0.5 * nominal_rate, (
        f"filtered rate {filtered.violation_rate:.4f} vs nominal "
        f"{nominal_rate:.4f}")
    report(6, f"spring: filtered violation rate {filtered.violation_rate:.4f} "
              f"<= 50% of nominal {nominal_rate:.4f} ({elapsed:.0f}s)")


def test_criterion_7_collision_beta_trend(collision_setup):
    """Growing risk aversion does not increase collision counts (one inversion
    smaller than one standard deviation allowed)."""
    start = time.monotonic()
    s = collision_setup
    betas = [0.1, 1.0, 10.0]

    def factory(beta):
        return SwitchingController(barrier=s.barrier, nominal=s.nominal,
                                   safe=s.safe,
                                   cfg=FilterConfig(beta=beta))

    rows = sweep(s.model, factory, "beta", betas, 10, 200, 0,
                 s.cfg.init_sampler(s.model))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    means = [r.violations_mean for r in rows]
    stds = [r.violations_std for r in rows]
    inversions = [
        (means[i + 1] - means[i], max(stds[i], stds[i + 1]))
        for i in range(len(means) - 1)
        if means[i + 1] > means[i]
    ]
    assert len(inversions) <= 1, f"means {means} not non-increasing"
    for rise, spread in inversions:
        assert rise < spread, (
            f"inversion {rise:.2f} exceeds one standard deviation {spread:.2f}")
    report(7, f"collision beta sweep violations {[f'{m:.1f}' for m in means]} "
              f"non-increasing ({elapsed:.0f}s)")


def test_criterion_8_value_sanity_and_cli_determinism(tmp_path):
    """Monte-Carlo value matches the truncated geometric sum; two full CLI
    runs with equal seeds produce byte-identical outputs."""
    c0, gamma, horizon = 0.7, 0.9, 40
    m = constant_cost_model(c0, gamma)
    got = mc_cost_to_go(m, zero_policy(m), np.zeros((2, 2)), horizon, 1, 0)
    closed_form = c0 * (gamma - gamma ** (horizon + 1)) / (1 - gamma)
    assert got == pytest.approx(closed_form, abs=1e-9)

    config = tmp_path / "exp.cfg"
    config.write_text(
        "run.steps = 25\nrun.rollouts = 3\nvalue.states = 40\n"
        "value.horizon = 20\nvalue.epochs = 150\n"
    )
    digests = []
    for name in ("one", "two"):
        out = tmp_path / name
        for command in ("train-value", "run"):
            proc = subprocess.run(
                [sys.executable, "-m", "riskfilter.cli", command,
                 "--config", str(config), "--seed", "3", "--out", str(out)],
                capture_output=True, text=True, env=src_env(),
            )
            assert proc.returncode == 0, proc.stderr
        digests.append(tuple(
            (out / fname).read_bytes()
            for fname in ("value_model.bin", "trajectories.csv", "manifest.json")
        ))
    assert digests[0] == digests[1]
    report(8, "Monte-Carlo value matches geometric sum to 1e-9; "
              "full CLI byte-deterministic across reruns")
