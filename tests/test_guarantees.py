"""Closed-form safety probability and empirical certification."""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import ConstantValue, make_static_model, zero_policy
from riskfilter import (
    Barrier,
    ContractViolationError,
    FilterConfig,
    GuaranteeDomainError,
    certify_grid,
    check_condition,
    compute_delta,
    draw_risk_samples,
)


def certify_reference(model, barrier, policy, states, cfg, seed, n_oracle_samples, k_steps=1):
    """Reference for ``certify_grid``: h(x), the policy and ``check_condition``
    at one state at a time, in input order."""
    margins, passed = [], []
    h_min = None
    for idx, x in enumerate(states):
        h_now = float(barrier.value(model.flatten_state(model.validate_state(x))))
        if h_now < 0:
            continue
        h_min = h_now if h_min is None else min(h_min, h_now)
        samples = draw_risk_samples(model, n_oracle_samples, np.random.SeedSequence([seed, idx]))
        ok, margin = check_condition(model, barrier, x, policy(x), cfg, samples, h_now)
        margins.append(margin)
        passed.append(ok)
    delta = (compute_delta(cfg.beta, cfg.alpha, cfg.epsilon, h_min, k_steps)
             if h_min is not None else None)
    return SimpleNamespace(margins=np.array(margins), passed=np.array(passed, dtype=bool),
                           h_min=h_min, delta=delta, n_evaluated=len(margins),
                           n_skipped=len(states) - len(margins))


def interleaved_states(setup, n_in: int, n_out: int) -> list:
    """n_in states inside the sublevel set and n_out outside it, mixed, built
    by cycling through 20 distinct box samples of each kind."""
    rng = np.random.default_rng(11)
    inside, outside = [], []
    while len(inside) < 20 or len(outside) < 20:
        x = setup.box_sampler(rng)
        h = float(setup.barrier.value(x.reshape(-1)))
        (inside if h >= 0 else outside).append(x)
    states = []
    for i in range(max(n_in, n_out)):
        states += [outside[i % 20]] * (i < n_out) + [inside[i % 20]] * (i < n_in)
    return states


class CountingValue:
    """Value model that counts its ``predict`` calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def predict(self, x):
        self.calls += 1
        return self.inner.predict(x)


class TestComputeDelta:
    def test_single_step_closed_form_exact(self):
        for beta, alpha, eps, h0 in [(1.0, 0.1, 0.5, 2.0), (5.0, 0.0, 0.1, 0.0),
                                     (0.3, 1.0, 0.0, 4.0)]:
            assert compute_delta(beta, alpha, eps, h0, 1) == math.exp(
                -beta * (alpha * h0 + eps)
            )

    def test_zero_epsilon_multi_step_vacuous(self):
        for k in (2, 3, 10):
            assert compute_delta(1.0, 0.1, 0.0, 2.0, k) == 1.0

    def test_hand_arithmetic(self):
        got = compute_delta(1.0, 0.1, 0.5, 2.0, 3)
        oracle = 1.0 - (1.0 - math.exp(-0.7)) * (1.0 - math.exp(-0.5)) ** 2
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.92206, abs=1e-5)

    def test_complement_identity_single_step(self):
        beta, alpha, eps, h0 = 2.0, 0.3, 0.25, 1.5
        delta = compute_delta(beta, alpha, eps, h0, 1)
        assert 1.0 - delta == 1.0 - math.exp(-beta * (alpha * h0 + eps))

    def test_monotone_nonincreasing_in_beta(self):
        betas = np.linspace(0.05, 10.0, 20)
        deltas = [compute_delta(b, 0.1, 0.5, 2.0, 3) for b in betas]
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))

    def test_monotone_nonincreasing_in_epsilon(self):
        eps = np.linspace(0.0, 2.0, 15)
        deltas = [compute_delta(1.0, 0.1, e, 2.0, 4) for e in eps]
        assert all(d2 <= d1 + 1e-12 for d1, d2 in zip(deltas, deltas[1:]))

    def test_monotone_nondecreasing_in_k(self):
        deltas = [compute_delta(1.0, 0.1, 0.5, 2.0, k) for k in range(1, 12)]
        assert all(d2 >= d1 - 1e-12 for d1, d2 in zip(deltas, deltas[1:]))

    def test_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = compute_delta(float(rng.uniform(0.01, 20)), float(rng.uniform(0, 1)),
                              float(rng.uniform(0, 3)), float(rng.uniform(0, 10)),
                              int(rng.integers(1, 20)))
            assert 0.0 <= d <= 1.0

    @pytest.mark.parametrize("kwargs", [
        {"h0": -0.5},
        {"k_steps": 0},
        {"beta": 0.0},
        {"alpha": 1.5},
        {"epsilon": -0.1},
    ])
    def test_domain_errors(self, kwargs):
        args = {"beta": 1.0, "alpha": 0.1, "epsilon": 0.5, "h0": 2.0, "k_steps": 3}
        args.update(kwargs)
        with pytest.raises(GuaranteeDomainError):
            compute_delta(**args)


class TestCertifyGrid:
    def test_static_all_pass(self, static_model, unit_barrier):
        states = [np.zeros((2, 2)) for _ in range(5)]
        cfg = FilterConfig(alpha=0.1, epsilon=0.0)
        report = certify_grid(static_model, unit_barrier, zero_policy(static_model),
                              states, cfg, seed=0, n_oracle_samples=50)
        assert report.pass_fraction == 1.0
        assert report.n_evaluated == 5
        assert np.allclose(report.margins, 0.9, atol=1e-12)
        assert report.h_min == 1.0

    def test_large_epsilon_all_fail(self, static_model, unit_barrier):
        states = [np.zeros((2, 2)) for _ in range(5)]
        cfg = FilterConfig(epsilon=10.0)
        report = certify_grid(static_model, unit_barrier, zero_policy(static_model),
                              states, cfg, seed=0, n_oracle_samples=20)
        assert report.pass_fraction == 0.0
        assert not report.passed.any()

    def test_out_of_domain_states_skipped(self, static_model):
        barrier = Barrier(ConstantValue(5.0), 1.0)  # h = -4 everywhere
        states = [np.zeros((2, 2)) for _ in range(4)]
        report = certify_grid(static_model, barrier, zero_policy(static_model),
                              states, FilterConfig(), seed=0, n_oracle_samples=10)
        assert report.n_evaluated == 0
        assert report.n_skipped == 4
        assert report.delta is None
        assert report.h_min is None

    def test_vacuity_flag(self, static_model, unit_barrier):
        states = [np.zeros((2, 2))]
        cfg = FilterConfig(epsilon=0.0)
        report = certify_grid(static_model, unit_barrier, zero_policy(static_model),
                              states, cfg, seed=0, n_oracle_samples=10, k_steps=10)
        assert report.delta == 1.0
        assert report.vacuous

    @pytest.mark.parametrize("xi", [1.0, -1.0], ids=["in-sublevel", "none-in-sublevel"])
    def test_k_steps_below_one_rejected_before_work(self, static_model, xi):
        # Rejected before any policy call, with or without a state in the
        # sublevel set (where compute_delta would be reached, or not at all).
        calls = []

        def policy(x):
            calls.append(x)
            return zero_policy(static_model)(x)

        with pytest.raises(ContractViolationError):
            certify_grid(static_model, Barrier(ConstantValue(0.0), xi), policy,
                         [np.zeros((2, 2))], FilterConfig(), seed=0, n_oracle_samples=10,
                         k_steps=0)
        assert calls == []

    def test_empty_states_rejected(self, static_model, unit_barrier):
        with pytest.raises(ContractViolationError):
            certify_grid(static_model, unit_barrier, zero_policy(static_model),
                         [], FilterConfig(), seed=0, n_oracle_samples=10)

    def test_deterministic(self):
        m = make_static_model()
        b = Barrier(ConstantValue(0.2), 1.0)
        states = [np.full((2, 2), 0.3)]
        cfg = FilterConfig()
        a = certify_grid(m, b, zero_policy(m), states, cfg, seed=3, n_oracle_samples=40)
        bb = certify_grid(m, b, zero_policy(m), states, cfg, seed=3, n_oracle_samples=40)
        assert np.array_equal(a.margins, bb.margins)
        assert a.delta == bb.delta


class TestCertifyLockstep:
    """``certify_grid`` evaluates every state together: one h(x) call per 640
    states, one policy call, and the margin kernel on one row per state."""

    @pytest.mark.parametrize("fixture", ["spring_setup", "collision3_setup"])
    @pytest.mark.parametrize("n_samples", [1, 150, 200, 700])
    def test_matches_per_state_loop(self, request, fixture, n_samples):
        # Three kernel passes of max(1, 640 // N) states, the last one
        # partial; at N = 1 also five h(x) chunks of 640 states.
        s = request.getfixturevalue(fixture)
        n_in = 2 * max(1, 640 // n_samples) + 1
        states = interleaved_states(s, n_in, n_in + 3)
        cfg = FilterConfig(beta=2.0, epsilon=0.05, tolerance=0.3)
        got = certify_grid(s.model, s.barrier, s.safe, states, cfg, 5, n_samples, k_steps=3)
        ref = certify_reference(s.model, s.barrier, s.safe, states, cfg, 5, n_samples, k_steps=3)
        assert got.margins.tobytes() == ref.margins.tobytes()
        assert np.array_equal(got.passed, ref.passed)
        assert (got.h_min, got.delta) == (ref.h_min, ref.delta)
        assert (got.n_evaluated, got.n_skipped) == (ref.n_evaluated, ref.n_skipped)
        assert (got.n_evaluated, got.n_skipped, got.n_states) == (n_in, n_in + 3, len(states))

    @pytest.mark.parametrize("n_samples", [1, 150, 700])
    @pytest.mark.parametrize("inside", [True, False], ids=["mixed", "none-in-sublevel"])
    def test_work(self, spring_setup, n_samples, inside):
        s = spring_setup
        n_in = 641 if inside else 0
        states = interleaved_states(s, n_in, 700)
        value = CountingValue(s.value_model)
        steps, h_calls = [], []

        def transition_batch(*args):
            steps.append(1)
            return s.model.transition_batch(*args)

        def policy(x):
            h_calls.append(value.calls)
            return s.safe(x)

        model = replace(s.model, transition_batch=transition_batch)
        report = certify_grid(model, Barrier(value, s.barrier.xi), policy, states,
                              FilterConfig(), 0, n_samples)
        assert report.n_evaluated == n_in
        passes = -(-n_in // max(1, 640 // n_samples))
        assert h_calls == ([-(-len(states) // 640)] if inside else [])
        assert len(steps) == passes
        assert value.calls == -(-len(states) // 640) + passes

    @pytest.mark.parametrize("policy", [
        lambda x: np.zeros((len(x), 3)),
        lambda x: np.zeros(2),
        lambda x: np.zeros((len(x) + 1, 2)),
    ], ids=["wide", "one-row", "long"])
    def test_policy_output_shape_checked(self, static_model, unit_barrier, policy):
        with pytest.raises(ContractViolationError):
            certify_grid(static_model, unit_barrier, policy, [np.zeros((2, 2))] * 3,
                         FilterConfig(), seed=0, n_oracle_samples=10)

    @pytest.mark.parametrize("states", [
        [np.zeros((2, 2)), np.zeros((3, 2))],
        [np.zeros((2, 3))],
        [np.zeros((2, 2)), np.full((2, 2), np.nan)],
    ], ids=["ragged", "wrong-shape", "non-finite"])
    def test_bad_states_rejected(self, static_model, unit_barrier, states):
        with pytest.raises(ContractViolationError):
            certify_grid(static_model, unit_barrier, zero_policy(static_model), states,
                         FilterConfig(), seed=0, n_oracle_samples=10)

    def test_nan_barrier_rejected(self, static_model):
        # A NaN h(x) is not < 0, so the state is evaluated, and its NaN
        # successor values fail in the kernel, as in the per-state loop.
        barrier = Barrier(ConstantValue(np.nan), 1.0)
        for certify in (certify_grid, certify_reference):
            with pytest.raises(ContractViolationError, match="non-finite"):
                certify(static_model, barrier, zero_policy(static_model),
                        [np.zeros((2, 2))] * 2, FilterConfig(), 0, 10)
