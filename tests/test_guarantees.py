"""Closed-form safety probability and empirical certification."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import ConstantValue, make_static_model, zero_policy
from riskfilter import (
    Barrier,
    ContractViolationError,
    FilterConfig,
    GuaranteeDomainError,
    certify_grid,
    compute_delta,
)


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
