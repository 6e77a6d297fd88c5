"""Policy construction, evaluation, and cross-entropy improvement."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from riskfilter import (
    ContractViolationError,
    MissingModelError,
    cem_improve,
    eval_policy,
    load_policy,
    make_model,
    make_proportional,
    mean_cost_objective,
    save_policy,
)


class TestProportional:
    def test_zero_error_zero_action(self):
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, (1.0, 0.5))
        u = pol(np.zeros((2, 2)))
        assert all(np.all(ui == 0.0) for ui in u)

    def test_zero_gain_zero_action(self):
        m = make_model("spring")
        pol = make_proportional(m, (0.0, 0.0))
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = pol(rng.normal(size=(3, 2)))
            assert all(np.all(ui == 0.0) for ui in u)

    def test_spring_hand_value(self):
        # Kp = Kd = 0.5 at the origin: u = 0.5 * 7/4 per actuated agent.
        m = make_model("spring")
        pol = make_proportional(m, (0.5, 0.5))
        u = pol(np.zeros((3, 2)))
        assert u[0] == pytest.approx(0.5 * 1.75, abs=1e-15)
        assert u[1] == pytest.approx(0.5 * 1.75, abs=1e-15)

    def test_unactuated_agent_empty(self):
        m = make_model("spring")
        pol = make_proportional(m, (0.5, 0.5))
        u = pol(np.zeros((3, 2)))
        assert u.shape == (2,)
        assert m.agent_columns(2) == slice(2, 2) and u[m.agent_columns(2)].size == 0

    def test_clipped_to_box(self):
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, (10.0, 10.0))
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = pol(rng.normal(scale=3, size=(2, 2)))
            for ui in u:
                assert np.all(ui >= m.action_low) and np.all(ui <= m.action_high)

    def test_gain_shape_mismatch(self):
        m = make_model("spring")
        with pytest.raises(ContractViolationError):
            make_proportional(m, np.ones((4, 2)))

    def test_per_agent_gains(self):
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, np.array([[1.0, 0.0], [0.0, 1.0]]))
        u = pol(np.array([[0.5, 0.3], [0.5, 0.3]]))
        assert u[0] == pytest.approx(-0.5)
        assert u[1] == pytest.approx(-0.3)

    def test_setpoints(self):
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, (1.0, 0.0), setpoints=[-0.5, 0.5])
        u = pol(np.zeros((2, 2)))
        assert u[0] == pytest.approx(-0.5)
        assert u[1] == pytest.approx(0.5)

    def test_setpoint_count_mismatch(self):
        m = make_model("collision", n_agents=2)
        with pytest.raises(ContractViolationError):
            make_proportional(m, (1.0, 0.0), setpoints=[0.0, 1.0, 2.0])

    def test_state_shape_mismatch(self):
        m = make_model("spring")
        pol = make_proportional(m, (0.5, 0.5))
        with pytest.raises(ContractViolationError):
            eval_policy(pol, np.zeros((2, 2)))


class TestCem:
    def gain_distance_objective(self, target):
        def objective(policy):
            return float(np.sum((policy.gains[:2] - target) ** 2))
        return objective

    def test_zero_iterations_returns_init(self):
        m = make_model("collision", n_agents=2)
        init = make_proportional(m, (1.0, 0.5))
        res = cem_improve(m, init, self.gain_distance_objective(np.zeros((2, 2))),
                          0, 8, 0.25, 0)
        assert res.policy is init
        assert len(res.objective_trace) == 1

    def test_trace_monotone_and_improving(self):
        m = make_model("collision", n_agents=2)
        init = make_proportional(m, (1.0, 0.5))
        target = np.array([[0.2, -0.4], [0.0, 0.8]])
        res = cem_improve(m, init, self.gain_distance_objective(target), 25, 24, 0.25, 3)
        trace = res.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] < 0.25 * trace[0]

    def test_deterministic(self):
        m = make_model("collision", n_agents=2)
        init = make_proportional(m, (1.0, 0.5))
        obj = self.gain_distance_objective(np.zeros((2, 2)))
        a = cem_improve(m, init, obj, 5, 12, 0.25, 7)
        b = cem_improve(m, init, obj, 5, 12, 0.25, 7)
        assert np.array_equal(a.policy.gains, b.policy.gains)
        assert a.objective_trace == b.objective_trace

    def test_small_population_rejected(self):
        m = make_model("collision", n_agents=2)
        init = make_proportional(m, (1.0, 0.5))
        with pytest.raises(ContractViolationError):
            cem_improve(m, init, self.gain_distance_objective(np.zeros((2, 2))),
                        3, 1, 0.25, 0)

    def test_mean_cost_objective_improves(self):
        # Common random numbers: the returned objective can never exceed
        # the initial policy's on the same evaluation seed.
        m = make_model("spring")
        init = make_proportional(m, (0.1, 0.1))
        rng = np.random.default_rng(5)
        states = [rng.uniform(-1, 1, size=(3, 2)) for _ in range(2)]
        objective = mean_cost_objective(m, states, horizon=15, n_samples=1, seed=2)
        res = cem_improve(m, init, objective, 3, 8, 0.25, 1)
        assert res.objective_trace[-1] <= res.objective_trace[0]
        assert objective(res.policy) == res.objective_trace[-1]


class TestPolicyPersistence:
    def test_round_trip(self, tmp_path):
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, (2.0, 0.3), setpoints=[-3.0, 3.0])
        path = tmp_path / "policy.bin"
        save_policy(pol, path)
        back = load_policy(path)
        assert back.kind == pol.kind
        assert np.array_equal(back.gains, pol.gains)
        assert np.array_equal(back.setpoints, pol.setpoints)
        assert back.action_dims == pol.action_dims
        x = np.array([[0.4, -0.2], [-0.1, 0.3]])
        for a, b in zip(pol(x), back(x)):
            assert np.array_equal(a, b)

    def test_unknown_kind_rejected(self, tmp_path):
        m = make_model("collision", n_agents=2)
        path = tmp_path / "policy.bin"
        save_policy(replace(make_proportional(m, (1.0, 0.5)), kind="tabulated"), path)
        with pytest.raises(MissingModelError):
            load_policy(path)
