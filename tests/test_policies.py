"""Policy construction and evaluation."""

from __future__ import annotations

import numpy as np
import pytest

from riskfilter import ContractViolationError, eval_policy, make_model, make_proportional


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

    @pytest.mark.parametrize("gains", [np.ones((2, 2)), np.ones((3, 2)), np.ones(3), 1.0],
                             ids=["per-actuated-agent", "per-agent", "three", "scalar"])
    def test_per_agent_gains_rejected(self, gains):
        # One [Kp, Kd] pair serves every actuated agent; spring has two
        # actuated agents of three, so neither gain table is accepted.
        m = make_model("spring")
        with pytest.raises(ContractViolationError):
            make_proportional(m, gains)

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
