"""Benchmark dynamics: preset construction, transitions, safety, cost, reward."""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from riskfilter import (
    ConfigError,
    ContractViolationError,
    draw_risk_samples,
    make_model,
)
from riskfilter.dynamics import preset_shape


def zero_step(model, x, u, theta=0.0):
    """model.transition at theta with zero process noise."""
    return model.transition(x, u, theta, np.zeros((model.n_agents, model.state_dim)))


class TestMakeModel:
    def test_spring_defaults(self):
        m = make_model("spring")
        assert m.n_agents == 3
        assert m.action_dims == (1, 1, 0)
        assert m.noise_scale == 0.01
        assert m.gamma == 0.99
        assert np.allclose(m.x_ref, [1.75, 0.0])
        assert m.actuated_agents == (0, 1)

    def test_collision_defaults(self):
        m = make_model("collision", n_agents=2)
        assert m.n_agents == 2
        assert m.action_dims == (1, 1)
        assert m.noise_scale == 0.1
        assert np.allclose(m.x_ref, [0.0, 0.0])

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            make_model("pendulum")

    def test_collision_needs_two_agents(self):
        with pytest.raises(ConfigError):
            make_model("collision", n_agents=1)

    def test_spring_agent_count_fixed(self):
        with pytest.raises(ConfigError):
            make_model("spring", n_agents=4)


class TestPresetShape:
    """``preset_shape`` states each preset's agent-count rule and
    dimensions once; ``make_model`` builds through it."""

    @pytest.mark.parametrize("preset, n_agents", [("spring", None), ("spring", 3),
                                                  ("collision", None), ("collision", 2),
                                                  ("collision", 3), ("collision", 7)])
    def test_matches_built_model(self, preset, n_agents):
        m = make_model(preset, n_agents=n_agents)
        assert preset_shape(preset, n_agents) == (m.n_agents, m.state_dim, sum(m.action_dims))

    @pytest.mark.parametrize("preset, n_agents", [("spring", 4), ("collision", 1),
                                                  ("pendulum", None)])
    def test_same_error_as_make_model(self, preset, n_agents):
        with pytest.raises(ConfigError) as shape_err:
            preset_shape(preset, n_agents)
        with pytest.raises(ConfigError) as model_err:
            make_model(preset, n_agents=n_agents)
        assert shape_err.value.code == model_err.value.code == "invalid-value"
        assert str(shape_err.value) == str(model_err.value)

    def test_builds_nothing_at_huge_agent_counts(self):
        # A model of 10^12 agents would need terabytes; the shape is O(1).
        start = time.perf_counter()
        assert preset_shape("collision", 10**12) == (10**12, 2, 10**12)
        assert time.perf_counter() - start < 1.0


class TestStep:
    def test_spring_hand_evaluation(self):
        # From the origin with u = [0.1, 0.1] and no uncertainty the
        # positions stay put and the actuated velocities become 0.1*5*0.1.
        m = make_model("spring")
        x = np.zeros((3, 2))
        out = zero_step(m, x, np.array([0.1, 0.1]))
        assert out[0] == pytest.approx([0.0, 0.05], abs=1e-15)
        assert out[1] == pytest.approx([0.0, 0.05], abs=1e-15)
        assert out[2] == pytest.approx([0.0, 0.0], abs=0)

    def test_collision_hand_evaluation(self):
        m = make_model("collision", n_agents=2)
        x = np.array([[1.0, 0.5], [0.0, 0.0]])
        out = zero_step(m, x, np.array([0.2, 0.0]))
        assert out[0] == pytest.approx([1.005, 0.7], abs=1e-12)

    def test_collision_theta_coupling(self):
        m = make_model("collision", n_agents=2)
        x = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = zero_step(m, x, m.zero_action(), theta=0.5)
        assert out[0, 0] == pytest.approx(1.0 + 0.5 * math.sin(1.0), abs=1e-12)
        assert out[0, 1] == 0.0

    def test_step_deterministic(self):
        m = make_model("spring")
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2))
        u = np.array([0.3, -0.2])
        thetas, noises = draw_risk_samples(m, 1, rng)
        assert np.array_equal(m.transition(x, u, thetas[0], noises[0]),
                              m.transition(x, u, thetas[0], noises[0]))

    def test_origin_fixed_point(self):
        m = make_model("spring")
        x = np.zeros((3, 2))
        out = zero_step(m, x, m.zero_action())
        assert np.array_equal(out, x)

    def test_dimension_mismatch_rejected(self):
        # A joint action is one flat (A,) row: per-agent lists, ragged or
        # not, and rows of the wrong length are rejected.
        m = make_model("spring")
        with pytest.raises(ContractViolationError):
            m.validate_state(np.zeros((2, 2)))
        for bad in ([np.zeros(1), np.zeros(1)], [np.zeros(2), np.zeros(1), np.zeros(0)],
                    [np.zeros(1), np.zeros(1), np.zeros(0)], np.zeros(3), np.zeros((1, 2))):
            with pytest.raises(ContractViolationError):
                m.validate_action(bad)
        assert m.validate_action([0.5, -0.5]).tobytes() == np.array([0.5, -0.5]).tobytes()

    def test_batched_transition_matches_loop(self):
        # (B actions x S samples) in one call against per-sample transitions.
        for preset, m_agents in [("spring", None), ("collision", 3)]:
            m = make_model(preset, n_agents=m_agents)
            rng = np.random.default_rng(11)
            x = rng.normal(size=(m.n_agents, 2))
            rows = rng.uniform(-1, 1, size=(4, sum(m.action_dims)))
            thetas, noises = draw_risk_samples(m, 7, rng)
            batch = m.transition_batch(x, rows[:, None, :], thetas, noises)
            assert batch.shape == (4, 7, m.n_agents, 2)
            loop = np.stack([[m.transition(x, r, t, n) for t, n in zip(thetas, noises)]
                             for r in rows])
            assert np.array_equal(loop, batch)

    def test_batched_transition_broadcasts_leading_axes(self):
        # The lockstep form: (N, S) states, actions and samples, one each.
        for preset, m_agents in [("spring", None), ("collision", 3)]:
            m = make_model(preset, n_agents=m_agents)
            rng = np.random.default_rng(12)
            xs = rng.normal(size=(4, 3, m.n_agents, 2))
            us = rng.uniform(-1, 1, size=(4, 3, sum(m.action_dims)))
            thetas = rng.normal(size=(4, 3))
            noises = rng.normal(scale=0.1, size=(4, 3, m.n_agents, 2))
            batch = m.transition_batch(xs, us, thetas, noises)
            assert batch.shape == xs.shape
            for idx in np.ndindex(4, 3):
                one = m.transition(xs[idx], us[idx], thetas[idx], noises[idx])
                assert np.array_equal(batch[idx], one)

    def test_split_action(self):
        m = make_model("spring")
        row = np.array([0.3, -0.2])
        parts = m.split_action(row)
        assert [p.size for p in parts] == [1, 1, 0]
        assert np.array_equal(np.concatenate(parts), [0.3, -0.2])
        assert [m.agent_columns(i) for i in range(3)] == [slice(0, 1), slice(1, 2), slice(2, 2)]
        parts[0][0] = 9.0
        assert row[0] == 0.3                    # a copy, not a view of the row
        for bad in (np.zeros(3), np.zeros(1), np.zeros((1, 2))):
            with pytest.raises(ContractViolationError):
                m.split_action(bad)


class TestSampleUncertainty:
    """``draw_risk_samples``: S (theta, noise) samples as (thetas, noises) arrays."""

    def test_same_seed_identical(self):
        m = make_model("spring")
        a = draw_risk_samples(m, 5, 42)
        b = draw_risk_samples(m, 5, 42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_theta_mean_law_of_large_numbers(self):
        m = make_model("collision", n_agents=2)
        thetas, _ = draw_risk_samples(m, 100_000, 0)
        assert abs(thetas.mean()) < 0.02

    def test_zero_scale_gives_zero_noise(self):
        m = make_model("spring", noise_scale=0.0)
        _, noises = draw_risk_samples(m, 5, 5)
        assert np.all(noises == 0.0)

    def test_noise_scale(self):
        m = make_model("collision", n_agents=2)
        _, noises = draw_risk_samples(m, 20_000, 1)
        assert noises.std() == pytest.approx(0.1, rel=0.05)

    @pytest.mark.parametrize("preset, agents", [("spring", None), ("collision", 3),
                                                ("collision", 5)])
    @pytest.mark.parametrize("n_samples", [5, 200])
    @pytest.mark.parametrize("seed", [7, np.random.SeedSequence([7, 3, 1])])
    def test_matches_per_sample_reference_loop(self, preset, agents, n_samples, seed):
        # Reference: per sample, one theta draw, then one (M, d_x) noise draw.
        m = make_model(preset, n_agents=agents)
        thetas, noises = draw_risk_samples(m, n_samples, seed)
        rng = np.random.default_rng(seed)
        ref_thetas, ref_noises = [], []
        for _ in range(n_samples):
            ref_thetas.append(float(rng.standard_normal()))
            ref_noises.append(rng.standard_normal((m.n_agents, m.state_dim)) * m.noise_scale)
        assert thetas.shape == (n_samples,)
        assert noises.shape == (n_samples, m.n_agents, m.state_dim)
        assert thetas.tobytes() == np.array(ref_thetas).tobytes()
        assert noises.tobytes() == np.stack(ref_noises).tobytes()

    def test_seed_required(self):
        # None would draw from OS entropy: samples must repeat from the seed.
        with pytest.raises(ContractViolationError):
            draw_risk_samples(make_model("spring"), 5, None)


class TestSafeSet:
    def test_spring_inside(self):
        m = make_model("spring")
        assert m.is_safe(np.array([[1.9, 0], [1.9, 0], [1.9, 0]]))

    def test_spring_boundary_inclusive(self):
        m = make_model("spring")
        assert m.is_safe(np.array([[2.0, 0], [0, 0], [0, 0]]))

    def test_spring_outside(self):
        m = make_model("spring")
        assert not m.is_safe(np.array([[2.1, 0], [0, 0], [0, 0]]))

    def test_collision_gap(self):
        m = make_model("collision", n_agents=2)
        assert not m.is_safe(np.array([[0.0, 0], [0.1, 0]]))
        assert m.is_safe(np.array([[0.0, 0], [0.2, 0]]))

    def test_collision_permutation_invariant(self):
        m = make_model("collision", n_agents=3)
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.normal(size=(3, 2))
            perm = rng.permutation(3)
            assert m.is_safe(x) == m.is_safe(x[perm])
            assert m.cost_fn(x) == pytest.approx(m.cost_fn(x[perm]), abs=1e-12)


class TestCost:
    def test_spring_origin_negligible(self):
        m = make_model("spring")
        assert m.cost_fn(np.zeros((3, 2))) < 1e-12

    def test_spring_boundary_half(self):
        m = make_model("spring")
        x = np.array([[2.0, 0], [2.0, 0], [2.0, 0]])
        assert m.cost_fn(x) == pytest.approx(0.5, abs=1e-12)

    def test_collision_coincident(self):
        m = make_model("collision", n_agents=2)
        expected = 1.0 / (1.0 + math.exp(-0.4))
        assert m.cost_fn(np.zeros((2, 2))) == pytest.approx(expected, abs=1e-12)

    def test_cost_bounded_unit_interval(self):
        rng = np.random.default_rng(4)
        for m in (make_model("spring"), make_model("collision", n_agents=3)):
            for _ in range(200):
                c = m.cost_fn(rng.normal(scale=3.0, size=(m.n_agents, 2)))
                assert 0.0 <= c <= 1.0

    def test_cost_reflects_violating_agents(self):
        # An agent far past the margin contributes nearly its full 1/M share.
        m = make_model("spring")
        x = np.array([[3.0, 0], [0.0, 0], [0.0, 0]])
        assert m.cost_fn(x) > 0.5 / 3
        x2 = np.array([[3.0, 0], [-3.0, 0], [0.0, 0]])
        assert m.cost_fn(x2) > 2 * 0.5 / 3

    def test_no_overflow_far_outside(self):
        m = make_model("spring")
        c = m.cost_fn(np.array([[50.0, 0], [-50.0, 0], [0.0, 0]]))
        assert np.isfinite(c)


class TestReward:
    def test_reference_gives_one(self):
        for m in (make_model("spring"), make_model("collision", n_agents=2)):
            x = np.tile(m.x_ref, (m.n_agents, 1))
            assert m.reward(x, m.zero_action()) == 1.0

    def test_spring_origin_value(self):
        m = make_model("spring")
        r = m.reward(np.zeros((3, 2)), m.zero_action())
        assert r == pytest.approx(math.exp(-1.2 * 1.75 ** 2), rel=1e-12)

    def test_decreasing_in_action_norm(self):
        m = make_model("spring")
        x = np.zeros((3, 2))
        rewards = [m.reward(x, np.array([a, a])) for a in (0.0, 0.3, 0.6, 1.0)]
        assert all(r1 > r2 for r1, r2 in zip(rewards, rewards[1:]))

    def test_action_penalty_sums_agents_in_order(self):
        # The penalty adds each agent's u_i @ u_i in agent order, from 0, so
        # rewards keep their bits whatever form the joint action took.
        m = make_model("collision", n_agents=5)
        rng = np.random.default_rng(8)
        for _ in range(50):
            x, u = rng.normal(size=(5, 2)), rng.uniform(-1, 1, 5)
            squares = 0
            for ui in u:
                squares += float(ui * ui)
            err = x - m.x_ref
            penalty = m.action_weight * squares + float(np.sum(m.state_weights * err * err))
            assert m.reward(x, u) == float(np.exp(-penalty))

    def test_bounded_by_one(self):
        m = make_model("collision", n_agents=2)
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = rng.normal(size=(2, 2))
            assert m.reward(x, rng.uniform(-1, 1, 2)) <= 1.0
