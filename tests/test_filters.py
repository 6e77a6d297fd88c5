"""Safety filters: risk condition, candidate search, projection, switching."""

from __future__ import annotations

import itertools
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import ConstantValue, QuadraticValue, h_of, make_static_model
from riskfilter import (
    Barrier,
    Branch,
    ContractViolationError,
    FilterConfig,
    GuaranteeDomainError,
    SwitchingController,
    centralized_filter,
    check_condition,
    draw_risk_samples,
    make_model,
    make_proportional,
    pessimistic_filter,
    proximity_filter,
    risk_lower,
    switching_filter,
)
from riskfilter import filters as filters_module
from riskfilter.filters import (
    _against,
    _corners_first,
    _grid,
    _margins,
    _one_sample_bound,
    _ordered_candidates,
    _project_ball,
    _screen,
    proximity_radius,
    solve_pairs,
)


def _first_feasible(cands, score, tolerance):
    """(the first candidate whose score clears the tolerance, its score), or None."""
    for cand in cands:
        if score(cand) >= tolerance:
            return cand, score(cand)
    return None


def _pessimistic_loop(model, barrier, agent, x, nominal, cfg, samples, h_now):
    """Reference: ``agent``'s worst-case search as the plain per-candidate,
    per-combo ``check_condition`` loop, for one action dimension per agent;
    (action, worst-case margin) or None."""
    axis = np.linspace(model.action_low, model.action_high, cfg.grid_size)
    cols = model.agent_columns(agent)
    others = [j for j in range(len(nominal)) if not cols.start <= j < cols.stop]
    own = nominal[cols]
    cands = sorted([own] + [np.array([g]) for g in axis], key=lambda c: np.sum((c - own) ** 2))

    def worst(cand):
        margins = []
        for combo in itertools.product(axis, repeat=len(others)):
            u = np.empty(len(nominal))
            u[cols], u[others] = cand, combo
            margins.append(check_condition(model, barrier, x, u, cfg, samples, h_now)[1])
        return min(margins)

    return _first_feasible(cands, worst, cfg.tolerance)


def reference_ordered_candidates(nominal, cfg, low, high):
    """Reference: the candidate order as a plain argsort and delete."""
    grid = _grid(nominal.size, cfg.grid_size, low, high)
    d2 = np.sum((grid - nominal) ** 2, axis=1)
    order = np.argsort(d2, kind="stable")
    for k in range(np.count_nonzero(d2 == 0.0)):
        if (grid[order[k]] == nominal).all():
            order = np.concatenate([order[:k], order[k + 1:]])
            break
    cands = np.empty((len(order) + 1, nominal.size))
    cands[0] = nominal
    np.take(grid, order, axis=0, out=cands[1:])
    return cands


def reference_other_grid(model, agent, cfg):
    """Reference: (own, combos), the mask of ``agent``'s columns in a joint
    row and the grid over every other action dimension."""
    own = np.zeros(sum(model.action_dims), dtype=bool)
    own[model.agent_columns(agent)] = True
    return own, _grid(int(np.sum(~own)), cfg.grid_size, model.action_low, model.action_high)


def reference_against(own, cands, combos):
    """Reference: (C * K, A) rows pairing C own candidates with K combos,
    candidate-major, written through boolean masks."""
    rows = np.empty((len(cands), len(combos), own.size))
    rows[:, :, own] = cands[:, None, :]
    rows[:, :, ~own] = combos[None, :, :]
    return rows.reshape(-1, own.size)


def reference_project_ball(v, center, radius):
    """Reference: the fallback's projection through ``np.linalg.norm``."""
    d = float(np.linalg.norm(v - center))
    if d <= radius:
        return v
    return center + radius * (v - center) / d


def worst_case_margin(model, barrier, agent, action, x, cfg, samples, h_now) -> float:
    """Exhaustive reference: the minimum margin of ``agent``'s action over the
    whole grid of the other agents' actions, in one kernel block."""
    x = model.validate_state(x)
    own, combos = reference_other_grid(model, agent, cfg)
    rows = reference_against(own, np.asarray(action, dtype=float).reshape(1, -1), combos)
    return float(np.min(_margins(model, barrier, x, cfg, samples, h_now, rows)))


class TestFilterConfig:
    def test_defaults_valid(self):
        cfg = FilterConfig()
        assert cfg.alpha == 0.1 and cfg.n_samples == 5

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 1.5},
        {"alpha": -0.1},
        {"epsilon": -1.0},
        {"beta": 0.0},
        {"beta": -2.0},
        {"n_samples": 0},
        {"grid_size": 1},
        {"radius": -0.5},
        {"radius_mode": "spherical"},
        {"tolerance": -1e-3},
        {"radius_mode": "margin", "alpha": 0.3, "alpha_bar": 0.2},
        {"radius_mode": "margin", "epsilon": 0.5, "epsilon_bar": 0.1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ContractViolationError):
            FilterConfig(**kwargs)

    @pytest.mark.parametrize("field", ["epsilon", "epsilon_bar", "beta", "radius", "tolerance",
                                       "lipschitz_h", "lipschitz_fu"])
    def test_nan_rejected(self, field):
        # A NaN passed every `x < 0` check, and then made every solve
        # read infeasible with no error.  The Lipschitz constants are read
        # only by the margin-derived radius.
        mode = "margin" if field.startswith("lipschitz") else "fixed"
        with pytest.raises(ContractViolationError):
            FilterConfig(radius_mode=mode, **{field: math.nan})
        FilterConfig(radius_mode=mode, **{field: math.inf})


class TestCheckCondition:
    def test_static_margin(self, static_model, unit_barrier):
        cfg = FilterConfig(alpha=0.1, epsilon=0.0)
        ok, margin = check_condition(
            static_model, unit_barrier, np.zeros((2, 2)),
            static_model.zero_action(), cfg, draw_risk_samples(static_model, cfg.n_samples, 0),
            1.0,
        )
        assert ok
        assert margin == pytest.approx(0.9, abs=1e-12)

    def test_large_epsilon_never_satisfied(self, static_model, unit_barrier):
        cfg = FilterConfig(epsilon=10.0)
        for a in np.linspace(-1, 1, 9):
            u = np.array([a, -a])
            ok, margin = check_condition(static_model, unit_barrier,
                                         np.zeros((2, 2)), u, cfg,
                                         draw_risk_samples(static_model, cfg.n_samples, 1), 1.0)
            assert not ok
            assert margin <= 1.0 - 10.0

    def test_risk_neutral_limit_matches_expectation(self):
        m = make_model("collision", n_agents=2)
        b = Barrier(QuadraticValue(0.5), 4.0)
        x = np.array([[0.5, 0.1], [-0.4, 0.2]])
        u = np.array([0.3, -0.2])
        cfg = FilterConfig(beta=1e-8, n_samples=32)
        samples = draw_risk_samples(m, cfg.n_samples, 3)
        h_now = float(b.value(m.flatten_state(x)))
        _, margin = check_condition(m, b, x, u, cfg, samples=samples, h_now=h_now)
        values = [b.value(m.flatten_state(m.transition(x, u, theta, noise)))
                  for theta, noise in zip(*samples)]
        expected = np.mean(values) - cfg.alpha * h_now - cfg.epsilon
        assert margin == pytest.approx(expected, abs=1e-6)

    def test_samples_required(self):
        # Without a draw the margin would come from OS entropy and differ
        # from call to call; the caller must pass its samples (and h(x)).
        m = make_model("collision", n_agents=2)
        b = Barrier(QuadraticValue(0.5), 4.0)
        u = np.array([0.3, -0.2])
        with pytest.raises(TypeError):
            check_condition(m, b, np.array([[0.5, 0.1], [-0.4, 0.2]]), u, FilterConfig())

    def test_non_finite_barrier_rejected(self, static_model):
        class NanValue:
            def predict(self, x):
                shape = np.shape(x)[:-1]
                return np.full(shape, np.nan) if shape else np.nan

        cfg = FilterConfig()
        with pytest.raises(ContractViolationError):
            check_condition(static_model, Barrier(NanValue(), 1.0),
                            np.zeros((2, 2)), static_model.zero_action(), cfg,
                            draw_risk_samples(static_model, cfg.n_samples, 0), 1.0)


class TestCentralized:
    def test_feasible_nominal_returned_exactly(self, static_model, unit_barrier):
        nom = np.array([0.123, -0.456])
        cfg = FilterConfig()
        out = centralized_filter(static_model, unit_barrier, np.zeros((2, 2)), nom, cfg,
                                 draw_risk_samples(static_model, cfg.n_samples, 0), 1.0)
        assert out is not None
        assert out.branch is Branch.CENTRALIZED
        assert out.action.tolist() == [0.123, -0.456]
        assert out.action.base is None          # a copied row, not a view of a block

    def test_infeasible_returns_none(self, static_model, unit_barrier):
        cfg = FilterConfig(epsilon=10.0)
        out = centralized_filter(static_model, unit_barrier, np.zeros((2, 2)),
                                 static_model.zero_action(), cfg,
                                 draw_risk_samples(static_model, cfg.n_samples, 0), 1.0)
        assert out is None

    def test_skips_infeasible_nominal(self):
        # Barrier grows with ||x||^2; the static state never changes, so the
        # margin is (1 - alpha) * h for every action and all actions tie.
        # Use spring dynamics instead: large nominal action pushes outward.
        m = make_model("spring", noise_scale=0.0)
        b = Barrier(QuadraticValue(1.0), 4.0)
        x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        nom = np.array([1.0, 1.0])
        cfg = FilterConfig(alpha=1.0, grid_size=5, n_samples=3)
        samples = draw_risk_samples(m, cfg.n_samples, 2)
        out = centralized_filter(m, b, x, nom, cfg, samples, h_of(m, b, x))
        if out is not None:
            # Whatever was returned must satisfy the condition itself.
            ok, _ = check_condition(m, b, x, out.action, cfg, samples, h_of(m, b, x))
            assert ok


class TestPessimistic:
    def test_static_returns_nominal(self, static_model, unit_barrier):
        nom = np.array([0.25, 0.5])
        cfg = FilterConfig()
        out = pessimistic_filter(static_model, unit_barrier, [0], np.zeros((2, 2)), nom, cfg,
                                 [draw_risk_samples(static_model, cfg.n_samples, 0)], 1.0)[0]
        assert out is not None
        assert out.branch is Branch.PESSIMISTIC
        assert out.action[0] == 0.25
        assert out.margin == pytest.approx(0.9, abs=1e-12)

    def test_large_epsilon_infeasible(self, static_model, unit_barrier):
        cfg = FilterConfig(epsilon=10.0)
        out = pessimistic_filter(static_model, unit_barrier, [0], np.zeros((2, 2)),
                                 static_model.zero_action(), cfg,
                                 [draw_risk_samples(static_model, cfg.n_samples, 0)], 1.0)[0]
        assert out is None

    def test_unactuated_agent_rejected(self):
        m = make_model("spring")
        b = Barrier(ConstantValue(0.0), 1.0)
        cfg = FilterConfig()
        with pytest.raises(ContractViolationError):
            pessimistic_filter(m, b, [2], np.zeros((3, 2)), m.zero_action(), cfg,
                               [draw_risk_samples(m, cfg.n_samples, 0)], 1.0)[0]

    @pytest.mark.parametrize("agent", [-1, 2])
    def test_agent_outside_range_rejected(self, agent):
        # -1 used to solve for agent 1's columns and 2 to raise an IndexError.
        m = make_model("collision", n_agents=2)
        b = Barrier(ConstantValue(0.0), 1.0)
        cfg = FilterConfig()
        with pytest.raises(ContractViolationError, match="not in range"):
            pessimistic_filter(m, b, [agent], np.zeros((2, 2)), [0.9, -0.9], cfg,
                               [draw_risk_samples(m, cfg.n_samples, 0)], 1.0)

    def test_one_draw_per_agent_required(self):
        m = make_model("collision", n_agents=2)
        b = Barrier(QuadraticValue(0.5), 2.0)
        cfg = FilterConfig()
        for draws in ([draw_risk_samples(m, 5, 0)],
                      [draw_risk_samples(m, 5, 0), draw_risk_samples(m, 4, 1)]):
            with pytest.raises(ContractViolationError):
                pessimistic_filter(m, b, [0, 1], np.zeros((2, 2)), m.zero_action(), cfg, draws,
                                   2.0)

    def test_nominal_of_wrong_dimension_rejected(self):
        m = make_model("collision", n_agents=2)
        b = Barrier(QuadraticValue(0.5), 2.0)
        nom = np.array([0.1, 0.2, 0.0])
        cfg = FilterConfig()
        with pytest.raises(ContractViolationError):
            pessimistic_filter(m, b, [0], np.zeros((2, 2)), nom, cfg,
                               [draw_risk_samples(m, cfg.n_samples, 0)], 2.0)[0]

    def test_single_agent_equals_centralized(self):
        # With M = 1 the inner minimum is empty: same grid, same shared
        # samples, identical solves for every seed and state.
        def transition(x, u, thetas, noises):
            return x + 0.1 * u[..., :, None] + noises

        m = replace(make_static_model(1), transition=transition, transition_batch=transition,
                    noise_scale=0.05)
        b = Barrier(QuadraticValue(2.0), 3.0)
        nom = np.array([0.4])
        cfg = FilterConfig(grid_size=7, n_samples=4)
        rng = np.random.default_rng(0)
        for seed in range(10):
            x = rng.uniform(-1, 1, size=(1, 2))
            samples = draw_risk_samples(m, cfg.n_samples, seed)
            pes = pessimistic_filter(m, b, [0], x, nom, cfg, [samples], h_of(m, b, x))[0]
            cen = centralized_filter(m, b, x, nom, cfg, samples, h_of(m, b, x))
            assert (pes is None) == (cen is None)
            if pes is not None:
                assert np.array_equal(pes.action, cen.action)
                assert pes.margin == cen.margin

    def test_worst_case_property_small(self, spring_setup):
        # Feasible outputs survive exhaustive re-enumeration of the other
        # agents' grid under the shared samples (the acceptance suite runs
        # the full-size version).
        s = spring_setup
        cfg = FilterConfig(grid_size=5)
        x = np.zeros((3, 2))
        for agent in (0, 1):
            samples = draw_risk_samples(s.model, cfg.n_samples, 13)
            h_now = h_of(s.model, s.barrier, x)
            out = pessimistic_filter(s.model, s.barrier, [agent], x, s.nominal(x), cfg, [samples],
                                     h_now)[0]
            if out is None:
                continue
            for g in np.linspace(-1, 1, cfg.grid_size):
                u = np.full(2, g)
                u[agent] = out.action[0]
                ok, _ = check_condition(s.model, s.barrier, x, u, cfg,
                                        samples=samples, h_now=h_now)
                assert ok


class TestProximity:
    def proximity_direct(self, safe_vec, nom_vec, radius):
        d = len(safe_vec)
        m = replace(make_static_model(2), action_dims=(d, d))
        nom = np.concatenate([nom_vec, np.zeros(d)])
        safe = np.concatenate([safe_vec, np.zeros(d)])
        cfg = FilterConfig(radius=radius)
        return proximity_filter(m, 0, nom, safe, cfg, 1.0).action

    def test_nominal_inside_ball(self):
        u = self.proximity_direct(np.array([0.0]), np.array([0.03]), 0.05)
        assert u[0] == 0.03

    def test_projection_onto_boundary(self):
        u = self.proximity_direct(np.array([0.0]), np.array([0.3]), 0.05)
        assert u[0] == pytest.approx(0.05, abs=1e-15)

    def test_zero_radius_returns_safe(self):
        safe = np.array([0.11, -0.2])
        u = self.proximity_direct(safe, np.array([0.3, 0.4]), 0.0)
        assert np.array_equal(u, safe)

    def test_negative_margin_radius_rejected(self, static_model):
        cfg = FilterConfig(radius_mode="margin", alpha=0.1, alpha_bar=0.2,
                           epsilon=0.0, epsilon_bar=0.0)
        with pytest.raises(GuaranteeDomainError):
            proximity_filter(static_model, 0, static_model.zero_action(),
                             static_model.zero_action(), cfg, -9.0)

    @pytest.mark.parametrize("preset, agent, error", [
        ("collision", -1, "not in range"),      # returned agent 1's projection, [-0.05]
        ("collision", 2, "not in range"),       # raised an IndexError
        ("spring", 2, "unactuated"),
    ])
    def test_agent_without_columns_rejected(self, preset, agent, error):
        m = make_model(preset)
        with pytest.raises(ContractViolationError, match=error):
            proximity_filter(m, agent, [0.9, -0.9], [0.0, 0.0], FilterConfig(), 1.0)

    @pytest.mark.parametrize("radius_mode", ["fixed", "margin"])
    @pytest.mark.parametrize("h_now", [np.nan, np.inf, -np.inf])
    def test_non_finite_h_rejected(self, static_model, radius_mode, h_now):
        # NaN would pass the negative-radius check and project onto a NaN
        # ball; a fixed radius never reads h, but a non-finite h is a
        # broken barrier either way.
        cfg = FilterConfig(radius_mode=radius_mode)
        with pytest.raises(ContractViolationError, match="not finite"):
            proximity_radius(static_model, cfg, h_now)
        with pytest.raises(ContractViolationError, match="not finite"):
            proximity_filter(static_model, 0, static_model.zero_action(),
                             static_model.zero_action(), cfg, h_now)

    def test_minimizes_distance_within_ball(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            safe = rng.uniform(-1, 1, d)
            nom = rng.uniform(-2, 2, d)
            r = float(rng.uniform(0, 1.5))
            u = self.proximity_direct(safe, nom, r)
            assert np.linalg.norm(u - safe) <= r + 1e-12
            # No random feasible point does better.
            dirs = rng.normal(size=(1000, d))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            radii = r * rng.uniform(0, 1, 1000) ** (1.0 / d)
            points = safe + dirs * radii[:, None]
            dism = np.linalg.norm(points - nom, axis=1)
            assert np.linalg.norm(u - nom) <= dism.min() + 1e-9

    @pytest.mark.parametrize("nominal_dim, safe_dim", [(2, 1), (1, 2)])
    def test_actions_of_wrong_dimension_rejected(self, nominal_dim, safe_dim):
        # A 2-vector for a 1-D agent used to pass through the projection
        # and be mis-split across the agents by the switching controller.
        m = make_model("collision", n_agents=2)
        nom = np.concatenate([np.full(nominal_dim, 0.5), np.zeros(1)])
        safe = np.concatenate([np.full(safe_dim, 0.1), np.zeros(1)])
        with pytest.raises(ContractViolationError):
            proximity_filter(m, 0, nom, safe, FilterConfig(), 1.0)

    def test_default_is_box_free(self):
        # The proximity constraint has no box term: a nominal action
        # outside the box passes through when the ball allows it.
        u = self.proximity_direct(np.array([0.9]), np.array([1.3]), 0.5)
        assert u[0] == 1.3


class TestSwitching:
    def test_pessimistic_branch(self, static_model, unit_barrier):
        nom = np.array([0.2, 0.1])
        cfg = FilterConfig()
        samples = draw_risk_samples(static_model, cfg.n_samples, 4)
        out = switching_filter(static_model, unit_barrier, [0], np.zeros((2, 2)),
                               nom, static_model.zero_action(), cfg, [samples], 1.0)[0]
        assert out.branch is Branch.PESSIMISTIC
        pes = pessimistic_filter(static_model, unit_barrier, [0], np.zeros((2, 2)),
                                 nom, cfg, [samples], 1.0)[0]
        assert np.array_equal(out.action, pes.action)

    def test_forced_proximity_branch(self, static_model, unit_barrier):
        nom = np.array([0.9, 0.0])
        safe = np.array([0.1, 0.0])
        cfg = FilterConfig(epsilon=10.0, radius=0.05)
        out = switching_filter(static_model, unit_barrier, [0], np.zeros((2, 2)), nom, safe,
                               cfg, [draw_risk_samples(static_model, cfg.n_samples, 4)], 1.0)[0]
        assert out.branch is Branch.PROXIMITY
        expected = proximity_filter(static_model, 0, nom, safe, cfg, 1.0).action
        assert np.array_equal(out.action, expected)
        # The radius justifies the proximity action; no margin is evaluated.
        assert out.margin is None

    def test_deterministic(self, spring_setup):
        s = spring_setup
        x = np.array([[1.5, 1.0], [1.2, 0.5], [0.8, 0.2]])
        cfg = FilterConfig(grid_size=5)
        nominal, safe = s.nominal(x), s.safe(x)
        a = switching_filter(s.model, s.barrier, [0], x, nominal, safe, cfg,
                             [draw_risk_samples(s.model, cfg.n_samples, 6)],
                             h_of(s.model, s.barrier, x))[0]
        b = switching_filter(s.model, s.barrier, [0], x, nominal, safe, cfg,
                             [draw_risk_samples(s.model, cfg.n_samples, 6)],
                             h_of(s.model, s.barrier, x))[0]
        assert a.branch == b.branch
        assert a.margin == b.margin
        assert np.array_equal(a.action, b.action)

    def test_proximity_action_near_safe(self, spring_setup):
        s = spring_setup
        cfg = FilterConfig(epsilon=10.0, radius=0.05, grid_size=3)
        x = np.zeros((3, 2))
        nominal, safe = s.nominal(x), s.safe(x)
        out = switching_filter(s.model, s.barrier, [0], x, nominal, safe, cfg,
                               [draw_risk_samples(s.model, cfg.n_samples, 1)],
                               h_of(s.model, s.barrier, x))[0]
        assert out.branch is Branch.PROXIMITY
        u_safe = safe[s.model.agent_columns(0)]
        assert np.linalg.norm(out.action - u_safe) <= cfg.radius + 1e-12


class TestThreeAgentAdversaries:
    def test_pessimistic_enumerates_joint_combos(self):
        # With three actuated agents the worst case ranges over a 2-D grid
        # of the other two agents' actions.
        m = make_model("collision", n_agents=3, noise_scale=0.02)
        b = Barrier(QuadraticValue(0.1), 2.0)
        x = np.array([[0.4, 0.0], [-0.4, 0.0], [1.2, 0.0]])
        nom = np.array([0.2, 0.1, 0.0])
        cfg = FilterConfig(grid_size=3, n_samples=3)
        samples = draw_risk_samples(m, cfg.n_samples, 5)
        h_now = h_of(m, b, x)
        out = pessimistic_filter(m, b, [0], x, nom, cfg, [samples], h_now)[0]
        if out is not None:
            axis = np.linspace(-1, 1, 3)
            for g1 in axis:
                for g2 in axis:
                    u = np.array([out.action[0], g1, g2])
                    ok, _ = check_condition(m, b, x, u, cfg, samples=samples, h_now=h_now)
                    assert ok
        got = worst_case_margin(m, b, 0, np.array([0.2]), x, cfg, samples, h_now)
        assert np.isfinite(got)


class _PeakedValue:
    """V = the sum over agents of exp(-4 ||x_i||^2) of a state of 2-D agents:
    from x = 0 under f(x, u) = x + 0.5 u, exp(-2 u_i^2) per agent, so an
    agent's worst combo puts the others near u = 0, inside the grid, and
    the corners are the others' best combos."""

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        x = x.reshape(x.shape[:-1] + (-1, 2))
        return np.sum(np.exp(-4.0 * np.sum(x * x, axis=-1)), axis=-1)


def _drift(x, u, thetas, noises):
    """f(x, u) = x + 0.5 u + noise in every coordinate of every agent."""
    return x + 0.5 * u[..., :, None] + noises


class TestEarlyExit:
    """The pessimistic search drops a candidate at its first failing combo
    and evaluates a survivor on every combo.  Rows are counted at the
    model's transition_batch, one call per kernel pass, and the screen's
    calls at sample 0 apart: a screen sends a 2-D (B, A) block, the kernel
    (b, 1, A) stacks."""

    G = 9

    def drift_model(self, agents=3):
        # f(x, u) = x + 0.5 u in every coordinate of every agent, so from
        # x = 0 the corner combos, (-1, ..., -1) first, are the worst ones.
        calls, screens = [], []

        def transition_batch(x, u, thetas, noises):
            (screens if u.ndim == 2 else calls).append(u.reshape(-1, u.shape[-1]).copy())
            return _drift(x, u, thetas, noises)

        return (replace(make_static_model(agents), transition_batch=transition_batch),
                calls, screens)

    def solve(self, alpha, value=None, agents=3, nominal=1.0):
        m, calls, screens = self.drift_model(agents)
        b = Barrier(value or QuadraticValue(1.0), 1.5)
        nom = np.array([nominal] + [0.0] * (agents - 1))
        cfg = FilterConfig(alpha=alpha, grid_size=self.G, n_samples=5)
        out = pessimistic_filter(m, b, [0], np.zeros((agents, 2)), nom, cfg,
                                 [draw_risk_samples(m, cfg.n_samples, 0)], 1.5)[0]
        return out, calls, screens, (m, b, cfg)

    def test_all_fail_on_first_combo(self):
        # margin = 1.5 - 0.5 * (u0^2 + u1^2 + u2^2) - 1.5 * alpha: at
        # alpha = 0.5 every candidate fails at every corner, such as
        # (-1, -1), and passes on (0, 0).  The 9 x 81 block takes several
        # passes, so the 9 candidates (the nominal 1.0 is a grid point,
        # counted once) meet the screen at the first corner, (-1, -1).
        # Every sample is alike here, so the one-sample bound's log(5) / beta
        # of slack keeps every candidate, and one kernel pass of the 9
        # candidates x the 4 corners settles the solve.
        out, calls, screens, _ = self.solve(alpha=0.5)
        assert out is None
        assert len(screens) == 1 and screens[0].shape == (self.G, 3)
        assert np.all(screens[0][:, 1:] == -1.0)
        assert sorted(screens[0][:, 0]) == list(np.linspace(-1, 1, self.G))
        assert len(calls) == 1 and calls[0].shape == (4 * self.G, 3)
        assert calls[0][::4].tobytes() == screens[0].tobytes()
        corners = [[-1.0, -1.0], [-1.0, 1.0], [1.0, -1.0], [1.0, 1.0]]
        assert np.array_equal(calls[0][:, 1:], np.tile(corners, (self.G, 1)))

    def test_block_that_fits_one_pass_takes_every_combo(self):
        # Two agents, as on spring: the 10 candidates around a nominal off
        # the grid times 9 combos times 5 samples is 450 pairs, which fit
        # one pass, so the search first pairs every candidate with the two
        # corner combos, u1 = -1 and u1 = 1, in one pass of 20 rows, in
        # distance order.  At alpha = 1 every candidate fails there, and no
        # other combo is evaluated.
        out, calls, screens, _ = self.solve(alpha=1.0, agents=2, nominal=0.3)
        assert out is None and not screens         # the block fits: no screen
        assert [len(u) for u in calls] == [2 * 10]
        assert np.array_equal(calls[0][:, 1], np.tile([-1.0, 1.0], 10))
        assert list(calls[0][::2, 0]) == [0.3, 0.25, 0.5, 0.0, 0.75,
                                          -0.25, 1.0, -0.5, -0.75, -1.0]

    # Under QuadraticValue the worst combo is u1 = -1 (or +1), a corner, so a
    # candidate is feasible iff u0^2 <= 2 - 3 alpha.  Around the nominal 0.9
    # the candidates are 0.9, 1.0, 0.75, 0.5, 0.25, 0.0, -0.25, -0.5,
    # -0.75, -1.0; the corners drop those nearer than the winner.  Under
    # _PeakedValue at alpha = 0 the corners drop nothing around the nominal
    # 0.3, a candidate is feasible iff exp(-2 u0^2) <= 0.5, and the first
    # feasible one, 0.75, is the fifth.
    @pytest.mark.parametrize("alpha, value, nominal, winner, passes", [
        pytest.param(0.5, None, 0.9, 0.5, [20, 7], id="near"),
        pytest.param(0.66, None, 0.9, 0.0, [20, 7], id="far"),
        pytest.param(0.0, _PeakedValue(), 0.3, 0.75, [20, 7, 9 * 7], id="third"),
    ])
    def test_half_block_passes(self, alpha, value, nominal, winner, passes):
        # The corners take one pass of C x 2 = 20 rows, then the first
        # survivor meets the other K - 2 = 7 combos alone in a second.  When
        # it fails, the other survivors meet those 7 in a third.  Each row
        # goes in once, and the winner's margin is its worst case over the
        # whole grid.
        out, calls, screens, (m, b, cfg) = self.solve(alpha=alpha, value=value, agents=2,
                                                      nominal=nominal)
        assert out is not None and out.action[0] == winner and not screens
        assert [len(u) for u in calls] == passes
        rows = np.vstack(calls)
        assert len({r.tobytes() for r in rows}) == len(rows)
        inner = list(np.linspace(-1, 1, self.G)[1:-1])
        for u in calls[1:]:
            assert np.array_equal(u[:, 1], np.tile(inner, len(u) // 7))
        first = calls[1][0, 0]
        assert np.all(calls[1][:, 0] == first)
        if len(passes) == 3:
            assert first == nominal and first not in calls[2][:, 0]
        else:
            assert first == winner
        samples = draw_risk_samples(m, cfg.n_samples, 0)
        assert out.margin == worst_case_margin(m, b, 0, out.action, np.zeros((2, 2)),
                                               cfg, samples, 1.5)

    def test_feasible_survivor_sees_every_combo(self):
        # At alpha = 0.2 a candidate is feasible iff u0^2 <= 0.4: from the
        # nominal 1.0 the screen keeps all 9 first-corner rows (see
        # test_all_fail_on_first_combo), the 4 corners drop 1.0, 0.75,
        # -0.75 and -1.0 in one pass of 36 rows, then the first of the 5
        # survivors, 0.5, meets the other 77 combos alone and wins.
        out, calls, screens, (m, b, cfg) = self.solve(alpha=0.2)
        assert out is not None and out.action[0] == 0.5
        assert [len(u) for u in screens] == [9]
        assert [len(u) for u in calls] == [36, 77]
        assert np.all(calls[1][:, 0] == 0.5)
        rows = np.vstack(calls)
        combos = {tuple(r[1:]) for r in rows if r[0] == 0.5}
        assert combos == set(itertools.product(np.linspace(-1, 1, self.G), repeat=2))
        assert len({r.tobytes() for r in rows}) == len(rows)     # each row once
        samples = draw_risk_samples(m, cfg.n_samples, 0)
        assert out.margin == worst_case_margin(m, b, 0, out.action, np.zeros((3, 2)),
                                               cfg, samples, 1.5)

    def test_proximity_switch_sends_only_its_search_rows(self):
        # The proximity action is justified by its radius: after the
        # search fails, the switching solve evaluates no further margin.
        _, search, screened, (_, b, cfg) = self.solve(alpha=0.5)
        m, calls, screens = self.drift_model()
        nom = np.array([1.0, 0.0, 0.0])
        out = switching_filter(m, b, [0], np.zeros((3, 2)), nom, m.zero_action(), cfg,
                               [draw_risk_samples(m, cfg.n_samples, 0)], 1.5)[0]
        assert out.branch is Branch.PROXIMITY
        assert np.array_equal(np.vstack(calls), np.vstack(search))
        assert np.array_equal(np.vstack(screens), np.vstack(screened))

    class NanAtCorner(QuadraticValue):
        # NaN only where agents 1 and 2 both moved to +0.5, which the corner
        # combo (1, 1) alone reaches.
        def predict(self, x):
            x = np.asarray(x, dtype=float)
            out = np.asarray(super().predict(x), dtype=float)
            return np.where((x[..., 3] >= 0.5) & (x[..., 5] >= 0.5), np.nan, out)

    class NanAtLastCombo(QuadraticValue):
        # NaN only where agent 1 moved to +0.5 and agent 2 to +0.375, which
        # the search's last combo, (1, 0.75), the last one off the corners
        # in grid order, alone reaches.
        def predict(self, x):
            x = np.asarray(x, dtype=float)
            out = np.asarray(super().predict(x), dtype=float)
            return np.where((x[..., 3] >= 0.5) & (x[..., 5] == 0.375), np.nan, out)

    def test_non_finite_on_last_combo_of_survivor_rejected(self):
        with pytest.raises(ContractViolationError):
            self.solve(alpha=0.0, value=self.NanAtLastCombo(0.01))

    def test_non_finite_on_last_combo_of_dropped_candidate_unseen(self):
        # A candidate dropped at its first failing combo never meets its
        # later ones: at alpha = 0.5 the corners drop every candidate.
        out, calls, screens, _ = self.solve(alpha=0.5, value=self.NanAtLastCombo(1.0))
        assert out is None and len(calls) == 1 and len(screens) == 1

    def test_non_finite_at_corner_of_screen_survivor_rejected(self):
        # Every candidate that the screen keeps at the first corner meets
        # every corner in the kernel, so a NaN at the corner (1, 1) is seen
        # even when the corners drop every candidate.
        with pytest.raises(ContractViolationError):
            self.solve(alpha=0.5, value=self.NanAtCorner(1.0))


def _full_scan(model, barrier, x, nominal, cfg, samples, h_now):
    """Reference centralized solve with no screen: every candidate at all S."""
    x = model.validate_state(x)
    nominal = model.validate_action(nominal)
    cands = _ordered_candidates(nominal, cfg, model.action_low, model.action_high)
    margins = _margins(model, barrier, x, cfg, samples, h_now, cands)
    hits = np.flatnonzero(margins >= cfg.tolerance)
    return (cands[hits[0]], float(margins[hits[0]])) if hits.size else None


def _tagged_model(agents):
    """f(x, u) = x + 0.5 u in the first coordinate; the second carries the
    sample's theta, so a value stub can tell the samples apart."""
    def transition_batch(x, u, thetas, noises):
        pos = x[..., 0] + 0.5 * u[..., :, None][..., 0]
        out = np.empty(np.broadcast_shapes(pos.shape, np.shape(thetas) + (1,)) + (2,))
        out[..., 0] = pos
        out[..., 1] = np.asarray(thetas)[..., None]
        return out

    return replace(make_static_model(agents), transition_batch=transition_batch)


class _NanAt:
    """V = the sum of the squared positions of a ``_tagged_model`` state, NaN
    at the successor of one joint action from x = 0 at one sample, told
    apart by the sample's theta."""

    def __init__(self, theta, action):
        self.theta, self.target = theta, 0.5 * np.asarray(action)

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        out = np.sum(x[..., 0::2] ** 2, axis=-1)
        hit = (x[..., 1] == self.theta) & np.all(x[..., 0::2] == self.target, axis=-1)
        return np.where(hit, np.nan, out)


class _PredictOnly:
    """A value model with ``predict`` alone, as the test stubs have."""

    def __init__(self, inner):
        self.predict = inner.predict


class TestScreen:
    """The centralized filter first evaluates every candidate at sample 0
    and drops those that the entropic operator's one-sample bound rules
    out; the survivors go to the kernel at all S samples."""

    @settings(deadline=None, max_examples=300)
    @given(n=st.integers(2, 200), center=st.floats(-1e6, 1e6),
           spread=st.floats(0.0, 1e6), beta=st.floats(1e-3, 1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_risk_lower_under_every_one_sample_bound(self, n, center, spread, beta, seed):
        # risk_lower(v) <= v_s + log(S)/beta for every s, with the slack,
        # as the kernel computes it: one row of a (b, S) stack.
        v = np.clip(center + spread * np.random.default_rng(seed).standard_normal(n),
                    -1e6, 1e6)
        assert np.all(risk_lower(v[None, :], beta)[0] <= _one_sample_bound(v, n, beta))

    def test_matches_full_scan_bitwise(self, spring_setup, collision_setup, collision3_setup):
        # The chosen action and its margin are the no-screen scan's, bit for
        # bit, on trained barriers (whose values in the screen's stack and in
        # the kernel's may differ by a few ulps), feasible and infeasible
        # solves alike, and the screen drops some candidates.
        outcomes, rejected = set(), 0
        for s in (spring_setup, collision_setup, collision3_setup):
            rng = np.random.default_rng(s.model.n_agents)
            for beta, tolerance, epsilon in itertools.product((0.1, 1.0, 10.0), (0.0, 0.3),
                                                              (0.0, 0.05)):
                cfg = FilterConfig(beta=beta, tolerance=tolerance, epsilon=epsilon)
                for seed in range(3):
                    x = s.model.validate_state(s.box_sampler(rng))
                    nom = s.nominal(x)
                    samples = draw_risk_samples(s.model, cfg.n_samples, seed)
                    h_now = h_of(s.model, s.barrier, x)
                    out = centralized_filter(s.model, s.barrier, x, nom, cfg, samples, h_now)
                    ref = _full_scan(s.model, s.barrier, x, nom, cfg, samples, h_now)
                    assert (out is None) == (ref is None)
                    if out is not None:
                        assert out.action.tobytes() == ref[0].tobytes()
                        assert out.margin == ref[1]
                    outcomes.add(out is not None)
                    cands = _ordered_candidates(nom, cfg, s.model.action_low,
                                                s.model.action_high)
                    rejected += int(np.sum(~_screen(s.model, s.barrier, x, cfg, samples,
                                                    h_now, cands)))
        assert outcomes == {True, False} and rejected > 0

    def test_float32_screen_keeps_every_float64_survivor(self, spring_setup, collision_setup,
                                                         collision3_setup):
        # The screen bounds h at sample 0 by xi - lower(x+).  A value model
        # without ``lower`` goes through ``predict`` in the same call, and
        # lower <= predict, so the float32 screen keeps a superset of the
        # float64 screen's rows: at most a few more, and it still drops most.
        rows = kept64 = kept32 = 0
        for s in (spring_setup, collision_setup, collision3_setup):
            exact = Barrier(_PredictOnly(s.value_model), s.barrier.xi)
            rng = np.random.default_rng(s.model.n_agents)
            for beta, tolerance, epsilon in itertools.product((0.1, 1.0, 10.0), (0.0, 0.3),
                                                              (0.0, 0.05)):
                cfg = FilterConfig(beta=beta, tolerance=tolerance, epsilon=epsilon)
                for seed in range(3):
                    x = s.model.validate_state(s.box_sampler(rng))
                    samples = draw_risk_samples(s.model, cfg.n_samples, seed)
                    h_now = h_of(s.model, s.barrier, x)
                    cands = _ordered_candidates(s.nominal(x), cfg, s.model.action_low,
                                                s.model.action_high)
                    fast = _screen(s.model, s.barrier, x, cfg, samples, h_now, cands)
                    slow = _screen(s.model, exact, x, cfg, samples, h_now, cands)
                    assert np.all(fast[slow])
                    rows += len(cands)
                    kept64, kept32 = kept64 + slow.sum(), kept32 + fast.sum()
        assert 0 < kept64 <= kept32 <= kept64 + 0.01 * rows < rows

    def counting_model(self, agents=2):
        # f(x, u) = x + 0.5 u, as TestEarlyExit.drift_model; each call is
        # recorded as (its rows, the shape of its thetas): () for the
        # screen's one shared sample, (S,) for a kernel pass.
        calls = []

        def transition_batch(x, u, thetas, noises):
            calls.append((u.reshape(-1, u.shape[-1]).copy(), np.shape(thetas)))
            return _drift(x, u, thetas, noises)

        return replace(make_static_model(agents), transition_batch=transition_batch), calls

    def solve(self, n_samples=5, **kwargs):
        m, calls = self.counting_model()
        cfg = FilterConfig(grid_size=9, n_samples=n_samples, **kwargs)
        nom = np.array([1.0, 1.0])
        out = centralized_filter(m, Barrier(QuadraticValue(1.0), 1.5), np.zeros((2, 2)), nom,
                                 cfg, draw_risk_samples(m, cfg.n_samples, 0), 1.5)
        return out, calls

    def test_only_survivors_meet_every_sample(self):
        # Every sample equals sample 0: h(x+) = 1.5 - 0.5 (u0^2 + u1^2), and at
        # alpha = 0.5, beta = 100 a candidate is feasible iff u0^2 + u1^2 <= 1.5.
        # No grid sum of squares lies in (1.5, 1.5 + 2 log(5)/100], so the
        # screen keeps exactly the feasible candidates.
        out, calls = self.solve(alpha=0.5, beta=100.0)
        # The nominal, then the grid in grid order less its last point, (1, 1),
        # which equals the nominal: 81 rows in one 2-D block.
        block = np.vstack([[1.0, 1.0], _grid(2, 9, -1.0, 1.0)[:-1]])
        (screen, one), *kernel = calls
        assert one == () and screen.tobytes() == block.tobytes()
        assert kernel and all(n == (5,) for _, n in kernel)
        sent = np.vstack([rows for rows, _ in kernel])
        feasible = block[np.sum(block ** 2, axis=1) <= 1.5]
        assert sent.tobytes() == feasible.tobytes()        # in grid order
        assert 0 < len(sent) < len(block)
        # The nearest feasible row to (1, 1): the first of the distance order.
        ordered = reference_ordered_candidates(np.array([1.0, 1.0]), FilterConfig(), -1.0, 1.0)
        first = ordered[np.sum(ordered ** 2, axis=1) <= 1.5][0]
        assert out.action.tolist() == first.tolist() == [0.75, 0.75]

    def test_hopeless_solve_sends_no_full_rows(self):
        out, calls = self.solve(epsilon=10.0)
        assert out is None
        assert [(len(rows), n) for rows, n in calls] == [(81, ())]

    def test_single_sample_screens_too(self):
        # At S = 1 the screen reads the kernel's only sample, in its cheaper
        # float32 pass, and the kernel takes only the survivors.  The screen
        # takes the whole block, the nominal and then the grid in grid order
        # less the nominal's duplicate (1, 1), its last point.  At alpha =
        # 0.5, beta = 100 the one-sample bound adds no log(S)/beta, so the
        # survivors are the feasible candidates, u0^2 + u1^2 <= 1.5.
        out, calls = self.solve(n_samples=1, alpha=0.5, beta=100.0)
        block = np.vstack([[1.0, 1.0], _grid(2, 9, -1.0, 1.0)[:-1]])
        (screen, one), *kernel = calls
        assert one == () and screen.tobytes() == block.tobytes()
        assert kernel and all(n == (1,) for _, n in kernel)
        sent = np.vstack([rows for rows, _ in kernel])
        assert sent.tobytes() == block[np.sum(block ** 2, axis=1) <= 1.5].tobytes()
        assert out.action.tolist() == [0.75, 0.75]
        # A hopeless solve ends at the screen, with no kernel row.
        out, calls = self.solve(n_samples=1, epsilon=10.0)
        assert out is None
        assert [(len(rows), n) for rows, n in calls] == [(81, ())]
        assert calls[0][0].tobytes() == block.tobytes()

    def nan_solve(self, sample, action, epsilon=0.0):
        # h(x+) = 1.5 - (0.5 u0)^2 - (0.5 u1)^2, NaN at one sample of one
        # action; at alpha = 0.8 a candidate is feasible iff u0^2 + u1^2 <= 1.2.
        m = _tagged_model(2)
        cfg = FilterConfig(alpha=0.8, beta=100.0, epsilon=epsilon)
        samples = draw_risk_samples(m, cfg.n_samples, 0)
        nom = np.array([1.0, 1.0])
        return centralized_filter(m, Barrier(_NanAt(samples[0][sample], action), 1.5),
                                  np.zeros((2, 2)), nom, cfg, samples, 1.5)

    def test_non_finite_on_sample_0_rejected(self):
        # Every candidate meets the screen at sample 0, also on a hopeless
        # solve and far from nominal.
        for action, epsilon in (((-1.0, -1.0), 0.0), ((-1.0, -1.0), 10.0), ((1.0, 1.0), 0.0)):
            with pytest.raises(ContractViolationError):
                self.nan_solve(0, action, epsilon)

    def test_non_finite_on_later_sample_of_survivor_rejected(self):
        # (0.5, 0.5) is feasible, so it survives the screen and meets sample 4.
        with pytest.raises(ContractViolationError):
            self.nan_solve(4, (0.5, 0.5))

    def test_non_finite_on_later_sample_of_rejected_candidate_unseen(self):
        # (-1, -1) fails the condition by the bound of its sample 0, so its
        # later samples are never evaluated, as a candidate the pessimistic
        # search drops never meets its later combos.
        out = self.nan_solve(4, (-1.0, -1.0))
        assert out is not None and out.action.tolist() == [0.75, 0.75]


class TestProbeScreen:
    """At every S the pessimistic search sends the first-corner rows of every
    search whose block does not fit one pass (its C candidates x the first
    corner, every other agent at grid point 0, each row under its agent's
    sample 0) through one ``_screen`` call, and the candidates the screen
    drops leave the search before its first kernel pass."""

    def case(self, name, collision3_setup):
        """(model, barrier, grid size, state sampler) of a case whose
        blocks do not fit one pass at S = 1 and 5.  The trained barrier
        runs at xi = 20: at the fixture's xi = 5 nearly every state has
        h < 0 and every solve is infeasible."""
        if name == "trained":
            s = collision3_setup
            return s.model, Barrier(s.value_model, 20.0), 9, s.box_sampler
        agents, grid, coeff = {"collision3": (3, 9, 0.4 / 3), "collision4": (4, 5, 0.1)}[name]
        return (make_model("collision", n_agents=agents, noise_scale=0.05),
                Barrier(QuadraticValue(coeff), 2.0), grid,
                lambda rng: rng.uniform(-1, 1, size=(agents, 2)))

    def check(self, m, b, x, nom, cfg, seed) -> tuple:
        """Every agent's outcome against the search with no screen (one that
        keeps every row), bit for bit; (the outcomes, the screen's masks)."""
        masks = []

        def recorded(*args):
            masks.append(_screen(*args))
            return masks[-1]

        def keep_all(*args):
            return np.ones(len(args[-1]), dtype=bool)

        draws = [draw_risk_samples(m, cfg.n_samples, [seed, agent]) for agent in m.actuated_agents]
        h_now = h_of(m, b, x)
        solve = (m, b, m.actuated_agents, x, nom, cfg, draws, h_now)
        with mock.patch.object(filters_module, "_screen", recorded):
            outs = pessimistic_filter(*solve)
        with mock.patch.object(filters_module, "_screen", keep_all):
            refs = pessimistic_filter(*solve)
        for out, ref in zip(outs, refs):
            assert (out is None) == (ref is None)
            if out is not None:
                assert out.action.tobytes() == ref.action.tobytes()
                assert out.margin == ref.margin
        return outs, masks

    @settings(deadline=None, max_examples=60)
    @given(case=st.sampled_from(["collision3", "collision4", "trained"]),
           n_samples=st.sampled_from([1, 5]), beta=st.sampled_from([0.1, 1.0, 10.0]),
           alpha=st.floats(0.0, 1.0), tolerance=st.floats(1e-3, 0.3),
           epsilon=st.floats(1e-3, 0.1), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_no_screen_search_bitwise(self, collision3_setup, case, n_samples, beta,
                                              alpha, tolerance, epsilon, seed):
        m, b, grid, sampler = self.case(case, collision3_setup)
        rng = np.random.default_rng(seed)
        x = m.validate_state(sampler(rng))
        nom = rng.uniform(-1, 1, size=sum(m.action_dims))
        cfg = FilterConfig(grid_size=grid, n_samples=n_samples, beta=beta, alpha=alpha,
                           tolerance=tolerance, epsilon=epsilon)
        _, masks = self.check(m, b, x, nom, cfg, seed)
        assert len(masks) == 1       # one screen call at every S

    @pytest.mark.parametrize("case", ["collision3", "collision4", "trained"])
    def test_property_cases_reach_drops_survivors_and_both_outcomes(self, collision3_setup,
                                                                    case):
        # The cases of test_matches_no_screen_search_bitwise, at beta = 10,
        # meet screens that drop first-corner rows and keep others, and
        # feasible and infeasible agents, each checked against the search
        # with no screen.
        m, b, grid, sampler = self.case(case, collision3_setup)
        rng = np.random.default_rng(3)
        dropped = kept = 0
        outcomes = set()
        for seed in range(40):
            x = m.validate_state(sampler(rng))
            nom = rng.uniform(-1, 1, size=sum(m.action_dims))
            cfg = FilterConfig(grid_size=grid, beta=10.0, alpha=float(rng.uniform(0, 1)),
                               tolerance=0.05, epsilon=0.02)
            outs, (mask,) = self.check(m, b, x, nom, cfg, seed)
            dropped, kept = dropped + np.sum(~mask), kept + np.sum(mask)
            outcomes |= {out is None for out in outs}
            if dropped and kept and len(outcomes) == 2:
                return
        pytest.fail(f"dropped {dropped}, kept {kept}, outcomes {outcomes}")

    def test_per_row_draw_matches_shared(self, collision3_setup):
        # A draw given per row, as the pessimistic search sends it, screens
        # each row as the shared draw does, over 2-D blocks of up to 64 rows.
        m, b, _, sampler = self.case("trained", collision3_setup)
        rng = np.random.default_rng(0)
        x = m.validate_state(sampler(rng))
        rows = rng.uniform(-1, 1, size=(150, 3))
        cfg = FilterConfig(beta=10.0)
        thetas, noises = draw_risk_samples(m, cfg.n_samples, 4)
        per_row = (np.broadcast_to(thetas, (150,) + thetas.shape),
                   np.broadcast_to(noises, (150,) + noises.shape))
        h_now = h_of(m, b, x)
        shared = _screen(m, b, x, cfg, (thetas, noises), h_now, rows)
        assert 0 < shared.sum() < len(rows)
        assert np.array_equal(_screen(m, b, x, cfg, per_row, h_now, rows), shared)

    def nan_solve(self, sample, action, epsilon=0.0):
        # Agent 0's search on three agents from x = 0: h(x+) = 1.5 -
        # sum_i (0.5 u_i)^2, NaN at one sample of one joint action.  Against
        # the first corner, (-1, -1), a candidate's margin at alpha = 0.6 is
        # 0.1 - 0.25 u0^2 - epsilon, so from the nominal 1.0 the winner is 0.5;
        # the one-sample bound adds log(5) / 100, so the screen drops
        # |u0| >= 0.75 and keeps the rest.
        m = _tagged_model(3)
        cfg = FilterConfig(alpha=0.6, beta=100.0, epsilon=epsilon)
        samples = draw_risk_samples(m, cfg.n_samples, 0)
        b = Barrier(_NanAt(samples[0][sample], action), 1.5)
        return pessimistic_filter(m, b, [0], np.zeros((3, 2)), np.array([1.0, 0.0, 0.0]), cfg,
                                  [samples], 1.5)[0]

    def test_non_finite_on_sample_0_rejected(self):
        # Every first-corner row meets the screen at sample 0, also on a
        # hopeless solve and when the screen drops the row.
        for action, epsilon in (((-1.0, -1.0, -1.0), 0.0), ((-1.0, -1.0, -1.0), 10.0),
                                ((0.5, -1.0, -1.0), 0.0)):
            with pytest.raises(ContractViolationError):
                self.nan_solve(0, action, epsilon)

    def test_non_finite_on_later_sample_of_survivor_rejected(self):
        # 0.5 survives the screen, so its first-corner row meets sample 4 in
        # the kernel.
        with pytest.raises(ContractViolationError):
            self.nan_solve(4, (0.5, -1.0, -1.0))

    def test_non_finite_on_later_sample_of_screened_out_candidate_unseen(self):
        # -1 fails the first corner by the bound of its sample 0, so its
        # later samples are never evaluated, as a candidate that a combo
        # drops never meets its later combos.
        out = self.nan_solve(4, (-1.0, -1.0, -1.0))
        assert out is not None and out.action.tolist() == [0.5]


def _bits(a) -> bytes:
    a = np.asarray(a)
    return repr((a.shape, a.dtype.str)).encode() + a.tobytes()


# Boxes with grid points of every kind: symmetric (0.0 on odd grids),
# lopsided, and one so narrow that two grid points lie at squared
# distance 0 (underflow) from a nominal equal to the second of them.
_BOXES = [(-1.0, 1.0), (-2.5, 0.5), (0.0, 1e-300)]


@st.composite
def _nominals(draw):
    """(nominal, grid_size, box): nominals on and off the grid, at and beyond
    the box edges, at -0.0 and at offsets whose squared distance to a grid
    point underflows to 0, for 1-D and 2-D agents."""
    dims = draw(st.sampled_from([1, 2]))
    g = draw(st.sampled_from([2, 3, 9, 10]))
    low, high = draw(st.sampled_from(_BOXES))
    axis = np.linspace(low, high, g)
    coords = []
    for _ in range(dims):
        kind = draw(st.sampled_from(["grid", "off", "edge", "beyond", "zero", "tiny"]))
        if kind == "grid":
            c = axis[draw(st.integers(0, g - 1))]
        elif kind == "off":
            c = draw(st.floats(low, high, allow_nan=False))
        elif kind == "edge":
            c = draw(st.sampled_from([low, high]))
        elif kind == "beyond":
            c = draw(st.sampled_from([low, high])) + draw(st.sampled_from([-1.0, 1.0, -1e-3]))
        elif kind == "zero":
            c = draw(st.sampled_from([0.0, -0.0]))
        else:
            c = axis[draw(st.integers(0, g - 1))] + draw(st.sampled_from(
                [1e-200, -1e-170, 5e-324, -5e-324]))
        coords.append(c)
    return np.array(coords), g, (low, high)


class TestHelpersMatchReferences:
    """The step's set-up helpers against the plain versions kept above,
    bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(_nominals())
    def test_candidate_order(self, case):
        nominal, g, (low, high) = case
        cfg = FilterConfig(grid_size=g)
        assert _bits(_ordered_candidates(nominal, cfg, low, high)) == _bits(
            reference_ordered_candidates(nominal, cfg, low, high))

    def test_candidate_order_drops_the_later_of_two_zero_distances(self):
        # On the narrow box both grid points lie at squared distance 0 from
        # the upper one; it is the nominal's duplicate, and the lower one
        # moves up one row.
        low, high = _BOXES[-1]
        cfg = FilterConfig(grid_size=2)
        cands = _ordered_candidates(np.array([high]), cfg, low, high)
        assert _bits(cands) == _bits(reference_ordered_candidates(np.array([high]), cfg,
                                                                  low, high))
        assert cands[:, 0].tolist() == [high, low]

    class HashValue:
        """V(x) in {0, 1, 2}, from a salted hash of the successor's bits: many
        candidates tie in margin, and -0.0 and 0.0 may differ."""

        def __init__(self, salt):
            self.salt = np.uint64(salt)

        def predict(self, x):
            bits = np.ascontiguousarray(x, dtype=float).view(np.uint64)
            mixed = np.bitwise_xor.reduce(bits * np.uint64(0x9E3779B97F4A7C15), axis=-1)
            return ((mixed ^ self.salt) * np.uint64(0xBF58476D1CE4E5B9) >> np.uint64(62)) % 3

    @staticmethod
    def action_model(dims, low, high):
        # One agent per action column, whose successor holds its action:
        # a row's value depends on its bits alone.
        def transition_batch(x, u, thetas, noises):
            out = np.zeros(np.broadcast_shapes(u.shape[:-1], np.shape(thetas)) + x.shape[-2:])
            out[..., 0] = u
            return out

        return replace(make_static_model(dims), action_low=low, action_high=high,
                       transition_batch=transition_batch)

    @settings(max_examples=300, deadline=None)
    @given(case=_nominals(), salt=st.integers(0, 2**16),
           tolerance=st.sampled_from([0.5, 1.5, 2.5, 3.5]))
    def test_centralized_is_first_hit_of_candidate_order(self, case, salt, tolerance):
        # The grid-order solve returns the first hit of the distance order,
        # with its margin, bit for bit: the nominal when it is a hit, never
        # its duplicate on the grid, and ties in distance in grid order.  At
        # beta = 10 the screen's one-sample bound is v_0 + 0.16, so at S = 5 it
        # drops every row with h = 1 below tolerance 1.5, and every row at 3.5.
        nominal, g, (low, high) = case
        model = self.action_model(nominal.size, low, high)
        barrier = Barrier(self.HashValue(salt), 3.0)
        x = np.zeros((nominal.size, 2))
        for n_samples in (1, 5):
            cfg = FilterConfig(alpha=0.0, beta=10.0, grid_size=g, n_samples=n_samples,
                               tolerance=tolerance)
            samples = draw_risk_samples(model, n_samples, salt)
            cands = reference_ordered_candidates(nominal, cfg, low, high)
            margins = _margins(model, barrier, x, cfg, samples, 3.0, cands)
            hits = np.flatnonzero(margins >= tolerance)
            out = centralized_filter(model, barrier, x, nominal, cfg, samples, 3.0)
            assert (out is None) == (hits.size == 0)
            if out is not None:
                assert _bits(out.action) == _bits(cands[hits[0]])
                assert _bits(out.margin) == _bits(margins[hits[0]])

    @settings(max_examples=200, deadline=None)
    @given(dims=st.lists(st.sampled_from([0, 1, 2]), min_size=2, max_size=4),
           g=st.sampled_from([2, 3, 9, 10]), box=st.sampled_from(_BOXES),
           n_cands=st.integers(1, 4), start=st.integers(0, 5), take=st.integers(1, 40),
           seed=st.integers(0, 2**16))
    def test_joint_rows(self, dims, g, box, n_cands, start, take, seed):
        agents = [i for i, d in enumerate(dims) if d]
        assume(agents and sum(dims) <= 5)       # at most G^4 combos
        model = replace(make_static_model(len(dims)), action_dims=tuple(dims),
                        action_low=box[0], action_high=box[1])
        cfg = FilterConfig(grid_size=g)
        rng = np.random.default_rng(seed)
        for agent in agents:
            cols = model.agent_columns(agent)
            cands = rng.uniform(-2.0, 2.0, (n_cands, dims[agent]))
            cands[0, 0] = -0.0
            own, combos = reference_other_grid(model, agent, cfg)
            # corners first (every column at box[0] or box[1]), each part in grid order
            combos = combos[sorted(range(len(combos)),
                                   key=lambda k: not all(v in box for v in combos[k]))]
            rows, corners = _corners_first(sum(dims), cols.start, cols.stop, g, *box)
            assert rows.shape == (len(combos), sum(dims)) and not rows.flags.writeable
            assert corners == 2 ** (sum(dims) - dims[agent])
            assert _bits(rows[:, own]) == _bits(np.zeros((len(combos), dims[agent])))
            assert _bits(rows[:, ~own]) == _bits(combos)
            part = slice(start, start + take)
            assert _bits(_against(cols, cands, rows[part])) == _bits(
                reference_against(own, cands, combos[part]))

    @settings(max_examples=300, deadline=None)
    @given(dims=st.integers(1, 3), radius=st.sampled_from([0.0, 0.05, 0.3, 1.0, 1e-300]),
           scale=st.sampled_from([1e-3, 0.1, 1.0, 10.0]), seed=st.integers(0, 2**16))
    def test_fallback_projection(self, dims, radius, scale, seed):
        rng = np.random.default_rng(seed)
        center = rng.uniform(-1.0, 1.0, dims)
        for v in (center + scale * rng.standard_normal(dims), center.copy(),
                  center + radius * np.eye(dims)[0], -center):
            assert _bits(_project_ball(v, center, radius)) == _bits(
                reference_project_ball(v, center, radius))


class TestCandidates:
    def test_grid_point_equal_to_nominal_dropped(self):
        # The duplicate would repeat the nominal's rows after them; the
        # nominal stays first and every other grid point stays.
        cfg = FilterConfig(grid_size=9)
        axis = list(np.linspace(-1, 1, 9))
        on = _ordered_candidates(np.array([0.5]), cfg, -1.0, 1.0)
        off = _ordered_candidates(np.array([0.3]), cfg, -1.0, 1.0)
        assert on[0, 0] == 0.5 and sorted(on[:, 0]) == axis
        assert off[0, 0] == 0.3 and sorted(off[1:, 0]) == axis
        two = _ordered_candidates(np.array([0.5, 0.3]), cfg, -1.0, 1.0)
        assert len(two) == 82 and two[0].tolist() == [0.5, 0.3]
        assert len(_ordered_candidates(np.array([0.5, -1.0]), cfg, -1.0, 1.0)) == 81

    def test_grid_built_once_and_read_only(self):
        grid = _grid(2, 9, -1.0, 1.0)
        assert _grid(2, 9, -1.0, 1.0) is grid and grid.shape == (81, 2)
        assert grid[:2].tolist() == [[-1.0, -1.0], [-1.0, -0.75]]     # first dim slowest
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0


class TestWorstCaseMargin:
    def test_matches_manual_enumeration(self, spring_setup):
        s = spring_setup
        cfg = FilterConfig(grid_size=4)
        x = np.array([[1.0, 0.5], [0.5, -0.2], [0.7, 0.1]])
        samples = draw_risk_samples(s.model, cfg.n_samples, 8)
        action = np.array([0.5])
        h_now = h_of(s.model, s.barrier, x)
        got = worst_case_margin(s.model, s.barrier, 0, action, x, cfg, samples, h_now)
        margins = []
        for g in np.linspace(-1, 1, 4):
            u = np.array([action[0], g])
            _, margin = check_condition(s.model, s.barrier, x, u, cfg, samples=samples,
                                        h_now=h_now)
            margins.append(margin)
        assert got == min(margins)


class TestPerRowMargins:
    """``certify_grid`` sends the kernel one row per state, each with its own
    state, draw and h(x); the filters share all three across a block."""

    @settings(deadline=None, max_examples=30)
    @given(preset=st.sampled_from(["spring", "collision3"]), b=st.integers(1, 300),
           n_samples=st.sampled_from([1, 5, 200]), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_their_own_check_condition_bitwise(self, spring_setup, collision3_setup,
                                                          preset, b, n_samples, seed):
        # Blocks of b * S pairs cross the 640-pair pass boundary (at S = 5
        # from b = 129 rows, at S = 200 from b = 4).
        s = spring_setup if preset == "spring" else collision3_setup
        rng = np.random.default_rng(seed)
        xs = np.stack([s.model.validate_state(s.box_sampler(rng)) for _ in range(b)])
        draws = [draw_risk_samples(s.model, n_samples, [seed, i]) for i in range(b)]
        samples = (np.stack([t for t, _ in draws]), np.stack([w for _, w in draws]))
        h_now = rng.normal(0.0, 5.0, size=b)
        rows = rng.uniform(-1, 1, size=(b, sum(s.model.action_dims)))
        cfg = FilterConfig(epsilon=0.05)
        block = _margins(s.model, s.barrier, xs, cfg, samples, h_now, rows)
        assert block.shape == (b,)
        for i in range(b):
            _, single = check_condition(s.model, s.barrier, xs[i], rows[i], cfg, draws[i],
                                        float(h_now[i]))
            assert block[i] == single

        # Per-row inputs that are all equal give the shared-input block.
        same = _margins(s.model, s.barrier, np.repeat(xs[:1], b, axis=0), cfg,
                        (np.repeat(samples[0][:1], b, axis=0),
                         np.repeat(samples[1][:1], b, axis=0)),
                        np.full(b, h_now[0]), rows)
        shared = _margins(s.model, s.barrier, xs[0], cfg, draws[0], float(h_now[0]), rows)
        assert same.tobytes() == shared.tobytes()


class TestBatchInvariance:
    @settings(deadline=None, max_examples=40)
    @given(preset=st.sampled_from(["spring", "collision"]), b=st.integers(1, 300),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_block_margins_match_single_rows_bitwise(self, spring_setup, collision_setup,
                                                     preset, b, seed):
        # Criterion 3 and the manual-enumeration test re-check margins with
        # ==, so a row's margin must not depend on the block or the kernel
        # pass (128 rows at S = 5) around it.
        s = spring_setup if preset == "spring" else collision_setup
        rng = np.random.default_rng(seed)
        x = s.model.validate_state(s.box_sampler(rng))
        cfg = FilterConfig()
        samples = draw_risk_samples(s.model, cfg.n_samples, seed)
        rows = rng.uniform(-1, 1, size=(b, sum(s.model.action_dims)))
        h_now = h_of(s.model, s.barrier, x)
        block = _margins(s.model, s.barrier, x, cfg, samples, h_now, rows)
        assert block.shape == (b,)
        for row, margin in zip(rows, block):
            _, single = check_condition(s.model, s.barrier, x, row, cfg, samples=samples,
                                        h_now=h_now)
            assert margin == single

    @pytest.mark.parametrize("agents, grid_size, n_samples, coeff, both_outcomes", [
        pytest.param(2, 3, 3, 0.5, True, id="2"),
        pytest.param(3, 3, 3, 0.5, False, id="3"),
        # 10 x 81 = 810-row pessimistic blocks: a solve takes up to 7 kernel passes.
        pytest.param(3, 9, 5, 0.2, True, id="3-multipass"),
    ])
    def test_filters_match_candidate_loop_reference(self, agents, grid_size, n_samples, coeff,
                                                    both_outcomes):
        # Reference: the per-candidate, per-combo loop the block evaluation
        # replaced; the chosen action and its margin must agree exactly.
        # ``both_outcomes`` cases must meet feasible and infeasible solves.
        m = make_model("collision", n_agents=agents, noise_scale=0.05)
        b = Barrier(QuadraticValue(coeff), 2.0)
        cfg = FilterConfig(grid_size=grid_size, n_samples=n_samples, alpha=0.5)
        axis = np.linspace(-1, 1, cfg.grid_size)
        rng = np.random.default_rng(agents)
        pessimistic_feasible = set()
        for seed in range(6):
            x = rng.uniform(-1, 1, size=(agents, 2))
            nom = np.concatenate([rng.uniform(-1, 1, 1) for _ in range(agents)])
            samples = draw_risk_samples(m, cfg.n_samples, seed)
            h_now = h_of(m, b, x)

            def margin(u):
                return check_condition(m, b, x, u, cfg, samples=samples, h_now=h_now)[1]

            grid = [np.array(p) for p in itertools.product(axis, repeat=agents)]
            joint = sorted([nom] + grid, key=lambda c: np.sum((c - nom) ** 2))
            ref = _first_feasible(joint, margin, cfg.tolerance)
            out = centralized_filter(m, b, x, nom, cfg, samples, h_now)
            assert (out is None) == (ref is None)
            if out is not None:
                assert np.array_equal(out.action, ref[0])
                assert out.margin == ref[1]

            outs = pessimistic_filter(m, b, range(agents), x, nom, cfg, [samples] * agents,
                                      h_now)
            for agent, out in enumerate(outs):
                ref = _pessimistic_loop(m, b, agent, x, nom, cfg, samples, h_now)
                assert (out is None) == (ref is None)
                pessimistic_feasible.add(out is not None)
                if out is not None:
                    assert np.array_equal(out.action, ref[0])
                    assert out.margin == ref[1]
        if both_outcomes:
            assert pessimistic_feasible == {True, False}


class TestJointSearch:
    """One ``pessimistic_filter`` call searches for every agent of a step,
    each under its own draw, in rounds: a round is one ``_margins`` call on
    every open search's next block, under per-row draws, which the kernel
    splits into passes that may cut across blocks; each agent's outcome is
    its search's alone."""

    # case -> (agents, grid size); spring runs on its trained barrier.
    CASES = {"spring": (3, 9), "collision2": (2, 9), "collision3": (3, 5), "collision4": (4, 3)}

    def setup(self, case, spring_setup):
        agents, grid = self.CASES[case]
        if case == "spring":
            return spring_setup.model, spring_setup.barrier, grid, spring_setup.box_sampler
        m = make_model("collision", n_agents=agents, noise_scale=0.05)
        # The weight shrinks with M so that outcomes are mixed at every M.
        return (m, Barrier(QuadraticValue(0.4 / agents), 2.0), grid,
                lambda rng: rng.uniform(-1, 1, size=(agents, 2)))

    def check(self, m, b, x, nom, cfg, seed) -> list:
        """Every agent's outcome in one joint call against the candidate
        loop under the agent's own draw; the outcomes, in agent order."""
        agents = m.actuated_agents
        draws = [draw_risk_samples(m, cfg.n_samples, [seed, agent]) for agent in agents]
        h_now = h_of(m, b, x)
        outs = pessimistic_filter(m, b, agents, x, nom, cfg, draws, h_now)
        assert len(outs) == len(agents)
        for agent, draw, out in zip(agents, draws, outs):
            ref = _pessimistic_loop(m, b, agent, x, nom, cfg, draw, h_now)
            assert (out is None) == (ref is None)
            if out is not None:
                assert out.action.tobytes() == ref[0].tobytes()
                assert out.margin == ref[1]
        return outs

    @settings(deadline=None, max_examples=40)
    @given(case=st.sampled_from(sorted(CASES)), n_samples=st.sampled_from([1, 5, 20, 40]),
           alpha=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_every_agent_matches_candidate_loop(self, spring_setup, case, n_samples, alpha,
                                                seed):
        # At S = 20 and 40 a pass holds 32 and 16 rows, so the screen rows of
        # several agents share a call, and the rest of a search takes
        # several passes.
        m, b, grid, sampler = self.setup(case, spring_setup)
        rng = np.random.default_rng(seed)
        x = m.validate_state(sampler(rng))
        nom = rng.uniform(-1, 1, size=sum(m.action_dims))
        self.check(m, b, x, nom, FilterConfig(grid_size=grid, n_samples=n_samples, alpha=alpha),
                   seed)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_one_call_holds_feasible_and_infeasible_agents(self, spring_setup, case):
        m, b, grid, sampler = self.setup(case, spring_setup)
        rng = np.random.default_rng(11)
        for seed in range(40):
            x = m.validate_state(sampler(rng))
            nom = rng.uniform(-1, 1, size=sum(m.action_dims))
            cfg = FilterConfig(grid_size=grid, n_samples=20, alpha=float(rng.uniform(0, 1)))
            if len({out is None for out in self.check(m, b, x, nom, cfg, seed)}) == 2:
                return
        pytest.fail("no call mixed feasible and infeasible agents")

    @pytest.mark.parametrize("case", ["spring", "collision2"])
    @pytest.mark.parametrize("n_samples", [1, 5])
    def test_candidate_loop_cases_reach_both_halves(self, spring_setup, collision_setup, case,
                                                    n_samples):
        # The two-agent cases, at the sample counts where the 10 x 9 block
        # fits one pass, meet every way such a search goes, each outcome
        # checked against the loop: a candidate dropped at a corner combo, a
        # first corner survivor that wins, a third round (the first survivor
        # fails an inner combo and others survived the corners), and an
        # infeasible solve.  The kinds are read off every candidate's margins
        # on the whole grid.  Both run on trained barriers: under the convex
        # QuadraticValue stub every worst combo is a corner, and no third
        # round runs.
        s = spring_setup if case == "spring" else collision_setup
        m, b, grid, sampler = s.model, s.barrier, 9, s.box_sampler
        rng = np.random.default_rng(5)
        kinds = set()
        for seed in range(60):
            x = m.validate_state(sampler(rng))
            nom = rng.uniform(-1, 1, size=sum(m.action_dims))
            cfg = FilterConfig(grid_size=grid, n_samples=n_samples,
                               alpha=float(rng.uniform(0, 1)))
            for agent, out in zip(m.actuated_agents, self.check(m, b, x, nom, cfg, seed)):
                own, combos = reference_other_grid(m, agent, cfg)
                cands = _ordered_candidates(nom[own], cfg, m.action_low, m.action_high)
                draw = draw_risk_samples(m, cfg.n_samples, [seed, agent])
                margins = _margins(m, b, x, cfg, draw, h_of(m, b, x),
                                   reference_against(own, cands, combos))
                margins = margins.reshape(len(cands), -1)
                corner = np.all((combos == m.action_low) | (combos == m.action_high), axis=1)
                survivors = np.flatnonzero(margins[:, corner].min(axis=1) >= cfg.tolerance)
                if len(survivors) < len(cands):
                    kinds.add("corner drop")
                if len(survivors) and margins[survivors[0]].min() >= cfg.tolerance:
                    kinds.add("first survivor")
                elif len(survivors) > 1:
                    kinds.add("third round")
                if out is None:
                    kinds.add("infeasible")
            if len(kinds) == 4:
                return
        pytest.fail(f"only {sorted(kinds)} reached")

    @settings(deadline=None, max_examples=60)
    @given(n_samples=st.sampled_from([1, 5, 20]),
           case=st.sampled_from([(2, 2), (2, 3), (2, 9), (3, 2), (3, 3), (3, 9), (4, 2), (4, 3),
                                 (4, 5)]),
           alpha=st.floats(0.0, 1.0), tolerance=st.floats(1e-6, 0.5),
           nom=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
           seed=st.integers(0, 2 ** 32 - 1))
    # At S = 20 a pass holds 32 rows: 10 candidates x 4 corners at M = 3,
    # and 6 x 8 at M = 4 on G = 5, take two passes.
    @example(n_samples=20, case=(3, 9), alpha=0.3, tolerance=0.01, nom=[0.3, -0.2, 0.1, 0.0],
             seed=1)
    @example(n_samples=20, case=(4, 5), alpha=0.0, tolerance=0.1, nom=[0.3, -0.2, 0.1, 0.6],
             seed=2)
    def test_one_pass_search_where_the_corners_miss(self, n_samples, case, alpha, tolerance,
                                                    nom, seed):
        # Under _PeakedValue an agent's worst combo is inside the grid and
        # the corners are its best, so the corners drop few candidates and
        # the first survivor often fails: the third round runs (at G = 2
        # every combo is a corner).  Every block size goes by the one rule:
        # blocks that fit one pass, blocks that take several, and corner
        # passes that take several.  Each outcome matches the loop bit for
        # bit, no row goes to the kernel twice (a row is told apart from the
        # other agents' by its draw), and each agent's kernel rows meet every
        # corner, candidate by candidate, before any other combo.  At M = 2
        # and S <= 5, where every block fits one pass, the step takes at
        # most 3 passes.
        agents, grid = case
        plain = replace(make_static_model(agents), transition_batch=_drift)
        m, calls = self.counted(plain)
        b = Barrier(_PeakedValue(), 1.5)
        cfg = FilterConfig(alpha=alpha, grid_size=grid, n_samples=n_samples,
                           tolerance=tolerance)
        rng = np.random.default_rng(seed)
        draws = [(rng.standard_normal(n_samples),
                  0.05 * rng.standard_normal((n_samples, agents, 2))) for _ in range(agents)]
        x, nom = np.zeros((agents, 2)), np.array(nom[:agents])
        outs = pessimistic_filter(m, b, range(agents), x, nom, cfg, draws, 1.0)
        for agent, draw, out in zip(range(agents), draws, outs):
            ref = _pessimistic_loop(plain, b, agent, x, nom, cfg, draw, 1.0)
            assert (out is None) == (ref is None)
            if out is not None:
                assert out.action.tobytes() == ref[0].tobytes() and out.margin == ref[1]
        kernel = [(rows, thetas) for rows, thetas in calls if thetas.ndim == 2]
        assert len(kernel) >= len(calls) - 1          # at most one screen call
        if agents == 2 and n_samples <= 5:
            assert len(kernel) <= 3
        keys = [row.tobytes() + theta.tobytes() for rows, thetas in kernel
                for row, theta in zip(rows, thetas)]
        assert len(set(keys)) == len(keys)
        met = [{} for _ in range(agents)]       # per agent, candidate -> corners met
        inner = [False] * agents                # whether the agent met a non-corner
        for rows, thetas in kernel:
            for row, theta in zip(rows, thetas):
                agent = next(a for a in range(agents) if np.array_equal(theta, draws[a][0]))
                others = np.delete(row, agent)
                corners = met[agent].setdefault(row[agent], set())
                if np.all((others == -1.0) | (others == 1.0)):
                    assert not inner[agent]
                    corners.add(others.tobytes())
                else:
                    inner[agent] = True
                    assert len(corners) == 2 ** (agents - 1)
    def counted(self, model):
        """``model`` whose transition_batch records each call's rows and thetas."""
        calls = []
        inner = model.transition_batch

        def transition_batch(x, u, thetas, noises):
            calls.append((u.reshape(-1, u.shape[-1]).copy(), np.array(thetas)))
            return inner(x, u, thetas, noises)

        return replace(model, transition_batch=transition_batch), calls

    def test_hopeless_collision3_step_is_one_call(self):
        # Every margin fails at epsilon = 10, so each agent's search ends
        # at its screen of C = 10 rows at the first corner (nominal off the
        # grid), and the three agents' rows share one call with per-row
        # draws, in agent order: each row at its agent's sample 0, as a 2-D
        # block.  The screen drops every candidate, so no kernel call follows.
        m, calls = self.counted(make_model("collision", n_agents=3))
        b = Barrier(QuadraticValue(0.5), 2.0)
        cfg = FilterConfig(epsilon=10.0)
        draws = [draw_risk_samples(m, cfg.n_samples, [3, agent]) for agent in range(3)]
        nom = np.array([0.3, -0.1, 0.6])
        outs = pessimistic_filter(m, b, range(3), np.zeros((3, 2)), nom, cfg, draws, 1.0)
        assert outs == [None, None, None]
        ((rows, thetas),) = calls
        assert rows.shape == (30, 3) and thetas.shape == (30,)
        for agent in range(3):
            part = slice(10 * agent, 10 * agent + 10)
            assert np.all(thetas[part] == draws[agent][0][0])
            assert rows[part][0, agent] == nom[agent]           # the nominal leads
            others = np.delete(rows[part], agent, axis=1)
            assert np.all(others == -1.0)                       # the first corner

    def test_spring_step_packs_both_near_halves_in_one_call(self, spring_setup):
        # 10 candidates x 9 combos fill 90 of a pass's 128 rows, so each
        # agent's search fits one pass.  The two agents' corner rows, 10 x 2
        # each, share the first call, and their first survivors' 7 rows
        # against the inner combos share the second, each row with its
        # agent's draw.  Both first survivors win, so the step is those two
        # calls.
        s = spring_setup
        m, calls = self.counted(s.model)
        x = np.array([[1.7, 0.1], [1.6, -0.2], [0.5, 0.0]])
        nom = s.nominal(x)
        assert not np.isin(nom, np.linspace(-1, 1, 9)).any()
        ctrl = SwitchingController(barrier=s.barrier, nominal=s.nominal, safe=s.safe,
                                   cfg=FilterConfig())
        ctrl.act(m, x, 4, 7)
        (corners, corner_thetas), (inner, inner_thetas) = calls
        assert corners.shape == (40, 2) and corner_thetas.shape == (40, 5)
        assert inner.shape == (14, 2) and inner_thetas.shape == (14, 5)
        for agent in range(2):
            draw = draw_risk_samples(m, 5, np.random.SeedSequence([4, 7, agent]))
            part, mine = slice(20 * agent, 20 * agent + 20), slice(7 * agent, 7 * agent + 7)
            assert np.all(corner_thetas[part] == draw[0]) and np.all(inner_thetas[mine] == draw[0])
            assert corners[part][0, agent] == nom[agent]           # the nominal leads
            assert np.array_equal(corners[part][:, 1 - agent], np.tile([-1.0, 1.0], 10))
            assert np.all(inner[mine][:, agent] == inner[mine][0, agent])
            assert np.array_equal(inner[mine][:, 1 - agent], np.linspace(-1, 1, 9)[1:-1])

    def test_round_of_three_large_blocks_is_one_kernel_call(self, monkeypatch):
        # TestEarlyExit.test_feasible_survivor_sees_every_combo for all
        # three agents at once: the screen keeps each agent's 9 candidates,
        # whose 36 corner rows share one pass; each agent's first survivor
        # then meets the other 77 combos alone.  That round of three blocks
        # is one _margins call of 231 rows, split into ceil(231 / 128) = 2
        # passes that cut across the blocks.
        m, calls = self.counted(replace(make_static_model(3), transition_batch=_drift))
        b = Barrier(QuadraticValue(1.0), 1.5)
        cfg = FilterConfig(alpha=0.2)
        draws = [draw_risk_samples(m, cfg.n_samples, [6, agent]) for agent in range(3)]
        kernel_calls = []
        inner = filters_module._margins

        def margins(*args):
            kernel_calls.append(len(calls))
            return inner(*args)

        monkeypatch.setattr(filters_module, "_margins", margins)
        outs = pessimistic_filter(m, b, range(3), np.zeros((3, 2)), np.ones(3), cfg, draws, 1.5)
        assert [out.action[0] for out in outs] == [0.5, 0.5, 0.5]
        # The one screen call of the three agents' first-corner rows, which
        # keeps every row, comes first.
        assert [(len(rows), thetas.ndim) for rows, thetas in calls[:kernel_calls[0]]] == [(27, 1)]
        kernel_calls.append(len(calls))
        passes = [[len(rows) for rows, _ in calls[a:z]]
                  for a, z in zip(kernel_calls, kernel_calls[1:])]
        assert [sum(p) for p in passes] == [108, 231]     # one call a round
        per_pass = 640 // cfg.n_samples
        assert [len(p) for p in passes] == [-(-sum(p) // per_pass) for p in passes]
        assert passes[1] == [128, 103]
        for agent, out in enumerate(outs):
            assert out.margin == worst_case_margin(m, b, agent, out.action, np.zeros((3, 2)),
                                                   cfg, draws[agent], 1.5)

    class AgentWeightedValue:
        """V(x) = sum_i w_i ||x_i||^2 over the flat (M * 2) state."""

        def __init__(self, weights):
            self.w = np.repeat(np.asarray(weights, dtype=float), 2)

        def predict(self, x):
            x = np.asarray(x, dtype=float)
            out = np.sum(self.w * x * x, axis=-1)
            return float(out) if x.ndim == 1 else out

    def test_dropped_agent_leaves_the_others_passes_alone(self):
        # f(x, u) = x + 0.5 u (TestEarlyExit.drift_model) under a barrier
        # that weighs agent 2 four times: agents 0 and 1 fail at the
        # corners, agent 2 goes on alone.  Each agent's rows, told apart by its draw
        # at sample 0, come in the blocks of its own one-agent call, in the
        # screen call and in the kernel's.
        m, calls = self.counted(replace(make_static_model(3), transition_batch=_drift))
        b = Barrier(self.AgentWeightedValue([1.0, 1.0, 4.0]), 1.5)
        cfg = FilterConfig(alpha=0.2)
        draws = [draw_risk_samples(m, cfg.n_samples, [9, agent]) for agent in range(3)]

        def blocks_by_agent():
            out = {agent: [] for agent in range(3)}
            for rows, thetas in calls:
                owner = [next(a for a in range(3) if t == draws[a][0][0])
                         for t in thetas.reshape(len(rows), -1)[:, 0]]
                for agent in range(3):
                    mine = rows[np.array(owner) == agent]
                    if len(mine):
                        out[agent].append(mine.tobytes())
            return out

        joint = pessimistic_filter(m, b, range(3), np.zeros((3, 2)), m.zero_action(), cfg,
                                   draws, 1.5)
        assert [out is None for out in joint] == [True, True, False]
        # The screen of the three agents' 9 first-corner rows keeps 7 of
        # each; the kernel's corner pass, 7 x 4 rows an agent, then drops
        # agents 0 and 1, and agent 2's first survivor meets the other 77
        # combos alone.
        assert [(len(rows), thetas.ndim) for rows, thetas in calls] == [
            (27, 1), (84, 2), (77, 2)]
        together = blocks_by_agent()
        for agent in range(3):
            calls.clear()
            (alone,) = pessimistic_filter(m, b, [agent], np.zeros((3, 2)), m.zero_action(), cfg,
                                          [draws[agent]], 1.5)
            assert blocks_by_agent()[agent] == together[agent]
            assert (alone is None) == (joint[agent] is None)
            if alone is not None:
                assert alone.action == joint[agent].action and alone.margin == joint[agent].margin


class TestSolvePairs:
    """``solve_pairs`` bounds the (row, sample) pairs one solve evaluates,
    counted as ``tools/step_counts.py`` counts them: a screen call's 2-D
    ``u`` as one pair a row, a kernel call's (b, 1, A) stack as b·S."""

    @pytest.mark.parametrize("preset, agents", [("spring", None), ("collision", 2),
                                                ("collision", 3), ("collision", 4)])
    def test_no_solve_exceeds_its_bound(self, preset, agents):
        model = make_model(preset, n_agents=agents)
        pairs = [0]

        def transition_batch(x, u, thetas, noises):
            pairs[0] += len(u) if np.ndim(u) == 2 else len(u) * np.shape(thetas)[-1]
            return model.transition_batch(x, u, thetas, noises)

        m = replace(model, transition_batch=transition_batch)
        dims, actuated = sum(m.action_dims), m.actuated_agents
        rng = np.random.default_rng(len(actuated))
        for grid_size, n_samples in ((9, 5), (3, 3), (5, 1), (2, 7)):
            cfg = FilterConfig(grid_size=grid_size, n_samples=n_samples)
            centralized = []
            for k, (coeff, xi) in enumerate(((0.1, 50.0), (1.0, 3.0), (2.0, 2.0))):
                b = Barrier(QuadraticValue(coeff), xi)
                for seed in range(3):
                    x = rng.uniform(-1.0, 1.0, (m.n_agents, m.state_dim))
                    nominal = rng.uniform(-1.2, 1.2, dims)
                    h_now = h_of(m, b, x)
                    pairs[0] = 0
                    centralized_filter(m, b, x, nominal, cfg,
                                       draw_risk_samples(m, n_samples, seed), h_now)
                    centralized.append(pairs[0])
                    agent = actuated[(k + seed) % len(actuated)]
                    pairs[0] = 0
                    pessimistic_filter(m, b, [agent], x, nominal, cfg,
                                       [draw_risk_samples(m, n_samples, seed)], h_now)
                    assert pairs[0] <= solve_pairs(cfg, dims, centralized=False)
            # Every centralized solve stays within its bound, and one whose
            # candidates all survive the screen reaches it.
            assert max(centralized) == solve_pairs(cfg, dims, centralized=True)
