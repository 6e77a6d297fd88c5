"""Rollout harness, metrics, and sweeps."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from conftest import QuadraticValue, make_static_model
from riskfilter import (
    Barrier,
    CentralizedController,
    ContractViolationError,
    FilterConfig,
    GuaranteeDomainError,
    PolicyController,
    RolloutRecord,
    SwitchingController,
    certify_grid,
    compute_metrics,
    make_model,
    make_proportional,
    parse_config,
    rollout,
    sweep,
)
from riskfilter.dynamics import _initial_state_rng
from riskfilter.experiments import write_trajectories_csv
from riskfilter.filters import proximity_radius
from riskfilter.simulate import StepDecision, rollouts


class TestRollout:
    def test_zero_steps(self):
        m = make_model("spring")
        pol = make_proportional(m, (1.0, 0.5))
        rec = rollout(m, PolicyController(pol), np.zeros((3, 2)), 0, 0)
        assert rec.states.shape == (1, 3, 2)
        assert len(rec.actions) == 0
        assert rec.rewards.size == 0
        assert rec.safe.shape == (1,)
        assert rec.branches is None

    def test_origin_fixed_point_without_uncertainty(self):
        m = make_model("spring", noise_scale=0.0)
        pol = make_proportional(m, (0.0, 0.0))
        rec = rollout(m, PolicyController(pol), np.zeros((3, 2)), 25, 3)
        assert np.all(rec.states == 0.0)
        assert np.all(rec.safe)

    def test_bitwise_deterministic(self):
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, (1.0, 0.5))
        x0 = np.array([[0.5, 0.0], [-0.5, 0.0]])
        a = rollout(m, PolicyController(pol), x0, 30, 17)
        b = rollout(m, PolicyController(pol), x0, 30, 17)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.rewards, b.rewards)
        assert a.theta == b.theta

    def test_theta_drawn_once_per_rollout(self):
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, (1.0, 0.5))
        recs = [rollout(m, PolicyController(pol), np.zeros((2, 2)), 3, s)
                for s in range(5)]
        thetas = {r.theta for r in recs}
        assert len(thetas) == 5

    def test_negative_steps_rejected(self):
        m = make_static_model()
        pol = PolicyController(make_proportional(make_model("spring"), (0, 0)))
        with pytest.raises(ContractViolationError):
            rollout(make_model("spring"), pol, np.zeros((3, 2)), -1, 0)

    def test_controller_error_carries_step_index(self):
        m = make_static_model()

        class FailsAtThree:
            def act(self, model, x, seed, step):
                if step == 3:
                    raise GuaranteeDomainError("left the guaranteed region")
                return StepDecision(action=model.zero_action())

        with pytest.raises(GuaranteeDomainError) as err:
            rollout(m, FailsAtThree(), np.zeros((2, 2)), 10, 0)
        assert err.value.step_index == 3

    def test_non_finite_successor_carries_step_index(self):
        # The successor is checked where the transition produces it, inside
        # the step, so its error names the step like a controller's does.
        def overflows(x, u, thetas, noises):     # 1 -> 1e200 -> inf
            with np.errstate(over="ignore"):
                return x * 1e200

        m = dataclasses.replace(make_static_model(), transition=overflows)

        class Zero:
            def act(self, model, x, seed, step):
                return StepDecision(action=model.zero_action())

        with pytest.raises(ContractViolationError, match="non-finite") as err:
            rollout(m, Zero(), np.ones((2, 2)), 5, 0)
        assert err.value.step_index == 1

    def test_filtered_rollout_flags_shape(self, spring_setup):
        s = spring_setup
        ctrl = SwitchingController(barrier=s.barrier, nominal=s.nominal,
                                   safe=s.safe, cfg=FilterConfig(grid_size=3))
        rec = rollout(s.model, ctrl, np.zeros((3, 2)), 5, 0)
        assert rec.branches.shape == (5, 3)
        assert rec.feasible.shape == (5, 3)
        # One branch flag per actuated agent per step; none for the mass.
        assert np.all(rec.branches[:, :2] != "")
        assert np.all(rec.branches[:, 2] == "")


class NanAtState:
    """Value-model stub: NaN at a flat state, which is how a controller asks
    for h(x), and 0 on the filters' successor stacks, which it counts."""

    def __init__(self):
        self.stacks = 0

    def predict(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return np.nan
        self.stacks += 1
        return np.zeros(x.shape[:-1])


@pytest.mark.parametrize("kind", [SwitchingController, CentralizedController])
@pytest.mark.parametrize("radius_mode", ["fixed", "margin"])
def test_non_finite_h_rejected(kind, radius_mode):
    # With h(x) = NaN every margin is NaN, every solve infeasible, and the
    # margin-derived radius NaN: the step would return NaN actions.
    m = make_model("collision", n_agents=2)
    pol = make_proportional(m, (1.0, 0.5))
    value = NanAtState()
    ctrl = kind(barrier=Barrier(value, xi=1.0), nominal=pol, safe=pol,
                cfg=FilterConfig(radius_mode=radius_mode, grid_size=3))
    x0 = np.array([[0.5, 0.0], [-0.5, 0.0]])
    with pytest.raises(ContractViolationError, match="not finite"):
        ctrl.act(m, x0, 0, 0)
    assert value.stacks == 0        # rejected before any solve
    with pytest.raises(ContractViolationError, match="not finite") as err:
        rollout(m, ctrl, x0, 3, 0)
    assert err.value.step_index == 0


class CountingPolicy:
    """Wraps a policy and counts its calls."""

    def __init__(self, policy):
        self.policy = policy
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.policy(x)


@pytest.mark.parametrize("kind", [SwitchingController, CentralizedController])
@pytest.mark.parametrize("config", ["run.preset = spring",
                                    "run.preset = collision\nrun.agents = 3"],
                         ids=["spring", "collision3"])
def test_step_calls_each_policy_once(kind, config):
    # Every filter solve of a step works from the step's joint nominal and
    # safe actions; epsilon = 10 forces the proximity fallback everywhere.
    cfg = parse_config(config)
    model = cfg.build_model()
    x0 = cfg.init_sampler(model)(np.random.default_rng(3))
    branches = set()
    for epsilon in (0.0, 10.0):
        nominal = CountingPolicy(cfg.nominal_policy(model))
        safe = CountingPolicy(cfg.safe_policy(model))
        ctrl = kind(barrier=Barrier(QuadraticValue(0.1), 5.0), nominal=nominal, safe=safe,
                    cfg=FilterConfig(grid_size=3, n_samples=3, epsilon=epsilon))
        rec = rollout(model, ctrl, x0, 4, 0)
        assert nominal.calls == safe.calls == 4
        branches |= set(rec.branches[:, list(model.actuated_agents)].ravel())
    assert "proximity" in branches and len(branches) == 2


@pytest.mark.parametrize("kind", [SwitchingController, CentralizedController])
@pytest.mark.parametrize("config", ["run.preset = spring",
                                    "run.preset = collision\nrun.agents = 3"],
                         ids=["spring", "collision3"])
def test_record_flags_follow_the_branch(kind, config):
    # A record's feasible flag is its branch not being the proximity
    # fallback; an unactuated agent keeps branch "" and feasible True, and
    # every action stays in the box.  epsilon = 10 forces the fallback.
    cfg = parse_config(config)
    model = cfg.build_model()
    x0 = cfg.init_sampler(model)(np.random.default_rng(3))
    actuated = np.array(model.action_dims) > 0
    branches = set()
    for epsilon in (0.0, 10.0):
        ctrl = kind(barrier=Barrier(QuadraticValue(0.1), 5.0), nominal=cfg.nominal_policy(model),
                    safe=cfg.safe_policy(model),
                    cfg=FilterConfig(grid_size=3, n_samples=3, epsilon=epsilon))
        rec = rollout(model, ctrl, x0, 6, 0)
        assert rec.feasible.dtype == bool
        assert np.array_equal(rec.feasible, rec.branches != "proximity")
        assert np.all(rec.branches[:, ~actuated] == "") and np.all(rec.feasible[:, ~actuated])
        rows = rec.actions.rows
        assert np.all((rows >= model.action_low) & (rows <= model.action_high))
        branches |= set(rec.branches[:, actuated].ravel())
    assert "proximity" in branches and len(branches) == 2


class RecordingValue(QuadraticValue):
    """Records every one-row (1-D) input, the form h(x) is evaluated in."""

    def __init__(self, coeff):
        super().__init__(coeff)
        self.rows = []

    def predict(self, x):
        if np.ndim(x) == 1:
            self.rows.append(np.array(x))
        return super().predict(x)


@pytest.mark.parametrize("kind", [SwitchingController, CentralizedController])
@pytest.mark.parametrize("config", ["run.preset = spring",
                                    "run.preset = collision\nrun.agents = 3"],
                         ids=["spring", "collision3"])
def test_step_evaluates_h_once(kind, config):
    # Every solve of a step, and the proximity fallback's margin-derived
    # radius, reads the one h(x) the controller computes; the kernel
    # evaluates successors only.  epsilon = 10 forces the fallback.
    cfg = parse_config(config)
    model = cfg.build_model()
    x0 = cfg.init_sampler(model)(np.random.default_rng(3))
    branches = set()
    for fcfg in (FilterConfig(grid_size=3, n_samples=3),
                 FilterConfig(grid_size=3, n_samples=3, epsilon=10.0, epsilon_bar=10.0,
                              radius_mode="margin")):
        value = RecordingValue(0.1)
        ctrl = kind(barrier=Barrier(value, 5.0), nominal=cfg.nominal_policy(model),
                    safe=cfg.safe_policy(model), cfg=fcfg)
        rec = rollout(model, ctrl, x0, 4, 0)
        assert np.array_equal(np.array(value.rows), rec.states[:4].reshape(4, -1))
        branches |= set(rec.branches[:, list(model.actuated_agents)].ravel())
    assert "proximity" in branches and len(branches) == 2


@pytest.mark.parametrize("kind", [SwitchingController, CentralizedController])
@pytest.mark.parametrize("config", ["run.preset = spring",
                                    "run.preset = collision\nrun.agents = 3"],
                         ids=["spring", "collision3"])
def test_margin_radius_reads_the_step_h(kind, config):
    # epsilon = 10 forces the fallback; each agent's action is its nominal
    # projected onto the ball of radius proximity_radius(h(x)) around safe.
    cfg = parse_config(config)
    model = cfg.build_model()
    barrier = Barrier(QuadraticValue(0.1), 5.0)
    fcfg = FilterConfig(grid_size=3, n_samples=3, epsilon=10.0, epsilon_bar=10.0,
                        radius_mode="margin")
    nominal, safe = cfg.nominal_policy(model), cfg.safe_policy(model)
    ctrl = kind(barrier=barrier, nominal=nominal, safe=safe, cfg=fcfg)
    rng = np.random.default_rng(5)
    for step in range(5):
        x = cfg.init_sampler(model)(rng)
        h = float(barrier.value(model.flatten_state(x)))
        assert h >= 0.0
        decision = ctrl.act(model, x, 0, step)
        r = proximity_radius(model, fcfg, h)
        assert r > 0.0
        for agent in model.actuated_agents:
            cols = model.agent_columns(agent)
            v, center = nominal(x)[cols], safe(x)[cols]
            d = np.linalg.norm(v - center)
            expected = v if d <= r else center + r * (v - center) / d
            assert decision.branches[agent] == "proximity"
            assert np.array_equal(decision.action[cols], expected)


class RecordingController:
    """Wraps a controller and keeps every decision it returns."""

    def __init__(self, inner):
        self.inner = inner
        self.decisions = []

    def act(self, model, x, rollout_seed, step):
        decision = self.inner.act(model, x, rollout_seed, step)
        self.decisions.append(decision)
        return decision


def collision3_switching():
    cfg = parse_config("run.preset = collision\nrun.agents = 3")
    model = cfg.build_model()
    ctrl = SwitchingController(barrier=Barrier(QuadraticValue(0.2), 1.0),
                               nominal=cfg.nominal_policy(model), safe=cfg.safe_policy(model),
                               cfg=FilterConfig(grid_size=3, n_samples=2))
    return model, ctrl, np.array([[0.5, 0.0], [-0.5, 0.0], [0.2, 0.1]])


def counting_model(model):
    """``model`` with its two transition fields counting their calls."""
    calls = {"transition": 0, "transition_batch": 0}

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    return dataclasses.replace(
        model, transition=counted("transition", model.transition),
        transition_batch=counted("transition_batch", model.transition_batch)), calls


@pytest.mark.parametrize("config", ["run.preset = spring",
                                    "run.preset = collision\nrun.agents = 3"],
                         ids=["spring", "collision3"])
def test_transition_seam(config):
    # A rollout step calls model.transition once and never transition_batch;
    # filter solves and certify_grid call transition_batch only.  The
    # benchmark's traced dynamics.transition count rests on this split.
    cfg = parse_config(config)
    model, calls = counting_model(cfg.build_model())
    x0 = cfg.init_sampler(model)(np.random.default_rng(3))
    nominal, safe = cfg.nominal_policy(model), cfg.safe_policy(model)
    rollout(model, PolicyController(nominal), x0, 7, 0)
    assert calls == {"transition": 7, "transition_batch": 0}
    barrier = Barrier(QuadraticValue(0.1), 5.0)
    fcfg = FilterConfig(grid_size=3, n_samples=3)
    for kind in (SwitchingController, CentralizedController):
        ctrl = kind(barrier=barrier, nominal=nominal, safe=safe, cfg=fcfg)
        calls.update(transition=0, transition_batch=0)
        for step in range(4):
            ctrl.act(model, x0, 0, step)
        assert calls["transition"] == 0 and calls["transition_batch"] > 0
        calls.update(transition=0)
        rollout(model, ctrl, x0, 5, 0)
        assert calls["transition"] == 5
    calls.update(transition=0, transition_batch=0)
    report = certify_grid(model, barrier, safe, [x0, 0.5 * x0], fcfg, 0, 20)
    assert report.n_evaluated == 2
    assert calls["transition"] == 0 and calls["transition_batch"] > 0


def test_rollouts_seed_each_record_from_base_plus_index():
    # Record i is rollout(...) at seed base + i from the state the sampler
    # draws from _initial_state_rng(base + i), bit for bit, and records
    # come one at a time: the sampler runs once per record taken.
    model, ctrl, _ = collision3_switching()
    drawn = []

    def sampler(rng):
        drawn.append(rng.uniform(-1.0, 1.0, size=(3, 2)))
        return drawn[-1]

    gen = rollouts(model, ctrl, sampler, 3, 4, 17)
    first = next(gen)
    assert len(drawn) == 1
    records = [first] + list(gen)
    assert len(records) == 3 and len(drawn) == 3
    for i, rec in enumerate(records):
        x0 = sampler(_initial_state_rng(17 + i))
        assert np.array_equal(x0, drawn[i])
        ref = rollout(model, ctrl, x0, 4, 17 + i)
        assert rec.seed == ref.seed == 17 + i
        assert rec.theta == ref.theta
        for a, b in ((rec.states, ref.states), (rec.actions.rows, ref.actions.rows),
                     (rec.rewards, ref.rewards)):
            assert a.tobytes() == b.tobytes()
        for name in ("safe", "branches", "feasible"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name


class TestActionRows:
    """A rollout keeps its actions as one (T, A) array; item k is split on access."""

    def test_items_are_the_decisions_bit_for_bit(self):
        model, inner, x0 = collision3_switching()
        ctrl = RecordingController(inner)
        rec = rollout(model, ctrl, x0, 12, 4)
        assert set(rec.branches.ravel()) == {"pessimistic", "proximity"}
        expected = [model.split_action(d.action) for d in ctrl.decisions]

        def same(a, b):
            return len(a) == len(b) and all(
                u.dtype == v.dtype and u.shape == v.shape and u.tobytes() == v.tobytes()
                for u, v in zip(a, b))

        assert len(rec.actions) == rec.n_steps == 12
        assert all(same(rec.actions[k], expected[k]) for k in range(12))
        assert all(same(a, e) for a, e in zip(rec.actions, expected, strict=True))
        assert all(same(rec.actions[-k], expected[-k]) for k in range(1, 13))
        for sl in (slice(2, 7), slice(None, None, -3), slice(10, 40)):
            got = rec.actions[sl]
            assert len(got) == len(expected[sl])
            assert all(same(a, e) for a, e in zip(got, expected[sl]))
        with pytest.raises(IndexError):
            rec.actions[12]
        with pytest.raises(ValueError):
            rec.actions.rows[0, 0] = 1.0      # read-only

    def test_record_with_list_actions_writes_same_csv(self, tmp_path):
        model, ctrl, x0 = collision3_switching()
        rec = rollout(model, ctrl, x0, 10, 2)
        lists = dataclasses.replace(rec, actions=[list(a) for a in rec.actions])
        write_trajectories_csv([rec], model, tmp_path / "rows.csv")
        write_trajectories_csv([lists], model, tmp_path / "lists.csv")
        assert (tmp_path / "rows.csv").read_bytes() == (tmp_path / "lists.csv").read_bytes()
        assert compute_metrics([rec], model) == compute_metrics([lists], model)

    def test_retained_bytes_per_step(self):
        # A record keeps 24 action bytes and 24 branch bytes per step at
        # M = 3, on top of its states, rewards and flags: about 118 B in
        # all.  Unicode branch flags would add 108 B, and per-step lists of
        # per-agent arrays about 620.  The warm-up rollout of the same
        # length fills the package's caches before tracing starts, and a
        # full collection before each reading empties the interpreter's
        # free lists, whose dead tuples would otherwise count as retained.
        model, ctrl, x0 = collision3_switching()
        n = 200
        rollout(model, ctrl, x0, n, 0)
        tracemalloc.start()
        try:
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            rec = rollout(model, ctrl, x0, n, 0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rec.n_steps == n
        assert retained / n <= 150


def fabricated_record(n_steps: int, n_agents: int, unsafe_steps=(), x_ref=0.0):
    states = np.full((n_steps + 1, n_agents, 2), x_ref)
    safe = np.ones(n_steps + 1, dtype=bool)
    for k in unsafe_steps:
        safe[k] = False
    return RolloutRecord(
        seed=0, theta=0.0, states=states,
        actions=[[np.zeros(1)] * n_agents for _ in range(n_steps)],
        safe=safe, rewards=np.ones(n_steps), branches=None, feasible=None,
    )


class TestMetrics:
    def test_violation_rate_counting(self):
        m = make_model("collision", n_agents=2)
        recs = [fabricated_record(10, 2, unsafe_steps=(4,)),
                fabricated_record(10, 2)]
        metrics = compute_metrics(recs, m)
        assert metrics.violation_count == 1
        assert metrics.violation_rate == pytest.approx(1 / 20)

    def test_initial_state_not_counted(self):
        m = make_model("collision", n_agents=2)
        rec = fabricated_record(10, 2, unsafe_steps=(0,))
        assert compute_metrics([rec], m).violation_count == 0

    def test_mse_zero_at_reference(self):
        m = make_model("collision", n_agents=2)  # x_ref position 0
        rec = fabricated_record(10, 2, x_ref=0.0)
        assert compute_metrics([rec], m).mse == 0.0

    def test_all_safe(self):
        m = make_model("collision", n_agents=2)
        assert compute_metrics([fabricated_record(5, 2)], m).violation_count == 0

    def test_violations_additive_over_records(self):
        m = make_model("collision", n_agents=2)
        a = [fabricated_record(10, 2, unsafe_steps=(1, 2))]
        b = [fabricated_record(10, 2, unsafe_steps=(9,))]
        va = compute_metrics(a, m).violation_count
        vb = compute_metrics(b, m).violation_count
        assert compute_metrics(a + b, m).violation_count == va + vb

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            compute_metrics([], make_model("spring"))

    def test_cumulative_reward(self):
        m = make_model("collision", n_agents=2)
        rec = fabricated_record(10, 2)
        assert compute_metrics([rec], m).cumulative_reward == pytest.approx(10.0)

    def test_feasibility_rate(self, spring_setup):
        s = spring_setup
        ctrl = SwitchingController(barrier=s.barrier, nominal=s.nominal,
                                   safe=s.safe, cfg=FilterConfig(grid_size=3))
        rec = rollout(s.model, ctrl, np.zeros((3, 2)), 8, 1)
        metrics = compute_metrics([rec], s.model)
        assert metrics.feasibility_rate is not None
        assert 0.0 <= metrics.feasibility_rate <= 1.0
        assert metrics.feasibility_rate == rec.feasible[:, list(s.model.actuated_agents)].mean()
        assert sum(metrics.branch_usage.values()) == 8 * 2


class TestSweep:
    def factory(self, model):
        def make(gain):
            return PolicyController(make_proportional(model, (gain, 0.5)))
        return make

    def test_single_value_single_rollout(self):
        m = make_model("collision", n_agents=2)
        rows = sweep(m, self.factory(m), "gain", [1.0], 1, 10, 0,
                     lambda rng: np.zeros((2, 2)))
        assert len(rows) == 1
        assert rows[0].param_name == "gain"
        assert rows[0].param_value == 1.0

    def test_identical_values_identical_rows(self):
        # Seeds are shared across parameter values, so equal values give
        # byte-identical rows.
        m = make_model("collision", n_agents=2)
        rows = sweep(m, self.factory(m), "gain", [1.0, 1.0], 3, 10, 5,
                     lambda rng: rng.uniform(-1, 1, size=(2, 2)))
        assert rows[0] == rows[1]

    def test_row_per_value(self):
        m = make_model("collision", n_agents=2)
        rows = sweep(m, self.factory(m), "gain", [0.5, 1.0, 2.0], 2, 5, 0,
                     lambda rng: np.zeros((2, 2)))
        assert [r.param_value for r in rows] == [0.5, 1.0, 2.0]

    def test_no_rollouts_rejected(self):
        # Aggregates over no rollouts would be NaN; compute_metrics([])
        # raises for the same reason.
        m = make_model("collision", n_agents=2)
        with pytest.raises(ContractViolationError):
            sweep(m, self.factory(m), "gain", [1.0], 0, 5, 0, np.zeros((2, 2)))

    def test_empty_values_rejected(self):
        m = make_model("collision", n_agents=2)
        with pytest.raises(ContractViolationError):
            sweep(m, self.factory(m), "gain", [], 1, 5, 0, np.zeros((2, 2)))
