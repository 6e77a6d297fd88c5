"""Seeded closed-loop rollouts and experiment metrics.

Seeding scheme: rollout i of a batch uses seed ``base + i`` and starts
from ``sampler(_initial_state_rng(base + i))``; ``rollouts`` holds this
rule for every batch.  Within a rollout the coupling parameter is drawn
once (it is resampled per rollout, not per step) and process noise fresh
per step, while each agent's filter solve draws its samples from
(rollout seed, step, agent), and every solve of a step shares its one
nominal and one safe policy call.  The switching controller makes one
``switching_filter`` call per step, which searches for every actuated
agent together, each under its own draw.
A joint action is one flat (A,) row from policy to filter to transition;
a record splits it into per-agent vectors only on access.
This reproduces every byte of output from (config, base seed) while
keeping the per-agent solves independent (an agent's outcome does not
depend on which other agents share its call), mirroring the setting
where agents share state but cannot coordinate actions.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import MasModel, _initial_state_rng
from .errors import ContractViolationError, RiskFilterError
from .filters import (
    Branch,
    FilterConfig,
    centralized_filter,
    draw_risk_samples,
    proximity_outcome,
    switching_filter,
)
from .policies import Policy
from .value import Barrier


@dataclass(frozen=True)
class StepDecision:
    """One controller invocation: the joint-action row plus per-agent branches.

    ``branches`` is None for unfiltered controllers; for filtered ones it
    holds one branch name per agent (empty for unactuated agents, which
    no filter touches).
    """

    action: np.ndarray            # (A,)
    branches: tuple | None = None


@dataclass(frozen=True)
class PolicyController:
    """Applies a raw policy; records no filter flags."""

    policy: Policy

    def act(self, model: MasModel, x, rollout_seed: int, step: int) -> StepDecision:
        return StepDecision(action=self.policy(x))


@dataclass(frozen=True)
class _FilteredController:
    """A filter around the nominal policy.  ``act`` computes h(x) and the
    step's nominal and safe rows once, and ``_solve`` returns the actuated
    agents' actions (each its own columns) and branches, in agent order."""

    barrier: Barrier
    nominal: Policy
    safe: Policy
    cfg: FilterConfig

    def act(self, model: MasModel, x, rollout_seed: int, step: int) -> StepDecision:
        x = model.validate_state(x)
        h_now = float(self.barrier.value(model.flatten_state(x)))
        if not math.isfinite(h_now):
            raise ContractViolationError(f"barrier value h(x) is not finite: {h_now}")
        actions, branches = self._solve(model, x, self.nominal(x), self.safe(x), h_now,
                                        rollout_seed, step)
        row = model.zero_action()
        names = [""] * model.n_agents
        for agent, action, branch in zip(model.actuated_agents, actions, branches):
            row[model.agent_columns(agent)] = action
            names[agent] = branch.value
        return StepDecision(action=row, branches=tuple(names))


@dataclass(frozen=True)
class SwitchingController(_FilteredController):
    """Independent per-agent switching filters around the nominal policy."""

    def _solve(self, model, x, nominal, safe, h_now, rollout_seed, step) -> tuple:
        agents = model.actuated_agents
        samples = [draw_risk_samples(model, self.cfg.n_samples,
                                     np.random.SeedSequence([rollout_seed, step, agent]))
                   for agent in agents]
        outs = switching_filter(model, self.barrier, agents, x, nominal, safe, self.cfg,
                                samples, h_now)
        return [out.action for out in outs], [out.branch for out in outs]


@dataclass(frozen=True)
class CentralizedController(_FilteredController):
    """Joint filter solve per step; falls back to per-agent proximity actions
    when the joint problem is infeasible."""

    def _solve(self, model, x, nominal, safe, h_now, rollout_seed, step) -> tuple:
        samples = draw_risk_samples(model, self.cfg.n_samples,
                                    np.random.SeedSequence([rollout_seed, step]))
        out = centralized_filter(model, self.barrier, x, nominal, self.cfg, samples, h_now)
        agents = model.actuated_agents
        if out is not None:     # views of the joint row, no per-agent outcomes
            return [out.action[model.agent_columns(a)] for a in agents], [out.branch] * len(agents)
        outs = [proximity_outcome(model, a, nominal, safe, self.cfg, h_now) for a in agents]
        return [out.action for out in outs], [out.branch for out in outs]


class ActionRows(Sequence):
    """A rollout's T joint actions, kept as one read-only (T, A) float array.

    Item k is ``model.split_action(row k)``, made on access (a slice gives
    a list of them), so a record holds 8·A action bytes per step.  This is
    where joint actions leave the package as per-agent lists: CSV writers
    and other readers take a record's actions agent by agent.
    """

    __slots__ = ("model", "rows")

    def __init__(self, model: MasModel, rows: np.ndarray):
        rows.flags.writeable = False
        self.model, self.rows = model, rows

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self.model.split_action(row) for row in self.rows[k]]
        return self.model.split_action(self.rows[k])


@dataclass(frozen=True)
class RolloutRecord:
    """One seeded trajectory with everything the metrics need.

    ``states`` has T+1 rows; ``safe`` flags every state including the
    initial one, but violation metrics count only the T post-transition
    states.  ``actions`` holds the T joint actions: ``rollout`` stores
    them as ``ActionRows``, and any sequence of joint actions (a list of
    per-agent lists, say) is accepted too.  ``branches`` is an object
    array of the shared branch-name strings, 8 bytes an entry where a
    unicode array takes 44.  ``feasible`` is ``branches != "proximity"``,
    derived once by ``rollout``.  Both are None for unfiltered runs.
    """

    seed: int
    theta: float
    states: np.ndarray            # (T+1, M, d_x)
    actions: Sequence             # T joint actions
    safe: np.ndarray              # (T+1,) bool
    rewards: np.ndarray           # (T,)
    branches: np.ndarray | None   # (T, M) str objects
    feasible: np.ndarray | None   # (T, M) bool

    @property
    def n_steps(self) -> int:
        return len(self.actions)


def rollout(model: MasModel, controller, x0, n_steps: int, seed: int) -> RolloutRecord:
    """Run the closed loop for n_steps from x0; deterministic given seed,
    which draws the coupling parameter once, then each step's noise.

    An error of step k (the controller's, a bad row or a non-finite
    successor) propagates with ``step_index = k`` attached.  Each state
    and row is validated once, where it enters the loop: x0, the
    decision's row and each successor ``model.transition`` gives; reward
    and safety then read them unchecked.
    """
    if n_steps < 0:
        raise ContractViolationError(f"n_steps must be >= 0, got {n_steps}")
    x = model.validate_state(x0)
    rng = np.random.default_rng(seed)
    th = float(rng.standard_normal())

    states = [x]
    actions = np.empty((n_steps, sum(model.action_dims)))
    safe = [model.safe_fn(x)]
    rewards = []
    filtered = None
    branches = []
    for k in range(n_steps):
        try:
            decision = controller.act(model, x, seed, k)
            u = model.validate_action(decision.action)
            noise = rng.standard_normal((model.n_agents, model.state_dim)) * model.noise_scale
            x_next = model.validate_state(model.transition(x, u, th, noise))
        except RiskFilterError as exc:
            exc.step_index = k
            raise
        if filtered is None:
            filtered = decision.branches is not None
        if filtered:
            branches.append(decision.branches)
        actions[k] = u
        rewards.append(model._reward(x, u))
        x = x_next
        states.append(x)
        safe.append(model.safe_fn(x))
    branches = np.array(branches, dtype=object) if filtered else None
    return RolloutRecord(
        seed=int(seed),
        theta=th,
        states=np.stack(states),
        actions=ActionRows(model, actions),
        safe=np.array(safe, dtype=bool),
        rewards=np.array(rewards),
        branches=branches,
        feasible=(branches != Branch.PROXIMITY.value) if filtered else None,
    )


@dataclass(frozen=True)
class Metrics:
    """Aggregate quantities over a set of rollouts.

    Violations count (rollout, step) pairs whose post-transition state
    leaves the safe set; the MSE compares position components against the
    reference, averaged over rollouts, steps, and agents; the feasibility
    rate is the fraction of filtered (step, agent) solves whose branch is
    not the proximity fallback.
    """

    violation_count: int
    violation_rate: float
    mse: float
    cumulative_reward: float
    feasibility_rate: float | None
    branch_usage: dict


def compute_metrics(records, model: MasModel) -> Metrics:
    records = list(records)
    if not records:
        raise ContractViolationError("compute_metrics needs at least one rollout")
    violations = sum(int(np.sum(~r.safe[1:])) for r in records)
    total_steps = sum(r.n_steps for r in records)
    sq_err = []
    for r in records:
        if r.n_steps:
            sq_err.append((r.states[1:, :, 0] - model.x_ref[0]) ** 2)
    mse = float(np.mean(np.concatenate([e.ravel() for e in sq_err]))) if sq_err else 0.0
    cum_reward = float(np.mean([r.rewards.sum() for r in records]))

    feas_rate = None
    usage: Counter = Counter()
    filtered = [r for r in records if r.branches is not None]
    if filtered:
        actuated = model.actuated_agents
        flags = np.concatenate([r.feasible[:, actuated] for r in filtered], axis=0)
        feas_rate = float(flags.mean()) if flags.size else 1.0
        for r in filtered:
            usage.update(r.branches[:, actuated].ravel().tolist())
    return Metrics(
        violation_count=violations,
        violation_rate=violations / total_steps if total_steps else 0.0,
        mse=mse,
        cumulative_reward=cum_reward,
        feasibility_rate=feas_rate,
        branch_usage=dict(usage),
    )


@dataclass(frozen=True)
class SweepRow:
    """One parameter setting's aggregate metrics with across-rollout spreads."""

    param_name: str
    param_value: float
    violations_mean: float
    violations_std: float
    mse_mean: float
    mse_std: float
    reward_mean: float
    reward_std: float
    feas_rate_mean: float


def rollouts(model: MasModel, controller, init_sampler, n_rollouts: int, n_steps: int,
             base_seed: int):
    """Yield the records of rollouts i = 0..n_rollouts-1, one at a time:
    rollout i runs at seed ``base_seed + i`` from
    ``init_sampler(_initial_state_rng(base_seed + i))``."""
    for i in range(n_rollouts):
        seed = base_seed + i
        yield rollout(model, controller, init_sampler(_initial_state_rng(seed)), n_steps, seed)


def sweep(
    model: MasModel,
    controller_factory,
    param_name: str,
    values,
    n_rollouts: int,
    n_steps: int,
    base_seed: int,
    init_sampler,
) -> list:
    """Run n_rollouts per parameter value and aggregate per-rollout metrics.

    ``controller_factory(value)`` builds the controller for one setting;
    ``init_sampler`` draws each rollout's initial joint state from a
    generator, as in ``rollouts``.  Rollout seeds are shared across
    parameter values, so comparisons use common random numbers.
    """
    values = list(values)
    if not values:
        raise ContractViolationError("sweep needs at least one parameter value")
    if n_rollouts < 1:
        raise ContractViolationError(f"sweep needs n_rollouts >= 1, got {n_rollouts}")
    rows = []
    for v in values:
        per_rollout = [compute_metrics([rec], model)
                       for rec in rollouts(model, controller_factory(v), init_sampler,
                                           n_rollouts, n_steps, base_seed)]
        viol = np.array([m.violation_count for m in per_rollout], dtype=float)
        mses = np.array([m.mse for m in per_rollout])
        rews = np.array([m.cumulative_reward for m in per_rollout])
        feas = [m.feasibility_rate for m in per_rollout if m.feasibility_rate is not None]
        rows.append(SweepRow(
            param_name=param_name,
            param_value=float(v),
            violations_mean=float(viol.mean()),
            violations_std=float(viol.std()),
            mse_mean=float(mses.mean()),
            mse_std=float(mses.std()),
            reward_mean=float(rews.mean()),
            reward_std=float(rews.std()),
            feas_rate_mean=float(np.mean(feas)) if feas else 1.0,
        ))
    return rows
