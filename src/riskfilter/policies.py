"""Nominal and safe policies, plus a cross-entropy improvement loop.

Hand-designed proportional controllers stand in for learned task
policies: per actuated agent,

    u_i = clip(-Kp * (pos_i - pos_ref) - Kd * vel_i,  [u_min, u_max])

An aggressive gain pair overshoots the reference and violates the state
constraints; a conservative pair approaches slowly and serves as the
safe back-up policy.  ``cem_improve`` optionally searches over the gain
parameters with a seeded cross-entropy loop using common random numbers,
so its best-objective trace is monotone by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import MasModel
from .errors import ContractViolationError
from .value import mc_cost_to_go


@dataclass(frozen=True)
class Policy:
    """Deterministic state-feedback policy; outputs are clipped to the action box.

    Calling it maps joint states (..., M, d_x) to flat joint actions
    (..., A), as ``eval_policy`` does.  ``gains`` holds one [Kp, Kd] row
    per agent (rows of unactuated agents are ignored).  ``setpoints``
    optionally gives each agent its own position reference in place of
    the shared one; agents that must stay apart (collision constraints)
    need distinct setpoints, since feedback to a shared reference drives
    them into each other.
    """

    kind: str                       # proportional | improved
    gains: np.ndarray               # (M, d_x)
    x_ref: np.ndarray               # (d_x,)
    action_dims: tuple
    action_low: float
    action_high: float
    setpoints: np.ndarray | None = None       # (M,) per-agent position refs

    def __call__(self, x):
        return eval_policy(self, x)


def eval_policy(policy: Policy, x) -> np.ndarray:
    """Flat joint actions (..., A) from joint states (..., M, d_x), all agents
    at once; ``MasModel.agent_columns`` gives each agent's columns of a row.

    Each agent's gain product is a stacked (1, 2) @ (2, 1) matmul, which
    gives it the bits of its own ``gains[i] @ err[i]`` (a multiply-add,
    ``einsum`` or ``.sum`` does not).
    """
    x = np.asarray(x, dtype=float)
    m = len(policy.action_dims)
    if x.ndim < 2 or x.shape[-2:] != (m, policy.gains.shape[1]):
        raise ContractViolationError(
            f"state shape {x.shape} does not match policy dimensions "
            f"({m}, {policy.gains.shape[1]})"
        )
    err = x.copy()
    if policy.setpoints is not None:
        err[..., 0] -= policy.setpoints
    else:
        err[..., 0] -= policy.x_ref[0]
    raw = -(err[..., None, :] @ policy.gains[:, :, None])[..., 0, 0]
    raw = raw.repeat(policy.action_dims, axis=-1)
    return np.minimum(np.maximum(raw, policy.action_low), policy.action_high)  # np.clip's bits


def make_proportional(model: MasModel, gains, setpoints=None) -> Policy:
    """Proportional policy from a (Kp, Kd) pair shared by all actuated agents,
    or one pair per actuated agent; ``setpoints`` optionally assigns each
    agent its own position reference."""
    gains = np.asarray(gains, dtype=float)
    if setpoints is not None:
        setpoints = np.asarray(setpoints, dtype=float).ravel()
        if setpoints.size != model.n_agents:
            raise ContractViolationError(
                f"{setpoints.size} setpoints for {model.n_agents} agents"
            )
    actuated = model.actuated_agents
    full = np.zeros((model.n_agents, model.state_dim))
    if gains.shape == (model.state_dim,):
        for i in actuated:
            full[i] = gains
    elif gains.shape == (len(actuated), model.state_dim):
        for row, i in enumerate(actuated):
            full[i] = gains[row]
    elif gains.shape == (model.n_agents, model.state_dim):
        full = gains.copy()
    else:
        raise ContractViolationError(
            f"gain shape {gains.shape} does not match {len(actuated)} actuated "
            f"agents of state dimension {model.state_dim}"
        )
    return Policy(
        kind="proportional",
        gains=full,
        x_ref=model.x_ref.copy(),
        action_dims=model.action_dims,
        action_low=model.action_low,
        action_high=model.action_high,
        setpoints=setpoints,
    )


@dataclass(frozen=True)
class CemResult:
    """Best policy found and the best-objective value after each iteration."""

    policy: Policy
    objective_trace: tuple


def mean_cost_objective(model: MasModel, eval_states, horizon: int, n_samples: int, seed: int):
    """Objective for cem_improve: mean Monte-Carlo cost-to-go over fixed states.

    The seed is fixed inside the closure, so every candidate is scored on
    the same random draws (common random numbers); the states share that
    seed, so one lockstep call scores all of them on one draw.
    """
    states = np.stack([model.validate_state(s) for s in eval_states])

    def objective(policy) -> float:
        return float(np.mean(mc_cost_to_go(model, policy, states, horizon, n_samples, seed)))

    return objective


def cem_improve(
    model: MasModel,
    init_policy: Policy,
    objective,
    iterations: int,
    population: int,
    elite_frac: float,
    seed: int,
    init_std: float = 0.5,
) -> CemResult:
    """Cross-entropy search over the actuated gain parameters.

    Returns the parameters with the best evaluated objective; with
    iterations = 0 the initial policy is returned unchanged.  The
    objective must be deterministic (see mean_cost_objective) so that
    candidate comparisons are consistent.
    """
    if iterations < 0:
        raise ContractViolationError(f"iterations must be >= 0, got {iterations}")
    if population < 2:
        raise ContractViolationError(f"population must be >= 2, got {population}")

    actuated = model.actuated_agents
    if iterations == 0:
        return CemResult(policy=init_policy, objective_trace=(float(objective(init_policy)),))

    def with_params(p: np.ndarray) -> Policy:
        gains = init_policy.gains.copy()
        for row, i in enumerate(actuated):
            gains[i] = p[row * model.state_dim:(row + 1) * model.state_dim]
        return replace(init_policy, kind="improved", gains=gains)

    best_params = np.concatenate([init_policy.gains[i] for i in actuated])
    best_obj = float(objective(init_policy))
    trace = [best_obj]
    mean = best_params.copy()
    std = np.full_like(mean, init_std)
    n_elite = max(1, int(round(elite_frac * population)))
    rng = np.random.default_rng(seed)
    for _ in range(iterations):
        cands = mean[None, :] + std[None, :] * rng.standard_normal((population, mean.size))
        objs = np.array([objective(with_params(p)) for p in cands])
        order = np.argsort(objs, kind="stable")
        elites = cands[order[:n_elite]]
        mean = elites.mean(axis=0)
        std = elites.std(axis=0) + 1e-6
        if objs[order[0]] < best_obj:
            best_obj = float(objs[order[0]])
            best_params = cands[order[0]].copy()
        trace.append(best_obj)
    return CemResult(policy=with_params(best_params), objective_trace=tuple(trace))
