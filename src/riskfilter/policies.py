"""Nominal and safe policies.

Hand-designed proportional controllers stand in for learned task
policies: one gain pair for every actuated agent,

    u_i = clip(-Kp * (pos_i - pos_ref) - Kd * vel_i,  [u_min, u_max])

An aggressive gain pair overshoots the reference and violates the state
constraints; a conservative pair approaches slowly and serves as the
safe back-up policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import MasModel
from .errors import ContractViolationError


@dataclass(frozen=True)
class Policy:
    """Deterministic state-feedback policy; outputs are clipped to the action box.

    Calling it maps joint states (..., M, d_x) to flat joint actions
    (..., A), as ``eval_policy`` does.  ``gains`` is the one [Kp, Kd] pair
    that every actuated agent uses.  ``setpoints`` gives each agent its
    position reference; agents that must stay apart (collision
    constraints) need distinct setpoints, since feedback to a shared
    reference drives them into each other.
    """

    gains: np.ndarray               # (d_x,)
    action_dims: tuple
    action_low: float
    action_high: float
    setpoints: np.ndarray           # (M,) per-agent position refs

    def __call__(self, x):
        return eval_policy(self, x)


def eval_policy(policy: Policy, x) -> np.ndarray:
    """Flat joint actions (..., A) from joint states (..., M, d_x), all agents
    at once; ``MasModel.agent_columns`` gives each agent's columns of a row.

    Each agent's gain product is a stacked (1, 2) @ (2, 1) matmul against
    the gain column, broadcast over the agents, which gives it the bits of
    its own ``gains @ err[i]`` (a multiply-add, ``einsum`` or ``.sum``
    does not).  Unactuated agents get a raw action too, which the
    ``action_dims`` repeat drops.
    """
    x = np.asarray(x, dtype=float)
    m = len(policy.action_dims)
    if x.ndim < 2 or x.shape[-2:] != (m, policy.gains.size):
        raise ContractViolationError(
            f"state shape {x.shape} does not match policy dimensions "
            f"({m}, {policy.gains.size})"
        )
    err = x.copy()
    err[..., 0] -= policy.setpoints
    raw = -(err[..., None, :] @ policy.gains[:, None])[..., 0, 0]
    raw = raw.repeat(policy.action_dims, axis=-1)
    return np.minimum(np.maximum(raw, policy.action_low), policy.action_high)  # np.clip's bits


def make_proportional(model: MasModel, gains, setpoints=None) -> Policy:
    """Proportional policy from one (Kp, Kd) pair shared by all actuated
    agents; ``setpoints`` optionally assigns each agent its own position
    reference in place of the model's shared one."""
    gains = np.array(gains, dtype=float)
    if gains.shape != (model.state_dim,):
        raise ContractViolationError(
            f"gain shape {gains.shape} is not one pair of state dimension "
            f"{model.state_dim}"
        )
    if setpoints is None:
        setpoints = np.full(model.n_agents, model.x_ref[0])
    setpoints = np.asarray(setpoints, dtype=float).ravel()
    if setpoints.size != model.n_agents:
        raise ContractViolationError(
            f"{setpoints.size} setpoints for {model.n_agents} agents"
        )
    return Policy(
        gains=gains,
        action_dims=model.action_dims,
        action_low=model.action_low,
        action_high=model.action_high,
        setpoints=setpoints,
    )
