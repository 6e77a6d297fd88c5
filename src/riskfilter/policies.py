"""Nominal and safe policies.

Hand-designed proportional controllers stand in for learned task
policies: per actuated agent,

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
    (..., A), as ``eval_policy`` does.  ``gains`` holds one [Kp, Kd] row
    per agent (rows of unactuated agents are ignored).  ``setpoints``
    optionally gives each agent its own position reference in place of
    the shared one; agents that must stay apart (collision constraints)
    need distinct setpoints, since feedback to a shared reference drives
    them into each other.
    """

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
        gains=full,
        x_ref=model.x_ref.copy(),
        action_dims=model.action_dims,
        action_low=model.action_low,
        action_high=model.action_high,
        setpoints=setpoints,
    )
