"""Uncertain multi-agent benchmark dynamics.

Two benchmark systems are provided, both discrete-time with additive
Gaussian process noise and a scalar coupling parameter ``theta`` drawn
from a standard normal prior:

``spring``
    Two actuated agents connected to an unactuated joint mass (agent 3)
    via a spring whose stiffness depends on ``theta``.  Per agent,
    with ``e_i = pos_i - pos_3``::

        pos'  = pos + 0.1 * vel + w1
        vel'  = vel + 0.1 * g_i - 0.1 * sin(clamp(vel, -1, 1)) + w2
        g_i   = 5 * u_i - 0.5 * theta^2 * e_i          (i = 1, 2)
        g_3   = 0.5 * theta^2 * (e_1 + e_2)

    Safe set: |pos_i| <= 2 for every agent.

``collision``
    M independent double-integrator-like agents coupled only through
    pairwise collision constraints |pos_i - pos_j| >= 0.2::

        pos' = pos + 0.01 * vel + theta * sin(pos) + w1
        vel' = vel + u + w2

Each model carries its safe-set predicate, the smooth sigmoid cost that
encodes it, and the regulation reward used by the nominal task.  Models
are immutable after construction; all randomness enters through the
uncertainty samples supplied by the caller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, ContractViolationError

# A joint state is an (M, d_x) array; a joint action is a list of M
# per-agent vectors (empty for unactuated agents).
JointState = np.ndarray
JointAction = list


@dataclass(frozen=True)
class UncertaintySample:
    """One realization of the model uncertainty.

    ``theta`` is the scalar coupling parameter (standard normal prior) and
    ``noise`` is the (M, d_x) process-noise draw, one row per agent.
    """

    theta: float
    noise: np.ndarray


TransitionFn = Callable[[np.ndarray, list, UncertaintySample], np.ndarray]


@dataclass(frozen=True)
class MasModel:
    """Immutable multi-agent system model.

    ``transition`` must be a pure deterministic function of
    ``(x, u, sample)``; ``transition_batch`` maps ``(x, u (B, A), thetas
    (S,), noises (S, M, d_x)) -> (B, S, M, d_x)`` with entry [b, s] equal
    to ``transition(x, split_action(u[b]), sample s)`` bit for bit.
    ``state_weights`` holds the diagonal of each
    agent's quadratic reward weight; ``action_weight`` is the scalar
    coefficient of the (isotropic) action penalty.
    """

    preset: str
    n_agents: int
    state_dim: int
    action_dims: tuple
    noise_scale: float
    gamma: float
    x_ref: np.ndarray
    action_weight: float
    state_weights: np.ndarray
    action_low: float
    action_high: float
    transition: TransitionFn = field(repr=False)
    safe_fn: Callable[[np.ndarray], bool] = field(repr=False)
    cost_fn: Callable[[np.ndarray], float] = field(repr=False)
    transition_batch: Callable = field(repr=False)

    @property
    def actuated_agents(self) -> tuple:
        """Indices of agents with a nonempty action space."""
        return tuple(i for i, d in enumerate(self.action_dims) if d > 0)

    def validate_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_agents, self.state_dim):
            raise ContractViolationError(
                f"state shape {x.shape} does not match "
                f"({self.n_agents}, {self.state_dim})"
            )
        if not np.all(np.isfinite(x)):
            raise ContractViolationError("state contains non-finite entries")
        return x

    def validate_action(self, u: Sequence) -> list:
        if len(u) != self.n_agents:
            raise ContractViolationError(
                f"action has {len(u)} agent entries, expected {self.n_agents}"
            )
        out = []
        for i, (ui, d) in enumerate(zip(u, self.action_dims)):
            ui = np.asarray(ui, dtype=float).ravel()
            if ui.size != d:
                raise ContractViolationError(
                    f"agent {i} action has dimension {ui.size}, expected {d}"
                )
            out.append(ui)
        return out

    def split_action(self, row) -> list:
        """Joint action from its flat row of A = sum(action_dims) entries, the
        agents' vectors in agent order; the one place joint actions are assembled.
        The row is copied, so the result keeps no candidate block alive."""
        return np.split(np.array(row, dtype=float), np.cumsum(self.action_dims)[:-1])

    def step(self, x: np.ndarray, u: Sequence, sample: UncertaintySample) -> np.ndarray:
        """Apply the transition map once.  Deterministic in (x, u, sample)."""
        x = self.validate_state(x)
        u = self.validate_action(u)
        if sample.noise.shape != (self.n_agents, self.state_dim):
            raise ContractViolationError(
                f"noise shape {sample.noise.shape} does not match "
                f"({self.n_agents}, {self.state_dim})"
            )
        return self.transition(x, u, sample)

    def is_safe(self, x: np.ndarray) -> bool:
        return self.safe_fn(self.validate_state(x))

    def cost(self, x: np.ndarray) -> float:
        return self.cost_fn(self.validate_state(x))

    def reward(self, x: np.ndarray, u: Sequence) -> float:
        """Regulation reward exp(-||u||^2_Wu - sum_i ||x_i - x_ref||^2_Wxi) in (0, 1]."""
        x = self.validate_state(x)
        u = self.validate_action(u)
        penalty = self.action_weight * sum(float(ui @ ui) for ui in u)
        err = x - self.x_ref[None, :]
        penalty += float(np.sum(self.state_weights * err * err))
        return float(np.exp(-penalty))

    def zero_action(self) -> list:
        return [np.zeros(d) for d in self.action_dims]

    def flatten_state(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(-1)


def sigm10(z):
    """Numerically stable sigm_10(z) = 1 / (1 + exp(-10 z))."""
    z = np.asarray(z, dtype=float) * 10.0
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _spring_transition(x, u, s):
    e1 = x[0, 0] - x[2, 0]
    e2 = x[1, 0] - x[2, 0]
    half_t2 = 0.5 * s.theta * s.theta
    g = np.array([
        5.0 * u[0][0] - half_t2 * e1,
        5.0 * u[1][0] - half_t2 * e2,
        half_t2 * (e1 + e2),
    ])
    pos = x[:, 0] + 0.1 * x[:, 1] + s.noise[:, 0]
    vel = x[:, 1] + 0.1 * g - 0.1 * np.sin(np.clip(x[:, 1], -1.0, 1.0)) + s.noise[:, 1]
    return np.column_stack([pos, vel])


def _spring_transition_batch(x, u, thetas, noises):
    e1 = x[0, 0] - x[2, 0]
    e2 = x[1, 0] - x[2, 0]
    half_t2 = 0.5 * thetas * thetas
    g = np.empty((u.shape[0], thetas.size, 3))
    g[:, :, 0] = 5.0 * u[:, 0:1] - half_t2 * e1
    g[:, :, 1] = 5.0 * u[:, 1:2] - half_t2 * e2
    g[:, :, 2] = half_t2 * (e1 + e2)
    out = np.empty((u.shape[0], thetas.size, 3, 2))
    out[..., 0] = x[:, 0] + 0.1 * x[:, 1] + noises[:, :, 0]
    out[..., 1] = (x[:, 1] + 0.1 * g
                   - 0.1 * np.sin(np.clip(x[:, 1], -1.0, 1.0)) + noises[:, :, 1])
    return out


def _spring_safe(x):
    return bool(np.all(np.abs(x[:, 0]) <= 2.0))


def _spring_cost(x):
    return float(1.0 - np.mean(sigm10(4.0 - x[:, 0] ** 2)))


def _collision_transition(x, u, s):
    uvec = np.array([ui[0] for ui in u])
    pos = x[:, 0] + 0.01 * x[:, 1] + s.theta * np.sin(x[:, 0]) + s.noise[:, 0]
    vel = x[:, 1] + uvec + s.noise[:, 1]
    return np.column_stack([pos, vel])


def _collision_transition_batch(x, u, thetas, noises):
    out = np.empty((u.shape[0], thetas.size, x.shape[0], 2))
    out[..., 0] = x[:, 0] + 0.01 * x[:, 1] + thetas[:, None] * np.sin(x[:, 0]) + noises[:, :, 0]
    out[..., 1] = x[:, 1] + u[:, None, :] + noises[:, :, 1]
    return out


def _pairwise_sq_gaps(pos):
    """Squared position gaps to the nearest other agent, per agent."""
    d2 = (pos[:, None] - pos[None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    return d2.min(axis=1)


def _collision_safe(x):
    return bool(np.all(_pairwise_sq_gaps(x[:, 0]) >= 0.2 ** 2))


def _collision_cost(x):
    return float(np.mean(sigm10(0.04 - _pairwise_sq_gaps(x[:, 0]))))


def make_model(
    preset: str,
    n_agents: int | None = None,
    noise_scale: float | None = None,
    gamma: float = 0.99,
    action_low: float = -1.0,
    action_high: float = 1.0,
) -> MasModel:
    """Build a benchmark model with its preset defaults.

    ``spring`` always has M=3 (agent 3 is the unactuated mass);
    ``collision`` takes M >= 2 actuated agents.  Raises ConfigError for
    unknown presets or an invalid agent count.
    """
    if action_high <= action_low:
        raise ConfigError("invalid-value", "action box is empty (u_max <= u_min)")
    if preset == "spring":
        if n_agents not in (None, 3):
            raise ConfigError("invalid-value", "spring preset has exactly 3 agents")
        return MasModel(
            preset="spring",
            n_agents=3,
            state_dim=2,
            action_dims=(1, 1, 0),
            noise_scale=0.01 if noise_scale is None else noise_scale,
            gamma=gamma,
            x_ref=np.array([7.0 / 4.0, 0.0]),
            action_weight=0.01,
            state_weights=np.array([[0.1, 0.0], [0.1, 0.0], [1.0, 0.0]]),
            action_low=action_low,
            action_high=action_high,
            transition=_spring_transition,
            safe_fn=_spring_safe,
            cost_fn=_spring_cost,
            transition_batch=_spring_transition_batch,
        )
    if preset == "collision":
        m = 2 if n_agents is None else int(n_agents)
        if m < 2:
            raise ConfigError("invalid-value", "collision preset needs at least 2 agents")
        return MasModel(
            preset="collision",
            n_agents=m,
            state_dim=2,
            action_dims=tuple([1] * m),
            noise_scale=0.1 if noise_scale is None else noise_scale,
            gamma=gamma,
            x_ref=np.array([0.0, 0.0]),
            action_weight=0.1,
            state_weights=np.tile(np.array([1.0, 0.1]), (m, 1)),
            action_low=action_low,
            action_high=action_high,
            transition=_collision_transition,
            safe_fn=_collision_safe,
            cost_fn=_collision_cost,
            transition_batch=_collision_transition_batch,
        )
    raise ConfigError("invalid-value", f"unknown preset {preset!r}")
