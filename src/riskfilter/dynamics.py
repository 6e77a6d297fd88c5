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
(theta, noise) samples supplied by the caller.  One transition function
per preset maps a state, a flat joint-action row and a sample to the
successor, and broadcasts over leading axes, so a rollout step, a
filter's candidate block and a lockstep collection stack all go through
it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import ConfigError, ContractViolationError

@dataclass(frozen=True)
class MasModel:
    """Immutable multi-agent system model.

    ``transition`` maps ``(x (..., M, d_x), u (..., A), thetas (...),
    noises (..., M, d_x)) -> (..., M, d_x)``, broadcasting the leading axes:
    every entry gets the bits of its own unbatched call.  ``transition_batch``
    holds the same function: rollouts step through ``transition`` and the
    filters, certification and value collection through ``transition_batch``,
    so each can be replaced or traced on its own.  ``cost_fn`` maps
    ``(..., M, d_x) -> (...)``; all are pure functions.
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
    transition: Callable = field(repr=False)
    safe_fn: Callable[[np.ndarray], bool] = field(repr=False)
    cost_fn: Callable[[np.ndarray], float] = field(repr=False)
    transition_batch: Callable = field(repr=False)

    @cached_property
    def actuated_agents(self) -> tuple:
        """Indices of agents with a nonempty action space."""
        return tuple(i for i, d in enumerate(self.action_dims) if d > 0)

    def agent_columns(self, agent: int) -> slice:
        """The columns of ``agent``'s action in a joint-action row."""
        return self._columns[agent]

    @cached_property
    def _columns(self) -> tuple:
        """Every agent's columns, in agent order; the one place that maps
        agents to columns."""
        stops = accumulate(self.action_dims)
        return tuple(slice(stop - d, stop) for d, stop in zip(self.action_dims, stops))

    def validate_state(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_agents, self.state_dim):
            raise ContractViolationError(
                f"state shape {x.shape} does not match "
                f"({self.n_agents}, {self.state_dim})"
            )
        if not np.isfinite(x).all():
            raise ContractViolationError("state contains non-finite entries")
        return x

    def validate_action(self, u) -> np.ndarray:
        """The joint-action row ``u`` as a float (A,) array, A = sum(action_dims)."""
        try:
            u = np.asarray(u, dtype=float)
        except ValueError as exc:   # ragged per-agent lists, say
            raise ContractViolationError(f"joint action is not a flat row: {exc}") from exc
        if u.shape != (sum(self.action_dims),):
            raise ContractViolationError(
                f"joint action row has shape {u.shape}, expected ({sum(self.action_dims)},)"
            )
        return u

    def split_action(self, row) -> list:
        """The agents' vectors of a joint-action row, in agent order, for
        callers outside the package that read actions per agent.  The row
        is copied, so the result keeps no larger block alive."""
        row = np.array(self.validate_action(row))
        return [row[self.agent_columns(i)] for i in range(self.n_agents)]

    def is_safe(self, x: np.ndarray) -> bool:
        return self.safe_fn(self.validate_state(x))

    def reward(self, x: np.ndarray, u) -> float:
        """Regulation reward exp(-||u||^2_Wu - sum_i ||x_i - x_ref||^2_Wxi) in (0, 1],
        for the joint-action row ``u``; ||u||^2 sums the agents' u_i @ u_i in
        agent order."""
        return self._reward(self.validate_state(x), self.validate_action(u))

    def _reward(self, x: np.ndarray, u: np.ndarray) -> float:
        """``reward`` of a state and row the caller has validated."""
        penalty = self.action_weight * sum(float(u[c] @ u[c]) for c in self._columns)
        err = x - self.x_ref
        penalty += float(np.add.reduce(self.state_weights * err * err, axis=None))
        return float(np.exp(-penalty))

    def zero_action(self) -> np.ndarray:
        return np.zeros(sum(self.action_dims))

    def flatten_state(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float).reshape(-1)


def _initial_state_rng(seed: int, *index: int) -> np.random.Generator:
    """The generator of the initial state(s) at ``seed``; the one place that holds key 977."""
    return np.random.default_rng(np.random.SeedSequence([seed, 977, *index]))


def sigm10(z):
    """Numerically stable sigm_10(z) = 1 / (1 + exp(-10 z)): with e = exp(-|10 z|),
    1 / (1 + e) where z >= 0 and e / (1 + e) elsewhere, so exp never overflows."""
    z = np.asarray(z, dtype=float) * 10.0
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _agent_mean(v):
    """Mean over the last (agent) axis: np.mean's add.reduce and division,
    without its per-call overhead, which dominates on lockstep stacks."""
    return np.add.reduce(v, axis=-1) / v.shape[-1]


def _spring_transition_batch(x, u, thetas, noises):
    pos, vel = x[..., 0], x[..., 1]
    e1 = pos[..., 0] - pos[..., 2]
    e2 = pos[..., 1] - pos[..., 2]
    half_t2 = 0.5 * thetas * thetas
    g0 = 5.0 * u[..., 0] - half_t2 * e1
    g = np.empty(g0.shape + (3,))
    g[..., 0] = g0
    g[..., 1] = 5.0 * u[..., 1] - half_t2 * e2
    g[..., 2] = half_t2 * (e1 + e2)
    clipped = np.minimum(np.maximum(vel, -1.0), 1.0)   # np.clip's bits, less overhead
    vel_next = vel + 0.1 * g - 0.1 * np.sin(clipped) + noises[..., 1]
    out = np.empty(vel_next.shape + (2,))
    out[..., 0] = pos + 0.1 * vel + noises[..., 0]
    out[..., 1] = vel_next
    return out


def _spring_safe(x):
    return bool((np.abs(x[:, 0]) <= 2.0).all())


def _spring_cost(x):
    return 1.0 - _agent_mean(sigm10(4.0 - x[..., 0] ** 2))


def _collision_transition_batch(x, u, thetas, noises):
    pos, vel = x[..., 0], x[..., 1]
    pos_next = pos + 0.01 * vel + np.asarray(thetas)[..., None] * np.sin(pos) + noises[..., 0]
    vel_next = vel + u + noises[..., 1]
    out = np.empty(np.broadcast(pos_next, vel_next).shape + (2,))
    out[..., 0] = pos_next
    out[..., 1] = vel_next
    return out


def _pairwise_sq_gaps(pos):
    """Squared position gaps to the nearest other agent, per agent: (..., M) -> (..., M)."""
    d2 = (pos[..., :, None] - pos[..., None, :]) ** 2
    agents = np.arange(pos.shape[-1])
    d2[..., agents, agents] = np.inf
    return d2.min(axis=-1)


def _collision_safe(x):
    return bool(_pairwise_sq_gaps(x[:, 0]).min() >= 0.2 ** 2)


def _collision_cost(x):
    return _agent_mean(sigm10(0.04 - _pairwise_sq_gaps(x[..., 0])))


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
            transition=_spring_transition_batch,
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
            transition=_collision_transition_batch,
            safe_fn=_collision_safe,
            cost_fn=_collision_cost,
            transition_batch=_collision_transition_batch,
        )
    raise ConfigError("invalid-value", f"unknown preset {preset!r}")
