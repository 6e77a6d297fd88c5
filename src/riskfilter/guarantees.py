"""Closed-form safety probability and empirical certification.

If the risk condition holds with (beta, alpha, epsilon) everywhere on the
barrier's sublevel set, the closed loop stays safe for K steps with
probability at least 1 - delta, where

    delta = 1 - (1 - exp(-beta*(alpha*h0 + epsilon)))
                * (1 - exp(-beta*epsilon))^(K-1)

with h0 the barrier value at the initial state.  Note that epsilon = 0
makes the multi-step bound vacuous (delta = 1 exactly for K >= 2) while
the single-step bound remains informative.

``certify_grid`` spot-checks the condition empirically on a finite state
sample with a high-accuracy risk estimate (N samples, N >> the filters'
S), since exhaustive verification over continuous sets is out of scope.
It evaluates every sampled state together, with one h(x) call per chunk
of states, one policy call and the filters' margin kernel on one row per
state, so each margin has the bits of ``check_condition`` at that state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import MasModel
from .errors import ContractViolationError, GuaranteeDomainError
from .filters import _PASS_PAIRS, FilterConfig, _margins, draw_risk_samples
from .value import Barrier


def compute_delta(beta: float, alpha: float, epsilon: float, h0: float, k_steps: int) -> float:
    """Exact evaluation of the K-step violation-probability bound."""
    if beta <= 0:
        raise GuaranteeDomainError(f"beta must be > 0, got {beta}")
    if not 0.0 <= alpha <= 1.0:
        raise GuaranteeDomainError(f"alpha must lie in [0, 1], got {alpha}")
    if epsilon < 0:
        raise GuaranteeDomainError(f"epsilon must be >= 0, got {epsilon}")
    if h0 < 0:
        raise GuaranteeDomainError(
            f"initial barrier value must be >= 0, got {h0} (outside guaranteed region)"
        )
    if k_steps < 1:
        raise GuaranteeDomainError(f"k_steps must be >= 1, got {k_steps}")
    # 1 - (1 - a) * b rearranged to 1 - b + a*b: exact for the K = 1
    # (b = 1) and epsilon = 0 (b = 0) corner cases.
    a = math.exp(-beta * (alpha * h0 + epsilon))
    b = (1.0 - math.exp(-beta * epsilon)) ** (k_steps - 1)
    return 1.0 - b + a * b


@dataclass(frozen=True)
class GuaranteeReport:
    """Empirical certification summary over a state sample.

    ``h_min`` is the smallest barrier value among evaluated states; ``delta``
    is the K-step bound at that value, or None when no state lay in the
    sublevel set.  ``passed`` flags the margins >= ``cfg.tolerance``.
    """

    beta: float
    alpha: float
    epsilon: float
    k_steps: int
    h_min: float | None
    delta: float | None
    margins: np.ndarray
    passed: np.ndarray
    n_states: int
    n_evaluated: int
    n_skipped: int

    @property
    def pass_fraction(self) -> float:
        return float(np.mean(self.passed)) if self.passed.size else 0.0

    @property
    def vacuous(self) -> bool:
        """True when the multi-step bound carries no information (delta = 1)."""
        return self.delta is not None and self.k_steps >= 2 and self.epsilon == 0.0


def certify_grid(
    model: MasModel,
    barrier: Barrier,
    policy,
    states,
    cfg: FilterConfig,
    seed: int,
    n_oracle_samples: int,
    k_steps: int = 1,
) -> GuaranteeReport:
    """Check the risk condition at policy actions over sampled states.

    States with a negative barrier value are skipped (the guarantee is
    only claimed on the sublevel set).  State i draws its samples from
    ``SeedSequence([seed, i])``, so the report is deterministic given
    ``seed`` and each margin is the one ``check_condition`` gives at that
    state alone.

    The states are evaluated together: one shape and one finiteness check
    on the (n, M, d_x) stack, one ``barrier.value`` call per _PASS_PAIRS
    states, as a (chunk, 1, M * d_x) stack whose slices keep the bits of
    one-state calls, one ``policy`` call on the (evaluated, M, d_x) stack,
    which must return (evaluated, A) actions, and the margin kernel on
    one row per evaluated state.  Each kernel pass draws its own states'
    samples, so the draws held at once never exceed one pass.
    """
    if n_oracle_samples < 1:
        raise ContractViolationError(f"n_oracle_samples must be >= 1, got {n_oracle_samples}")
    if k_steps < 1:
        raise ContractViolationError(f"k_steps must be >= 1, got {k_steps}")
    states = list(states)
    if not states:
        raise ContractViolationError("certify_grid needs at least one state")
    stack = f"(n, {model.n_agents}, {model.state_dim})"
    try:
        xs = np.asarray(states, dtype=float)
    except ValueError as exc:   # ragged states
        raise ContractViolationError(f"states do not stack to {stack}") from exc
    if xs.shape[1:] != (model.n_agents, model.state_dim):
        raise ContractViolationError(f"state stack shape {xs.shape} does not match {stack}")
    if not np.all(np.isfinite(xs)):
        raise ContractViolationError("state contains non-finite entries")

    flat = xs.reshape(len(xs), 1, -1)
    h = np.concatenate([np.asarray(barrier.value(flat[i:i + _PASS_PAIRS]), dtype=float)[:, 0]
                        for i in range(0, len(xs), _PASS_PAIRS)])
    index = np.flatnonzero(~(h < 0))    # skip h < 0 only: a NaN h is evaluated
    h = h[index]
    margins = np.empty(len(index))
    if index.size:
        expected = (len(index), sum(model.action_dims))
        rows = np.asarray(policy(xs[index]), dtype=float)
        if rows.shape != expected:
            raise ContractViolationError(
                f"policy returned shape {rows.shape} for {len(index)} states, expected {expected}")
        step = max(1, _PASS_PAIRS // n_oracle_samples)
        for start in range(0, len(index), step):
            part = slice(start, start + step)
            states_in_pass = index[part]
            thetas = np.empty((len(states_in_pass), n_oracle_samples))
            noises = np.empty(thetas.shape + xs.shape[1:])
            for j, i in enumerate(states_in_pass.tolist()):
                thetas[j], noises[j] = draw_risk_samples(model, n_oracle_samples,
                                                         np.random.SeedSequence([seed, i]))
            margins[part] = _margins(model, barrier, xs[states_in_pass], cfg, (thetas, noises),
                                     h[part], rows[part])
    # The builtin min over the states in order: a NaN h is the minimum only
    # when it comes first, where np.min would let any NaN win.
    h_min = min(h.tolist()) if index.size else None
    delta = (
        compute_delta(cfg.beta, cfg.alpha, cfg.epsilon, h_min, k_steps)
        if h_min is not None
        else None
    )
    return GuaranteeReport(
        beta=cfg.beta,
        alpha=cfg.alpha,
        epsilon=cfg.epsilon,
        k_steps=k_steps,
        h_min=h_min,
        delta=delta,
        margins=margins,
        passed=margins >= cfg.tolerance,
        n_states=len(xs),
        n_evaluated=margins.size,
        n_skipped=len(xs) - margins.size,
    )
