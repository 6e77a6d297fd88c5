"""Monte-Carlo value estimation, value-model fitting, and the barrier.

The value of a policy is the expected discounted cost-to-go
``V(x) = E[sum_{k=1..H} gamma^k c(x_k)]`` with the expectation over both
the process noise and the coupling-parameter prior, truncated at horizon
``H``.  Targets are estimated by seeded rollouts, a small tanh network is
fit to them by full-batch Adam, and the barrier is

    h(x) = xi - V_hat(x)

so that membership in the sublevel set {V_hat <= xi} is exactly h >= 0.

The approximator is deliberately desk-scale (two hidden layers of 64
units by default): the safety filters only need a cheap deterministic
V_hat, not a high-capacity fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import MasModel, UncertaintySample
from .errors import ContractViolationError


@dataclass(frozen=True)
class ValueDataset:
    """Training rows: joint states and discounted cost-to-go targets.

    ``gamma`` and ``horizon`` record how the targets were generated and
    travel with the fitted model.
    """

    states: np.ndarray   # (n, M, d_x)
    targets: np.ndarray  # (n,)
    gamma: float = 0.99
    horizon: int = 0

    def __post_init__(self):
        if self.states.shape[0] != self.targets.shape[0]:
            raise ContractViolationError("states and targets disagree in length")
        if self.targets.size and (
            not np.all(np.isfinite(self.targets)) or np.any(self.targets < 0)
        ):
            raise ContractViolationError("targets must be finite and nonnegative")

    def __len__(self) -> int:
        return self.states.shape[0]

    @property
    def flat_states(self) -> np.ndarray:
        return self.states.reshape(len(self), -1)


def mc_cost_to_go(model: MasModel, policy, x, horizon: int, n_samples: int, seed) -> float:
    """Average of sum_{k=1..H} gamma^k c(x_k) over seeded closed-loop rollouts.

    Each rollout draws its own coupling parameter once and fresh noise per
    step.  Rollout r uses the generator seeded by (seed, r), so estimates
    with the same seed share their random draws across horizons: the
    estimate is monotone in H for nonnegative costs.
    """
    if horizon < 0:
        raise ContractViolationError(f"horizon must be >= 0, got {horizon}")
    if n_samples < 1:
        raise ContractViolationError(f"n_samples must be >= 1, got {n_samples}")
    x0 = model.validate_state(x)
    total = 0.0
    for r in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence([_seed_int(seed), r]))
        theta = float(rng.standard_normal())
        xk = x0
        acc = 0.0
        disc = 1.0
        for _ in range(horizon):
            u = policy(xk)
            noise = rng.standard_normal((model.n_agents, model.state_dim)) * model.noise_scale
            xk = model.step(xk, u, UncertaintySample(theta, noise))
            disc *= model.gamma
            acc += disc * model.cost(xk)
        total += acc
    return total / n_samples


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ContractViolationError(f"seed must be an integer, got {type(seed).__name__}")


def collect_dataset(
    model: MasModel,
    safe_policy,
    n_states: int,
    horizon: int,
    n_samples: int,
    seed: int,
    init_sampler,
) -> ValueDataset:
    """Sample initial states and label each with its Monte-Carlo cost-to-go.

    Row i uses seed ``seed + i`` for both its initial draw and its target
    rollouts, so rows are independent and the collection is trivially
    parallelizable.
    """
    if n_states < 1:
        raise ContractViolationError(f"n_states must be >= 1, got {n_states}")
    states = np.empty((n_states, model.n_agents, model.state_dim))
    targets = np.empty(n_states)
    base = _seed_int(seed)
    for i in range(n_states):
        row_seed = base + i
        x0 = init_sampler(np.random.default_rng(np.random.SeedSequence([row_seed, 977])))
        states[i] = model.validate_state(x0)
        targets[i] = mc_cost_to_go(model, safe_policy, x0, horizon, n_samples, row_seed)
    return ValueDataset(states=states, targets=targets, gamma=model.gamma, horizon=horizon)


@dataclass(frozen=True)
class ApproxConfig:
    """Hyperparameters of the value approximator."""

    hidden: tuple = (64, 64)
    epochs: int = 1500
    learning_rate: float = 0.01


@dataclass(frozen=True)
class ValueModel:
    """Deterministic feed-forward value approximator.

    Inputs are standardized with the stored dataset statistics, hidden
    layers use tanh, and predictions are clamped at 0 (the true value is
    nonnegative; spurious negatives would inflate the barrier).
    """

    layer_sizes: tuple
    weights: tuple = field(repr=False)
    biases: tuple = field(repr=False)
    x_mean: np.ndarray
    x_scale: np.ndarray
    y_mean: float
    y_scale: float
    gamma: float
    horizon: int
    train_seed: int
    final_mse: float

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    def predict(self, x) -> float | np.ndarray:
        """V_hat over the last axis of x (..., input_dim): a float for one flat
        state, an array of the leading shape for a stack.  Each layer is one
        ``@`` on the stack as given, so every (S, input_dim) slice gets the
        bits of its own 2-D call; the filters rely on this (never flatten).
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.input_dim:
            raise ContractViolationError(
                f"input shape {x.shape} does not match input dimension {self.input_dim}"
            )
        z = (np.atleast_2d(x) - self.x_mean) / self.x_scale
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            z = z @ w
            z += b  # in place: same bits, fewer live activation arrays
            np.tanh(z, out=z)
        out = (z @ self.weights[-1] + self.biases[-1])[..., 0]
        out = np.maximum(out * self.y_scale + self.y_mean, 0.0)
        return float(out[0]) if x.ndim == 1 else out


def fit_value(dataset: ValueDataset, config: ApproxConfig, seed: int) -> ValueModel:
    """Fit the approximator to the dataset by full-batch Adam on the MSE.

    Deterministic: the same dataset, config, and seed reproduce the model
    bitwise.  Targets are standardized internally (statistics live in the
    returned model), which conditions the optimization for the spread of
    discounted cost-to-go magnitudes.
    """
    if len(dataset) == 0:
        raise ContractViolationError("cannot fit a value model to an empty dataset")
    x = dataset.flat_states
    y = dataset.targets.astype(float)
    x_mean = x.mean(axis=0)
    x_scale = np.maximum(x.std(axis=0), 1e-12)
    y_mean = float(y.mean())
    y_scale = float(max(y.std(), 1e-12))
    xn = (x - x_mean) / x_scale
    yn = (y - y_mean) / y_scale

    sizes = (x.shape[1],) + tuple(config.hidden) + (1,)
    rng = np.random.default_rng(_seed_int(seed))
    weights = [rng.standard_normal((sizes[i], sizes[i + 1])) / np.sqrt(sizes[i])
               for i in range(len(sizes) - 1)]
    biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]

    # Full-batch Adam.
    lr, b1, b2, eps = config.learning_rate, 0.9, 0.999, 1e-8
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    n = x.shape[0]
    yn_col = yn[:, None]
    for t in range(1, config.epochs + 1):
        # Forward pass, keeping activations for the backward sweep.
        acts = [xn]
        z = xn
        for w, b in zip(weights[:-1], biases[:-1]):
            z = np.tanh(z @ w + b)
            acts.append(z)
        pred = z @ weights[-1] + biases[-1]
        delta = 2.0 * (pred - yn_col) / n
        grads_w = []
        grads_b = []
        for layer in range(len(weights) - 1, -1, -1):
            grads_w.append(acts[layer].T @ delta)
            grads_b.append(delta.sum(axis=0))
            if layer > 0:
                delta = (delta @ weights[layer].T) * (1.0 - acts[layer] ** 2)
        grads_w.reverse()
        grads_b.reverse()
        corr1 = 1.0 - b1 ** t
        corr2 = 1.0 - b2 ** t
        for i in range(len(weights)):
            m_w[i] = b1 * m_w[i] + (1 - b1) * grads_w[i]
            v_w[i] = b2 * v_w[i] + (1 - b2) * grads_w[i] ** 2
            weights[i] = weights[i] - lr * (m_w[i] / corr1) / (np.sqrt(v_w[i] / corr2) + eps)
            m_b[i] = b1 * m_b[i] + (1 - b1) * grads_b[i]
            v_b[i] = b2 * v_b[i] + (1 - b2) * grads_b[i] ** 2
            biases[i] = biases[i] - lr * (m_b[i] / corr1) / (np.sqrt(v_b[i] / corr2) + eps)

    z = xn
    for w, b in zip(weights[:-1], biases[:-1]):
        z = np.tanh(z @ w + b)
    pred = np.maximum((z @ weights[-1] + biases[-1]).ravel() * y_scale + y_mean, 0.0)
    mse = float(np.mean((pred - y) ** 2))

    return ValueModel(
        layer_sizes=sizes,
        weights=tuple(weights),
        biases=tuple(biases),
        x_mean=x_mean,
        x_scale=x_scale,
        y_mean=y_mean,
        y_scale=y_scale,
        gamma=dataset.gamma,
        horizon=dataset.horizon,
        train_seed=_seed_int(seed),
        final_mse=mse,
    )


@dataclass(frozen=True)
class Barrier:
    """Barrier h(x) = xi - V_hat(x) over a fitted (or stubbed) value model.

    ``value_model`` only needs a ``predict`` method with the same
    (..., input_dim) -> (...) contract as ``ValueModel.predict``, and so
    does ``value``.  Membership in the sublevel set {V_hat <= xi} is
    exactly ``value(x) >= 0``, with no tolerance.
    """

    value_model: object
    xi: float

    def value(self, x) -> float | np.ndarray:
        return self.xi - self.value_model.predict(x)

    def in_sublevel(self, x) -> bool:
        return bool(self.value(x) >= 0.0)
