"""Monte-Carlo value estimation, value-model fitting, and the barrier.

The value of a policy is the expected discounted cost-to-go
``V(x) = E[sum_{k=1..H} gamma^k c(x_k)]`` with the expectation over both
the process noise and the coupling-parameter prior, truncated at horizon
``H``.  Targets are estimated by seeded rollouts that run in lockstep:
every row and rollout steps together through one policy and transition
call per step, and one cost call per block of steps, with the bits of
one-at-a-time rollouts.  A small tanh network is fit to the targets by
full-batch Adam over flat parameter buffers, and the barrier is

    h(x) = xi - V_hat(x)

so that membership in the sublevel set {V_hat <= xi} is exactly h >= 0.

The approximator is deliberately desk-scale (two hidden layers of 64
units by default): the safety filters only need a cheap deterministic
V_hat, not a high-capacity fit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from .dynamics import MasModel, _initial_state_rng
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


def mc_cost_to_go(model: MasModel, policy, x, horizon: int, n_samples: int, seed):
    """Average of sum_{k=1..H} gamma^k c(x_k) over seeded closed-loop rollouts.

    Each rollout draws its own coupling parameter once and fresh noise per
    step.  Rollout r uses the generator seeded by (seed, r), so estimates
    with the same seed share their random draws across horizons: the
    estimate is monotone in H for nonnegative costs.  ``x`` is one state
    (a float is returned) or a stack (..., M, d_x) of states that all
    share the one seed and its draws (an array of the leading shape).
    """
    _check_sizes(horizon, n_samples)
    x = np.asarray(x, dtype=float)
    states = x.reshape(-1, *x.shape[-2:]) if x.ndim > 2 else x[None]
    for state in states:
        model.validate_state(state)
    thetas, noises = _rollout_draws(model, _seed_int(seed), horizon, n_samples)
    targets = _lockstep(model, policy, states, thetas, noises)
    return float(targets[0]) if x.ndim == 2 else targets.reshape(x.shape[:-2])


def _check_sizes(horizon: int, n_samples: int) -> None:
    if horizon < 0:
        raise ContractViolationError(f"horizon must be >= 0, got {horizon}")
    if n_samples < 1:
        raise ContractViolationError(f"n_samples must be >= 1, got {n_samples}")


def _seed_int(seed) -> int:
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    raise ContractViolationError(f"seed must be an integer, got {type(seed).__name__}")


def _rollout_draws(model: MasModel, seed: int, horizon: int, n_samples: int) -> tuple:
    """(thetas (S,), noises (S, H, M, d_x)) of rollouts r = 0..S-1 under ``seed``.

    Generator (seed, r) draws theta, then all H steps' noise in one block,
    which has the bits of H successive (M, d_x) draws.
    """
    thetas = np.empty(n_samples)
    noises = np.empty((n_samples, horizon, model.n_agents, model.state_dim))
    for r in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        thetas[r] = rng.standard_normal()
        noises[r] = rng.standard_normal(noises.shape[1:])
    return thetas, noises * model.noise_scale


# Steps per lockstep block: a block's states, (steps, rows, S, M, d_x)
# floats, are costed, checked and summed together, so memory does not grow
# with the horizon.
_BLOCK_STEPS = 25


def _lockstep(model: MasModel, policy, states: np.ndarray, thetas: np.ndarray,
              noises: np.ndarray) -> np.ndarray:
    """Monte-Carlo targets (N,) of validated states (N, M, d_x), every row and
    rollout stepping together: one ``policy`` and ``transition_batch`` call
    per step on the (N, S, M, d_x) stack, and one ``cost_fn`` call and
    finiteness check per block of up to _BLOCK_STEPS steps.

    ``thetas`` (N, S) or (S,) and ``noises`` (N, S, H, M, d_x) or
    (S, H, M, d_x) are the rollouts' draws; shared draws broadcast over rows.
    Each row's rollouts run the per-sample arithmetic elementwise; the
    discounts are a cumulative product, the running sum a cumulative sum
    along the step axis seeded with the previous block's sum, and the sum
    over rollouts runs in r order, so the targets keep the bits of a
    one-state, one-rollout loop.
    """
    n_samples = thetas.shape[-1]
    horizon = noises.shape[-3]
    x = np.broadcast_to(states[:, None], (len(states), n_samples) + states.shape[1:])
    lead = x.shape[:-2] + (sum(model.action_dims),)
    discounts = np.cumprod(np.full(horizon, model.gamma)).reshape((-1, 1, 1))
    block = np.empty((min(_BLOCK_STEPS, horizon),) + x.shape)   # reused by every block
    acc = np.zeros(x.shape[:-2])
    for start in range(0, horizon, _BLOCK_STEPS):
        steps = block[:horizon - start]
        for j in range(len(steps)):
            u = policy(x)
            if not isinstance(u, np.ndarray) or u.shape != lead:
                raise ContractViolationError(
                    f"policy returned {type(u).__name__} of shape {getattr(u, 'shape', None)}, "
                    f"expected an array of shape {lead}"
                )
            steps[j] = model.transition_batch(x, u, thetas, noises[..., start + j, :, :])
            x = steps[j]
        if not np.isfinite(steps).all():
            raise ContractViolationError("state contains non-finite entries")
        terms = model.cost_fn(steps) * discounts[start:start + len(steps)]
        terms[0] += acc
        acc = np.cumsum(terms, axis=0)[-1]
    return np.cumsum(acc, axis=1)[:, -1] / n_samples


# Rows per lockstep chunk in collect_dataset: a chunk holds its rows' draws
# and one block of their states, so memory does not grow with the row count.
_CHUNK_ROWS = 256


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
    rollouts, so a row's state and target do not depend on the other rows:
    rows run in lockstep chunks of _CHUNK_ROWS, and row i of any call is
    the one-row call at ``seed + i``, bit for bit.  A chunk holds its
    draws, rows x S x H x M x d_x floats, and one block of _BLOCK_STEPS
    states, rows x S x M x d_x floats each: 4.9 + 0.6 MB at 256 rows,
    2 rollouts, horizon 200 and 3 two-dimensional agents.
    """
    if n_states < 1:
        raise ContractViolationError(f"n_states must be >= 1, got {n_states}")
    _check_sizes(horizon, n_samples)
    base = _seed_int(seed)
    states = np.empty((n_states, model.n_agents, model.state_dim))
    for i in range(n_states):
        x0 = init_sampler(_initial_state_rng(base + i))
        states[i] = model.validate_state(x0)
    targets = np.empty(n_states)
    chunk = min(_CHUNK_ROWS, n_states)
    thetas = np.empty((chunk, n_samples))   # reused by every chunk
    noises = np.empty((chunk, n_samples, horizon) + states.shape[1:])
    for start in range(0, n_states, chunk):
        n = min(chunk, n_states - start)
        for j in range(n):
            thetas[j], noises[j] = _rollout_draws(model, base + start + j, horizon, n_samples)
        targets[start:start + n] = _lockstep(model, safe_policy, states[start:start + n],
                                             thetas[:n], noises[:n])
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
        matmul on the stack as given, so every (S, input_dim) slice gets the
        bits of its own 2-D call; the filters rely on this (never flatten).
        A stack of at most _BUFFER_ROWS rows writes its hidden layers into
        the calling thread's two reused buffers, alternately; the result is
        always a new array.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.input_dim:
            raise ContractViolationError(
                f"input shape {x.shape} does not match input dimension {self.input_dim}"
            )
        z = (np.atleast_2d(x) - self.x_mean) / self.x_scale
        rows = z.size // self.input_dim
        buffers = (_hidden_buffers(max(self.layer_sizes[1:-1], default=0))
                   if rows <= _BUFFER_ROWS else None)
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            out = (None if buffers is None else
                   buffers[i % 2][:rows * w.shape[1]].reshape(z.shape[:-1] + w.shape[1:]))
            z = np.matmul(z, w, out=out)
            z += b  # in place: same bits, fewer live activation arrays
            np.tanh(z, out=z)
        out = (z @ self.weights[-1] + self.biases[-1])[..., 0]
        out = np.maximum(out * self.y_scale + self.y_mean, 0.0)
        return float(out[0]) if x.ndim == 1 else out


# Rows of the largest stack whose hidden activations go to reused buffers;
# every kernel, screen and certify pass at the defaults has at most 640.
# A fresh activation array over glibc's 128 KiB mmap threshold is mapped
# and unmapped again on each call or not, depending on the heap's history,
# and each mapping faults its pages in anew: a certify call took thousands
# of page faults, and its time moved by a third between runs of the same code.
_BUFFER_ROWS = 1024
_thread_buffers = threading.local()


def _hidden_buffers(width: int) -> tuple:
    """The calling thread's two flat buffers of _BUFFER_ROWS * width floats
    or more.  Each thread has its own, so concurrent ``predict`` calls never
    share one, and ``predict`` calls nothing that could re-enter it."""
    pair = getattr(_thread_buffers, "pair", None)
    if pair is None or pair[0].size < _BUFFER_ROWS * width:
        pair = _thread_buffers.pair = (np.empty(_BUFFER_ROWS * width),
                                       np.empty(_BUFFER_ROWS * width))
    return pair


def _layer_views(flat: np.ndarray, sizes: tuple) -> tuple:
    """(weights, biases) of a network with these layer sizes as views into
    ``flat``: layer by layer, each weight matrix, then its bias."""
    weights, biases, start = [], [], 0
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[start:start + a * b].reshape(a, b))
        biases.append(flat[start + a * b:start + a * b + b])
        start += a * b + b
    return weights, biases


def fit_value(dataset: ValueDataset, config: ApproxConfig, seed: int) -> ValueModel:
    """Fit the approximator to the dataset by full-batch Adam on the MSE.

    Deterministic: the same dataset, config, and seed reproduce the model
    bitwise.  Targets are standardized internally (statistics live in the
    returned model), which conditions the optimization for the spread of
    discounted cost-to-go magnitudes.  Weights and biases are views into
    one flat parameter array, gradients into one flat gradient array, and
    Adam's moments are flat arrays too, so an epoch updates every layer
    with a few in-place calls; activations and deltas live in arrays
    allocated once per fit.  Raises ContractViolationError if the fit
    diverges: non-finite final weights or training MSE.
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
    n_params = sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))
    params = np.zeros(n_params)
    grads = np.empty(n_params)
    weights, biases = _layer_views(params, sizes)
    grad_w, grad_b = _layer_views(grads, sizes)
    rng = np.random.default_rng(_seed_int(seed))
    for w in weights:
        w[...] = rng.standard_normal(w.shape) / np.sqrt(w.shape[0])

    n = x.shape[0]
    yn_col = yn[:, None]
    acts = [xn] + [np.empty((n, k)) for k in sizes[1:-1]]   # layer inputs
    deltas = [np.empty((n, k)) for k in sizes[1:]]          # d loss / d layer output
    factors = [np.empty((n, k)) for k in sizes[1:-1]]       # tanh' = 1 - a^2
    pred = deltas[-1]

    def forward():   # the network's output into pred
        for w, b, z, a in zip(weights[:-1], biases[:-1], acts[:-1], acts[1:]):
            np.matmul(z, w, out=a)
            a += b
            np.tanh(a, out=a)
        np.matmul(acts[-1], weights[-1], out=pred)
        np.add(pred, biases[-1], out=pred)

    # Full-batch Adam.
    lr, b1, b2, eps = config.learning_rate, 0.9, 0.999, 1e-8
    m = np.zeros(n_params)
    v = np.zeros(n_params)
    step = np.empty(n_params)
    denom = np.empty(n_params)
    with np.errstate(over="ignore", invalid="ignore"):   # divergence is checked below
        for t in range(1, config.epochs + 1):
            forward()
            pred -= yn_col          # pred becomes the output delta, 2 (pred - y) / n
            pred *= 2.0
            pred /= n
            for layer in range(len(weights) - 1, -1, -1):
                np.matmul(acts[layer].T, deltas[layer], out=grad_w[layer])
                np.sum(deltas[layer], axis=0, out=grad_b[layer])
                if layer > 0:
                    f = factors[layer - 1]
                    np.multiply(acts[layer], acts[layer], out=f)
                    np.subtract(1.0, f, out=f)
                    np.matmul(deltas[layer], weights[layer].T, out=deltas[layer - 1])
                    deltas[layer - 1] *= f
            corr1 = 1.0 - b1 ** t
            corr2 = 1.0 - b2 ** t
            m *= b1
            np.multiply(grads, 1 - b1, out=step)
            m += step
            v *= b2
            np.multiply(grads, grads, out=step)
            step *= 1 - b2
            v += step
            np.divide(m, corr1, out=step)
            step *= lr
            np.divide(v, corr2, out=denom)
            np.sqrt(denom, out=denom)
            denom += eps
            step /= denom
            params -= step

        forward()
        fitted = np.maximum(pred.ravel() * y_scale + y_mean, 0.0)
        mse = float(np.mean((fitted - y) ** 2))
    if not (np.isfinite(params).all() and np.isfinite(mse)):
        raise ContractViolationError(
            f"value fit diverged: training MSE {mse:.6g} or weights are not finite"
        )

    return ValueModel(
        layer_sizes=sizes,
        weights=tuple(w.copy() for w in weights),
        biases=tuple(b.copy() for b in biases),
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
