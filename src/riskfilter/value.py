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

import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

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
    ``predict`` runs in float64 and gives every value the filters decide
    on.  ``lower`` runs a float32 copy of the network, built on first use
    and never saved, and returns a proven lower bound on ``predict``: the
    filters' screen (the centralized candidates and the pessimistic
    search's first corner) needs only that.
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

    def _checked(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.input_dim:
            raise ContractViolationError(
                f"input shape {x.shape} does not match input dimension {self.input_dim}"
            )
        return x

    def predict(self, x) -> float | np.ndarray:
        """V_hat over the last axis of x (..., input_dim): a float for one flat
        state, an array of the leading shape for a stack.  Each layer is one
        matmul on the stack as given, so every (S, input_dim) slice gets the
        bits of its own 2-D call; the filters rely on this (never flatten).
        A stack of at most _BUFFER_ROWS rows writes its hidden layers into
        the calling thread's two reused buffers, alternately; the result is
        always a new array.
        """
        x = self._checked(x)
        z = (np.atleast_2d(x) - self.x_mean) / self.x_scale
        z = _hidden_layers(z, self.weights, self.biases, max(self.layer_sizes[1:-1], default=0))
        out = (z @ self.weights[-1] + self.biases[-1])[..., 0]
        out = np.maximum(out * self.y_scale + self.y_mean, 0.0)
        return float(out[0]) if x.ndim == 1 else out

    def lower(self, x) -> float | np.ndarray:
        """A lower bound on ``predict(x)``, row for row, from the network run
        in float32, at about half of predict's cost on a screen's stacks.

        Same input contract and result shapes as ``predict``, and the same
        per-slice products on a stack.  The result never exceeds
        ``predict``'s float64 result for the row, in any stack either call
        sits in, so the screen may give it 2-D blocks of its own shape:
        it is the float32 output less ``_Float32Net``'s bound on the two
        evaluations' distance, which grows with the row's r = sum |x_k|.
        A row whose r could overflow a float32 intermediate, or whose
        float32 bound is not finite, gets ``predict``'s own value (so a
        non-finite input gives what ``predict`` gives).
        """
        x = self._checked(x)
        net = self._float32
        xs = run = np.atleast_2d(x)
        r = (np.abs(xs).reshape(-1, self.input_dim) @ net.ones).reshape(xs.shape[:-1])
        ok = r <= net.r_max        # False for NaN
        if not ok.all():           # zeros run in float32, NaN slack sends them to predict
            run, r = np.where(ok[..., None], xs, 0.0), np.where(ok, r, np.nan)
        z = _hidden_layers(run.astype(np.float32), net.weights, net.biases,
                           max(self.layer_sizes[1:-1], default=0))
        y = (z @ net.weights[-1] + net.biases[-1])[..., 0].astype(float)
        low = np.maximum(y * self.y_scale + self.y_mean - (net.slack[0] + net.slack[1] * r), 0.0)
        bad = ~(low < math.inf)    # NaN or inf
        if bad.any():
            low[bad] = self.predict(xs[bad])
        return float(low[0]) if x.ndim == 1 else low

    @cached_property
    def _float32(self) -> _Float32Net:
        """The float32 network ``lower`` runs; built on first use, never saved."""
        return _float32_net(self)


# Rows of the largest float64 stack whose hidden activations go to reused
# buffers; every kernel and certify pass at the defaults has at most 640,
# and a float32 screen pass at most 1,280, the bytes of 640 float64 rows.
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


def _hidden_layers(z: np.ndarray, weights: tuple, biases: tuple, width: int) -> np.ndarray:
    """The last hidden layer's activations of input stack z (..., input_dim),
    in z's dtype: tanh(z W + b) per hidden layer, each one matmul on the
    stack as given, then the bias and tanh in place.  A stack of at most
    _BUFFER_ROWS rows in float64, or twice as many in float32, writes its
    layers into the thread's two buffers of ``width`` (the widest hidden
    layer) floats a row, alternately, viewed as z's dtype."""
    rows = z.size // z.shape[-1]
    buffers = _hidden_buffers(width) if rows * z.itemsize <= _BUFFER_ROWS * 8 else None
    for i, (w, b) in enumerate(zip(weights[:-1], biases[:-1])):
        out = (None if buffers is None else buffers[i % 2].view(z.dtype)[:rows * w.shape[1]]
               .reshape(z.shape[:-1] + w.shape[1:]))
        z = np.matmul(z, w, out=out)
        z += b  # in place: same bits, fewer live activation arrays
        np.tanh(z, out=z)
    return z


# Unit roundoffs of float32 and float64, and the error bounds ``lower``
# assumes of np.tanh: in units of 2^-23 (float32) and 2^-52 (float64), the
# largest ulps of a value in [-1, 1].  tests/test_value.py sweeps np.tanh
# against a wider type to check them; numpy 2.4.6 errs by 1.36 and 1.17.
_U32, _U64 = 2.0 ** -24, 2.0 ** -53
_TANH32_ULPS = 2.0
_TANH64_ULPS = 4.0
# Largest error of one rounded float32 (float64) product or quotient under
# gradual underflow, beyond its relative error u; sums stay exact there.
_ETA32, _ETA64 = 2.0 ** -150, 2.0 ** -1075


def _gamma(n: int, u: float) -> float:
    """gamma_n = n u / (1 - n u), which bounds the relative error of a sum of
    n rounded terms in any order (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1); inf where n u >= 1/2."""
    return n * u / (1 - n * u) if n * u < 0.5 else math.inf


@dataclass(frozen=True)
class _Float32Net:
    """A ``ValueModel``'s network in float32, and the bound ``lower`` uses.

    ``weights`` and ``biases`` are float32 copies, the first layer's with
    the input standardization folded in: W' = W_1 / x_scale (row-wise) and
    b' = b_1 - (x_mean / x_scale) W_1.  For a row x with r >= sum_k |x_k|,
    ``lower`` is max(y y_scale + y_mean - (slack[0] + slack[1] r), 0) in
    float64, where y is the float32 network's output.  Rows with r >
    ``r_max`` may overflow a float32 (or float64) intermediate, and go to
    ``predict``.  ``ones`` sums |x_k| in one product.  See ``_float32_net``.
    """

    weights: tuple
    biases: tuple
    slack: tuple
    r_max: float
    ones: np.ndarray


def _float32_net(vm: ValueModel) -> _Float32Net:
    """Build the float32 network of ``vm`` and its bound, as follows.

    Write u = 2^-24 and u' = 2^-53 for the unit roundoffs, gamma_n for
    ``_gamma``, eta = 2^-150 and eta' = 2^-1075 for the absolute error of a
    product under gradual underflow, and a_i for the exact (real) network's
    activations, with a_0 = (x - x_mean) / x_scale.  The float32 run
    computes a^_i, the float64 one (``predict``) a~_i.  Let e_i bound
    |a^_i - a_i| and e~_i bound |a~_i - a_i|, unit by unit.

    * Each layer is a dot product of K terms plus a bias: any summation
      order, FMA or not, errs by at most gamma_{K+1} (sum |w a| + |b|),
      plus K eta for products that underflow.
    * A hidden layer's inputs lie in [-1, 1], both exact and computed
      (np.tanh never leaves it), so its terms are static, and tanh is
      1-Lipschitz: a hidden layer adds its rounding, the float32 weight
      rounding sum |W^ - W| + |b^ - b|, and the tanh's own error, at most
      _TANH32_ULPS 2^-23 (_TANH64_ULPS 2^-52), to |W|^T e_{i-1}.
    * The input layer's terms scale with |x|: x^ = fl32(x) errs by
      u |x_k| + eta, and sum_k c_k |x_k| <= max_k c_k r for r >= sum |x_k|,
      so its error is p + q r per unit, and so is every later layer's.
      The float32 side folds the standardization into W', whose float64
      computation errs by under 3u' |W'| and b' by gamma'_{d+3} (|b| + |mu/s|
      |W|); the float64 side standardizes x, which errs by gamma'_2
      (|x_k| + |mu_k|) / s_k.

    Then |y^ - y~| <= E(r) = c0 + c1 r, the float32 and float64 bounds
    summed and raised by 2^-20, which covers the float64 rounding of this
    construction (an operation depth far below 2^30).  The output's affine
    map and the subtraction of the slack round a dozen times in float64;
    2^-48 = 32u' of |y^| y_scale + |y_mean| covers them, with |y^| under
    the output's magnitude bound, and 2^-1000 any underflow.  So
    lower(x) <= predict(x) whenever no intermediate of either run
    overflows, which every r <= ``r_max`` guarantees: it keeps the same
    per-unit magnitude bounds, linear in r, under 2^126 in float32 and
    2^1000 in float64.  A float32 parameter that is not finite sets
    r_max = -1.
    """
    w1, b1 = vm.weights[0], vm.biases[0]
    d = vm.input_dim
    inv = 1.0 / vm.x_scale
    mu = np.abs(vm.x_mean) * inv                                    # |mu_k| / s_k
    w_in = w1 * inv[:, None]                                        # W'
    weights = [w_in] + list(vm.weights[1:])
    biases = [b1 - (vm.x_mean * inv) @ w1] + list(vm.biases[1:])    # b', then the rest
    w32 = tuple(w.astype(np.float32) for w in weights)
    b32 = tuple(b.astype(np.float32) for b in biases)

    # Each bound is a (units, 2) array p + q r: column 0 holds p, column 1 q.
    aw, p32, b_hat = np.abs(w_in), np.abs(w32[0]).astype(float), np.abs(b32[0]).astype(float)
    dw = np.abs(w32[0] - w_in) + 3 * _U64 * aw                      # >= |W'^ - W'|
    db = (np.abs(b32[0] - biases[0])                                # >= |b'^ - b'|
          + _gamma(d + 3, _U64) * (np.abs(b1) + mu @ np.abs(w1)))
    g, g64 = _gamma(d + 1, _U32), _gamma(d + 5, _U64)
    err32 = _pq(g * (b_hat + _ETA32 * p32.sum(0)) + db + _ETA32 * ((dw + aw).sum(0) + d),
                ((1 + _U32) * (g * p32 + dw) + _U32 * aw).max(0))
    err64 = _pq(g64 * (mu @ aw + np.abs(b1)) + _ETA64 * (np.abs(w1).sum(0) + d + 1),
                g64 * aw.max(0))
    mag32 = (1 + g) * _pq(b_hat + _ETA32 * p32.sum(0), (1 + _U32) * p32.max(0))
    mag64 = 2 * _pq(mu @ aw + np.abs(b1), aw.max(0))
    limits = [(_pq(_ETA32, 1 + _U32), 2.0 ** 126),                  # x^
              (_pq(2 * np.abs(vm.x_mean), 2.0), 2.0 ** 1000),       # x - x_mean
              (_pq(2 * mu + _ETA64, 2 * inv), 2.0 ** 1000),         # a~_0
              (mag32, 2.0 ** 126), (mag64, 2.0 ** 1000)]            # the layer's sums
    for w, w_f32, b, b_f32 in zip(weights[1:], w32[1:], biases[1:], b32[1:]):
        err32[:, 0] += _TANH32_ULPS * 2.0 ** -23
        err64[:, 0] += _TANH64_ULPS * 2.0 ** -52
        k = w.shape[0]
        aw, p32, b_hat = np.abs(w), np.abs(w_f32).astype(float), np.abs(b_f32).astype(float)
        g, g64 = _gamma(k + 1, _U32), _gamma(k + 1, _U64)
        err32 = aw.T @ err32
        err32[:, 0] += (g * (p32.sum(0) + b_hat) + np.abs(w_f32 - w).sum(0)
                        + np.abs(b_f32 - b) + k * _ETA32)
        err64 = aw.T @ err64
        err64[:, 0] += g64 * (aw.sum(0) + np.abs(b)) + k * _ETA64
        mag32 = _pq((1 + g) * (p32.sum(0) + b_hat), 0.0)
        mag64 = _pq(2 * (aw.sum(0) + np.abs(b)), 0.0)
        limits += [(mag32, 2.0 ** 126), (mag64, 2.0 ** 1000)]
    c0, c1 = (err32[0] + err64[0]) * (1 + 2.0 ** -20)
    ys, ym = vm.y_scale, abs(vm.y_mean)
    (p_y, q_y), = mag32[:1]                                         # |y^| <= p_y + q_y r
    slack = (ys * c0 + 2.0 ** -48 * (ym + ys * p_y) + 2.0 ** -1000,
             ys * c1 + 2.0 ** -48 * ys * q_y)
    limits += [(_pq(ym, 0.0) + 2 * ys * np.maximum(mag32[:1], mag64[:1]), 2.0 ** 1000),
               (_pq(slack[0], slack[1]), 2.0 ** 1000)]
    r_max = min(_largest_r(pq, bound) for pq, bound in limits)
    finite = all(np.isfinite(a).all() for a in w32 + b32) and math.isfinite(c0 + c1)
    return _Float32Net(weights=w32, biases=b32, slack=slack,
                       r_max=r_max if finite and r_max >= 0 else -1.0, ones=np.ones(d))


def _pq(p, q) -> np.ndarray:
    """A (units, 2) bound p + q r, from p and q, each per unit or shared."""
    return np.stack(np.broadcast_arrays(np.atleast_1d(p), np.atleast_1d(q)), axis=-1).astype(float)


def _largest_r(pq: np.ndarray, bound: float) -> float:
    """The largest r with p + q r < bound on every unit of ``pq``, or -1."""
    p, q = pq[:, 0], pq[:, 1]
    if not (p < bound).all():
        return -1.0
    return float(np.divide(bound - p, q, out=np.full(len(p), math.inf), where=q > 0).min())


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
