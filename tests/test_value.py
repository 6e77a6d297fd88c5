"""Monte-Carlo value estimation, fitting, barrier, and serialization."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ConstantValue, constant_cost_model, make_static_model, src_env, zero_policy
from riskfilter import (
    ApproxConfig,
    Barrier,
    ContractViolationError,
    MissingModelError,
    ValueDataset,
    collect_dataset,
    eval_policy,
    fit_value,
    load_value_model,
    make_model,
    make_proportional,
    mc_cost_to_go,
    save_value_model,
)
from riskfilter import value as rf_value
from riskfilter.dynamics import sigm10


class TestMcCostToGo:
    def test_zero_cost_model(self):
        m = make_static_model()
        x = np.ones((2, 2))
        assert mc_cost_to_go(m, zero_policy(m), x, 10, 3, 0) == 0.0

    def test_constant_cost_geometric_sum(self):
        m = constant_cost_model(1.0, gamma=0.5)
        got = mc_cost_to_go(m, zero_policy(m), np.zeros((2, 2)), 2, 1, 0)
        assert got == pytest.approx(0.75, abs=1e-12)

    def test_zero_horizon_is_zero(self):
        m = constant_cost_model(1.0, gamma=0.5)
        assert mc_cost_to_go(m, zero_policy(m), np.zeros((2, 2)), 0, 2, 0) == 0.0

    def test_zero_samples_rejected(self):
        m = make_static_model()
        with pytest.raises(ContractViolationError):
            mc_cost_to_go(m, zero_policy(m), np.zeros((2, 2)), 5, 0, 0)

    def test_stack_of_states_rejected(self):
        m = make_static_model()
        with pytest.raises(ContractViolationError):
            mc_cost_to_go(m, zero_policy(m), np.zeros((3, 2, 2)), 5, 1, 0)

    def test_monotone_in_horizon_shared_draws(self):
        m = make_model("spring")
        pol = make_proportional(m, (0.3, 1.5))
        x = np.array([[1.5, 0.5], [1.0, 0.0], [0.5, 0.0]])
        values = [mc_cost_to_go(m, pol, x, h, 3, 11) for h in (2, 5, 10, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_deterministic_given_seed(self):
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, (1.0, 0.5))
        x = np.array([[0.3, 0.0], [-0.3, 0.0]])
        assert mc_cost_to_go(m, pol, x, 20, 4, 9) == mc_cost_to_go(m, pol, x, 20, 4, 9)


class TestCollectDataset:
    def test_zero_cost_targets(self):
        m = make_static_model()
        ds = collect_dataset(m, zero_policy(m), 10, 5, 1, 0,
                             lambda rng: rng.normal(size=(2, 2)))
        assert np.all(ds.targets == 0.0)
        assert len(ds) == 10

    def test_same_seed_identical(self):
        m = make_model("spring")
        pol = make_proportional(m, (0.3, 1.5))
        sampler = lambda rng: rng.uniform(-1, 1, size=(3, 2))
        a = collect_dataset(m, pol, 20, 10, 1, 7, sampler)
        b = collect_dataset(m, pol, 20, 10, 1, 7, sampler)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.targets, b.targets)

    def test_targets_bounded_by_discounted_tail(self):
        m = make_model("spring")
        pol = make_proportional(m, (3.0, 0.3))
        sampler = lambda rng: rng.uniform(-2, 2, size=(3, 2))
        h = 50
        ds = collect_dataset(m, pol, 100, h, 1, 3, sampler)
        bound = m.gamma * (1 - m.gamma ** h) / (1 - m.gamma)
        assert np.all(ds.targets >= 0)
        assert np.all(ds.targets <= bound + 1e-12)

    def test_empty_rejected(self):
        m = make_static_model()
        with pytest.raises(ContractViolationError):
            collect_dataset(m, zero_policy(m), 0, 5, 1, 0,
                            lambda rng: np.zeros((2, 2)))

    def test_zero_horizon_targets_are_zero(self):
        m = constant_cost_model(1.0, gamma=0.5)
        ds = collect_dataset(m, zero_policy(m), 6, 0, 2, 0, lambda rng: rng.normal(size=(2, 2)))
        assert np.array_equal(ds.targets, np.zeros(6))

    @pytest.mark.parametrize("n_states", [1, 5])
    def test_wrong_action_size_rejected(self, n_states):
        m = make_model("spring")
        bad = lambda x: np.zeros(np.shape(x)[:-2] + (3,))   # one entry per agent, not A = 2
        with pytest.raises(ContractViolationError):
            collect_dataset(m, bad, n_states, 3, 2, 0, lambda rng: np.zeros((3, 2)))
        with pytest.raises(ContractViolationError):
            mc_cost_to_go(m, lambda x: np.zeros(3), np.zeros((3, 2)), 3, 1, 0)

    @pytest.mark.parametrize("horizon", [1, 4])
    def test_non_finite_state_rejected(self, horizon):
        m = make_model("collision", n_agents=2)
        nan_policy = lambda x: np.full(np.shape(x)[:-2] + (2,), np.nan)
        with pytest.raises(ContractViolationError):
            collect_dataset(m, nan_policy, 3, horizon, 2, 0, lambda rng: np.zeros((2, 2)))
        with pytest.raises(ContractViolationError):
            mc_cost_to_go(m, nan_policy, np.zeros((2, 2)), horizon, 1, 0)


# ----------------------------------------------------------------------
# Per-sample reference: the one-state, one-rollout, one-agent arithmetic
# that lockstep collection must reproduce bit for bit.


def ref_policy(policy, x) -> list:
    err = x.copy()
    err[:, 0] -= policy.setpoints
    out = []
    for i, d in enumerate(policy.action_dims):
        if d == 0:
            out.append(np.zeros(0))
            continue
        raw = -float(policy.gains @ err[i])
        out.append(np.clip(np.array([raw]), policy.action_low, policy.action_high))
    return out


def ref_transition(preset, x, u, theta, noise):
    if preset == "spring":
        e1 = x[0, 0] - x[2, 0]
        e2 = x[1, 0] - x[2, 0]
        half_t2 = 0.5 * theta * theta
        g = np.array([5.0 * u[0][0] - half_t2 * e1, 5.0 * u[1][0] - half_t2 * e2,
                      half_t2 * (e1 + e2)])
        pos = x[:, 0] + 0.1 * x[:, 1] + noise[:, 0]
        vel = x[:, 1] + 0.1 * g - 0.1 * np.sin(np.clip(x[:, 1], -1.0, 1.0)) + noise[:, 1]
    else:
        uvec = np.array([ui[0] for ui in u])
        pos = x[:, 0] + 0.01 * x[:, 1] + theta * np.sin(x[:, 0]) + noise[:, 0]
        vel = x[:, 1] + uvec + noise[:, 1]
    return np.column_stack([pos, vel])


def ref_sigm10(z):
    z = np.asarray(z, dtype=float) * 10.0
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def ref_cost(preset, x) -> float:
    if preset == "spring":
        return float(1.0 - np.mean(ref_sigm10(4.0 - x[:, 0] ** 2)))
    d2 = (x[:, 0][:, None] - x[:, 0][None, :]) ** 2
    np.fill_diagonal(d2, np.inf)
    return float(np.mean(ref_sigm10(0.04 - d2.min(axis=1))))


def ref_cost_to_go(model, policy, x0, horizon, n_samples, seed) -> float:
    total = 0.0
    for r in range(n_samples):
        rng = np.random.default_rng(np.random.SeedSequence([seed, r]))
        theta = float(rng.standard_normal())
        xk, acc, disc = x0, 0.0, 1.0
        for _ in range(horizon):
            u = ref_policy(policy, xk)
            noise = rng.standard_normal((model.n_agents, model.state_dim)) * model.noise_scale
            xk = ref_transition(model.preset, xk, u, theta, noise)
            disc *= model.gamma
            acc += disc * ref_cost(model.preset, xk)
        total += acc
    return total / n_samples


def random_policy(model, rng, with_setpoints: bool):
    setpoints = rng.uniform(-2, 2, size=model.n_agents) if with_setpoints else None
    return make_proportional(model, rng.uniform(-4, 4, size=model.state_dim),
                             setpoints=setpoints)


def box_sampler(model):
    return lambda rng: rng.uniform(-1.5, 1.5, size=(model.n_agents, model.state_dim))


MODELS = st.sampled_from([("spring", None)] + [("collision", m) for m in range(2, 6)])
BLOCK = rf_value._BLOCK_STEPS
BLOCK_HORIZONS = (0, 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)   # either side of block edges


class TestLockstepBitIdentity:
    # sha256 of collect_dataset targets from the one-rollout-at-a-time
    # implementation: 40 rows at seed 5 from the uniform box [-1.5, 1.5].
    PINNED = [
        ("spring", None, 1, 30,
         "84b40319b2d24f6f09bdaefa25556286a101b2369995de31a57dad912c7d66f9"),
        ("spring", None, 2, 30,
         "3f0c652ff15e6c3dc80baa4eafd016930725fcdf62c6ca3a0dbe77259d930c1e"),
        ("collision", 3, 2, 30,
         "e195362b60e14b261b77815b140923cfe1e8d6d253e208febbb72b5cde6bc5d1"),
        ("spring", None, 2, 0,
         "7b6436b0c98f62380866d9432c2af0ee08ce16a171bda6951aecd95ee1307d61"),
        ("spring", None, 2, 1,
         "6c1981bcda441bd94b0cab0bc9b5f596a98b8452b361e057e491007667b52937"),
        ("collision", 3, 2, 1,
         "d732cafad55eeb1bf3dcf96b023be3677cd29cdbb35a0516fdbecde9b9601429"),
    ]

    @pytest.mark.parametrize("preset, agents, n_samples, horizon, digest", PINNED)
    def test_pinned_targets(self, preset, agents, n_samples, horizon, digest):
        m = make_model(preset, n_agents=agents)
        pol = (make_proportional(m, (0.3, 1.5)) if preset == "spring"
               else make_proportional(m, (1.0, 0.5), setpoints=[-1.0, 0.0, 1.0]))
        ds = collect_dataset(m, pol, 40, horizon, n_samples, 5, box_sampler(m))
        assert hashlib.sha256(ds.targets.tobytes()).hexdigest() == digest

    @settings(deadline=None, max_examples=40)
    @given(spec=MODELS, n_states=st.integers(1, 6),
           horizon=st.one_of(st.integers(0, 12), st.sampled_from(BLOCK_HORIZONS)),
           n_samples=st.integers(1, 3), with_setpoints=st.booleans(),
           seed=st.integers(0, 2 ** 31))
    def test_targets_match_per_sample_loop(self, spec, n_states, horizon, n_samples,
                                           with_setpoints, seed):
        m = make_model(spec[0], n_agents=spec[1])
        pol = random_policy(m, np.random.default_rng(seed), with_setpoints)
        ds = collect_dataset(m, pol, n_states, horizon, n_samples, seed, box_sampler(m))
        ref = [ref_cost_to_go(m, pol, x, horizon, n_samples, seed + i)
               for i, x in enumerate(ds.states)]
        assert np.array_equal(ds.targets, ref)

    @settings(deadline=None, max_examples=60)
    @given(spec=MODELS, n=st.integers(1, 64), with_setpoints=st.booleans(),
           seed=st.integers(0, 2 ** 31))
    def test_eval_policy_matches_per_agent_loop(self, spec, n, with_setpoints, seed):
        m = make_model(spec[0], n_agents=spec[1])
        rng = np.random.default_rng(seed)
        pol = random_policy(m, rng, with_setpoints)
        xs = rng.uniform(-3, 3, size=(n, 2, m.n_agents, m.state_dim))
        got = eval_policy(pol, xs)
        assert got.shape == (n, 2, sum(m.action_dims))
        for idx in np.ndindex(n, 2):
            assert np.array_equal(got[idx], np.concatenate(ref_policy(pol, xs[idx])))

    def test_sigm10_matches_masked_form(self):
        z = np.concatenate([np.linspace(-80.0, 80.0, 4000),
                            [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf]])
        got = sigm10(z.reshape(2, -1))
        assert np.array_equal(got.ravel(), ref_sigm10(z))
        assert np.array_equal(np.signbit(got.ravel()), np.signbit(ref_sigm10(z)))

    def test_row_target_does_not_depend_on_its_chunk(self):
        m = make_model("spring")
        pol = make_proportional(m, (0.3, 1.5))
        n = rf_value._CHUNK_ROWS + 3
        ds = collect_dataset(m, pol, n, 3, 2, 40, box_sampler(m))
        for i in (0, 1, rf_value._CHUNK_ROWS - 1, rf_value._CHUNK_ROWS, n - 1):
            one = collect_dataset(m, pol, 1, 3, 2, 40 + i, box_sampler(m))
            assert np.array_equal(one.states[0], ds.states[i])
            assert one.targets[0] == ds.targets[i]

    @pytest.mark.parametrize("horizon", BLOCK_HORIZONS)
    def test_one_cost_call_per_block(self, horizon):
        m = make_model("spring")
        calls = []

        def counted_cost(x):
            calls.append(x.shape)
            return m.cost_fn(x)

        counted = replace(m, cost_fn=counted_cost)
        collect_dataset(counted, make_proportional(m, (0.3, 1.5)), 5, horizon, 2, 3,
                        box_sampler(m))
        assert len(calls) == -(-horizon // BLOCK)
        assert sum(shape[0] for shape in calls) == horizon
        assert all(shape[1:] == (5, 2, 3, 2) for shape in calls)   # (steps, N, S, M, d_x)

    @pytest.mark.parametrize("nan_step", [BLOCK - 1, 2 * BLOCK - 1, 2 * BLOCK])
    def test_non_finite_state_at_a_block_end_rejected(self, nan_step):
        # The finiteness check runs once per block; a state that turns NaN on
        # a block's last step (or the horizon's) is still caught.
        m = make_model("collision", n_agents=2)
        pol = make_proportional(m, (1.0, 0.5))
        calls = []

        def late_nan(x):
            calls.append(None)
            u = pol(x)
            return np.full_like(u, np.nan) if len(calls) == nan_step + 1 else u

        with pytest.raises(ContractViolationError, match="non-finite"):
            collect_dataset(m, late_nan, 3, 2 * BLOCK + 1, 2, 0, box_sampler(m))
        assert len(calls) > nan_step
        calls.clear()
        with pytest.raises(ContractViolationError, match="non-finite"):
            mc_cost_to_go(m, late_nan, np.zeros((2, 2)), 2 * BLOCK + 1, 1, 0)


def grid_dataset(fn, n=64):
    xs = np.linspace(-1.0, 1.0, n)
    states = xs.reshape(n, 1, 1)
    return ValueDataset(states=states, targets=fn(xs), gamma=0.99, horizon=10)


def pin_dataset(rows):
    rng = np.random.default_rng(rows)
    states = rng.uniform(-1.5, 1.5, size=(rows, 3, 2))
    targets = 0.1 * np.sum(states ** 2, axis=(1, 2)) + np.abs(np.sin(3.0 * states[:, 0, 0]))
    return ValueDataset(states=states, targets=targets, gamma=0.99, horizon=10)


class TestFitValue:
    def test_constant_target(self):
        ds = grid_dataset(lambda x: np.full_like(x, 4.2))
        vm = fit_value(ds, ApproxConfig(epochs=200), 0)
        preds = vm.predict(ds.flat_states)
        assert np.all(np.abs(preds - 4.2) < 1e-3)

    def test_linear_target_beats_tolerance(self):
        ds = grid_dataset(lambda x: 2.0 * x + 5.0)
        # Independent oracle: an affine least-squares fit is exact here.
        coeffs, residuals, _, _ = np.linalg.lstsq(
            np.column_stack([ds.flat_states.ravel(), np.ones(len(ds))]),
            ds.targets, rcond=None,
        )
        oracle_mse = residuals[0] / len(ds) if residuals.size else 0.0
        assert oracle_mse < 1e-12
        vm = fit_value(ds, ApproxConfig(), 0)
        assert vm.final_mse < 1e-3

    def test_bitwise_deterministic(self):
        ds = grid_dataset(lambda x: x ** 2)
        a = fit_value(ds, ApproxConfig(epochs=300), 5)
        b = fit_value(ds, ApproxConfig(epochs=300), 5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
        assert a.final_mse == b.final_mse

    # sha256 of the weight, bias and final_mse bytes from the per-layer Adam
    # implementation: 40 epochs at seed 3 on pin_dataset(rows).  The products
    # are BLAS calls, so the pins hold for one BLAS build (taken with
    # scipy-openblas 0.3.31, Haswell kernels); another may round differently.
    FIT_PINS = [
        ((), 1, "4b506c7030b8601bc0551e2f87d8343815a26cb905b543a4b29e825cc71c0ea8"),
        ((), 60, "5dc926dd505011b5abb4b4832f14e6f08cebc08399adc85bc25739136678430b"),
        ((), 257, "7563d857e7e2bb35bc119c44f0cd6586fc4e2e2f7b42cc0940b0d903daec6593"),
        ((32,), 1, "33d6951490843859971c5118de020bd197c8b57d266ed966475361ba915ae957"),
        ((32,), 60, "15fe4bebad05860090e373df2fa71a58db5db7da2c1adcb17b543f99729db65a"),
        ((32,), 257, "d4e313eb7b543cb01cb8a244f15b09e78d6104b513283df677ef5baa162b4a34"),
        ((64, 64), 1, "ff694a8e8669179368351e3220b9303019f729d2b6faf1b111cc8b4fd845abec"),
        ((64, 64), 60, "c5eadb04aab99dc5c2685240758a72ab7a390ce25bccb30419c0d0ac1f853539"),
        ((64, 64), 257, "e3c84933f385d8f53bdcdebeb10434b60834c4ad8f65f56dac37e404942728ad"),
        ((16, 16, 16), 1, "80eae6dfdda424860029ea089ee31595212165ca5a554228f2f885b8d3f640b7"),
        ((16, 16, 16), 60, "55d826b6a60cadeb7c66b938b053dd8036e332a1c96733c5d45732ec8f7cf808"),
        ((16, 16, 16), 257, "5ec0811c04be8faa3340b551723ea4d3006579212dc03bbe55f1b3dca06e3dab"),
    ]

    @pytest.mark.parametrize("hidden, rows, digest", FIT_PINS)
    def test_pinned_fit(self, hidden, rows, digest):
        vm = fit_value(pin_dataset(rows), ApproxConfig(hidden=hidden, epochs=40), 3)
        h = hashlib.sha256()
        for w, b in zip(vm.weights, vm.biases):
            h.update(w.tobytes())
            h.update(b.tobytes())
        h.update(np.float64(vm.final_mse).tobytes())
        assert h.hexdigest() == digest

    def test_divergence_rejected(self):
        ds = grid_dataset(lambda x: x ** 2)
        with pytest.raises(ContractViolationError, match="diverged"):
            fit_value(ds, ApproxConfig(epochs=20, learning_rate=1e308), 0)

    def test_empty_dataset_rejected(self):
        ds = ValueDataset(states=np.zeros((0, 1, 1)), targets=np.zeros(0))
        with pytest.raises(ContractViolationError):
            fit_value(ds, ApproxConfig(), 0)

    def test_negative_targets_rejected(self):
        with pytest.raises(ContractViolationError):
            ValueDataset(states=np.zeros((2, 1, 1)), targets=np.array([1.0, -0.5]))

    def test_full_pipeline_bitwise_reproducible(self):
        m = make_model("spring")
        pol = make_proportional(m, (0.3, 1.5))
        sampler = lambda rng: rng.uniform(-1, 1, size=(3, 2))
        models = []
        for _ in range(2):
            ds = collect_dataset(m, pol, 30, 15, 1, 21, sampler)
            models.append(fit_value(ds, ApproxConfig(epochs=120), 21))
        xs = np.random.default_rng(0).uniform(-2, 2, size=(50, 6))
        assert np.array_equal(models[0].predict(xs), models[1].predict(xs))


class TestEvalValue:
    def test_deterministic_and_clamped(self):
        ds = grid_dataset(lambda x: np.maximum(x, 0.0) * 0.01)
        vm = fit_value(ds, ApproxConfig(epochs=100), 1)
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.normal(size=1)
            v = vm.predict(x)
            assert v >= 0.0
            assert vm.predict(x) == v

    def test_wrong_dimension_rejected(self):
        ds = grid_dataset(lambda x: x + 2)
        vm = fit_value(ds, ApproxConfig(epochs=50), 0)
        with pytest.raises(ContractViolationError):
            vm.predict(np.zeros(3))

    def test_batch_matches_single(self):
        ds = grid_dataset(lambda x: x + 2)
        vm = fit_value(ds, ApproxConfig(epochs=50), 0)
        xs = np.linspace(-1, 1, 7).reshape(-1, 1)
        batch = vm.predict(xs)
        singles = np.array([vm.predict(x) for x in xs])
        assert np.allclose(batch, singles, atol=0)


class TestBatchInvariance:
    @settings(deadline=None, max_examples=60)
    @given(preset=st.sampled_from(["spring", "collision"]), n=st.integers(1, 40),
           s=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1))
    def test_stack_matches_slices_bitwise(self, spring_setup, collision_setup,
                                          preset, n, s, seed):
        # The filters evaluate (B, S, d) stacks and compare margins with ==:
        # every slice must get the bits of its own 2-D call.
        vm = (spring_setup if preset == "spring" else collision_setup).value_model
        stack = np.random.default_rng(seed).uniform(-2, 2, size=(n, s, vm.input_dim))
        got = vm.predict(stack)
        assert got.shape == (n, s)
        for i in range(n):
            assert np.array_equal(got[i], vm.predict(stack[i]))

    @pytest.mark.parametrize("shape", [(341, 3), (256, 4), (205, 5)])
    def test_reused_buffers_keep_slice_bits(self, spring_setup, shape):
        # 1,023 and 1,024 rows run their hidden layers in the reused
        # buffers, 1,025 in fresh arrays; every slice keeps its own bits.
        assert rf_value._BUFFER_ROWS == 1024
        vm = spring_setup.value_model
        stack = np.random.default_rng(shape[0]).uniform(-2, 2, size=shape + (vm.input_dim,))
        got = vm.predict(stack)
        for i in range(shape[0]):
            assert np.array_equal(got[i], vm.predict(stack[i]))

    def test_result_outlives_later_calls(self, spring_setup):
        vm = spring_setup.value_model
        rng = np.random.default_rng(5)
        first = vm.predict(rng.uniform(-2, 2, size=(100, 5, vm.input_dim)))
        kept = first.copy()
        vm.predict(rng.uniform(-2, 2, size=(100, 5, vm.input_dim)))
        assert first.tobytes() == kept.tobytes()

    def test_concurrent_threads_keep_their_bits(self, spring_setup):
        # Each thread writes its hidden layers into its own buffers.
        vm = spring_setup.value_model
        rng = np.random.default_rng(6)
        stacks = [rng.uniform(-2, 2, size=(128, 5, vm.input_dim)) for _ in range(2)]
        expected = [vm.predict(s).tobytes() for s in stacks]
        results = [[], []]

        def work(i):
            for _ in range(200):
                results[i].append(vm.predict(stacks[i]).tobytes())

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == expected[i] for i in range(2) for r in results[i])


def _magnitude(draw, low, high):
    """A float of either sign and of magnitude 10^k, k in [low, high]."""
    return draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(low, high))


@st.composite
def _networks(draw):
    """ValueModels with 0 to 3 hidden layers of 1 to 24 units, weights,
    biases and input and output statistics over many magnitudes, some past
    float32's range."""
    sizes = (draw(st.integers(1, 6)),) + tuple(
        draw(st.lists(st.integers(1, 24), max_size=3))) + (1,)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.standard_normal((a, b)) * 10.0 ** draw(st.floats(-40, 40)))
        biases.append(rng.standard_normal(b) * 10.0 ** draw(st.floats(-40, 40)))
    return rf_value.ValueModel(
        layer_sizes=sizes, weights=tuple(weights), biases=tuple(biases),
        x_mean=rng.standard_normal(sizes[0]) * 10.0 ** draw(st.floats(-6, 6)),
        x_scale=np.abs(rng.standard_normal(sizes[0])) * 10.0 ** draw(st.floats(-12, 6)) + 1e-12,
        y_mean=_magnitude(draw, -6, 6), y_scale=abs(_magnitude(draw, -12, 6)),
        gamma=0.99, horizon=1, train_seed=0, final_mse=0.0)


@st.composite
def _inputs(draw, dim):
    """A (b, S, dim) stack whose entries span zero, float32's subnormals and
    its overflow threshold, with a row of one magnitude or of many."""
    b, s = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.standard_normal((b, s, dim)) * 10.0 ** draw(st.floats(-45, 36))
    spread = rng.uniform(-45, 39, size=(b, s, dim)) * rng.integers(0, 2, size=(b, s, dim))
    x = np.where(rng.random((b, s, dim)) < draw(st.floats(0, 1)), x, np.sign(x) * 10.0 ** spread)
    x.flat[rng.integers(0, x.size)] = draw(st.sampled_from(
        [0.0, 3.4e38, -3.4028234e38, 3.41e38, 1e39, 1.4e-45, 1e-40, 1.0]))
    return x


class TestLower:
    """``ValueModel.lower`` runs the network in float32 and subtracts a
    rounding bound: it never exceeds ``predict``'s float64 result."""

    @settings(deadline=None, max_examples=400)
    @given(data=st.data(), vm=_networks())
    def test_never_exceeds_predict(self, data, vm):
        x = data.draw(_inputs(vm.input_dim))
        with np.errstate(all="ignore"):
            low, high = vm.lower(x), vm.predict(x)
            flat = vm.predict(x.reshape(-1, vm.input_dim)).reshape(high.shape)
            # A row that could overflow float32 gets predict's value, from a
            # 2-D call of those rows; every other row runs in float32.
            sent = ~(np.abs(x).sum(axis=-1) <= vm._float32.r_max)
            exact = vm.predict(x[sent])
        assert low.shape == high.shape
        assert np.array_equal(low[sent], exact, equal_nan=True)
        # Below predict in any stack the row sits in: this one and a 2-D call.
        ran = ~sent & np.isfinite(low)
        assert np.all(low[ran] <= high[ran]) and np.all(low[ran] <= flat[ran])
        assert np.array_equal(np.isnan(low), np.isnan(high))

    def test_tight_on_trained_models(self, spring_setup, collision_setup, collision3_setup):
        # The bound costs the screen little: within 1e-2 of V's scale.
        for s in (spring_setup, collision_setup, collision3_setup):
            vm = s.value_model
            x = np.random.default_rng(0).uniform(-3, 3, size=(146, 5, vm.input_dim))
            low, high = vm.lower(x), vm.predict(x)
            assert np.all(low <= high) and np.all(high - low < 1e-2 * vm.y_scale)
            one = vm.lower(x[0, 0])
            assert isinstance(one, float) and one <= vm.predict(x[0, 0])

    def test_rows_past_float32_go_to_predict(self, spring_setup):
        vm = spring_setup.value_model
        x = np.random.default_rng(1).uniform(-2, 2, size=(4, 5, vm.input_dim))
        x[1, 2, 0], x[2, 0, 3], x[3, 4, 1] = 1e39, np.nan, np.inf
        bad = np.zeros(x.shape[:-1], dtype=bool)
        bad[1, 2] = bad[2, 0] = bad[3, 4] = True
        with np.errstate(all="ignore"):
            low, exact = vm.lower(x), vm.predict(x[bad])
        assert np.array_equal(low[bad], exact, equal_nan=True) and np.isnan(low[2, 0])
        assert np.all(low[~bad] <= vm.predict(x)[~bad])

    def test_float32_net_built_once_and_never_saved(self, spring_setup, tmp_path):
        vm = spring_setup.value_model
        assert vm._float32 is vm._float32
        assert all(w.dtype == np.float32 for w in vm._float32.weights)
        save_value_model(vm, tmp_path / "v.bin")
        loaded = load_value_model(tmp_path / "v.bin")
        assert "_float32" not in loaded.__dict__
        x = np.random.default_rng(2).uniform(-2, 2, size=(30, 5, vm.input_dim))
        assert vm.lower(x).tobytes() == loaded.lower(x).tobytes()

    def test_shape_checked(self, spring_setup):
        with pytest.raises(ContractViolationError):
            spring_setup.value_model.lower(np.zeros(3))


def test_float32_tanh_within_the_assumed_error():
    # lower's bound assumes np.tanh errs by at most _TANH32_ULPS units of
    # 2^-23 in float32 and stays in [-1, 1]; numpy 2.4.6 measures 1.36 ulps
    # of the result.  A numpy with a less accurate tanh fails here.
    tiny = np.finfo(np.float32).tiny
    special = np.array([0.0, -0.0, np.inf, -np.inf, tiny, -tiny, 2 * tiny, 1e-30, 1e-10],
                       dtype=np.float32)
    for x in np.array_split(np.linspace(-20, 20, 4_000_001, dtype=np.float32), 4) + [special]:
        got, ref = np.tanh(x), np.tanh(x.astype(float))
        assert got.dtype == np.float32 and np.all(np.abs(got) <= 1)
        ulps = np.abs(got - ref) / np.spacing(np.abs(ref).astype(np.float32))
        assert ulps.max() <= rf_value._TANH32_ULPS
        assert np.abs(got - ref).max() <= rf_value._TANH32_ULPS * 2.0 ** -23


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than float64 here")
def test_float64_tanh_within_the_assumed_error():
    x = np.random.default_rng(0).uniform(-20, 20, 1_000_000)
    got = np.tanh(x)
    err = np.abs(got.astype(np.longdouble) - np.tanh(x.astype(np.longdouble)))
    assert np.all(np.abs(got) <= 1) and err.max() <= rf_value._TANH64_ULPS * 2.0 ** -52


class TestBarrier:
    def test_arithmetic(self):
        b = Barrier(ConstantValue(3.0), 5.0)
        assert b.value(np.zeros(4)) == 2.0

    def test_boundary(self):
        b = Barrier(ConstantValue(5.0), 5.0)
        assert b.value(np.zeros(4)) == 0.0
        assert b.value(np.zeros(4)) >= 0.0

    def test_membership_equivalence(self):
        ds = grid_dataset(lambda x: 3 * np.abs(x))
        vm = fit_value(ds, ApproxConfig(epochs=200), 2)
        b = Barrier(vm, 1.5)
        rng = np.random.default_rng(8)
        for x in rng.uniform(-2, 2, size=(10_000, 1)):
            assert (b.value(x) >= 0.0) == (vm.predict(x) <= 1.5)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        ds = grid_dataset(lambda x: x ** 2 + 1)
        vm = fit_value(ds, ApproxConfig(epochs=150), 9)
        path = tmp_path / "model.bin"
        save_value_model(vm, path)
        back = load_value_model(path)
        assert back.layer_sizes == vm.layer_sizes
        assert back.gamma == vm.gamma
        assert back.horizon == vm.horizon
        assert back.final_mse == vm.final_mse
        xs = np.linspace(-1, 1, 13).reshape(-1, 1)
        assert np.array_equal(back.predict(xs), vm.predict(xs))

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingModelError):
            load_value_model(tmp_path / "nope.bin")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a container at all")
        with pytest.raises(MissingModelError):
            load_value_model(path)


# A spring fit whose first epoch's matmuls are large enough for OpenBLAS to
# split over threads; it prints a digest of the fitted weights.
_FIT_DIGEST = """
import hashlib
import riskfilter as rf
cfg = rf.parse_config("run.preset = spring")
m = cfg.build_model()
ds = rf.collect_dataset(m, cfg.safe_policy(m), 400, 50, cfg.value_samples, 0,
                        cfg.value_sampler(m))
vm = rf.fit_value(ds, rf.ApproxConfig(hidden=cfg.hidden_sizes(), epochs=1), 0)
print(hashlib.sha256(b"".join(w.tobytes() for w in vm.weights)).hexdigest())
"""


def _fit_digest(threads: str | None) -> str:
    env = {k: v for k, v in src_env().items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", _FIT_DIGEST], env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def _threaded_openblas() -> bool:
    """Whether NumPy's BLAS is a threaded OpenBLAS build; another BLAS, or a
    single-threaded OpenBLAS, splits (or does not split) its matmuls by
    rules the measurement below does not cover."""
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return False
    return ("openblas" in str(blas.get("name", "")).lower()
            and "SINGLE_THREADED" not in str(blas.get("openblas configuration", "")))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="OpenBLAS runs one thread on one CPU")
@pytest.mark.skipif(not _threaded_openblas(),
                    reason="the thread-count dependence was measured on threaded OpenBLAS only")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "fit_value's bits depend on OpenBLAS's thread count: at 400 states its "
    "matmuls split over threads and round differently (ROADMAP item 16)"))
def test_fit_bits_do_not_depend_on_blas_threads():
    assert _fit_digest("1") == _fit_digest(None)
