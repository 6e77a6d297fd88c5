"""Monte-Carlo value estimation, fitting, barrier, and serialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ConstantValue, constant_cost_model, make_static_model
from riskfilter import (
    ApproxConfig,
    Barrier,
    ContractViolationError,
    MissingModelError,
    ValueDataset,
    collect_dataset,
    fit_value,
    load_value_model,
    make_model,
    make_proportional,
    mc_cost_to_go,
    save_value_model,
)


def zero_policy(model):
    return lambda x: model.zero_action()


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


def grid_dataset(fn, n=64):
    xs = np.linspace(-1.0, 1.0, n)
    states = xs.reshape(n, 1, 1)
    return ValueDataset(states=states, targets=fn(xs), gamma=0.99, horizon=10)


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


class TestBarrier:
    def test_arithmetic(self):
        b = Barrier(ConstantValue(3.0), 5.0)
        assert b.value(np.zeros(4)) == 2.0

    def test_boundary(self):
        b = Barrier(ConstantValue(5.0), 5.0)
        assert b.value(np.zeros(4)) == 0.0
        assert b.in_sublevel(np.zeros(4))

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
