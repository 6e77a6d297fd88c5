"""Entropic risk operator laws."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from riskfilter import ContractViolationError, entropic_risk, risk_lower

BETAS = (0.01, 0.1, 1.0, 10.0, 100.0)

finite_values = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=1,
    max_size=64,
)


class TestExamples:
    def test_constant_for_every_beta(self):
        for beta in (0.0,) + BETAS:
            assert entropic_risk([3.2, 3.2, 3.2], beta) == pytest.approx(3.2, abs=1e-12)
            assert risk_lower([3.2, 3.2, 3.2], beta) == pytest.approx(3.2, abs=1e-12)

    def test_two_point_beta_one(self):
        assert entropic_risk([0.0, 1.0], 1.0) == pytest.approx(
            math.log((1.0 + math.e) / 2.0), abs=1e-9
        )
        assert risk_lower([0.0, 1.0], 1.0) == pytest.approx(
            -math.log((1.0 + math.exp(-1.0)) / 2.0), abs=1e-9
        )

    def test_large_beta_approaches_max(self):
        assert abs(entropic_risk([0.0, 1.0], 100.0) - 1.0) < 0.01

    def test_small_beta_approaches_mean(self):
        assert risk_lower([0.0, 1.0], 1e-8) == pytest.approx(0.5, abs=1e-6)

    def test_beta_zero_is_mean(self):
        v = [1.0, 2.0, 4.0]
        assert entropic_risk(v, 0.0) == pytest.approx(np.mean(v), abs=0)

    def test_empty_rejected(self):
        with pytest.raises(ContractViolationError):
            entropic_risk([], 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ContractViolationError):
            entropic_risk([1.0, float("nan")], 1.0)
        with pytest.raises(ContractViolationError):
            risk_lower([float("inf")], 1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ContractViolationError):
            entropic_risk([1.0], -0.5)


class TestLaws:
    @settings(deadline=None, max_examples=200)
    @given(finite_values, st.sampled_from(BETAS),
           st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
    def test_translation_equivariance(self, values, beta, shift):
        lhs = entropic_risk(np.asarray(values) + shift, beta)
        rhs = entropic_risk(values, beta) + shift
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @settings(deadline=None, max_examples=200)
    @given(finite_values, st.sampled_from(BETAS))
    def test_bounds(self, values, beta):
        v = np.asarray(values)
        upper = entropic_risk(v, beta)
        lower = risk_lower(v, beta)
        assert v.mean() - 1e-12 <= upper <= v.max() + 1e-12
        assert v.min() - 1e-12 <= lower <= v.mean() + 1e-12

    @settings(deadline=None, max_examples=200)
    @given(finite_values)
    def test_monotone_in_beta(self, values):
        uppers = [entropic_risk(values, b) for b in BETAS]
        lowers = [risk_lower(values, b) for b in BETAS]
        assert all(b >= a - 1e-12 for a, b in zip(uppers, uppers[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(lowers, lowers[1:]))

    @settings(deadline=None, max_examples=200)
    @given(finite_values)
    def test_risk_neutral_limit(self, values):
        assert entropic_risk(values, 1e-8) == pytest.approx(
            float(np.mean(values)), abs=1e-6
        )

    def test_stability_no_overflow(self):
        # beta * max(values) = 700 would overflow naive exponentiation.
        values = np.array([-7.0, 0.0, 7.0])
        out = entropic_risk(values, 100.0)
        assert np.isfinite(out)
        assert out == pytest.approx(7.0, abs=0.05)
        assert np.isfinite(risk_lower(values * 100, 10.0))


def _np_mean_reference(values, beta):
    """The operator as written with np.mean and np.max, one row at a time."""
    v = np.asarray(values, dtype=float)
    if beta == 0:
        return float(np.mean(v))
    z = beta * v
    m = np.max(z)
    return float((m + np.log(np.mean(np.exp(z - m)))) / beta)


class TestStacks:
    @pytest.mark.parametrize("n", [1, 5, 200, 701])
    @pytest.mark.parametrize("beta", [0.0, 0.1, 1.0, 100.0])
    def test_rows_match_their_own_calls_bitwise(self, n, beta):
        # The filters reduce (b, S) stacks and re-check single rows with ==,
        # so each row must keep the bits of its own 1-D call, which are
        # np.mean's.
        stack = np.random.default_rng(n).normal(0.0, 5.0, size=(9, n))
        upper = entropic_risk(stack, beta)
        lower = risk_lower(stack, beta)
        assert upper.shape == lower.shape == (9,)
        for row, up, low in zip(stack, upper, lower):
            assert up == entropic_risk(row, beta) == _np_mean_reference(row, beta)
            assert low == risk_lower(row, beta) == -_np_mean_reference(-row, beta)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.75, 1e-300, 3.0]),
                    min_size=1, max_size=8) | finite_values,
           st.sampled_from((0.0,) + BETAS))
    def test_lower_is_the_negated_upper_bitwise(self, values, beta):
        # entropic_risk is risk_lower of the negated samples, negated; the
        # two keep the bits, signed zeros included, of each other's mirror.
        v = np.array(values)
        for sample in (v, v.reshape(1, -1)):
            ref = np.asarray(-entropic_risk(-sample, beta)).tobytes()
            assert np.asarray(risk_lower(sample, beta)).tobytes() == ref
        assert np.float64(risk_lower(v, beta)).tobytes() == np.float64(
            -_np_mean_reference(-v, beta)).tobytes()


MAX_FLOAT = np.finfo(float).max


class TestOverflowLimit:
    # Where beta * |v| overflows, a row whose shift, beta times its minimum,
    # is not finite takes the minimum, the beta -> infinity limit, and the
    # upper operator a row whose beta times its maximum is not finite takes
    # the maximum; the other rows keep the formula, and no floating-point
    # warning escapes.  The operator returned NaN there.
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), st.integers(1, 8), st.data(),
           st.floats(min_value=1e300, max_value=MAX_FLOAT) | st.sampled_from([1e308, MAX_FLOAT]))
    def test_rows_past_overflow_take_the_extreme(self, rows, n, data, beta):
        entry = st.floats(min_value=-1e12, max_value=1e12) | st.sampled_from(
            [0.0, -0.0, 2.0, -3.5, 1e-300, 1e308, -1e308, MAX_FLOAT])
        v = np.array(data.draw(st.lists(entry, min_size=rows * n, max_size=rows * n)))
        assume(not math.isfinite(float(beta) * float(np.abs(v).max())))
        for sample in (v[:n], v.reshape(rows, n)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                lower = np.atleast_1d(risk_lower(sample, beta))
                upper = np.atleast_1d(entropic_risk(sample, beta))
            assert np.isfinite(lower).all() and np.isfinite(upper).all()
            for row, low, up in zip(np.atleast_2d(sample), lower, upper):
                if not math.isfinite(float(beta) * float(row.min())):
                    assert np.float64(low).tobytes() == row.min().tobytes()
                if not math.isfinite(float(beta) * float(row.max())):
                    assert np.float64(up).tobytes() == row.max().tobytes()

    def test_every_product_past_overflow_gives_the_extremes(self):
        stack = np.array([[2.0, 3.0], [-5.0, 7.0], [4.0, -1e308]])
        assert np.array_equal(risk_lower(stack, 1e308), [2.0, -5.0, -1e308])
        assert np.array_equal(entropic_risk(stack, 1e308), [3.0, 7.0, 4.0])
        assert risk_lower([2.0, 3.0], 1e308) == 2.0

    def test_overflowing_exponent_spread_warns_nothing(self):
        # beta * |v| is finite, but the shifted exponent z - max(z) is not.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert risk_lower([-1.5e308, 1.5e308], 1.0) == -1.5e308
            assert entropic_risk([-1.5e308, 1.5e308], 1.0) == 1.5e308

    def test_nan_beta_rejected(self):
        with pytest.raises(ContractViolationError):
            risk_lower([1.0, 2.0], float("nan"))
