"""Entropic risk operator laws."""

from __future__ import annotations

import math
import warnings
from decimal import Decimal, localcontext

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
    """The upper operator as written with np.mean and np.min, one row at a
    time: the lower formula on the negated row, negated."""
    if beta == 0:
        return float(np.mean(values))
    v = -np.asarray(values, dtype=float)
    vmin = np.min(v)
    d = v - vmin
    m = np.mean(np.expm1(-beta * d))
    if m > -2.0 ** -960 and (beta < 1 or m < 0):
        return -float(vmin + np.mean(d))
    return -float(vmin - np.log1p(m) / beta)


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
U = Decimal(2) ** -53


def _expm1(x: Decimal) -> Decimal:
    # Decimal has no expm1: its Taylor series below 1e-5, whose 13 terms
    # reach 50 digits there; above it, exp(x) - 1 loses at most 5 digits.
    if abs(x) >= Decimal("1e-5"):
        return x.exp() - 1 if x > -1000 else Decimal(-1)
    term = total = x
    for k in range(2, 14):
        term = term * x / k
        total += term
    return total


def _log1p(x: Decimal) -> Decimal:
    # Nor log1p: the Mercator series below 1e-5, as for _expm1.
    if abs(x) >= Decimal("1e-5"):
        return (1 + x).ln()
    power, total = x, x
    for k in range(2, 14):
        power = -power * x
        total += power / k
    return total


def _decimal_lower(values, beta: float) -> Decimal:
    """-R_beta[-values] at 50 digits, shifted by the minimum as the
    operator is, with the series above for tiny arguments: a plain
    exp/log reference takes the log of 1 + m where m is far below 1e-50
    and returns the minimum."""
    v = [Decimal(float(x)) for x in values]
    vmin, b = min(v), Decimal(beta)
    m = sum(_expm1(-b * (x - vmin)) for x in v) / len(v)
    return vmin - _log1p(m) / b


def _rounding_bound(values) -> Decimal:
    """``risk._lower``'s documented bound:
    (S + 2)**2 u (max - min) + u max|v| + 2**-1074."""
    v = [Decimal(float(x)) for x in values]
    return ((len(v) + 2) ** 2 * U * (max(v) - min(v)) + U * max(abs(x) for x in v)
            + Decimal(2) ** -1074)


# Magnitudes from 1e-300 to 1e300, either sign, and zero.
magnitudes = st.builds(lambda sign, e: sign * 10.0 ** e, st.sampled_from([-1.0, 1.0]),
                       st.floats(min_value=-300.0, max_value=300.0)) | st.just(0.0)
sample_rows = (
    st.lists(magnitudes, min_size=1, max_size=20)
    | st.builds(lambda x, n: [x] * n, magnitudes, st.integers(1, 20))
    # A cluster: offsets far below the values' own magnitude.
    | st.builds(lambda x, scale, ks: [x + scale * k for k in ks], magnitudes, magnitudes,
                st.lists(st.integers(-3, 3), min_size=1, max_size=20))
)
# beta log-uniform over [5e-324, max float], the edges included.
betas = (st.floats(min_value=-1074.0, max_value=1023.999).map(lambda e: 2.0 ** e)
         | st.sampled_from([5e-324, MAX_FLOAT]))


class TestAccuracy:
    # At every finite beta > 0 the computed value lies within
    # ``risk._lower``'s rounding bound of the exact one, at or above the
    # minimum exactly and at most that bound above the mean, with no
    # floating-point warning.  The max-shifted log-mean-exp returned the
    # minimum at beta = 1e-16 on [0, 1], and 0.50000004 at 1e-9.
    @settings(max_examples=400, deadline=None)
    @given(sample_rows, betas)
    def test_within_the_rounding_bound_of_the_exact_value(self, values, beta):
        v = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low = risk_lower(v, beta)
            up = entropic_risk(-v, beta)
            stacked = risk_lower(np.vstack([v, np.arange(v.size)]), beta)
        assert np.float64(stacked[0]).tobytes() == np.float64(low).tobytes()
        assert np.float64(-up).tobytes() == np.float64(low).tobytes()
        bound = _rounding_bound(v)
        with localcontext() as ctx:
            ctx.prec = 50
            exact = _decimal_lower(v, beta)
            mean = sum(Decimal(float(x)) for x in v) / v.size
            assert v.min() <= low
            assert Decimal(low) <= mean + bound
            assert abs(Decimal(low) - exact) <= bound

    def test_small_beta_keeps_the_documented_bounds(self):
        for beta in (1e-9, 1e-12, 1e-16, 1e-300, 5e-324):
            low = risk_lower([0.0, 1.0], beta)
            assert 0.0 < low <= 0.5
            assert low == pytest.approx(0.5 - beta / 8, rel=1e-15)
        assert entropic_risk([1.0, 2.0, 3.0], 1e-20) == 2.0

    def test_infinite_beta_gives_the_extremes(self):
        stack = np.array([[2.0, 3.0], [-5.0, 7.0], [4.0, -1e308]])
        assert np.array_equal(risk_lower(stack, math.inf), [2.0, -5.0, -1e308])
        assert np.array_equal(entropic_risk(stack, math.inf), [3.0, 7.0, 4.0])
        assert risk_lower([0.0, 1.0], math.inf) == 0.0

    @pytest.mark.parametrize("beta", [5e-324, 1e-16, 0.1, 1.0, 1e308, math.inf])
    @pytest.mark.parametrize("value", [0.1, -2.75, 1e-300, 1e308, -MAX_FLOAT])
    def test_equal_samples_give_that_value_exactly(self, value, beta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert risk_lower([value] * 3, beta) == value
            assert entropic_risk([value] * 3, beta) == value


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
