"""Tests for the multivariate-normal engine."""

import importlib.util
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import garma
from garma import (
    AllConditionedError,
    ArmaSpec,
    CondOnMissingError,
    CondPattern,
    DimensionMismatchError,
    GarmaError,
    InvalidParamError,
    GarmaWarning,
    NotPositiveDefiniteError,
    NumericalAdjustmentWarning,
    ToleranceNotReachedError,
    build_pattern,
    mvn,
    variance_matrix,
)
from conftest import (
    brute_conditional,
    norm_cdf,
    plackett_bvn_cdf,
    qmc_cdf_reference,
    sobol_reference,
)

AR1_COV2 = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])


def equicorr(m, rho):
    cov = np.full((m, m), rho)
    np.fill_diagonal(cov, 1.0)
    return cov


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(mvn.cholesky(np.eye(3)), np.eye(3))

    def test_hand_factor(self):
        cov = np.array([[4.0, 2.0], [2.0, 5.0]])
        factor = mvn.cholesky(cov)
        assert np.array_equal(factor, [[2.0, 0.0], [1.0, 2.0]])

    def test_round_trip(self):
        factor = mvn.cholesky(AR1_COV2)
        assert np.allclose(factor @ factor.T, AR1_COV2, atol=1e-15)
        assert np.array_equal(np.triu(factor, 1), np.zeros((2, 2)))

    def test_inflation_rescues_near_singular(self):
        # Exactly singular within rounding; a tiny inflation must rescue it.
        cov = np.ones((2, 2))
        with pytest.warns(NumericalAdjustmentWarning):
            factor = mvn.cholesky(cov)
        assert np.allclose(factor @ factor.T, cov, atol=1e-7)

    def test_inflation_warns_with_eps(self):
        with pytest.warns(NumericalAdjustmentWarning) as record:
            mvn.cholesky(np.ones((2, 2)))
        assert [w.message.eps for w in record] == [1e-14]
        assert issubclass(NumericalAdjustmentWarning, GarmaWarning)

    def test_no_warning_without_inflation(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mvn.cholesky(np.eye(3))

    def test_indefinite_rejected(self):
        with pytest.raises(NotPositiveDefiniteError):
            mvn.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidParamError):
            mvn.cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            mvn.cholesky(np.ones((2, 3)))


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        params = mvn.GaussianParams(mean=[0.0], cov=[[1.0]])
        assert mvn.log_density([0.0], params) == pytest.approx(
            -0.9189385332046727, abs=1e-15
        )

    def test_independent_coordinates_add(self):
        params = mvn.GaussianParams(mean=np.zeros(3), cov=np.diag([1.0, 4.0, 0.25]))
        x = np.array([0.3, -1.0, 0.2])
        expected = sum(
            -0.5 * math.log(2 * math.pi * v) - 0.5 * xi**2 / v
            for xi, v in zip(x, [1.0, 4.0, 0.25])
        )
        assert mvn.log_density(x, params) == pytest.approx(expected, abs=1e-13)

    def test_explicit_inverse_oracle(self):
        phi = 0.5
        lags = phi ** np.abs(np.subtract.outer(range(3), range(3))) / (1 - phi**2)
        params = mvn.GaussianParams(mean=np.full(3, 0.7), cov=lags)
        x = np.array([1.0, -0.5, 0.3])
        diff = x - 0.7
        inv = np.linalg.inv(lags)
        expected = (
            -1.5 * math.log(2 * math.pi)
            - 0.5 * math.log(np.linalg.det(lags))
            - 0.5 * diff @ inv @ diff
        )
        assert mvn.log_density(x, params) == pytest.approx(expected, abs=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(5)
        cov = equicorr(4, 0.3)
        params = mvn.GaussianParams(mean=rng.normal(size=4), cov=cov)
        rows = rng.normal(size=(6, 4))
        batch = mvn.log_density(rows, params)
        singles = [mvn.log_density(row, params) for row in rows]
        assert np.allclose(batch, singles, rtol=1e-13, atol=0.0)

    def test_dimension_mismatch(self):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=np.eye(2))
        with pytest.raises(DimensionMismatchError):
            mvn.log_density([0.0, 0.0, 0.0], params)

    def test_log_space_survives_m30(self):
        # Dimension 30 underflows the natural density scale; the log value
        # must stay finite.
        params = mvn.GaussianParams(mean=np.zeros(30), cov=np.eye(30))
        x = np.full(30, 8.0)
        value = mvn.log_density(x, params)
        assert np.isfinite(value)
        assert math.exp(value) == 0.0  # plain density underflows
        assert value == pytest.approx(30 * (-0.5 * math.log(2 * math.pi) - 32.0))

    def test_empty_system(self):
        empty = mvn.GaussianParams(mean=np.zeros(0), cov=np.zeros((0, 0)))
        assert mvn.log_density(np.zeros(0), empty) == 0.0
        no_rows = mvn.log_density(np.zeros((0, 2)), mvn.GaussianParams(np.zeros(2), np.eye(2)))
        assert no_rows.shape == (0,)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_typed(self, bad):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=AR1_COV2)
        with pytest.raises(InvalidParamError, match="row 1 minus"):
            mvn.log_density([bad, 0.0], params)
        with pytest.raises(InvalidParamError, match="row 2 minus"):
            mvn.log_density([[0.0, 0.0], [0.0, bad], [bad, 0.0]], params)

    def test_deviation_overflow_is_typed(self):
        # Under the error::RuntimeWarning filter: no overflow warning first.
        params = mvn.GaussianParams([-1e308, 0.0], np.eye(2))
        with pytest.raises(InvalidParamError, match="row 1 minus"):
            mvn.log_density([1e308, 0.0], params)


class TestConditionalMoments:
    def test_ar1_closed_form(self):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=AR1_COV2)
        pattern = build_pattern(condvals=[2.0, np.nan])
        cm = mvn.conditional_moments(params, pattern)
        assert cm.cond_mean == pytest.approx([1.0], abs=1e-12)
        assert cm.cond_cov[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_empty_pattern_returns_inputs_exactly(self):
        params = mvn.GaussianParams(mean=[0.5, -0.5], cov=AR1_COV2)
        pattern = build_pattern(condvals=[np.nan, np.nan])
        cm = mvn.conditional_moments(params, pattern)
        assert np.array_equal(cm.cond_mean, params.mean)
        assert np.array_equal(cm.cond_cov, params.cov)

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = int(rng.integers(3, 7))
            a = rng.normal(size=(m, m))
            cov = a @ a.T + 0.5 * np.eye(m)
            mean = rng.normal(size=m)
            k = int(rng.integers(1, m))
            cond_idx = np.sort(rng.choice(m, size=k, replace=False))
            free_idx = np.setdiff1d(np.arange(m), cond_idx)
            values = rng.normal(size=k)
            condvals = np.full(m, np.nan)
            condvals[cond_idx] = values
            params = mvn.GaussianParams(mean=mean, cov=cov)
            cm = mvn.conditional_moments(params, build_pattern(condvals=condvals))
            omean, ocov = brute_conditional(mean, cov, free_idx, cond_idx, values)
            assert np.allclose(cm.cond_mean, omean, atol=1e-10)
            assert np.allclose(cm.cond_cov, ocov, atol=1e-10)

    def test_marginalise_drops_rows(self):
        cov = equicorr(4, 0.5)
        params = mvn.GaussianParams(mean=np.arange(4.0), cov=cov)
        pattern = build_pattern(missing=[False, True, False, True])
        cm = mvn.conditional_moments(params, pattern)
        assert np.array_equal(cm.cond_mean, [0.0, 2.0])
        assert np.array_equal(cm.cond_cov, cov[np.ix_([0, 2], [0, 2])])

    def test_values_supplied_separately(self):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=AR1_COV2)
        pattern = build_pattern(missing=[False, False], cond_flags=[True, False])
        cm = mvn.conditional_moments(params, pattern, values=[2.0])
        assert cm.cond_mean == pytest.approx([1.0], abs=1e-12)

    def test_values_full_length(self):
        # One value per position: only the conditioned ones are read.
        params = mvn.GaussianParams(mean=[0.0, 0.0, 0.0], cov=equicorr(3, 0.4))
        pattern = build_pattern(missing=[False] * 3, cond_flags=[True, False, True])
        full = mvn.conditional_moments(params, pattern, values=[2.0, 99.0, -1.0])
        short = mvn.conditional_moments(params, pattern, values=[2.0, -1.0])
        bound = mvn.conditional_moments(params, build_pattern(condvals=[2.0, np.nan, -1.0]))
        for cm in (short, bound):
            assert np.array_equal(full.cond_mean, cm.cond_mean)
            assert np.array_equal(full.cond_cov, cm.cond_cov)
        assert full.cond_mean == pytest.approx([(2.0 - 1.0) * 0.4 / 1.4], abs=1e-15)

    @pytest.mark.parametrize("count", [1, 5])
    def test_values_length_checked_without_conditioning(self, count):
        params = mvn.GaussianParams(mean=np.zeros(3), cov=np.eye(3))
        pattern = build_pattern(missing=[False, False, False])
        with pytest.raises(DimensionMismatchError):
            mvn.conditional_moments(params, pattern, values=np.zeros(count))

    def test_unbound_pattern_without_values_errors(self):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=AR1_COV2)
        pattern = build_pattern(missing=[False, False], cond_flags=[True, False])
        with pytest.raises(CondOnMissingError):
            mvn.conditional_moments(params, pattern)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_conditioned_value_is_typed(self, bad):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=AR1_COV2)
        pattern = build_pattern(missing=[False, False], cond_flags=[True, False])
        with pytest.raises(CondOnMissingError):
            mvn.conditional_moments(params, pattern, values=[bad])

    def test_conditioned_deviation_overflow_is_typed(self):
        # The value and the mean are finite; their difference is not.
        params = mvn.GaussianParams(mean=[-1e308, 0.0], cov=AR1_COV2)
        pattern = build_pattern(missing=[False, False], cond_flags=[True, False])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(InvalidParamError, match="row 1 minus"):
                mvn.conditional_moments(params, pattern, values=[1e308])

    def test_conditioned_deviation_overflow_does_not_warn(self):
        params = mvn.GaussianParams(mean=[-1e308, 0.0], cov=AR1_COV2)
        pattern = build_pattern(missing=[False, False], cond_flags=[True, False])
        with pytest.raises(InvalidParamError, match="row 1 minus"):
            mvn.conditional_moments(params, pattern, values=[1e308])

    def test_all_conditioned_errors(self):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=AR1_COV2)
        with pytest.raises(AllConditionedError):
            mvn.conditional_moments(params, build_pattern(condvals=[1.0, 2.0]))

    def test_chain_rule(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            m = int(rng.integers(2, 6))
            a = rng.normal(size=(m, m))
            cov = a @ a.T + 0.3 * np.eye(m)
            mean = rng.normal(size=m)
            params = mvn.GaussianParams(mean=mean, cov=cov)
            x = rng.normal(size=m)
            k = int(rng.integers(1, m))
            condvals = np.full(m, np.nan)
            condvals[:k] = x[:k]
            cm = mvn.conditional_moments(params, build_pattern(condvals=condvals))
            log_cond = mvn.log_density(
                x[k:], mvn.GaussianParams(mean=cm.cond_mean, cov=cm.cond_cov)
            )
            log_marg = mvn.log_density(
                x[:k], mvn.GaussianParams(mean=mean[:k], cov=cov[:k, :k])
            )
            log_full = mvn.log_density(x, params)
            assert log_full == pytest.approx(log_cond + log_marg, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(state=st.lists(st.integers(0, 2), min_size=1, max_size=8), extra=st.integers(0, 1))
    @example(state=[2, 2], extra=0)
    def test_same_pattern_rule_as_variance_matrix(self, state, extra):
        """On any bound pattern, variance_matrix and conditional_moments both
        succeed with the same covariance or raise the same error type."""
        pattern = CondPattern(state=state, values=np.linspace(-1.0, 1.0, len(state)))
        n = len(state) + extra
        spec = ArmaSpec(ar=(0.5,))
        params = mvn.GaussianParams(mean=np.zeros(n), cov=variance_matrix(n, spec).entries)
        outcomes = []
        for call in (
            lambda: variance_matrix(n, spec, cond=pattern).entries,
            lambda: mvn.conditional_moments(params, pattern).cond_cov,
        ):
            try:
                outcomes.append(call())
            except GarmaError as exc:
                outcomes.append(type(exc))
        if isinstance(outcomes[0], type):
            assert outcomes[0] is outcomes[1]
        else:
            assert np.array_equal(outcomes[0], outcomes[1])


class TestMvnCdf:
    @pytest.mark.parametrize("upper", [[0.0, 1.0, 2.0], [[0.0, 1.0]]])
    def test_upper_of_the_wrong_shape(self, upper):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=np.eye(2))
        with pytest.raises(DimensionMismatchError, match="distribution has dimension 2"):
            mvn.mvn_cdf(upper, params)

    def test_univariate_median(self):
        params = mvn.GaussianParams(mean=[0.0], cov=[[1.0]])
        result = mvn.mvn_cdf([0.0], params)
        assert result.value == 0.5
        assert result.method == "closed_form_1d"

    def test_univariate_shifted_scaled(self):
        params = mvn.GaussianParams(mean=[3.0], cov=[[4.0]])
        result = mvn.mvn_cdf([5.0], params)
        assert result.value == pytest.approx(float(ndtr(1.0)), abs=1e-15)

    def test_bivariate_independent_orthant(self):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=np.eye(2))
        result = mvn.mvn_cdf([0.0, 0.0], params)
        assert result.value == pytest.approx(0.25, abs=1e-12)
        assert result.method == "quadrature_2d"

    def test_bivariate_half_correlation_orthant(self):
        # P(X <= 0, Y <= 0) with correlation 1/2 is exactly 1/3.
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=equicorr(2, 0.5))
        result = mvn.mvn_cdf([0.0, 0.0], params)
        assert result.value == pytest.approx(1 / 3, abs=1e-10)

    @pytest.mark.parametrize("rho", [-0.95, -0.5, -0.1, 0.0, 0.3, 0.8, 0.93, 0.999])
    def test_bivariate_vs_qmc(self, rho):
        cov3 = equicorr(2, rho)
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=cov3)
        upper = [0.4, -0.7]
        quad = mvn.mvn_cdf(upper, params)
        # An independent estimate from the 3-and-higher path: embed in 3-D
        # with a third, unconstrained coordinate.
        cov_embedded = np.eye(3)
        cov_embedded[:2, :2] = cov3
        qmc_result = mvn.mvn_cdf(
            upper + [np.inf], mvn.GaussianParams(mean=np.zeros(3), cov=cov_embedded)
        )
        assert qmc_result.method == "quadrature_2d"  # inf dropped, back to 2-D
        embedded = np.eye(3) * 1e-8
        embedded[:2, :2] = cov3
        loose = mvn.mvn_cdf(
            upper + [40.0], mvn.GaussianParams(mean=np.zeros(3), cov=embedded),
            tol=2e-6, seed=3,
        )
        assert loose.method == "qmc"
        assert quad.value == pytest.approx(loose.value, abs=2e-5)

    @pytest.mark.parametrize("rho", [-0.999, -0.9, -0.5, -0.1, 0.0, 0.3, 0.75, 0.95, 0.999])
    def test_bivariate_matches_plackett_oracle(self, rho):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=equicorr(2, rho))
        for h in np.linspace(-8.0, 8.0, 9):
            for k in np.linspace(-8.0, 8.0, 17):
                result = mvn.mvn_cdf([h, k], params)
                assert result.error_estimate == 1e-14
                assert abs(result.value - plackett_bvn_cdf(h, k, rho)) <= 1e-14, (h, k)

    @pytest.mark.parametrize("h, k", [(0.7, -1.3), (-2.0, -0.4), (0.0, 1.1), (-0.6, 0.0), (0.0, 0.0)])
    def test_bivariate_exact_cases(self, h, k):
        def cdf(rho):
            return mvn.mvn_cdf([h, k], mvn.GaussianParams([0.0, 0.0], equicorr(2, rho))).value

        assert cdf(0.0) == pytest.approx(norm_cdf(h) * norm_cdf(k), abs=1e-15)
        assert cdf(1.0) == pytest.approx(norm_cdf(min(h, k)), abs=1e-15)
        assert cdf(-1.0) == pytest.approx(max(0.0, norm_cdf(h) + norm_cdf(k) - 1.0), abs=1e-15)
        for rho in (-0.8, 0.4):
            assert cdf(rho) == pytest.approx(plackett_bvn_cdf(h, k, rho), abs=1e-14)
            if h == 0.0 and k == 0.0:  # Sheppard's orthant formula
                assert cdf(rho) == pytest.approx(0.25 + math.asin(rho) / (2 * math.pi), abs=1e-15)

    def test_bivariate_continuous_across_zero_limit(self):
        for rho in (0.6, 0.95, -0.95):
            params = mvn.GaussianParams(mean=[0.0, 0.0], cov=equicorr(2, rho))
            for k in (-1.5, 1.5):
                at_zero = mvn.mvn_cdf([0.0, k], params).value
                for tiny in (1e-300, -1e-300, 5e-324, -5e-324):
                    value = mvn.mvn_cdf([tiny, k], params).value
                    assert value == pytest.approx(at_zero, abs=1e-15), (rho, k, tiny)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 0.95, -0.95, 1.0, -1.0])
    def test_bivariate_huge_finite_limits(self, rho):
        # Limits far past where the normal CDF is 0 or 1 act like infinite ones.
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=equicorr(2, rho))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mvn.mvn_cdf([1e200, 0.5], params).value == float(ndtr(0.5))
            assert mvn.mvn_cdf([0.5, 1e200], params).value == float(ndtr(0.5))
            assert mvn.mvn_cdf([1e200, 1e200], params).value == 1.0
            assert mvn.mvn_cdf([-1e200, 0.5], params).value == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_limit_overflowing_its_standard_deviation(self):
        # 1e308 / 0.5 overflows: a limit that far out adds nothing.
        params = mvn.GaussianParams([0.0, 0.0], [[0.25, 0.1], [0.1, 0.25]])
        assert mvn.mvn_cdf([1e308, 0.5], params).value == float(ndtr(1.0))
        assert mvn.mvn_cdf([0.5, -1e308], params).value == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_limit_minus_mean_overflowing(self):
        assert mvn.mvn_cdf([1e308], mvn.GaussianParams([-1e308], [[1.0]])).value == 1.0
        assert mvn.mvn_cdf([-1e308], mvn.GaussianParams([1e308], [[1.0]])).value == 0.0
        cov = equicorr(3, 0.4)
        far = mvn.mvn_cdf([1e308, 0.3, -0.2], mvn.GaussianParams([-1e308, 0.0, 0.0], cov))
        finite = mvn.mvn_cdf([1e300, 0.3, -0.2], mvn.GaussianParams(np.zeros(3), cov))
        assert (far.value, far.error_estimate) == (finite.value, finite.error_estimate)
        empty = mvn.mvn_cdf([-1e308, 0.3, -0.2], mvn.GaussianParams([1e308, 0.0, 0.0], cov))
        assert empty.value == 0.0
        assert garma.pgarma([1e308], ArmaSpec(mean=-1e308))[0] == 1.0
        assert garma.pgarma([-1e308, 0.2], ArmaSpec(ar=(0.5,), mean=1e308))[0] == 0.0

    @pytest.mark.parametrize("h, k", [(-10.0, -10.0), (-20.0, -20.0), (-10.0, 5.0), (3.0, -12.0)])
    def test_bivariate_independent_lower_tail_relative(self, h, k):
        # Far below the 1e-14 absolute bound: the error must be small relative
        # to the value, so a log-probability stays finite and accurate.
        value = mvn.mvn_cdf([h, k], mvn.GaussianParams([0.0, 0.0], np.eye(2))).value
        assert value == pytest.approx(float(ndtr(h) * ndtr(k)), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("h, k, rho", [(-10.0, -10.0, 0.5), (-5.0, -8.0, 0.5),
                                           (-10.0, 5.0, 0.9), (-10.0, -10.0, 0.99),
                                           (-20.0, -20.0, 0.95), (-20.0, -20.0, 0.5)])
    def test_bivariate_correlated_lower_tail_relative(self, h, k, rho):
        value = mvn.mvn_cdf([h, k], mvn.GaussianParams([0.0, 0.0], equicorr(2, rho))).value
        # abs=0: approx's default absolute 1e-12 would pass any value this small.
        # At -20 (values near 1e-100) the rule's error is about 1e-8 relative.
        rel = 1e-6 if h <= -20.0 else 1e-11
        assert value == pytest.approx(plackett_bvn_cdf(h, k, rho), rel=rel, abs=0.0)

    def test_bivariate_symmetry(self):
        params = mvn.GaussianParams(mean=[0.0, 0.0], cov=equicorr(2, 0.7))
        a = mvn.mvn_cdf([0.3, -1.2], params)
        b = mvn.mvn_cdf([-1.2, 0.3], params)
        assert a.value == pytest.approx(b.value, abs=1e-14)

    def test_trivariate_equicorrelated_orthant(self):
        # For correlation 1/2 in any dimension the orthant probability is
        # 1/(m+1); here 1/4.
        params = mvn.GaussianParams(mean=np.zeros(3), cov=equicorr(3, 0.5))
        result = mvn.mvn_cdf([0.0, 0.0, 0.0], params, tol=1e-5, seed=17)
        assert result.method == "qmc"
        assert result.error_estimate <= 1e-5
        assert result.value == pytest.approx(0.25, abs=6e-5)

    def test_trivariate_independent(self):
        params = mvn.GaussianParams(mean=np.zeros(3), cov=np.eye(3))
        result = mvn.mvn_cdf([0.0, 0.0, 0.0], params, tol=1e-5, seed=23)
        assert result.value == pytest.approx(0.125, abs=6e-5)

    def test_qmc_deterministic_given_seed(self):
        params = mvn.GaussianParams(mean=np.zeros(4), cov=equicorr(4, 0.3))
        a = mvn.mvn_cdf([0.5, -0.2, 1.0, 0.0], params, seed=99)
        b = mvn.mvn_cdf([0.5, -0.2, 1.0, 0.0], params, seed=99)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate

    def test_seed_sequence_is_not_consumed(self):
        params = mvn.GaussianParams(mean=np.zeros(4), cov=equicorr(4, 0.5))
        upper = [0.5, 0.3, 0.8, 1.0]
        seq = np.random.SeedSequence(41, spawn_key=(0,))
        a = mvn.mvn_cdf(upper, params, seed=seq)
        b = mvn.mvn_cdf(upper, params, seed=seq)
        fresh = mvn.mvn_cdf(upper, params, seed=np.random.SeedSequence(41, spawn_key=(0,)))
        assert a.method == "qmc"
        assert (a.value, a.error_estimate) == (b.value, b.error_estimate)
        assert (a.value, a.error_estimate) == (fresh.value, fresh.error_estimate)
        assert seq.n_children_spawned == 0

    def test_default_seed_is_fixed(self):
        params = mvn.GaussianParams(mean=np.zeros(3), cov=equicorr(3, 0.5))
        a = mvn.mvn_cdf([0.1, 0.2, 0.3], params)
        b = mvn.mvn_cdf([0.1, 0.2, 0.3], params)
        assert a.value == b.value

    def test_monotone_in_upper(self):
        params = mvn.GaussianParams(mean=np.zeros(3), cov=equicorr(3, 0.4))
        lo = mvn.mvn_cdf([0.0, 0.0, 0.0], params, seed=1)
        hi = mvn.mvn_cdf([0.5, 0.0, 0.0], params, seed=1)
        assert hi.value > lo.value

    def test_all_infinite_upper(self):
        params = mvn.GaussianParams(mean=np.zeros(3), cov=equicorr(3, 0.5))
        assert mvn.mvn_cdf([np.inf] * 3, params).value == 1.0

    def test_minus_infinity_gives_zero(self):
        params = mvn.GaussianParams(mean=np.zeros(2), cov=np.eye(2))
        assert mvn.mvn_cdf([0.0, -np.inf], params).value == 0.0

    def test_far_tails(self):
        params = mvn.GaussianParams(mean=np.zeros(3), cov=equicorr(3, 0.2))
        low = mvn.mvn_cdf([-40.0] * 3, params, seed=2)
        high = mvn.mvn_cdf([40.0] * 3, params, seed=2)
        assert low.value <= 1e-12
        assert high.value >= 1.0 - 1e-12

    @pytest.mark.parametrize("cov", [[[0.0]], [[1.0, 0.0], [0.0, 0.0]], np.diag([1.0, 0.0, 1.0])])
    def test_zero_variance_rejected(self, cov):
        params = mvn.GaussianParams(mean=np.zeros(len(cov)), cov=cov)
        with pytest.raises(NotPositiveDefiniteError, match="non-positive diagonal"):
            mvn.mvn_cdf(np.full(len(cov), 0.5), params)

    def test_nan_upper_rejected(self):
        params = mvn.GaussianParams(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(InvalidParamError):
            mvn.mvn_cdf([0.0, np.nan], params)

    @pytest.mark.parametrize("max_points", [-5, 0, 2.5, "a", None])
    def test_bad_max_points_is_typed(self, max_points):
        # Rejected even where no row would reach the cap.
        params = mvn.GaussianParams(mean=[0.0], cov=[[1.0]])
        with pytest.raises(InvalidParamError, match="max_points must be a positive integer"):
            mvn.mvn_cdf([0.0], params, max_points=max_points)

    def test_tolerance_not_reached(self):
        params = mvn.GaussianParams(mean=np.zeros(5), cov=equicorr(5, 0.5))
        with pytest.raises(ToleranceNotReachedError) as info:
            mvn.mvn_cdf([0.0] * 5, params, tol=1e-12, seed=3, max_points=50_000)
        assert 0.0 <= info.value.best_estimate <= 1.0
        assert info.value.error_estimate > 1e-12

    def test_first_round_ignores_the_point_cap(self):
        # The cap is checked only before each later round, so the first
        # round's 10 x 1024 points always run.
        params = mvn.GaussianParams(np.zeros(4), equicorr(4, 0.3))
        upper = [0.5, -0.2, 1.0, 0.0]
        first = mvn.mvn_cdf(upper, params, tol=1e-3, max_points=1)
        assert first.method == "qmc"
        with pytest.raises(ToleranceNotReachedError) as info:
            mvn.mvn_cdf(upper, params, tol=1e-9, max_points=1)
        assert info.value.best_estimate == first.value
        assert info.value.error_estimate == first.error_estimate


class TestQmcPasses:
    """The quasi-Monte Carlo rounds, each evaluated in passes that stack
    several engines' points, against the per-engine round."""

    # Points spent by the end of rounds 1 to 4; a cap of one of them lets
    # that many rounds run at most.
    ROUND_TOTALS = (10_240, 51_200, 215_040, 870_400)

    @staticmethod
    def _outcome(cdf, *args):
        try:
            return [(r.value, r.error_estimate, r.method) for r in cdf(*args)]
        except ToleranceNotReachedError as err:
            return ("raised", err.best_estimate, err.error_estimate)

    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(3, 12), rows=st.integers(1, 4), rounds=st.integers(1, 4),
           log_tol=st.floats(-6.0, -3.0), seed=st.integers(0, 2**32 - 1))
    @example(d=12, rows=4, rounds=4, log_tol=-6.0, seed=0)  # raises after round 4
    @example(d=5, rows=2, rounds=4, log_tol=-5.0, seed=3)  # done in round 4
    def test_bit_identical_to_per_engine_reference(self, d, rows, rounds, log_tol, seed):
        # A strong common factor and limits above the mean keep the
        # integrand's variance high, so that later rounds run.
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d + 2))
        a[:, 0] *= 3.0
        corr = mvn._cov_to_corr(a @ a.T)
        z = rng.uniform(0.0, 2.0, size=(rows, d))
        args = (corr, z, 10.0**log_tol, seed, self.ROUND_TOTALS[rounds - 1])
        assert self._outcome(mvn._qmc_cdf, *args) == self._outcome(qmc_cdf_reference, *args)

    def test_peak_memory_of_later_rounds_is_bounded(self):
        # Four rounds at d = 12 before the cap; the last has 65,536 points
        # per engine, so stacking all ten engines would take about 130 MiB.
        params = mvn.GaussianParams(np.zeros(12), 0.5 ** np.abs(np.subtract.outer(
            np.arange(12), np.arange(12))))
        upper = np.full(12, 0.3)
        mvn.mvn_cdf(upper, params, tol=1e-2)  # imports and caches outside the trace
        tracemalloc.start()
        try:
            with pytest.raises(ToleranceNotReachedError):
                mvn.mvn_cdf(upper, params, tol=1e-9, max_points=3_000_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20


def scipy_sobol_spawns():
    """Whether the installed scipy seeds each ``qmc.Sobol`` from a spawned
    child of a passed ``Generator``, the rule garma's points reproduce."""
    from scipy.stats import qmc

    gen = np.random.default_rng(0)
    qmc.Sobol(2, scramble=True, seed=gen)
    return gen.bit_generator._seed_seq.n_children_spawned == 1


def sobol_engines(seed, d, count):
    """``count`` successive scrambled engines of dimension ``d``, as one
    quasi-Monte Carlo round spawns them from a generator seeded with ``seed``."""
    bit_gen = np.random.default_rng(seed).bit_generator
    return [mvn._sobol_scramble(np.random.Generator(type(bit_gen)(child)), d)
            for child in bit_gen._seed_seq.spawn(count)]


class TestSobolPoints:
    """garma's scrambled Sobol points, which the quasi-Monte Carlo CDF uses."""

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 40, 200, 1111])
    def test_bit_identical_to_scipy(self, d):
        if not scipy_sobol_spawns():
            pytest.skip("this scipy does not seed Sobol from a child of a passed Generator")
        from scipy.stats import qmc

        for seed in (0, 7, mvn.DEFAULT_CDF_SEED):
            gen = np.random.default_rng(seed)
            for engine in sobol_engines(seed, d, 3):
                theirs = qmc.Sobol(d, scramble=True, seed=gen)
                for m in (0, 1, 4, 10):
                    want = theirs.reset().random_base2(m)
                    got = mvn._sobol_points(*engine, m)
                    assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("d, m", [(1, 3), (3, 6), (8, 5)])
    def test_matches_loop_reference(self, d, m):
        poly, vinit = mvn._sobol_table()
        for seed in (0, 7):
            want = sobol_reference(np.random.default_rng(seed), d, m, poly, vinit)
            got = mvn._sobol_points(*mvn._sobol_scramble(np.random.default_rng(seed), d), m)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("d, m", [(1, 0), (3, 1), (5, 8), (20, 12)])
    def test_each_coordinate_is_stratified(self, d, m):
        # Each coordinate puts exactly one point in each [k, k + 1) / 2**m.
        for engine in sobol_engines(5, d, 2):
            pts = mvn._sobol_points(*engine, m)
            assert pts.shape == (2**m, d)
            assert np.all((pts >= 0.0) & (pts < 1.0))
            cells = np.sort(np.floor(pts * 2**m), axis=0)
            assert np.array_equal(cells, np.repeat(np.arange(2.0**m)[:, None], d, axis=1))

    def test_pinned_cdf_values(self):
        # garma's own stream, so these hold on every supported scipy; the
        # tolerance admits rounding in ndtr and ndtri, not another stream,
        # which moves the value by about its error estimate.
        params = mvn.GaussianParams(np.zeros(4), equicorr(4, 0.3))
        result = mvn.mvn_cdf([0.5, -0.2, 1.0, 0.0], params, seed=99)
        assert result.value == pytest.approx(0.20350045756446494, rel=1e-12, abs=0)
        assert result.error_estimate == pytest.approx(2.2515176603478164e-06, rel=1e-9, abs=0.0)
        cov = 0.6 ** np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
        result = mvn.mvn_cdf([0.3, -0.4, 0.8, 0.1, -0.2, 0.5],
                             mvn.GaussianParams(np.zeros(6), cov), tol=1e-4)
        assert result.value == pytest.approx(0.11819172595966398, rel=1e-12, abs=0)
        assert result.error_estimate == pytest.approx(2.0714338839225573e-06, rel=1e-9, abs=0.0)

    def test_too_many_dimensions_is_typed(self):
        assert mvn._sobol_table()[0].shape == (21201,)
        with pytest.raises(InvalidParamError, match="at most 21201 dimensions, got 21202"):
            mvn._sobol_scramble(np.random.default_rng(0), 21202)


class TestKernels:
    """The compiled scipy kernels, from scipy's extension files or else from
    the public imports."""

    @staticmethod
    def _values():
        spec = ArmaSpec(ar=(0.6, -0.2), ma=(0.4,), mean=0.3, error_var=1.5)
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(3, 12))
        flags = np.zeros(12, dtype=bool)
        flags[[2, 7]] = True
        condvals = np.where(flags, rows[0], np.nan)
        pattern = build_pattern(condvals=condvals)
        out = [garma.dgarma(rows, spec, cond=flags, log=True),
               garma.rgarma(4, 12, spec, condvals=condvals, seed=3),
               variance_matrix(12, spec, cond=pattern).entries,
               mvn.log_density(rows[:, :4], mvn.GaussianParams(np.zeros(4), equicorr(4, 0.3)))]
        for free in (1, 2, 5):
            out.append(garma.pgarma(rows[:, :free], spec))
            out.append(garma.pgarma(rows[:, :free + 2], spec, cond=[True, True] + [False] * free))
        return out

    def test_fallback_gives_identical_values(self, monkeypatch):
        fast = self._values()
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args[0])
            raise ImportError("no extension file")

        monkeypatch.setattr(importlib.util, "spec_from_file_location", refuse)
        mvn._kernels.cache_clear()
        try:
            public = self._values()
        finally:
            monkeypatch.undo()
            mvn._kernels.cache_clear()
        assert calls == ["scipy.linalg._flapack"]
        for got, want in zip(public, fast):
            assert got.tobytes() == want.tobytes()

    def test_public_import_afterwards(self):
        code = textwrap.dedent("""
            import numpy as np
            from garma import mvn
            kernels = mvn._kernels()
            import scipy.linalg, scipy.special
            from scipy.linalg import lapack
            solved = scipy.linalg.solve_triangular(np.array([[2.0, 0.0], [1.0, 1.0]]),
                                                   np.array([2.0, 2.0]), lower=True)
            print(lapack.dtbtrs is kernels.dtbtrs, lapack.dtrtrs is kernels.dtrtrs,
                  scipy.special.ndtr is kernels.ndtr, solved.tolist(),
                  float(scipy.special.ndtr(0.0)))
        """)
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["True", "True", "True", "[1.0,", "1.0]", "0.5"]


class TestSample:
    def test_shape_and_determinism(self):
        params = mvn.GaussianParams(mean=np.zeros(3), cov=equicorr(3, 0.5))
        a = mvn.sample(params, 10, seed=7)
        b = mvn.sample(params, 10, seed=7)
        assert a.shape == (10, 3)
        assert np.array_equal(a, b)

    def test_zero_count(self):
        params = mvn.GaussianParams(mean=[0.0], cov=[[1.0]])
        assert mvn.sample(params, 0, seed=1).shape == (0, 1)

    def test_moments_match(self):
        cov = np.array([[2.0, 0.6, 0.2], [0.6, 1.0, -0.3], [0.2, -0.3, 0.5]])
        mean = np.array([1.0, -2.0, 0.5])
        params = mvn.GaussianParams(mean=mean, cov=cov)
        draws = mvn.sample(params, 200_000, seed=12345)
        n = draws.shape[0]
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) <= 4 * se_mean)
        sample_cov = np.cov(draws.T)
        se_cov = np.sqrt(
            (np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n
        )
        assert np.all(np.abs(sample_cov - cov) <= 4 * se_cov)

    def test_bad_count(self):
        params = mvn.GaussianParams(mean=[0.0], cov=[[1.0]])
        with pytest.raises(InvalidParamError):
            mvn.sample(params, -1, seed=1)


class TestGaussianParams:
    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            mvn.GaussianParams(mean=[0.0, 0.0], cov=np.eye(3))

    def test_asymmetric_cov_rejected(self):
        with pytest.raises(InvalidParamError):
            mvn.GaussianParams(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.2, 1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParamError):
            mvn.GaussianParams(mean=[np.nan], cov=[[1.0]])

    def test_covariance_is_stored_exactly_symmetric(self):
        # Entries 3-4e-9 from their transposes pass the 1e-8 symmetry check;
        # every function then reads one symmetric matrix, whichever triangle
        # it reads, and agrees bit for bit with the symmetrised input.
        rng = np.random.default_rng(41)
        a = rng.normal(size=(4, 4))
        cov = a @ a.T + 4.0 * np.eye(4) + np.triu(rng.uniform(3e-9, 4e-9, size=(4, 4)), 1)
        mean = rng.normal(size=4)
        asym = mvn.GaussianParams(mean, cov)
        sym = mvn.GaussianParams(mean, (cov + cov.T) / 2)
        assert np.array_equal(asym.cov, sym.cov)
        assert np.array_equal(asym.cov, asym.cov.T)
        pattern = build_pattern(condvals=[0.3, np.nan, -0.2, np.nan])
        got, want = (mvn.conditional_moments(p, pattern) for p in (asym, sym))
        assert np.array_equal(got.cond_mean, want.cond_mean)
        assert np.array_equal(got.cond_cov, want.cond_cov)
        for upper in ([0.5, np.inf, -0.1, np.inf], [0.5, 1.0, -0.1, np.inf]):  # 2-D, 3-D
            assert mvn.mvn_cdf(upper, asym, seed=5) == mvn.mvn_cdf(upper, sym, seed=5)
        x = rng.normal(size=(3, 4))
        assert np.array_equal(mvn.log_density(x, asym), mvn.log_density(x, sym))
        assert np.array_equal(mvn.sample(asym, 5, seed=2), mvn.sample(sym, 5, seed=2))


@pytest.mark.parametrize(
    "cov, match",
    [
        ([[1.7e308, 0.0], [0.0, 1.0]], "overflow"),  # c + c.T overflows
        ([[1.0, 1.7e308], [-1.7e308, 1.0]], "symmetric"),  # c - c.T overflows
    ],
    ids=["sum", "difference"],
)
@pytest.mark.parametrize(
    "call",
    [lambda cov: mvn.GaussianParams(np.zeros(2), cov), mvn.cholesky],
    ids=["GaussianParams", "cholesky"],
)
def test_covariance_overflowing_when_symmetrised_fails_typed(call, cov, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidParamError, match=match):
            call(cov)


class TestQmcAllocationLimit:
    """Running out of memory in the quasi-Monte Carlo CDF is an
    InvalidParamError naming the dimension, not a bare MemoryError."""

    def test_typed_error_under_a_lowered_address_space_limit(self):
        pytest.importorskip("resource")
        if not sys.platform.startswith("linux"):
            pytest.skip("RLIMIT_AS is enforced on Linux only")
        # After a small quasi-Monte Carlo CDF has loaded what that path needs,
        # the child lowers its own limit to what it uses plus 128 MiB: the
        # 1200 x 1200 blocks before the CDF fit, and its first round of
        # points (94 MiB as floats, beside their 47 MiB of bits) does not.
        code = textwrap.dedent("""
            import os, resource, time
            import numpy as np
            from garma import ArmaSpec, InvalidParamError, mvn, pgarma

            d = 1200
            ar1 = mvn.GaussianParams(np.zeros(d), 0.5 ** np.abs(np.subtract.outer(np.arange(d), np.arange(d))))
            mvn.mvn_cdf(np.zeros(3), mvn.GaussianParams(np.zeros(3), np.eye(3)))
            calls = [
                lambda: mvn.mvn_cdf(np.zeros(d), ar1, tol=1e-3),
                lambda: pgarma(np.zeros(d), ArmaSpec(ar=(0.5,)), tol=1e-3),
            ]
            used = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = used + 2**27
            resource.setrlimit(resource.RLIMIT_AS,
                               (soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))
            for call in calls:
                began = time.perf_counter()
                try:
                    call()
                    print("returned")
                except InvalidParamError as exc:
                    print(f"InvalidParamError {time.perf_counter() - began:.3f} {exc}")
        """)
        # One BLAS thread, so no thread arenas take part of the headroom.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 2
        for line in lines:
            kind, seconds, message = line.split(" ", 2)
            assert kind == "InvalidParamError"
            assert float(seconds) < 10.0
            assert message == "not enough memory for the quasi-Monte Carlo CDF in 1200 dimensions"


class TestFiniteLimitCopyLimit:
    """mvn_cdf copies the covariance only when a limit is +inf, and running
    out of memory for that copy is an InvalidParamError, not a bare
    MemoryError."""

    def test_all_finite_limits_pass_the_covariance_as_it_is(self, monkeypatch):
        params = mvn.GaussianParams(np.zeros(3), equicorr(3, 0.5))
        passed = []
        original = mvn._rectangle_cdf

        def recording(upper, mean, cov, *rest):
            passed.append((mean, cov))
            return original(upper, mean, cov, *rest)

        monkeypatch.setattr(mvn, "_rectangle_cdf", recording)
        mvn.mvn_cdf([0.1, 0.2, 0.3], params)
        mvn.mvn_cdf([0.1, np.inf, 0.3], params)
        assert passed[0][0] is params.mean and passed[0][1] is params.cov
        assert passed[1][1].shape == (2, 2)

    def test_typed_error_under_a_lowered_address_space_limit(self):
        pytest.importorskip("resource")
        if not sys.platform.startswith("linux"):
            pytest.skip("RLIMIT_AS is enforced on Linux only")
        # The child lowers its own limit to what it uses plus 32 MiB, below the
        # 69 MiB of the 2999 x 2999 copy that one +inf limit asks for.
        code = textwrap.dedent("""
            import os, resource, time
            import numpy as np
            from garma import InvalidParamError, mvn

            d = 3000
            lag = np.abs(np.subtract.outer(np.arange(d), np.arange(d)))
            params = mvn.GaussianParams(np.zeros(d), 0.5 ** lag)
            del lag
            upper = np.zeros(d)
            upper[0] = np.inf
            used = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = used + 2**25
            resource.setrlimit(resource.RLIMIT_AS,
                               (soft if hard == resource.RLIM_INFINITY else min(soft, hard), hard))
            began = time.perf_counter()
            try:
                mvn.mvn_cdf(upper, params, tol=1e-3)
                print("returned")
            except InvalidParamError as exc:
                print(f"InvalidParamError {time.perf_counter() - began:.3f} {exc}")
        """)
        # One BLAS thread, so no thread arenas take part of the headroom.
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=300)
        assert result.returncode == 0, result.stderr
        kind, seconds, message = result.stdout.strip().split(" ", 2)
        assert kind == "InvalidParamError"
        assert float(seconds) < 10.0
        assert message.startswith(f"cannot allocate {8 * 2999**2} bytes for the 2999 x 2999 covariance")
