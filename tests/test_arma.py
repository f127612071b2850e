"""Tests for model validation, psi weights, autocovariance, and variance
matrices."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import toeplitz
from scipy.signal import lfilter

from garma import (
    AllConditionedError,
    AllMarginalisedError,
    ArmaSpec,
    CondPattern,
    DimensionMismatchError,
    GarmaError,
    InvalidParamError,
    NearUnitRootWarning,
    NonStationaryError,
    SharedRootWarning,
    acf_vector,
    autocovariance,
    build_pattern,
    dgarma,
    mvn,
    pgarma,
    psi_weights,
    rgarma,
    validate_stationary,
    variance_matrix,
)
from garma import arma
from conftest import acvf_oracle, random_stationary_spec, simulate_series

GARMA22 = ArmaSpec(ar=(0.8, -0.2), ma=(0.6, 0.3))


class TestArmaSpec:
    def test_defaults(self):
        spec = ArmaSpec()
        assert spec.ar == () and spec.ma == ()
        assert spec.mean == 0.0 and spec.error_var == 1.0
        assert spec.p == 0 and spec.q == 0

    def test_coercion(self):
        spec = ArmaSpec(ar=np.array([0.5]), ma=[0.1, 0.2])
        assert spec.ar == (0.5,) and spec.ma == (0.1, 0.2)

    def test_none_means_no_coefficients(self):
        assert ArmaSpec(ar=None, ma=None) == ArmaSpec()

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_error_var_domain(self, bad):
        with pytest.raises(InvalidParamError):
            ArmaSpec(error_var=bad)

    def test_nonfinite_coefficients(self):
        with pytest.raises(InvalidParamError):
            ArmaSpec(ar=(float("nan"),))
        with pytest.raises(InvalidParamError):
            ArmaSpec(ma=(float("inf"),))
        with pytest.raises(InvalidParamError):
            ArmaSpec(mean=float("inf"))


class TestValidateStationary:
    def test_ar1_modulus(self):
        moduli = validate_stationary(ArmaSpec(ar=(0.5,)))
        assert moduli.shape == (1,)
        assert moduli[0] == pytest.approx(2.0, abs=1e-14)

    def test_pure_ma_empty(self):
        assert validate_stationary(ArmaSpec(ma=(0.9, 0.5))).size == 0

    def test_white_noise_empty(self):
        assert validate_stationary(ArmaSpec()).size == 0

    def test_trailing_zero_ar_trimmed(self):
        moduli = validate_stationary(ArmaSpec(ar=(0.5, 0.0)))
        assert moduli.shape == (1,)
        assert moduli[0] == pytest.approx(2.0, abs=1e-14)

    @pytest.mark.parametrize("ar", [(1.0,), (1.5,), (0.5, 0.5), (-1.0,)])
    def test_non_stationary(self, ar):
        with pytest.raises(NonStationaryError) as info:
            validate_stationary(ArmaSpec(ar=ar))
        assert info.value.min_modulus <= 1.0

    def test_garma22_reference_model_is_stationary(self):
        moduli = validate_stationary(GARMA22)
        assert moduli.shape == (2,)
        assert moduli.min() > 1.0

    def test_near_unit_root_warns(self):
        phi = 1.0 / (1.0 + 5e-7)
        with pytest.warns(NearUnitRootWarning):
            validate_stationary(ArmaSpec(ar=(phi,)))

    def test_comfortable_root_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            validate_stationary(ArmaSpec(ar=(0.5,)))

    @pytest.mark.parametrize("spec", [{"ar": [0.5]}, ((0.5,),), None], ids=["dict", "tuple", "none"])
    @pytest.mark.parametrize(
        "call",
        [
            validate_stationary,
            psi_weights,
            lambda spec: autocovariance(spec, 3),
            lambda spec: acf_vector(3, spec),
            lambda spec: variance_matrix(3, spec),
            lambda spec: dgarma([0.1, 0.2, 0.3], spec),
            lambda spec: pgarma([0.1, 0.2, 0.3], spec),
            lambda spec: rgarma(2, 3, spec, seed=1),
        ],
        ids=["validate_stationary", "psi_weights", "autocovariance", "acf_vector",
             "variance_matrix", "dgarma", "pgarma", "rgarma"],
    )
    def test_spec_must_be_armaspec(self, call, spec):
        # Every entry reads the model through validate_stationary, which
        # accepts only an ArmaSpec: no entry coerces, so none can fail later
        # with a bare AttributeError.
        with pytest.raises(InvalidParamError, match="ArmaSpec"):
            call(spec)


class TestPsiWeights:
    def test_pure_ma_exact(self):
        pw = psi_weights(ArmaSpec(ma=(0.6, 0.3)))
        assert np.array_equal(pw.weights, [1.0, 0.6, 0.3])
        assert pw.truncation_index == 2
        assert pw.tail_bound == 0.0

    def test_ar1_geometric(self):
        pw = psi_weights(ArmaSpec(ar=(0.5,)))
        k = np.arange(pw.truncation_index + 1)
        assert np.allclose(pw.weights, 0.5 ** k, rtol=0, atol=1e-15)

    def test_hand_derived_arma22(self):
        # Long division of (1 + 0.6x + 0.3x^2) by (1 - 0.8x + 0.2x^2):
        # psi_1 = 0.6 + 0.8 = 1.4; psi_2 = 0.3 + 0.8*1.4 - 0.2 = 1.22.
        pw = psi_weights(GARMA22)
        assert pw.weights[0] == 1.0
        assert pw.weights[1] == pytest.approx(1.4, abs=1e-15)
        assert pw.weights[2] == pytest.approx(1.22, abs=1e-15)

    def test_tail_bound_below_tol_and_honest(self):
        for tol in (1e-6, 1e-10, 1e-14):
            pw = psi_weights(GARMA22, tol=tol)
            assert 0.0 <= pw.tail_bound <= tol
            # Extend the recursion far beyond the truncation point and check
            # the actual tail mass is below the certified bound.
            extra = 4 * (pw.truncation_index + 1)
            b = [1.0, 0.6, 0.3]
            a = [1.0, -0.8, 0.2]
            impulse = np.zeros(extra)
            impulse[0] = 1.0
            full = lfilter(b, a, impulse)
            actual_tail = np.abs(full[pw.truncation_index + 1:]).sum()
            assert actual_tail <= pw.tail_bound + 1e-300

    def test_matches_filter_impulse_response(self):
        rng = np.random.default_rng(1234)
        for _ in range(20):
            spec = random_stationary_spec(rng)
            pw = psi_weights(spec)
            b = np.concatenate(([1.0], spec.ma))
            a = np.concatenate(([1.0], -np.asarray(spec.ar)))
            impulse = np.zeros(pw.truncation_index + 1)
            impulse[0] = 1.0
            oracle = lfilter(b, a, impulse)
            assert np.allclose(pw.weights, oracle, rtol=1e-12, atol=1e-12)

    def test_bad_tol(self):
        with pytest.raises(InvalidParamError):
            psi_weights(GARMA22, tol=0.0)
        with pytest.raises(InvalidParamError):
            psi_weights(GARMA22, tol=-1e-3)

    def test_too_many_terms_is_typed_before_allocating(self):
        # 2**24 terms would take 128 MiB; the refusal comes first.
        tracemalloc.start()
        try:
            with pytest.raises(InvalidParamError, match="within 16777216 terms"):
                psi_weights(ArmaSpec(ar=(0.999999,)), tol=1e-300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_shared_root_warns(self):
        # phi root at 2, theta root at 2 as well (theta_1 = -1/2).
        with pytest.warns(SharedRootWarning):
            psi_weights(ArmaSpec(ar=(0.5,), ma=(-0.5,)))

    @pytest.mark.parametrize(
        "spec, index",
        [
            # r = (1 + 1e7) / 2: 2 * r**-K / (r - 1) is 8e-14 at K = 1, 1.6e-20 at K = 2.
            (ArmaSpec(ar=(1e-7,)), 2),
            # r = 5e199, so M(r) holds r**2; it is summed in logs, without overflow.
            (ArmaSpec(ar=(1e-200,), ma=(0.5, 0.5)), 2),
        ],
    )
    def test_root_far_outside_the_circle_truncates_early(self, spec, index):
        pw = psi_weights(spec)
        assert pw.truncation_index == index
        assert 0.0 < pw.tail_bound <= 1e-14

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), tol_exp=st.floats(-16.0, -3.0))
    def test_truncation_index_is_first_certified(self, seed, tol_exp):
        rng = np.random.default_rng(seed)
        spec = random_stationary_spec(rng, p_max=3, q_max=3, min_root=1.02)
        tol = 10.0**tol_exp
        pw = psi_weights(spec, tol=tol)
        k, floor = pw.truncation_index, max(spec.p, spec.q)
        assert pw.tail_bound <= tol
        moduli = validate_stationary(spec)
        if not moduli.size:
            assert (k, pw.tail_bound) == (spec.q, 0.0)
            return
        r, log_m = arma._cauchy_bound(spec, moduli)

        def bound(lag):  # M(r) * r**-lag / (r - 1), the certified tail beyond lag
            return math.exp(log_m - lag * math.log(r)) / (r - 1.0)

        assert k >= floor and bound(k) <= tol * (1 + 1e-12)
        assert k == floor or bound(k - 1) > tol * (1 - 1e-12)
        # The bound is honest: the tail of the exact impulse response is below it.
        full = lfilter(np.r_[1.0, spec.ma], np.r_[1.0, -np.asarray(spec.ar)],
                       np.eye(1, 4 * (k + 1) + 64)[0])
        assert np.abs(full[k + 1:]).sum() <= pw.tail_bound * (1 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_convolution_identity(self, seed):
        # phi(x) * psi(x) = theta(x) on every computed prefix.
        rng = np.random.default_rng(seed)
        spec = random_stationary_spec(rng)
        pw = psi_weights(spec)
        w = pw.weights
        p, q = spec.p, spec.q
        phi = np.asarray(spec.ar)
        scale = max(1.0, np.abs(w).max())
        for k in range(1, pw.truncation_index + 1):
            mk = min(k, p)
            lhs = w[k] - (phi[:mk] @ w[k - mk:k][::-1] if mk else 0.0)
            rhs = spec.ma[k - 1] if k <= q else 0.0
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestAutocovariance:
    def test_white_noise(self):
        acv = autocovariance(ArmaSpec(error_var=2.5), 3)
        assert np.array_equal(acv.values, [2.5, 0.0, 0.0, 0.0])

    def test_ma1_closed_form(self):
        theta = 0.7
        acv = autocovariance(ArmaSpec(ma=(theta,), error_var=2.0), 3)
        expected = 2.0 * np.array([1 + theta**2, theta])
        assert np.allclose(acv.values[:2], expected, rtol=0, atol=1e-14)
        assert np.array_equal(acv.values[2:], [0.0, 0.0])

    def test_ar1_closed_form(self):
        for phi in (0.5, -0.9, 0.99):
            acv = autocovariance(ArmaSpec(ar=(phi,), error_var=1.5), 20)
            lags = np.arange(21)
            expected = 1.5 * phi**lags / (1 - phi**2)
            assert np.allclose(acv.values, expected, rtol=1e-13, atol=0)

    def test_ar2_closed_form(self):
        # Reciprocal roots a and b: psi_k = (a**(k+1) - b**(k+1)) / (a - b),
        # and summing the three geometric series of psi_j * psi_(j+h) gives
        # gamma(h) in closed form.
        a, b, var = 0.9, -0.5, 1.7
        h = np.arange(31)
        expected = var / (a - b) ** 2 * (
            a ** (h + 2) / (1 - a * a)
            + b ** (h + 2) / (1 - b * b)
            - (a * b ** (h + 1) + b * a ** (h + 1)) / (1 - a * b)
        )
        acv = autocovariance(ArmaSpec(ar=(a + b, -a * b), error_var=var), 30)
        assert np.allclose(acv.values, expected, rtol=1e-13, atol=0)

    def test_arma11_closed_form(self):
        phi, theta, var = 0.7, 0.4, 0.8
        h = np.arange(1, 21)
        gamma0 = var * (1 + 2 * phi * theta + theta**2) / (1 - phi**2)
        gamma1 = var * (1 + phi * theta) * (phi + theta) / (1 - phi**2)
        expected = np.concatenate(([gamma0], gamma1 * phi ** (h - 1)))
        acv = autocovariance(ArmaSpec(ar=(phi,), ma=(theta,), error_var=var), 20)
        assert np.allclose(acv.values, expected, rtol=1e-13, atol=0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_matches_impulse_response_oracle(self, seed):
        spec = random_stationary_spec(
            np.random.default_rng(seed), p_max=4, q_max=3, min_root=1.01
        )
        got = autocovariance(spec, 300).values
        want = acvf_oracle(spec, np.arange(301))
        assert np.abs(got - want).max() <= 1e-10 * want[0]

    def test_ar1_close_to_unit_root_is_fast(self):
        phi = 0.99999
        start = time.perf_counter()
        acv = autocovariance(ArmaSpec(ar=(phi,)), 10)
        elapsed = time.perf_counter() - start
        expected = phi ** np.arange(11) / (1 - phi**2)
        assert np.allclose(acv.values, expected, rtol=1e-10, atol=0)
        assert elapsed < 1.0

    def test_ar1_within_warning_margin_of_unit_root(self):
        phi = 1.0 - 1e-7
        with pytest.warns(NearUnitRootWarning):
            acv = autocovariance(ArmaSpec(ar=(phi,)), 3)
        expected = phi ** np.arange(4) / (1 - phi**2)
        assert np.allclose(acv.values, expected, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("bits", [7, 10, 17])
    def test_double_ar_root_near_unit_circle(self, bits):
        # A double root at 1 / a, a = 1 - 2**-bits, so that the coefficients
        # 2a and -a**2 are exact.  psi_k = (k + 1) * a**k, and with x = a**2,
        # gamma(h) = a**h * ((1 + x) / (1 - x)**3 + h / (1 - x)**2).
        d = 2.0**-bits
        a, omx = 1 - d, d * (2 - d)
        h = np.arange(201)
        expected = a**h * ((1 + a * a) / omx**3 + h / omx**2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearUnitRootWarning)
            acv = autocovariance(ArmaSpec(ar=(2 * a, -a * a)), 200).values
        assert np.abs(acv - expected).max() <= 1e-12 * expected[0]

    def test_double_ar_root_near_unit_circle_matches_oracle(self):
        # The oracle sums about 900,000 products per lag here; its own
        # rounding is near 3e-12 * gamma(0), so the bound is its usual one.
        spec = ArmaSpec(ar=(2 * (1 - 2.0**-10), -((1 - 2.0**-10) ** 2)), ma=(-0.4,))
        got = autocovariance(spec, 20).values
        want = acvf_oracle(spec, np.arange(21))
        assert np.abs(got - want).max() <= 1e-10 * want[0]

    @pytest.mark.parametrize(
        "spec",
        [
            GARMA22,
            ArmaSpec(ar=(0.99,)),
            ArmaSpec(ma=(0.9, 0.5, 0.2)),
            ArmaSpec(ar=(0.5, 0.2, -0.1), ma=(0.4,), error_var=3.0),
        ],
    )
    def test_shorter_call_is_exact_prefix(self, spec):
        short = autocovariance(spec, 5).values
        long = autocovariance(spec, 500).values
        assert short.tobytes() == long[:6].tobytes()

    # For phi = 0.8 the lags between the last one above rel_tol * gamma(0) and
    # the flush lag are zeroed one by one; for phi = 1e-7 the Cauchy radius
    # r = (1 + 1e7) / 2 puts the flush lag (3) right after that last lag.
    @pytest.mark.parametrize("phi", [0.8, 1e-7])
    def test_negligible_tail_is_exact_zero(self, phi):
        acv = autocovariance(ArmaSpec(ar=(phi,)), 5000).values
        nonzero = np.flatnonzero(acv)
        last = nonzero[-1]
        # One contiguous head, then exact zeros, all far from subnormal.
        assert np.array_equal(nonzero, np.arange(last + 1)) and last < 5000
        assert acv[nonzero].min() >= 1e-100 * acv[0]
        # Every zeroed lag was truly below rel_tol * gamma(0).
        assert phi ** (last + 1) < 1e-14

    def test_lag0_dominates(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            spec = random_stationary_spec(rng)
            acv = autocovariance(spec, 40)
            assert np.all(np.abs(acv.values) <= acv.values[0] * (1 + 1e-12))

    def test_negative_max_lag(self):
        with pytest.raises(InvalidParamError):
            autocovariance(GARMA22, -1)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
    def test_bad_rel_tol(self, bad):
        with pytest.raises(InvalidParamError):
            autocovariance(GARMA22, 3, rel_tol=bad)

    @pytest.mark.parametrize(
        "ar",
        [
            # Double roots within 1e-6, 1e-9, 1e-15 and 2e-16 of the unit
            # circle make the linear system too ill-conditioned to refine.
            (2 * (1 - 1e-6), -((1 - 1e-6) ** 2)),
            (2 * (1 - 1e-9), -((1 - 1e-9) ** 2)),
            (2 * (1 - 1e-15), -((1 - 1e-15) ** 2)),
            (2 * (1 - 2e-16), -((1 - 2e-16) ** 2)),
            # A root one ulp outside the circle leaves no radius for a bound.
            (1 - 1e-16,),
        ],
    )
    def test_root_at_unit_circle_in_double_precision_fails_typed(self, ar):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NearUnitRootWarning)
            with pytest.raises(GarmaError):
                autocovariance(ArmaSpec(ar=ar, ma=(0.3,)), 4)

    def test_simulation_oracle_small(self):
        # The recursion run directly should produce sample autocovariances
        # within Monte Carlo error of the analytic ones.
        rng = np.random.default_rng(2024)
        for _ in range(3):
            spec = random_stationary_spec(rng, with_mean=True)
            series = simulate_series(spec, 200_000, 10_000, rng)
            acv = autocovariance(spec, 3)
            blocks = series.reshape(50, -1)
            for lag in range(4):
                dev = (blocks[:, : blocks.shape[1] - lag] - spec.mean) * (
                    blocks[:, lag:] - spec.mean
                )
                per_block = dev.mean(axis=1)
                est = per_block.mean()
                se = per_block.std(ddof=1) / np.sqrt(len(per_block))
                assert abs(est - acv.values[lag]) <= 4 * se


class TestAcfVector:
    def test_printed_reference_row(self):
        acf = acf_vector(6, GARMA22, corr=True)
        expected = [1.0, 0.83519207, 0.52763321, 0.25506815, 0.09852788, 0.02780867]
        assert np.allclose(acf.values, expected, rtol=0, atol=5e-8)
        assert acf.is_correlation

    def test_correlation_starts_at_one(self):
        acf = acf_vector(4, ArmaSpec(ar=(0.5,)), corr=True)
        assert acf.values[0] == 1.0
        assert np.allclose(acf.values, [1, 0.5, 0.25, 0.125], atol=1e-13)

    def test_labels(self):
        acf = acf_vector(3, ArmaSpec())
        assert acf.labels == ["Lag[0]", "Lag[1]", "Lag[2]"]

    def test_bad_n(self):
        with pytest.raises(InvalidParamError):
            acf_vector(0, GARMA22)

    def test_str_renders(self):
        text = str(acf_vector(3, GARMA22, corr=True))
        assert "Lag[0]" in text and "1.0000000" in text

    def test_str_is_pinned(self):
        # Columns two wider than the longest label or value, so values never
        # run together.
        assert str(acf_vector(6, GARMA22, corr=True)) == (
            "     Lag[0]     Lag[1]     Lag[2]     Lag[3]     Lag[4]     Lag[5]\n"
            "  1.0000000  0.8351921  0.5276332  0.2550682  0.0985279  0.0278087"
        )


class TestVarianceMatrix:
    def test_ar1_two_by_two(self):
        vm = variance_matrix(2, ArmaSpec(ar=(0.5,)))
        expected = np.array([[4 / 3, 2 / 3], [2 / 3, 4 / 3]])
        assert np.allclose(vm.entries, expected, atol=1e-13)
        assert vm.index_labels == (1, 2)

    def test_toeplitz_structure(self):
        n = 7
        vm = variance_matrix(n, GARMA22)
        acv = autocovariance(GARMA22, n - 1)
        for i in range(n):
            for j in range(n):
                assert vm.entries[i, j] == acv.values[abs(i - j)]

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 200))
    def test_covariance_matches_scipy_toeplitz_bit_for_bit(self, seed, n):
        spec = random_stationary_spec(np.random.default_rng(seed))
        model = arma._check_model(spec)
        got = arma._covariance(n, model)
        want = toeplitz(arma._acvf(model, n - 1))
        assert got.shape == want.shape == (n, n)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_correlation_unit_diagonal(self):
        vm = variance_matrix(5, GARMA22, corr=True)
        assert np.array_equal(np.diag(vm.entries), np.ones(5))

    def test_cond_must_be_a_pattern(self):
        with pytest.raises(InvalidParamError, match="cond must be a CondPattern"):
            variance_matrix(3, GARMA22, cond=[0, 1, 0])

    def test_conditional_value_free(self):
        pat_a = build_pattern(condvals=[5.0, np.nan])
        pat_b = build_pattern(condvals=[-3.0, np.nan])
        vm_a = variance_matrix(2, ArmaSpec(ar=(0.5,)), cond=pat_a)
        vm_b = variance_matrix(2, ArmaSpec(ar=(0.5,)), cond=pat_b)
        assert np.array_equal(vm_a.entries, vm_b.entries)
        assert vm_a.entries[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert vm_a.index_labels == (2,)

    def test_conditional_correlation(self):
        pat = build_pattern(condvals=[0.0, np.nan, np.nan, 0.0, np.nan])
        vm = variance_matrix(5, GARMA22, cond=pat, corr=True)
        cov = variance_matrix(5, GARMA22, cond=pat).entries
        sd = np.sqrt(np.diag(cov))
        assert vm.index_labels == (2, 3, 5)
        assert np.array_equal(np.diag(vm.entries), np.ones(3))
        assert np.allclose(vm.entries, cov / np.outer(sd, sd), rtol=0.0, atol=1e-15)

    def test_conditional_shrinks_variance(self):
        pat = build_pattern(condvals=[0.0, np.nan, np.nan, 0.0])
        vm = variance_matrix(4, GARMA22, cond=pat)
        full = variance_matrix(4, GARMA22)
        assert vm.entries.shape == (2, 2)
        assert vm.index_labels == (2, 3)
        assert np.all(np.diag(vm.entries) < np.diag(full.entries)[1:3])

    def test_all_conditioned_errors(self):
        pat = build_pattern(condvals=[1.0, 2.0])
        with pytest.raises(AllConditionedError):
            variance_matrix(2, GARMA22, cond=pat)

    def test_pattern_length_mismatch(self):
        pat = build_pattern(condvals=[1.0, np.nan])
        with pytest.raises(DimensionMismatchError):
            variance_matrix(3, GARMA22, cond=pat)

    def test_all_marginalised_errors(self):
        with pytest.raises(AllMarginalisedError):
            variance_matrix(2, GARMA22, cond=CondPattern(state=[2, 2]))

    def test_cholesky_up_to_512(self):
        for spec in (GARMA22, ArmaSpec(ar=(0.95,)), ArmaSpec(ma=(0.9, 0.5, 0.2))):
            vm = variance_matrix(512, spec)
            factor = mvn.cholesky(vm.entries)
            assert np.allclose(factor @ factor.T, vm.entries, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 24))
    def test_symmetric_positive_definite(self, seed, n):
        spec = random_stationary_spec(np.random.default_rng(seed))
        vm = variance_matrix(n, spec)
        assert np.array_equal(vm.entries, vm.entries.T)
        assert np.linalg.eigvalsh(vm.entries).min() > 0
