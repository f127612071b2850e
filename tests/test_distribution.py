"""Tests for conditioning patterns and the dgarma/pgarma/rgarma trio."""

import math
import subprocess
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
import scipy.special
from scipy.stats import multivariate_normal, norm

from garma import (
    AllConditionedWarning,
    AllMarginalisedError,
    ArmaSpec,
    CondOnMissingError,
    CONDITIONED,
    DimensionMismatchError,
    FREE,
    GarmaError,
    InvalidParamError,
    MARGINALISED,
    NonStationaryError,
    NotPositiveDefiniteError,
    SharedRootWarning,
    acf_vector,
    as_series_matrix,
    autocovariance,
    build_pattern,
    dgarma,
    mvn,
    pgarma,
    psi_weights,
    rgarma,
    spectrum_test,
    validate_stationary,
    variance_matrix,
)
from garma import _statespace, distribution
from conftest import (
    acvf_oracle,
    ar1_bridge_sample,
    ar1_markov_log_density,
    brute_conditional,
    dense_pattern_log_density,
    filter_reference,
    kalman_reference,
    random_stationary_spec,
)

WHITE = ArmaSpec()
AR1 = ArmaSpec(ar=(0.5,))
GARMA22 = ArmaSpec(ar=(0.8, -0.2), ma=(1.4, 0.3), mean=0.0, error_var=1.0)


def toeplitz_params(spec, m):
    gamma = autocovariance(spec, m - 1).values
    cov = gamma[np.abs(np.subtract.outer(np.arange(m), np.arange(m)))]
    return mvn.GaussianParams(mean=np.full(m, spec.mean), cov=cov)


class TestBuildPattern:
    def test_condvals_states(self):
        pattern = build_pattern(condvals=[1.5, np.nan, -2.0])
        assert np.array_equal(pattern.state, [CONDITIONED, FREE, CONDITIONED])
        assert np.array_equal(pattern.values[[0, 2]], [1.5, -2.0])
        assert np.isnan(pattern.values[1])
        assert pattern.is_bound
        assert len(pattern) == 3

    def test_masks(self):
        pattern = build_pattern(
            missing=[False, True, False], cond_flags=[True, False, False]
        )
        assert np.array_equal(pattern.cond_mask, [True, False, False])
        assert np.array_equal(pattern.marg_mask, [False, True, False])
        assert np.array_equal(pattern.free_mask, [False, False, True])
        assert not pattern.is_bound

    def test_values_bind_flag_style(self):
        pattern = build_pattern(
            missing=[False, False], cond_flags=[True, False], values=[3.0, 9.0]
        )
        assert pattern.is_bound
        assert pattern.values[0] == 3.0
        # The free slot's entry is irrelevant and cleared.
        assert np.isnan(pattern.values[1])

    def test_both_syntaxes_rejected(self):
        with pytest.raises(InvalidParamError):
            build_pattern(condvals=[1.0], cond_flags=[True])

    def test_neither_syntax_rejected(self):
        with pytest.raises(InvalidParamError):
            build_pattern()

    def test_infinite_condval_rejected(self):
        with pytest.raises(InvalidParamError):
            build_pattern(condvals=[np.inf, np.nan])

    def test_flag_on_missing(self):
        with pytest.raises(CondOnMissingError) as info:
            build_pattern(missing=[True, False], cond_flags=[True, False])
        assert "1" in str(info.value)  # 1-based position in the message

    def test_condval_on_missing(self):
        with pytest.raises(CondOnMissingError):
            build_pattern(missing=[True, False], condvals=[1.0, np.nan])

    def test_all_marginalised(self):
        with pytest.raises(AllMarginalisedError):
            build_pattern(missing=[True, True])

    def test_flagged_without_finite_value(self):
        with pytest.raises(CondOnMissingError):
            build_pattern(
                missing=[False, False], cond_flags=[True, False], values=[np.nan, 1.0]
            )

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_pattern(missing=[False, False], cond_flags=[True])

    @pytest.mark.parametrize("missing", [[2, 0.5, 0], [np.nan, 0, 0]])
    def test_missing_entries_follow_the_flag_rule(self, missing):
        with pytest.raises(InvalidParamError):
            build_pattern(missing=missing)

    def test_missing_as_integers(self):
        assert np.array_equal(build_pattern(missing=[1, 0, 0]).state, [MARGINALISED, FREE, FREE])

    def test_two_dimensional_condvals(self):
        with pytest.raises(InvalidParamError, match="condvals must be one-dimensional"):
            build_pattern(condvals=[[1.0, np.nan]])

    def test_values_length_mismatch(self):
        with pytest.raises(DimensionMismatchError,
                           match="values have length 1, pattern has length 2"):
            build_pattern(missing=[False, False], cond_flags=[True, False], values=[1.0])


@st.composite
def flagged_rows(draw):
    """A row of length 1-12 with random NaN positions and conditioning flags
    that are booleans, integers 0/1/2, or absent."""
    m = draw(st.integers(1, 12))
    missing = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    flags = draw(st.one_of(
        st.none(),
        st.lists(st.booleans(), min_size=m, max_size=m),
        st.lists(st.sampled_from([0, 1, 2]), min_size=m, max_size=m),
    ))
    return np.where(missing, np.nan, np.linspace(-1.0, 1.0, m)), flags


class TestOnePatternRule:
    """dgarma and pgarma accept exactly the patterns build_pattern accepts."""

    def test_all_missing_row_rejected(self):
        for function in (dgarma, pgarma):
            with pytest.raises(AllMarginalisedError):
                function(np.full(4, np.nan), AR1)

    def test_flag_on_missing_rejected_when_nothing_free(self):
        for function in (dgarma, pgarma):
            with pytest.raises(CondOnMissingError):
                function([np.nan, 1.0], AR1, cond=[True, True])

    def test_build_pattern_rejects_nonboolean_flags(self):
        with pytest.raises(InvalidParamError):
            build_pattern(missing=[False, False], cond_flags=[2, 0])
        pattern = build_pattern(missing=[False, False], cond_flags=[1, 0])
        assert np.array_equal(pattern.state, [CONDITIONED, FREE])

    def test_empty_condvals_rejected(self):
        with pytest.raises(AllMarginalisedError):
            build_pattern(condvals=[])

    @settings(max_examples=80, deadline=None)
    @given(case=flagged_rows())
    @example(case=(np.full(4, np.nan), None))
    @example(case=(np.array([np.nan, 1.0]), [True, True]))
    @example(case=(np.array([1.0, 2.0]), [2, 0]))
    @example(case=(np.array([1.0, 2.0]), [1, 1]))
    def test_distribution_functions_follow_build_pattern(self, case):
        row, flags = case
        try:
            pattern = build_pattern(missing=np.isnan(row), cond_flags=flags)
        except GarmaError as exc:
            for function in (dgarma, pgarma):
                with pytest.raises(GarmaError) as info:
                    function(row, AR1, cond=flags)
                assert type(info.value) is type(exc)
            return
        free = np.count_nonzero(pattern.free_mask)
        if free == 0:
            for function in (dgarma, pgarma):
                with pytest.warns(AllConditionedWarning):
                    assert np.array_equal(function(row, AR1, cond=flags), [1.0])
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = dgarma(row, AR1, cond=flags)
            assert np.array_equal(value, dgarma(row, AR1, cond=pattern.cond_mask))
            if free <= 2:
                assert 0.0 <= pgarma(row, AR1, cond=flags)[0] <= 1.0


class TestDgarma:
    def test_white_noise_product_of_marginals(self):
        x = np.array([0.3, -1.2, 0.7])
        spec = ArmaSpec(mean=0.5, error_var=2.0)
        expected = np.prod(norm.pdf(x, loc=0.5, scale=math.sqrt(2.0)))
        assert dgarma(x, spec)[0] == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_matches_mvn_log_density(self):
        x = np.array([1.0, 0.2, -0.4, 0.9])
        value = dgarma(x, GARMA22, log=True)[0]
        expected = mvn.log_density(x, toeplitz_params(GARMA22, 4))
        assert value == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_log_consistent_with_plain(self):
        x = np.array([0.1, 0.2, 0.3])
        plain = dgarma(x, AR1)
        logged = dgarma(x, AR1, log=True)
        assert np.allclose(np.log(plain), logged, rtol=1e-13)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(31)
        rows = rng.normal(size=(8, 5))
        batch = dgarma(rows, GARMA22, log=True)
        singles = np.array([dgarma(r, GARMA22, log=True)[0] for r in rows])
        assert np.allclose(batch, singles, rtol=1e-12, atol=0.0)

    def test_marginalisation_drops_position(self):
        x = np.array([1.0, np.nan, -0.5])
        value = dgarma(x, AR1, log=True)[0]
        sub = toeplitz_params(AR1, 3)
        kept = np.ix_([0, 2], [0, 2])
        params = mvn.GaussianParams(mean=sub.mean[[0, 2]], cov=sub.cov[kept])
        expected = mvn.log_density([1.0, -0.5], params)
        assert value == pytest.approx(expected, rel=1e-13, abs=0.0)

    def test_conditioning_is_density_ratio(self):
        # f(free | cond) = f(joint) / f(cond block)
        x = np.array([0.7, -0.3, 1.1, 0.4])
        flags = np.array([True, False, False, True])
        value = dgarma(x, GARMA22, cond=flags, log=True)[0]
        joint = mvn.log_density(x, toeplitz_params(GARMA22, 4))
        sub = toeplitz_params(GARMA22, 4)
        block = mvn.GaussianParams(
            mean=sub.mean[[0, 3]], cov=sub.cov[np.ix_([0, 3], [0, 3])]
        )
        cond_part = mvn.log_density(x[[0, 3]], block)
        assert value == pytest.approx(joint - cond_part, abs=1e-10)

    def test_rows_condition_on_their_own_values(self):
        rows = np.array([[0.0, 0.5], [3.0, 0.5]])
        flags = np.array([True, False])
        batch = dgarma(rows, AR1, cond=flags, log=True)
        singles = [dgarma(r, AR1, cond=flags, log=True)[0] for r in rows]
        assert np.allclose(batch, singles, rtol=1e-13)
        assert batch[0] != batch[1]  # different conditioning values matter

    def test_all_conditioned_warns_and_returns_one(self):
        x = np.array([1.0, 2.0])
        with pytest.warns(AllConditionedWarning):
            value = dgarma(x, AR1, cond=[True, True])
        assert np.array_equal(value, [1.0])
        with pytest.warns(AllConditionedWarning):
            logged = dgarma(x, AR1, cond=[True, True], log=True)
        assert np.array_equal(logged, [0.0])

    def test_mixed_missing_patterns_rejected(self):
        rows = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(DimensionMismatchError):
            dgarma(rows, AR1)

    def test_infinite_input_rejected(self):
        with pytest.raises(InvalidParamError):
            dgarma([1.0, np.inf], AR1)

    def test_cond_flag_on_missing_rejected(self):
        with pytest.raises(CondOnMissingError):
            dgarma([np.nan, 1.0], AR1, cond=[True, False])

    def test_cond_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dgarma([1.0, 2.0], AR1, cond=[True])

    def test_nonboolean_cond_rejected(self):
        with pytest.raises(InvalidParamError):
            dgarma([1.0, 2.0], AR1, cond=[2, 0])

    def test_integer_cond_accepted(self):
        a = dgarma([1.0, 2.0], AR1, cond=[1, 0])[0]
        b = dgarma([1.0, 2.0], AR1, cond=[True, False])[0]
        assert a == b

    def test_non_stationary_spec_rejected(self):
        with pytest.raises(NonStationaryError):
            dgarma([1.0, 2.0], ArmaSpec(ar=(1.0,)))

    def test_scalar_like_single_row(self):
        value = dgarma([0.0], WHITE)
        assert value.shape == (1,)
        assert value[0] == pytest.approx(norm.pdf(0.0), rel=1e-14, abs=0.0)


class TestPgarma:
    def test_single_position_at_mean(self):
        assert pgarma([0.0], WHITE)[0] == 0.5

    def test_single_position_shifted(self):
        spec = ArmaSpec(mean=1.0, error_var=4.0)
        assert pgarma([2.0], spec)[0] == pytest.approx(norm.cdf(0.5), abs=1e-15)

    def test_white_noise_quadrant(self):
        assert pgarma([0.0, 0.0], WHITE)[0] == pytest.approx(0.25, abs=1e-12)

    def test_ar1_orthant_third(self):
        # AR(1) lag-one correlation equals its coefficient, so at 0.5 the
        # two-position orthant probability is exactly 1/3.
        assert pgarma([0.0, 0.0], AR1)[0] == pytest.approx(1 / 3, abs=1e-10)

    def test_log_flag(self):
        plain = pgarma([0.0, 0.0], AR1)[0]
        logged = pgarma([0.0, 0.0], AR1, log=True)[0]
        assert logged == pytest.approx(math.log(plain), rel=1e-13, abs=0.0)

    def test_log_flag_deep_lower_tail(self):
        # The white-noise quadrant is the product of two normal CDFs; its log
        # stays finite where the probability is far below 1e-14.
        logged = pgarma([-10.0, -10.0], WHITE, log=True)[0]
        assert logged == pytest.approx(2.0 * norm.logcdf(-10.0), rel=1e-13, abs=0.0)

    def test_log_of_underflowed_probability_is_silent(self):
        # The probability underflows to 0, so its log is -inf, with no
        # divide-by-zero RuntimeWarning (an error under pyproject.toml).
        assert pgarma([-40.0, -40.0], AR1, log=True).tolist() == [-np.inf]

    def test_three_free_default_seed_reproducible(self):
        x = np.array([0.2, -0.1, 0.4])
        a = pgarma(x, AR1)
        b = pgarma(x, AR1)
        assert np.array_equal(a, b)

    def test_matches_direct_mvn_cdf(self):
        rows = np.array([[0.2, -0.1, 0.4], [1.0, 0.3, -0.5], [0.2, -0.1, 0.4], [-0.7, 0.0, 0.9]])
        values = pgarma(rows, AR1, seed=41)
        params = toeplitz_params(AR1, 3)
        # A fresh SeedSequence per call: drawing the scrambles spawns from it.
        direct = [
            mvn.mvn_cdf(row, params, seed=np.random.SeedSequence(entropy=41, spawn_key=(0,))).value
            for row in rows
        ]
        assert np.array_equal(values, direct)

    def test_rows_share_one_set_of_scrambles(self, monkeypatch):
        original = mvn._sobol_scramble
        built = []

        def counting_scramble(gen, d):
            built.append(d)
            return original(gen, d)

        monkeypatch.setattr(mvn, "_sobol_scramble", counting_scramble)
        mvn._scrambles.memo.clear()
        rows = np.random.default_rng(3).normal(size=(5, 4))
        tol = 1e-4
        values = pgarma(rows, AR1, tol=tol)
        # Ten scrambles of one round serve all five rows.
        assert built == [3] * 10
        monkeypatch.undo()
        params = toeplitz_params(AR1, 4)
        results = [
            mvn.mvn_cdf(row, params, tol=tol,
                        seed=np.random.SeedSequence(entropy=mvn.DEFAULT_CDF_SEED, spawn_key=(0,)))
            for row in rows
        ]
        assert [r.method for r in results] == ["qmc"] * 5
        assert all(r.error_estimate <= tol for r in results)
        assert np.array_equal(values, [r.value for r in results])

    def test_a_warm_call_draws_no_scramble(self, monkeypatch):
        rows = np.random.default_rng(3).normal(size=(5, 4))
        first = pgarma(rows, AR1, tol=1e-4)

        def refuse(gen, d):
            raise AssertionError("the scrambles of this seed were drawn again")

        monkeypatch.setattr(mvn, "_sobol_scramble", refuse)
        assert np.array_equal(pgarma(rows, AR1, tol=1e-4), first)

    def test_identical_rows_get_identical_values(self):
        x = np.array([0.2, -0.1, 0.4, 0.3])
        values = pgarma(np.vstack([x + 0.5, x, x]), AR1, seed=8)
        assert values[1] == values[2]

    def test_conditioning_changes_probability(self):
        x = np.array([3.0, 0.0])
        flags = np.array([True, False])
        cond = pgarma(x, AR1, cond=flags)[0]
        free = pgarma(np.array([0.0]), AR1)[0]
        # Conditioning on a high neighbour shifts the mean up, so the
        # probability of staying below zero drops.
        assert cond < free

    def test_conditional_value_against_moments(self):
        x = np.array([2.0, 0.5])
        flags = np.array([True, False])
        value = pgarma(x, AR1, cond=flags)[0]
        pattern = build_pattern(condvals=[2.0, np.nan])
        cm = mvn.conditional_moments(toeplitz_params(AR1, 2), pattern)
        expected = norm.cdf(0.5, loc=cm.cond_mean[0], scale=math.sqrt(cm.cond_cov[0, 0]))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_simulation_cross_check(self):
        draws = rgarma(200_000, 2, AR1, seed=202)
        a, b = 0.3, -0.4
        hits = np.mean((draws[:, 0] <= a) & (draws[:, 1] <= b))
        p = pgarma(np.array([a, b]), AR1)[0]
        se = math.sqrt(p * (1 - p) / draws.shape[0])
        assert abs(hits - p) <= 4 * se

    @pytest.mark.parametrize("spec", [AR1, ArmaSpec(ar=(0.99,)), ArmaSpec(ar=(-0.96,)), WHITE])
    def test_two_free_rows_do_not_interact(self, spec):
        # One call on 64 rows gives each row exactly its one-row value.
        rows = np.random.default_rng(64).normal(scale=8.0, size=(64, 2))
        values = pgarma(rows, spec)
        assert np.array_equal(values, [pgarma(row, spec)[0] for row in rows])

    def test_huge_finite_limit(self):
        # Far past where the normal CDF is 1, a limit stops constraining.
        spec = ArmaSpec(ar=(0.99,))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = pgarma([1e200, 0.5], spec)[0]
        assert value == norm.cdf(0.5 / math.sqrt(variance_matrix(1, spec).entries[0, 0]))

    def test_batch_rows(self):
        rows = np.array([[0.0, 0.0], [1.0, 1.0]])
        values = pgarma(rows, AR1)
        assert values.shape == (2,)
        assert values[1] > values[0]

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("cond", [[True, True], [True, False]], ids=["all_cond", "one_free"])
    def test_bad_tol_rejected_before_anything_else(self, tol, cond):
        with pytest.raises(InvalidParamError, match="tol"):
            pgarma([0.1, 0.2], AR1, cond=cond, tol=tol)

    def test_all_conditioned_returns_one(self):
        with pytest.warns(AllConditionedWarning):
            value = pgarma(np.array([1.0, 2.0]), AR1, cond=[True, True])
        assert np.array_equal(value, [1.0])

    def test_marginalisation(self):
        x = np.array([0.0, np.nan, 0.0])
        # Dropping the middle position of an AR(1) leaves lag-2 correlation.
        value = pgarma(x, AR1)[0]
        gamma = autocovariance(AR1, 2).values
        rho2 = gamma[2] / gamma[0]
        direct = mvn.mvn_cdf(
            [0.0, 0.0],
            mvn.GaussianParams(
                mean=[0.0, 0.0],
                cov=gamma[0] * np.array([[1.0, rho2], [rho2, 1.0]]),
            ),
        )
        assert value == pytest.approx(direct.value, abs=1e-12)


class TestRgarma:
    def test_shape_and_determinism(self):
        a = rgarma(5, 4, AR1, seed=99)
        b = rgarma(5, 4, AR1, seed=99)
        assert a.shape == (5, 4)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = rgarma(3, 4, AR1, seed=1)
        b = rgarma(3, 4, AR1, seed=2)
        assert not np.array_equal(a, b)

    def test_conditioned_positions_pinned_bitwise(self):
        condvals = np.array([np.nan, 0.1 + 0.2, np.nan, -4.0])
        draws = rgarma(50, 4, AR1, condvals=condvals, seed=5)
        assert np.array_equal(draws[:, 1], np.full(50, 0.1 + 0.2))
        assert np.array_equal(draws[:, 3], np.full(50, -4.0))
        assert np.unique(draws[:, 0]).size == 50  # free stays random

    def test_all_conditioned_copies_without_randomness(self):
        condvals = np.array([1.0, 2.0, 3.0])
        a = rgarma(4, 3, AR1, condvals=condvals, seed=None)
        b = rgarma(4, 3, AR1, condvals=condvals, seed=123)
        expected = np.tile(condvals, (4, 1))
        assert np.array_equal(a, expected)
        assert np.array_equal(b, expected)

    def test_unconditional_moments(self):
        spec = ArmaSpec(ar=(0.6,), ma=(0.4,), mean=2.0, error_var=1.5)
        draws = rgarma(200_000, 3, spec, seed=808)
        gamma = autocovariance(spec, 2).values
        n = draws.shape[0]
        se_mean = math.sqrt(gamma[0] / n)
        assert np.all(np.abs(draws.mean(axis=0) - 2.0) <= 4 * se_mean)
        sample_cov = np.cov(draws.T)
        expected = gamma[np.abs(np.subtract.outer(np.arange(3), np.arange(3)))]
        se_cov = np.sqrt(
            (np.outer(np.diag(expected), np.diag(expected)) + expected**2) / n
        )
        assert np.all(np.abs(sample_cov - expected) <= 4 * se_cov)

    def test_conditional_moments_match(self):
        condvals = np.array([1.5, np.nan, np.nan])
        draws = rgarma(200_000, 3, AR1, condvals=condvals, seed=313)
        pattern = build_pattern(condvals=condvals)
        cm = mvn.conditional_moments(toeplitz_params(AR1, 3), pattern)
        free = draws[:, 1:]
        n = free.shape[0]
        se_mean = np.sqrt(np.diag(cm.cond_cov) / n)
        assert np.all(np.abs(free.mean(axis=0) - cm.cond_mean) <= 4 * se_mean)
        sample_cov = np.cov(free.T)
        se_cov = np.sqrt(
            (np.outer(np.diag(cm.cond_cov), np.diag(cm.cond_cov)) + cm.cond_cov**2)
            / n
        )
        assert np.all(np.abs(sample_cov - cm.cond_cov) <= 4 * se_cov)

    def test_density_round_trip(self):
        # Every draw must have positive density under the same model.
        draws = rgarma(20, 6, GARMA22, seed=77)
        dens = dgarma(draws, GARMA22)
        assert np.all(dens > 0.0)
        assert np.all(np.isfinite(dens))

    def test_condvals_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rgarma(2, 3, AR1, condvals=[1.0, np.nan])

    def test_bad_counts(self):
        with pytest.raises(InvalidParamError):
            rgarma(0, 3, AR1)
        with pytest.raises(InvalidParamError):
            rgarma(2, 0, AR1)
        with pytest.raises(InvalidParamError):
            rgarma(2.5, 3, AR1)

    def test_non_stationary_rejected(self):
        with pytest.raises(NonStationaryError):
            rgarma(2, 3, ArmaSpec(ar=(1.2,)))


class TestMixedPattern:
    """Marginalised (NaN) and conditioned positions in one query, against
    dense oracles on the explicit Toeplitz covariance."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(2, 12))
    def test_against_dense_oracles(self, seed, m):
        rng = np.random.default_rng(seed)
        spec = random_stationary_spec(rng)
        state = rng.integers(FREE, MARGINALISED + 1, size=m)
        state[rng.integers(m)] = FREE
        missing = state == MARGINALISED
        flags = state == CONDITIONED
        free_idx = np.nonzero(state == FREE)[0]
        cond_idx = np.nonzero(flags)[0]
        kept = np.nonzero(~missing)[0]
        params = toeplitz_params(spec, m)
        x = spec.mean + rng.normal(size=(3, m))
        x[:, missing] = np.nan

        # log p(free | cond) = log p(kept) - log p(cond)
        got = dgarma(x, spec, cond=flags, log=True)
        want = multivariate_normal(
            params.mean[kept], params.cov[np.ix_(kept, kept)]
        ).logpdf(x[:, kept])
        if cond_idx.size:
            want = want - multivariate_normal(
                params.mean[cond_idx], params.cov[np.ix_(cond_idx, cond_idx)]
            ).logpdf(x[:, cond_idx])
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

        condvals = np.where(flags, x[0], np.nan)
        mixed = build_pattern(condvals=condvals, missing=missing)
        vm = variance_matrix(m, spec, cond=mixed)
        omean, ocov = brute_conditional(
            params.mean, params.cov, free_idx, cond_idx, x[0, cond_idx]
        )
        assert vm.index_labels == tuple(free_idx + 1)
        scale = np.abs(ocov).max()
        assert np.max(np.abs(vm.entries - ocov)) <= 1e-10 * scale
        cm = mvn.conditional_moments(params, mixed)
        assert np.max(np.abs(cm.cond_mean - omean)) <= 1e-10 * max(1.0, np.abs(omean).max())

        # rgarma's sequential draw is the index-order Cholesky factor of the
        # conditional covariance, so it matches the dense sampler on the same
        # seed up to rounding.
        pattern = build_pattern(condvals=condvals)
        cm = mvn.conditional_moments(params, pattern)
        draws = rgarma(4, m, spec, condvals=condvals, seed=seed)
        expected = mvn.sample(mvn.GaussianParams(cm.cond_mean, cm.cond_cov), 4, seed=seed)
        assert np.abs(draws[:, ~flags] - expected).max() <= 1e-12 * np.abs(expected).max()


def _invert_ma(spec):
    """The same model with every MA root replaced by its reciprocal, which
    makes an invertible MA part non-invertible (and vice versa)."""
    ma = np.asarray(spec.ma)
    if not ma.size or ma[-1] == 0.0:
        return spec
    flipped = np.concatenate((ma[-2::-1], [1.0])) / ma[-1]
    return ArmaSpec(ar=spec.ar, ma=flipped, mean=spec.mean, error_var=spec.error_var)


def _ar1_series(phi, m, rng):
    x = np.empty(m)
    x[0] = rng.normal() / math.sqrt((1.0 - phi) * (1.0 + phi))
    e = rng.normal(size=m)
    for t in range(1, m):
        x[t] = phi * x[t - 1] + e[t]
    return x


class TestKalmanEngine:
    """dgarma's Kalman-filter passes against dense and closed-form oracles."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 80),
        shape=st.sampled_from(["mixed", "leading", "trailing", "long_gap", "single"]),
        flip_ma=st.booleans(),
    )
    def test_against_dense_oracle(self, seed, m, shape, flip_ma):
        rng = np.random.default_rng(seed)
        spec = random_stationary_spec(rng, p_max=3, q_max=3, min_root=1.01)
        if flip_ma:
            spec = _invert_ma(spec)
        state = rng.integers(FREE, MARGINALISED + 1, size=m)
        cut = int(rng.integers(0, m))
        if shape == "leading":
            state[:cut] = MARGINALISED
        elif shape == "trailing":
            state[m - cut:] = MARGINALISED
        elif shape == "long_gap":
            start = int(rng.integers(0, m))
            state[start:start + max(cut, m // 2)] = MARGINALISED
        elif shape == "single":
            state[:] = MARGINALISED
        state[rng.integers(m)] = FREE
        missing = state == MARGINALISED
        flags = state == CONDITIONED
        x = spec.mean + 3.0 * rng.normal(size=(3, m))
        x[:, missing] = np.nan

        got = dgarma(x, spec, cond=flags, log=True)
        want = dense_pattern_log_density(spec, x, missing, flags)
        assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        m=st.integers(1, 120),
        shape=st.sampled_from(["mixed", "leading", "trailing", "long_gap"]),
        flip_ma=st.booleans(),
    )
    def test_filter_against_step_by_step_reference(self, seed, m, shape, flip_ma):
        rng = np.random.default_rng(seed)
        spec = random_stationary_spec(rng, p_max=3, q_max=3, min_root=1.01)
        if flip_ma:
            spec = _invert_ma(spec)
        observed = rng.random(m) < 0.7
        cut = int(rng.integers(0, m))
        if shape == "leading":
            observed[:cut] = False
        elif shape == "trailing":
            observed[m - cut:] = False
        elif shape == "long_gap":
            start = int(rng.integers(0, m))
            observed[start:start + max(cut, m // 2)] = False
        observed[rng.integers(m)] = True

        model = _statespace._state_space(spec, validate_stationary(spec))
        pred, gains, index = _statespace._filter(observed, model)
        want_f, want_k = kalman_reference(spec, observed)
        got_f = pred[index[observed], 0, 0]
        assert np.all(np.abs(got_f - want_f[observed]) <= 1e-10 * want_f[observed])
        assert np.all(np.abs(gains - want_k) <= 1e-10 * np.maximum(1.0, np.abs(want_k)))

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        kind=st.sampled_from(["fast", "slow", "inverted"]),
        shape=st.sampled_from(["periodic", "equal_gaps", "short_and_long", "random"]),
        m=st.integers(1, 400),
        lead=st.integers(0, 6),
        trail=st.integers(0, 6),
    )
    @example(seed=1, kind="slow", shape="periodic", m=400, lead=3, trail=2)
    @example(seed=2, kind="fast", shape="short_and_long", m=400, lead=0, trail=0)
    def test_bit_identical_to_filter_reference(self, seed, kind, shape, m, lead, trail):
        # Patterns whose transients repeat: isolated gaps at a fixed period,
        # gaps of one length, and runs both shorter and longer than the
        # transient, behind and ahead of optional leading and trailing gaps.
        rng = np.random.default_rng(seed)
        if kind == "slow":  # an MA root near -1 settles over hundreds of steps
            ar = rng.uniform(-0.45, 0.45, size=rng.integers(0, 3))
            spec = ArmaSpec(ar=ar, ma=(-rng.uniform(0.95, 0.995), rng.uniform(-0.05, 0.05)))
        else:
            spec = random_stationary_spec(rng, p_max=3, q_max=3, min_root=1.25)
            if kind == "inverted":
                spec = _invert_ma(spec)
        observed = np.ones(m, dtype=bool)
        if shape == "periodic":
            observed[int(rng.integers(0, 8))::int(rng.integers(2, 30))] = False
        elif shape == "equal_gaps":
            gap = int(rng.integers(1, 8))
            period = gap + int(rng.integers(1, 40))
            for s in range(int(rng.integers(0, period)), m, period):
                observed[s:s + gap] = False
        elif shape == "short_and_long":
            t = 0
            while t < m:
                t += int(rng.integers(1, 5) if rng.random() < 0.5 else rng.integers(30, 150))
                observed[t:t + int(rng.integers(1, 4))] = False
                t += 3
        else:
            observed = rng.random(m) < 0.8
        observed[:lead] = False
        observed[m - min(trail, m):] = False
        observed[rng.integers(m)] = True

        model = _statespace._state_space(spec, validate_stationary(spec))
        pred, gains, index = _statespace._filter(observed, model)
        want_pred, want_gains, want_index = filter_reference(observed, model)
        assert np.array_equal(pred[index[observed]], want_pred[want_index[observed]])
        assert np.array_equal(gains, want_gains)

    @pytest.mark.parametrize("ma, bound_mib", [((0.4, 0.2), 16), ((-0.98, 0.1), 22)])
    def test_peak_memory_with_isolated_gaps(self, ma, bound_mib):
        # One isolated missing position in 20.  The fast-settling model turns
        # steady between gaps, so its transients repeat and are replayed; the
        # slowly settling one (an MA root at 1.16) never does, so every run
        # adds its own transient to the stack.
        m = 100_000
        rng = np.random.default_rng(1)
        x = rng.normal(size=m)
        x[2 * rng.choice(m // 2, size=m // 20, replace=False)] = np.nan
        spec = ArmaSpec(ar=(0.5, -0.3), ma=ma)
        tracemalloc.start()
        try:
            got = dgarma(x, spec, log=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(got).all()
        assert peak < bound_mib * 2**20

    def test_near_unit_ar1_matches_markov_likelihood(self):
        phi = 0.99999
        rng = np.random.default_rng(7)
        x = _ar1_series(phi, 3000, rng)
        x[[0, 1, 700, 701, 702, 2999]] = np.nan
        x[1000:1400] = np.nan
        flags = np.zeros(x.size, dtype=bool)
        flags[[5, 999, 1400, 2500]] = True
        spec = ArmaSpec(ar=(phi,), mean=0.0)
        got = dgarma(x, spec, cond=flags, log=True)[0]
        observed = ~np.isnan(x)
        want = ar1_markov_log_density(phi, 1.0, 0.0, x, observed) - ar1_markov_log_density(
            phi, 1.0, 0.0, x, flags
        )
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_length_100000_in_bounded_memory(self):
        phi, mean, error_var = 0.9, 1.5, 2.0
        m = 100_000
        rng = np.random.default_rng(11)
        x = mean + math.sqrt(error_var) * _ar1_series(phi, m, rng)
        x[[3, 4, 50_000, 77_777, m - 1]] = np.nan
        flags = np.zeros(m, dtype=bool)
        flags[[0, 10, 60_000]] = True
        spec = ArmaSpec(ar=(phi,), mean=mean, error_var=error_var)
        tracemalloc.start()
        try:
            got = dgarma(x, spec, cond=flags, log=True)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = ar1_markov_log_density(phi, error_var, mean, x, ~np.isnan(x))
        want -= ar1_markov_log_density(phi, error_var, mean, x, flags)
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want))
        assert peak < 64 * 2**20

    def test_non_positive_prediction_variance_raises(self):
        spec = ArmaSpec(ar=(0.5,), ma=(0.3,))
        transition, q_cov, p0 = _statespace._state_space(spec, np.array([2.0]))
        model = (transition, q_cov, -p0)
        with pytest.raises(NotPositiveDefiniteError):
            _statespace._filter_log_density(np.zeros((1, 4)), np.ones(4, dtype=bool), model)

    def test_import_and_non_cdf_command_do_not_load_scipy_stats(self, tmp_path):
        # scipy loads on first use only: none for the import and the commands
        # that never call it, the scipy package alone for the filter, the
        # Schur step and a two-dimensional CDF, whose kernels come from
        # scipy's extension files, and scipy.special for the quasi-Monte
        # Carlo CDF's ndtri; no scipy.stats module, not even for that.
        series = tmp_path / "series.csv"
        series.write_text("0.3,-1.2,0.8,0.1,-0.4,1.5,-0.2,0.6\n")
        upper = tmp_path / "upper.csv"
        upper.write_text("0.2,-0.1,0.4,0.3\n")
        code = textwrap.dedent("""
            import sys, garma, garma.cli
            def scipy_loaded():
                return sorted({m for m in sys.modules if m.split('.')[0] == 'scipy'}
                              & {'scipy', 'scipy.linalg', 'scipy.special', 'scipy.stats'})
            seen = [scipy_loaded()]
            for argv in (['acf', '--n', '8', '--ar', '0.5'],
                         ['intensity', '--input', sys.argv[1]],
                         ['spectrum-test', '--input', sys.argv[1], '--sims', '50',
                          '--seed', '1', '--no-progress']):
                assert garma.cli.main(argv) == 0
                seen.append(scipy_loaded())
            spec = garma.ArmaSpec(ar=(0.5,), ma=(0.3,))
            garma.dgarma([0.2, -0.1, 0.4, 0.0], spec, cond=[True, False, False, False])
            garma.rgarma(2, 6, spec, condvals=[0.1, None, None, None, -0.3, None], seed=1)
            pattern = garma.build_pattern(condvals=[1.0, None, None, 0.5])
            garma.variance_matrix(4, spec, cond=pattern)
            garma.pgarma([0.2, -0.1, 0.4], spec, cond=[True, False, False])
            garma.pgarma([0.2, float('nan'), 0.4], spec, cond=[True, False, False])
            params = garma.mvn.GaussianParams([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
            garma.mvn.mvn_cdf([0.2, -0.1], params)
            garma.mvn.log_density([0.2, -0.1], params)
            seen.append(scipy_loaded())
            p = garma.pgarma([0.2, -0.1, 0.4], garma.ArmaSpec(ar=(0.5,)))[0]
            seen.append(scipy_loaded())
            argv = ['cdf', '--input', sys.argv[2], '--ar', '0.5', '--seed', '1']
            assert garma.cli.main(argv) == 0
            stats = [m for m in sys.modules if m == 'scipy.stats' or m.startswith('scipy.stats.')]
            print(seen, 0.0 < p < 1.0, stats)
        """)
        result = subprocess.run([sys.executable, "-c", code, str(series), str(upper)],
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        if hasattr(getattr(scipy.special, "_special_ufuncs", None), "ndtr"):
            kernel_sets = [["scipy"], ["scipy", "scipy.special"]]
        else:  # a scipy without that file: the kernels come from the public imports
            kernel_sets = [["scipy", "scipy.linalg", "scipy.special"]] * 2
        assert result.stdout.splitlines()[-1] == f"{[[], [], [], [], *kernel_sets]} True []"


class TestSequentialSampler:
    """rgarma's forward filter plus backward information, against the AR(1)
    Markov bridge and the dense sampler of the conditional moments."""

    @pytest.mark.parametrize("share", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("m", [50, 2000, 5000])
    @pytest.mark.parametrize("phi", [0.5, 0.99, 0.999, 0.9999])
    def test_against_ar1_bridge(self, phi, m, share):
        mean, error_var = 1.5, 2.0
        rng = np.random.default_rng(m + int(phi * 10_000))
        path = mean + math.sqrt(error_var) * _ar1_series(phi, m, rng)
        condvals = np.full(m, np.nan)
        pinned = rng.choice(m, size=int(round(share * m)), replace=False)
        condvals[pinned] = path[pinned]
        spec = ArmaSpec(ar=(phi,), mean=mean, error_var=error_var)
        draws = rgarma(3, m, spec, condvals=condvals, seed=5)
        want = ar1_bridge_sample(phi, error_var, mean, condvals, 3, 5)
        assert np.array_equal(draws[:, pinned], want[:, pinned])
        assert np.abs(draws - want).max() <= 1e-12 * np.abs(want).max()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), m=st.integers(1, 200), share=st.sampled_from([0.0, 0.05, 0.3, 0.8]))
    @example(seed=40, m=41, share=0.8)  # non-invertible MA, 40 of 41 pinned
    def test_against_dense_sampler(self, seed, m, share):
        rng = np.random.default_rng(seed)
        spec = random_stationary_spec(rng)
        flags = rng.random(m) < share
        flags[rng.integers(m)] = False
        condvals = np.where(flags, spec.mean + 2.0 * rng.normal(size=m), np.nan)
        self._check_against_dense(spec, condvals, seed)

    @pytest.mark.parametrize("pinned", [(), (0,), (-1,), (0, -1)])
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize(
        "spec",
        [
            ArmaSpec(ar=(0.3, 0.2, 0.1, 0.1)),
            ArmaSpec(ma=(0.5, 0.3, 0.2), mean=1.0),
            ArmaSpec(ar=(0.5, -0.2, 0.1), ma=(0.4, 0.3, -0.2, 0.1), error_var=2.0),
        ],
    )
    def test_series_no_longer_than_the_state(self, spec, m, pinned):
        # State sizes r = 4, 4, 5: for m <= r the band ends before lag r.
        condvals = np.full(m, np.nan)
        idx = sorted({i % m for i in pinned})[:m - 1]  # keep one position free
        condvals[idx] = [0.7, -1.1][:len(idx)]
        self._check_against_dense(spec, condvals, m)

    @staticmethod
    def _check_against_dense(spec, condvals, seed):
        m = condvals.size
        flags = ~np.isnan(condvals)
        free_idx, cond_idx = np.flatnonzero(~flags), np.flatnonzero(flags)
        gamma = acvf_oracle(spec, np.arange(m))
        cov = gamma[np.abs(np.subtract.outer(np.arange(m), np.arange(m)))]
        if cond_idx.size:
            mean, cond_cov = brute_conditional(
                np.full(m, spec.mean), cov, free_idx, cond_idx, condvals[cond_idx], refine=True
            )
        else:
            mean, cond_cov = np.full(m, spec.mean), cov
        params = mvn.GaussianParams(mean, 0.5 * (cond_cov + cond_cov.T))
        expected = mvn.sample(params, 3, seed=seed)
        draws = rgarma(3, m, spec, condvals=condvals, seed=seed)
        assert np.array_equal(draws[:, flags], np.broadcast_to(condvals[flags], (3, cond_idx.size)))
        assert np.abs(draws[:, ~flags] - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize(
        "ma", [(2.0,), (0.884, -0.881), (-4.0, 4.0), (2.5, 1.0), (0.5, 0.06), (-1.0,)]
    )
    def test_invertible_ma_keeps_the_law(self, ma):
        from garma.arma import _invertible_ma, _poly_roots

        spec = ArmaSpec(ar=(0.5,), ma=ma, mean=0.3, error_var=1.3)
        flipped = _invertible_ma(spec)
        assert np.all(np.abs(_poly_roots(flipped.ma)) >= 1.0)
        assert (flipped.ar, flipped.mean) == (spec.ar, spec.mean)
        want = acvf_oracle(spec, np.arange(6))
        got = acvf_oracle(flipped, np.arange(6))
        assert np.abs(got - want).max() <= 1e-14 * want[0]

    def test_length_100000_in_bounded_memory(self):
        m = 100_000
        spec = ArmaSpec(ar=(0.8, -0.2), ma=(0.6, 0.3), mean=0.5, error_var=1.5)
        condvals = np.full(m, np.nan)
        pinned = [0, 17, 50_000, m - 3]
        condvals[pinned] = [1.0, -2.0, 0.5, 3.0]
        tracemalloc.start()
        try:
            draws = rgarma(2, m, spec, condvals=condvals, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(draws))
        assert np.array_equal(draws[:, pinned], np.tile(condvals[pinned], (2, 1)))
        assert peak < 64 * 2**20

    def test_no_dense_covariance(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("rgarma built a dense covariance")

        for name in ("_covariance", "_free_moments"):
            monkeypatch.setattr(distribution, name, refuse)
        monkeypatch.setattr(mvn, "_factor", refuse)
        monkeypatch.setattr(mvn, "sample", refuse)
        draws = rgarma(3, 40, GARMA22, condvals=[1.0] + [np.nan] * 38 + [-1.0], seed=4)
        assert np.all(np.isfinite(draws))

    def test_powers_flush_to_zero_never_subnormal(self):
        moduli = validate_stationary(GARMA22)
        transition, q_cov, _ = _statespace._state_space(GARMA22, moduli)
        powers, covs = _statespace._power_table(transition, q_cov, 10_000)
        assert 1 < len(powers) < 10_000
        assert not np.any((powers != 0.0) & (np.abs(powers) < np.finfo(float).tiny))
        assert np.all(np.isfinite(covs))
        k = len(powers) - 1
        assert np.allclose(powers[k], np.linalg.matrix_power(transition, k), rtol=0.0, atol=1e-17)

    def test_non_positive_conditional_variance_raises(self, monkeypatch):
        # With a consistent model the filter's own check comes first, so
        # negative information stands in for a rounding failure here.
        def negative(info, lin, power, cov):
            return -10.0 * np.ones_like(info), np.zeros_like(lin)

        monkeypatch.setattr(_statespace, "_cross", negative)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefiniteError, match="at position 1 "):
                rgarma(2, 4, AR1, condvals=[np.nan, np.nan, np.nan, 0.5], seed=1)


class TestRootsFoundOnce:
    """Each public entry point solves for the AR roots once."""

    SHARED = ArmaSpec(ar=(0.5,), ma=(-0.5,))

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: autocovariance(s, 5),
            lambda s: variance_matrix(4, s),
            lambda s: dgarma([0.1, 0.2, np.nan], s, cond=[True, False, False]),
            lambda s: pgarma([0.1, 0.2], s),
            lambda s: rgarma(2, 3, s, condvals=[0.5, np.nan, np.nan], seed=1),
        ],
    )
    def test_ar_roots_solved_once(self, monkeypatch, call):
        from garma import arma

        spec = ArmaSpec(ar=(0.8, -0.2), ma=(1.4, 0.3))
        solved = []
        original = arma._poly_roots

        def counting(coeffs):
            solved.append(tuple(np.asarray(coeffs, dtype=float)))
            return original(coeffs)

        monkeypatch.setattr(arma, "_poly_roots", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(spec)
        assert solved.count((-0.8, 0.2)) == 1
        with pytest.warns(SharedRootWarning):
            call(self.SHARED)

    def test_rgarma_solves_the_ma_roots_once(self, monkeypatch):
        # The model check solves them for its shared-root test; the sampler's
        # invertible moving average reuses them.
        from garma import arma

        spec = ArmaSpec(ar=(0.5, -0.3), ma=(0.4, 0.2))
        before = rgarma(2, 10, spec, seed=1)
        solved = []
        original = arma._poly_roots

        def counting(coeffs):
            solved.append(tuple(np.asarray(coeffs, dtype=float)))
            return original(coeffs)

        monkeypatch.setattr(arma, "_poly_roots", counting)
        assert np.array_equal(rgarma(2, 10, spec, seed=1), before)
        assert solved.count((0.4, 0.2)) == 1


class TestNoRows:
    """A matrix with no series rows is a typed shape error, not an IndexError."""

    @pytest.mark.parametrize(
        "call",
        [
            as_series_matrix,
            lambda x: dgarma(x, AR1),
            lambda x: pgarma(x, AR1),
        ],
    )
    def test_zero_rows_rejected(self, call):
        with pytest.raises(DimensionMismatchError, match="at least one row"):
            call(np.zeros((0, 3)))


# Each seeded entry point, returning an array that its seed determines.
SEEDED = {
    "rgarma": lambda seed: rgarma(2, 5, AR1, seed=seed),
    "pgarma": lambda seed: pgarma([[0.1, 0.2, -0.3]], AR1, seed=seed),
    "mvn_cdf": lambda seed: np.array(
        mvn.mvn_cdf([0.1, 0.2, -0.3], toeplitz_params(AR1, 3), seed=seed).value
    ),
    "sample": lambda seed: mvn.sample(toeplitz_params(AR1, 3), 2, seed=seed),
    "spectrum_test": lambda seed: spectrum_test(
        np.arange(8.0) % 3, sims=20, seed=seed, progress=False
    ).null_sample,
}


class TestSeedRule:
    """One typed rule for seeds across every seeded entry point."""

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, 1.7, -2.0, float("nan"), "7", [1, -2]])
    @pytest.mark.parametrize("entry", sorted(SEEDED))
    def test_bad_seed_is_typed(self, entry, seed):
        with pytest.raises(InvalidParamError, match="seed must be a non-negative integer"):
            SEEDED[entry](seed)

    @pytest.mark.parametrize("entry", sorted(SEEDED))
    def test_integer_seeds_keep_their_streams(self, entry):
        call = SEEDED[entry]
        want = call(7)
        for seed in (np.int64(7), np.uint8(7), 7.0):
            assert np.array_equal(call(seed), want)
        assert np.all(np.isfinite(call(None)))
        assert np.all(np.isfinite(call(0)))

    @pytest.mark.parametrize("entry", ["rgarma", "mvn_cdf", "sample"])
    def test_numpy_seed_objects_still_accepted(self, entry):
        call = SEEDED[entry]
        want = call(7)
        assert np.array_equal(call(np.random.SeedSequence(7)), want)
        assert np.array_equal(call(np.random.default_rng(7)), want)
        assert np.array_equal(call([7, 8]), call(np.random.SeedSequence([7, 8])))

    def test_pgarma_seed_objects(self):
        call = SEEDED["pgarma"]
        want = call(7)
        ss = np.random.SeedSequence(7)
        assert np.array_equal(call(ss), want)
        assert ss.n_children_spawned == 0
        assert np.array_equal(call([7, 8]), call(np.random.SeedSequence([7, 8])))
        rng = np.random.default_rng(7)
        first = call(rng)
        assert np.abs(first - want).max() < 1e-4
        assert np.array_equal(call(np.random.default_rng(7)), first)
        assert not np.array_equal(call(rng), first)  # a generator is consumed

    @pytest.mark.parametrize("make", [np.random.SeedSequence, np.random.default_rng,
                                      lambda s: [s, 8]], ids=["SeedSequence", "Generator", "list"])
    def test_spectrum_test_records_an_int_seed(self, make):
        x = np.arange(8.0) % 3
        result = spectrum_test(x, sims=20, seed=make(7), progress=False)
        assert type(result.seed) is int
        assert result.seed == int(np.random.default_rng(make(7)).integers(1 << 63))
        again = spectrum_test(x, sims=20, seed=result.seed, progress=False)
        assert np.array_equal(again.null_sample, result.null_sample)


# Each entry point that takes a tolerance, called with ``tol`` as that
# tolerance; two free positions, so no call needs to reach it.
TOLERANCED = {
    "psi_weights": lambda tol: psi_weights(AR1, tol),
    "autocovariance": lambda tol: autocovariance(AR1, 2, rel_tol=tol),
    "pgarma": lambda tol: pgarma([[0.1, 0.2]], AR1, tol=tol),
    "mvn_cdf": lambda tol: mvn.mvn_cdf([0.1, 0.2], toeplitz_params(AR1, 2), tol=tol),
}


class TestToleranceRule:
    """One typed rule for tolerances: a real number, not a bool, finite and > 0."""

    @pytest.mark.parametrize("tol", ["a", True, float("nan"), float("inf"), 0, -1])
    @pytest.mark.parametrize("entry", sorted(TOLERANCED))
    def test_bad_tolerance_is_typed(self, entry, tol):
        with pytest.raises(InvalidParamError, match="must be finite and > 0"):
            TOLERANCED[entry](tol)

    @pytest.mark.parametrize("entry", sorted(TOLERANCED))
    def test_numpy_float_accepted(self, entry):
        TOLERANCED[entry](np.float32(1e-8))


# Each entry point that takes a count, called with ``value`` as that count.
COUNTED = {
    "autocovariance.max_lag": lambda value: autocovariance(AR1, value),
    "acf_vector.n": lambda value: acf_vector(value, AR1),
    "variance_matrix.n": lambda value: variance_matrix(value, AR1),
    "rgarma.n": lambda value: rgarma(value, 3, AR1, seed=1),
    "rgarma.m": lambda value: rgarma(2, value, AR1, seed=1),
    "mvn_cdf.max_points": lambda value: mvn.mvn_cdf([0.1], toeplitz_params(AR1, 1),
                                                    max_points=value),
    "sample.count": lambda value: mvn.sample(toeplitz_params(AR1, 2), value, seed=1),
    "spectrum_test.sims": lambda value: spectrum_test(np.arange(8.0) % 3, sims=value, seed=1,
                                                      progress=False),
    "spectrum_test.workers": lambda value: spectrum_test(np.arange(8.0) % 3, sims=5, seed=1,
                                                         progress=False, workers=value),
}


class TestCountRule:
    """One typed rule for counts: an integer, not a bool, at least its minimum."""

    @pytest.mark.parametrize("value", [True, False, -1, 2.0, "3", None])
    @pytest.mark.parametrize("entry", sorted(COUNTED))
    def test_bad_count_is_typed(self, entry, value):
        name = entry.split(".")[1]
        with pytest.raises(InvalidParamError, match=f"^{name} must be a .* integer, got "):
            COUNTED[entry](value)
        COUNTED[entry](np.int64(2))


class TestDeviationOverflow:
    """A finite value minus a finite mean that overflows is a typed error, not
    a NaN after a RuntimeWarning (which pyproject.toml makes an error)."""

    SPEC = ArmaSpec(ar=(0.5,), mean=-1e308)

    def test_dgarma_kept_position(self):
        with pytest.raises(InvalidParamError, match="row 1 minus the mean"):
            dgarma([1e308, 0.3, 0.1], self.SPEC)

    def test_dgarma_conditioned_position_names_its_row(self):
        rows = [[0.2, 0.3, 0.1], [1e308, 0.3, 0.1]]
        with pytest.raises(InvalidParamError, match="row 2 minus the mean"):
            dgarma(rows, self.SPEC, cond=[True, False, False])

    def test_rgarma_condvals(self):
        with pytest.raises(InvalidParamError, match="condvals minus the mean"):
            rgarma(2, 3, self.SPEC, condvals=[1e308, np.nan, np.nan], seed=1)

    def test_conditioned_pgarma(self):
        with pytest.raises(InvalidParamError, match="row 1 minus the mean"):
            pgarma([1e308, 0.3, 0.1], self.SPEC, cond=[True, False, False])


class TestZeroDensity:
    """A finite value so far from the mean that its density is zero in double
    precision gives a log-density of -inf with no RuntimeWarning (which
    pyproject.toml makes an error); conditioned on, it is a typed error, since
    log p(kept) - log p(cond) would be -inf minus -inf."""

    @pytest.mark.parametrize(
        "row, cond",
        [
            ([1e200, 0.3, 0.1], None),
            ([0.3, 1e200, 0.1], [True, False, False]),
            ([0.3, 0.1, 1e200], [True, False, False]),
        ],
    )
    @pytest.mark.parametrize("error_var", [1.0, 1e-300])  # 1e-300: v / sqrt(f) overflows
    def test_kept_position(self, row, cond, error_var):
        spec = ArmaSpec(ar=(0.5,), error_var=error_var)
        assert dgarma(row, spec, cond=cond, log=True).tolist() == [-np.inf]
        assert dgarma(row, spec, cond=cond).tolist() == [0.0]

    @pytest.mark.parametrize("flags", [[True, False, False], [False, False, True]])
    def test_conditioned_position_names_its_row(self, flags):
        rows = [[0.2, 0.3, 0.1], [1e200, 0.3, 1e200]]
        with pytest.raises(InvalidParamError, match="conditioned values of row 2"):
            dgarma(rows, ArmaSpec(ar=(0.5,)), cond=flags, log=True)


class TestConditionedPrefix:
    """Before the first free position the kept and conditioned passes observe
    the same positions, so the conditioned values there cancel exactly."""

    @pytest.mark.parametrize("c", [1e4, 1e6, 1e8, 1e10])
    def test_far_conditioned_value_before_every_free_one(self, c):
        # Under MA(1), y3 is independent of y1: the density cannot depend on c.
        spec, flags = ArmaSpec(ma=(0.5,)), [True, False, False]
        want = dgarma([0.0, np.nan, 0.1], spec, cond=flags, log=True)[0]
        got = dgarma([c, np.nan, 0.1], spec, cond=flags, log=True)[0]
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("flags, passes", [
        ([True, True, False, False], 1),
        ([True, False, True, False], 2),
        ([False, False, False, True], 2),
    ])
    def test_conditioned_pass_runs_only_when_a_conditioned_position_follows(
            self, monkeypatch, flags, passes):
        calls = []
        original = _statespace._filter
        monkeypatch.setattr(_statespace, "_filter",
                            lambda *args: calls.append(1) or original(*args))
        x = [0.4, -0.2, 0.9, 0.1]
        got = dgarma(x, GARMA22, cond=flags, log=True)
        assert len(calls) == passes
        want = dense_pattern_log_density(GARMA22, x, np.zeros(4, dtype=bool), flags)
        assert got == pytest.approx(want, rel=1e-10, abs=0.0)


class TestDenseAllocationLimit:
    """A dense m x m allocation that the address space cannot hold is an
    InvalidParamError naming its bytes and the O(m) functions, not a bare
    MemoryError."""

    def test_typed_error_under_a_lowered_address_space_limit(self):
        pytest.importorskip("resource")
        if not sys.platform.startswith("linux"):
            pytest.skip("RLIMIT_AS is enforced on Linux only")
        # The child lowers its own limit to what it uses plus 1 GiB, so every
        # small allocation fits and no m x m matrix (7.2 GB at m = 30,000) does.
        code = textwrap.dedent("""
            import os, resource, time
            import numpy as np
            from garma import ArmaSpec, InvalidParamError, mvn, pgarma, variance_matrix
            from garma.conditioning import CONDITIONED, FREE

            m = 30_000
            spec = ArmaSpec(ar=(0.5,), ma=(0.3,))
            flags = np.ones(m, dtype=bool)
            flags[[10, 15_000, m - 5]] = False
            state = np.where(flags, CONDITIONED, FREE)
            calls = [
                lambda: variance_matrix(m, spec),
                lambda: pgarma(np.zeros(m), spec, cond=flags),
                lambda: mvn._free_moments(np.zeros(m), np.broadcast_to(1.0, (m, m)),
                                          state, np.zeros((1, m))),
            ]
            used = int(open("/proc/self/statm").read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
            hard = resource.getrlimit(resource.RLIMIT_AS)[1]
            soft = used + 2**30
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
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 3
        for line, nbytes in zip(lines, [7_200_000_000, 7_200_000_000, 7_199_280_072]):
            kind, seconds, message = line.split(" ", 2)
            assert kind == "InvalidParamError"
            assert float(seconds) < 10.0
            assert f"cannot allocate {nbytes} bytes" in message
            assert "dgarma and rgarma" in message


class TestOneModelCheck:
    """validate_stationary refuses or warns about a model on every path,
    degenerate and all-pinned queries included."""

    EDGE = ArmaSpec(ar=(1 - 1e-16,))  # a root one ulp outside the unit circle
    SHARED = ArmaSpec(ar=(0.5,), ma=(-0.5,))

    @pytest.mark.parametrize(
        "call",
        [
            validate_stationary,
            lambda s: dgarma([0.1, 0.2], s, cond=[True, True]),
            lambda s: pgarma([0.1, 0.2], s, cond=[True, True]),
            lambda s: rgarma(2, 2, s, condvals=[0.1, 0.2], seed=1),
        ],
        ids=["validate_stationary", "dgarma", "pgarma", "rgarma"],
    )
    def test_root_within_rounding_is_refused_on_every_path(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParamError, match="within rounding of the unit circle"):
                call(self.EDGE)

    def test_validate_stationary_warns_shared_root(self):
        with pytest.warns(SharedRootWarning):
            validate_stationary(self.SHARED)

    def test_all_conditioned_density_warns_shared_root(self):
        with pytest.warns(SharedRootWarning), pytest.warns(AllConditionedWarning):
            assert dgarma([0.1, 0.2], self.SHARED, cond=[True, True]) == 1.0

    def test_all_pinned_draw_warns_shared_root(self):
        with pytest.warns(SharedRootWarning):
            out = rgarma(2, 2, self.SHARED, condvals=[0.1, 0.2], seed=1)
        assert np.array_equal(out, [[0.1, 0.2], [0.1, 0.2]])
