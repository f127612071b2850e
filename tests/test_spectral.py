"""Tests for the DFT, intensity vectors, and the permutation-spectrum test."""

import math

import numpy as np
import pytest

from garma import (
    EmptyInputError,
    InvalidParamError,
    ZeroVarianceError,
    dft,
    intensity,
    spectrum_test,
)
from garma.spectral import ALTERNATIVE_TEXT
from conftest import naive_dft


class TestDft:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 17, 64, 100])
    def test_matches_direct_sum_real(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        got = dft(x)
        want = naive_dft(x)
        scale = np.max(np.abs(want)) + 1.0
        assert np.max(np.abs(got - want)) / scale < 1e-12

    def test_matches_direct_sum_complex(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=24) + 1j * rng.normal(size=24)
        assert np.allclose(dft(x), naive_dft(x), atol=1e-10)

    def test_unit_impulse_is_flat(self):
        x = np.zeros(16)
        x[0] = 1.0
        assert np.allclose(dft(x), np.ones(16), atol=1e-14)

    def test_constant_concentrates_at_zero(self):
        out = dft(np.ones(8))
        assert out[0] == pytest.approx(8.0)
        assert np.allclose(out[1:], 0.0, atol=1e-13)

    def test_matrix_rows_independent(self):
        rng = np.random.default_rng(9)
        rows = rng.normal(size=(3, 10))
        got = dft(rows)
        assert got.shape == (3, 10)
        for i in range(3):
            assert np.allclose(got[i], dft(rows[i]), atol=1e-13)

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            dft(np.array([]))

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParamError):
            dft([1.0, np.nan])


class TestIntensity:
    def test_zero_frequency_exactly_zero_when_centred(self):
        rng = np.random.default_rng(3)
        iv = intensity(rng.normal(size=30))
        assert iv.values[0] == 0.0

    def test_parseval_full_range(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=25)
        iv = intensity(x, nyquist=False)
        assert np.sum(iv.values**2) == pytest.approx(24.0, abs=1e-9)
        assert iv.dof == 24

    def test_parseval_uncentred(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=20)
        iv = intensity(x, centred=False, nyquist=False)
        assert np.sum(iv.values**2) == pytest.approx(20.0, abs=1e-9)
        assert iv.dof == 20

    def test_truncation_length_real(self):
        for n in (8, 9, 30, 101):
            iv = intensity(np.random.default_rng(n).normal(size=n))
            assert iv.values.shape == (n // 2 + 1,)
            assert iv.nyquist_truncated
            assert np.array_equal(iv.frequencies, np.arange(n // 2 + 1) / n)

    def test_complex_never_truncated(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=12) + 1j * rng.normal(size=12)
        iv = intensity(x, nyquist=True)
        assert iv.values.shape == (12,)
        assert not iv.nyquist_truncated

    def test_planted_cosine_spikes(self):
        n = 64
        t = np.arange(n)
        x = np.cos(2 * np.pi * 8 * t / n)
        iv = intensity(x)
        k = int(np.argmax(iv.values))
        assert k == 8
        # The two mirror frequencies split the whole energy budget, so the
        # retained one carries dof/2.
        assert iv.values[8] ** 2 == pytest.approx(iv.dof / 2, rel=1e-9, abs=0.0)
        rest = np.delete(iv.values, 8)
        assert np.max(rest) < 1e-6

    def test_unscaled_matches_plain_dft_modulus(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=15)
        iv = intensity(x, centred=False, scaled=False, nyquist=False)
        assert np.allclose(iv.values, np.abs(naive_dft(x)) / np.sqrt(15), atol=1e-10)

    def test_scaling_is_norm_division(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=21)
        raw = intensity(x, centred=True, scaled=False, nyquist=False)
        scl = intensity(x, centred=True, scaled=True, nyquist=False)
        s = math.sqrt(np.sum((x - x.mean()) ** 2) / 20)
        assert np.allclose(scl.values, raw.values / s, atol=1e-12)

    def test_matrix_rows_match_single_calls(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(4, 18))
        iv = intensity(rows)
        assert iv.values.shape == (4, 10)
        for i in range(4):
            assert np.allclose(iv.values[i], intensity(rows[i]).values, atol=1e-13)

    def test_constant_series_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            intensity(np.ones(10))

    def test_constant_series_unscaled_ok(self):
        iv = intensity(np.ones(10), scaled=False)
        assert np.allclose(iv.values, 0.0, atol=1e-14)  # centred constant is zero

    def test_too_short(self):
        with pytest.raises(InvalidParamError):
            intensity([1.0])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            intensity([])

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidParamError):
            intensity([1.0, np.inf, 2.0])

    def test_labels_and_str(self):
        iv = intensity(np.random.default_rng(1).normal(size=8))
        assert iv.labels == [f"Freq[{k}/8]" for k in range(5)]
        text = str(iv)
        assert "Freq[0/8]" in text
        assert "Freq[4/8]" in text

    def test_values_read_only(self):
        iv = intensity(np.random.default_rng(2).normal(size=8))
        with pytest.raises(ValueError):
            iv.values[0] = 9.9


class TestSpectrumTest:
    def test_deterministic_given_seed(self):
        x = np.random.default_rng(21).normal(size=24)
        a = spectrum_test(x, sims=500, seed=9, progress=False)
        b = spectrum_test(x, sims=500, seed=9, progress=False)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value
        assert np.array_equal(a.null_sample, b.null_sample)

    def test_worker_count_invariance(self):
        x = np.random.default_rng(22).normal(size=600)
        serial = spectrum_test(x, sims=20_000, seed=13, progress=False, workers=1)
        threaded = spectrum_test(x, sims=20_000, seed=13, progress=False, workers=4)
        assert serial.p_value == threaded.p_value
        assert np.array_equal(serial.null_sample, threaded.null_sample)

    def test_statistic_is_max_intensity(self):
        x = np.random.default_rng(23).normal(size=30)
        result = spectrum_test(x, sims=10, seed=1, progress=False)
        iv = intensity(x)
        assert result.statistic == float(np.max(iv.values[1:]))

    def test_p_value_on_add_one_grid(self):
        x = np.random.default_rng(24).normal(size=20)
        result = spectrum_test(x, sims=999, seed=3, progress=False)
        k = result.p_value * 1000
        assert k == pytest.approx(round(k), abs=1e-9)
        assert 1 / 1000 <= result.p_value <= 1.0

    def test_n3_every_permutation_ties(self):
        # At n = 3 every permutation is a cyclic shift or a reversal, so
        # every null maximum equals the statistic and p must be exactly 1.
        rng = np.random.default_rng(31)
        for seed in rng.integers(0, 2**32, size=10):
            x = rng.normal(size=3)
            result = spectrum_test(x, sims=2000, seed=int(seed), progress=False)
            assert result.p_value == 1.0

    def test_null_sample_length(self):
        x = np.random.default_rng(25).normal(size=10)
        result = spectrum_test(x, sims=777, seed=5, progress=False)
        assert result.null_sample.shape == (777,)

    def test_planted_cosine_is_detected(self):
        rng = np.random.default_rng(26)
        n = 60
        t = np.arange(n)
        noise = rng.normal(size=n)
        x = 10.0 * noise.std() * np.cos(2 * np.pi * 6 * t / n) + noise
        result = spectrum_test(x, sims=2000, seed=7, progress=False)
        assert result.p_value <= 0.01

    def test_pure_noise_is_not_flagged(self):
        x = np.random.default_rng(27).normal(size=40)
        result = spectrum_test(x, sims=2000, seed=11, progress=False)
        assert result.p_value > 0.01

    def test_p_roughly_uniform_under_null(self):
        rng = np.random.default_rng(28)
        ps = [
            spectrum_test(rng.normal(size=16), sims=199, seed=int(s), progress=False).p_value
            for s in rng.integers(0, 2**32, size=60)
        ]
        assert 0.35 <= float(np.mean(ps)) <= 0.65

    def test_seed_recorded_and_replayable(self):
        x = np.random.default_rng(29).normal(size=18)
        first = spectrum_test(x, sims=300, progress=False)
        again = spectrum_test(x, sims=300, seed=first.seed, progress=False)
        assert np.array_equal(first.null_sample, again.null_sample)
        assert first.p_value == again.p_value

    def test_progress_callable(self):
        x = np.random.default_rng(30).normal(size=12)
        calls = []
        spectrum_test(x, sims=50, seed=2, progress=lambda d, t: calls.append((d, t)))
        assert calls[-1] == (50, 50)
        dones = [d for d, _ in calls]
        assert dones == sorted(dones)
        assert all(t == 50 for _, t in calls)

    def test_progress_stderr(self, capsys):
        x = np.random.default_rng(31).normal(size=12)
        spectrum_test(x, sims=20, seed=2, progress=True)
        captured = capsys.readouterr()
        assert captured.err != ""
        assert captured.out == ""

    def test_progress_false_is_silent(self, capsys):
        x = np.random.default_rng(32).normal(size=12)
        spectrum_test(x, sims=20, seed=2, progress=False)
        captured = capsys.readouterr()
        assert captured.err == ""

    def test_complex_series_supported(self):
        rng = np.random.default_rng(33)
        x = rng.normal(size=16) + 1j * rng.normal(size=16)
        result = spectrum_test(x, sims=200, seed=4, progress=False)
        assert 0.0 < result.p_value <= 1.0

    def test_constant_series_rejected(self):
        with pytest.raises(ZeroVarianceError):
            spectrum_test(np.ones(10), sims=10, seed=1, progress=False)

    def test_empty_series_rejected(self):
        with pytest.raises(EmptyInputError):
            spectrum_test([], sims=10, seed=1, progress=False)

    def test_short_series_rejected(self):
        with pytest.raises(InvalidParamError):
            spectrum_test([1.0, 2.0], sims=10, seed=1, progress=False)

    def test_matrix_rejected(self):
        with pytest.raises(InvalidParamError):
            spectrum_test(np.ones((2, 5)), sims=10, seed=1, progress=False)

    def test_bad_sims(self):
        x = np.arange(5.0)
        with pytest.raises(InvalidParamError):
            spectrum_test(x, sims=0, seed=1, progress=False)

    def test_unallocatable_null_sample_is_typed(self):
        # Fails at the allocation, before any chunk is laid out or drawn.
        with pytest.raises(InvalidParamError, match="8000000000000000 bytes for sims=1000000000000000"):
            spectrum_test(np.arange(5.0), sims=10**15, seed=1, progress=False)

    def test_bad_workers(self):
        x = np.arange(5.0)
        with pytest.raises(InvalidParamError):
            spectrum_test(x, sims=5, seed=1, progress=False, workers=0)

    def test_report_text(self):
        x = np.random.default_rng(34).normal(size=14)
        result = spectrum_test(x, sims=99, seed=6, progress=False)
        text = str(result)
        assert "Permutation-Spectrum Test" in text
        assert "14 values" in text
        assert ALTERNATIVE_TEXT in text

    def test_exchangeable_non_gaussian_null_holds(self):
        # The null only needs exchangeability, not normality.
        rng = np.random.default_rng(35)
        ps = [
            spectrum_test(rng.exponential(size=16), sims=199, seed=int(s), progress=False).p_value
            for s in rng.integers(0, 2**32, size=40)
        ]
        assert 0.3 <= float(np.mean(ps)) <= 0.7
