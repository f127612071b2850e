"""Fourier intensity of a series and the permutation-spectrum test.

The intensity at frequency k/n is |X_k| / sqrt(n), where X is the discrete
Fourier transform of the (optionally centred and scaled) series.  The test
statistic is the largest intensity over nonzero frequencies; its null
distribution under exchangeability is built by permuting the series, and the
p-value is the add-one permutation estimate
``(1 + #{null >= observed * (1 - 1e-12)}) / (sims + 1)``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyInputError,
    InvalidParamError,
    ZeroVarianceError,
    _check_count,
    _check_seed,
    _set_fields,
    _table,
)

__all__ = ["IntensityVector", "SpectrumTestResult", "dft", "intensity", "spectrum_test"]

# Rows per permutation chunk are capped so a chunk stays around 32 MB; the
# chunk layout is a pure function of (n, sims), never of the worker count,
# which keeps results independent of parallelism.
_CHUNK_CELLS = 1 << 22

# Cyclic shifts and reversals of a series have the same |DFT|, so exact ties
# with the statistic are common, but the rfft of a reordered copy rounds
# differently and splits them; this relative margin counts them.
_TIE_REL = 1e-12

ALTERNATIVE_TEXT = (
    "distribution of time-series vector is not exchangeable "
    "(at least one periodic signal is present)"
)


@dataclass(frozen=True)
class IntensityVector:
    """Intensities at frequencies 0/n .. (nfreq-1)/n.

    ``values`` has the input's leading shape: a vector input gives a 1-D
    array, a matrix input one row of intensities per series row.  ``dof`` is
    the sum of squared scaled intensities over the full (untruncated)
    frequency range: n-1 when centred, n when not.  ``values`` and
    ``frequencies`` are read-only views, which share memory with float arrays
    passed in.
    """

    values: np.ndarray
    frequencies: np.ndarray
    centred: bool
    scaled: bool
    nyquist_truncated: bool
    dof: int
    series_len: int

    def __post_init__(self):
        _set_fields(self, values=np.asarray(self.values, dtype=float),
                    frequencies=np.asarray(self.frequencies, dtype=float))

    @property
    def labels(self):
        n = self.series_len
        return [f"Freq[{k}/{n}]" for k in range(self.frequencies.size)]

    def __str__(self):
        return _table(self.labels, self.values, 12)


@dataclass(frozen=True)
class SpectrumTestResult:
    """Result of the permutation-spectrum test.

    ``null_sample`` holds the simulated maxima (in simulation order) so the
    null distribution can be plotted, as a read-only view, which shares memory
    with a float array passed in; ``intensity`` is the observed intensity used
    for the statistic.
    """

    statistic: float
    p_value: float
    sims: int
    null_sample: np.ndarray
    seed: int
    series_len: int
    intensity: IntensityVector

    def __post_init__(self):
        _set_fields(self, null_sample=np.asarray(self.null_sample, dtype=float))

    def __str__(self):
        return (
            "Permutation-Spectrum Test\n"
            f"data: time-series vector with {self.series_len} values\n"
            f"maximum scaled intensity = {self.statistic:.4f}, "
            f"p-value = {self.p_value:.4f}\n"
            f"alternative hypothesis: {ALTERNATIVE_TEXT}"
        )


def dft(x) -> np.ndarray:
    """Discrete Fourier transform X_k = sum_t x_t exp(-2*pi*i*k*t/n).

    Accepts a vector (or a matrix, transformed row by row) and always returns
    a complex array of the same shape.
    """
    return _transform(_series("dft", x, 1, matrix=True), half=False)


def _series(what, x, min_len, matrix):
    """``x`` as an array of one series, or of one per row if ``matrix``, of at
    least ``min_len`` finite numbers (booleans count): :class:`EmptyInputError`
    if it is empty, else :class:`InvalidParamError` naming ``what``."""
    arr = np.asarray(x)
    if arr.size == 0:
        raise EmptyInputError(f"{what} input has no observations")
    if arr.ndim not in ((1, 2) if matrix else (1,)):
        shape = "1- or 2-dimensional" if matrix else "a single series vector"
        raise InvalidParamError(f"{what} input must be {shape}, got ndim={arr.ndim}")
    if arr.shape[-1] < min_len:
        raise InvalidParamError(f"{what} needs n >= {min_len}, got n={arr.shape[-1]}")
    if arr.dtype.kind not in "biufc" or not np.isfinite(arr).all():
        raise InvalidParamError(f"{what} input must be finite numbers")
    return arr


def _transform(rows, half):
    """DFT of each row; only frequencies ``0 .. n//2``, by ``rfft``, if ``half``
    and the rows are real."""
    if half and not np.iscomplexobj(rows):
        return np.fft.rfft(rows, axis=-1)
    return np.fft.fft(rows, axis=-1)


def _peaks(rows):
    """Largest intensity over the nonzero frequencies of each standardised row."""
    return np.abs(_transform(rows, half=True)[:, 1:]).max(axis=1) / np.sqrt(rows.shape[1])


def _standardize(rows, centred, scaled):
    """Centre/scale series rows; returns (rows, dof). Raises ZeroVarianceError
    if scaling is requested and a row has no spread.  Scaling first brings
    each row's largest magnitude into [0.5, 1) by an exact power of two, so
    its squares cannot overflow or underflow: a row times 2**k gives the same bits."""
    n = rows.shape[1]
    out = rows.astype(complex if np.iscomplexobj(rows) else float)
    if scaled:
        out = out * np.ldexp(1.0, -np.frexp(np.abs(out).max(axis=1))[1])[:, None]
    if centred:
        out = out - out.mean(axis=1, keepdims=True)
        dof = n - 1
    else:
        dof = n
    if scaled:
        ssq = np.sum(np.abs(out) ** 2, axis=1)
        if np.any(ssq <= 0.0):
            raise ZeroVarianceError(
                "series has zero variance; cannot scale a constant series"
            )
        out = out / np.sqrt(ssq / dof)[:, None]
    return out, dof


def intensity(x, centred: bool = True, scaled: bool = True, nyquist: bool = True) -> IntensityVector:
    """Fourier intensity of a real or complex series (or matrix of rows).

    Parameters
    ----------
    x : array
        Series of length n >= 2, or a matrix with one series per row.
    centred : bool
        Subtract the mean first; the zero-frequency intensity is then
        exactly 0.
    scaled : bool
        Divide by s with s**2 = sum(|x'|**2) / dof, where dof is n-1 when
        centred and n otherwise; the squared intensities then sum to dof over
        the full frequency range.
    nyquist : bool
        For real input only, keep frequencies 0/n .. floor(n/2)/n; the upper
        half duplicates the lower by symmetry.  Complex input is never
        truncated.

    Raises
    ------
    EmptyInputError
        If the series has no observations.
    ZeroVarianceError
        If ``scaled`` and the series is constant.
    """
    return _intensity(_series("intensity", x, 2, matrix=True), centred, scaled, nyquist)[0]


def _intensity(arr, centred, scaled, nyquist):
    """:func:`intensity` of the checked series ``arr``, and its rows standardised."""
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    n = rows.shape[1]
    work, dof = _standardize(rows, centred, scaled)
    values = np.abs(_transform(work, half=nyquist)) / np.sqrt(n)
    if centred:
        # The mean was removed, so the zero-frequency coefficient is exactly
        # zero in exact arithmetic; pin it for the floating-point remainder.
        values[:, 0] = 0.0
    truncated = bool(nyquist) and not np.iscomplexobj(rows)
    freqs = np.arange(values.shape[1]) / n
    return IntensityVector(
        values=values[0] if single else values,
        frequencies=freqs,
        centred=bool(centred),
        scaled=bool(scaled),
        nyquist_truncated=truncated,
        dof=dof,
        series_len=n,
    ), work


def _null_maxima_chunk(values, chunk_index, size, seed):
    """Maxima of the permutation null for one chunk: seeded by the chunk
    index alone, so any partition of chunks over workers yields identical
    results."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    tiles = np.tile(values, (size, 1))
    rng.permuted(tiles, axis=1, out=tiles)
    return _peaks(tiles)


def _emit_progress(progress, done, total):
    if progress is True:
        sys.stderr.write(f"\rpermutations: {done}/{total}")
        sys.stderr.flush()
        if done == total:
            sys.stderr.write("\n")
    elif callable(progress):
        progress(done, total)


def spectrum_test(x, sims: int = 1_000_000, seed=None, progress=True,
                  workers: int = 1) -> SpectrumTestResult:
    """Permutation test for a periodic signal in an exchangeable series.

    The statistic is the maximum centred-and-scaled intensity over nonzero
    frequencies.  ``sims`` random permutations of the series build the null
    sample, and the p-value is
    ``(1 + #{null >= observed * (1 - 1e-12)}) / (sims + 1)``: null maxima
    within a relative 1e-12 of the statistic count as ties, since shifted
    and reversed copies of the series tie it up to rounding.

    Parameters
    ----------
    x : array
        One series of length n >= 3 with at least two distinct values.
    sims : int
        Number of permutations (>= 1); a null sample of ``8 * sims`` bytes
        that cannot be allocated raises :class:`InvalidParamError`.
    seed : int or numpy seed, optional
        Seed for the permutation stream.  The int actually used is recorded
        on the result, so ``seed=result.seed`` repeats the run.  ``None`` (OS
        entropy), a list of integers, a ``SeedSequence``, a ``BitGenerator``
        or a ``Generator`` (which advances) gives that int as
        ``default_rng(seed).integers(2**63)``.  A negative or non-integral
        seed raises :class:`InvalidParamError`.
    progress : bool or callable
        True writes a progress line to stderr; a callable receives
        ``(done, total)`` after each internal chunk; False is silent.
    workers : int
        Worker threads for the permutation chunks.  The chunk seeding makes
        the result identical for every worker count.
    """
    arr = _series("spectrum_test", x, 3, matrix=False)
    n = arr.size
    sims = _check_count("sims", sims, 1)
    workers = _check_count("workers", workers, 1)
    seed = _check_seed(seed)

    observed, (values,) = _intensity(arr, centred=True, scaled=True, nyquist=True)
    if not isinstance(seed, int):
        seed = int(np.random.default_rng(seed).integers(1 << 63))

    # Dividing by sqrt(n) keeps their order: this is _peaks(values[None]).
    statistic = float(observed.values[1:].max())

    # Each chunk writes its slice of one null sample, so the peak is the
    # sample plus the chunks in flight.
    try:
        null_sample = np.empty(sims)
    except (MemoryError, ValueError):
        raise InvalidParamError(f"cannot allocate {8 * sims} bytes for sims={sims}") from None
    chunk = max(1, min(8192, _CHUNK_CELLS // n))

    def fill(start):
        """Write the chunk that starts at ``start``; returns its size."""
        piece = null_sample[start:start + chunk]
        piece[:] = _null_maxima_chunk(values, start // chunk, piece.size, seed)
        return piece.size

    # Imported here: concurrent.futures loads threading, queue and logging,
    # which `import garma` and every CLI command would otherwise pay for.
    from concurrent.futures import ThreadPoolExecutor

    done = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for size in (map if workers == 1 else pool.map)(fill, range(0, sims, chunk)):
            done += size
            _emit_progress(progress, done, sims)
    ties_from = statistic * (1.0 - _TIE_REL)
    p_value = (1.0 + float(np.count_nonzero(null_sample >= ties_from))) / (sims + 1.0)
    return SpectrumTestResult(
        statistic=statistic,
        p_value=p_value,
        sims=sims,
        null_sample=null_sample,
        seed=seed,
        series_len=n,
        intensity=observed,
    )
