"""Density, distribution function, and sampler for finite stretches of a
stationary Gaussian ARMA series.

A stretch of length ``m`` is multivariate normal with constant mean and a
Toeplitz covariance built from the autocovariances.  NaN entries in a data
row marginalise those positions (drop rows and columns); boolean flags turn
positions into conditioning values, so ``dgarma``/``pgarma`` evaluate the
conditional density/CDF of the remaining free positions.  ``rgarma`` draws
rows whose conditioned positions reproduce the requested values exactly.
"""

from __future__ import annotations

import warnings

import numpy as np

from .arma import ArmaSpec, validate_stationary, variance_matrix
from .conditioning import build_pattern
from .errors import (
    AllConditionedWarning,
    DimensionMismatchError,
    InvalidParamError,
)
from .mvn import DEFAULT_CDF_SEED, GaussianParams, mvn_cdf, _free_moments, _log_density, _sample

__all__ = ["dgarma", "pgarma", "rgarma", "as_series_matrix"]


def as_series_matrix(x) -> np.ndarray:
    """Coerce a vector or matrix to a 2-D float array of series rows."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise DimensionMismatchError(
            f"x must be a vector or a matrix of series rows, got ndim={arr.ndim}"
        )
    if arr.shape[1] < 1:
        raise DimensionMismatchError("series must contain at least one position")
    if np.any(np.isinf(arr)):
        raise InvalidParamError("series values must be finite or NaN")
    return arr


def _shared_masks(rows, cond):
    """Validate the shared missing mask and conditioning flags for a matrix
    of series rows; returns (missing, flags)."""
    miss = np.isnan(rows)
    if rows.shape[0] > 1 and not np.all(miss == miss[0]):
        raise DimensionMismatchError(
            "all rows must share one missing pattern; found rows that disagree"
        )
    missing = miss[0]
    m = rows.shape[1]
    if cond is None or cond is False:
        flags = np.zeros(m, dtype=bool)
    else:
        flags = np.atleast_1d(np.asarray(cond))
        if flags.dtype != bool:
            if not np.all(np.isin(flags, (0, 1))):
                raise InvalidParamError("cond flags must be boolean")
            flags = flags.astype(bool)
        if flags.shape != (m,):
            raise DimensionMismatchError(
                f"cond has length {flags.size}, series has length {m}"
            )
    return missing, flags


def _degenerate_unit(kind, count, log):
    warnings.warn(
        f"every non-missing position is a conditioning value; {kind} set to "
        "one by convention",
        AllConditionedWarning,
        stacklevel=3,
    )
    out = np.zeros(count) if log else np.ones(count)
    return out


def _free_cond_setup(rows, spec, cond):
    """Common marginalise/condition plumbing for dgarma and pgarma.

    Returns None when the query is degenerate (no free position), else a
    tuple (free_values, cond_mean_rows, cond_cov).
    """
    missing, flags = _shared_masks(rows, cond)
    if not (~missing & ~flags).any():
        return None
    # Validates flag/missing consistency (CondOnMissingError on overlap).
    pattern = build_pattern(missing=missing, cond_flags=flags)
    m = rows.shape[1]
    cov = variance_matrix(m, spec).entries
    free_idx, cond_means, cond_cov = _free_moments(np.full(m, spec.mean), cov, pattern.state, rows)
    return rows[:, free_idx], cond_means, cond_cov


def dgarma(x, spec: ArmaSpec, cond=None, log: bool = False):
    """Density of each series row, after marginalising missing positions and
    conditioning on flagged ones.

    Parameters
    ----------
    x : array
        One series, or a matrix with one series per row.  NaN marks a
        position to marginalise; every row must share one missing pattern.
    spec : ArmaSpec
        Stationary model parameters.
    cond : bool array, optional
        Positions whose (non-missing) values are conditioned on rather than
        evaluated.
    log : bool
        Return log-densities instead of densities.

    Returns
    -------
    numpy.ndarray
        One density (or log-density) per row.

    Notes
    -----
    When no free position remains, the density is 1 (log-density 0) by
    convention and an :class:`AllConditionedWarning` is emitted.
    """
    rows = as_series_matrix(x)
    validate_stationary(spec)
    setup = _free_cond_setup(rows, spec, cond)
    if setup is None:
        return _degenerate_unit("density", rows.shape[0], log)
    logdens = _log_density(*setup)
    return logdens if log else np.exp(logdens)


def pgarma(x, spec: ArmaSpec, cond=None, log: bool = False,
           tol: float = 1e-5, seed=DEFAULT_CDF_SEED):
    """P(free positions <= their values in each row), conditioned and
    marginalised exactly as in :func:`dgarma`.

    ``tol`` and ``seed`` configure the quasi-Monte Carlo CDF used when three
    or more free positions remain; the default seed is a fixed documented
    constant, so repeated calls agree.
    """
    rows = as_series_matrix(x)
    validate_stationary(spec)
    setup = _free_cond_setup(rows, spec, cond)
    if setup is None:
        return _degenerate_unit("probability", rows.shape[0], log)
    free_values, cond_means, cond_cov = setup
    out = np.empty(rows.shape[0])
    for i in range(rows.shape[0]):
        row_seed = np.random.SeedSequence(entropy=seed, spawn_key=(i,)) if seed is not None else None
        result = mvn_cdf(
            free_values[i],
            GaussianParams(mean=np.asarray(cond_means)[i], cov=cond_cov),
            tol=tol,
            seed=row_seed,
        )
        out[i] = result.value
    return np.log(out) if log else out


def rgarma(n: int, m: int, spec: ArmaSpec, condvals=None, seed=None) -> np.ndarray:
    """Draw ``n`` series of length ``m``; positions with finite ``condvals``
    entries are pinned to those values exactly (bit for bit) and the free
    positions follow their conditional distribution.

    With every position conditioned the output is just ``n`` copies of
    ``condvals`` and no randomness is consumed.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParamError(f"n must be a positive integer, got {n!r}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidParamError(f"m must be a positive integer, got {m!r}")
    n, m = int(n), int(m)
    validate_stationary(spec)
    pattern = build_pattern(condvals=np.full(m, np.nan) if condvals is None else condvals)
    if len(pattern) != m:
        raise DimensionMismatchError(
            f"condvals has length {len(pattern)}, series length is {m}"
        )
    out = np.empty((n, m))
    cond = pattern.cond_mask
    out[:, cond] = pattern.values[cond]
    if cond.all():
        return out

    cov = variance_matrix(m, spec).entries
    free_idx, free_means, free_cov = _free_moments(
        np.full(m, spec.mean), cov, pattern.state, pattern.values[None, :]
    )
    out[:, free_idx] = _sample(free_means[0], free_cov, n, seed)
    return out
