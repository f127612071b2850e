"""Density, distribution function, and sampler for finite stretches of a
stationary Gaussian ARMA series.

A stretch of length ``m`` is multivariate normal with constant mean and a
Toeplitz covariance built from the autocovariances.  NaN entries in a data
row marginalise those positions (drop rows and columns); boolean flags turn
positions into conditioning values, so ``dgarma``/``pgarma`` evaluate the
conditional density/CDF of the remaining free positions.  ``rgarma`` draws
rows whose conditioned positions reproduce the requested values exactly.

``dgarma`` and ``rgarma`` run the exact ``O(m)`` state-space engine of
:mod:`garma._statespace`.  ``pgarma`` uses the dense Toeplitz covariance: the
quasi-Monte Carlo CDF needs the conditional covariance itself.
"""

from __future__ import annotations

import numpy as np

from ._statespace import _conditional_draw, log_density
from .arma import ArmaSpec, _check_model, _covariance
from .conditioning import build_pattern
from .errors import (
    AllConditionedWarning,
    DimensionMismatchError,
    InvalidParamError,
    _check_count,
    _check_seed,
    _check_tol,
    _deviation,
    _warn,
)
from .mvn import _DEFAULT_MAX_POINTS, DEFAULT_CDF_SEED, _free_moments, _rectangle_cdf

__all__ = ["dgarma", "pgarma", "rgarma", "as_series_matrix"]


def as_series_matrix(x) -> np.ndarray:
    """Coerce a vector or matrix to a 2-D float array of one or more non-empty series rows."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatchError(
            "x must be a vector or a matrix of series rows, with at least one row "
            f"and one position; got shape {np.shape(x)}"
        )
    if np.any(np.isinf(arr)):
        raise InvalidParamError("series values must be finite or NaN")
    return arr


def _degenerate_unit(kind, count, log):
    _warn(AllConditionedWarning(
        f"every non-missing position is a conditioning value; {kind} set to "
        "one by convention"))
    return np.zeros(count) if log else np.ones(count)


def _row_pattern(rows, cond):
    """The validated pattern shared by the rows of a dgarma/pgarma query."""
    miss = np.isnan(rows)
    if rows.shape[0] > 1 and not np.all(miss == miss[0]):
        raise DimensionMismatchError(
            "all rows must share one missing pattern; found rows that disagree"
        )
    return build_pattern(missing=miss[0], cond_flags=None if cond is False else cond)



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
    The log-density is ``log p(kept) - log p(conditioned)``, each term one
    exact Kalman-filter pass over the series in time order that skips the
    positions it does not observe (Jones 1980; Gardner, Harvey & Phillips
    1980), started from the exact stationary state covariance.  Both passes,
    and :func:`rgarma`, run the one filter :func:`garma._statespace._filter`.
    Each is summed from the first free position, before which both observe the
    same positions, so conditioned values there cancel exactly; later ones
    still go through the subtraction, which loses digits far from the mean.
    With ``r = max(p, q + 1)`` a pass costs ``O(m r**3)`` time and at most
    ``O(m r**2)`` memory: the filter runs once for all rows, stops updating
    once it is steady and crosses each unobserved run in one step, and the
    innovations of every row come from one banded triangular solve.  A run
    of observed positions that starts from a prediction covariance the pass
    has already seen, bit for bit, replays the steps stored for it, so the
    filter keeps each distinct transient once and the values are those of
    stepping every run afresh.  No ``m x m`` matrix is formed.  A
    non-positive prediction variance raises :class:`NotPositiveDefiniteError`;
    conditioned values whose density is zero in double precision raise
    :class:`InvalidParamError`.

    The pattern is validated by :func:`garma.build_pattern`: an all-missing
    row raises :class:`AllMarginalisedError` and a flag on a missing position
    :class:`CondOnMissingError`.  Only when every kept position is
    conditioned is the density 1 (log-density 0), by convention, with an
    :class:`AllConditionedWarning`.
    """
    model = _check_model(spec)
    rows = as_series_matrix(x)
    pattern = _row_pattern(rows, cond)
    if not pattern.free_mask.any():
        return _degenerate_unit("density", rows.shape[0], log)
    kept = ~pattern.marg_mask
    logdens = log_density(_deviation(rows, spec.mean, kept), kept, pattern.cond_mask, model)
    return logdens if log else np.exp(logdens)


def pgarma(x, spec: ArmaSpec, cond=None, log: bool = False,
           tol: float = 1e-5, seed=DEFAULT_CDF_SEED):
    """P(free positions <= their values in each row), conditioned and
    marginalised exactly as in :func:`dgarma`.

    ``tol`` and ``seed`` configure the quasi-Monte Carlo CDF used when three
    or more free positions remain; the default seed is a fixed documented
    constant, so repeated calls agree.  As in :func:`~garma.mvn.mvn_cdf`, a
    pilot round of 10 x 64 points sizes each row's fresh final round to
    ``tol``, and only the final round is reported.  A call is randomised
    once: every row is estimated on the same scrambled Sobol point sets,
    drawn from the first child of the seed's ``SeedSequence``
    (``SeedSequence(seed, spawn_key=(0,))`` for an integer or a list of
    integers; a given ``SeedSequence`` is not advanced), each row reading as
    many of their points as its own final round needs, so every row's value
    equals ``mvn_cdf(row, ..., seed=<that child>)`` and identical rows get
    identical values.  A ``Generator`` or ``BitGenerator`` seed is consumed
    instead, so a second call with the same object gives other estimates.
    The scrambles for a seed are drawn once per process and reused by later
    calls.  Each row's estimate is still unbiased with its own error
    estimate within ``tol``.
    ``tol`` must be finite and positive even when no row needs it.  An
    all-missing row raises :class:`AllMarginalisedError`; the probability is 1
    by convention only when every kept position is conditioned.
    """
    tol = _check_tol("tol", tol)
    seed = _check_seed(seed)
    if isinstance(seed, (int, list)):
        seed = np.random.SeedSequence(seed)
    if isinstance(seed, np.random.SeedSequence):  # its first child, leaving it as it is
        seed = np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, 0),
                                      pool_size=seed.pool_size)
    model = _check_model(spec)
    rows = as_series_matrix(x)
    pattern = _row_pattern(rows, cond)
    if not pattern.free_mask.any():
        return _degenerate_unit("probability", rows.shape[0], log)
    m = rows.shape[1]
    free_idx, cond_means, cond_cov = _free_moments(
        np.full(m, spec.mean), _covariance(m, model), pattern.state, rows
    )
    results = _rectangle_cdf(rows[:, free_idx], cond_means, cond_cov, tol, seed,
                             _DEFAULT_MAX_POINTS)
    out = np.array([r.value for r in results])
    with np.errstate(divide="ignore"):  # a probability that underflows to 0 has log -inf
        return np.log(out) if log else out



def rgarma(n: int, m: int, spec: ArmaSpec, condvals=None, seed=None) -> np.ndarray:
    """Draw ``n`` series of length ``m``; positions with finite ``condvals``
    entries are pinned to those values exactly (bit for bit) and the free
    positions follow their conditional distribution.

    With every position conditioned the output is just ``n`` copies of
    ``condvals`` and no randomness is consumed.

    Notes
    -----
    Each free position is drawn in index order from its law given every
    earlier position and the later conditioned values: one pass of the exact
    Kalman filter that :func:`dgarma` runs, here observing every position,
    combined with a backward information filter over the conditioned values
    (the two-filter form of Fraser & Potter 1969).  That sequence is the
    index-order Cholesky factor of the conditional covariance, so a seed gives
    the same draws as :func:`garma.mvn.sample` of the conditional moments, up
    to rounding: ``default_rng(seed).standard_normal((n, n_free))`` supplies
    one column per free position.  The state-space form uses the invertible
    moving average with the same autocovariances, which keeps the backward
    information bounded.  With ``r = max(p, q + 1)`` a call costs ``O(m
    r**3)`` time and ``O(m r**2)`` memory; every row comes from one banded
    triangular solve, and no ``m x m`` matrix is formed.  A non-positive
    conditional variance raises :class:`NotPositiveDefiniteError`.
    """
    n, m = _check_count("n", n, 1), _check_count("m", m, 1)
    seed = _check_seed(seed)
    model = _check_model(spec)
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

    z = np.random.default_rng(seed).standard_normal((n, m - np.count_nonzero(cond)))
    dev = _deviation(pattern.values, spec.mean, cond, "condvals")
    out[:, ~cond] = spec.mean + _conditional_draw(dev, cond, model.invertible_forms, z)[:, ~cond]
    return out
