"""Density, distribution function, and sampler for finite stretches of a
stationary Gaussian ARMA series.

A stretch of length ``m`` is multivariate normal with constant mean and a
Toeplitz covariance built from the autocovariances.  NaN entries in a data
row marginalise those positions (drop rows and columns); boolean flags turn
positions into conditioning values, so ``dgarma``/``pgarma`` evaluate the
conditional density/CDF of the remaining free positions.  ``rgarma`` draws
rows whose conditioned positions reproduce the requested values exactly.

``dgarma`` never forms the ``m x m`` covariance.  It computes ``log p(free |
cond) = log p(kept) - log p(cond)`` as two exact Kalman-filter passes over
Harvey's state-space form of the model, each skipping the positions it does
not observe, in ``O(m)`` time and memory.  ``pgarma`` and ``rgarma`` use the
dense Toeplitz covariance: the quasi-Monte Carlo CDF needs the conditional
covariance itself, and ``rgarma`` draws through its Cholesky factor exactly
as :func:`garma.mvn.sample` does.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.linalg.lapack import dtbtrs

from .arma import ArmaSpec, _acvf, _covariance, _psi_prefix, _warn_shared_roots, validate_stationary
from .conditioning import build_pattern
from .errors import (
    AllConditionedWarning,
    DimensionMismatchError,
    InvalidParamError,
    NotPositiveDefiniteError,
)
from .mvn import (
    _DEFAULT_MAX_POINTS,
    _LOG_2PI,
    DEFAULT_CDF_SEED,
    _factor,
    _free_moments,
    _rectangle_cdf,
    _sample,
)

__all__ = ["dgarma", "pgarma", "rgarma", "as_series_matrix"]

# Change of the filter covariance, relative to the one-step prediction
# variance, below which it counts as steady.
_STEADY_TOL = 1e-15


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


def _degenerate_unit(kind, count, log):
    warnings.warn(
        f"every non-missing position is a conditioning value; {kind} set to "
        "one by convention",
        AllConditionedWarning,
        stacklevel=3,
    )
    out = np.zeros(count) if log else np.ones(count)
    return out


def _row_pattern(rows, cond):
    """The validated pattern shared by the rows of a dgarma/pgarma query."""
    miss = np.isnan(rows)
    if rows.shape[0] > 1 and not np.all(miss == miss[0]):
        raise DimensionMismatchError(
            "all rows must share one missing pattern; found rows that disagree"
        )
    return build_pattern(missing=miss[0], cond_flags=None if cond is False else cond)


def _state_space(spec, moduli):
    """Harvey's state-space form of ``spec``, with state size ``r = max(p,
    q + 1)``: the transition matrix ``T`` (AR coefficients ``phi`` in its
    first column, ones on its superdiagonal), the innovation covariance ``Q``
    and the stationary state covariance ``P0``.

    The state is ``a[0] = y[t]`` and, for ``i >= 1``, ``a[i] = sum_{s>=1}
    phi[i+s-1] * y[t-s] + sum_{s>=0} theta[i+s] * e[t-s]`` (``theta[0] =
    1``), so ``P0`` follows exactly from ``gamma(0) .. gamma(r-1)`` and
    ``Cov(y[t-s], e[t-u]) = error_var * psi[u-s]``, without a Lyapunov solve.
    """
    p, q, var = spec.p, spec.q, spec.error_var
    r = max(p, q + 1)
    phi = np.zeros(r)
    phi[:p] = spec.ar
    theta = np.zeros(r)
    theta[0] = 1.0
    theta[1:q + 1] = spec.ma
    on_y = np.zeros((r, r))  # state loadings on y[t], y[t-1], ...
    on_e = np.zeros((r, r))  # ... and on e[t], e[t-1], ...
    on_y[0, 0] = 1.0
    for i in range(1, r):
        on_y[i, 1:r - i + 1] = phi[i:]
        on_e[i, :r - i] = theta[i:]
    lag = np.abs(np.subtract.outer(np.arange(r), np.arange(r)))
    cov_y = _acvf(spec, r - 1, moduli)[lag]
    cov_ye = var * np.triu(_psi_prefix(phi[:p], theta[1:q + 1], r)[lag])
    cross = on_y @ cov_ye @ on_e.T
    p0 = on_y @ cov_y @ on_y.T + cross + cross.T + var * (on_e @ on_e.T)
    transition = np.eye(r, k=1)
    transition[:, 0] = phi
    return transition, var * np.outer(theta, theta), 0.5 * (p0 + p0.T)


def _filter_gains(observed, transition, q_cov, p0):
    """Kalman filter variances ``F[t]`` and predictive gains ``K[t]`` for the
    positions marked in ``observed``; ``K[t]`` is zero elsewhere.

    They depend only on the pattern, so every row shares them.  Within a run
    of observed positions the covariance update stops once ``P`` no longer
    changes; a run of ``k`` unobserved positions moves ``P`` to ``P0 +
    T**k (P - P0) T**k'`` in one step.
    """
    m = observed.size
    variances = np.ones(m)
    gains = np.zeros((m, transition.shape[0]))
    edges = np.flatnonzero(observed[1:] != observed[:-1]) + 1
    back = transition.T
    cov = p0
    for start, end in zip([0, *edges], [*edges, m]):
        if not observed[start]:
            if end < m:
                power = np.linalg.matrix_power(transition, end - start)
                cov = p0 + power @ (cov - p0) @ power.T
            continue
        for t in range(start, end):
            f = cov[0, 0]
            if not f > 0.0:
                raise NotPositiveDefiniteError(
                    f"one-step prediction variance {f!r} at position {t + 1} is not positive"
                )
            ahead = transition @ cov
            gain = ahead[:, 0] / f
            step = ahead @ back
            step -= ahead[:, :1] * gain
            step += q_cov
            variances[t] = f
            gains[t] = gain
            steady = np.abs(step - cov).max() <= _STEADY_TOL * f
            cov = step
            if steady:
                variances[t + 1:end] = f
                gains[t + 1:end] = gain
                break
    return variances, gains


def _filter_log_density(dev, observed, model):
    """Exact Gaussian log-density of the ``observed`` columns of each row of
    ``dev`` (the rows minus the mean), by the Kalman filter.

    With ``x`` the rows set to zero at unobserved positions, the innovations
    ``v`` solve ``v[t] + sum_k (K[t-k][k-1] - phi[k-1]) v[t-k] = x[t] - sum_k
    phi[k-1] x[t-k]``: one unit lower-triangular system of bandwidth ``r``
    for all rows (at an unobserved ``t``, ``v[t]`` is minus the prediction),
    solved by LAPACK's triangular banded solver.
    """
    variances, gains = _filter_gains(observed, *model)
    phi = model[0][:, 0]
    r, m = phi.size, observed.size
    band = np.empty((r + 1, m))
    band[0] = 1.0
    band[1:] = gains.T - phi[:, None]
    x = np.where(observed, dev, 0.0)
    rhs = x.copy()
    for k in np.flatnonzero(phi) + 1:
        rhs[:, k:] -= phi[k - 1] * x[:, :-k]
    innov = dtbtrs(band, rhs.T, uplo="L", diag="U")[0][observed]
    f = variances[observed]
    return -0.5 * (f.size * _LOG_2PI + np.log(f).sum() + (innov**2 / f[:, None]).sum(axis=0))


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
    1980), started from the exact stationary state covariance.  With ``r =
    max(p, q + 1)`` a pass costs ``O(m r**3)`` time and ``O(m r)`` memory:
    its gain loop runs once for all rows, stops updating once the filter is
    steady and crosses each unobserved run in one step, and the innovations
    of every row come from one banded triangular solve.  No ``m x m`` matrix
    is formed.  A non-positive prediction variance raises
    :class:`NotPositiveDefiniteError`.

    The pattern is validated by :func:`garma.build_pattern`: an all-missing
    row raises :class:`AllMarginalisedError` and a flag on a missing position
    :class:`CondOnMissingError`.  Only when every kept position is
    conditioned is the density 1 (log-density 0), by convention, with an
    :class:`AllConditionedWarning`.
    """
    rows = as_series_matrix(x)
    moduli = validate_stationary(spec)
    pattern = _row_pattern(rows, cond)
    if not pattern.free_mask.any():
        return _degenerate_unit("density", rows.shape[0], log)
    _warn_shared_roots(spec, moduli)
    model = _state_space(spec, moduli)
    dev = rows - spec.mean
    logdens = _filter_log_density(dev, ~pattern.marg_mask, model)
    if pattern.cond_mask.any():
        logdens -= _filter_log_density(dev, pattern.cond_mask, model)
    return logdens if log else np.exp(logdens)


def pgarma(x, spec: ArmaSpec, cond=None, log: bool = False,
           tol: float = 1e-5, seed=DEFAULT_CDF_SEED):
    """P(free positions <= their values in each row), conditioned and
    marginalised exactly as in :func:`dgarma`.

    ``tol`` and ``seed`` configure the quasi-Monte Carlo CDF used when three
    or more free positions remain; the default seed is a fixed documented
    constant, so repeated calls agree.  A call is randomised once: every row
    is estimated on the same scrambled Sobol point sets, drawn from
    ``SeedSequence(seed, spawn_key=(0,))``, so every row's value equals
    ``mvn_cdf(row, ..., seed=SeedSequence(seed, spawn_key=(0,)))`` and
    identical rows get identical values.  Each row's estimate is still
    unbiased with its own error estimate within ``tol``.  ``tol`` must be
    positive even when no row needs it.  An all-missing row raises
    :class:`AllMarginalisedError`; the probability is 1 by convention only
    when every kept position is conditioned.
    """
    if not tol > 0.0:
        raise InvalidParamError(f"tol must be > 0, got {tol!r}")
    rows = as_series_matrix(x)
    moduli = validate_stationary(spec)
    pattern = _row_pattern(rows, cond)
    if not pattern.free_mask.any():
        return _degenerate_unit("probability", rows.shape[0], log)
    _warn_shared_roots(spec, moduli)
    m = rows.shape[1]
    free_idx, cond_means, cond_cov = _free_moments(
        np.full(m, spec.mean), _covariance(m, spec, moduli), pattern.state, rows
    )
    results = _rectangle_cdf(
        rows[:, free_idx] - cond_means,
        cond_cov,
        tol,
        np.random.SeedSequence(entropy=seed, spawn_key=(0,)) if seed is not None else None,
        _DEFAULT_MAX_POINTS,
    )
    out = np.array([r.value for r in results])
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
    moduli = validate_stationary(spec)
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

    _warn_shared_roots(spec, moduli)
    free_idx, free_means, free_cov = _free_moments(
        np.full(m, spec.mean), _covariance(m, spec, moduli), pattern.state, pattern.values[None, :]
    )
    out[:, free_idx] = _sample(free_means[0], _factor(free_cov), n, seed)
    return out
