"""Multivariate-normal engine: factorisation, log-density, conditioning,
rectangle probabilities, and sampling.

All linear algebra goes through Cholesky factors and triangular solves;
covariance matrices are never inverted explicitly.  Densities are computed in
log space throughout, since even moderate dimensions underflow the natural
scale.  Probabilities use a closed form in one dimension, a deterministic
Gauss-Legendre quadrature in two, and randomized quasi-Monte Carlo with a
separation-of-variables transform in three or more.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr, ndtri

from .conditioning import CONDITIONED, FREE, _require_free
from .errors import (
    CondOnMissingError,
    DimensionMismatchError,
    InvalidParamError,
    NotPositiveDefiniteError,
    NumericalAdjustmentWarning,
    ToleranceNotReachedError,
)

__all__ = [
    "GaussianParams",
    "ConditionalMoments",
    "CdfResult",
    "DEFAULT_CDF_SEED",
    "cholesky",
    "log_density",
    "conditional_moments",
    "mvn_cdf",
    "sample",
]

_LOG_2PI = math.log(2.0 * math.pi)

# Diagonal inflation schedule tried after a failed factorisation, as a
# fraction of the mean diagonal entry.
_INFLATION_EPS = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)

# Documented default seed for the quasi-Monte Carlo CDF path.
DEFAULT_CDF_SEED = 1000003
_DEFAULT_MAX_POINTS = 10_000_000
_QMC_BATCHES = 10


def _check_square_sym(cov):
    c = np.asarray(cov, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidParamError("covariance entries must all be finite")
    scale = max(1.0, float(np.abs(c).max()) if c.size else 1.0)
    if c.size and float(np.abs(c - c.T).max()) > 1e-8 * scale:
        raise InvalidParamError("covariance must be symmetric")
    return c


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and covariance matrix of a multivariate normal."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise InvalidParamError("mean must be one-dimensional")
        if not np.all(np.isfinite(mean)):
            raise InvalidParamError("mean entries must all be finite")
        cov = _check_square_sym(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatchError(
                f"mean has length {mean.shape[0]}, covariance is {cov.shape[0]}x{cov.shape[1]}"
            )
        mean = mean.copy()
        cov = cov.copy()
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return len(self.mean)


@dataclass(frozen=True)
class ConditionalMoments:
    """Mean and covariance of the free coordinates given the conditioned ones."""

    cond_mean: np.ndarray
    cond_cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.cond_mean, dtype=float)
        cov = np.asarray(self.cond_cov, dtype=float)
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "cond_mean", mean)
        object.__setattr__(self, "cond_cov", cov)


@dataclass(frozen=True)
class CdfResult:
    """Rectangle probability with an error estimate and the method used.

    ``method`` is one of ``closed_form_1d``, ``quadrature_2d``, or ``qmc``.
    ``error_estimate`` is one estimated standard error for the qmc method and
    a conservative accuracy bound for the deterministic methods.
    """

    value: float
    error_estimate: float
    method: str

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "error_estimate", float(self.error_estimate))
        if not 0.0 <= self.value <= 1.0:
            raise InvalidParamError(f"probability out of range: {self.value!r}")


def _factor(c):
    """Lower Cholesky factor of a finite, exactly symmetric covariance (one
    the library built, or one :func:`cholesky` has checked).

    On failure the diagonal is inflated by ``eps * mean(diag)`` for ``eps``
    escalating from 1e-14 to 1e-8, with a :class:`NumericalAdjustmentWarning`
    carrying the ``eps`` that succeeded.
    """
    try:
        return np.linalg.cholesky(c)
    except np.linalg.LinAlgError:
        pass
    n = c.shape[0]
    mean_diag = float(np.mean(np.diag(c)))
    for eps in _INFLATION_EPS:
        try:
            factor = np.linalg.cholesky(c + (eps * mean_diag) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
        warnings.warn(NumericalAdjustmentWarning(eps), stacklevel=3)
        return factor
    raise NotPositiveDefiniteError(
        "covariance is not positive definite, even after diagonal inflation "
        f"up to {_INFLATION_EPS[-1]:g} of the mean diagonal"
    )


def cholesky(cov) -> np.ndarray:
    """Lower-triangular Cholesky factor of ``cov``.

    On failure the diagonal is inflated by ``eps * mean(diag)`` for ``eps``
    escalating from 1e-14 to 1e-8 before giving up; an inflation is reported
    by a :class:`~garma.errors.NumericalAdjustmentWarning` carrying ``eps``.
    """
    c = _check_square_sym(cov)
    return _factor(0.5 * (c + c.T))


def log_density(x, params: GaussianParams):
    """Log-density of ``x`` (one vector, or a matrix of row vectors).

    Returns a float for vector input and a 1-D array for matrix input.
    """
    p = params if isinstance(params, GaussianParams) else GaussianParams(*params)
    arr = np.asarray(x, dtype=float)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if rows.shape[1] != p.dim:
        raise DimensionMismatchError(
            f"x has {rows.shape[1]} columns, distribution has dimension {p.dim}"
        )
    factor = cholesky(p.cov)
    z = solve_triangular(factor, (rows - p.mean).T, lower=True)
    quad = np.einsum("ij,ij->j", z, z)
    out = -0.5 * p.dim * _LOG_2PI - float(np.sum(np.log(np.diag(factor)))) - 0.5 * quad
    return float(out[0]) if single else out


def _cov_to_corr(cov):
    """The correlation matrix of ``cov``, with an exact unit diagonal."""
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    np.fill_diagonal(corr, 1.0)
    return corr


def _free_moments(mean, cov, state, value_rows):
    """Moments of the FREE coordinates of N(mean, cov) given the CONDITIONED
    ones, for each row of ``value_rows`` (one column per coordinate; only the
    conditioned columns are read).

    MARGINALISED coordinates are left out of every block; one Schur
    complement, shared by all rows, then absorbs the conditioned block.
    Returns ``(free_idx, means, cov)`` with one row of ``means`` per value row.
    """
    free_idx = np.nonzero(state == FREE)[0]
    cond_idx = np.nonzero(state == CONDITIONED)[0]
    if cond_idx.size == 0:
        means = np.broadcast_to(mean[free_idx], (value_rows.shape[0], free_idx.size))
        if free_idx.size == state.size:  # nothing to drop: skip an O(m^2) copy
            return free_idx, means, cov
        return free_idx, means, cov[np.ix_(free_idx, free_idx)]
    factor = _factor(cov[np.ix_(cond_idx, cond_idx)])
    cross = solve_triangular(factor, cov[np.ix_(cond_idx, free_idx)], lower=True)
    cond_cov = cov[np.ix_(free_idx, free_idx)] - cross.T @ cross
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    dev = solve_triangular(factor, (value_rows[:, cond_idx] - mean[cond_idx]).T, lower=True)
    return free_idx, mean[free_idx] + (cross.T @ dev).T, cond_cov


def conditional_moments(params: GaussianParams, pattern, values=None) -> ConditionalMoments:
    """Moments of the free coordinates given the conditioned ones.

    Marginalised coordinates are dropped first (rows and columns deleted),
    then the conditioned block is absorbed by a Schur complement.  With no
    conditioned or marginalised coordinates the inputs are returned exactly.

    ``values`` supplies the conditioning values; it may have one entry per
    conditioned position, or the full pattern length (entries at conditioned
    positions are used).  When omitted, the values bound in ``pattern`` are
    used.
    """
    p = params if isinstance(params, GaussianParams) else GaussianParams(*params)
    _require_free(pattern, p.dim)
    cond_mask = pattern.cond_mask
    n_cond = int(np.count_nonzero(cond_mask))

    vals = pattern.values
    if values is None:
        if not np.all(np.isfinite(vals[cond_mask])):
            raise CondOnMissingError(
                "pattern has conditioned positions without bound values; "
                "pass them via the values argument"
            )
    else:
        given = np.atleast_1d(np.asarray(values, dtype=float))
        if given.shape[0] == p.dim:
            vals = given
        elif given.shape[0] == n_cond:
            vals = np.zeros(p.dim)
            vals[cond_mask] = given
        else:
            raise DimensionMismatchError(
                f"values needs {n_cond} conditioning values or one per position "
                f"({p.dim}), got {given.shape[0]}"
            )
        if not np.all(np.isfinite(vals[cond_mask])):
            raise CondOnMissingError("conditioning values must all be finite")
    _, means, cond_cov = _free_moments(p.mean, p.cov, pattern.state, vals[None, :])
    return ConditionalMoments(cond_mean=means[0], cond_cov=cond_cov)


# --- bivariate normal quadrature -------------------------------------------
# Gauss-Legendre rules (nodes, weights) at 6, 12, and 20 points.

_GL_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (6, 12, 20)}


def _phid(z):
    return float(ndtr(z))


def _bvn_upper(dh, dk, r):
    """P(X > dh, Y > dk) for standard normals with correlation ``r``.

    Gauss-Legendre quadrature of Drezner-Wesolowsky's single-integral form,
    with the transformed expansion for |r| near 1; absolute error is below
    1e-14.
    """
    if abs(r) < 0.3:
        x, w = _GL_RULES[6]
    elif abs(r) < 0.75:
        x, w = _GL_RULES[12]
    else:
        x, w = _GL_RULES[20]
    h, k = float(dh), float(dk)
    hk = h * k
    bvn = 0.0
    if abs(r) < 0.925:
        if abs(r) > 0.0:
            hs = (h * h + k * k) / 2.0
            asr = math.asin(r)
            for wi, xi in zip(w, x):
                sn = math.sin(asr * (xi + 1.0) / 2.0)
                bvn += wi * math.exp((sn * hk - hs) / (1.0 - sn * sn))
            bvn = bvn * asr / (4.0 * math.pi)
        bvn += _phid(-h) * _phid(-k)
    else:
        if r < 0.0:
            k = -k
            hk = -hk
        if abs(r) < 1.0:
            a_sq = (1.0 - r) * (1.0 + r)
            a = math.sqrt(a_sq)
            b_sq = (h - k) ** 2
            c = (4.0 - hk) / 8.0
            d = (12.0 - hk) / 16.0
            asr = -(b_sq / a_sq + hk) / 2.0
            if asr > -100.0:
                bvn = a * math.exp(asr) * (
                    1.0
                    - c * (b_sq - a_sq) * (1.0 - d * b_sq / 5.0) / 3.0
                    + c * d * a_sq * a_sq / 5.0
                )
            if -hk < 100.0:
                b = math.sqrt(b_sq)
                bvn -= (
                    math.exp(-hk / 2.0)
                    * math.sqrt(2.0 * math.pi)
                    * _phid(-b / a)
                    * b
                    * (1.0 - c * b_sq * (1.0 - d * b_sq / 5.0) / 3.0)
                )
            a /= 2.0
            for wi, xi in zip(w, x):
                xs = (a * (xi + 1.0)) ** 2
                rs = math.sqrt(1.0 - xs)
                asr = -(b_sq / xs + hk) / 2.0
                if asr > -100.0:
                    bvn += (
                        a
                        * wi
                        * math.exp(asr)
                        * (
                            math.exp(-hk * (1.0 - rs) / (2.0 * (1.0 + rs))) / rs
                            - (1.0 + c * xs * (1.0 + d * xs))
                        )
                    )
            bvn = -bvn / (2.0 * math.pi)
        if r > 0.0:
            bvn += _phid(-max(h, k))
        else:
            bvn = -bvn + max(0.0, _phid(-h) - _phid(-k))
    return min(max(bvn, 0.0), 1.0)


# --- quasi-Monte Carlo path --------------------------------------------------


def _ordered_cholesky(corr, upper):
    """Cholesky factor with variables reordered so that the most sharply
    truncated coordinates come first, which concentrates the integrand's
    variation in the leading quasi-Monte Carlo dimensions."""
    n = len(upper)
    c = np.array(corr, dtype=float)
    u = np.array(upper, dtype=float)
    ell = np.zeros((n, n))
    y = np.zeros(n)
    for k in range(n):
        res = np.maximum(np.diag(c)[k:] - np.einsum("ij,ij->i", ell[k:, :k], ell[k:, :k]), 1e-30)
        partial = ell[k:, :k] @ y[:k]
        widths = ndtr((u[k:] - partial) / np.sqrt(res))
        j = k + int(np.argmin(widths))
        if j != k:
            c[[k, j], :] = c[[j, k], :]
            c[:, [k, j]] = c[:, [j, k]]
            ell[[k, j], :k] = ell[[j, k], :k]
            u[[k, j]] = u[[j, k]]
        diag_res = c[k, k] - float(ell[k, :k] @ ell[k, :k])
        dk = math.sqrt(max(diag_res, 1e-30))
        ell[k, k] = dk
        if k + 1 < n:
            ell[k + 1:, k] = (c[k + 1:, k] - ell[k + 1:, :k] @ ell[k, :k]) / dk
        hat = (u[k] - float(ell[k, :k] @ y[:k])) / dk
        ek = float(ndtr(hat))
        if hat >= 40.0:
            y[k] = 0.0
        elif ek > 1e-300:
            # mean of a standard normal truncated to (-inf, hat]
            y[k] = -math.exp(-0.5 * hat * hat) / (math.sqrt(2.0 * math.pi) * ek)
        else:
            y[k] = max(hat, -40.0)
    return ell, u


def _sov_mean(ell, u, pts):
    """Average of the separation-of-variables integrand over unit-cube points."""
    n = len(u)
    e = np.full(pts.shape[0], float(ndtr(u[0] / ell[0, 0])))
    pv = e.copy()
    y = np.empty((n - 1, pts.shape[0]))
    for i in range(1, n):
        z = np.clip(e * pts[:, i - 1], 1e-300, 1.0 - 1e-16)
        y[i - 1] = np.clip(ndtri(z), -40.0, 40.0)
        e = ndtr((u[i] - ell[i, :i] @ y[:i]) / ell[i, i])
        pv = pv * e
    return float(pv.mean())


def _qmc_cdf(corr, z, tol, seed, max_points):
    """Quasi-Monte Carlo :func:`_rectangle_cdf` for three or more dimensions.

    Each refinement round draws ``_QMC_BATCHES`` scrambled Sobol point sets
    from one generator seeded with ``seed`` and evaluates every row not yet
    within ``tol`` on them.  Each scramble alone gives an unbiased estimate,
    so every row keeps its own error estimate (Owen 1997).  The point cap is
    reached by all rows in the same round; the first row still above ``tol``
    then raises.
    """
    # Imported here: scipy.stats takes longer to import than everything
    # else garma loads together, and only this path needs it.
    from scipy.stats import qmc

    factors = [_ordered_cholesky(corr, row) for row in z]
    rng = np.random.default_rng(seed)
    results = {}
    exponent = 10
    total = 0
    while len(results) < len(factors):
        todo = [row for row in range(len(factors)) if row not in results]
        engines = [qmc.Sobol(d=corr.shape[0] - 1, scramble=True, seed=rng)
                   for _ in range(_QMC_BATCHES)]
        estimates = np.empty((len(todo), _QMC_BATCHES))
        for j, engine in enumerate(engines):
            pts = engine.random_base2(exponent)
            for i, row in enumerate(todo):
                estimates[i, j] = _sov_mean(*factors[row], pts)
        total += _QMC_BATCHES << exponent
        for row, est in zip(todo, estimates):
            value = float(est.mean())
            err = float(est.std(ddof=1) / math.sqrt(_QMC_BATCHES))
            if err <= tol:
                results[row] = CdfResult(value=min(max(value, 0.0), 1.0),
                                         error_estimate=err, method="qmc")
            elif total + (_QMC_BATCHES << (exponent + 2)) > max_points:
                raise ToleranceNotReachedError(value, err)
        exponent += 2
    return [results[row] for row in range(len(factors))]


def _rectangle_cdf(dev, cov, tol, seed, max_points):
    """P(X - mean <= dev) for X ~ N(mean, cov), one :class:`CdfResult` per
    row of the finite matrix ``dev``.

    One dimension is the normal CDF, two a Gauss-Legendre quadrature, three
    or more quasi-Monte Carlo on point sets shared by all rows.
    """
    var = np.diag(cov)
    if not np.all(var > 0.0):
        raise NotPositiveDefiniteError("covariance has a non-positive diagonal entry")
    sd = np.sqrt(var)
    z = dev / sd
    if sd.size == 1:
        return [CdfResult(value=v, error_estimate=1e-16, method="closed_form_1d")
                for v in ndtr(z[:, 0])]
    corr = _cov_to_corr(cov)
    if sd.size == 2:
        rho = float(np.clip(corr[0, 1], -1.0, 1.0))
        return [CdfResult(value=_bvn_upper(-h, -k, rho), error_estimate=1e-14,
                          method="quadrature_2d")
                for h, k in z.tolist()]
    return _qmc_cdf(corr, z, tol, seed, max_points)


def mvn_cdf(upper, params: GaussianParams, tol: float = 1e-5, seed=DEFAULT_CDF_SEED,
            max_points: int = _DEFAULT_MAX_POINTS) -> CdfResult:
    """P(X <= upper), componentwise, for X ~ N(mean, cov).

    ``+inf`` components are dropped (they do not constrain), and any ``-inf``
    component makes the probability exactly 0.  One dimension uses the normal
    CDF, two use deterministic quadrature, three or more use seeded randomized
    quasi-Monte Carlo iterated until the estimated standard error is at most
    ``tol`` or ``max_points`` integrand evaluations have been spent.  The
    default seed is a fixed documented constant so repeated calls agree;
    pass ``seed=None`` for a fresh nondeterministic stream.

    Raises
    ------
    ToleranceNotReachedError
        If the point cap is hit first; the best estimate and its error ride
        along on the exception.
    """
    p = params if isinstance(params, GaussianParams) else GaussianParams(*params)
    u = np.atleast_1d(np.asarray(upper, dtype=float))
    if u.ndim != 1 or u.shape[0] != p.dim:
        raise DimensionMismatchError(
            f"upper has shape {u.shape}, distribution has dimension {p.dim}"
        )
    if np.any(np.isnan(u)):
        raise InvalidParamError("upper bounds must not be NaN")
    if not tol > 0.0:
        raise InvalidParamError(f"tol must be > 0, got {tol!r}")
    if np.any(u == -np.inf):
        return CdfResult(value=0.0, error_estimate=0.0, method="closed_form_1d")
    keep = np.nonzero(np.isfinite(u))[0]
    if keep.size == 0:
        return CdfResult(value=1.0, error_estimate=0.0, method="closed_form_1d")
    dev = (u[keep] - p.mean[keep])[None, :]
    return _rectangle_cdf(dev, p.cov[np.ix_(keep, keep)], tol, seed, max_points)[0]


def _sample(mean, factor, count, seed):
    z = np.random.default_rng(seed).standard_normal((count, factor.shape[0]))
    return mean + z @ factor.T


def sample(params: GaussianParams, count: int, seed=None) -> np.ndarray:
    """Draw ``count`` rows from N(mean, cov), reproducibly for a given seed."""
    p = params if isinstance(params, GaussianParams) else GaussianParams(*params)
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise InvalidParamError(f"count must be a non-negative integer, got {count!r}")
    return _sample(p.mean, cholesky(p.cov), int(count), seed)
