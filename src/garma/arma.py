"""Stationary Gaussian ARMA models: parameters, transfer-function weights,
autocovariance, and variance matrices.

The model for a series ``y`` with mean ``mu`` and innovations of variance
``error_var`` is

    y[t] - mu = sum_i ar[i] * (y[t-i] - mu) + e[t] + sum_j ma[j] * e[t-j]

Stationarity requires every root of the AR characteristic polynomial
``1 - ar[0]*x - ... - ar[p-1]*x**p`` to lie strictly outside the unit circle.
Under that condition the series is a moving average of infinite order whose
weights (``psi``) decay geometrically, and all covariances follow from them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .conditioning import CondPattern
from .errors import (
    AllConditionedError,
    DimensionMismatchError,
    InvalidParamError,
    NearUnitRootWarning,
    NonStationaryError,
    SharedRootWarning,
)
from .mvn import _free_moments

__all__ = [
    "ArmaSpec",
    "PsiWeights",
    "AcvSequence",
    "VarianceMatrix",
    "validate_stationary",
    "psi_weights",
    "autocovariance",
    "acf_vector",
    "variance_matrix",
]

# Roots this close to the unit circle trigger a conditioning warning.
_NEAR_UNIT_MARGIN = 1e-6
# AR and MA roots closer than this are reported as shared.
_SHARED_ROOT_TOL = 1e-8
# Default bound on the absolute tail sum of the truncated psi sequence.
DEFAULT_PSI_TOL = 1e-14
# Hard cap on the truncation index; beyond this the model is numerically
# indistinguishable from a unit-root model at the requested tolerance.
_MAX_PSI_TERMS = 1 << 24


def _coeff_tuple(values, name):
    if values is None:
        return ()
    arr = np.atleast_1d(np.asarray(values, dtype=float))
    if arr.ndim != 1:
        raise InvalidParamError(f"{name} must be a one-dimensional sequence")
    if not np.all(np.isfinite(arr)):
        raise InvalidParamError(f"{name} coefficients must all be finite")
    return tuple(arr.tolist())


@dataclass(frozen=True)
class ArmaSpec:
    """Parameters of a Gaussian ARMA(p, q) model.

    Parameters
    ----------
    ar : sequence of float
        Autoregressive coefficients; empty for a pure moving average.
    ma : sequence of float
        Moving-average coefficients; empty for a pure autoregression.
    mean : float
        Stationary mean of the series.
    error_var : float
        Variance of the innovations; must be strictly positive.
    """

    ar: tuple = ()
    ma: tuple = ()
    mean: float = 0.0
    error_var: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "ar", _coeff_tuple(self.ar, "ar"))
        object.__setattr__(self, "ma", _coeff_tuple(self.ma, "ma"))
        mean = float(self.mean)
        error_var = float(self.error_var)
        if not math.isfinite(mean):
            raise InvalidParamError("mean must be finite")
        if not math.isfinite(error_var) or error_var <= 0.0:
            raise InvalidParamError(f"error_var must be > 0, got {error_var!r}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "error_var", error_var)

    @property
    def p(self) -> int:
        return len(self.ar)

    @property
    def q(self) -> int:
        return len(self.ma)


@dataclass(frozen=True)
class PsiWeights:
    """Truncated infinite-order moving-average weights.

    ``weights[0]`` is always 1.  ``tail_bound`` is a certified upper bound on
    ``sum(|psi_k|)`` over all truncated indices ``k > truncation_index``.
    """

    weights: np.ndarray
    truncation_index: int
    tail_bound: float

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)


@dataclass(frozen=True)
class AcvSequence:
    """Autocovariances (or autocorrelations) at lags ``0 .. len(values)-1``."""

    values: np.ndarray
    is_correlation: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def lag_count(self) -> int:
        return len(self.values)

    @property
    def labels(self):
        return [f"Lag[{k}]" for k in range(len(self.values))]

    def __str__(self):
        width = max(len(lab) for lab in self.labels) + 2
        head = "".join(lab.rjust(width) for lab in self.labels)
        body = "".join(f"{v:{width}.7f}" for v in self.values)
        return head + "\n" + body


@dataclass(frozen=True)
class VarianceMatrix:
    """A (possibly conditional) variance or correlation matrix.

    ``index_labels`` are the 1-based time indices of the retained free
    positions, so conditional matrices remain attributable to the original
    series layout.
    """

    entries: np.ndarray
    index_labels: tuple

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)
        object.__setattr__(self, "index_labels", tuple(int(i) for i in self.index_labels))

    @property
    def labels(self):
        return [f"Time[{i}]" for i in self.index_labels]


def _poly_roots(coeffs):
    """Roots of ``1 + coeffs[0]*x + ... + coeffs[k-1]*x**k`` via the companion
    matrix; the AR polynomial is ``_poly_roots(-ar)``.

    Trailing zero coefficients are trimmed first, so they reduce the degree
    instead of producing spurious infinite roots."""
    coeffs = np.concatenate(([1.0], np.asarray(coeffs, dtype=float)))
    nz = np.nonzero(coeffs)[0]
    coeffs = coeffs[: nz[-1] + 1]
    if len(coeffs) == 1:
        return np.empty(0, dtype=complex)
    return np.polynomial.polynomial.polyroots(coeffs)


def validate_stationary(spec: ArmaSpec) -> np.ndarray:
    """Check stationarity of ``spec`` and return the AR root moduli.

    Returns
    -------
    numpy.ndarray
        Moduli of the roots of the AR characteristic polynomial (empty for a
        pure moving average).  All strictly exceed 1 on success.

    Raises
    ------
    NonStationaryError
        If any root modulus is <= 1.  The offending minimum is attached.
    """
    if not isinstance(spec, ArmaSpec):
        spec = ArmaSpec(**spec) if isinstance(spec, dict) else ArmaSpec(*spec)
    roots = _poly_roots(-np.asarray(spec.ar, dtype=float))
    moduli = np.abs(roots)
    if moduli.size:
        min_mod = float(moduli.min())
        if min_mod <= 1.0:
            raise NonStationaryError(min_mod)
        if min_mod < 1.0 + _NEAR_UNIT_MARGIN:
            warnings.warn(
                f"AR root modulus {min_mod:.12g} is within {_NEAR_UNIT_MARGIN:g} "
                "of the unit circle; results may be ill-conditioned",
                NearUnitRootWarning,
                stacklevel=2,
            )
    return moduli


def _warn_shared_roots(spec):
    ar_roots = _poly_roots(-np.asarray(spec.ar, dtype=float))
    if not ar_roots.size or not spec.q:
        return
    ma_roots = _poly_roots(spec.ma)
    if not ma_roots.size:
        return
    dist = np.abs(ar_roots[:, None] - ma_roots[None, :])
    if dist.min() < _SHARED_ROOT_TOL:
        warnings.warn(
            "AR and MA polynomials share a root (within "
            f"{_SHARED_ROOT_TOL:g}); the model is over-parameterised but "
            "computation proceeds",
            SharedRootWarning,
            stacklevel=3,
        )


def psi_weights(spec: ArmaSpec, tol: float = DEFAULT_PSI_TOL) -> PsiWeights:
    """Moving-average weights of the stationary model, truncated so that the
    absolute tail sum is provably below ``tol``.

    The weights satisfy ``psi[0] = 1`` and, for ``k >= 1``,

        psi[k] = ma[k-1] * (k <= q) + sum_{i=1..min(k,p)} ar[i-1] * psi[k-i]

    The truncation index is certified by a Cauchy bound: for any radius ``r``
    between 1 and the smallest AR root modulus, ``|psi_k| <= M(r) / r**k``
    with ``M(r)`` bounding the transfer function on the circle of radius
    ``r``, so the tail beyond ``K`` is at most ``M(r) * r**-K / (r - 1)``.
    """
    if not (isinstance(tol, (int, float)) and tol > 0.0):
        raise InvalidParamError(f"tol must be > 0, got {tol!r}")
    moduli = validate_stationary(spec)
    _warn_shared_roots(spec)

    phi = np.asarray(spec.ar, dtype=float)
    theta = np.asarray(spec.ma, dtype=float)
    p, q = spec.p, spec.q

    if moduli.size == 0:
        # Pure moving average (possibly with all-zero AR coefficients): the
        # weights are exact and there is no tail.
        weights = np.concatenate(([1.0], theta))
        return PsiWeights(weights=weights, truncation_index=q, tail_bound=0.0)

    rho_min = float(moduli.min())
    r = min(0.5 * (1.0 + rho_min), 2.0)
    # Bound the MA polynomial on |x| = r and the AR polynomial away from 0.
    log_num = math.log(1.0 + float(np.abs(theta) @ r ** np.arange(1, q + 1))) if q else 0.0
    log_den = float(np.sum(np.log1p(-r / moduli)))
    log_m = log_num - log_den
    log_r = math.log(r)
    log_tol = math.log(tol)
    log_gap = math.log(r - 1.0)

    trunc = max(p, q, 8)
    while log_m - trunc * log_r - log_gap > log_tol:
        trunc *= 2
        if trunc > _MAX_PSI_TERMS:
            raise InvalidParamError(
                "model is too close to the unit circle to reach the requested "
                f"tail tolerance {tol:g} within {_MAX_PSI_TERMS} terms"
            )
    tail_bound = math.exp(log_m - trunc * log_r - log_gap)

    weights = np.zeros(trunc + 1)
    weights[0] = 1.0
    for k in range(1, trunc + 1):
        acc = theta[k - 1] if k <= q else 0.0
        mk = min(k, p)
        if mk:
            acc += phi[:mk] @ weights[k - mk:k][::-1]
        weights[k] = acc
    return PsiWeights(weights=weights, truncation_index=trunc, tail_bound=tail_bound)


def autocovariance(spec: ArmaSpec, max_lag: int, rel_tol: float = DEFAULT_PSI_TOL) -> AcvSequence:
    """Autocovariances ``gamma(0) .. gamma(max_lag)`` of the stationary model.

    Each value is ``error_var * sum_{i>=0} psi[i] * psi[i+lag]`` computed from
    the truncated weights; the truncation tolerance is tightened until the
    certified error is below ``rel_tol * gamma(0)``.
    """
    if not isinstance(max_lag, (int, np.integer)) or max_lag < 0:
        raise InvalidParamError(f"max_lag must be a non-negative integer, got {max_lag!r}")
    if not rel_tol > 0.0:
        raise InvalidParamError(f"rel_tol must be > 0, got {rel_tol!r}")

    tol = rel_tol
    for _ in range(4):
        pw = psi_weights(spec, tol)
        w = pw.weights
        a_max = max(float(np.max(np.abs(w))), pw.tail_bound)
        sum_sq = float(w @ w)
        # Truncation changes each lag sum by at most a_max * tail.
        if a_max * pw.tail_bound <= rel_tol * sum_sq:
            break
        tol = min(tol / 2.0, rel_tol * sum_sq / (2.0 * a_max))
    trunc = pw.truncation_index
    lags = np.arange(max_lag + 1)
    gamma = np.zeros(max_lag + 1)
    for ell in lags[lags <= trunc]:
        gamma[ell] = w[: trunc + 1 - ell] @ w[ell:]
    return AcvSequence(values=spec.error_var * gamma, is_correlation=False)


def acf_vector(n: int, spec: ArmaSpec, corr: bool = False) -> AcvSequence:
    """Autocovariance (or autocorrelation, when ``corr``) at lags 0..n-1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParamError(f"n must be a positive integer, got {n!r}")
    acv = autocovariance(spec, int(n) - 1)
    if not corr:
        return acv
    return AcvSequence(values=acv.values / acv.values[0], is_correlation=True)


def _cov_to_corr(entries):
    d = np.sqrt(np.diag(entries))
    out = entries / np.outer(d, d)
    np.fill_diagonal(out, 1.0)
    return out


def variance_matrix(n: int, spec: ArmaSpec, cond=None, corr: bool = False) -> VarianceMatrix:
    """Variance (or correlation) matrix of ``n`` consecutive observations.

    Without ``cond`` this is the symmetric Toeplitz matrix with first row
    ``gamma(0) .. gamma(n-1)``.  With ``cond`` (a :class:`CondPattern` of
    length ``n``) marginalised positions are dropped and the conditional
    variance of the free positions given the conditioning positions is
    returned.  The conditional variance of a Gaussian does not depend on the
    conditioning values, so none are needed here.

    Raises
    ------
    AllConditionedError
        If no free position remains.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParamError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    acv = autocovariance(spec, n - 1)
    full = toeplitz(acv.values)
    if cond is None:
        entries = _cov_to_corr(full) if corr else full
        return VarianceMatrix(entries=entries, index_labels=range(1, n + 1))

    if not isinstance(cond, CondPattern):
        raise InvalidParamError("cond must be a CondPattern (see build_pattern)")
    if len(cond.state) != n:
        raise DimensionMismatchError(
            f"cond pattern has length {len(cond.state)} but n is {n}"
        )
    if not cond.free_mask.any():
        raise AllConditionedError(
            "every retained position is a conditioning position; "
            "no free position remains"
        )
    free_idx, _, entries = _free_moments(np.zeros(n), full, cond.state, np.zeros((1, n)))
    if corr:
        entries = _cov_to_corr(entries)
    return VarianceMatrix(entries=entries, index_labels=free_idx + 1)
