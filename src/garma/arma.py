"""Stationary Gaussian ARMA models: parameters, transfer-function weights,
autocovariance, and variance matrices.

The model for a series ``y`` with mean ``mu`` and innovations of variance
``error_var`` is

    y[t] - mu = sum_i ar[i] * (y[t-i] - mu) + e[t] + sum_j ma[j] * e[t-j]

Stationarity requires every root of the AR characteristic polynomial
``1 - ar[0]*x - ... - ar[p-1]*x**p`` to lie strictly outside the unit circle.
Under that condition the series is a moving average of infinite order whose
weights (``psi``) decay geometrically.  The autocovariances are computed
exactly from the AR and MA coefficients (a small linear system and the AR
recursion); the ``psi`` weights only certify where their tail may be set to
zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz

from .conditioning import _require_free
from .errors import (
    InvalidParamError,
    NearUnitRootWarning,
    NonStationaryError,
    SharedRootWarning,
)
from .mvn import _cov_to_corr, _free_moments

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
# Refinement steps allowed for the autocovariance system before the model is
# declared too close to the unit circle for double precision.
_MAX_REFINE_STEPS = 16


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
    InvalidParamError
        If ``spec`` is not an :class:`ArmaSpec`.
    NonStationaryError
        If any root modulus is <= 1.  The offending minimum is attached.
    """
    if not isinstance(spec, ArmaSpec):
        raise InvalidParamError(f"spec must be an ArmaSpec, got {type(spec).__name__}")
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


def _warn_shared_roots(spec, moduli):
    """Warn when the AR and MA polynomials share a root.

    ``moduli`` are the AR root moduli from :func:`validate_stationary`.  Two
    roots closer than the tolerance have moduli closer than it too, so the AR
    roots are solved for again only when some MA root's modulus is that close
    to one of them.
    """
    if not moduli.size or not spec.q:
        return
    ma_roots = _poly_roots(spec.ma)
    if not ma_roots.size or np.abs(np.abs(ma_roots)[:, None] - moduli).min() >= _SHARED_ROOT_TOL:
        return
    ar_roots = _poly_roots(-np.asarray(spec.ar, dtype=float))
    dist = np.abs(ar_roots[:, None] - ma_roots[None, :])
    if dist.min() < _SHARED_ROOT_TOL:
        warnings.warn(
            "AR and MA polynomials share a root (within "
            f"{_SHARED_ROOT_TOL:g}); the model is over-parameterised but "
            "computation proceeds",
            SharedRootWarning,
            stacklevel=3,
        )


def _cauchy_bound(spec, moduli):
    """Radius ``r`` and ``log M(r)`` of the Cauchy bound on the weights.

    For ``1 < r <`` the smallest AR root modulus, ``|psi_k| <= M(r) / r**k``,
    where ``M(r)`` bounds the transfer function on the circle of radius ``r``:
    the MA polynomial from above and each AR factor ``1 - x/root`` from below.
    """
    r = min(0.5 * (1.0 + float(moduli.min())), 2.0)
    if r <= 1.0:
        raise InvalidParamError(
            "an AR root lies within rounding of the unit circle; "
            "no tail bound exists in double precision"
        )
    theta = np.asarray(spec.ma, dtype=float)
    q = spec.q
    log_num = math.log(1.0 + float(np.abs(theta) @ r ** np.arange(1, q + 1))) if q else 0.0
    log_den = float(np.sum(np.log1p(-r / moduli)))
    return r, log_num - log_den


def _psi_prefix(phi, theta, count):
    """``psi[0] .. psi[count-1]`` by the recursion of :func:`psi_weights`, for
    AR and MA coefficient arrays ``phi`` and ``theta``."""
    p, q = len(phi), len(theta)
    weights = np.zeros(count)
    weights[0] = 1.0
    for k in range(1, count):
        acc = theta[k - 1] if k <= q else 0.0
        mk = min(k, p)
        if mk:
            acc += phi[:mk] @ weights[k - mk:k][::-1]
        weights[k] = acc
    return weights


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
    _warn_shared_roots(spec, moduli)

    phi = np.asarray(spec.ar, dtype=float)
    theta = np.asarray(spec.ma, dtype=float)
    p, q = spec.p, spec.q

    if moduli.size == 0:
        # Pure moving average (possibly with all-zero AR coefficients): the
        # weights are exact and there is no tail.
        weights = np.concatenate(([1.0], theta))
        return PsiWeights(weights=weights, truncation_index=q, tail_bound=0.0)

    r, log_m = _cauchy_bound(spec, moduli)
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

    weights = _psi_prefix(phi, theta, trunc + 1)
    return PsiWeights(weights=weights, truncation_index=trunc, tail_bound=tail_bound)


def _dyadic(value):
    """A finite float as ``(n, e)`` with ``value == n / 2**e`` exactly."""
    n, d = float(value).as_integer_ratio()
    return n, d.bit_length() - 1


def _dyadic_sum(terms):
    """The float nearest to the exact sum of ``(n, e)`` terms."""
    top = max(e for _, e in terms)
    return sum(n << (top - e) for n, e in terms) / (1 << top)


def _solve_head(phi, rhs):
    """Solve ``gamma(k) - sum_i phi[i-1] * gamma(|k-i|) = rhs[k]``, ``k = 0 ..
    p``, by iterative refinement with exactly computed residuals.

    Rounding in the factorisation is amplified by the condition number of the
    system, which grows as AR roots approach the unit circle (about ``1/d**3``
    for a double root at distance ``d``).  The residual of ``phi`` and
    ``rhs`` as given is computed exactly in integers, so each correction
    shrinks the error by roughly that condition number times machine epsilon,
    and the loop ends once a correction is below one ulp of the largest value.
    """
    p = len(phi)
    system = np.eye(p + 1)
    for k in range(p + 1):
        for i in range(1, p + 1):
            system[k, abs(k - i)] -= phi[i - 1]
    exact_phi = [_dyadic(v) for v in phi]
    exact_rhs = [_dyadic(v) for v in rhs]
    eps = np.finfo(float).eps
    try:
        inverse = np.linalg.inv(system)
        head = inverse @ rhs
        for _ in range(_MAX_REFINE_STEPS):
            x = [_dyadic(v) for v in head.tolist()]
            residual = [
                _dyadic_sum(
                    [exact_rhs[k], (-x[k][0], x[k][1])]
                    + [(a * b, e + f) for (a, e), (b, f) in
                       ((exact_phi[i - 1], x[abs(k - i)]) for i in range(1, p + 1))]
                )
                for k in range(p + 1)
            ]
            step = inverse @ residual
            head = head + step
            if np.abs(step).max() <= eps * np.abs(head).max():
                if head[0] > 0.0:
                    return head
                break
    except (np.linalg.LinAlgError, ValueError, OverflowError):
        pass
    raise InvalidParamError(
        "model is too close to the unit circle for its autocovariance "
        "system to be solved in double precision"
    )


def autocovariance(spec: ArmaSpec, max_lag: int, rel_tol: float = DEFAULT_PSI_TOL) -> AcvSequence:
    """Autocovariances ``gamma(0) .. gamma(max_lag)`` of the stationary model.

    With ``theta[0] = 1`` and ``c[k] = error_var * sum_{j=k..q} theta[j] *
    psi[j-k]`` (zero for ``k > q``), the autocovariances satisfy

        gamma(k) - sum_{i=1..p} ar[i-1] * gamma(|k-i|) = c[k],   k >= 0.

    The equations for ``k = 0 .. p`` form a ``(p+1)``-square linear system,
    solved for ``gamma(0) .. gamma(p)``; higher lags follow from the same
    equation as a forward recursion.  Only ``psi[0] .. psi[q]`` are needed,
    so nothing is truncated before the tail (McLeod 1975; Brockwell & Davis,
    section 3.3).

    The recursion stops at the first lag ``K`` where the Cauchy bound of
    :func:`psi_weights` certifies ``|gamma(k)| <= error_var * M(r)**2 *
    r**-k / (1 - r**-2) < rel_tol * gamma(0)`` for every ``k >= K``; lags
    past ``K``, and any earlier lag whose computed magnitude is below
    ``rel_tol * gamma(0)``, are exact zeros, so the output holds no
    subnormal numbers (a pure moving average has ``K = q``).  Each of these
    choices depends only on the model, ``rel_tol`` and the lag, so a shorter
    call returns a bit-identical prefix of a longer one.

    ``rel_tol * gamma(0)`` bounds the error of the zeroed lags.  The system
    is solved by iterative refinement with exact residuals, so ``gamma(0) ..
    gamma(p)`` solve it to about one ulp even for AR roots near the unit
    circle, where a plain solve loses digits (a double root ``1e-5`` from the
    circle still refines; the refinement stops converging near ``1e-6``, and
    such a model raises :class:`InvalidParamError`).  The forward recursion
    adds rounding that grows slowly with the lag.
    """
    if not isinstance(max_lag, (int, np.integer)) or max_lag < 0:
        raise InvalidParamError(f"max_lag must be a non-negative integer, got {max_lag!r}")
    if not 0.0 < rel_tol < math.inf:
        raise InvalidParamError(f"rel_tol must be finite and > 0, got {rel_tol!r}")
    moduli = validate_stationary(spec)
    _warn_shared_roots(spec, moduli)
    return AcvSequence(values=_acvf(spec, int(max_lag), moduli, rel_tol), is_correlation=False)


def _acvf(spec, max_lag, moduli, rel_tol=DEFAULT_PSI_TOL):
    """The values of :func:`autocovariance`, for a model whose AR root moduli
    :func:`validate_stationary` has returned."""
    phi = spec.ar
    p, q = spec.p, spec.q
    theta = np.concatenate(([1.0], spec.ma))
    psi = _psi_prefix(np.asarray(phi), theta[1:], q + 1)
    c = [float(theta[k:] @ psi[: q + 1 - k]) for k in range(q + 1)]

    rhs = np.zeros(p + 1)
    rhs[: min(p, q) + 1] = c[: p + 1]
    head = _solve_head(phi, rhs)

    if moduli.size == 0:
        flush = q
    else:
        r, log_m = _cauchy_bound(spec, moduli)
        excess = 2.0 * log_m - math.log1p(-(r ** -2)) - math.log(rel_tol * head[0])
        flush = max(0, math.floor(excess / math.log(r)) + 1)
    stop = min(max_lag, flush)

    g = head[: stop + 1].tolist()
    for k in range(p + 1, stop + 1):
        acc = c[k] if k <= q else 0.0
        for i in range(1, p + 1):
            acc += phi[i - 1] * g[k - i]
        g.append(acc)
    gamma = np.zeros(max_lag + 1)
    gamma[: stop + 1] = g
    gamma[np.abs(gamma) < rel_tol * head[0]] = 0.0
    return spec.error_var * gamma


def _covariance(n, spec, moduli):
    """Toeplitz covariance of ``n`` consecutive observations of a validated
    model (see :func:`_acvf`)."""
    return toeplitz(_acvf(spec, n - 1, moduli))


def acf_vector(n: int, spec: ArmaSpec, corr: bool = False) -> AcvSequence:
    """Autocovariance (or autocorrelation, when ``corr``) at lags 0..n-1."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParamError(f"n must be a positive integer, got {n!r}")
    acv = autocovariance(spec, int(n) - 1)
    if not corr:
        return acv
    return AcvSequence(values=acv.values / acv.values[0], is_correlation=True)


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
    AllMarginalisedError
        If every position of ``cond`` is marginalised.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidParamError(f"n must be a positive integer, got {n!r}")
    n = int(n)
    moduli = validate_stationary(spec)
    _warn_shared_roots(spec, moduli)
    full = _covariance(n, spec, moduli)
    if cond is None:
        entries = _cov_to_corr(full) if corr else full
        return VarianceMatrix(entries=entries, index_labels=range(1, n + 1))

    _require_free(cond, n)
    free_idx, _, entries = _free_moments(np.zeros(n), full, cond.state, np.zeros((1, n)))
    if corr:
        entries = _cov_to_corr(entries)
    return VarianceMatrix(entries=entries, index_labels=free_idx + 1)
