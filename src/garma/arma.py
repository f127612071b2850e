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

import functools
import math
from array import array
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._memo import memoised
from .conditioning import _require_free
from .errors import (
    InvalidParamError,
    NearUnitRootWarning,
    NonStationaryError,
    SharedRootWarning,
    _check_count,
    _check_tol,
    _dense_memory_error,
    _set_fields,
    _table,
    _warn,
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
# Bytes the memo of checked models holds at most; a model of state size r
# takes 48 r**2 bytes for its two state-space forms, so r = 148 no longer fits.
_MODEL_MEMO_BYTES = 1 << 20


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
        ar = _coeff_tuple(self.ar, "ar")
        ma = _coeff_tuple(self.ma, "ma")
        mean = float(self.mean)
        error_var = float(self.error_var)
        if not math.isfinite(mean):
            raise InvalidParamError("mean must be finite")
        if not math.isfinite(error_var) or error_var <= 0.0:
            raise InvalidParamError(f"error_var must be > 0, got {error_var!r}")
        _set_fields(self, ar=ar, ma=ma, mean=mean, error_var=error_var)

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
    ``weights`` is a read-only view, which shares memory with a float array
    passed in.
    """

    weights: np.ndarray
    truncation_index: int
    tail_bound: float

    def __post_init__(self):
        _set_fields(self, weights=np.asarray(self.weights, dtype=float))


@dataclass(frozen=True)
class AcvSequence:
    """Autocovariances (or autocorrelations) at lags ``0 .. len(values)-1``,
    as a read-only view, which shares memory with a float array passed in."""

    values: np.ndarray
    is_correlation: bool = False

    def __post_init__(self):
        _set_fields(self, values=np.asarray(self.values, dtype=float))

    @property
    def lag_count(self) -> int:
        return len(self.values)

    @property
    def labels(self):
        return [f"Lag[{k}]" for k in range(len(self.values))]

    def __str__(self):
        return _table(self.labels, self.values)


@dataclass(frozen=True)
class VarianceMatrix:
    """A (possibly conditional) variance or correlation matrix.

    ``index_labels`` are the 1-based time indices of the retained free
    positions, so conditional matrices remain attributable to the original
    series layout.  ``entries`` is a read-only view, which shares memory with
    a float array passed in: an ``n x n`` matrix is never copied.
    """

    entries: np.ndarray
    index_labels: tuple

    def __post_init__(self):
        _set_fields(self, entries=np.asarray(self.entries, dtype=float),
                    index_labels=tuple(int(i) for i in self.index_labels))

    @property
    def labels(self):
        return [f"Time[{i}]" for i in self.index_labels]


def _poly_roots(coeffs):
    """Roots of ``1 + coeffs[0]*x + ... + coeffs[k-1]*x**k`` via the companion
    matrix; the AR polynomial is ``_poly_roots(-ar)``.

    Trailing zero coefficients are trimmed first, so they reduce the degree
    instead of producing spurious infinite roots; a constant has no roots."""
    coeffs = np.concatenate(([1.0], np.asarray(coeffs, dtype=float)))
    nz = np.nonzero(coeffs)[0]
    return np.polynomial.polynomial.polyroots(coeffs[: nz[-1] + 1])


def validate_stationary(spec: ArmaSpec) -> np.ndarray:
    """Check the model ``spec``, the one check of a model that every function
    taking an :class:`ArmaSpec` runs, and return its AR root moduli.

    Returns
    -------
    numpy.ndarray
        Moduli of the roots of the AR characteristic polynomial (empty for a
        pure moving average).  All strictly exceed 1 on success.

    Raises
    ------
    InvalidParamError
        If ``spec`` is not an :class:`ArmaSpec`, or an AR root lies within
        rounding of the unit circle, leaving no radius for a tail bound.
    NonStationaryError
        If any root modulus is <= 1.  The offending minimum is attached.

    Warns
    -----
    NearUnitRootWarning, SharedRootWarning
        If an AR root is within 1e-6 of the unit circle, or within 1e-8 of an
        MA root.
    """
    return _check_model(spec).moduli.copy()


def _check_model(spec):
    """:func:`validate_stationary`'s refusals and warnings; returns the :class:`_Model`."""
    if not isinstance(spec, ArmaSpec):
        raise InvalidParamError(f"spec must be an ArmaSpec, got {type(spec).__name__}")
    model = _model(spec)
    if model.min_modulus < 1.0 + _NEAR_UNIT_MARGIN:
        _warn(NearUnitRootWarning(
            f"AR root modulus {model.min_modulus:.12g} is within {_NEAR_UNIT_MARGIN:g} "
            "of the unit circle; results may be ill-conditioned"))
    if model.shared:
        _warn(SharedRootWarning(
            "AR and MA polynomials share a root (within "
            f"{_SHARED_ROOT_TOL:g}); the model is over-parameterised but "
            "computation proceeds"))
    return model


@memoised(_MODEL_MEMO_BYTES, lambda spec: (
    spec.p, np.array((*spec.ar, *spec.ma, spec.error_var)).tobytes()))
def _model(spec):
    """The :class:`_Model` of a stationary ``spec``, memoised on the bits of its
    coefficients and innovation variance; a refused model is not stored."""
    roots = _poly_roots(-np.asarray(spec.ar, dtype=float))
    moduli = np.abs(roots)
    if moduli.size:
        min_mod = float(moduli.min())
        if min_mod <= 1.0:
            raise NonStationaryError(min_mod)
        if 0.5 * (1.0 + min_mod) <= 1.0:
            raise InvalidParamError(
                "an AR root lies within rounding of the unit circle; "
                "no tail bound exists in double precision"
            )
    ma_roots = _poly_roots(spec.ma)
    shared = np.abs(roots[:, None] - ma_roots).min(initial=math.inf) < _SHARED_ROOT_TOL
    return _Model(replace(spec, mean=0.0), _read_only(moduli), _read_only(ma_roots), bool(shared))


def _read_only(a):
    a.setflags(write=False)
    return a


class _Model:
    """A stationary ``spec`` (its mean set to 0, which no set-up step reads)
    and the set-up its engines share.  The autocovariance ``head`` and the
    state-space forms are made on first use; ``nbytes`` counts them from the
    start.  Every array is read-only."""

    def __init__(self, spec, moduli, ma_roots=None, shared=False):
        self.spec, self.moduli, self.ma_roots, self.shared = spec, moduli, ma_roots, shared
        self.min_modulus = float(moduli.min(initial=math.inf))
        self.bound = _cauchy_bound(spec, moduli) if moduli.size else None
        # Two forms of 3 r**2 floats, the roots (MA roots may be complex) and the head.
        r = max(spec.p, spec.q + 1)
        self.nbytes = 8 * (6 * r * r + 2 * spec.p + 3 * spec.q + 2)

    @functools.cached_property
    def head(self):
        """``c[0] .. c[q]`` and the solved ``gamma(0) .. gamma(p)`` of
        :func:`autocovariance`, for unit innovation variance."""
        phi, p, q = self.spec.ar, self.spec.p, self.spec.q
        theta = np.concatenate(([1.0], self.spec.ma))
        psi = np.array(_ar_recursion(phi, [1.0, *self.spec.ma], 1))
        c = tuple(float(theta[k:] @ psi[: q + 1 - k]) for k in range(q + 1))
        rhs = np.zeros(p + 1)
        rhs[: min(p, q) + 1] = c[: p + 1]
        return c, _read_only(_solve_head(phi, rhs))

    @functools.cached_property
    def forms(self):
        """Harvey's state-space form, :func:`garma._statespace._state_space`."""
        from ._statespace import _state_space  # here, as _statespace imports arma
        return tuple(map(_read_only, _state_space(self)))

    @functools.cached_property
    def invertible_forms(self):
        """The form of :func:`_invertible_ma`, which has the same law."""
        from ._statespace import _state_space
        inverted = _invertible_ma(self.spec, self.ma_roots)
        if inverted is self.spec:
            return self.forms
        return tuple(map(_read_only, _state_space(_Model(inverted, self.moduli))))


def _invertible_ma(spec, roots):
    """``spec`` with every MA root inside the unit circle (``roots`` are its MA
    roots) moved to its reciprocal, and ``error_var`` scaled so that the
    spectral density, and with it the law of the series, stays the same.

    The inside roots are multiplied out into one factor, which is reversed;
    its coefficients stay accurate even when those roots cluster.
    """
    inside = roots[np.abs(roots) < 1.0]
    if not inside.size:
        return spec
    poly = np.polynomial.polynomial
    factor = poly.polyfromroots(inside).real
    factor /= factor[0]
    rest = poly.polydiv(np.concatenate(([1.0], spec.ma)), factor)[0]
    ma = poly.polymul(factor[::-1] / factor[-1], rest)[1:spec.q + 1]
    return ArmaSpec(ar=spec.ar, ma=ma, mean=spec.mean, error_var=spec.error_var * factor[-1] ** 2)


def _cauchy_bound(spec, moduli):
    """Radius ``r`` and ``log M(r)`` of the Cauchy bound on the weights.

    For ``1 < r <`` the smallest AR root modulus, ``|psi_k| <= M(r) / r**k``,
    where ``M(r)`` bounds the transfer function on the circle of radius ``r``:
    the MA polynomial from above and each AR factor ``1 - x/root`` from below.
    ``r`` is the midpoint of 1 and that modulus, uncapped, so far roots give
    an early truncation; the MA sum is taken in logs, so it cannot overflow.
    Precondition: ``moduli`` is non-empty, and :func:`validate_stationary`
    has refused any model whose ``r`` rounds to 1.
    """
    r = 0.5 * (1.0 + float(moduli.min()))
    logs = [0.0] + [math.log(abs(t)) + j * math.log(r) for j, t in enumerate(spec.ma, 1) if t]
    top = max(logs)
    log_num = top + math.log(sum(math.exp(v - top) for v in logs))
    return r, log_num - float(np.sum(np.log1p(-r / moduli)))


def _first_lag_below(log_bound, log_r, log_tol):
    """The first ``k >= 0`` with ``log_bound - k * log_r < log_tol``, ``log_r > 0``."""
    return max(0, math.floor((log_bound - log_tol) / log_r) + 1)


def _ar_recursion(phi, x, start):
    """``x[k] += sum_{i=1..min(k,p)} phi[i-1] * x[k-i]`` for ``k = start ..
    len(x)-1``, in place on ``x``, a list or ``array("d")``; from ``1, theta[1]
    .. theta[q], 0, ...`` and ``start = 1`` it gives :func:`psi_weights`."""
    taps = tuple(enumerate(phi, 1))
    for k in range(start, len(x)):
        acc = x[k]
        for i, c in taps[:k] if k < len(taps) else taps:
            acc += c * x[k - i]
        x[k] = acc
    return x


def psi_weights(spec: ArmaSpec, tol: float = DEFAULT_PSI_TOL) -> PsiWeights:
    """Moving-average weights of the stationary model, truncated so that the
    absolute tail sum is provably below ``tol``.

    The weights satisfy ``psi[0] = 1`` and, for ``k >= 1``,

        psi[k] = ma[k-1] * (k <= q) + sum_{i=1..min(k,p)} ar[i-1] * psi[k-i]

    The truncation index is certified by a Cauchy bound: for any radius ``r``
    between 1 and the smallest AR root modulus, ``|psi_k| <= M(r) / r**k``
    with ``M(r)`` bounding the transfer function on the circle of radius
    ``r``, so the tail beyond ``K`` is at most ``M(r) * r**-K / (r - 1)``.
    ``K`` is the first index where that bound is below ``tol``, solved for
    in closed form, but never less than ``max(p, q)``.
    """
    tol = _check_tol("tol", tol)
    model = _check_model(spec)

    # A pure moving average (or one with all-zero AR coefficients) has no tail.
    trunc, log_tail = spec.q, -math.inf
    if model.bound is not None:
        r, log_m = model.bound
        log_r, log_scale = math.log(r), log_m - math.log(r - 1.0)
        trunc = max(spec.p, spec.q, _first_lag_below(log_scale, log_r, math.log(tol)))
        log_tail = log_scale - trunc * log_r
    if trunc > _MAX_PSI_TERMS:
        raise InvalidParamError(
            "model is too close to the unit circle to reach the requested "
            f"tail tolerance {tol:g} within {_MAX_PSI_TERMS} terms"
        )
    # Eight bytes a term, as numpy would take, where a list of floats takes 32.
    zeros = array("d", bytes(8 * (trunc - spec.q)))
    weights = _ar_recursion(spec.ar, array("d", [1.0, *spec.ma]) + zeros, 1)
    return PsiWeights(weights=weights, truncation_index=trunc, tail_bound=math.exp(log_tail))


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
    max_lag = _check_count("max_lag", max_lag, 0)
    rel_tol = _check_tol("rel_tol", rel_tol)
    return AcvSequence(values=_acvf(_check_model(spec), max_lag, rel_tol), is_correlation=False)


def _acvf(model, max_lag, rel_tol=DEFAULT_PSI_TOL):
    """The values of :func:`autocovariance` of a :class:`_Model`."""
    spec = model.spec
    phi, p, q = spec.ar, spec.p, spec.q
    c, head = model.head

    flush = q  # a pure moving average ends at lag q
    if model.bound is not None:
        r, log_m = model.bound
        log_bound = 2.0 * log_m - math.log1p(-(r ** -2))
        flush = _first_lag_below(log_bound, math.log(r), math.log(rel_tol * head[0]))
    stop = min(max_lag, flush)

    # c[k] for k <= q, zero beyond, under the solved head gamma(0) .. gamma(p).
    g = (list(c) + [0.0] * stop)[: stop + 1]
    g[: p + 1] = head[: stop + 1].tolist()
    gamma = np.zeros(max_lag + 1)
    gamma[: stop + 1] = _ar_recursion(phi, g, p + 1)
    gamma[np.abs(gamma) < rel_tol * head[0]] = 0.0
    return spec.error_var * gamma


def _covariance(n, model):
    """Toeplitz covariance of ``n`` consecutive observations of a
    :class:`_Model` (see :func:`_acvf`).

    Row ``i`` is the ``n`` entries of ``gamma(n-1) .. gamma(1), gamma(0) ..
    gamma(n-1)`` from entry ``n - 1 - i`` on: a strided view of that vector,
    copied out, so the matrix costs one ``n x n`` copy and no index arrays."""
    gamma = _acvf(model, n - 1)
    mirrored = np.concatenate((gamma[::-1], gamma[1:]))
    step = mirrored.strides[0]
    try:
        return as_strided(mirrored[n - 1:], shape=(n, n), strides=(-step, step)).copy()
    except (MemoryError, ValueError):
        raise _dense_memory_error(8 * n * n, f"the {n} x {n} covariance matrix") from None


def acf_vector(n: int, spec: ArmaSpec, corr: bool = False) -> AcvSequence:
    """Autocovariance (or autocorrelation, when ``corr``) at lags 0..n-1."""
    acv = autocovariance(spec, _check_count("n", n, 1) - 1)
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
    n = _check_count("n", n, 1)
    free_idx, entries = np.arange(n), _covariance(n, _check_model(spec))
    if cond is not None:
        _require_free(cond, n)
        free_idx, _, entries = _free_moments(np.zeros(n), entries, cond.state, np.zeros((1, n)))
    if corr:
        entries = _cov_to_corr(entries)
    return VarianceMatrix(entries=entries, index_labels=free_idx + 1)
