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

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import pickle
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from ._memo import memoised
from .conditioning import CONDITIONED, FREE, _require_free
from .errors import (
    CondOnMissingError,
    DimensionMismatchError,
    InvalidParamError,
    NotPositiveDefiniteError,
    NumericalAdjustmentWarning,
    ToleranceNotReachedError,
    _check_count,
    _check_seed,
    _check_tol,
    _dense_memory_error,
    _deviation,
    _set_fields,
    _warn,
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

# `import garma` loads numpy alone: scipy.linalg or scipy.special takes longer
# to import than a CLI command like acf takes to run.  The density, sampler,
# conditioning and 1-D and 2-D CDF need three compiled kernels, which
# :func:`_kernels` loads from scipy's extension files, falling back to the
# public imports; only a CDF with three or more free positions imports
# scipy.special, for ndtri.  No function loads scipy.stats: the quasi-Monte
# Carlo path builds its own scrambled Sobol points and reads only the
# direction-number table that scipy ships.

_LOG_2PI = math.log(2.0 * math.pi)

# Diagonal inflation schedule tried after a failed factorisation, as a
# fraction of the mean diagonal entry.
_INFLATION_EPS = (1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8)

# Documented default seed for the quasi-Monte Carlo CDF path.
DEFAULT_CDF_SEED = 1000003
_DEFAULT_MAX_POINTS = 10_000_000
_QMC_BATCHES = 10
# log2 of the points per engine of the pilot round, and the fewest of a final round.
_QMC_PILOT_EXPONENT = 6
# Points one quasi-Monte Carlo pass evaluates at most: several engines' points,
# or one block of one engine's.
_QMC_PASS_POINTS = 2**14
# Bytes the memo of scrambled engines holds at most; one round's engines take
# about 1.2 d KB in d dimensions.
_SCRAMBLE_MEMO_BYTES = 1 << 22
# Bytes the memo of unscrambled direction bits holds at most; d dimensions
# take 900 d bytes, so even the most the table has, 21,201, fit.
_SOBOL_BITS_MEMO_BYTES = 1 << 25


_Kernels = namedtuple("_Kernels", "dtbtrs dtrtrs ndtr")


@functools.lru_cache(maxsize=1)
def _kernels():
    """LAPACK's ``dtbtrs`` and ``dtrtrs`` and the normal CDF ``ndtr``, from
    scipy's extension files ``linalg/_flapack`` and ``special/_special_ufuncs``
    without the packages around them, which take hundreds of milliseconds to
    import.  Each file registers itself under its own name, so a later
    ``import scipy.linalg`` reuses it and hands out these very objects.  Where
    a file is missing or will not load (scipy 1.9 has no ``_special_ufuncs``),
    all three come from the public imports.
    """
    import scipy

    root = os.path.dirname(scipy.__file__)
    try:
        modules = []
        for name in ("linalg._flapack", "special._special_ufuncs"):
            base = os.path.join(root, *name.split("."))
            path = next(base + suffix for suffix in importlib.machinery.EXTENSION_SUFFIXES
                        if os.path.isfile(base + suffix))
            spec = importlib.util.spec_from_file_location("scipy." + name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            modules.append(module)
        flapack, special = modules
        return _Kernels(flapack.dtbtrs, flapack.dtrtrs, special.ndtr)
    except Exception:  # the public import is the supported path
        from scipy.linalg.lapack import dtbtrs, dtrtrs
        from scipy.special import ndtr

        return _Kernels(dtbtrs, dtrtrs, ndtr)


def _solve_lower(factor, rhs):
    """``factor^-1 @ rhs`` for a lower-triangular Cholesky ``factor``, by
    LAPACK's ``dtrtrs``, for a finite ``rhs``: the callers pass blocks of a
    checked covariance or deviations :func:`garma.errors._deviation` returned.
    """
    if rhs.size == 0:  # LAPACK rejects a system of order 0
        return np.zeros(rhs.shape)
    # The transpose of the C-ordered factor is an upper factor in Fortran
    # order, which LAPACK reads in place; scipy's solve_triangular makes the
    # same call.
    x, info = _kernels().dtrtrs(factor.T, rhs, lower=0, trans=1)
    if info != 0:
        raise NotPositiveDefiniteError(f"triangular solve failed: LAPACK dtrtrs info {info}")
    return x


def _symmetric(cov):
    """``cov`` as a new float matrix made exactly symmetric, ``(c + c.T) / 2``,
    once it is square, finite and symmetric within 1e-8 of its largest entry;
    a sum ``c + c.T`` that overflows is an :class:`InvalidParamError`."""
    c = np.asarray(cov, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatchError(f"covariance must be square, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise InvalidParamError("covariance entries must all be finite")
    with np.errstate(over="ignore"):
        if np.abs(c - c.T).max(initial=0.0) > 1e-8 * np.abs(c).max(initial=1.0):
            raise InvalidParamError("covariance must be symmetric")
        sym = 0.5 * (c + c.T)
    if not np.all(np.isfinite(sym)):
        raise InvalidParamError("covariance entries overflow when symmetrised")
    return sym


@dataclass(frozen=True)
class GaussianParams:
    """Mean vector and covariance matrix of a multivariate normal, as read-only
    copies, the covariance made exactly symmetric by :func:`_symmetric`."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        if mean.ndim != 1:
            raise InvalidParamError("mean must be one-dimensional")
        if not np.all(np.isfinite(mean)):
            raise InvalidParamError("mean entries must all be finite")
        cov = _symmetric(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatchError(
                f"mean has length {mean.shape[0]}, covariance is {cov.shape[0]}x{cov.shape[1]}"
            )
        _set_fields(self, mean=mean.copy(), cov=cov)

    @property
    def dim(self) -> int:
        return len(self.mean)


@dataclass(frozen=True)
class ConditionalMoments:
    """Mean and covariance of the free coordinates given the conditioned ones,
    as read-only views, which share memory with float arrays passed in."""

    cond_mean: np.ndarray
    cond_cov: np.ndarray

    def __post_init__(self):
        _set_fields(self, cond_mean=np.asarray(self.cond_mean, dtype=float),
                    cond_cov=np.asarray(self.cond_cov, dtype=float))


@dataclass(frozen=True)
class CdfResult:
    """Rectangle probability with an error estimate and the method used.

    ``method`` is one of ``closed_form_1d``, ``quadrature_2d``, or ``qmc``.
    ``error_estimate`` is one estimated standard error for the qmc method and
    a conservative accuracy bound for the deterministic methods.  ``points``
    counts the integrand evaluations the qmc method spent on the value, its
    pilot round included; a deterministic method evaluates one formula.
    """

    value: float
    error_estimate: float
    method: str
    points: int = 1

    def __post_init__(self):
        _set_fields(self, value=float(self.value), error_estimate=float(self.error_estimate))
        if not 0.0 <= self.value <= 1.0:
            raise InvalidParamError(f"probability out of range: {self.value!r}")


def _factor(c):
    """Lower Cholesky factor of a finite, exactly symmetric covariance (one
    the library built, or one :func:`_symmetric` returned).

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
        _warn(NumericalAdjustmentWarning(eps))
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
    return _factor(_symmetric(cov))


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
    factor = _factor(p.cov)
    z = _solve_lower(factor, _deviation(rows, p.mean).T)
    out = _normal_log_density(z, np.diag(factor))
    return float(out[0]) if single else out


def _normal_log_density(z, scales):
    """Gaussian log-density of whitened residuals ``z`` (a column per row), whose
    whitening factor has diagonal ``scales``; an overflow gives ``-inf``."""
    quad = np.einsum("ij,ij->j", z, z)
    return -0.5 * z.shape[0] * _LOG_2PI - float(np.log(scales).sum()) - 0.5 * quad


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
    complement, shared by all rows, then absorbs the conditioned block (0 x 0
    if none).  Returns ``(free_idx, means, cov)``, one row of means per row.
    """
    free_idx = np.nonzero(state == FREE)[0]
    cond_idx = np.nonzero(state == CONDITIONED)[0]
    # Only MemoryError: no block is larger than ``cov``, and the factor and
    # the solve raise ValueErrors of their own.
    try:
        factor = _factor(cov[np.ix_(cond_idx, cond_idx)])
        cross = _solve_lower(factor, cov[np.ix_(cond_idx, free_idx)])
        cond_cov = cov[np.ix_(free_idx, free_idx)] - cross.T @ cross
        cond_cov = 0.5 * (cond_cov + cond_cov.T)
    except MemoryError:
        c, f = cond_idx.size, free_idx.size
        what = f"the blocks of {c} conditioned and {f} free coordinates"
        raise _dense_memory_error(8 * (c * c + c * f + f * f), what) from None
    dev = _solve_lower(factor, _deviation(value_rows[:, cond_idx], mean[cond_idx]).T)
    return free_idx, mean[free_idx] + (cross.T @ dev).T, cond_cov


def conditional_moments(params: GaussianParams, pattern, values=None) -> ConditionalMoments:
    """Moments of the free coordinates given the conditioned ones.

    Marginalised coordinates are dropped first (rows and columns deleted),
    then the conditioned block is absorbed by a Schur complement.  With
    nothing conditioned the moments equal the free blocks of ``params``, in
    new arrays; the covariance is exactly symmetric either way.

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
# The 20-point Gauss-Legendre rule, moved from [-1, 1] to [0, 1].

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)
_GL_NODES, _GL_WEIGHTS = (_GL_NODES + 1.0) / 2.0, _GL_WEIGHTS / 2.0


def _bvn_cdf(z, r):
    """P(X <= z[i, 0], Y <= z[i, 1]) for each row ``i`` of ``z``, for standard
    normals with correlation ``r``, to 1e-14 absolute.

    One 20-point Gauss-Legendre rule integrates Drezner and Wesolowsky's
    (1990) single-integral form below |r| = 0.925 and Genz's (2004)
    transformed expansion from there up, with a closed form at |r| = 1 (at
    r = 0 the quadrature term is scaled by ``asin(0) = 0``).  Limits are
    clamped to +-40, past which every term is 0 or 1 in double precision.
    Each row sums its own nodes: no row depends on another.
    """
    ndtr = _kernels().ndtr
    h, k = -z.clip(-40.0, 40.0).T[:, :, None]  # Genz's P(X > h, Y > k)
    hk = h * k
    if abs(r) < 0.925:
        bvn = ndtr(-h) * ndtr(-k)
        asr = math.asin(r)
        sn = np.sin(asr * _GL_NODES)
        terms = np.exp((sn * hk - (h * h + k * k) / 2.0) / (1.0 - sn * sn))
        bvn = (terms * _GL_WEIGHTS).sum(axis=1, keepdims=True) * asr / (2.0 * math.pi) + bvn
        return bvn[:, 0].clip(0.0, 1.0)
    if r < 0.0:
        k, hk = -k, -hk
    bvn = 0.0
    if abs(r) < 1.0:
        a_sq = (1.0 - r) * (1.0 + r)
        a = math.sqrt(a_sq)
        b_sq = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        e = 1.0 - d * b_sq / 5.0
        bvn = a * np.exp(-(b_sq / a_sq + hk) / 2.0) * (
            1.0 - c * (b_sq - a_sq) * e / 3.0 + c * d * a_sq * a_sq / 5.0)
        b = np.sqrt(b_sq)
        # exp(-hk / 2) would overflow where the term it scales is negligible.
        tail = np.exp(np.minimum(-hk, 100.0) / 2.0) * math.sqrt(2.0 * math.pi) * ndtr(-b / a) * b
        bvn = bvn - np.where(-hk < 100.0, tail * (1.0 - c * b_sq * e / 3.0), 0.0)
        xs = (a * _GL_NODES) ** 2
        rs = np.sqrt(1.0 - xs)
        terms = np.exp(-(b_sq / xs + hk) / 2.0) * (
            np.exp(-hk * ((1.0 - rs) / (2.0 * (1.0 + rs)))) / rs - (1.0 + c * xs * (1.0 + d * xs)))
        bvn = -(bvn + a * (terms * _GL_WEIGHTS).sum(axis=1, keepdims=True)) / (2.0 * math.pi)
    if r > 0.0:
        bvn = bvn + ndtr(-np.maximum(h, k))
    else:
        bvn = np.maximum(0.0, ndtr(-h) - ndtr(-k)) - bvn
    return bvn[:, 0].clip(0.0, 1.0)


# --- quasi-Monte Carlo path --------------------------------------------------


def _ordered_cholesky(corr, upper):
    """Cholesky factor with variables reordered so that the most sharply
    truncated coordinates come first, which concentrates the integrand's
    variation in the leading quasi-Monte Carlo dimensions."""
    ndtr = _kernels().ndtr
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


# Scrambled Sobol points, bit for bit those of scipy.stats.qmc.Sobol(d,
# scramble=True) seeded with the same child generator: Joe and Kuo's (2008)
# direction numbers in 30 bits under Matousek's (1998) linear-matrix scramble
# with a digital shift, drawn in Gray-code order.
_SOBOL_BITS = 30
_SOBOL_POWERS = np.uint32(1) << np.arange(_SOBOL_BITS, dtype=np.uint32)
_SOBOL_EYE = np.eye(_SOBOL_BITS, dtype=np.uint32)


@functools.lru_cache(maxsize=1)
def _sobol_table():
    """Joe and Kuo's primitive polynomials and initial direction numbers, one
    row per dimension, from the table file scipy ships; reading it loads no
    scipy module beyond ``scipy`` itself."""
    import scipy

    path = os.path.join(os.path.dirname(scipy.__file__), "stats",
                        "_sobol_direction_numbers.npz")
    with np.load(path) as table:
        return table["poly"], table["vinit"]


@memoised(_SOBOL_BITS_MEMO_BYTES, lambda d: (d,))
def _sobol_bits(d):
    """Bits of the unscrambled direction numbers of the first ``d``
    dimensions as bools, ``[k, j, c]`` the ``c``-th most significant of the
    30 bits of direction ``j`` in dimension ``k``; read-only and memoised on
    ``d``.

    Bratley and Fox's (1988) recursion runs for all dimensions at once; the
    first dimension is the van der Corput sequence.
    """
    poly, vinit = _sobol_table()
    if d > poly.shape[0]:
        raise InvalidParamError(
            f"scrambled Sobol points support at most {poly.shape[0]} dimensions, "
            f"got {d}; that is at most {poly.shape[0] + 1} free positions"
        )
    p = poly[:d].astype(np.int64)
    deg = np.array([int(x).bit_length() - 1 for x in p.tolist()], dtype=np.int64)
    v = np.zeros((d, _SOBOL_BITS), dtype=np.int64)
    v[:, :vinit.shape[1]] = vinit[:d]
    for j in range(1, _SOBOL_BITS):
        late = j >= deg
        new = v[np.arange(d), np.maximum(j - deg, 0)]
        for k in range(min(j, int(deg.max()))):
            tap = late & (k < deg) & ((p >> np.maximum(deg - 1 - k, 0)) & 1 == 1)
            new = new ^ np.where(tap, v[:, j - k - 1] << (k + 1), 0)
        v[:, j] = np.where(late, new, v[:, j])
    v[0] = 1
    msb_first = _SOBOL_BITS - 1 - np.arange(_SOBOL_BITS)
    return (((v << msb_first)[:, :, None] >> msb_first) & 1).astype(bool)


def _sobol_scramble(gen, d):
    """Direction numbers ``(d, 30)`` and shift ``(d,)`` of one scrambled
    engine, both ``uint32``, drawn from ``gen`` in scipy's order: the shift
    bits, then the lower-triangular matrices, whose unit diagonal is then set.

    Each column of a matrix packs into one word, most significant bit first,
    and a scrambled direction is the XOR of the columns its bits select.
    """
    bits = _sobol_bits(d)
    shift = gen.integers(2, size=(d, _SOBOL_BITS), dtype=np.uint32) @ _SOBOL_POWERS
    draws = gen.integers(2, size=(d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32)
    columns = _SOBOL_POWERS[::-1] @ (np.tril(draws, -1) | _SOBOL_EYE)
    scrambled = np.bitwise_xor.reduce(bits * columns[:, None, :], axis=2)
    return scrambled, shift


@memoised(_SCRAMBLE_MEMO_BYTES, lambda bit_type, seq, keys, d: (
    bit_type, d, len(keys), seq.pool_size, keys[0], pickle.dumps(seq.entropy)))
def _scrambles(bit_type, seq, keys, d):
    """Directions ``(k, d, 30)`` and shifts ``(k, d)`` of the ``k`` engines
    :func:`_sobol_scramble` draws from ``bit_type`` generators seeded with
    the children of ``SeedSequence`` ``seq`` with the consecutive spawn
    ``keys``, made on a miss only; read-only and memoised on what fixes them."""
    return tuple(map(np.stack, zip(*(
        _sobol_scramble(np.random.Generator(bit_type(np.random.SeedSequence(
            seq.entropy, spawn_key=key, pool_size=seq.pool_size))), d) for key in keys))))


def _round_scrambles(seed, d):
    """The :func:`_scrambles` of each quasi-Monte Carlo round in turn, from
    the next ``_QMC_BATCHES`` children of the ``SeedSequence`` of a generator
    seeded with ``seed``.  A ``Generator`` or ``BitGenerator`` spawns them, so
    it advances as it would without the memo; any other seed's
    ``SeedSequence``, which only the caller sees, is left as it is."""
    spawns = isinstance(seed, (np.random.Generator, np.random.BitGenerator))
    bit_type, seq = np.random.PCG64, seed  # default_rng's bit generator
    if spawns:
        bit_gen = np.random.default_rng(seed).bit_generator
        bit_type, seq = type(bit_gen), bit_gen._seed_seq  # no public name in numpy 1.23
    elif not isinstance(seed, np.random.SeedSequence):
        seq = np.random.SeedSequence(seed)
    for first in itertools.count(seq.n_children_spawned, _QMC_BATCHES):
        if spawns:
            seq.spawn(_QMC_BATCHES)
        keys = [(*seq.spawn_key, i) for i in range(first, first + _QMC_BATCHES)]
        yield _scrambles(bit_type, seq, keys, d)


def _sobol_points(directions, shift, m):
    """The first ``2**m`` points of scrambled engines, ``(..., 2**m, d)``
    for directions ``(..., d, 30)`` and shifts ``(..., d)``, in Gray-code
    order: point ``i`` is ``shift`` XOR the direction numbers of the bits set
    in ``i ^ (i >> 1)``.

    Doubling fills them: the points ``2**b .. 2**(b+1) - 1`` are those before,
    reversed, XOR direction ``b``.  The result is a view of a
    ``(..., d, 2**m)`` array, so each coordinate is contiguous.
    """
    x = np.empty(shift.shape + (1 << m,), dtype=np.uint32)
    x[..., 0] = shift
    for b in range(m):
        half = 1 << b
        np.bitwise_xor(x[..., half - 1::-1], directions[..., b:b + 1], out=x[..., half:2 * half])
    return (x * 2.0 ** -_SOBOL_BITS).swapaxes(-1, -2)


def _block_shift(directions, shift, start):
    """The shift whose first ``n`` points are the points ``start .. start +
    n - 1`` of engines ``(directions, shift)``, for ``start`` a multiple of
    ``n``, a power of 2: the Gray code of ``start + i`` is that of ``start``
    XOR that of ``i``."""
    gray = start ^ (start >> 1)
    bits = [b for b in range(gray.bit_length()) if gray >> b & 1]
    return shift ^ np.bitwise_xor.reduce(directions[..., bits], axis=-1)


def _sov_sum(ell, u, pts):
    """Sum of the separation-of-variables integrand over unit-cube points
    ``(..., points, d)``, one per leading index.

    Each step is one array operation over every leading index at once; the
    partial sums ``ell[i, :i] @ y[:i]`` are one matrix-vector product over
    all points, so each point rounds as it does alone.
    """
    from scipy.special import ndtri

    ndtr = _kernels().ndtr
    n = len(u)
    e = np.full(pts.shape[:-1], float(ndtr(u[0] / ell[0, 0])))
    pv = e.copy()
    y = np.empty((n - 1, e.size))
    for i in range(1, n):
        z = np.clip(e * pts[..., i - 1], 1e-300, 1.0 - 1e-16)
        y[i - 1] = np.clip(ndtri(z), -40.0, 40.0).ravel()
        e = ndtr((u[i] - (ell[i, :i] @ y[:i]).reshape(e.shape)) / ell[i, i])
        pv = pv * e
    return pv.sum(axis=-1)


def _round_estimates(factors, exponents, directions, shifts):
    """The integrand's mean for each row over the first ``2**e`` points of
    each engine, ``(rows, engines)``, for the rows' ordered Cholesky factors
    and limits ``factors`` and their exponents ``e``.

    A pass evaluates at most ``_QMC_PASS_POINTS`` points: as many engines as
    fit, or one block of that many points of one engine.  Block sums are
    added in halves, as numpy adds the halves of a whole array, so a mean
    has the same bits however many blocks it spans.
    """
    pass_bits = _QMC_PASS_POINTS.bit_length() - 1
    out = np.empty((len(factors), len(shifts)))
    for e in sorted(set(exponents)):
        rows = [i for i, x in enumerate(exponents) if x == e]
        m = min(e, pass_bits)
        width = _QMC_PASS_POINTS >> m
        sums = np.empty((len(rows), len(shifts), 1 << (e - m)))
        for start in range(0, len(shifts), width):
            engines = slice(start, start + width)
            for block in range(sums.shape[2]):
                pts = _sobol_points(directions[engines], _block_shift(
                    directions[engines], shifts[engines], block << m), m)
                for i, row in enumerate(rows):
                    sums[i, engines, block] = _sov_sum(*factors[row], pts)
        while sums.shape[2] > 1:
            sums = sums[:, :, 0::2] + sums[:, :, 1::2]
        out[rows] = sums[:, :, 0] / (1 << e)
    return out


def _final_exponent(err, tol, room):
    """The ``e`` of a final round of ``2**e`` points per engine: the least
    from ``_QMC_PILOT_EXPONENT`` up with ``err * 2**(6 - e) <= tol / 2``, the
    pilot's error ``err`` carried at the rate ``N**-1``, but no larger than
    the engines fit in ``room`` points, and never below the pilot's."""
    e = _QMC_PILOT_EXPONENT
    while err * 2.0 ** (_QMC_PILOT_EXPONENT - e) > tol / 2 and _QMC_BATCHES << (e + 1) <= room:
        e += 1
    return e


def _qmc_cdf(corr, z, tol, seed, max_points):
    """Quasi-Monte Carlo :func:`_rectangle_cdf` for three or more dimensions,
    by Stein's (1945) two-stage rule: a pilot round sizes one final round per
    row, and only a final round is reported.

    Each round scrambles ``_QMC_BATCHES`` Sobol engines, each from its own
    child of the seed's ``SeedSequence`` (:func:`_round_scrambles`).  Each
    scramble alone gives an unbiased estimate, so a row's ten give its value
    and a standard error (Owen 1997).  The pilot has ``2**6`` points per
    engine.  A row's final round is fresh and has ``2**e`` points per engine,
    ``e`` by :func:`_final_exponent`, so its size is fixed before it runs
    and its mean is unbiased.  A final round that misses ``tol`` is followed
    by a fresh one of four times its points, or, where that would take the
    row's points, pilot included, past ``max_points``, by a
    :class:`ToleranceNotReachedError` with the round's estimate.  The pilot
    and a final round of ``2**6`` points always run.  Rows share each round's
    scrambles, each reading the first ``2**e`` points of every engine, and
    no row's outcome depends on another's.  The points do not depend on the
    installed scipy: they equal those scipy 1.17's ``qmc.Sobol`` draws when
    it spawns one child of the same generator per engine.
    """
    factors = [_ordered_cholesky(corr, row) for row in z]
    rounds = _round_scrambles(seed, corr.shape[0] - 1)
    exponents = [_QMC_PILOT_EXPONENT] * len(factors)
    spent = [0] * len(factors)
    results = [None] * len(factors)
    todo, pilot = list(range(len(factors))), True
    while todo:
        estimates = _round_estimates([factors[row] for row in todo],
                                     [exponents[row] for row in todo], *next(rounds))
        later = []
        for row, est in zip(todo, estimates):
            spent[row] += _QMC_BATCHES << exponents[row]
            value = float(est.mean())
            err = float(est.std(ddof=1) / math.sqrt(_QMC_BATCHES))
            if pilot:
                exponents[row] = _final_exponent(err, tol, max_points - spent[row])
            elif err <= tol:
                results[row] = CdfResult(value=min(max(value, 0.0), 1.0), error_estimate=err,
                                         method="qmc", points=spent[row])
                continue
            elif spent[row] + (_QMC_BATCHES << (exponents[row] + 2)) > max_points:
                raise ToleranceNotReachedError(value, err)
            else:
                exponents[row] += 2
            later.append(row)
        todo, pilot = later, False
    return results


def _rectangle_cdf(upper, mean, cov, tol, seed, max_points):
    """P(X <= upper) for X ~ N(mean, cov), one :class:`CdfResult` per row of
    the finite matrix ``upper``; ``mean`` has one row per row, or one for all.

    One dimension is the normal CDF, two one :func:`_bvn_cdf` call for all
    rows, three or more quasi-Monte Carlo on point sets shared by all rows,
    where running out of memory is an :class:`InvalidParamError`.
    """
    var = np.diag(cov)
    if not (var > 0.0).all():
        raise NotPositiveDefiniteError("covariance has a non-positive diagonal entry")
    sd = np.sqrt(var)
    # Where upper - mean or its ratio to sd overflows, the limit lies so far
    # out that its probability is exactly 0 or 1, which every path below
    # gives an infinite limit.  Clamping upper to mean +- k sd instead would
    # lose the side of the limit wherever mean +- k sd rounds to the mean.
    with np.errstate(over="ignore"):
        z = (upper - mean) / sd
    if sd.size == 1:
        return [CdfResult(value=v, error_estimate=1e-16, method="closed_form_1d")
                for v in _kernels().ndtr(z[:, 0])]
    if sd.size == 2:
        rho = min(max(float(_cov_to_corr(cov)[0, 1]), -1.0), 1.0)
        return [CdfResult(value=v, error_estimate=1e-14, method="quadrature_2d")
                for v in _bvn_cdf(z, rho)]
    try:
        return _qmc_cdf(_cov_to_corr(cov), z, tol, seed, max_points)
    except MemoryError:
        raise InvalidParamError(
            f"not enough memory for the quasi-Monte Carlo CDF in {sd.size} dimensions"
        ) from None


def mvn_cdf(upper, params: GaussianParams, tol: float = 1e-5, seed=DEFAULT_CDF_SEED,
            max_points: int = _DEFAULT_MAX_POINTS) -> CdfResult:
    """P(X <= upper), componentwise, for X ~ N(mean, cov).

    ``+inf`` components are dropped (they do not constrain), and any ``-inf``
    component makes the probability exactly 0.  One dimension uses the normal
    CDF, two a quadrature accurate to 1e-14 absolute, three or more seeded
    randomized quasi-Monte Carlo with an estimated standard error of at most
    ``tol``, sized by a pilot round (Stein's two-stage rule).  The pilot's 10
    x 64 integrand evaluations estimate the error; a fresh final round of 10
    x ``2**e`` then gives the value, ``e`` the smallest from 6 up at which
    the pilot's error, taken to fall as one over the points, is at most
    ``tol / 2``, but no larger than keeps the total within ``max_points``.
    Only the final round is reported, so its mean is unbiased; ``points`` on
    the result counts every evaluation.  A final round that misses ``tol``
    is followed by a fresh one of four times the points, if the total stays
    within ``max_points``.  The pilot and a final round of 10 x 64 always
    run.  In ``d >= 3`` dimensions one integrand evaluation costs
    ``O(d**2)``: step ``i`` sums ``i`` earlier coordinates.  A pass holds
    about ``17 * d`` bytes per point, its coordinates and the integrand's
    ``d - 1`` inverse normals, over at most ``2**14`` points.  The default
    seed is a fixed documented constant so repeated calls agree; pass
    ``seed=None`` for a fresh nondeterministic stream.  The scrambles for a
    seed are drawn once per process and reused by every later call with that
    seed and dimension.  Only a ``+inf`` limit copies the covariance, without
    its rows and columns; a copy that does not fit in memory raises
    :class:`InvalidParamError`.

    Raises
    ------
    ToleranceNotReachedError
        If a final round's error is above ``tol`` and the next round would
        take the total past ``max_points``; that round's estimate and its
        error ride along on the exception.
    """
    p = params if isinstance(params, GaussianParams) else GaussianParams(*params)
    u = np.atleast_1d(np.asarray(upper, dtype=float))
    if u.ndim != 1 or u.shape[0] != p.dim:
        raise DimensionMismatchError(
            f"upper has shape {u.shape}, distribution has dimension {p.dim}"
        )
    if np.any(np.isnan(u)):
        raise InvalidParamError("upper bounds must not be NaN")
    tol = _check_tol("tol", tol)
    max_points = _check_count("max_points", max_points, 1)
    seed = _check_seed(seed)
    if np.any(u == -np.inf):
        return CdfResult(value=0.0, error_estimate=0.0, method="closed_form_1d")
    keep = np.nonzero(np.isfinite(u))[0]
    if keep.size == 0:
        return CdfResult(value=1.0, error_estimate=0.0, method="closed_form_1d")
    mean, cov = p.mean, p.cov
    if keep.size < u.size:
        try:
            mean, cov = mean[keep], cov[np.ix_(keep, keep)]
        except MemoryError:
            n = keep.size
            what = f"the {n} x {n} covariance of the finite limits"
            raise _dense_memory_error(8 * n * n, what) from None
    return _rectangle_cdf(u[None, keep], mean, cov, tol, seed, max_points)[0]


def sample(params: GaussianParams, count: int, seed=None) -> np.ndarray:
    """Draw ``count`` rows from N(mean, cov), reproducibly for a given seed."""
    p = params if isinstance(params, GaussianParams) else GaussianParams(*params)
    count = _check_count("count", count, 0)
    z = np.random.default_rng(_check_seed(seed)).standard_normal((count, p.dim))
    return p.mean + z @ _factor(p.cov).T
