"""Density, distribution function, and sampler for finite stretches of a
stationary Gaussian ARMA series.

A stretch of length ``m`` is multivariate normal with constant mean and a
Toeplitz covariance built from the autocovariances.  NaN entries in a data
row marginalise those positions (drop rows and columns); boolean flags turn
positions into conditioning values, so ``dgarma``/``pgarma`` evaluate the
conditional density/CDF of the remaining free positions.  ``rgarma`` draws
rows whose conditioned positions reproduce the requested values exactly.

``dgarma`` and ``rgarma`` never form the ``m x m`` covariance; both run in
``O(m)`` time and memory through one forward Kalman filter on Harvey's
state-space form of the model.  ``dgarma`` computes ``log p(free | cond) =
log p(kept) - log p(cond)`` as two passes of it, each skipping the positions
it does not observe.  ``rgarma`` runs it over every position and adds one
backward information pass over the conditioned values, to draw each free
position in index order given every earlier position and the later
conditioned values.  That sequence is the index-order Cholesky factor of the
conditional covariance, so a seed gives the same draws as
:func:`garma.mvn.sample` of the conditional moments, up to rounding.
``pgarma`` uses the dense Toeplitz covariance: the quasi-Monte Carlo CDF
needs the conditional covariance itself.
"""

from __future__ import annotations

import warnings

import numpy as np

# scipy is imported inside the functions that use it (see garma.mvn).
from .arma import (
    ArmaSpec,
    _acvf,
    _covariance,
    _invertible_ma,
    _psi_prefix,
    _warn_shared_roots,
    validate_stationary,
)
from .conditioning import build_pattern
from .errors import (
    AllConditionedWarning,
    DimensionMismatchError,
    InvalidParamError,
    NotPositiveDefiniteError,
    _check_count,
    _check_seed,
    _check_tol,
)
from .mvn import (
    _DEFAULT_MAX_POINTS,
    _LOG_2PI,
    DEFAULT_CDF_SEED,
    _free_moments,
    _rectangle_cdf,
)

__all__ = ["dgarma", "pgarma", "rgarma", "as_series_matrix"]

# Change of the filter covariance, relative to the one-step prediction
# variance, below which it counts as steady.
_STEADY_TOL = 1e-15

# Entries of a power of the transition matrix below this are dropped.
_NEGLIGIBLE = 2.0**-60


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
    warnings.warn(
        f"every non-missing position is a conditioning value; {kind} set to "
        "one by convention",
        AllConditionedWarning,
        stacklevel=3,
    )
    return np.zeros(count) if log else np.ones(count)


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


def _filter(observed, model):
    """The Kalman filter over the ``observed`` positions, from the stationary
    state covariance: the distinct prediction covariances ``P`` as a stack,
    the gains ``K[t]`` (zero where unobserved) and, per observed position,
    the index of its ``P`` in the stack.  All depend only on the pattern.

    Within a run of observed positions the update stops once ``P`` no longer
    changes; a run of ``k`` unobserved positions moves ``P`` to ``P0 + T**k
    (P - P0) T**k'`` in one step.  A non-positive prediction variance raises
    :class:`NotPositiveDefiniteError`."""
    transition, q_cov, p0 = model
    m, r = observed.size, transition.shape[0]
    back = transition.T
    gains = np.zeros((m, r))
    index = np.zeros(m, dtype=np.intp)
    covs = np.empty((16, r, r))  # each step writes its P here; doubled when full
    k, cov = 0, p0
    edges = np.flatnonzero(observed[1:] != observed[:-1]) + 1
    for start, end in zip([0, *edges], [*edges, m]):
        if not observed[start]:
            if end < m:
                power = np.linalg.matrix_power(transition, end - start)
                cov = p0 + power @ (cov - p0) @ power.T
            continue
        covs[k] = cov
        for t in range(start, end):
            if k + 1 == len(covs):
                covs = np.concatenate((covs, np.empty_like(covs)))
            f = cov[0, 0]
            if not f > 0.0:
                raise NotPositiveDefiniteError(
                    f"one-step prediction variance {f!r} at position {t + 1} is not positive"
                )
            ahead = transition @ cov
            gain = np.divide(ahead[:, 0], f, out=gains[t])
            step = np.matmul(ahead, back, out=covs[k + 1])
            step -= ahead[:, :1] * gain
            step += q_cov
            index[t] = k
            k += 1
            steady = np.abs(step - cov).max() <= _STEADY_TOL * f
            cov = step
            if steady:
                gains[t + 1:end] = gain
                index[t + 1:end] = k - 1
                break
    return covs[:k], gains, index


def _filter_log_density(dev, observed, model):
    """Exact Gaussian log-density of the ``observed`` columns of each row of
    ``dev`` (the rows minus the mean), by the Kalman filter.

    With ``x`` the rows set to zero at unobserved positions, the innovations
    ``v`` solve ``v[t] + sum_k (K[t-k][k-1] - phi[k-1]) v[t-k] = x[t] - sum_k
    phi[k-1] x[t-k]``: one unit lower-triangular system of bandwidth ``r``
    for all rows (at an unobserved ``t``, ``v[t]`` is minus the prediction),
    solved by LAPACK's triangular banded solver.
    """
    from scipy.linalg.lapack import dtbtrs

    pred, gains, index = _filter(observed, model)
    phi = model[0][:, 0]
    band = np.empty((phi.size + 1, observed.size))
    band[0] = 1.0
    band[1:] = gains.T - phi[:, None]
    x = np.where(observed, dev, 0.0)
    rhs = x.copy()
    for k in np.flatnonzero(phi) + 1:
        rhs[:, k:] -= phi[k - 1] * x[:, :-k]
    innov = dtbtrs(band, rhs.T, uplo="L", diag="U")[0][observed]
    f = pred[index[observed], 0, 0]
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
    1980), started from the exact stationary state covariance.  Both passes,
    and :func:`rgarma`, run the one filter :func:`_filter`.  With ``r = max(p,
    q + 1)`` a pass costs ``O(m r**3)`` time and at most ``O(m r**2)``
    memory: the filter runs once for all rows, stops updating once it is
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
    is estimated on the same scrambled Sobol point sets, drawn from the first
    child of the seed's ``SeedSequence`` (``SeedSequence(seed,
    spawn_key=(0,))`` for an integer or a list of integers; a given
    ``SeedSequence`` is not advanced), so every row's value equals
    ``mvn_cdf(row, ..., seed=<that child>)`` and identical rows get identical
    values.  A ``Generator`` or ``BitGenerator`` seed is consumed instead, so
    a second call with the same object gives other estimates.  Each row's
    estimate is still unbiased with its own error estimate within ``tol``.
    ``tol`` must be finite and positive even when no row needs it.  An
    all-missing row raises :class:`AllMarginalisedError`; the probability is 1
    by convention only when every kept position is conditioned.
    """
    tol = _check_tol("tol", tol)
    seed = _check_seed(seed)
    if isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, 0),
                                      pool_size=seed.pool_size)
    elif isinstance(seed, (int, list)):
        seed = np.random.SeedSequence(seed, spawn_key=(0,))
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
        seed,
        _DEFAULT_MAX_POINTS,
    )
    out = np.array([r.value for r in results])
    return np.log(out) if log else out


def _power_table(transition, q_cov, count):
    """``T**k`` and ``V[k] = sum_{j<k} T**j Q T**j'``, the covariance of the
    state ``k`` steps ahead given the state now, for ``k < count``.

    Both come by doubling, ``T**(n+j) = T**n T**j`` and ``V[n+j] = V[n] +
    T**n V[j] T**n'``, so ``V`` is a sum of positive terms without the
    cancellation of ``P0 - T**k P0 T**k'``.  Entries of ``T**k`` below
    ``_NEGLIGIBLE`` are flushed to exact zeros, never left to become
    subnormal, and the table ends before the first power that is all zero:
    every later power is zero too.
    """
    r = transition.shape[0]
    powers, covs = np.eye(r)[None], np.zeros((1, r, r))
    while len(powers) < count:
        n = len(powers)
        top = transition @ powers[-1]
        block = top @ powers[:count - n]
        block[np.abs(block) < _NEGLIGIBLE] = 0.0
        block_cov = q_cov + transition @ covs[-1] @ transition.T
        block_cov = block_cov + top @ covs[:count - n] @ top.T
        nonzero = block.any(axis=(1, 2))
        keep = block.shape[0] if nonzero.all() else int(np.argmin(nonzero))
        powers = np.concatenate((powers, block[:keep]))
        covs = np.concatenate((covs, block_cov[:keep]))
        if keep < block.shape[0]:
            break
    return powers, covs


def _cross(info, lin, power, cov):
    """Information ``(info, lin)`` about the state ``k`` unobserved steps
    back, from information about the state now and ``T**k``, ``V[k]``.

    Information ``(M, mu)`` about a state ``a`` is the log-likelihood ``-a'M
    a/2 + mu'a`` of the values it stands for; carried back it becomes ``T'(I
    + M V)^-1 M T`` and ``T'(I + M V)^-1 mu``, which needs no inverse of
    ``M``.  Leading axes are batch axes.
    """
    rhs = np.concatenate((info @ power, lin[..., None]), axis=-1)
    solved = np.linalg.solve(np.eye(info.shape[-1]) + info @ cov, rhs)
    back = np.swapaxes(power, -1, -2)
    return back @ solved[..., :-1], (back @ solved[..., -1:])[..., 0]


def _conditional_draw(dev, cond, model, z):
    """Rows of deviations from the mean, pinned to ``dev`` at the ``cond``
    positions, with each free position drawn from its law given every earlier
    position and the later conditioned ones, from one standard normal column
    of ``z`` per free position in index order.

    That law combines the forward filter, which observes every earlier
    position, with the information about its state from the later
    conditioned values.  The information is computed backwards once, across
    each free run in closed form by :func:`_cross`; its coefficients depend
    only on the pattern and the values, so every row shares them.  The rows
    then come from one unit lower-triangular banded solve in the unknowns
    ``y[0], v[0], y[1], v[1], ...``, with ``v[t]`` the filter innovation.
    """
    from scipy.linalg.lapack import dtbtrs

    transition, q_cov, _ = model
    r, m = transition.shape[0], cond.size
    phi = transition[:, 0]
    var = q_cov[0, 0]
    theta = q_cov[0] / var
    # y[e] = first @ a[e-1] + e[e]; given y[e], a[e] = exact @ a[e-1] + theta y[e].
    first = transition[0]
    exact = transition - np.outer(theta, first)

    cond_idx = np.flatnonzero(cond)
    nxt = np.searchsorted(cond_idx, np.arange(m), side="right")
    later = nxt < cond_idx.size
    # Steps from the state at t to the state before the next conditioned position.
    steps = np.append(cond_idx, m)[nxt] - 1 - np.arange(m)
    powers, covs = _power_table(transition, q_cov, steps[later].max() + 1 if later.any() else 0)
    reach = later & (steps < len(powers))

    info = np.empty((cond_idx.size, r, r))
    lin = np.empty((cond_idx.size, r))
    own = np.outer(first, first) / var
    for i in range(cond_idx.size - 1, -1, -1):
        e = cond_idx[i]
        info[i] = own
        lin[i] = first * (dev[e] / var)
        if reach[e]:
            omega, w = info[i + 1], lin[i + 1]
            if steps[e]:  # zero steps: the next conditioned value is adjacent
                omega, w = _cross(omega, w, powers[steps[e]], covs[steps[e]])
            info[i] += exact.T @ omega @ exact
            lin[i] += exact.T @ (w - omega @ theta * dev[e])

    pred, gains, index = _filter(np.ones(m, dtype=bool), model)
    diffs = np.subtract(gains, phi, out=gains)  # K[t] - phi
    h = pred[index, :, 0]
    g = np.zeros((m, r))
    g[:, 0] = 1.0
    shift = np.zeros(m)
    sel = np.flatnonzero(reach & ~cond)
    if sel.size:
        omega, w = _cross(info[nxt[sel]], lin[nxt[sel]], powers[steps[sel]], covs[steps[sel]])
        here = pred[index[sel]]
        h[sel] = np.linalg.solve(np.eye(r) + here @ omega, here[:, :, :1])[:, :, 0]
        g[sel] -= (omega @ h[sel][:, :, None])[:, :, 0]
        shift[sel] = np.einsum("ij,ij->i", h[sel], w)
    free = np.flatnonzero(~cond)
    bad = free[~(h[free, 0] > 0.0)]
    if bad.size:
        raise NotPositiveDefiniteError(
            f"conditional variance {h[bad[0], 0]!r} at position {bad[0] + 1} is not positive"
        )
    scale = np.sqrt(h[free, 0])
    del h  # before the band, where memory peaks

    band = np.zeros((2 * r + 2, 2 * m), order="F")
    band[0] = 1.0
    band[1, 0::2] = -1.0
    for k in range(1, min(r, m - 1) + 1):
        span = 2 * (m - k)
        band[2 * k, 1:span:2] = diffs[:m - k, k - 1]
        band[2 * k + 1, 0:span:2] = phi[k - 1]
        # Coefficients of y[t-k] and v[t-k] in row y[t], for free t >= k.
        on_y = g[free, :r - k + 1] @ phi[k - 1:]
        on_v = np.einsum("ij,ij->i", g[free, :r - k + 1], diffs[np.maximum(free - k, 0), k - 1:])
        past = free >= k
        band[2 * k, 2 * (free[past] - k)] = -on_y[past]
        band[2 * k - 1, 2 * (free[past] - k) + 1] = -on_v[past]
    rhs = np.zeros((2 * m, z.shape[0]), order="F")
    rhs[2 * cond_idx] = dev[cond_idx, None]
    rhs[2 * free] = shift[free, None] + scale[:, None] * z.T
    return dtbtrs(band, rhs, uplo="L", diag="U", overwrite_b=True)[0][0::2].T


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
    z = np.random.default_rng(seed).standard_normal((n, m - np.count_nonzero(cond)))
    model = _state_space(_invertible_ma(spec), moduli)
    dev = _conditional_draw(pattern.values - spec.mean, cond, model, z)
    out[:, ~cond] = spec.mean + dev[:, ~cond]
    return out
