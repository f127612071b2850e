"""The exact ``O(m)`` engine of ``dgarma`` and ``rgarma``: one forward Kalman
filter on Harvey's state-space form of the model, which never forms the
``m x m`` covariance.  :func:`log_density` computes ``log p(free | cond) =
log p(kept) - log p(cond)`` as two passes of it, each skipping the positions
it does not observe (Jones 1980; Gardner, Harvey & Phillips 1980).  The
steps of the filter depend only on the prediction covariance ``P`` they
start from, so within a pass a run of observed positions that starts from a
``P`` already seen, bit for bit, as after each of many equal gaps, replays
the stored steps: the pass stores and computes each distinct transient once.
:func:`_conditional_draw` runs it over every position and adds one backward
information pass over the conditioned values (Fraser & Potter 1969), to draw
each free position in index order given every earlier position and the later
conditioned values.  That sequence is the index-order Cholesky factor of the
conditional covariance, so a seed gives the same draws as
:func:`garma.mvn.sample` of the conditional moments, up to rounding.
Each model's :class:`garma.arma._Model` keeps its forms from
:func:`_state_space`; the sampler's is that of the invertible moving average.
Durbin & Koopman (2012, *Time Series Analysis by State Space Methods*, ch. 4)
give the filter and smoother in one notation.
"""

from __future__ import annotations

import numpy as np

from .arma import _acvf, _ar_recursion
from .errors import InvalidParamError, NotPositiveDefiniteError
from .mvn import _kernels, _normal_log_density

# Change of the filter covariance, relative to the one-step prediction
# variance, below which it counts as steady.
_STEADY_TOL = 1e-15

# Entries of a power of the transition matrix below this are dropped.
_NEGLIGIBLE = 2.0**-60


def log_density(dev, kept, cond, model):
    """``log p(kept) - log p(cond)`` for each row of ``dev``, the rows minus the
    mean, which :func:`garma.errors._deviation` has checked at the ``kept``
    positions; conditioned values of zero density raise InvalidParamError.
    Both passes observe the same positions before the first free one, so each
    is summed from it; the kept pass's terms before it are log p(cond there)."""
    form = model.forms
    first = (kept & ~cond).argmax()
    head, logdens = _filter_log_density(dev, kept, form, first)
    given = _filter_log_density(dev, cond, form, first)[1] if cond[first:].any() else 0.0
    bad = np.flatnonzero(np.isinf(head) | np.isinf(given))
    if bad.size:  # log p(kept) - log p(cond) would be -inf minus -inf
        raise InvalidParamError(f"the conditioned values of row {bad[0] + 1} have zero density")
    return logdens - given


def _state_space(model):
    """Harvey's state-space form of a :class:`garma.arma._Model`, with state
    size ``r = max(p, q + 1)``: the transition matrix ``T`` (AR coefficients
    ``phi`` in its first column, ones on its superdiagonal), the innovation
    covariance ``Q`` and the stationary state covariance ``P0``.

    The state is ``a[0] = y[t]`` and, for ``i >= 1``, ``a[i] = sum_{s>=1}
    phi[i+s-1] * y[t-s] + sum_{s>=0} theta[i+s] * e[t-s]`` (``theta[0] =
    1``), so ``P0`` follows exactly from ``gamma(0) .. gamma(r-1)`` and
    ``Cov(y[t-s], e[t-u]) = error_var * psi[u-s]``, without a Lyapunov solve.
    """
    spec = model.spec
    p, q, var = spec.p, spec.q, spec.error_var
    r = max(p, q + 1)
    phi = np.zeros(r)
    phi[:p] = spec.ar
    theta = np.zeros(r)
    theta[:q + 1] = (1.0, *spec.ma)
    on_y = np.zeros((r, r))  # state loadings on y[t], y[t-1], ...
    on_e = np.zeros((r, r))  # ... and on e[t], e[t-1], ...
    on_y[0, 0] = 1.0
    for i in range(1, r):
        on_y[i, 1:r - i + 1] = phi[i:]
        on_e[i, :r - i] = theta[i:]
    lag = np.abs(np.subtract.outer(np.arange(r), np.arange(r)))
    cov_y = _acvf(model, r - 1)[lag]
    cov_ye = var * np.triu(np.array(_ar_recursion(spec.ar, theta.tolist(), 1))[lag])
    cross = on_y @ cov_ye @ on_e.T
    p0 = on_y @ cov_y @ on_y.T + cross + cross.T + var * (on_e @ on_e.T)
    transition = np.eye(r, k=1)
    transition[:, 0] = phi
    return transition, var * np.outer(theta, theta), 0.5 * (p0 + p0.T)


def _filter(observed, model):
    """The Kalman filter over the ``observed`` positions, from the stationary
    state covariance: a stack of prediction covariances ``P``, the gains
    ``K[t]`` (zero where unobserved) and, per observed position, the index of
    its ``P`` in the stack.  All depend only on the pattern.

    Within a run of observed positions the update stops once ``P`` no longer
    changes; a run of ``k`` unobserved positions moves ``P`` to ``P0 + T**k
    (P - P0) T**k'`` in one step.  The steps from a given ``P`` are the same
    floats wherever they run, so a run that starts from a ``P`` already seen
    in this call (the same bytes) replays that transient's stack indices and
    gains, and computes only the steps beyond it; the stack holds each
    distinct transient once.  A non-positive prediction variance raises
    :class:`NotPositiveDefiniteError`."""
    transition, q_cov, p0 = model
    m, r = observed.size, transition.shape[0]
    back = transition.T
    gains = np.zeros((m, r))
    index = np.zeros(m, dtype=np.intp)
    covs = np.empty((16, r, r))  # each step writes its P here; grown when full
    k, cov = 0, p0
    # The transient from the P with these bytes: its n steps have their P's
    # in covs[first:first + n + 1] and their gains at gains[origin:origin +
    # n]; the last step was steady or ended its run.
    seen = {}
    edges = np.flatnonzero(observed[1:] != observed[:-1]) + 1
    # Each step adds one P and each run at most one more, so the stack never
    # needs more than `limit` of them.
    limit = np.count_nonzero(observed) + edges.size // 2 + 1
    for start, end in zip([0, *edges], [*edges, m]):
        if not observed[start]:
            power = np.linalg.matrix_power(transition, end - start)
            cov = p0 + power @ (cov - p0) @ power.T
            continue
        t = start
        while t < end:
            key = cov.tobytes()
            if key in seen:
                first, origin, n, steady = seen[key]
                use = min(n, end - t)
                index[t:t + use] = np.arange(first, first + use)
                gains[t:t + use] = gains[origin:origin + use]
                cov = covs[first + use]
            else:
                if k + 1 >= len(covs):
                    covs = _grown(covs, limit)
                first, origin = k, t
                covs[k] = cov
                for u in range(t, end):
                    if k + 1 == len(covs):
                        covs = _grown(covs, limit)
                    f = cov[0, 0]
                    if not f > 0.0:
                        raise NotPositiveDefiniteError(
                            f"one-step prediction variance {f!r} at position {u + 1} "
                            "is not positive"
                        )
                    ahead = transition @ cov
                    gain = np.divide(ahead[:, 0], f, out=gains[u])
                    step = np.matmul(ahead, back, out=covs[k + 1])
                    step -= ahead[:, :1] * gain
                    step += q_cov
                    index[u] = k
                    k += 1
                    steady = np.abs(step - cov).max() <= _STEADY_TOL * f
                    cov = step
                    if steady:
                        break
                n = use = k - first
                seen[key] = first, origin, n, steady
                k += 1  # keep the last P: it starts the next gap or a replay
            t += use
            if steady and t < end:
                index[t:end] = first + n - 1
                gains[t:end] = gains[origin + n - 1]
                t = end
    return covs[:k], gains, index


def _grown(stack, limit):
    """``stack`` with twice the slots, or ``limit`` if that is fewer."""
    more = min(len(stack), limit - len(stack))
    return np.concatenate((stack, np.empty((more, *stack.shape[1:]))))


def _filter_log_density(dev, observed, model, start=0):
    """Exact Gaussian log-densities of the ``observed`` columns of each row of
    ``dev`` (the rows minus the mean) before column ``start`` and from it on,
    by the Kalman filter: two arrays, which sum to the log-density of them all.

    With ``x`` the rows set to zero at unobserved positions, the innovations
    ``v`` solve ``v[t] + sum_k (K[t-k][k-1] - phi[k-1]) v[t-k] = x[t] - sum_k
    phi[k-1] x[t-k]``: one unit lower-triangular system of bandwidth ``r``
    for all rows (at an unobserved ``t``, ``v[t]`` is minus the prediction),
    solved by LAPACK's triangular banded solver.
    """
    dtbtrs = _kernels().dtbtrs
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
    scale = np.sqrt(pred[index[observed], 0, 0])
    with np.errstate(over="ignore"):  # an overflow is a zero density
        z, cut = innov / scale[:, None], np.count_nonzero(observed[:start])
        return _normal_log_density(z[:cut], scale[:cut]), _normal_log_density(z[cut:], scale[cut:])


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
    dtbtrs = _kernels().dtbtrs
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
