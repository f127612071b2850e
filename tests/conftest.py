"""Shared test helpers: independent oracles and random model generation.

The oracles here deliberately avoid the library's own code paths: the DFT
oracle is the quadratic-time defining sum, the simulation oracle runs the
ARMA recursion directly as a linear filter, the autocovariance oracle sums
products of a filter impulse response, and the conditional-moments oracle
partitions an explicitly inverted covariance.  The pattern log-density
oracles are scipy's dense multivariate normal on that autocovariance's
Toeplitz matrix and, for AR(1), the closed-form Markov likelihood; the AR(1)
sampler oracle is the scalar Markov bridge.  The Kalman-filter oracle steps
every position one at a time from a Lyapunov-solved start, with no shortcut.
The bivariate normal CDF oracle integrates the density over the correlation
(Plackett's identity) instead of using the library's quadrature rule.  The
scrambled Sobol oracle runs the direction-number recursion, the scramble and
the Gray-code walk one bit and one point at a time on Python integers.  The
quasi-Monte Carlo oracle is the per-engine round the stacked passes replaced:
a floating-point scramble, one engine's points at a time and one
integrand call per engine and row; run at a fixed size, it gives the
references the calibration tests measure the adaptive rule against.  The
filter oracle is the exact Kalman filter that computed every transient
afresh, with no replay of one already seen.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_discrete_lyapunov, toeplitz
from scipy.signal import lfilter
from scipy.special import ndtr, ndtri
from scipy.stats import multivariate_normal

from garma import ArmaSpec, NotPositiveDefiniteError, ToleranceNotReachedError, arma, mvn
from garma._statespace import _STEADY_TOL

# Every memo of a set-up step.
MEMOS = (arma._model.memo, mvn._scrambles.memo, mvn._sobol_bits.memo)


def clear_memos():
    """Empty every memo of the set-up steps, so the next call computes them."""
    for memo in MEMOS:
        memo.clear()


def naive_dft(x):
    """O(n^2) evaluation of X_k = sum_t x_t exp(-2i*pi*k*t/n)."""
    x = np.asarray(x)
    n = x.shape[-1]
    t = np.arange(n)
    basis = np.exp(-2j * np.pi * np.outer(t, t) / n)
    return x @ basis


def simulate_series(spec, steps, burn, rng):
    """Run the ARMA recursion directly from zero initial conditions and drop
    a burn-in prefix; an independent check of the distributional code."""
    eps = rng.normal(0.0, np.sqrt(spec.error_var), size=steps + burn)
    b = np.concatenate(([1.0], np.asarray(spec.ma, dtype=float)))
    a = np.concatenate(([1.0], -np.asarray(spec.ar, dtype=float)))
    return spec.mean + lfilter(b, a, eps)[burn:]


def acvf_oracle(spec, lags):
    """error_var * sum_i psi[i] * psi[i+k] for each k in ``lags``, with the
    psi weights taken from the impulse response of the ARMA filter, run until
    its tail is below 1e-300 so that truncation cannot be seen."""
    b = np.concatenate(([1.0], np.asarray(spec.ma, dtype=float)))
    a = np.trim_zeros(np.concatenate(([1.0], -np.asarray(spec.ar, dtype=float))), "b")
    lags = np.asarray(lags, dtype=int)
    min_root = np.abs(np.roots(a[::-1])).min() if a.size > 1 else np.e
    steps = int(np.ceil(1.25 * 700.0 / np.log(min_root))) + 100 + int(lags.max())
    impulse = np.zeros(steps)
    impulse[0] = 1.0
    psi = lfilter(b, a, impulse)
    assert np.abs(psi[-100:]).max() < 1e-300 * np.abs(psi).max()
    return spec.error_var * np.array([psi[: steps - k] @ psi[k:] for k in lags])


def dense_pattern_log_density(spec, x, missing, flags):
    """log p(kept) - log p(conditioned) for each row of ``x``, from scipy's
    multivariate normal on the Toeplitz matrix of :func:`acvf_oracle`."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m = x.shape[1]
    cov = toeplitz(acvf_oracle(spec, np.arange(m)))

    def block_logpdf(idx):
        dist = multivariate_normal(np.full(idx.size, spec.mean), cov[np.ix_(idx, idx)])
        return np.atleast_1d(dist.logpdf(x[:, idx]))

    want = block_logpdf(np.flatnonzero(~np.asarray(missing)))
    cond_idx = np.flatnonzero(flags)
    if cond_idx.size:
        want = want - block_logpdf(cond_idx)
    return want


def ar1_markov_log_density(phi, error_var, mean, x, observed):
    """Log-density of the ``observed`` positions of one AR(1) series: each
    observation given the previous observed one, ``d`` steps back, is normal
    with mean ``mean + phi**d * (prev - mean)`` and variance ``error_var *
    (1 - phi**(2d)) / (1 - phi**2)``."""
    idx = np.flatnonzero(observed)
    dev = np.asarray(x, dtype=float)[idx] - mean
    gamma0 = error_var / ((1.0 - phi) * (1.0 + phi))
    gaps = np.diff(idx)
    var = gamma0 * -np.expm1(2.0 * gaps * np.log(abs(phi)))
    resid = dev[1:] - np.sign(phi) ** gaps * np.exp(gaps * np.log(abs(phi))) * dev[:-1]
    terms = np.log(2.0 * np.pi * np.concatenate(([gamma0], var)))
    terms += np.concatenate(([dev[0] ** 2 / gamma0], resid**2 / var))
    return -0.5 * float(terms.sum())


def kalman_reference(spec, observed):
    """Prediction variances ``F[t]`` and predictive gains ``K[t] = T P[t]
    e1 / F[t]`` of the Kalman filter for the positions marked in
    ``observed``, on Harvey's form ``a[t+1] = T a[t] + R e[t+1]``, ``y[t] =
    a[t][0]`` with state size ``r = max(p, q + 1)``.

    ``T`` and ``Q = error_var R R'`` come from the coefficients and the
    stationary start from scipy's discrete Lyapunov solver.  Every position
    is stepped on its own, an unobserved one by ``P <- T P T' + Q`` (``F``
    NaN, ``K`` zero), with no steady-state stop."""
    p, q = len(spec.ar), len(spec.ma)
    r = max(p, q + 1)
    transition = np.eye(r, k=1)
    transition[:p, 0] = spec.ar
    loading = np.zeros(r)
    loading[0] = 1.0
    loading[1:q + 1] = spec.ma
    q_cov = spec.error_var * np.outer(loading, loading)
    cov = solve_discrete_lyapunov(transition, q_cov)
    variances = np.full(len(observed), np.nan)
    gains = np.zeros((len(observed), r))
    for t, seen in enumerate(observed):
        ahead = transition @ cov @ transition.T + q_cov
        if seen:
            variances[t] = cov[0, 0]
            gains[t] = transition @ cov[:, 0] / cov[0, 0]
            ahead -= variances[t] * np.outer(gains[t], gains[t])
        cov = ahead
    return variances, gains


def ar1_bridge_sample(phi, error_var, mean, condvals, n, seed):
    """``n`` AR(1) series pinned to the finite entries of ``condvals``, each
    free position drawn in index order from the scalar Markov bridge p(y[t] |
    y[t-1], next pinned value), with one column of
    ``default_rng(seed).standard_normal((n, n_free))`` per free position.

    Given y[t-1], y[t] is normal with mean ``phi * y[t-1]`` and variance
    ``error_var`` (the stationary law at t = 0); the pinned value ``d`` steps
    on is ``phi**d * y[t]`` plus noise of variance ``error_var * (1 -
    phi**(2d)) / (1 - phi**2)``; the bridge law is their product.  All in
    deviations from ``mean``."""
    vals = np.asarray(condvals, dtype=float) - mean
    pinned = np.flatnonzero(np.isfinite(vals))
    z = np.random.default_rng(seed).standard_normal((n, vals.size - pinned.size))
    gamma0 = error_var / ((1.0 - phi) * (1.0 + phi))
    out = np.empty((n, vals.size))
    column = 0
    for t, value in enumerate(vals):
        if np.isfinite(value):
            out[:, t] = value
            continue
        prior_mean, prior_var = (phi * out[:, t - 1], error_var) if t else (0.0, gamma0)
        after = np.searchsorted(pinned, t)
        if after < pinned.size:
            d = int(pinned[after]) - t
            lead = phi**d
            noise = gamma0 * -math.expm1(2.0 * d * math.log(abs(phi)))
            denom = noise + lead * lead * prior_var
            cond_mean = (noise * prior_mean + lead * prior_var * vals[pinned[after]]) / denom
            cond_var = prior_var * noise / denom
        else:
            cond_mean, cond_var = prior_mean, prior_var
        out[:, t] = cond_mean + math.sqrt(cond_var) * z[:, column]
        column += 1
    return mean + out


def norm_cdf(x):
    """Standard normal CDF through ``math.erfc``."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def plackett_bvn_cdf(h, k, rho):
    """P(X <= h, Y <= k) for standard normals with correlation ``rho``, by
    Plackett's identity ``Phi(h) Phi(k) + int_0^rho phi2(h, k; r) dr``.

    The integrand is smooth in ``r`` on ``|rho| <= 0.999``; a direct quadrature
    over ``x`` instead loses about 1e-4 near ``rho = 1``.  No absolute
    tolerance, so deep-tail values are accurate relative to their size."""
    def density(r):
        s2 = (1.0 - r) * (1.0 + r)
        return math.exp(-(h * h - 2.0 * r * h * k + k * k) / (2.0 * s2)) / (2.0 * math.pi * math.sqrt(s2))

    integral, _ = quad(density, 0.0, rho, epsabs=0.0, epsrel=1e-12, limit=200)
    return norm_cdf(h) * norm_cdf(k) + integral


def brute_conditional(mean, cov, free_idx, cond_idx, values, refine=False):
    """Conditional moments through an explicit inverse (oracle only).

    With ``refine``, one step of iterative refinement with the same inverse
    takes the regression coefficients from an error of about cond(saa) * eps
    to about eps, which a 1e-12 check on an ill-conditioned block needs."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    saa = cov[np.ix_(cond_idx, cond_idx)]
    sfa = cov[np.ix_(free_idx, cond_idx)]
    sff = cov[np.ix_(free_idx, free_idx)]
    inv = np.linalg.inv(saa)
    coef = sfa @ inv
    if refine:
        coef = coef + (sfa - coef @ saa) @ inv
    cmean = mean[free_idx] + coef @ (np.asarray(values, dtype=float) - mean[cond_idx])
    ccov = sff - coef @ sfa.T
    return cmean, ccov


def sobol_reference(gen, d, m, poly, vinit, bits=30):
    """The first ``2**m`` scrambled Sobol points of dimension ``d``, drawing
    the scramble from ``gen``: Bratley and Fox's recursion on the table rows
    ``poly``/``vinit``, then Matousek's linear-matrix scramble and a digital
    shift, each bit a parity of a masked word, then one point after another,
    each the previous one XOR the direction of its lowest set index bit."""
    directions = []
    for k in range(d):
        p = int(poly[k])
        deg = p.bit_length() - 1
        v = [1] * bits if k == 0 else [int(x) for x in vinit[k][:deg]]
        while len(v) < bits:
            j = len(v)
            new = v[j - deg]
            for i in range(deg):
                if (p >> (deg - 1 - i)) & 1:
                    new ^= v[j - i - 1] << (i + 1)
            v.append(new)
        directions.append([x << (bits - 1 - j) for j, x in enumerate(v)])
    shift_bits = gen.integers(2, size=(d, bits), dtype=np.uint32)
    ltm = np.tril(gen.integers(2, size=(d, bits, bits), dtype=np.uint32))
    for k in range(d):
        rows = [sum(int(ltm[k, r, c]) << (bits - 1 - c) for c in range(r)) | (1 << (bits - 1 - r))
                for r in range(bits)]
        directions[k] = [sum((bin(row & word).count("1") & 1) << (bits - 1 - r)
                             for r, row in enumerate(rows))
                         for word in directions[k]]
    point = [sum(int(b) << i for i, b in enumerate(row)) for row in shift_bits]
    points = [point]
    for i in range(1, 2**m):
        low = (i & -i).bit_length() - 1
        point = [x ^ directions[k][low] for k, x in enumerate(point)]
        points.append(point)
    return np.array(points, dtype=float) / 2.0**bits


def _scramble_reference(gen, d):
    """One engine's direction numbers and shift, the scramble applied as a
    floating-point matrix product reduced mod 2."""
    bits = mvn._sobol_bits(d).astype(float)
    shift = gen.integers(2, size=(d, 30), dtype=np.uint32) @ mvn._SOBOL_POWERS
    draws = gen.integers(2, size=(d, 30, 30), dtype=np.uint32)
    ltm = np.tril(draws, -1) + np.eye(30)
    scrambled = np.fmod(bits @ ltm.transpose(0, 2, 1), 2.0) @ mvn._SOBOL_POWERS[::-1]
    return scrambled.astype(np.uint32), shift


def _points_reference(directions, shift, m):
    """One engine's first ``2**m`` points, ``(2**m, d)``, by doubling."""
    x = np.empty((shift.shape[0], 1 << m), dtype=np.uint32)
    x[:, 0] = shift
    for b in range(m):
        half = 1 << b
        np.bitwise_xor(x[:, half - 1::-1], directions[:, b:b + 1], out=x[:, half:2 * half])
    return (x * 2.0 ** -30).T


def _sov_mean_reference(ell, u, pts):
    """The separation-of-variables integrand averaged over one engine's points."""
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


def qmc_cdf_reference(corr, z, tol, seed, max_points):
    """``mvn._qmc_cdf`` one engine and one row at a time: a pilot round of ten
    scrambles of 2**6 points, then for each row a fresh final round of 2**e
    points, e the least with pilot error * 2**(6 - e) <= tol / 2 within the
    cap, and fresh rounds of four times the points until one meets ``tol``;
    each engine's points built and integrated on their own."""
    d = corr.shape[0] - 1
    factors = [mvn._ordered_cholesky(corr, row) for row in z]
    bit_gen = np.random.default_rng(seed).bit_generator
    exponents = [6] * len(factors)
    spent = [0] * len(factors)
    results = {}
    pilot = True
    while len(results) < len(factors):
        engines = [_scramble_reference(np.random.Generator(type(bit_gen)(child)), d)
                   for child in bit_gen._seed_seq.spawn(10)]
        for row in range(len(factors)):
            if row in results:
                continue
            est = np.array([
                _sov_mean_reference(*factors[row], _points_reference(*engine, exponents[row]))
                for engine in engines])
            spent[row] += 10 << exponents[row]
            value = float(est.mean())
            err = float(est.std(ddof=1) / math.sqrt(10))
            if pilot:
                want = next(e for e in range(6, 64) if err / 2**(e - 6) <= tol / 2)
                fits = 6
                while spent[row] + (10 << (fits + 1)) <= max_points:
                    fits += 1
                exponents[row] = min(want, fits)
            elif err <= tol:
                results[row] = mvn.CdfResult(value=min(max(value, 0.0), 1.0), error_estimate=err,
                                             method="qmc", points=spent[row])
            elif spent[row] + (10 << (exponents[row] + 2)) > max_points:
                raise ToleranceNotReachedError(value, err)
            else:
                exponents[row] += 2
        pilot = False
    return [results[row] for row in range(len(factors))]


def qmc_fixed_reference(corr, z, m, seed):
    """Mean and standard error of one row's integrand over ten scrambled
    engines of ``2**m`` points each, drawn from the first ten children of
    ``seed`` as a quasi-Monte Carlo round draws them, one engine at a time."""
    d = corr.shape[0] - 1
    factor = mvn._ordered_cholesky(corr, z)
    bit_gen = np.random.default_rng(seed).bit_generator
    est = np.array([
        _sov_mean_reference(*factor, _points_reference(
            *_scramble_reference(np.random.Generator(type(bit_gen)(child)), d), m))
        for child in bit_gen._seed_seq.spawn(10)])
    return float(est.mean()), float(est.std(ddof=1) / math.sqrt(10))


def filter_reference(observed, model):
    """``_statespace._filter`` stepping every run of observed positions from
    its own start until it ends or turns steady, with one stack slot per
    step and no reuse of a transient computed earlier in the call."""
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


def random_stationary_spec(rng, p_max=2, q_max=2, min_root=1.25, with_mean=True):
    """Draw a random stationary model by rejection on the AR root moduli."""
    p = int(rng.integers(0, p_max + 1))
    q = int(rng.integers(0, q_max + 1))
    while True:
        ar = rng.uniform(-1.2, 1.2, size=p)
        ma = rng.uniform(-1.0, 1.0, size=q)
        mean = float(rng.uniform(-2.0, 2.0)) if with_mean else 0.0
        error_var = float(rng.uniform(0.5, 2.0))
        spec = ArmaSpec(ar=ar, ma=ma, mean=mean, error_var=error_var)
        if p == 0:
            return spec
        coeffs = np.concatenate(([1.0], -ar))
        nz = np.nonzero(coeffs)[0]
        coeffs = coeffs[: nz[-1] + 1]
        if len(coeffs) == 1:
            return spec
        roots = np.polynomial.polynomial.polyroots(coeffs)
        if np.abs(roots).min() >= min_root:
            return spec
