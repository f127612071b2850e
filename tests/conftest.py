"""Shared test helpers: independent oracles and random model generation.

The oracles here deliberately avoid the library's own code paths: the DFT
oracle is the quadratic-time defining sum, the simulation oracle runs the
ARMA recursion directly as a linear filter, the autocovariance oracle sums
products of a filter impulse response, and the conditional-moments oracle
partitions an explicitly inverted covariance.  The pattern log-density
oracles are scipy's dense multivariate normal on that autocovariance's
Toeplitz matrix and, for AR(1), the closed-form Markov likelihood.  The
bivariate normal CDF oracle integrates the density over the correlation
(Plackett's identity) instead of using the library's quadrature rule.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import toeplitz
from scipy.signal import lfilter
from scipy.stats import multivariate_normal

from garma import ArmaSpec


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


def brute_conditional(mean, cov, free_idx, cond_idx, values):
    """Conditional moments through an explicit inverse (oracle only)."""
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    saa = cov[np.ix_(cond_idx, cond_idx)]
    sfa = cov[np.ix_(free_idx, cond_idx)]
    sff = cov[np.ix_(free_idx, free_idx)]
    inv = np.linalg.inv(saa)
    cmean = mean[free_idx] + sfa @ inv @ (np.asarray(values, dtype=float) - mean[cond_idx])
    ccov = sff - sfa @ inv @ sfa.T
    return cmean, ccov


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
