"""Reference maths for the output checks.

Nothing here imports garma: the autocovariances come from the spectral
density on a fine frequency grid, and densities, conditional moments and
probabilities from plain dense numpy/scipy algebra.  A check that agrees
with this module therefore agrees with a second implementation, not with a
copy of the first.
"""

import math

import numpy as np
from scipy.special import ndtr
from scipy.stats import multivariate_normal

# Frequency grid for the ACVF.  Its aliasing error is sum_j gamma(h + j*N),
# below 1e-200 relative for every AR root modulus the workloads draw (>= 1.009).
_GRID = 1 << 16
_LOG_2PI = math.log(2.0 * math.pi)


def acvf(ar, ma, error_var, lags):
    """gamma(0 .. lags-1) as the inverse transform of the spectral density
    error_var * |theta(e^-iw)|^2 / |phi(e^-iw)|^2."""
    theta = np.fft.rfft(np.concatenate(([1.0], ma)), _GRID)
    phi = np.fft.rfft(np.concatenate(([1.0], -np.asarray(ar, dtype=float))), _GRID)
    density = error_var * np.abs(theta) ** 2 / np.abs(phi) ** 2
    return np.fft.irfft(density, _GRID)[:lags]


def toeplitz_cov(gamma, idx):
    idx = np.asarray(idx)
    return gamma[np.abs(idx[:, None] - idx[None, :])]


def log_density(rows, mean, cov):
    """Gaussian log-density of each row, from slogdet and a dense solve."""
    sign, logdet = np.linalg.slogdet(cov)
    if sign <= 0:
        raise ValueError("reference covariance is not positive definite")
    centred = np.atleast_2d(rows) - mean
    quad = np.einsum("ij,ji->i", centred, np.linalg.solve(cov, centred.T))
    return -0.5 * (cov.shape[0] * _LOG_2PI + logdet + quad)


def conditional(mean, cov, free, cond, cond_rows):
    """Mean rows and covariance of the free coordinates given the cond ones."""
    if len(cond) == 0:
        return np.broadcast_to(mean[free], (len(cond_rows), len(free))), cov[np.ix_(free, free)]
    s_fc = cov[np.ix_(free, cond)]
    gain = np.linalg.solve(cov[np.ix_(cond, cond)], s_fc.T).T
    means = mean[free] + (np.atleast_2d(cond_rows) - mean[cond]) @ gain.T
    return means, cov[np.ix_(free, free)] - gain @ s_fc.T


def pattern_log_density(rows, mean, gamma, missing, flags):
    """log p(free | cond) = log p(kept) - log p(cond), by deleting the
    marginalised positions from the dense covariance."""
    kept = np.nonzero(~missing)[0]
    cond = np.nonzero(flags)[0]
    out = log_density(rows[:, kept], mean, toeplitz_cov(gamma, kept))
    if cond.size:
        out = out - log_density(rows[:, cond], mean, toeplitz_cov(gamma, cond))
    return out


def mvn_cdf(upper, mean, cov):
    """P(X <= upper) with ndtr in 1-D and scipy's integrator otherwise;
    returns (value, absolute error target).  The target is tight in 2-D,
    where scipy is deterministic and cheap, and scipy's default 1e-5 from
    three dimensions up, where a tighter one costs seconds per row."""
    d = len(upper)
    if d == 1:
        return float(ndtr((upper[0] - mean[0]) / math.sqrt(cov[0, 0]))), 1e-15
    eps = 1e-8 if d == 2 else 1e-5
    dist = multivariate_normal(mean=mean, cov=cov, abseps=eps, releps=0.0)
    return float(dist.cdf(upper)), eps


def max_intensity(series):
    """Largest centred, scaled |DFT|/sqrt(n) over frequencies 1..n//2."""
    x = np.asarray(series, dtype=float)
    n = x.size
    centred = x - x.mean()
    scaled = centred / math.sqrt(float(centred @ centred) / (n - 1))
    return float(np.abs(np.fft.fft(scaled)[1 : n // 2 + 1]).max() / math.sqrt(n))


def intensity_rows(rows):
    """Centred, scaled intensities of each row up to the folding frequency."""
    x = np.atleast_2d(np.asarray(rows, dtype=float))
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    scaled = centred / np.sqrt((centred**2).sum(axis=1, keepdims=True) / (n - 1))
    out = np.abs(np.fft.fft(scaled, axis=1)[:, : n // 2 + 1]) / math.sqrt(n)
    out[:, 0] = 0.0
    return out
