"""Effective sample size of one scalar MCMC trace.

Geyer's initial positive sequence estimator: the autocorrelation is
computed by FFT, summed in adjacent pairs Gamma_k = rho(2k) + rho(2k+1),
and the sum stops before the first pair that is not positive.  The
integrated autocorrelation time is tau = -1 + 2 * sum(Gamma_k) and the
effective sample size is N / tau.
"""
from __future__ import annotations

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Normalised autocorrelation rho(0..N-1) of a 1-d series."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    xc = x - x.mean()
    # Zero-pad to 2N so the circular correlation equals the linear one.
    f = np.fft.rfft(xc, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    return acov / acov[0]


def integrated_time(x: np.ndarray) -> float:
    """Integrated autocorrelation time by the initial positive sequence."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] < 4:
        raise ValueError("need a 1-d series of at least 4 draws")
    if not np.all(np.isfinite(x)):
        raise ValueError("series has non-finite values")
    if np.ptp(x) == 0.0:
        raise ValueError("series is constant: its ESS is undefined")
    rho = autocorrelation(x)
    pairs = rho[: 2 * (rho.shape[0] // 2)].reshape(-1, 2).sum(axis=1)
    nonpositive = np.flatnonzero(pairs <= 0.0)
    stop = nonpositive[0] if nonpositive.size else pairs.shape[0]
    return -1.0 + 2.0 * float(np.sum(pairs[:stop]))


def ess(x: np.ndarray) -> float:
    """Effective sample size N / tau of a scalar trace."""
    x = np.asarray(x, dtype=float)
    return x.shape[0] / integrated_time(x)
