"""Output checks for the workloads.

Every check is matrix-free and O(np): it applies Q = Phi' Phi + D^-1
to a vector as Phi' (Phi x) + x / d, and uses none of the code under
test.  Each returns None when the output passes and a message when it
does not.
"""
from __future__ import annotations

import numpy as np

MEAN_RESIDUAL_RTOL = 1e-8
LOG_DENSITY_RTOL = 1e-8
# The mean of k draws of e'Qe / p, e = theta - mu, is chi^2_{kp} / (kp)
# with standard deviation sqrt(2 / (kp)); the band is this many of them.
CHI2_SDS = 7.0


def quad_q(phi: np.ndarray, d: np.ndarray, e: np.ndarray) -> float:
    """e' (Phi' Phi + D^-1) e."""
    phi_e = phi @ e
    return float(phi_e @ phi_e + e @ (e / d))


def check_posterior_mean(phi, d, alpha, mu) -> str | None:
    """Relative residual of (Phi' Phi + D^-1) mu = Phi' alpha."""
    rhs = alpha @ phi
    resid = (phi @ mu) @ phi + mu / d - rhs
    rel = float(np.linalg.norm(resid) / np.linalg.norm(rhs))
    if not rel <= MEAN_RESIDUAL_RTOL:
        return f"posterior_mean relative residual {rel:.3e} > {MEAN_RESIDUAL_RTOL:g}"
    return None


def check_log_density(phi, d, mu, thetas, log_mu: float, log_thetas) -> str | None:
    """log N(mu) - log N(theta) equals (theta-mu)' Q (theta-mu) / 2."""
    for i, (theta, lt) in enumerate(zip(thetas, log_thetas)):
        want = 0.5 * quad_q(phi, d, theta - mu)
        got = log_mu - lt
        if not abs(got - want) <= LOG_DENSITY_RTOL * max(1.0, abs(want), abs(log_mu)):
            return f"log_density draw {i}: difference {got!r} != half quadratic {want!r}"
    return None


def chi2_band(k: int, p: int) -> tuple[float, float]:
    half = CHI2_SDS * np.sqrt(2.0 / (k * p))
    return 1.0 - half, 1.0 + half


def check_draws(phi, d, mu, thetas) -> str | None:
    """Mean of (theta-mu)' Q (theta-mu) / p lies in the chi^2 band."""
    p = mu.shape[0]
    stat = float(np.mean([quad_q(phi, d, t - mu) for t in thetas])) / p
    lo, hi = chi2_band(len(thetas), p)
    if not lo <= stat <= hi:
        return f"draw calibration {stat:.4f} outside chi^2 band [{lo:.4f}, {hi:.4f}]"
    return None


def check_chain(draws: np.ndarray, scale_draws: np.ndarray, beta0: np.ndarray) -> str | None:
    """Finite draws, and the sign of every signal coefficient recovered."""
    if not (np.all(np.isfinite(draws)) and np.all(np.isfinite(scale_draws))):
        return "chain produced non-finite draws"
    signal = np.flatnonzero(beta0)
    mean = draws[:, signal].mean(axis=0)
    wrong = signal[np.sign(mean) != np.sign(beta0[signal])]
    if wrong.size:
        return f"sign of signal coefficients {wrong.tolist()} not recovered"
    return None
