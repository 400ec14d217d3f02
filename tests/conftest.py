"""Shared test oracles and stubs.

Oracles here are deliberately independent of the library's computation
paths: plain dense linear algebra via explicit inverses/elimination,
naive loops, quadrature, and rejection sampling.  Tests compare the
library against these, never against itself.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from fastmvg import DenseSpdScale, DiagonalScale, RngStream, StructuredGaussian


class QueuedStream:
    """Stand-in for RngStream yielding queued values.

    normals feed standard_normal calls (shape-checked); uniforms feed
    uniform calls, with scalars broadcast to the requested size.
    """

    def __init__(self, normals=(), uniforms=()):
        self._normals = [np.asarray(v, dtype=float) for v in normals]
        self._uniforms = list(uniforms)

    def standard_normal(self, k):
        v = self._normals.pop(0)
        assert v.shape == (k,), f"stub expected shape ({k},), has {v.shape}"
        return v.copy()

    def uniform(self, size=None):
        v = self._uniforms.pop(0)
        if size is None:
            return float(v)
        if np.ndim(v) == 0:
            return np.full(size, float(v))
        v = np.asarray(v, dtype=float)
        assert v.shape == (size,)
        return v.copy()

    def gamma(self, shape, rate):
        v = self._uniforms.pop(0)
        return float(v)


def gauss_solve(a, b):
    """Dense Gaussian elimination with partial pivoting."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            f = a[row, col] / a[col, col]
            a[row, col:] -= f * a[col, col:]
            b[row] -= f * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def dense_d_matrix(scale) -> np.ndarray:
    if isinstance(scale, DiagonalScale):
        return np.diag(scale.d)
    return scale.matrix


def dense_sigma_mu(g: StructuredGaussian):
    """Explicit Sigma = (Phi' Phi + D^-1)^-1 and mu = Sigma Phi' alpha."""
    d = dense_d_matrix(g.scale)
    prec = g.phi.T @ g.phi + np.linalg.inv(d)
    sigma = np.linalg.inv(prec)
    mu = sigma @ (g.phi.T @ g.alpha)
    return sigma, mu


def woodbury_theta(g: StructuredGaussian, u, delta):
    """Dense oracle u + D Phi' (Phi D Phi' + I)^-1 (alpha - Phi u - delta)."""
    d = dense_d_matrix(g.scale)
    n = g.n
    m = g.phi @ d @ g.phi.T + np.eye(n)
    resid = g.alpha - g.phi @ u - delta
    return u + d @ g.phi.T @ np.linalg.solve(m, resid)


def dense_log_density(g: StructuredGaussian, x):
    """log N(x; mu, Sigma) with explicit inverse and determinant."""
    sigma, mu = dense_sigma_mu(g)
    p = g.p
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    diff = x - mu
    quad = diff @ np.linalg.solve(sigma, diff)
    return -0.5 * p * np.log(2 * np.pi) - 0.5 * logdet - 0.5 * quad


def random_instance(seed, n, p, dense=False) -> StructuredGaussian:
    """Well-conditioned random problem instance."""
    gen = np.random.default_rng(seed)
    phi = gen.standard_normal((n, p))
    alpha = gen.standard_normal(n)
    if dense:
        m = gen.standard_normal((p, p))
        d = m @ m.T / p + np.eye(p)
        scale = DenseSpdScale(d)
    else:
        scale = DiagonalScale(gen.uniform(0.3, 3.0, p))
    return StructuredGaussian(phi, scale, alpha)


def quadrature_cdf(log_unnorm, hi, n_grid=400001):
    """Normalized CDF of an unnormalized density on (0, hi) by trapezoid.

    Returns (grid, cdf) for interpolation; hi must be far enough into
    the tail that the truncated mass is negligible.
    """
    grid = np.linspace(0.0, hi, n_grid)
    with np.errstate(divide="ignore"):
        pdf = np.exp(log_unnorm(grid))
    pdf[~np.isfinite(pdf)] = 0.0
    cdf = cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    return grid, cdf


def ks_statistic(sample, grid, cdf):
    """Exact Kolmogorov-Smirnov distance of a sample to a gridded CDF."""
    s = np.sort(np.asarray(sample))
    f = np.interp(s, grid, cdf)
    i = np.arange(1, s.size + 1)
    return max(
        float(np.max(np.abs(i / s.size - f))),
        float(np.max(np.abs((i - 1) / s.size - f))),
    )


def rejection_sample(gen, n_draws, propose, accept_prob):
    """Draws from density proportional to proposal * accept_prob."""
    out = np.empty(0)
    while out.size < n_draws:
        cand = propose(gen, 2 * n_draws)
        keep = gen.random(cand.size) < accept_prob(cand)
        out = np.concatenate([out, cand[keep]])
    return out[:n_draws]


@pytest.fixture(scope="session")
def small_instance():
    """The fixed n=3, p=8 diagonal instance used by distributional tests."""
    return random_instance(1234, n=3, p=8)


@pytest.fixture(scope="session")
def reference_stream():
    return RngStream(20240811, stream_id=5)
