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


def dense_system(g: StructuredGaussian) -> np.ndarray:
    """Dense oracle M = I + Phi D Phi', formed with explicit D."""
    return g.phi @ dense_d_matrix(g.scale) @ g.phi.T + np.eye(g.n)


def woodbury_theta(g: StructuredGaussian, u, delta):
    """Dense oracle u + D Phi' (Phi D Phi' + I)^-1 (alpha - Phi u - delta)."""
    d = dense_d_matrix(g.scale)
    resid = g.alpha - g.phi @ u - delta
    return u + d @ g.phi.T @ np.linalg.solve(dense_system(g), resid)


def dense_log_density(g: StructuredGaussian, x):
    """log N(x; mu, Sigma) with explicit inverse and determinant."""
    sigma, mu = dense_sigma_mu(g)
    p = g.p
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    diff = x - mu
    quad = diff @ np.linalg.solve(sigma, diff)
    return -0.5 * p * np.log(2 * np.pi) - 0.5 * logdet - 0.5 * quad


def whitened_log_density(g: StructuredGaussian, x):
    """log N(x; mu, Sigma) in whitened coordinates z = L^-1 x, D = L L'.

    L is diag(sqrt(d)) for a diagonal D and the scale's factor for a
    dense one.  With B = Phi L, Sigma^-1 = L^-T (I + B'B) L^-1: z has
    precision A = I + B'B and mean A^-1 B' alpha, the least-squares
    solution of C z = h for C = [B; I] and h = [alpha; 0], and the
    density of x is that of z times |L|^-1.  Phi'Phi + D^-1 is never
    inverted, and A is never formed, since forming it rounds away its
    identity part where B is large: the QR factorization C = QR gives
    A = R'R, so log |A| = 2 sum log |R_ii| and the quadratic form
    (z - A^-1 B' alpha)' A (z - A^-1 B' alpha) is |R z - Q'h|^2.
    """
    if isinstance(g.scale, DiagonalScale):
        low = np.diag(np.sqrt(g.scale.d))
    else:
        low = g.scale.factor.lower
    z, b = np.linalg.solve(low, x), g.phi @ low
    log_det_l = float(np.sum(np.log(np.diagonal(low))))
    q, r = np.linalg.qr(np.vstack([b, np.eye(g.p)]))
    h = np.concatenate([g.alpha, np.zeros(g.p)])
    resid = r @ z - q.T @ h
    log_det_a = 2.0 * float(np.sum(np.log(np.abs(np.diagonal(r)))))
    return (-0.5 * g.p * np.log(2 * np.pi) + 0.5 * log_det_a - log_det_l
            - 0.5 * float(resid @ resid))


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


def quadrature_cdf(log_unnorm, hi, n_grid=400001, lo=0.0):
    """Normalized CDF of an unnormalized density on (lo, hi) by trapezoid.

    Returns (grid, cdf) for interpolation; lo and hi must be far enough
    into the tails that the truncated mass is negligible.
    """
    grid = np.linspace(lo, hi, n_grid)
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


class OneColumnXiTarget:
    """The xi = tau^-2 target of ``update_tau`` for p = 1, in closed form.

    For x an n-vector and a fixed local scale lam, K = lam^2 x x' has
    rank one: with c = lam^2 |x|^2, |I + K/xi| = 1 + c/xi and, by
    Sherman-Morrison, q = y'(I + K/xi)^-1 y = |y|^2 - lam^2 (x'y)^2 / (xi + c).
    The noise term is m(q) = exp(-q / (2 sigma2)) for a fixed sigma2, and
    q^(-n/2) with sigma^2 integrated under 1/sigma^2 (the floor of the
    library's prior is taken as 0, which changes m by far less than
    float64 resolution for the data used here).  The density per unit xi
    is then (xi + c)^(-1/2) m(q) / (1 + xi).
    """

    def __init__(self, x, y, lam=1.0, sigma2=None):
        self.x, self.y = np.asarray(x, float), np.asarray(y, float)
        self.lam, self.sigma2 = float(lam), sigma2
        self.c = self.lam**2 * float(self.x @ self.x)
        self.xy2 = self.lam**2 * float(self.x @ self.y) ** 2
        self.yy = float(self.y @ self.y)
        self.q_min = self.yy - self.xy2 / self.c  # the residual of y on x

    def q(self, xi):
        return self.yy - self.xy2 / (xi + self.c)

    def log_m(self, q):
        if self.sigma2 is None:
            return -0.5 * self.y.size * np.log(q)
        return -0.5 * q / self.sigma2

    def log_density_log_xi(self, s):
        """Unnormalized log density of s = log xi."""
        xi = np.exp(s)
        return -0.5 * np.log(xi + self.c) + self.log_m(self.q(xi)) - np.log1p(xi) + s

    def sample(self, gen, n_draws):
        """Exact draws of xi by rejection from the Lomax density (1 + xi)^(-3/2) / 2.

        The ratio of target to proposal is proportional to
        sqrt((1 + xi) / (xi + c)) m(q), which is at most
        max(1, c^(-1/2)) m(q_min): m decreases in q and q >= q_min.
        """
        bound = max(1.0, 1.0 / np.sqrt(self.c))
        return rejection_sample(
            gen, n_draws,
            propose=lambda g, k: (1.0 - g.random(k)) ** -2.0 - 1.0,
            accept_prob=lambda xi: (np.sqrt((1.0 + xi) / (xi + self.c)) / bound
                                    * np.exp(self.log_m(self.q(xi)) - self.log_m(self.q_min))),
        )
