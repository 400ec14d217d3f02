"""Exact sampling from N(mu, Sigma) with Sigma = (Phi' Phi + D^-1)^-1.

The target family is parameterized by an n x p coupling matrix ``phi``,
a p x p SPD prior covariance ``D`` (diagonal or dense), and an n-vector
``alpha``; the mean is mu = Sigma Phi' alpha.  ``fast_sample`` draws one
exact sample by augmentation in O(n^2 p) for diagonal D (O(n p^2) for
dense D):

    (i)   u ~ N(0, D),  delta ~ N(0, I_n)
    (ii)  v = Phi u + delta
    (iii) solve (Phi D Phi' + I_n) w = alpha - v
    (iv)  theta = u + D Phi' w

Step (iii) needs the Cholesky factor of M = Phi D Phi' + I_n.  An
instance builds it the first time ``fast_sample``, ``posterior_mean``
or ``log_density`` asks for it and keeps it, together with M^-1 alpha
and log |Sigma^-1| = log |M| - log |D|; a scale keeps log |D|, and a
diagonal scale also keeps D^{1/2}.  Each is computed on first use.
For diagonal D, every later draw then costs p + n standard normals,
two passes over Phi and one n x n solve, the mean costs one pass over
Phi, and a density one pass over Phi plus O(p).  M is built as
I_n + sum_b B_b B_b', one ``b @ b.T`` (a BLAS SYRK) per column panel
B_b of Phi D^{1/2} (Phi L for a dense D = L L'), summed into the first
panel's n x n array, which is then factored in place.  A panel holds
about _PANEL_BYTES, so it stays in a core's L2 cache, and the build's
transient memory is n x panel + n^2 doubles, whatever p is.  Step (iv)
forms D (Phi' w) as D times w' Phi, so no step holds an n x p array
beyond ``phi``.
No kept array is returned to a caller.  The instance's arrays must
not be mutated after construction.

``baseline_sample`` draws from the same distribution by forming the
p x p precision matrix and factoring it at every call, which is the
O(p^3) reference method the fast path is benchmarked against.
"""
from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite
from .linalg import SpdFactor, cholesky, solve_lower, solve_spd
from .rng import RngStream

# Bytes of one column panel of Phi D^{1/2} in the build of M.  Panels of
# 256 and 512 KiB built M at (100, 5000) equally fast on a core with a
# 2 MiB L2 cache; the smaller one holds less memory.
_PANEL_BYTES = 256 * 1024

LOG_2PI = float(np.log(2.0 * np.pi))

# A dense D whose Cholesky pivot is at or below PIVOT_RTOL * trace(D)/p
# is singular at working precision rather than merely small.
PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class DiagonalScale:
    """Diagonal prior covariance D = diag(d), d > 0."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 1:
            raise DimensionMismatch("diagonal scale expects a vector of variances")
        if d.size == 0 or not np.all(np.isfinite(d)) or np.min(d) <= 0.0:
            raise ValueError("diagonal scale entries must be finite and positive")
        object.__setattr__(self, "d", d)

    @property
    def dim(self) -> int:
        return self.d.shape[0]

    @functools.cached_property
    def _sqrt_d(self) -> np.ndarray:
        """D^{1/2}, read by every draw and by the build of Phi D Phi'."""
        return np.sqrt(self.d)

    def sample_zero_mean(self, rng: RngStream) -> np.ndarray:
        return self._sqrt_d * rng.standard_normal(self.dim)

    def phi_times_scale(self, phi: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Columns lo:hi of B = Phi D^{1/2}, a new n x (hi - lo) array.

        Summed over panels that cover 0:p, B_b B_b' gives Phi D Phi';
        each panel costs O(n (hi - lo)).
        """
        return phi[:, lo:hi] * self._sqrt_d[lo:hi]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """D x."""
        return self.d * x

    def inv_quad(self, x: np.ndarray) -> float:
        return float(np.dot(x, x / self.d))

    def add_inverse_inplace(self, q: np.ndarray) -> None:
        q.flat[:: self.dim + 1] += 1.0 / self.d

    @functools.cached_property
    def log_det(self) -> float:
        return float(np.sum(np.log(self.d)))


@dataclass(frozen=True)
class DenseSpdScale:
    """Dense SPD prior covariance D with its Cholesky factor.

    Sampling N(0, D) for non-diagonal D needs a concrete square root,
    so D is factored here, once, and the factor is carried alongside
    the matrix.  D must be square (DimensionMismatch), finite and
    symmetric to 1e-10 of its largest entry (ValueError).  A pivot at or
    below PIVOT_RTOL * trace(D)/p, singular at working precision,
    raises NotPositiveDefinite.
    """

    matrix: np.ndarray
    factor: SpdFactor = field(init=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise DimensionMismatch("dense scale expects a nonempty square matrix")
        if not np.all(np.isfinite(m)):
            raise ValueError("dense scale entries must be finite")
        if np.max(np.abs(m - m.T)) > 1e-10 * np.max(np.abs(m)):
            raise ValueError("matrix is not symmetric within tolerance")
        floor = PIVOT_RTOL * float(np.trace(m)) / m.shape[0]
        factor = cholesky(m.copy())
        pivot = np.min(np.diagonal(factor.lower)) ** 2
        if pivot <= floor:
            raise NotPositiveDefinite(f"pivot {pivot:.3e} at or below floor {floor:.3e}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "factor", factor)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def sample_zero_mean(self, rng: RngStream) -> np.ndarray:
        return self.factor.lower @ rng.standard_normal(self.dim)

    def phi_times_scale(self, phi: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """Columns lo:hi of B = Phi L for D = L L', a new n x (hi - lo) array.

        Summed over panels that cover 0:p, B_b B_b' gives Phi D Phi'.
        L is lower triangular, so rows above lo of its columns lo:hi are
        zero and the panel is Phi[:, lo:] L[lo:, lo:hi]: over all panels
        about n p^2 / 2 flops, the O(np^2) worst-case term.
        """
        return phi[:, lo:] @ self.factor.lower[lo:, lo:hi]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """D x."""
        return self.matrix @ x

    def inv_quad(self, x: np.ndarray) -> float:
        y = solve_lower(self.factor, x)
        return float(np.dot(y, y))

    def add_inverse_inplace(self, q: np.ndarray) -> None:
        q += solve_spd(self.factor, np.eye(self.dim))

    @functools.cached_property
    def log_det(self) -> float:
        return self.factor.log_det


ScaleStructure = DiagonalScale | DenseSpdScale


def factor_identity_plus(s: np.ndarray) -> SpdFactor:
    """The Cholesky factor of I + S, built in ``s``, which it destroys.

    ``s`` is a C-ordered n x n temporary holding a symmetric S, of
    which only the upper triangle is read; the identity is added to its
    diagonal and the sum is factored in place.  This is the one place
    where M = I + Phi D Phi' is formed and factored:
    ``StructuredGaussian`` and the horseshoe chain's global-scale step
    both call it.  For S positive semidefinite, I + S is SPD with
    eigenvalues >= 1, so no pivot floor runs; one would misfire for
    large D.
    """
    s.ravel()[:: s.shape[0] + 1] += 1.0  # s is C-contiguous: ravel is a view
    return cholesky(s)


@dataclass(frozen=True)
class StructuredGaussian:
    """Problem instance (phi, D, alpha) and, once used, its n x n factor.

    The factor of M = Phi D Phi' + I_n, M^-1 alpha and log |Sigma^-1|
    are each computed on first use and kept by
    ``functools.cached_property``, so repeated draws, the mean and the
    densities on one instance share them: after the first call a draw
    costs p + n normals, two passes over Phi and one n x n solve, and a
    density one pass over Phi plus O(p).  M is gathered panel by panel
    (see the module docstring), so building it holds n x panel + n^2
    doubles beyond phi, never an n x p array.  Construction checks
    shapes and a finite alpha; a NaN, infinite or overflowing phi raises
    NotPositiveDefinite from ``cholesky`` when M (or Phi' Phi + D^-1 in
    ``baseline_sample``) is factored.
    Do not mutate phi, alpha or the scale's arrays after construction:
    the kept values would no longer match them.  A changed D needs a
    new instance (``dataclasses.replace`` gives one that keeps nothing;
    it shares the scale, which keeps its own log |D| and D^{1/2}).

    ``_factor`` is private: a caller that has already factored
    M = Phi D Phi' + I_n (the horseshoe chain's global-scale step does)
    passes that factor so the instance does not build it again.  Only
    its order is checked; that it factors this instance's M is the
    caller's promise.
    """

    phi: np.ndarray
    scale: ScaleStructure
    alpha: np.ndarray
    _factor: InitVar[SpdFactor | None] = None

    def __post_init__(self, _factor):
        phi = np.ascontiguousarray(self.phi, dtype=float)
        alpha = np.asarray(self.alpha, dtype=float)
        if phi.ndim != 2:
            raise DimensionMismatch("phi must be an n x p matrix")
        if alpha.ndim != 1:
            raise DimensionMismatch("alpha must be a vector")
        n, p = phi.shape
        if n < 1 or p < 1:
            raise DimensionMismatch("phi must have at least one row and column")
        if self.scale.dim != p:
            raise DimensionMismatch(
                f"scale dim {self.scale.dim} does not match phi cols {p}"
            )
        if alpha.shape[0] != n:
            raise DimensionMismatch(
                f"alpha length {alpha.shape[0]} does not match phi rows {n}"
            )
        if not np.all(np.isfinite(alpha)):
            raise ValueError("alpha entries must be finite")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "alpha", alpha)
        if _factor is not None:
            if _factor.dim != n:
                raise DimensionMismatch(f"factor order {_factor.dim} does not match phi rows {n}")
            self.__dict__["_coupling"] = _factor

    @property
    def n(self) -> int:
        return self.phi.shape[0]

    @property
    def p(self) -> int:
        return self.phi.shape[1]

    @functools.cached_property
    def _coupling(self) -> SpdFactor:
        """The factor of M = Phi D Phi' + I_n, the sum of I_n and B_b B_b'
        over column panels B_b of Phi D^{1/2}.  An overflow in a panel, its
        Gram matrix or the sum leaves inf or NaN in M with no warning."""
        n, p = self.phi.shape
        width = max(1, _PANEL_BYTES // (8 * n))
        with np.errstate(over="ignore", invalid="ignore"):
            b = self.scale.phi_times_scale(self.phi, 0, min(width, p))
            m = b @ b.T
        for lo in range(width, p, width):
            with np.errstate(over="ignore", invalid="ignore"):
                b = self.scale.phi_times_scale(self.phi, lo, min(lo + width, p))
                m += b @ b.T
        return factor_identity_plus(m)

    @functools.cached_property
    def _m_inv_alpha(self) -> np.ndarray:
        """M^-1 alpha, read by the mean and by every density."""
        return solve_spd(self._coupling, self.alpha)

    @functools.cached_property
    def _log_det_prec(self) -> float:
        """log |Sigma^-1| = log |M| - log |D|."""
        return -self.scale.log_det + self._coupling.log_det


@dataclass(frozen=True)
class AugmentedDraw:
    """One fast_sample draw with all intermediates retained.

    theta is the sample from N(mu, Sigma); u, delta, v, w are the
    augmentation variables, kept because the joint of (u, v) carries
    checkable structure (cov(u, v) = D Phi', cov(v) = Phi D Phi' + I).
    """

    u: np.ndarray
    delta: np.ndarray
    v: np.ndarray
    w: np.ndarray
    theta: np.ndarray


def fast_sample(g: StructuredGaussian, rng: RngStream) -> AugmentedDraw:
    """One exact draw from N(mu, Sigma) via the n x n augmented system.

    Consumes p standard normals for u, then n for delta.  The first draw
    (or mean, or density) on an instance builds its n x n system, whose
    panelled SYRKs over the n x p Phi D^{1/2} dominate the cost and grow
    linearly in p for diagonal D; later draws on the same instance cost
    O(np).  The system is built before Phi u is formed, so an
    overflowing Phi D Phi' raises NotPositiveDefinite with no warning.

    Precision: theta = u + D Phi' w cancels u, drawn at the prior's
    scale, down to the posterior's, so a draw silently loses about half
    of log10 |M|_2 digits, M = I + Phi D Phi'.  With phi = alpha = 1 the
    absolute error was 2.5e-8 at D = 1e16 and 1.2 at D = 1e32.  Nothing
    is raised, since M >= I always factors.  Where the data shrink a
    huge D that far, ``baseline_sample``, which factors the p x p
    precision, does not cancel (ROADMAP item 6).
    """
    factor = g._coupling
    u = g.scale.sample_zero_mean(rng)
    delta = rng.standard_normal(g.n)
    v = g.phi @ u + delta
    w = solve_spd(factor, g.alpha - v)
    theta = u + g.scale.matvec(w @ g.phi)
    return AugmentedDraw(u=u, delta=delta, v=v, w=w, theta=theta)


def posterior_mean(g: StructuredGaussian) -> np.ndarray:
    """mu = D Phi' (Phi D Phi' + I)^-1 alpha, the u = delta = 0 case."""
    return g.scale.matvec(g._m_inv_alpha @ g.phi)


def baseline_sample(g: StructuredGaussian, rng: RngStream) -> np.ndarray:
    """Reference draw via Cholesky of the p x p precision matrix.

    Deliberately forms and factors Q = Phi' Phi + D^-1 on every call:
    in the Gibbs settings this library targets, D changes each
    iteration, so there is no factor to reuse.  Consumes p standard
    normals.
    """
    # Q = Phi' Phi + D^-1 is SPD for a finite Phi (D is validated SPD);
    # an overflow leaves inf or NaN in Q, silently, which cholesky rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        q = g.phi.T @ g.phi
        g.scale.add_inverse_inplace(q)
    factor = cholesky(q)
    # mu + L^-T z = L^-T (L^-1 Phi' alpha + z): two triangular solves.
    w = solve_lower(factor, g.phi.T @ g.alpha)
    z = rng.standard_normal(g.p)
    return solve_lower(factor, w + z, transpose=True)


def log_density(g: StructuredGaussian, x: np.ndarray) -> float:
    """log N(x; mu, Sigma) using only n x n factorizations.

    log |Sigma^-1| = log |D^-1| + log |I_n + Phi D Phi'| and the
    quadratic form expands through Sigma^-1 mu = Phi' alpha, so for
    diagonal D the first call on an instance costs O(n^3 + n^2 p) and
    each later one a pass over Phi plus O(p).  It never
    returns NaN: where the value would be NaN, as for a NaN entry of x
    or for an infinite one whose terms cancel as inf - inf, it raises
    ValueError.  An infinite x whose terms do not cancel, or a finite one
    whose quadratic form overflows, gives -inf with no warning.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (g.p,):
        raise DimensionMismatch(f"x has shape {x.shape}, expected ({g.p},)")
    log_det_prec = g._log_det_prec
    with np.errstate(over="ignore", invalid="ignore"):
        phi_x = g.phi @ x
        quad_x = float(np.dot(phi_x, phi_x)) + g.scale.inv_quad(x)
        cross = float(np.dot(phi_x, g.alpha))
    # mu' Sigma^-1 mu = alpha' (I - M^-1) alpha for M = Phi D Phi' + I.
    quad_mu = float(np.dot(g.alpha, g.alpha) - np.dot(g.alpha, g._m_inv_alpha))
    quad = quad_x - 2.0 * cross + quad_mu
    value = -0.5 * g.p * LOG_2PI + 0.5 * log_det_prec - 0.5 * quad
    if math.isnan(value):  # one O(1) check, not a scan of x
        raise ValueError("log density is NaN: x has a non-finite entry or overflows")
    return value
