"""Gibbs sampler for sparse linear regression under the horseshoe prior.

Model: y = X beta + eps, eps ~ N(0, sigma^2 I), with

    beta_j | lambda_j, tau, sigma ~ N(0, lambda_j^2 tau^2 sigma^2)
    lambda_j ~ half-Cauchy(0, 1),  tau ~ half-Cauchy(0, 1)

and noise prior h(sigma^2) proportional to 1/sigma^2 (or sigma^2 held
fixed via ChainConfig.fixed_sigma).  The beta block is drawn exactly
as sigma times a structured-Gaussian fast-sampler draw with phi = X,
D = tau^2 diag(lambda^2), alpha = y/sigma; the scale blocks use
slice transitions in the inverse-square parameterization, where both
conditionals reduce to truncated exponential/gamma draws with
closed-form inversion.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammainc, gammaincinv

from .errors import ConfigError, DimensionMismatch
from .rng import RngStream
from .structured import DiagonalScale, StructuredGaussian, fast_sample

# Below this value of rate * bound, the truncated exponential/gamma is
# indistinguishable from its small-argument power-law limit.
_SMALL_MASS = 1e-10
_CDF_FLOOR = 1e-12


@dataclass(frozen=True)
class RegressionData:
    """Fixed design matrix and response."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 2 or y.ndim != 1:
            raise DimensionMismatch("x must be n x p and y a length-n vector")
        if x.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"x has {x.shape[0]} rows but y has length {y.shape[0]}"
            )
        if x.shape[0] < 2:
            raise DimensionMismatch("need at least two observations")
        if x.shape[1] < 1:
            raise DimensionMismatch("need at least one predictor column")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("x and y entries must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class HorseshoeState:
    """One iteration's parameter block; all scales strictly positive."""

    beta: np.ndarray
    lam: np.ndarray
    tau: float
    sigma2: float

    def __post_init__(self):
        if self.beta.shape != self.lam.shape:
            raise DimensionMismatch("beta and lam must have the same length")
        if not (np.all(self.lam > 0.0) and np.all(np.isfinite(self.lam))):
            raise ValueError("local scales must be finite and positive")
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError("tau must be finite and positive")
        if not (self.sigma2 > 0.0 and np.isfinite(self.sigma2)):
            raise ValueError("sigma2 must be finite and positive")


@dataclass(frozen=True)
class ChainConfig:
    """Chain settings; fixed_sigma, if given, is sigma^2 (not sigma), held fixed."""

    n_iter: int = 6000
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0
    fixed_sigma: float | None = None

    def __post_init__(self):
        if self.n_iter < 1:
            raise ConfigError("n_iter must be positive")
        if not 0 <= self.burn_in < self.n_iter:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < n_iter")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        if self.fixed_sigma is not None and not 0.0 < self.fixed_sigma < np.inf:
            raise ConfigError("fixed_sigma (sigma^2) must be finite and positive")
        if self.n_kept < 1:
            raise ConfigError("no draws kept: lower thin or raise n_iter")

    @property
    def n_kept(self) -> int:
        return (self.n_iter - self.burn_in) // self.thin


@dataclass(frozen=True)
class IntervalSummary:
    """Per-coordinate posterior mean, median and equal-tailed 95% bounds."""

    mean: np.ndarray
    median: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class ChainResult:
    """Kept draws plus per-coordinate summaries.

    draws has shape (kept, p); scale_draws has shape (kept, 2) holding
    (tau, sigma2) pairs.
    """

    draws: np.ndarray
    scale_draws: np.ndarray
    summaries: IntervalSummary


def update_beta(state: HorseshoeState, data: RegressionData, rng: RngStream) -> np.ndarray:
    """Exact draw from beta | y, lambda, tau, sigma.

    The conditional is N(A^-1 X' y, sigma^2 A^-1) with
    A = X' X + Lambda*^-1, Lambda* = tau^2 diag(lambda^2): sigma times a
    draw from the structured Gaussian phi = X, D = Lambda*,
    alpha = y/sigma, whose mean is A^-1 X' y / sigma and covariance
    A^-1.  sigma cancels from the n x n system X Lambda* X' + I, and
    X is used as it is, with no n x p copy.
    """
    sigma = float(np.sqrt(state.sigma2))
    d = state.tau**2 * (state.lam * state.lam)
    g = StructuredGaussian(data.x, DiagonalScale(d), data.y / sigma)
    return sigma * fast_sample(g, rng).theta


def update_lambda(state: HorseshoeState, rng: RngStream) -> np.ndarray:
    """One slice transition for every local scale, done as a block.

    In eta_j = lambda_j^-2 the conditional is
    p(eta_j) ~ exp(-m_j eta_j) / (1 + eta_j) with
    m_j = beta_j^2 / (2 tau^2 sigma^2): draw the slice level, then a
    truncated exponential by inversion.  m_j = 0 degenerates to a
    uniform draw on the slice interval, as does m_j * bound below the
    resolution of expm1.
    """
    eta = 1.0 / (state.lam * state.lam)
    m = state.beta * state.beta / (2.0 * state.tau**2 * state.sigma2)
    s = rng.uniform(size=eta.shape[0]) / (1.0 + eta)
    bound = (1.0 - s) / s
    u = rng.uniform(size=eta.shape[0])
    mass = m * bound
    uniform_branch = mass < _SMALL_MASS
    safe_m = np.where(uniform_branch, 1.0, m)
    eta_new = np.where(
        uniform_branch,
        u * bound,
        -np.log1p(u * np.expm1(-mass)) / safe_m,
    )
    return 1.0 / np.sqrt(eta_new)


def update_tau(state: HorseshoeState, rng: RngStream) -> float:
    """One slice transition for the global scale.

    In xi = tau^-2 the conditional is
    p(xi) ~ xi^((p-1)/2) exp(-xi S / (2 sigma^2)) / (1 + xi) with
    S = sum_j beta_j^2 / lambda_j^2: draw the slice level, then a
    gamma truncated to (0, bound) by inverse CDF.  When the gamma mass
    below the bound underflows (including the degenerate S = 0 target),
    fall back to the small-bound power law bound * u^(2/(p+1)).
    """
    p = state.beta.shape[0]
    xi = 1.0 / (state.tau * state.tau)
    ratio = state.beta / state.lam
    rate = float(np.dot(ratio, ratio)) / (2.0 * state.sigma2)
    shape = 0.5 * (p + 1)
    s = rng.uniform() / (1.0 + xi)
    bound = (1.0 - s) / s
    u = rng.uniform()
    mass = gammainc(shape, rate * bound)
    if mass < _CDF_FLOOR:
        xi_new = bound * u ** (1.0 / shape)
    else:
        xi_new = float(gammaincinv(shape, u * mass)) / rate
        if not (xi_new > 0.0 and np.isfinite(xi_new)):
            xi_new = bound * u ** (1.0 / shape)
    return float(1.0 / np.sqrt(xi_new))


def _sigma2_floor(data: RegressionData) -> float:
    """Smallest representable-in-context noise variance.

    A dataset whose response lies exactly in the column span of X makes
    the posterior of sigma^2 pile up at 0 under the improper 1/sigma^2
    prior; unchecked, the standardized beta-update system then loses
    its identity term at float64.  Flooring sigma^2 at 1e-12 of the
    response variance is invisible for any non-degenerate dataset and
    keeps the chain finite in the degenerate limit.
    """
    v = float(np.var(data.y))
    return 1e-12 * (v if v > 0.0 else 1.0)


def update_sigma2(state: HorseshoeState, data: RegressionData, rng: RngStream) -> float:
    """Conjugate inverse-gamma draw for the noise variance.

    sigma^2 | rest ~ InvGamma((n + p)/2, (|y - X beta|^2 +
    sum_j beta_j^2 / (tau^2 lambda_j^2)) / 2) under the improper prior
    1/sigma^2.  The scale is floored at 1e-300 so a perfect fit cannot
    produce a zero or NaN draw, and the draw itself is floored at a
    data-relative level (see _sigma2_floor).
    """
    resid = data.y - data.x @ state.beta
    ratio = state.beta / state.lam
    scale = 0.5 * (float(np.dot(resid, resid)) + float(np.dot(ratio, ratio)) / state.tau**2)
    scale = max(scale, 1e-300)
    shape = 0.5 * (data.n + data.p)
    draw = scale / rng.gamma(shape, 1.0)  # 1/Gamma(shape, rate=scale)
    if not np.isfinite(draw):
        draw = 1e300
    return max(draw, _sigma2_floor(data))


def _initial_state(data: RegressionData, cfg: ChainConfig) -> HorseshoeState:
    if cfg.fixed_sigma is not None:
        sigma2 = float(cfg.fixed_sigma)
    else:
        sigma2 = float(np.var(data.y))
        if not sigma2 > 0.0:
            sigma2 = 1.0
    return HorseshoeState(
        beta=np.zeros(data.p),
        lam=np.ones(data.p),
        tau=1.0,
        sigma2=sigma2,
    )


def run_chain(data: RegressionData, cfg: ChainConfig) -> ChainResult:
    """Systematic-scan Gibbs: beta, lambda, tau, sigma^2 per iteration.

    The result is a pure function of (data, cfg); all randomness comes
    from the stream keyed by cfg.seed.
    """
    rng = RngStream(cfg.seed, stream_id=0)
    state = _initial_state(data, cfg)
    kept = cfg.n_kept
    draws = np.empty((kept, data.p))
    scale_draws = np.empty((kept, 2))
    k = 0
    for it in range(1, cfg.n_iter + 1):
        state = replace(state, beta=update_beta(state, data, rng))
        state = replace(state, lam=update_lambda(state, rng))
        state = replace(state, tau=update_tau(state, rng))
        if cfg.fixed_sigma is None:
            state = replace(state, sigma2=update_sigma2(state, data, rng))
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            draws[k] = state.beta
            scale_draws[k, 0] = state.tau
            scale_draws[k, 1] = state.sigma2
            k += 1
    assert k == kept
    summaries = IntervalSummary(
        mean=draws.mean(axis=0),
        median=np.median(draws, axis=0),
        lower=np.quantile(draws, 0.025, axis=0),
        upper=np.quantile(draws, 0.975, axis=0),
    )
    return ChainResult(draws=draws, scale_draws=scale_draws, summaries=summaries)
