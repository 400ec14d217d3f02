"""Gibbs sampler for sparse linear regression under the horseshoe prior.

Model: y = X beta + eps, eps ~ N(0, sigma^2 I), with

    beta_j | lambda_j, tau, sigma ~ N(0, lambda_j^2 tau^2 sigma^2)
    lambda_j ~ half-Cauchy(0, 1),  tau ~ half-Cauchy(0, 1)

and noise prior h(sigma^2) proportional to 1/sigma^2 on [f, inf), with
f = RegressionData.sigma2_floor (or sigma^2 held fixed via
ChainConfig.fixed_sigma).

An iteration first updates the local scales by a slice transition in
eta_j = lambda_j^-2, where the conditional reduces to a truncated
exponential drawn by inversion.  It then draws (tau, sigma^2, beta)
given lambda as one exact block, the blocked update of Johndrow,
Orenstein & Bhattacharya (JMLR 2020):

    xi = tau^-2         random-walk Metropolis on log xi, with beta and
                        sigma^2 integrated out of its target
    sigma^2 | xi        truncated inverse gamma, beta integrated out
    beta | xi, sigma^2  sigma times an augmented draw
                        (structured.augmented_draw) with phi = X,
                        D = tau^2 diag(lambda^2), alpha = y/sigma

All three read the n x n system M = I + tau^2 X Lambda^2 X'.  Its
factor gives log |M| and q = y' M^-1 y for the xi target and the
sigma^2 draw, and the accepted factor is the one the beta draw solves
against, so K = X Lambda^2 X' is formed once per iteration (_gram).
Below _SPLIT_ENTRIES (2^16) entries of X that is one ``b @ b.T``
(a BLAS SYRK).  From there on the columns are split in two halves,
whose Gram matrices are summed; the first half runs on a helper
thread.  For a given BLAS thread count the bits depend on the size of
X only.  The halves take more CPU time than the one SYRK, so the split
pays only while a core is idle: a large chain uses two threads, and
chains run in parallel should be counted at two cores each.
M is added to the identity and factored by
``structured.factor_identity_plus``, the function that builds every
structured Gaussian's system, and ``update_beta`` draws on the TauDraw
that holds the accepted factor and its (lam, tau): it builds no system.

update_beta takes update_tau's TauDraw, the others plain arrays and
scalars; run_chain holds the state as locals.  A zero, infinite or NaN
lambda or tau fails in the block that next reads it (tau or beta);
update_sigma2 and update_beta check their draws.

scipy.special, which only the sampled-sigma^2 steps use, is imported
inside _log_sigma2_integral and update_sigma2, not with this module: a
process that only samples structured Gaussians, or runs a fixed_sigma
chain, never loads it, and a sampled-sigma^2 chain loads it in its
first iteration.
"""
from __future__ import annotations

import contextvars
import functools
import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .linalg import SpdFactor, solve_lower
from .rng import RngStream
from .structured import DiagonalScale, augmented_draw, factor_identity_plus
# perfbench/tracing.py wraps these two by name; the chain calls neither.
from .structured import StructuredGaussian, fast_sample  # noqa: F401

# Below this value of rate * bound, the truncated exponential is
# indistinguishable from its small-argument uniform limit.
_SMALL_MASS = 1e-10

# Standard deviation of the random-walk proposal on log(tau^-2).  A
# fixed constant of the kernel, not tuned to any dataset.
_LOG_XI_STEP = 0.8

# Fewest entries n * p of X for which _gram splits K into two column
# halves.  On a 2-core host with one BLAS thread per call the two ways
# break even between 100 x 500 and 100 x 1000 entries, and at 100 x 5000
# the halves take about two thirds of the one SYRK's time.
_SPLIT_ENTRIES = 1 << 16

# Most bytes of draws that _summarize sorts at once: its transient
# memory, a few blocks of this size, does not grow with the chain.
_SUMMARY_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class RegressionData:
    """Fixed design matrix and response.

    sigma2_floor is the lower end of the noise prior's support: 1e-12 of
    the response variance (1e-12 for a constant response).  A response
    lying exactly in the column span of X makes the posterior of sigma^2
    pile up at 0 under the improper 1/sigma^2 prior; bounding the support
    is invisible for any non-degenerate dataset and keeps the chain
    finite in the degenerate limit.
    """

    x: np.ndarray
    y: np.ndarray
    sigma2_floor: float = field(init=False, repr=False, compare=False)

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
        with np.errstate(over="ignore", invalid="ignore"):
            v = float(np.var(y))
        if not math.isfinite(v):
            raise ValueError("the variance of y overflows: rescale y")
        object.__setattr__(self, "sigma2_floor", 1e-12 * (v if v > 0.0 else 1.0))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ChainConfig:
    """Chain settings; fixed_sigma, if given, is sigma^2 (not sigma), held fixed."""

    n_iter: int = 6000
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0
    fixed_sigma: float | None = None

    def __post_init__(self):
        for name in ("n_iter", "burn_in", "thin", "seed"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ConfigError(f"{name} must be an integer") from None
        if self.n_iter < 1:
            raise ConfigError("n_iter must be positive")
        if not 0 <= self.burn_in < self.n_iter:
            raise ConfigError("burn_in must satisfy 0 <= burn_in < n_iter")
        if self.thin < 1:
            raise ConfigError("thin must be >= 1")
        try:
            bad = self.fixed_sigma is not None and not 0.0 < self.fixed_sigma < np.inf
        except (TypeError, ValueError):  # as from a string or an array
            bad = True
        if bad:
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
    (tau, sigma2) pairs.  tau_acceptance is the share of the n_iter
    Metropolis proposals for tau, burn-in included, that were accepted.
    """

    draws: np.ndarray
    scale_draws: np.ndarray
    summaries: IntervalSummary
    tau_acceptance: float


class TauDraw(NamedTuple):
    """What update_tau returns, and what update_beta draws from.

    factor is the Cholesky factor of M = I + tau^2 X Lambda^2 X' at tau
    and lam (the array update_tau was given, not a copy); q = y' M^-1 y.
    That match in a hand-built TauDraw is the caller's responsibility.
    """

    tau: float
    accepted: bool
    factor: SpdFactor
    q: float
    lam: np.ndarray


def update_lambda(beta: np.ndarray, lam: np.ndarray, tau: float, sigma2: float,
                  rng: RngStream) -> np.ndarray:
    """One slice transition for every local scale, done as a block.

    beta and lam (arrays of one shape, else DimensionMismatch), tau and
    sigma2 are the current state; the new lam is returned.
    In eta_j = lambda_j^-2 the conditional is
    p(eta_j) ~ exp(-m_j eta_j) / (1 + eta_j) with
    m_j = beta_j^2 / (2 tau^2 sigma^2): draw the slice level, then a
    truncated exponential by inversion.  m_j = 0 degenerates to a
    uniform draw on the slice interval, as does m_j * bound below the
    resolution of expm1.
    """
    if beta.shape != lam.shape:
        raise DimensionMismatch("beta and lam must have the same length")
    eta = 1.0 / (lam * lam)
    m = beta * beta / (2.0 * tau**2 * sigma2)
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


def _log_sigma2_integral(q: float, n: int, floor: float) -> float:
    """log of the integral of sigma^-n exp(-q / (2 sigma^2)) / sigma^2 over
    sigma^2 in [floor, inf), less the constant (n/2) log 2 + lgamma(n/2).

    That is -(n/2) log q + log P(n/2, q / (2 floor)) for the regularized
    lower incomplete gamma P.  Below x = q / (2 floor) = n/2, where P
    can underflow, the same value comes from P(a, x) =
    x^a e^-x M(1, a + 1, x) / Gamma(a + 1) with Kummer's function M;
    at q = 0, a zero response, that form is the exact limit.
    """
    from scipy.special import gammainc, hyp1f1

    a = 0.5 * n
    x = q / (2.0 * floor)
    if x > a:
        return -a * math.log(q) + math.log(gammainc(a, x))
    return (-a * math.log(2.0 * floor) - x - math.lgamma(a + 1.0)
            + math.log(hyp1f1(1.0, a + 1.0, x)))


def _log_xi_target(k: np.ndarray, data: RegressionData, s: float,
                   fixed_sigma2: float | None) -> tuple[float, SpdFactor, float]:
    """update_tau's log target at log xi = s, the factor of M and q, under
    update_tau's error state: an overflow in K/xi or q gives inf silently."""
    factor = factor_identity_plus(k * math.exp(-s))  # M = I + K/xi; cholesky rejects inf
    z = solve_lower(factor, data.y)
    q = float(np.dot(z, z))  # update_sigma2 rejects an infinite q
    if fixed_sigma2 is None:
        log_m = _log_sigma2_integral(q, data.n, data.sigma2_floor)
    else:
        log_m = -0.5 * q / fixed_sigma2
    log_prior = 0.5 * s - float(np.logaddexp(0.0, s))
    return -0.5 * factor.log_det + log_m + log_prior, factor, q


@functools.cache
def _helper_pool(pid: int) -> ThreadPoolExecutor:
    """The helper thread of process ``pid`` that builds the first half of
    a split K, started on first use.  A forked child has its parent's
    executor but not its thread; keyed by its own pid, it starts its own,
    so the cache holds one entry per process in the child's ancestry.
    Threads that race on first use may build a second executor; it
    serves its one call, and its thread exits when it is collected."""
    return ThreadPoolExecutor(max_workers=1, thread_name_prefix="fastmvg-gram")


def _half_gram(x: np.ndarray, lam: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """B B' for B = X[:, lo:hi] diag(lam[lo:hi]), under the caller's error
    state: under update_tau's, an overflow in either product gives inf or
    NaN silently, on the helper thread too (see linalg)."""
    b = x[:, lo:hi] * lam[lo:hi]
    return b @ b.T


def _gram(x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """K = X diag(lam^2) X', a new symmetric C-ordered n x n array.

    Below _SPLIT_ENTRIES entries of x this is one ``b @ b.T``.  From there
    on the columns are split at c = p // 2, each half gives its own Gram
    matrix, and K is their sum.  The first half is built on one helper
    thread, in a copy of the caller's context and so under its error
    state, while the calling thread builds the second.  For a given BLAS
    thread count K depends on the size of x alone; the two paths differ
    only in the last digits.  Enters no error state of its own.
    """
    n, p = x.shape
    if n * p < _SPLIT_ENTRIES:
        return _half_gram(x, lam, 0, p)
    c = p // 2
    pending = _helper_pool(os.getpid()).submit(
        contextvars.copy_context().run, _half_gram, x, lam, 0, c)
    try:
        second = _half_gram(x, lam, c, p)
    finally:
        first = pending.result()  # no work outlives the call
    first += second
    return first


def update_tau(data: RegressionData, lam: np.ndarray, tau: float, rng: RngStream,
               fixed_sigma2: float | None = None) -> TauDraw:
    """One Metropolis step for the global scale, beta and sigma^2 integrated out.

    With xi = tau^-2, M = I + K/xi and K = X Lambda^2 X', y given
    (lambda, xi, sigma^2) is N(0, sigma^2 M).  The target per unit of
    log xi is

        -1/2 log |M| + log m(q) + 1/2 log xi - log(1 + xi),

    with q = y' M^-1 y.  log m(q) = -q / (2 sigma^2) when sigma^2 is
    fixed at fixed_sigma2; otherwise it is the log of the integral over
    the noise prior's support [data.sigma2_floor, inf)
    (_log_sigma2_integral).  The last two terms are the half-Cauchy
    prior of tau with the Jacobian of log xi.  The proposal is
    log xi + 0.8 z.  K is built once (_gram): one SYRK below
    _SPLIT_ENTRIES entries of X, else two column halves, one of them on
    a helper thread.  The target at the current and at the proposed xi
    each cost one n x n Cholesky factorization and one triangular
    solve.  K and both targets run under the chain's one
    ``np.errstate(over="ignore", invalid="ignore")`` per iteration: an
    overflow in the n x n block reaches cholesky as inf or NaN, with no
    warning.  Consumes one normal, then one uniform.
    """
    s = -2.0 * math.log(tau)
    with np.errstate(over="ignore", invalid="ignore"):
        k = _gram(data.x, lam)
        current, factor, q = _log_xi_target(k, data, s, fixed_sigma2)
        s_new = s + _LOG_XI_STEP * float(rng.standard_normal(1)[0])
        proposed, factor_new, q_new = _log_xi_target(k, data, s_new, fixed_sigma2)
    if math.log(rng.uniform()) < proposed - current:
        return TauDraw(math.exp(-0.5 * s_new), True, factor_new, q_new, lam)
    return TauDraw(tau, False, factor, q, lam)


def update_sigma2(q: float, data: RegressionData, rng: RngStream) -> float:
    """Draw sigma^2 | xi, lambda, y with beta integrated out.

    Under the prior 1/sigma^2 on [f, inf), f = data.sigma2_floor, the
    conditional is InvGamma(n/2, q/2) truncated to [f, inf), where
    q = y' M^-1 y comes from update_tau: 1/sigma^2 is Gamma(n/2, rate
    q/2) truncated to (0, 1/f], drawn by inverse CDF from one uniform u.
    When that gamma's mass below 1/f underflows, as at q = 0 (a zero
    response), the draw is the truncated gamma's q -> 0 limit, the
    power law that gives sigma^2 = f u^(-2/n).  A NaN or negative q
    raises ValueError, as it would otherwise reach that power law too.
    A draw that is not finite and positive, as from an infinite q (|y|^2
    past 1e308), raises ValueError: the beta draw would pass it, as
    y / sigma is 0.
    """
    from scipy.special import gammainc, gammaincinv

    if not q >= 0.0:
        raise ValueError(f"q must be non-negative, got {q}")
    a = 0.5 * data.n
    f = data.sigma2_floor
    u = rng.uniform()
    t = float(gammaincinv(a, u * gammainc(a, q / (2.0 * f))))  # t = q / (2 sigma^2)
    sigma2 = 0.5 * q / t if t > 0.0 else f * u ** (-1.0 / a)
    if not 0.0 < sigma2 < math.inf:
        raise ValueError("sigma2 must be finite and positive")
    return sigma2


def update_beta(data: RegressionData, step: TauDraw, sigma2: float,
                rng: RngStream) -> np.ndarray:
    """Exact draw from beta | y, lambda, tau, sigma at step's (lam, tau).

    The conditional is N(A^-1 X' y, sigma^2 A^-1) with
    A = X' X + Lambda*^-1, Lambda* = tau^2 diag(lambda^2): sigma times an
    augmented draw (structured.augmented_draw) with phi = X, D = Lambda*,
    alpha = y/sigma, whose mean is A^-1 X' y / sigma and covariance
    A^-1.  sigma cancels from M = X Lambda* X' + I, whose step.factor the
    draw solves against; X is used as it is, with no n x p copy.  A draw
    whose largest beta_j^2 / (2 tau^2 sigma^2), which the next lambda
    step forms, overflows or is NaN raises ValueError.
    """
    tau, lam = step.tau, step.lam
    sigma = math.sqrt(sigma2)
    scale = DiagonalScale(tau**2 * (lam * lam))
    beta = sigma * augmented_draw(data.x, scale, data.y / sigma, step.factor, rng).theta
    b = float(np.max(np.abs(beta)))
    denom = 2.0 * tau**2 * sigma2  # update_lambda's; these float ops overflow to inf
    if not (denom > 0.0 and b * b / denom < math.inf):
        raise ValueError("beta_j^2 / (2 tau^2 sigma^2) overflows or is NaN")
    return beta


def _summarize(draws: np.ndarray) -> IntervalSummary:
    """Column summaries of a (kept, p) draws array, in bounded memory.

    The median and the 2.5% and 97.5% quantiles are taken over blocks
    of whole columns of at most _SUMMARY_BLOCK_BYTES (one column when a
    column alone is larger), so no copy of the whole array is made.
    Each block is sorted once along the draws axis; np.median and
    np.quantile reduce each column separately, and partitioning sorted
    data selects the same order statistics, so every value equals the
    whole-array call's bit for bit.
    """
    kept, p = draws.shape
    width = max(1, _SUMMARY_BLOCK_BYTES // (8 * kept))
    median = np.empty(p)
    bounds = np.empty((2, p))
    for lo in range(0, p, width):
        block = np.sort(draws[:, lo:lo + width], axis=0)
        median[lo:lo + width] = np.median(block, axis=0)
        bounds[:, lo:lo + width] = np.quantile(block, [0.025, 0.975], axis=0)
    return IntervalSummary(mean=draws.mean(axis=0), median=median,
                           lower=bounds[0], upper=bounds[1])


def run_chain(data: RegressionData, cfg: ChainConfig) -> ChainResult:
    """Systematic scan: lambda, then the (tau, sigma^2, beta) block.

    The state starts at beta = 0, lam = 1, tau = 1 and sigma2 = 1 (or
    cfg.fixed_sigma).  The result is a pure function of (data, cfg); all
    randomness comes from the stream keyed by cfg.seed.  A fit holds its
    kept x p float64 draws plus O(np) working memory: the summaries are
    taken in bounded column blocks (_summarize).  An error raised in an
    iteration is raised again as its type (or its nearest base taking one
    message), prefixed by the iteration (counted from 1) and the block,
    e.g. ``iteration 37, block tau: ...``.
    """
    rng = RngStream(cfg.seed, stream_id=0)
    # beta = 0 makes the first lambda step read neither tau nor sigma^2,
    # and a sampled sigma^2 is drawn before anything else reads it.
    beta = np.zeros(data.p)
    lam = np.ones(data.p)
    tau = 1.0
    sigma2 = 1.0 if cfg.fixed_sigma is None else float(cfg.fixed_sigma)
    kept = cfg.n_kept
    draws = np.empty((kept, data.p))
    scale_draws = np.empty((kept, 2))
    accepted = 0
    k = 0
    for it in range(1, cfg.n_iter + 1):
        try:
            block = "lambda"
            lam = update_lambda(beta, lam, tau, sigma2, rng)
            block = "tau"
            step = update_tau(data, lam, tau, rng, cfg.fixed_sigma)
            tau = step.tau
            block = "sigma2"
            if cfg.fixed_sigma is None:
                sigma2 = update_sigma2(step.q, data, rng)
            block = "beta"
            beta = update_beta(data, step, sigma2, rng)
        except Exception as exc:
            for cls in type(exc).__mro__:  # the nearest class that takes one message
                try:
                    relabeled = cls(f"iteration {it}, block {block}: {exc}")
                    break
                except TypeError:  # as numpy's _ArrayMemoryError(shape, dtype)
                    pass
            raise relabeled from exc
        accepted += step.accepted
        if it > cfg.burn_in and (it - cfg.burn_in) % cfg.thin == 0:
            draws[k] = beta
            scale_draws[k, 0] = tau
            scale_draws[k, 1] = sigma2
            k += 1
    assert k == kept
    return ChainResult(draws=draws, scale_draws=scale_draws,
                       summaries=_summarize(draws),
                       tau_acceptance=accepted / cfg.n_iter)
