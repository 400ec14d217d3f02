"""Simulation study and timing harness.

Designs mirror the high-dimensional regression setup the sampler is
intended for: rows of X drawn from N_p(0, Sigma) with independent,
compound-symmetry (rho = 0.5) or Toeplitz (rho = 0.9^|j-j'|) column
covariance, a 5-sparse coefficient vector with fixed signal magnitudes
and random signs, and Gaussian noise.  Metrics are estimation errors of
the posterior mean/median and frequentist coverage of the equal-tailed
95% intervals, split into signal and noise coordinates.

The benchmark times the fast augmented sampler against the
precision-factorization baseline over a grid of p at fixed n and fits
log-log slopes, which is how the linear-in-p scaling of the fast path
is checked without hardware-specific constants.
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .blas import pinned_blas
from .errors import ConfigError, DimensionMismatch
from .horseshoe import ChainConfig, ChainResult, RegressionData, run_chain
from .rng import RngStream, derive_seed
from .structured import DiagonalScale, StructuredGaussian, baseline_sample, fast_sample

STRONG_SIGNALS = (1.5, 1.75, 2.0, 2.25, 2.5)
WEAK_SIGNALS = (0.75, 1.0, 1.25, 1.5, 1.75)

COV_KINDS = ("independent", "compound", "toeplitz")
SIGNAL_SETS = {"strong": STRONG_SIGNALS, "weak": WEAK_SIGNALS}

_COMPOUND_RHO = 0.5
_TOEPLITZ_RHO = 0.9

# run_bench times each grid point in this many separated blocks, for at
# least BENCH_MIN_SECONDS of wall time in all.
BENCH_PASSES = 3
BENCH_MIN_SECONDS = 0.2


@dataclass(frozen=True)
class SimDesign:
    n: int
    p: int
    sigma: float = 1.5
    cov_kind: str = "independent"
    signal_set: str = "strong"
    sparsity: int = 5
    n_replicates: int = 10

    def __post_init__(self):
        for name in ("n", "p", "sparsity", "n_replicates"):
            try:
                operator.index(getattr(self, name))
            except TypeError:
                raise ConfigError(f"{name} must be an integer") from None
        if self.n < 2 or self.p < 1:
            raise ConfigError("need n >= 2 and p >= 1")
        if not (self.sigma > 0.0 and self.sigma * self.sigma < np.inf):
            raise ConfigError("sigma must be positive with a finite sigma^2")
        if self.cov_kind not in COV_KINDS:
            raise ConfigError(f"cov_kind must be one of {COV_KINDS}")
        if self.signal_set not in SIGNAL_SETS:
            raise ConfigError(f"signal_set must be one of {tuple(SIGNAL_SETS)}")
        if not 1 <= self.sparsity <= self.p:
            raise ConfigError("sparsity must be in [1, p]")
        if self.n_replicates < 1:
            raise ConfigError("n_replicates must be >= 1")


def gen_design(design: SimDesign, rng: RngStream) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw (X, beta0, y) for one replicate.

    Correlated designs are generated in O(np) without any p x p
    factorization: compound symmetry as sqrt(rho) * g * 1 +
    sqrt(1 - rho) * z with a per-row scalar g, Toeplitz by the
    stationary AR(1) recursion along each row.
    """
    n, p = design.n, design.p
    z = rng.standard_normal(n * p).reshape(n, p)
    if design.cov_kind == "independent":
        x = z
    elif design.cov_kind == "compound":
        g = rng.standard_normal(n)
        x = np.sqrt(1.0 - _COMPOUND_RHO) * z + np.sqrt(_COMPOUND_RHO) * g[:, None]
    else:  # toeplitz
        x = np.empty((n, p))
        x[:, 0] = z[:, 0]
        innov = np.sqrt(1.0 - _TOEPLITZ_RHO**2)
        for j in range(1, p):
            x[:, j] = _TOEPLITZ_RHO * x[:, j - 1] + innov * z[:, j]

    magnitudes = np.array(SIGNAL_SETS[design.signal_set])
    k = design.sparsity
    # Cycle the magnitude set if sparsity differs from its length.
    mags = np.resize(magnitudes, k)
    positions = _choice_without_replacement(rng, design.p, k)
    signs = np.where(rng.uniform(size=k) < 0.5, -1.0, 1.0)
    beta0 = np.zeros(p)
    beta0[positions] = mags * signs
    y = x @ beta0 + design.sigma * rng.standard_normal(n)
    return x, beta0, y


def _choice_without_replacement(rng: RngStream, p: int, k: int) -> np.ndarray:
    # Rank the first k of a uniform key per index: uniform positions.
    keys = rng.uniform(size=p)
    return np.sort(np.argsort(keys)[:k])


@dataclass(frozen=True)
class ReplicateMetrics:
    """Estimation and interval metrics for one fitted replicate.

    l1/l2/pred use the posterior mean as point estimate; the *_median
    fields repeat them for the pointwise posterior median.  Coverages
    are exact fractions of covered coordinates, split by whether the
    true coefficient is nonzero.
    """

    l1: float
    l2: float
    pred: float
    l1_median: float
    l2_median: float
    pred_median: float
    signal_coverage: float
    noise_coverage: float
    signal_length_mean: float
    noise_length_mean: float


def compute_metrics(result: ChainResult, beta0: np.ndarray, x: np.ndarray) -> ReplicateMetrics:
    """Errors and coverage of one chain against the generating truth."""
    beta0 = np.asarray(beta0, dtype=float)
    x = np.asarray(x, dtype=float)
    s = result.summaries
    if s.mean.shape != beta0.shape or x.shape[1] != beta0.shape[0]:
        raise DimensionMismatch("chain, beta0 and x dimensions do not agree")

    def errs(est: np.ndarray) -> tuple[float, float, float]:
        diff = est - beta0
        return (
            float(np.sum(np.abs(diff))),
            float(np.linalg.norm(diff)),
            float(np.linalg.norm(x @ diff)),
        )

    l1, l2, pred = errs(s.mean)
    l1m, l2m, predm = errs(s.median)

    signal = beta0 != 0.0
    covered = (s.lower <= beta0) & (beta0 <= s.upper)
    length = s.upper - s.lower
    n_signal = int(np.sum(signal))
    n_noise = beta0.shape[0] - n_signal
    signal_cov = float(np.sum(covered[signal])) / n_signal if n_signal else 1.0
    noise_cov = float(np.sum(covered[~signal])) / n_noise if n_noise else 1.0
    signal_len = float(np.mean(length[signal])) if n_signal else 0.0
    noise_len = float(np.mean(length[~signal])) if n_noise else 0.0
    return ReplicateMetrics(
        l1=l1, l2=l2, pred=pred,
        l1_median=l1m, l2_median=l2m, pred_median=predm,
        signal_coverage=signal_cov, noise_coverage=noise_cov,
        signal_length_mean=signal_len, noise_length_mean=noise_len,
    )


@dataclass(frozen=True)
class ReplicateRun:
    """All replicate metrics plus mean and standard error per metric.

    indices[k] is the replicate index of metrics[k]; a failed replicate
    is in neither list, only in failures.
    """

    metrics: list[ReplicateMetrics]
    indices: list[int]
    aggregate: dict[str, tuple[float, float]]
    failures: list[tuple[int, str]]


METRIC_FIELDS = tuple(f.name for f in fields(ReplicateMetrics))


def _fit_replicate(design: SimDesign, cfg: ChainConfig, index: int) -> ReplicateMetrics:
    data_rng = RngStream(cfg.seed, stream_id=2 * index + 1)
    x, beta0, y = gen_design(design, data_rng)
    chain_cfg = replace(cfg, seed=derive_seed(cfg.seed, index))
    result = run_chain(RegressionData(x, y), chain_cfg)
    return compute_metrics(result, beta0, x)


def run_replicates(design: SimDesign, cfg: ChainConfig) -> ReplicateRun:
    """Independent replicates of the simulation design, run in order.

    Replicate i draws its data from stream 2i+1 of cfg.seed and runs
    its chain under a sub-seed derived from (cfg.seed, i), so its result
    depends on (cfg.seed, i) alone.  A failed replicate is recorded and
    excluded from the aggregate.
    """
    metrics: list[ReplicateMetrics] = []
    indices: list[int] = []
    failures: list[tuple[int, str]] = []
    for i in range(design.n_replicates):
        try:
            metrics.append(_fit_replicate(design, cfg, i))
            indices.append(i)
        except Exception as exc:  # noqa: BLE001 - recorded, not fatal
            failures.append((i, f"{type(exc).__name__}: {exc}"))
    aggregate: dict[str, tuple[float, float]] = {}
    if metrics:
        for name in METRIC_FIELDS:
            vals = np.array([getattr(m, name) for m in metrics])
            se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            aggregate[name] = (float(vals.mean()), se)
    return ReplicateRun(metrics=metrics, indices=indices, aggregate=aggregate,
                        failures=failures)


def render_replicates_csv(run: ReplicateRun) -> str:
    """Per-replicate rows plus aggregate mean/SE rows as CSV text."""
    header = "row,replicate," + ",".join(METRIC_FIELDS)
    lines = [header]
    for i, m in zip(run.indices, run.metrics):
        vals = ",".join(format(getattr(m, name), ".17g") for name in METRIC_FIELDS)
        lines.append(f"replicate,{i},{vals}")
    if run.aggregate:
        means = ",".join(format(run.aggregate[name][0], ".17g") for name in METRIC_FIELDS)
        ses = ",".join(format(run.aggregate[name][1], ".17g") for name in METRIC_FIELDS)
        lines.append(f"aggregate_mean,,{means}")
        lines.append(f"aggregate_se,,{ses}")
    for i, _ in run.failures:
        lines.append(f"failure,{i}," + ",".join([""] * len(METRIC_FIELDS)))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class BenchRow:
    method: str
    n: int
    p: int
    median_seconds: float


@dataclass(frozen=True)
class BenchResult:
    """Median wall times plus the fitted log(time) vs log(p) slopes."""

    rows: list[BenchRow]
    slopes: dict[tuple[str, int], float]

    def median_seconds(self, method: str, n: int, p: int) -> float:
        for row in self.rows:
            if (row.method, row.n, row.p) == (method, n, p):
                return row.median_seconds
        raise KeyError((method, n, p))


def _bench_instance(n: int, p: int, seed: int) -> StructuredGaussian:
    rng = RngStream(seed, stream_id=17)
    phi = rng.standard_normal(n * p).reshape(n, p)
    d = 0.5 + rng.uniform(size=p) * 1.5
    alpha = rng.standard_normal(n)
    return StructuredGaussian(phi, DiagonalScale(d), alpha)


def _time_block(sampler, g: StructuredGaussian, rng: RngStream,
                repetitions: int, min_total: float) -> float:
    times = []
    total = 0.0
    while len(times) < repetitions or total < min_total:
        # Time each draw on a fresh copy with a fresh scale, so no n x n
        # system and no D^{1/2} is kept, and free that copy inside the
        # clock: building both and dropping them is the per-draw cost of
        # a new D in a Gibbs iteration.
        fresh = replace(g, scale=replace(g.scale))
        t0 = time.perf_counter()
        sampler(fresh, rng)
        del fresh
        dt = time.perf_counter() - t0
        times.append(dt)
        total += dt
        if len(times) >= 1_000_000:
            break
    return float(np.median(times))


def run_bench(n_grid, p_grid, repetitions: int = 5, seed: int = 0) -> BenchResult:
    """Median wall times of both samplers over the (n, p) grid.

    Timing is strictly sequential and pinned to one BLAS thread so the
    scaling in p is not confounded by thread scheduling.  The pin is set
    on numpy's and scipy's bundled OpenBLAS through their own
    set-threads symbols and verified by reading each count back
    (``blas.pinned_blas``); if a library cannot be found or reads back
    anything but 1, BlasPinError is raised and nothing is timed.  Each grid
    point is timed in BENCH_PASSES separated blocks, each running until
    both its repetition floor and its share of BENCH_MIN_SECONDS are
    reached; the reported value is the median of the block medians,
    which rejects transient machine load that would otherwise bias a
    single contiguous block.  Instance generation and stream warm-up
    happen outside the clock.  Each grid must hold distinct positive
    integers; ConfigError is raised before anything is timed otherwise.
    """
    n_grid = [int(n) for n in n_grid]
    p_grid = [int(p) for p in p_grid]
    for name, grid in (("n_grid", n_grid), ("p_grid", p_grid)):
        if not grid or min(grid) < 1 or len(set(grid)) < len(grid):
            raise ConfigError(f"{name} must be distinct positive integers, got {grid}")
    if repetitions < 5:
        raise ConfigError("need at least 5 repetitions")

    samplers = {"fast": lambda g, r: fast_sample(g, r).theta, "baseline": baseline_sample}
    per_pass_reps = max(2, -(-repetitions // BENCH_PASSES))
    per_pass_floor = BENCH_MIN_SECONDS / BENCH_PASSES
    instances = {(n, p): _bench_instance(n, p, seed) for n in n_grid for p in p_grid}
    blocks: dict[tuple[str, int, int], list[float]] = {
        (m, n, p): [] for m in samplers for n in n_grid for p in p_grid
    }
    with pinned_blas():
        for (n, p), g in instances.items():  # warm-up, outside the clock
            for sampler in samplers.values():
                sampler(g, RngStream(seed, stream_id=29))
        for _ in range(BENCH_PASSES):
            for n in n_grid:
                for p in p_grid:
                    g = instances[(n, p)]
                    for method, sampler in samplers.items():
                        rng = RngStream(seed, stream_id=23)
                        blocks[(method, n, p)].append(
                            _time_block(sampler, g, rng, per_pass_reps, per_pass_floor)
                        )
    medians = {key: float(np.median(times)) for key, times in blocks.items()}
    rows = [BenchRow(method, n, p, t) for (method, n, p), t in medians.items()]
    slopes: dict[tuple[str, int], float] = {}
    if len(p_grid) >= 2:
        logp = np.log(np.array(p_grid, dtype=float))
        for method in samplers:
            for n in n_grid:
                logt = np.log([medians[(method, n, p)] for p in p_grid])
                slopes[(method, n)] = float(np.polyfit(logp, logt, 1)[0])
    return BenchResult(rows=rows, slopes=slopes)


def render_bench_csv(result: BenchResult) -> str:
    """Timing rows plus slope footer rows as CSV text."""
    lines = ["method,n,p,median_seconds"]
    for row in result.rows:
        lines.append(f"{row.method},{row.n},{row.p},{format(row.median_seconds, '.17g')}")
    for (method, n), slope in sorted(result.slopes.items()):
        lines.append(f"{method}-slope,{n},,{format(slope, '.17g')}")
    return "\n".join(lines) + "\n"
