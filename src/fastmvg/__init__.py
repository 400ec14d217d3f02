"""Fast exact sampling from structured Gaussians and a horseshoe
regression Gibbs sampler built on it.

The core object is a Gaussian with precision Phi' Phi + D^-1 and mean
Sigma Phi' alpha; ``fast_sample`` draws from it exactly with cost
linear in the dimension p for diagonal D, against the cubic cost of
factoring the precision directly (``baseline_sample``).
"""

from .errors import (
    BlasPinError,
    ConfigError,
    DimensionMismatch,
    FastmvgError,
    InvalidParameter,
    NotPositiveDefinite,
)
from .experiments import (
    STRONG_SIGNALS,
    WEAK_SIGNALS,
    BenchResult,
    ReplicateMetrics,
    ReplicateRun,
    SimDesign,
    compute_metrics,
    gen_design,
    render_bench_csv,
    render_replicates_csv,
    run_bench,
    run_replicates,
)
from .horseshoe import (
    ChainConfig,
    ChainResult,
    IntervalSummary,
    RegressionData,
    TauDraw,
    run_chain,
    update_beta,
    update_lambda,
    update_sigma2,
    update_tau,
)
from .linalg import SpdFactor, solve_lower, solve_spd
from .rng import RngStream, derive_seed
from .structured import (
    AugmentedDraw,
    DenseSpdScale,
    DiagonalScale,
    StructuredGaussian,
    baseline_sample,
    fast_sample,
    log_density,
    posterior_mean,
)

__all__ = [
    "AugmentedDraw",
    "BenchResult",
    "BlasPinError",
    "ChainConfig",
    "ChainResult",
    "ConfigError",
    "DenseSpdScale",
    "DiagonalScale",
    "DimensionMismatch",
    "FastmvgError",
    "IntervalSummary",
    "InvalidParameter",
    "NotPositiveDefinite",
    "RegressionData",
    "ReplicateMetrics",
    "ReplicateRun",
    "RngStream",
    "STRONG_SIGNALS",
    "SimDesign",
    "SpdFactor",
    "StructuredGaussian",
    "TauDraw",
    "WEAK_SIGNALS",
    "baseline_sample",
    "compute_metrics",
    "derive_seed",
    "fast_sample",
    "gen_design",
    "log_density",
    "posterior_mean",
    "render_bench_csv",
    "render_replicates_csv",
    "run_bench",
    "run_chain",
    "run_replicates",
    "solve_lower",
    "solve_spd",
    "update_beta",
    "update_lambda",
    "update_sigma2",
    "update_tau",
]

__version__ = "0.1.0"
