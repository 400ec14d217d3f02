import ctypes.util

import numpy as np
import pytest

import fastmvg.experiments as experiments
from fastmvg import (
    BlasPinError,
    ChainConfig,
    ChainResult,
    ConfigError,
    DimensionMismatch,
    IntervalSummary,
    RngStream,
    STRONG_SIGNALS,
    SimDesign,
    compute_metrics,
    fast_sample,
    gen_design,
    render_bench_csv,
    render_replicates_csv,
    run_bench,
    run_replicates,
)
from fastmvg.blas import OpenBlas, bundled_openblas


def summary_result(mean, median=None, lower=None, upper=None):
    mean = np.asarray(mean, dtype=float)
    p = mean.shape[0]
    median = mean if median is None else np.asarray(median, dtype=float)
    lower = mean - 1.0 if lower is None else np.asarray(lower, dtype=float)
    upper = mean + 1.0 if upper is None else np.asarray(upper, dtype=float)
    return ChainResult(
        draws=np.zeros((1, p)),
        scale_draws=np.zeros((1, 2)),
        summaries=IntervalSummary(mean=mean, median=median, lower=lower, upper=upper),
        tau_acceptance=1.0,
    )


class TestGenDesign:
    def test_independent_columns(self):
        design = SimDesign(n=5000, p=8, cov_kind="independent")
        x, _, _ = gen_design(design, RngStream(1, 0))
        var = x.var(axis=0)
        assert np.all(var > 0.92) and np.all(var < 1.08)
        corr = np.corrcoef(x.T)
        off = corr[~np.eye(8, dtype=bool)]
        assert np.max(np.abs(off)) < 0.05

    def test_compound_symmetry_correlation(self):
        design = SimDesign(n=5000, p=8, cov_kind="compound")
        x, _, _ = gen_design(design, RngStream(2, 0))
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(corr - 0.5) < 0.05

    def test_toeplitz_lag_two_correlation(self):
        design = SimDesign(n=5000, p=8, cov_kind="toeplitz")
        x, _, _ = gen_design(design, RngStream(3, 0))
        corr = np.corrcoef(x[:, 0], x[:, 2])[0, 1]
        assert abs(corr - 0.81) < 0.05
        var = x.var(axis=0)
        assert np.all(var > 0.9) and np.all(var < 1.1)

    def test_sparsity_and_magnitudes(self):
        design = SimDesign(n=50, p=40, signal_set="strong", sparsity=5)
        x, beta0, y = gen_design(design, RngStream(4, 0))
        nonzero = beta0[beta0 != 0.0]
        assert nonzero.size == 5
        assert sorted(np.abs(nonzero)) == sorted(STRONG_SIGNALS)
        assert y.shape == (50,)
        np.testing.assert_array_equal(x.shape, (50, 40))

    def test_noise_level(self):
        design = SimDesign(n=20000, p=2, sigma=1.5, sparsity=1)
        x, beta0, y = gen_design(design, RngStream(5, 0))
        resid = y - x @ beta0
        assert abs(resid.std() - 1.5) < 0.05

    def test_validation(self):
        with pytest.raises(ConfigError):
            SimDesign(n=10, p=5, sparsity=6)
        with pytest.raises(ConfigError):
            SimDesign(n=10, p=5, cov_kind="banded")
        with pytest.raises(ConfigError):
            SimDesign(n=10, p=5, sigma=0.0)
        for sigma in (np.inf, 1e200):  # 1e200 has no finite sigma^2
            with pytest.raises(ConfigError):
                SimDesign(n=10, p=5, sigma=sigma)
        for name, bad in (("n", 5.5), ("p", 5.0), ("sparsity", 2.0), ("n_replicates", 2.5)):
            with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
                SimDesign(**{"n": 10, "p": 5, name: bad})
        for n, p in ((1, 5), (10, 0)):
            with pytest.raises(ConfigError, match=r"^need n >= 2 and p >= 1"):
                SimDesign(n=n, p=p)
        with pytest.raises(ConfigError, match="^signal_set must be one of"):
            SimDesign(n=10, p=5, signal_set="huge")
        with pytest.raises(ConfigError, match="^n_replicates must be >= 1"):
            SimDesign(n=10, p=5, n_replicates=0)


class TestComputeMetrics:
    def test_exact_recovery_zero_errors(self):
        beta0 = np.zeros(10)
        beta0[:3] = [1.0, -2.0, 0.5]
        x = np.random.default_rng(0).standard_normal((6, 10))
        m = compute_metrics(summary_result(beta0), beta0, x)
        assert m.l1 == m.l2 == m.pred == 0.0
        assert m.l1_median == m.l2_median == m.pred_median == 0.0

    def test_huge_intervals_cover_everything(self):
        beta0 = np.zeros(8)
        beta0[2] = 3.0
        x = np.eye(8)
        res = summary_result(
            np.zeros(8), lower=np.full(8, -1e12), upper=np.full(8, 1e12)
        )
        m = compute_metrics(res, beta0, x)
        assert m.signal_coverage == 1.0
        assert m.noise_coverage == 1.0

    def test_zero_estimate_l2_is_signal_norm(self):
        # With estimate zero the l2 error is the norm of the magnitudes.
        mags = np.array(STRONG_SIGNALS)
        beta0 = np.zeros(20)
        beta0[[1, 4, 7, 11, 15]] = mags * np.array([1, -1, 1, -1, 1])
        x = np.random.default_rng(1).standard_normal((10, 20))
        m = compute_metrics(summary_result(np.zeros(20)), beta0, x)
        assert m.l2 == pytest.approx(float(np.sqrt(np.sum(mags**2))), rel=1e-12)
        assert m.l1 == pytest.approx(float(np.sum(mags)), rel=1e-12)

    def test_coverage_split_counts_exactly(self):
        beta0 = np.array([2.0, 0.0, 0.0, 0.0])
        res = summary_result(
            np.zeros(4),
            lower=np.array([1.0, -0.1, 0.5, -0.1]),
            upper=np.array([3.0, 0.1, 0.6, 0.1]),
        )
        m = compute_metrics(res, beta0, np.eye(4))
        assert m.signal_coverage == 1.0
        assert m.noise_coverage == pytest.approx(2.0 / 3.0)

    @pytest.mark.parametrize("beta_width, x_width", [(5, 5), (4, 5)])
    def test_wrong_width_raises(self, beta_width, x_width):
        # The chain has 4 coordinates; beta0, or else x, has 5.
        with pytest.raises(DimensionMismatch, match="^chain, beta0 and x dimensions do not agree$"):
            compute_metrics(summary_result(np.zeros(4)), np.zeros(beta_width),
                            np.eye(3, x_width))


class TestRunReplicates:
    CFG = ChainConfig(n_iter=150, burn_in=50, seed=77, fixed_sigma=1.0)

    def test_deterministic(self):
        design = SimDesign(n=25, p=15, n_replicates=2, sigma=1.0)
        a = run_replicates(design, self.CFG)
        b = run_replicates(design, self.CFG)
        assert a.aggregate == b.aggregate
        assert [m.l2 for m in a.metrics] == [m.l2 for m in b.metrics]

    def test_replicate_depends_only_on_seed_and_index(self):
        # Replicate i takes its data and chain seeds from (cfg.seed, i):
        # a shorter run repeats the first rows of a longer one exactly.
        two = run_replicates(SimDesign(n=25, p=15, n_replicates=2, sigma=1.0), self.CFG)
        three = run_replicates(SimDesign(n=25, p=15, n_replicates=3, sigma=1.0), self.CFG)
        assert two.indices == [0, 1] and three.indices == [0, 1, 2]
        assert two.metrics == three.metrics[:2]

    def test_aggregate_contains_all_metrics(self):
        design = SimDesign(n=25, p=15, n_replicates=2, sigma=1.0)
        run = run_replicates(design, self.CFG)
        assert not run.failures
        assert set(run.aggregate) >= {"l1", "l2", "pred", "signal_coverage"}
        mean, se = run.aggregate["l2"]
        assert mean > 0.0 and se >= 0.0

    def test_render_csv_shape(self):
        design = SimDesign(n=25, p=15, n_replicates=2, sigma=1.0)
        text = render_replicates_csv(run_replicates(design, self.CFG))
        lines = text.splitlines()
        assert lines[0].startswith("row,replicate,l1,l2,pred")
        assert len(lines) == 1 + 2 + 2  # header + replicates + mean/se rows
        assert text.endswith("\n")
        widths = {len(line.split(",")) for line in lines}
        assert len(widths) == 1

    def test_render_csv_keeps_replicate_index_after_failure(self, monkeypatch):
        # Replicate 1 of 3 fails: the rows must read 0 and 2, the failure 1.
        fit = experiments._fit_replicate

        def failing(design, cfg, index):
            if index == 1:
                raise RuntimeError("replicate 1 fails")
            return fit(design, cfg, index)

        monkeypatch.setattr(experiments, "_fit_replicate", failing)
        design = SimDesign(n=25, p=15, n_replicates=3, sigma=1.0)
        run = run_replicates(design, self.CFG)
        assert run.indices == [0, 2]
        rows = [line.split(",")[:2] for line in render_replicates_csv(run).splitlines()[1:]]
        assert [r for r in rows if r[0] == "replicate"] == [["replicate", "0"], ["replicate", "2"]]
        assert [r for r in rows if r[0] == "failure"] == [["failure", "1"]]


class TestRunBench:
    def test_rows_and_slopes(self):
        result = run_bench([10], [40, 80], repetitions=5, seed=1)
        methods = {r.method for r in result.rows}
        assert methods == {"fast", "baseline"}
        assert len(result.rows) == 4
        assert all(r.median_seconds > 0 for r in result.rows)
        assert ("fast", 10) in result.slopes and ("baseline", 10) in result.slopes

    def test_single_point_grid(self):
        result = run_bench([10], [50], repetitions=5, seed=1)
        assert len(result.rows) == 2
        assert result.slopes == {}
        text = render_bench_csv(result)
        assert text.splitlines()[0] == "method,n,p,median_seconds"
        assert text.endswith("\n")

    def test_each_draw_is_timed_on_a_new_scale(self):
        # A draw for a new D pays for D^{1/2} as well as the n x n
        # system, so no timed call may see the instance's kept values.
        g = experiments._bench_instance(4, 12, seed=1)
        fast_sample(g, RngStream(1))  # keeps the factor and D^{1/2}
        seen = []

        def recording(gg, rng):
            seen.append((gg.scale is not g.scale, "_sqrt_d" not in gg.scale.__dict__,
                         "_coupling" not in gg.__dict__))
            fast_sample(gg, rng)

        experiments._time_block(recording, g, RngStream(2), repetitions=5, min_total=0.0)
        assert len(seen) == 5 and set(seen) == {(True, True, True)}

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            run_bench([], [50], repetitions=5)
        with pytest.raises(ConfigError):
            run_bench([10], [50], repetitions=2)
        # A repeated value would time one point twice and fit its slope
        # to duplicated points, so it is refused with the other bad grids.
        for n_grid, p_grid, name in (([10, 10], [20, 40], "n_grid"), ([10], [40, 40], "p_grid"),
                                     ([10], [0], "p_grid"), ([0, 10], [40], "n_grid"),
                                     ([10], [], "p_grid")):
            with pytest.raises(ConfigError, match=f"^{name} must be distinct positive integers"):
                run_bench(n_grid, p_grid, repetitions=5)


class TestBlasPin:
    @pytest.fixture
    def libs(self):
        """Both bundled OpenBLAS builds, their thread counts put back afterwards."""
        libs = bundled_openblas()
        before = [lib.get_threads() for lib in libs]
        yield libs
        for lib, n in zip(libs, before):
            lib.set_threads(n)

    @staticmethod
    def spy_on_timing(monkeypatch, libs):
        """Record both libraries' thread counts at the start of every timed block."""
        seen = []
        real = experiments._time_block

        def spy(*args, **kwargs):
            seen.append(tuple(lib.get_threads() for lib in libs))
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "_time_block", spy)
        return seen

    def test_pinned_while_timing_and_restored_after(self, monkeypatch, libs):
        for lib in libs:
            lib.set_threads(2)
        start = [lib.get_threads() for lib in libs]
        seen = self.spy_on_timing(monkeypatch, libs)
        run_bench([10], [40, 80], repetitions=5, seed=1)
        assert len(seen) == 2 * 2 * 3  # methods x grid points x passes
        assert set(seen) == {(1, 1)}
        assert [lib.get_threads() for lib in libs] == start

    def test_readback_mismatch_refuses_before_timing(self, monkeypatch, libs):
        seen = self.spy_on_timing(monkeypatch, libs)
        monkeypatch.setattr(OpenBlas, "get_threads", lambda self: 2)
        with pytest.raises(BlasPinError, match="read back 2 threads, not 1"):
            run_bench([10], [40, 80], repetitions=5, seed=1)
        assert seen == []

    @pytest.mark.parametrize("path", [
        "no-such-dir/libscipy_openblas.so",  # no library there
        ctypes.util.find_library("m"),  # a library without the symbols
    ])
    def test_unloadable_library_raises(self, path):
        with pytest.raises(BlasPinError, match="^numpy OpenBLAS at "):
            OpenBlas("numpy", path, "64_")

    def test_missing_library_refuses_before_timing(self, monkeypatch, libs):
        seen = self.spy_on_timing(monkeypatch, libs)
        monkeypatch.setattr("fastmvg.blas.glob.glob", lambda pattern: [])
        with pytest.raises(BlasPinError, match="expected one libscipy_openblas"):
            run_bench([10], [40, 80], repetitions=5, seed=1)
        assert seen == []
