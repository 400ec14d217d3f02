import tracemalloc

import numpy as np
import pytest

from fastmvg import (
    ChainConfig,
    ConfigError,
    DiagonalScale,
    HorseshoeState,
    RegressionData,
    RngStream,
    StructuredGaussian,
    run_chain,
    update_beta,
    update_lambda,
    update_sigma2,
    update_tau,
)

from conftest import (
    QueuedStream,
    ks_statistic,
    quadrature_cdf,
    rejection_sample,
    woodbury_theta,
)


def make_state(beta, lam, tau=1.0, sigma2=1.0):
    return HorseshoeState(
        beta=np.asarray(beta, dtype=float),
        lam=np.asarray(lam, dtype=float),
        tau=float(tau),
        sigma2=float(sigma2),
    )


class TestUpdateBeta:
    def test_zero_design_draws_from_prior(self):
        # X = 0 makes the conditional equal to the prior N(0, sigma^2 Lambda*):
        # the draw must be sigma * tau * lam * z for the stubbed z.
        n, p = 2, 3
        data = RegressionData(np.zeros((n, p)), np.array([1.0, -2.0]))
        lam = np.array([0.5, 1.0, 2.0])
        state = make_state(np.zeros(p), lam, tau=0.7, sigma2=4.0)
        z_p = np.array([1.0, -1.0, 2.0])
        z_n = np.zeros(n)
        beta = update_beta(state, data, QueuedStream(normals=[z_p, z_n]))
        np.testing.assert_allclose(beta, 2.0 * 0.7 * lam * z_p, rtol=1e-12)

    def test_unit_instance_posterior_mean(self):
        # Single informative row (plus a zero row to satisfy n >= 2):
        # A = 1 + 1 = 2, so with u = delta = 0 the draw is the mean 1/2.
        data = RegressionData(np.array([[1.0], [0.0]]), np.array([1.0, 0.0]))
        state = make_state([0.0], [1.0])
        stub = QueuedStream(normals=[np.zeros(1), np.zeros(2)])
        beta = update_beta(state, data, stub)
        np.testing.assert_allclose(beta, [0.5], rtol=1e-14)

    def test_moments_match_dense_conditional(self):
        # 1e5 draws against the dense oracle mu + chol(sigma^2 A^-1) z.
        gen = np.random.default_rng(42)
        n, p = 5, 8
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        data = RegressionData(x, y)
        lam = gen.uniform(0.5, 2.0, p)
        state = make_state(np.zeros(p), lam, tau=0.8, sigma2=1.5)

        a = x.T @ x + np.diag(1.0 / (state.tau**2 * lam**2))
        cov = 1.5 * np.linalg.inv(a)
        mu = np.linalg.solve(a, x.T @ y)
        chol = np.linalg.cholesky(cov)

        n_draws = 100_000
        rng = RngStream(5, 0)
        draws = np.empty((n_draws, p))
        for i in range(n_draws):
            draws[i] = update_beta(state, data, rng)
        oracle = mu + gen.standard_normal((n_draws, p)) @ chol.T

        var = np.diagonal(cov)
        mean_se = np.sqrt(2.0 * var / n_draws)
        assert np.all(np.abs(draws.mean(0) - oracle.mean(0)) < 4 * mean_se)
        cov_se = np.sqrt(2.0 * (np.outer(var, var) + cov**2) / n_draws)
        assert np.all(np.abs(np.cov(draws.T) - np.cov(oracle.T)) < 4 * cov_se)

    def test_matches_standardized_parameterization(self):
        # sigma times a draw on (X, tau^2 Lambda^2, y/sigma) must equal,
        # for the same normals, the draw on the standardized instance
        # (X/sigma, sigma^2 tau^2 Lambda^2, y/sigma), whose u is sigma
        # times larger.
        gen = np.random.default_rng(17)
        n, p = 6, 15
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        lam = gen.uniform(0.2, 3.0, p)
        sigma2, tau = 2.25, 0.7
        state = make_state(np.zeros(p), lam, tau=tau, sigma2=sigma2)
        z_p, z_n = gen.standard_normal(p), gen.standard_normal(n)
        beta = update_beta(state, RegressionData(x, y), QueuedStream(normals=[z_p, z_n]))

        sigma = np.sqrt(sigma2)
        d = sigma2 * tau**2 * lam**2
        g = StructuredGaussian(x / sigma, DiagonalScale(d), y / sigma)
        np.testing.assert_allclose(beta, woodbury_theta(g, np.sqrt(d) * z_p, z_n),
                                   rtol=1e-10)

    def test_allocates_at_most_one_n_by_p_temporary(self):
        # After a warm call, a draw at p >> n may allocate B = X Lambda*^{1/2}
        # and nothing else of size n x p: no X/sigma copy, no kept Phi D.
        gen = np.random.default_rng(18)
        n, p = 20, 20000
        data = RegressionData(gen.standard_normal((n, p)), gen.standard_normal(n))
        state = make_state(np.zeros(p), gen.uniform(0.5, 2.0, p), tau=0.5, sigma2=2.0)
        rng = RngStream(6, 0)
        update_beta(state, data, rng)
        tracemalloc.start()
        try:
            update_beta(state, data, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * p * 8


class TestUpdateLambda:
    def test_zero_signal_degenerates_to_uniform(self):
        # beta_j = 0 gives mass 0 in the exponential part: the slice
        # interval (0, 1) is sampled uniformly, so u = 0.5 -> eta = 0.5.
        state = make_state([0.0], [1.0])
        stub = QueuedStream(uniforms=[1.0, 0.5])  # s = 0.5, bound = 1
        lam = update_lambda(state, stub)
        assert lam[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_truncated_exponential_inversion(self):
        # m = 1, bound = 1, u = 0.5: inverse CDF of the truncated
        # exponential gives -log(1 - u (1 - e^-1)) ~= 0.37989.
        state = make_state([np.sqrt(2.0)], [1.0])  # m = beta^2/2 = 1
        stub = QueuedStream(uniforms=[1.0, 0.5])
        lam = update_lambda(state, stub)
        eta = 1.0 / lam[0] ** 2
        expected = -np.log(1.0 - 0.5 * (1.0 - np.exp(-1.0)))
        assert eta == pytest.approx(expected, rel=1e-12)
        assert eta == pytest.approx(0.37989, abs=5e-6)

    def test_one_transition_invariance(self):
        # 1e5 parallel coordinates with m_j = 1, initialized from the
        # exact target by rejection; one transition must preserve the
        # quadrature CDF.
        n_states = 100_000
        gen = np.random.default_rng(21)
        eta0 = rejection_sample(
            gen,
            n_states,
            propose=lambda g, k: g.exponential(1.0, size=k),
            accept_prob=lambda c: 1.0 / (1.0 + c),
        )
        state = make_state(np.full(n_states, np.sqrt(2.0)), 1.0 / np.sqrt(eta0))
        lam1 = update_lambda(state, RngStream(22, 0))
        eta1 = 1.0 / lam1**2
        grid, cdf = quadrature_cdf(lambda t: -t - np.log1p(t), hi=50.0)
        assert ks_statistic(eta0, grid, cdf) < 0.01  # oracle sanity
        assert ks_statistic(eta1, grid, cdf) < 0.01

    def test_positivity_extreme_inputs(self):
        state = make_state([1e8, 0.0, 1e-8], [1e-6, 1e6, 1.0], tau=1e-4, sigma2=1e-4)
        lam = update_lambda(state, RngStream(23, 0))
        assert np.all(np.isfinite(lam)) and np.all(lam > 0)


class TestUpdateTau:
    def test_slice_bound_respected(self):
        # With xi = 1 and stubbed s = 0.5 the bound is 1; the new xi
        # always lands inside (0, 1).
        state = make_state([1.0], [1.0], tau=1.0)
        for u in (0.001, 0.25, 0.5, 0.75, 0.999):
            tau_new = update_tau(state, QueuedStream(uniforms=[1.0, u]))
            xi_new = 1.0 / tau_new**2
            assert 0.0 < xi_new < 1.0

    def test_one_transition_invariance(self):
        # p = 1, beta = lam = sigma = 1: target ~ e^(-xi/2) / (1 + xi).
        n_states = 100_000
        gen = np.random.default_rng(31)
        xi0 = rejection_sample(
            gen,
            n_states,
            propose=lambda g, k: g.exponential(2.0, size=k),
            accept_prob=lambda c: 1.0 / (1.0 + c),
        )
        rng = RngStream(32, 0)
        xi1 = np.empty(n_states)
        for i, xi in enumerate(xi0):
            state = make_state([1.0], [1.0], tau=1.0 / np.sqrt(xi))
            xi1[i] = 1.0 / update_tau(state, rng) ** 2
        grid, cdf = quadrature_cdf(lambda t: -t / 2 - np.log1p(t), hi=100.0)
        assert ks_statistic(xi0, grid, cdf) < 0.01
        assert ks_statistic(xi1, grid, cdf) < 0.01

    def test_long_run_mean_matches_quadrature(self):
        # 2e5 sequential transitions at fixed (beta, lam, sigma); the
        # ergodic mean of xi must match the quadrature mean, with the
        # Monte Carlo error taken from batch means.
        grid = np.linspace(0.0, 120.0, 400001)
        pdf = np.exp(-grid / 2) / (1 + grid)
        target_mean = np.trapezoid(grid * pdf, grid) / np.trapezoid(pdf, grid)

        n_steps = 200_000
        rng = RngStream(33, 0)
        xi = np.empty(n_steps)
        tau = 1.0
        state = make_state([1.0], [1.0], tau=tau)
        for i in range(n_steps):
            tau = update_tau(state, rng)
            state = make_state([1.0], [1.0], tau=tau)
            xi[i] = 1.0 / tau**2
        batches = xi.reshape(400, 500).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(batches.size)
        assert abs(xi.mean() - target_mean) < 4 * se

    def test_degenerate_zero_signal_falls_back(self):
        # S = 0 makes the gamma rate zero; the draw must still land in
        # the slice interval via the power-law limit.
        state = make_state([0.0, 0.0], [1.0, 1.0], tau=1.0)
        for seed in range(5):
            tau_new = update_tau(state, RngStream(40 + seed, 0))
            assert np.isfinite(tau_new) and tau_new > 0.0


class TestUpdateSigma2:
    def test_conjugate_moments(self):
        # X = 0, y = (2, 0), beta = 0: sigma^2 ~ InvGamma(3/2, 2), so
        # 1/sigma^2 ~ Gamma(3/2, rate 2) with mean 3/4.
        data = RegressionData(np.zeros((2, 1)), np.array([2.0, 0.0]))
        state = make_state([0.0], [1.0])
        rng = RngStream(50, 0)
        n_draws = 200_000
        inv = np.array([1.0 / update_sigma2(state, data, rng) for _ in range(n_draws)])
        se = np.sqrt(1.5 / 4.0 / n_draws)
        assert abs(inv.mean() - 0.75) < 4 * se

    def test_degenerate_residual_guarded(self):
        # Perfect fit with beta = 0 and y = 0: the scale floor keeps the
        # draw finite and positive.
        data = RegressionData(np.zeros((2, 1)), np.zeros(2))
        state = make_state([0.0], [1.0])
        s2 = update_sigma2(state, data, RngStream(51, 0))
        assert np.isfinite(s2) and s2 > 0.0


class TestRunChain:
    def small_data(self, seed=60, n=20, p=10):
        gen = np.random.default_rng(seed)
        x = gen.standard_normal((n, p))
        beta = np.zeros(p)
        beta[0] = 2.0
        y = x @ beta + 0.5 * gen.standard_normal(n)
        return RegressionData(x, y)

    def test_deterministic(self):
        data = self.small_data()
        cfg = ChainConfig(n_iter=200, burn_in=50, seed=7)
        a = run_chain(data, cfg)
        b = run_chain(data, cfg)
        np.testing.assert_array_equal(a.draws, b.draws)
        np.testing.assert_array_equal(a.scale_draws, b.scale_draws)
        np.testing.assert_array_equal(a.summaries.mean, b.summaries.mean)

    def test_null_data_shrinks_everything(self):
        gen = np.random.default_rng(61)
        x = gen.standard_normal((50, 100))
        data = RegressionData(x, np.zeros(50))
        result = run_chain(data, ChainConfig(n_iter=1500, burn_in=500, seed=8))
        assert np.all(np.abs(result.summaries.mean) < 0.1)
        assert np.all(result.summaries.lower <= 0.0)
        assert np.all(result.summaries.upper >= 0.0)

    def test_quantile_ordering_and_positivity(self):
        data = self.small_data()
        result = run_chain(data, ChainConfig(n_iter=300, burn_in=100, seed=9))
        s = result.summaries
        assert np.all(s.lower <= s.median) and np.all(s.median <= s.upper)
        assert np.all(result.scale_draws > 0.0)
        assert np.all(np.isfinite(result.scale_draws))

    def test_draw_count_with_thinning(self):
        data = self.small_data()
        cfg = ChainConfig(n_iter=10, burn_in=3, thin=2, seed=0)
        result = run_chain(data, cfg)
        assert result.draws.shape == ((10 - 3) // 2, data.p)
        assert result.scale_draws.shape == ((10 - 3) // 2, 2)

    def test_fixed_sigma_bypasses_update(self):
        data = self.small_data()
        cfg = ChainConfig(n_iter=50, burn_in=10, seed=1, fixed_sigma=2.25)
        result = run_chain(data, cfg)
        np.testing.assert_array_equal(result.scale_draws[:, 1], 2.25)

    def test_recovers_strong_signal(self):
        data = self.small_data(seed=62, n=40, p=10)
        result = run_chain(data, ChainConfig(n_iter=800, burn_in=200, seed=2))
        assert abs(result.summaries.mean[0] - 2.0) < 0.5
        assert np.all(np.abs(result.summaries.mean[1:]) < 0.5)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ChainConfig(n_iter=100, burn_in=100)
        with pytest.raises(ConfigError):
            ChainConfig(n_iter=0, burn_in=0)
        with pytest.raises(ConfigError):
            ChainConfig(n_iter=10, burn_in=1, thin=0)
        with pytest.raises(ConfigError):
            ChainConfig(fixed_sigma=-1.0)
        with pytest.raises(ConfigError):
            ChainConfig(n_iter=10, burn_in=5, thin=10)  # zero kept draws
        with pytest.raises(ConfigError):
            ChainConfig(fixed_sigma=np.inf)

    def test_data_validation(self):
        with pytest.raises(Exception):
            RegressionData(np.ones((1, 2)), np.ones(1))  # n < 2
        with pytest.raises(Exception):
            RegressionData(np.ones((3, 0)), np.ones(3))  # no predictors
        with pytest.raises(ValueError):
            RegressionData(np.full((3, 2), np.nan), np.ones(3))
