import importlib.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid
from scipy.special import gammainc

import fastmvg.horseshoe as horseshoe
import fastmvg.structured as structured
from fastmvg import (
    ChainConfig,
    ConfigError,
    DiagonalScale,
    DimensionMismatch,
    NotPositiveDefinite,
    RegressionData,
    RngStream,
    StructuredGaussian,
    TauDraw,
    run_chain,
    update_beta,
    update_lambda,
    update_sigma2,
    update_tau,
)
from fastmvg.structured import factor_identity_plus

from conftest import (
    OneColumnXiTarget,
    QueuedStream,
    ks_statistic,
    quadrature_cdf,
    rejection_sample,
    woodbury_theta,
)


def dsyrk_gram(b):
    """B B' in the upper triangle of a zeroed array by one scipy BLAS
    dsyrk: the oracle that K's bits below _SPLIT_ENTRIES are held to."""
    from scipy.linalg.blas import dsyrk
    out = np.zeros((b.shape[0], b.shape[0]))
    dsyrk(1.0, b.T, beta=1.0, c=out.T, trans=1, lower=1, overwrite_c=1)
    return out


def beta_factor(data, lam, tau):
    """The factor of M = I + tau^2 X Lambda^2 X' that update_beta draws on."""
    return factor_identity_plus(dsyrk_gram(data.x * (tau * lam)))


def beta_step(data, lam, tau):
    """A TauDraw at (lam, tau) with beta_factor's factor; update_beta reads no q."""
    return TauDraw(tau, True, beta_factor(data, lam, tau), math.nan, lam)


class TestUpdateBeta:
    def test_zero_design_draws_from_prior(self):
        # X = 0 makes the conditional equal to the prior N(0, sigma^2 Lambda*):
        # the draw must be sigma * tau * lam * z for the stubbed z.
        n, p = 2, 3
        data = RegressionData(np.zeros((n, p)), np.array([1.0, -2.0]))
        lam = np.array([0.5, 1.0, 2.0])
        z_p = np.array([1.0, -1.0, 2.0])
        z_n = np.zeros(n)
        beta = update_beta(data, beta_step(data, lam, 0.7), 4.0,
                           QueuedStream(normals=[z_p, z_n]))
        np.testing.assert_allclose(beta, 2.0 * 0.7 * lam * z_p, rtol=1e-12)

    def test_unit_instance_posterior_mean(self):
        # Single informative row (plus a zero row to satisfy n >= 2):
        # A = 1 + 1 = 2, so with u = delta = 0 the draw is the mean 1/2.
        data = RegressionData(np.array([[1.0], [0.0]]), np.array([1.0, 0.0]))
        stub = QueuedStream(normals=[np.zeros(1), np.zeros(2)])
        beta = update_beta(data, beta_step(data, np.ones(1), 1.0), 1.0, stub)
        np.testing.assert_allclose(beta, [0.5], rtol=1e-14)

    def test_moments_match_dense_conditional(self):
        # 1e5 draws against the dense oracle mu + chol(sigma^2 A^-1) z.
        gen = np.random.default_rng(42)
        n, p = 5, 8
        x = gen.standard_normal((n, p))
        y = gen.standard_normal(n)
        data = RegressionData(x, y)
        lam = gen.uniform(0.5, 2.0, p)

        a = x.T @ x + np.diag(1.0 / (0.8**2 * lam**2))
        cov = 1.5 * np.linalg.inv(a)
        mu = np.linalg.solve(a, x.T @ y)
        chol = np.linalg.cholesky(cov)

        n_draws = 100_000
        rng = RngStream(5, 0)
        step = beta_step(data, lam, 0.8)
        draws = np.empty((n_draws, p))
        for i in range(n_draws):
            draws[i] = update_beta(data, step, 1.5, rng)
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
        z_p, z_n = gen.standard_normal(p), gen.standard_normal(n)
        data = RegressionData(x, y)
        beta = update_beta(data, beta_step(data, lam, tau), sigma2,
                           QueuedStream(normals=[z_p, z_n]))

        sigma = np.sqrt(sigma2)
        d = sigma2 * tau**2 * lam**2
        g = StructuredGaussian(x / sigma, DiagonalScale(d), y / sigma)
        np.testing.assert_allclose(beta, woodbury_theta(g, np.sqrt(d) * z_p, z_n),
                                   rtol=1e-10)

    def test_kept_factor_gives_the_same_draw(self):
        # The factor update_tau returns is that of the beta-draw's own
        # system: drawing on it equals drawing on that system factored afresh.
        gen = np.random.default_rng(19)
        n, p = 6, 15
        data = RegressionData(gen.standard_normal((n, p)), gen.standard_normal(n))
        lam = gen.uniform(0.2, 3.0, p)
        step = update_tau(data, lam, 0.7, QueuedStream(normals=[[0.3]], uniforms=[0.5]))
        assert step.accepted
        z_p, z_n = gen.standard_normal(p), gen.standard_normal(n)
        kept = update_beta(data, step, 2.25, QueuedStream(normals=[z_p, z_n]))
        fresh = update_beta(data, beta_step(data, lam, step.tau), 2.25,
                            QueuedStream(normals=[z_p, z_n]))
        np.testing.assert_allclose(kept, fresh, rtol=1e-12, atol=1e-14)

    def test_rejected_step_draws_at_its_pre_proposal_tau(self):
        # A rejected step carries the factor at the tau it was given, and
        # the lam array itself: the draw equals one on M at (lam, tau)
        # factored afresh, not one at the proposed tau.
        gen = np.random.default_rng(21)
        n, p = 6, 15
        data = RegressionData(gen.standard_normal((n, p)), gen.standard_normal(n))
        lam = gen.uniform(0.2, 3.0, p)
        step = update_tau(data, lam, 0.7, QueuedStream(normals=[[40.0]], uniforms=[0.5]))
        assert not step.accepted and step.tau == 0.7
        assert step.lam is lam
        z_p, z_n = gen.standard_normal(p), gen.standard_normal(n)
        kept = update_beta(data, step, 2.25, QueuedStream(normals=[z_p, z_n]))
        fresh = update_beta(data, beta_step(data, step.lam, step.tau), 2.25,
                            QueuedStream(normals=[z_p, z_n]))
        np.testing.assert_allclose(kept, fresh, rtol=1e-12, atol=1e-14)

    def test_allocates_at_most_one_n_by_p_temporary(self):
        # After a warm call, a draw at p >> n on the kept factor allocates
        # p-vectors only: no X/sigma copy, no B = X Lambda*^{1/2}, no kept
        # Phi D.  Four or five p-vectors are 0.2-0.25 of one n x p array.
        gen = np.random.default_rng(18)
        n, p = 20, 20000
        data = RegressionData(gen.standard_normal((n, p)), gen.standard_normal(n))
        lam = gen.uniform(0.5, 2.0, p)
        rng = RngStream(6, 0)
        step = beta_step(data, lam, 0.5)
        update_beta(data, step, 2.0, rng)
        tracemalloc.start()
        try:
            update_beta(data, step, 2.0, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * n * p * 8


class TestUpdateLambda:
    def test_zero_signal_degenerates_to_uniform(self):
        # beta_j = 0 gives mass 0 in the exponential part: the slice
        # interval (0, 1) is sampled uniformly, so u = 0.5 -> eta = 0.5.
        stub = QueuedStream(uniforms=[1.0, 0.5])  # s = 0.5, bound = 1
        lam = update_lambda(np.zeros(1), np.ones(1), 1.0, 1.0, stub)
        assert lam[0] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_truncated_exponential_inversion(self):
        # m = 1, bound = 1, u = 0.5: inverse CDF of the truncated
        # exponential gives -log(1 - u (1 - e^-1)) ~= 0.37989.
        beta = np.array([np.sqrt(2.0)])  # m = beta^2/2 = 1
        stub = QueuedStream(uniforms=[1.0, 0.5])
        lam = update_lambda(beta, np.ones(1), 1.0, 1.0, stub)
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
        beta = np.full(n_states, np.sqrt(2.0))
        lam1 = update_lambda(beta, 1.0 / np.sqrt(eta0), 1.0, 1.0, RngStream(22, 0))
        eta1 = 1.0 / lam1**2
        grid, cdf = quadrature_cdf(lambda t: -t - np.log1p(t), hi=50.0)
        assert ks_statistic(eta0, grid, cdf) < 0.01  # oracle sanity
        assert ks_statistic(eta1, grid, cdf) < 0.01

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch, match="beta and lam must have the same length"):
            update_lambda(np.zeros(2), np.ones(3), 1.0, 1.0, RngStream(24, 0))

    def test_positivity_extreme_inputs(self):
        beta = np.array([1e8, 0.0, 1e-8])
        lam = update_lambda(beta, np.array([1e-6, 1e6, 1.0]), 1e-4, 1e-4, RngStream(23, 0))
        assert np.all(np.isfinite(lam)) and np.all(lam > 0)


# The fixed tiny problem of the global-scale tests: n = 2, p = 1, lam = 1.
TINY_X = np.array([1.0, 0.5])
TINY_Y = np.array([1.0, -0.3])


def dense_log_xi_target(data, lam, xi, sigma2=None):
    """update_tau's log target per unit log xi, from a dense slogdet and solve."""
    n = data.n
    m = np.eye(n) + data.x @ np.diag(lam**2) @ data.x.T / xi
    _, logdet = np.linalg.slogdet(m)
    q = data.y @ np.linalg.solve(m, data.y)
    if sigma2 is None:
        log_m = -0.5 * n * np.log(q) + np.log(gammainc(0.5 * n, q / (2 * data.sigma2_floor)))
    else:
        log_m = -0.5 * q / sigma2
    return -0.5 * logdet + log_m + 0.5 * np.log(xi) - np.log1p(xi)


class TestUpdateTau:
    def test_accept_and_reject_pinned(self):
        # The proposal is log xi + 0.8 z; it is accepted exactly when
        # log u < target(xi') - target(xi), targets from the dense oracle.
        # u just below and just above exp(delta) pins the comparison, and
        # the returned factor and q are those of M at the returned tau.
        data = RegressionData(np.array([[1.0, 0.3], [0.5, -1.0], [0.2, 0.4]]),
                              np.array([1.0, -0.3, 0.6]))
        lam, tau, z = np.array([0.7, 1.4]), 0.8, 1.5
        xi = tau**-2.0
        xi_new = xi * np.exp(0.8 * z)
        for sigma2 in (None, 0.5):
            delta = (dense_log_xi_target(data, lam, xi_new, sigma2)
                     - dense_log_xi_target(data, lam, xi, sigma2))
            assert delta < -0.01  # oracle sanity: this move is downhill
            cases = [(np.exp(delta) * (1 - 1e-9), True, xi_new**-0.5),
                     (np.exp(delta) * (1 + 1e-9), False, tau)]
            for u, accepted, tau_out in cases:
                step = update_tau(data, lam, tau, QueuedStream(normals=[[z]], uniforms=[u]),
                                  sigma2)
                assert step.accepted is accepted
                assert step.tau == pytest.approx(tau_out, rel=1e-12)
                m = np.eye(3) + tau_out**2 * data.x @ np.diag(lam**2) @ data.x.T
                lower = np.tril(step.factor.lower)
                np.testing.assert_allclose(lower @ lower.T, m, rtol=1e-12, atol=1e-14)
                assert step.q == pytest.approx(data.y @ np.linalg.solve(m, data.y), rel=1e-12)
        # A zero step always has delta = 0: u < 1 accepts, u = 1 does not.
        for u, accepted in ((0.5, True), (1.0, False)):
            step = update_tau(data, lam, tau, QueuedStream(normals=[[0.0]], uniforms=[u]))
            assert step.accepted is accepted and step.tau == pytest.approx(tau, rel=1e-15)

    def test_one_transition_invariance(self):
        # sigma^2 fixed at 0.5 (C7 checks the sampled-sigma^2 target):
        # 1e5 exact draws of xi, one transition each, must keep the
        # quadrature CDF of log xi.
        target = OneColumnXiTarget(TINY_X, TINY_Y, sigma2=0.5)
        xi0 = target.sample(np.random.default_rng(31), 100_000)
        data = RegressionData(TINY_X[:, None], TINY_Y)
        rng = RngStream(32, 0)
        one = np.ones(1)
        xi1 = np.array([update_tau(data, one, 1.0 / np.sqrt(v), rng, 0.5).tau ** -2.0
                        for v in xi0])
        grid, cdf = quadrature_cdf(target.log_density_log_xi, lo=-40.0, hi=40.0)
        assert ks_statistic(np.log(xi0), grid, cdf) < 0.01  # oracle sanity
        assert ks_statistic(np.log(xi1), grid, cdf) < 0.01

    def test_long_run_mean_matches_quadrature(self):
        # 2e5 sequential transitions at fixed (lam, data), sigma^2
        # integrated out; the ergodic mean of log xi (xi itself has no
        # mean under the half-Cauchy) must match quadrature, with the
        # Monte Carlo error taken from batch means.
        target = OneColumnXiTarget(TINY_X, TINY_Y)
        grid = np.linspace(-40.0, 40.0, 400001)
        pdf = np.exp(target.log_density_log_xi(grid))
        target_mean = np.trapezoid(grid * pdf, grid) / np.trapezoid(pdf, grid)

        data = RegressionData(TINY_X[:, None], TINY_Y)
        one = np.ones(1)
        n_steps = 200_000
        rng = RngStream(33, 0)
        log_xi = np.empty(n_steps)
        tau = 1.0
        for i in range(n_steps):
            tau = update_tau(data, one, tau, rng).tau
            log_xi[i] = -2.0 * np.log(tau)
        batches = log_xi.reshape(400, 500).mean(axis=1)
        se = batches.std(ddof=1) / np.sqrt(batches.size)
        assert abs(log_xi.mean() - target_mean) < 4 * se

    def test_degenerate_zero_signal_falls_back(self):
        # y = 0 gives q = 0 at every xi; the sigma^2 integral takes its
        # closed-form limit and the draw stays finite and positive.
        data = RegressionData(np.array([[1.0, 0.5], [0.2, -1.0], [0.3, 0.3]]), np.zeros(3))
        for seed in range(5):
            step = update_tau(data, np.ones(2), 1.0, RngStream(40 + seed, 0))
            assert np.isfinite(step.tau) and step.tau > 0.0
            assert step.q == 0.0


def wide_tau_input(n=20, p=4000, seed=70):
    """Data and local scales whose n x p design K is built in two halves."""
    assert n * p >= horseshoe._SPLIT_ENTRIES
    gen = np.random.default_rng(seed)
    x = gen.standard_normal((n, p))
    return RegressionData(x, x[:, :3].sum(axis=1) + gen.standard_normal(n)), gen.uniform(0.2, 2.0, p)


def unchanged_tau_step(data, lam, tau=0.9):
    """update_tau with a zero step, always accepted: the factor is M at tau."""
    return update_tau(data, lam, tau, QueuedStream(normals=[[0.0]], uniforms=[0.5]))


def _tau_factor_in_child(conn, data, lam):
    conn.send(unchanged_tau_step(data, lam).factor.lower)
    conn.close()


class TestSplitGram:
    """K = X Lambda^2 X' in two column halves from _SPLIT_ENTRIES entries on."""

    def test_halves_match_one_syrk(self, monkeypatch):
        data, lam = wide_tau_input()
        halves = []
        half_gram = horseshoe._half_gram

        def recording(x, lam, lo, hi):
            halves.append((lo, hi, threading.current_thread() is threading.main_thread()))
            return half_gram(x, lam, lo, hi)

        monkeypatch.setattr(horseshoe, "_half_gram", recording)
        step = unchanged_tau_step(data, lam)
        # The first half ran on the helper thread, the second on this one.
        assert sorted(halves) == [(0, 2000, False), (2000, 4000, True)]
        lower = step.factor.lower
        oracle = beta_factor(data, lam, step.tau).lower
        np.testing.assert_allclose(lower, oracle, rtol=1e-12,
                                   atol=1e-12 * np.abs(oracle).max())
        assert not np.triu(lower, 1).any()

        # A rerun gives the same bits.
        again = unchanged_tau_step(data, lam)
        np.testing.assert_array_equal(again.factor.lower, lower)
        assert again.q == step.q

    def test_below_the_threshold_k_is_one_syrk(self):
        n = 16
        p = horseshoe._SPLIT_ENTRIES // n - 1
        gen = np.random.default_rng(71)
        x = gen.standard_normal((n, p))
        data = RegressionData(x, gen.standard_normal(n))
        lam = gen.uniform(0.2, 2.0, p)
        k = dsyrk_gram(x * lam)
        np.testing.assert_array_equal(np.triu(horseshoe._gram(x, lam)), k)
        tau = 0.9
        step = unchanged_tau_step(data, lam, tau)
        oracle = factor_identity_plus(k * math.exp(2.0 * math.log(tau)))
        np.testing.assert_array_equal(step.factor.lower, oracle.lower)

    @pytest.mark.parametrize("p, entry, lam", [  # one gram, and two halves; K, then X * lam
        pytest.param(100, 1e160, 1.0, id="100"), pytest.param(2000, 1e160, 1.0, id="2000"),
        pytest.param(100, 1e307, 1e5, id="100-x_lam"),
        pytest.param(2000, 1e307, 1e5, id="2000-x_lam"),
    ])
    def test_overflowing_k_raises_not_positive_definite(self, monkeypatch, p, entry, lam):
        # K, or the product X * lam it is built from, overflows to inf on
        # either path, on the helper thread too, with no warning; cholesky
        # then rejects it.
        assert (40 * p >= horseshoe._SPLIT_ENTRIES) == (p == 2000)
        monkeypatch.setattr(horseshoe, "update_lambda", lambda *args: np.full(p, lam))
        data = RegressionData(np.full((40, p), entry), np.ones(40))
        with pytest.raises(NotPositiveDefinite, match="^iteration 1, block tau: "):
            run_chain(data, ChainConfig(n_iter=2, burn_in=0))

    def test_overflowing_k_over_xi_raises_not_positive_definite(self):
        # K = 1e308 is finite; K/xi = 9e308 at tau = 3 overflows to inf
        # with no warning, and cholesky rejects it.
        x = np.full((40, 100), math.sqrt(1e308 / 100))
        assert np.isfinite(horseshoe._gram(x, np.ones(100))).all()
        data = RegressionData(x, np.ones(40))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotPositiveDefinite):
                update_tau(data, np.ones(100), 3.0, RngStream(0, 0))

    def test_halves_overflowing_only_in_their_sum(self):
        # Each half's Gram matrix is finite; their sum is inf, silently.
        k = horseshoe._gram(np.full((40, 2000), math.sqrt(1.2e305)), np.ones(2000))
        assert np.isposinf(k).all()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="no fork on this platform")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_forked_child_starts_its_own_helper(self):
        # A child forked after the parent started its helper thread has
        # the executor but not the thread; unless the child's own pid
        # keys a new executor, its first split K waits forever for the
        # missing worker.
        data, lam = wide_tau_input()
        parent = unchanged_tau_step(data, lam)
        assert horseshoe._helper_pool.cache_info().currsize == 1
        ctx = multiprocessing.get_context("fork")
        receive, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_tau_factor_in_child, args=(send, data, lam))
        child.start()
        send.close()
        try:
            assert receive.poll(30), "the forked child did not finish its update_tau"
            lower = receive.recv()
        finally:
            child.join(30)
            if child.is_alive():
                child.kill()
                child.join(30)
            receive.close()
        assert child.exitcode == 0
        np.testing.assert_array_equal(lower, parent.factor.lower)

    def test_first_use_from_several_threads(self):
        # More threads than cores start the helper at once: each gets a
        # K, and every factor has the serial run's bits.
        data, lam = wide_tau_input()
        serial = unchanged_tau_step(data, lam).factor.lower
        horseshoe._helper_pool.cache_clear()
        start = threading.Barrier(6)
        factors = [None] * 6

        def work(i):
            start.wait(30)
            factors[i] = unchanged_tau_step(data, lam).factor.lower

        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for lower in factors:
            np.testing.assert_array_equal(lower, serial)


def test_benchmark_tracer_finds_every_attribute_it_wraps():
    # perfbench/tracing.py swaps module and class attributes by name;
    # renaming one of them would make a traced benchmark run fail.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(owner, attr) for owner, attr, *_ in tracing._targets()]
    originals = [getattr(owner, attr) for owner, attr in targets]
    data, _ = wide_tau_input()
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        tracer.active = True
        horseshoe.run_chain(data, ChainConfig(n_iter=2, burn_in=0))
        tracer.active = False
    assert [getattr(owner, attr) for owner, attr in targets] == originals
    stats = tracer.summary()
    assert stats["horseshoe.run_chain"]["calls"] == 1
    assert stats["horseshoe.update_tau"]["calls"] == 2
    assert stats["linalg.cholesky"]["calls"] == 4


class TestUpdateSigma2:
    def test_conjugate_moments(self):
        # n = 3, q = 4: sigma^2 ~ InvGamma(3/2, 2), the floor 1e-12 var(y)
        # is invisible, so 1/sigma^2 ~ Gamma(3/2, rate 2) with mean 3/4.
        data = RegressionData(np.zeros((3, 1)), np.array([2.0, 0.0, 0.0]))
        rng = RngStream(50, 0)
        n_draws = 200_000
        inv = np.array([1.0 / update_sigma2(4.0, data, rng) for _ in range(n_draws)])
        se = np.sqrt(1.5 / 4.0 / n_draws)
        assert abs(inv.mean() - 0.75) < 4 * se

    def test_degenerate_residual_guarded(self):
        # q = 0 (y = 0): the truncated gamma's limit, sigma^2 = f u^(-2/n)
        # with f = 1e-12 for a constant response; finite and positive.
        data = RegressionData(np.zeros((2, 1)), np.zeros(2))
        assert update_sigma2(0.0, data, QueuedStream(uniforms=[0.25])) == \
            pytest.approx(4e-12, rel=1e-15)
        s2 = update_sigma2(0.0, data, RngStream(51, 0))
        assert np.isfinite(s2) and s2 >= 1e-12

    def test_truncated_at_floor(self):
        # n = 4, q = 2 and a floor f = 0.25 that cuts 9% of the mass:
        # P(sigma^2 <= s) = 1 - P(2, 1/s) / P(2, 4) for s >= f.
        y = 5e5 * np.array([1.0, -1.0, 1.0, -1.0])  # var(y) = 2.5e11, f = 0.25
        data = RegressionData(np.zeros((4, 1)), y)
        assert data.sigma2_floor == pytest.approx(0.25, rel=1e-12)
        rng = RngStream(52, 0)
        draws = np.array([update_sigma2(2.0, data, rng) for _ in range(100_000)])
        assert draws.min() >= 0.25
        grid = np.linspace(0.25, 1e4, 2_000_001)
        cdf = 1.0 - gammainc(2.0, 1.0 / grid) / gammainc(2.0, 4.0)
        assert ks_statistic(draws, grid, cdf) < 0.01

    def test_infinite_q_raises(self):
        # q = inf, as from a response with |y|^2 past 1e308, would draw
        # sigma^2 = inf.
        data = RegressionData(np.zeros((3, 1)), np.array([2.0, 0.0, 0.0]))
        with pytest.raises(ValueError, match="^sigma2 must be finite and positive$"):
            update_sigma2(math.inf, data, RngStream(53, 0))

    def test_sigma2_integral_limits(self):
        # The two forms of the integral agree where they meet (x = n/2),
        # and q = 0 gives the closed form -(n/2) log(2f) - lgamma(n/2 + 1).
        f = 1e-3
        for n in (2, 3, 20, 100):
            a = 0.5 * n
            q_edge = 2 * f * a
            inner = horseshoe._log_sigma2_integral(q_edge, n, f)
            outer = horseshoe._log_sigma2_integral(q_edge * (1 + 1e-12), n, f)
            assert outer == pytest.approx(inner, abs=1e-9)
            closed = -a * math.log(2 * f) - math.lgamma(a + 1)
            assert horseshoe._log_sigma2_integral(0.0, n, f) == pytest.approx(closed, rel=1e-15)
            assert horseshoe._log_sigma2_integral(1e-12 * f, n, f) == pytest.approx(closed, abs=1e-9)


def assert_summaries_equal(summary, draws):
    """The summaries equal the whole-array numpy reductions bit for bit."""
    assert np.array_equal(summary.mean, draws.mean(axis=0))
    assert np.array_equal(summary.median, np.median(draws, axis=0))
    assert np.array_equal(summary.lower, np.quantile(draws, 0.025, axis=0))
    assert np.array_equal(summary.upper, np.quantile(draws, 0.975, axis=0))


class TestSummarize:
    # (kept, p): kept 1, 2 and 3; odd and even kept; p not a multiple of
    # the block width (1001 kept gives 130 columns per block); and
    # kept * 8 above the block size, so each block is one column.
    @pytest.mark.parametrize("shape", [(1, 7), (2, 3), (3, 1), (45, 5000), (450, 500),
                                       (1001, 333), (4, 100000), (140000, 3)])
    def test_equals_whole_array_reductions(self, shape):
        draws = np.random.default_rng(shape[0]).standard_cauchy(shape)
        assert_summaries_equal(horseshoe._summarize(draws), draws)

    def test_peak_memory_is_a_fraction_of_the_draws(self):
        # Whole-array np.median and np.quantile each copy the draws; the
        # blocked summary holds a few blocks of the block size at once.
        draws = np.random.default_rng(13).standard_normal((1350, 5000))
        tracemalloc.start()
        try:
            horseshoe._summarize(draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < draws.nbytes / 8


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

    def test_thinned_fit_summaries_equal_whole_array_reductions(self):
        result = run_chain(self.small_data(), ChainConfig(n_iter=301, burn_in=100,
                                                          thin=3, seed=12))
        assert_summaries_equal(result.summaries, result.draws)

    def test_two_factorizations_per_iteration(self, monkeypatch):
        # update_tau factors M at the current and the proposed tau, both
        # through structured.cholesky; the beta draw reuses the accepted
        # factor and factors nothing.
        data = self.small_data()
        calls = []
        real = structured.cholesky

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(structured, "cholesky", counting)
        run_chain(data, ChainConfig(n_iter=3, burn_in=0, seed=3))
        assert calls == [(data.n, data.n)] * 6

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

    def test_span_response_with_p_below_n_stays_finite(self):
        # C9's fit input, y = 2 X[:, 0] at 20 x 10, for C9's 400
        # iterations: y lies in the span of X with p < n, so the posterior
        # of sigma^2 presses against the prior's floor.  Clamping the
        # sigma^2 draw at the floor instead of integrating over
        # [floor, inf) lets tau run off and fails here before iteration
        # 100.  (Chains of some thousand iterations on this input still
        # fail to factor I + K / xi in the tau step: ROADMAP item 2.)
        gen = np.random.default_rng(0)
        x = gen.standard_normal((20, 10))
        data = RegressionData(x, 2.0 * x[:, 0])
        result = run_chain(data, ChainConfig(n_iter=400, burn_in=100, seed=9))
        assert np.all(np.isfinite(result.scale_draws))
        assert np.all(result.scale_draws[:, 1] >= data.sigma2_floor)
        assert abs(result.summaries.mean[0] - 2.0) < 1e-3

    def test_reports_tau_acceptance(self, monkeypatch):
        # Two iterations with queued draws: the first tau proposal is
        # accepted (zero step, u = 0.5), the second rejected (zero step,
        # u = 1), so the reported acceptance is 1/2.
        data = RegressionData(np.array([[1.0], [0.5]]), np.array([1.0, -0.3]))
        stream = QueuedStream(
            # per iteration: tau's z, then beta's p and n normals
            normals=[[0.0], [0.1], [0.2, -0.2]] * 2,
            # per iteration: lambda's two vectors, tau's u, sigma^2's u
            uniforms=[0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 1.0, 0.5],
        )
        monkeypatch.setattr(horseshoe, "RngStream", lambda seed, stream_id: stream)
        result = run_chain(data, ChainConfig(n_iter=2, burn_in=1, seed=0))
        assert result.tau_acceptance == 0.5
        assert not stream._normals and not stream._uniforms

    def test_error_names_iteration_and_block(self, monkeypatch):
        # A block that raises at iteration 3: the chain raises the same
        # type, with the iteration and the block in the message.
        calls = []
        real = horseshoe.update_sigma2

        def failing(q, data, rng):
            calls.append(q)
            if len(calls) == 3:
                raise NotPositiveDefinite("boom")
            return real(q, data, rng)

        monkeypatch.setattr(horseshoe, "update_sigma2", failing)
        with pytest.raises(NotPositiveDefinite, match=r"^iteration 3, block sigma2: boom$") as info:
            run_chain(self.small_data(), ChainConfig(n_iter=10, burn_in=1, seed=1))
        assert isinstance(info.value.__cause__, NotPositiveDefinite)

    def test_error_without_a_message_constructor_keeps_its_base(self, monkeypatch):
        # numpy's _ArrayMemoryError(shape, dtype) takes no single message:
        # the chain raises the nearest base that does, MemoryError.
        def failing(*args):
            return np.empty((10**12, 10**6))  # fails before allocating

        monkeypatch.setattr(horseshoe, "update_beta", failing)
        with pytest.raises(MemoryError, match=r"^iteration 1, block beta: ") as info:
            run_chain(self.small_data(), ChainConfig(n_iter=3, burn_in=0, seed=1))
        assert type(info.value) is MemoryError
        assert isinstance(info.value.__cause__, MemoryError)

    def test_infinite_sigma2_names_its_block(self, monkeypatch):
        # An infinite q gives sigma^2 = inf, which update_beta would pass
        # (alpha = y / sigma is 0), so the sigma^2 step itself raises.
        real = horseshoe.update_tau
        monkeypatch.setattr(horseshoe, "update_tau",
                            lambda *args: real(*args)._replace(q=math.inf))
        with pytest.raises(ValueError,
                           match=r"^iteration 1, block sigma2: sigma2 must be finite and positive$"):
            run_chain(self.small_data(), ChainConfig(n_iter=10, burn_in=1, seed=1))

    def test_overflowing_q_names_block_sigma2(self):
        # var(y) is 0 but |y|^2 is past 1e308, so q = z'z overflows in the
        # tau step, silently, and the sigma^2 step rejects its inf draw.
        data = RegressionData(np.random.default_rng(0).standard_normal((20, 10)),
                              np.full(20, 1e155))
        with pytest.raises(ValueError,
                           match=r"^iteration 1, block sigma2: sigma2 must be finite and positive$"):
            run_chain(data, ChainConfig(n_iter=10, burn_in=1, seed=1))

    @pytest.mark.parametrize("action", ["error", "default"])
    @pytest.mark.parametrize("y, fixed_sigma", [
        (np.full(20, 1e155), 2.0),
        (1e150 * np.random.default_rng(1).standard_normal(20), 1e-300),
    ], ids=["large_y", "tiny_sigma2"])
    def test_overflowing_beta_ratio_names_block_beta(self, y, fixed_sigma, action):
        # The first beta draw is so large that the next lambda step's
        # beta_j^2 / (2 tau^2 sigma^2) would overflow, with a warning; the
        # beta step refuses the draw instead, and nothing warns.
        data = RegressionData(np.random.default_rng(0).standard_normal((20, 10)), y)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            with pytest.raises(ValueError, match=r"^iteration 1, block beta: "):
                run_chain(data, ChainConfig(n_iter=10, burn_in=1, fixed_sigma=fixed_sigma))
        assert caught == []

    def test_zero_local_scale_fails_in_block_beta(self, monkeypatch):
        # lambda = 0 gives K = 0, which the tau step factors as M = I; the
        # beta step's DiagonalScale is what rejects the zero prior scale.
        real = horseshoe.update_lambda
        calls = []

        def zero_from_the_second(beta, lam, tau, sigma2, rng):
            calls.append(None)
            new = real(beta, lam, tau, sigma2, rng)
            return new if len(calls) == 1 else np.zeros_like(new)

        monkeypatch.setattr(horseshoe, "update_lambda", zero_from_the_second)
        with pytest.raises(ValueError, match=r"^iteration 2, block beta: diagonal scale "
                                             r"entries must be finite and positive$"):
            run_chain(self.small_data(), ChainConfig(n_iter=10, burn_in=1, seed=1))

    def test_chain_builds_no_structured_gaussian(self, monkeypatch):
        # The beta draw goes through structured.augmented_draw on the tau
        # step's factor: the names the benchmark tracer wraps are not called.
        data = self.small_data()
        cfg = ChainConfig(n_iter=20, burn_in=0, seed=5)
        want = run_chain(data, cfg)

        def refuse(*args, **kwargs):
            raise AssertionError("the chain called a traced structured name")

        monkeypatch.setattr(horseshoe, "StructuredGaussian", refuse)
        monkeypatch.setattr(horseshoe, "fast_sample", refuse)
        got = run_chain(data, cfg)
        np.testing.assert_array_equal(got.draws, want.draws)
        np.testing.assert_array_equal(got.scale_draws, want.scale_draws)

    @pytest.mark.parametrize("split", [False, True])
    @pytest.mark.parametrize("fixed_sigma", [None, 1.5])
    def test_errstate_entries_per_iteration(self, monkeypatch, split, fixed_sigma):
        # An np.errstate entry costs about 1 us, a visible share of a small
        # chain's iteration: 3 per iteration below _SPLIT_ENTRIES entries
        # of X (one K, two K/xi targets), 5 from there on (two halves and
        # their sum).
        data = wide_tau_input()[0] if split else self.small_data()
        entries, marks = [], []

        class CountingErrstate(np.errstate):
            def __enter__(self):
                entries.append(None)
                return super().__enter__()

        real = horseshoe.update_lambda

        def marking(*args):
            marks.append(len(entries))
            return real(*args)

        monkeypatch.setattr(np, "errstate", CountingErrstate)
        monkeypatch.setattr(horseshoe, "update_lambda", marking)
        run_chain(data, ChainConfig(n_iter=4, burn_in=0, seed=2, fixed_sigma=fixed_sigma))
        assert np.diff(marks).tolist() == [5 if split else 3] * 3

    def test_missing_special_functions_name_the_iteration_and_block(self, monkeypatch):
        # scipy.special is imported by the first sampled-sigma^2 step, the
        # tau target of iteration 1, so an import failure surfaces there.
        monkeypatch.setitem(sys.modules, "scipy.special", None)
        with pytest.raises(ImportError, match=r"^iteration 1, block tau: "):
            run_chain(self.small_data(), ChainConfig(n_iter=3, burn_in=0, seed=1))

    def test_joint_scale_marginal_matches_quadrature(self):
        # n = 3, p = 1, sigma^2 sampled: the kept (tau, sigma^2) draws of a
        # long chain against the 2-D quadrature marginal, which integrates
        # the half-Cauchy lambda on a grid.  Each statistic must lie within
        # 4 batch-means standard errors (100 batches) of its quadrature
        # value: the means of log tau and log sigma^2, and the marginal and
        # joint probabilities of falling below grid points near the medians.
        x = np.array([1.0, 0.5, -0.4])
        y = np.array([1.0, -0.3, 0.8])
        n = 3
        a = np.linspace(-16.0, 10.0, 521)  # log tau
        c = a.copy()  # log lambda
        b = np.linspace(-8.0, 16.0, 481)  # log sigma^2
        xx, xy2, yy = x @ x, (x @ y) ** 2, y @ y
        log_prior_c = c - np.log1p(np.exp(2 * c))  # half-Cauchy in log lambda
        w = np.empty((a.size, b.size))
        for i, ai in enumerate(a):
            t = np.exp(2 * (ai + c))[:, None]  # tau^2 lambda^2
            q = yy - t * xy2 / (1 + t * xx)
            log_lik = -0.5 * n * b - 0.5 * np.log1p(t * xx) - 0.5 * q * np.exp(-b)
            log_post = log_lik + log_prior_c[:, None] + ai - np.log1p(np.exp(2 * ai))
            w[i] = np.trapezoid(np.exp(log_post), c, axis=0)
        w /= np.trapezoid(np.trapezoid(w, b, axis=1), a)
        pa, pb = np.trapezoid(w, b, axis=1), np.trapezoid(w, a, axis=0)
        cdf_a = cumulative_trapezoid(pa, a, initial=0.0)
        cdf_b = cumulative_trapezoid(pb, b, initial=0.0)
        ia, ib = int(np.searchsorted(cdf_a, 0.5)), int(np.searchsorted(cdf_b, 0.5))
        joint = np.trapezoid(cumulative_trapezoid(w, b, axis=1, initial=0.0)[: ia + 1, ib],
                             a[: ia + 1])

        data = RegressionData(x[:, None], y)
        result = run_chain(data, ChainConfig(n_iter=51_000, burn_in=1_000, seed=3))
        log_tau, log_s2 = np.log(result.scale_draws.T)
        below_a, below_b = log_tau <= a[ia], log_s2 <= b[ib]
        checks = {
            "E log tau": (log_tau, np.trapezoid(a * pa, a)),
            "E log sigma2": (log_s2, np.trapezoid(b * pb, b)),
            "P(log tau <= a0)": (below_a, cdf_a[ia]),
            "P(log sigma2 <= b0)": (below_b, cdf_b[ib]),
            "P(both)": (below_a & below_b, joint),
        }
        for name, (values, expected) in checks.items():
            batches = values.astype(float).reshape(100, -1).mean(axis=1)
            se = batches.std(ddof=1) / np.sqrt(batches.size)
            assert abs(batches.mean() - expected) < 4 * se, name

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
        for name, bad in (("n_iter", 1e4), ("burn_in", 10.0), ("thin", 2.5), ("seed", 1.5)):
            with pytest.raises(ConfigError, match=f"^{name} must be an integer"):
                ChainConfig(**{name: bad})

    def test_data_validation(self):
        with pytest.raises(Exception):
            RegressionData(np.ones((1, 2)), np.ones(1))  # n < 2
        with pytest.raises(Exception):
            RegressionData(np.ones((3, 0)), np.ones(3))  # no predictors
        with pytest.raises(ValueError):
            RegressionData(np.full((3, 2), np.nan), np.ones(3))
        with pytest.raises(DimensionMismatch, match="^x must be n x p"):
            RegressionData(np.ones(3), np.ones(3))
        with pytest.raises(DimensionMismatch, match="^x has 3 rows but y has length 4"):
            RegressionData(np.ones((3, 2)), np.ones(4))
        y = np.random.default_rng(0).standard_normal(20) * 1e155  # finite; y^2 is not
        with pytest.raises(ValueError, match="^the variance of y overflows: rescale y$"):
            RegressionData(np.ones((20, 2)), y)


# Runs in a fresh interpreter.  After each entry point it records
# whether scipy.special has been loaded.
_FOOTPRINT_SCRIPT = """
import json, sys
steps = []
def step(name):
    steps.append([name, "scipy.special" in sys.modules])

import numpy as np
import fastmvg
step("import fastmvg")
from fastmvg import (ChainConfig, DenseSpdScale, DiagonalScale, RegressionData,
                     RngStream, StructuredGaussian, baseline_sample, fast_sample,
                     log_density, posterior_mean, run_chain)
gen = np.random.default_rng(0)
phi, alpha = gen.standard_normal((3, 5)), gen.standard_normal(3)
g = StructuredGaussian(phi, DiagonalScale(np.full(5, 2.0)), alpha)
log_density(g, posterior_mean(g) + fast_sample(g, RngStream(1)).theta)
baseline_sample(g, RngStream(2))
step("diagonal sampling")
fast_sample(StructuredGaussian(phi, DenseSpdScale(np.eye(5) + 0.5), alpha), RngStream(3))
step("dense sampling")
import fastmvg.cli
fastmvg.cli.main(["sample", *sys.argv[1:4], "--draws", "2", "--seed", "1",
                  "--out", sys.argv[4]])
step("fastmvg sample")
x = gen.standard_normal((6, 4))
data = RegressionData(x, x[:, 0] + gen.standard_normal(6))
run_chain(data, ChainConfig(n_iter=3, burn_in=0, fixed_sigma=1.0))
step("fixed_sigma run_chain")
run_chain(data, ChainConfig(n_iter=3, burn_in=0))
step("sampled sigma^2 run_chain")
print(json.dumps(steps))
"""


def test_only_a_sampled_sigma2_chain_loads_scipy_special(tmp_path):
    inputs = []
    for name, text in (("phi", "1,0.5\n-0.3,2\n"), ("d", "1,3\n"), ("alpha", "1,-1\n")):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        inputs.append(str(path))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT_SCRIPT, *inputs, str(tmp_path / "out.csv")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        ["import fastmvg", False],
        ["diagonal sampling", False],
        ["dense sampling", False],
        ["fastmvg sample", False],
        ["fixed_sigma run_chain", False],
        ["sampled sigma^2 run_chain", True],
    ]
