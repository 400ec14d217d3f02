import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fastmvg.structured as structured
from fastmvg import (
    DenseSpdScale,
    DiagonalScale,
    DimensionMismatch,
    NotPositiveDefinite,
    RegressionData,
    RngStream,
    SpdFactor,
    StructuredGaussian,
    baseline_sample,
    fast_sample,
    log_density,
    posterior_mean,
    update_tau,
)
from fastmvg.linalg import cholesky

from conftest import (
    QueuedStream,
    dense_d_matrix,
    dense_log_density,
    dense_sigma_mu,
    dense_system,
    random_instance,
    whitened_log_density,
    woodbury_theta,
)


class TestScaleStructures:
    def test_diagonal_requires_positive(self):
        with pytest.raises(ValueError):
            DiagonalScale(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            DiagonalScale(np.array([1.0, -2.0]))
        with pytest.raises(DimensionMismatch, match="^diagonal scale expects a vector"):
            DiagonalScale(np.ones((2, 2)))

    def test_dense_factor_reconstructs(self):
        gen = np.random.default_rng(0)
        m = gen.standard_normal((4, 4))
        d = m @ m.T + 4 * np.eye(4)
        scale = DenseSpdScale(d)
        np.testing.assert_allclose(scale.factor.lower @ scale.factor.lower.T, d, atol=1e-10)

    def test_dense_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            DenseSpdScale(np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="^dense scale entries must be finite"):
            DenseSpdScale(np.array([[1.0, np.nan], [np.nan, 1.0]]))

    def test_dense_tiny_pivot_raises(self):
        # Singular at working precision: LAPACK accepts the second pivot
        # (about 1e-13), but it is below PIVOT_RTOL * trace / 2 = 1e-12.
        a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
        assert np.diagonal(cholesky(a.copy()).lower)[1] > 0.0
        with pytest.raises(NotPositiveDefinite, match="floor"):
            DenseSpdScale(a)

    def test_instance_validation(self):
        with pytest.raises(DimensionMismatch):
            StructuredGaussian(np.ones((2, 3)), DiagonalScale(np.ones(4)), np.ones(2))
        with pytest.raises(DimensionMismatch):
            StructuredGaussian(np.ones((2, 3)), DiagonalScale(np.ones(3)), np.ones(3))
        with pytest.raises(ValueError):
            StructuredGaussian(np.ones((2, 3)), DiagonalScale(np.ones(3)),
                               np.array([1.0, np.nan]))
        with pytest.raises(DimensionMismatch, match="^phi must be an n x p matrix"):
            StructuredGaussian(np.ones(3), DiagonalScale(np.ones(3)), np.ones(1))
        with pytest.raises(DimensionMismatch, match="^alpha must be a vector"):
            StructuredGaussian(np.ones((2, 3)), DiagonalScale(np.ones(3)), np.ones((2, 1)))
        with pytest.raises(DimensionMismatch, match="^phi must have at least one row"):
            StructuredGaussian(np.ones((0, 3)), DiagonalScale(np.ones(3)), np.ones(0))

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phi_raises_when_factored(self, bad, dense):
        # phi is not scanned at construction; every consumer factors a
        # system that the bad entry makes non-finite, and cholesky says so.
        phi = np.random.default_rng(5).standard_normal((2, 3))
        phi[1, 2] = bad
        scale = DenseSpdScale(np.eye(3)) if dense else DiagonalScale(np.ones(3))
        g = StructuredGaussian(phi, scale, np.ones(2))
        with np.errstate(invalid="ignore"):  # inf * 0 in Phi L, for dense D
            assert_every_consumer_raises(g)

    def test_construction_does_not_scan_phi(self):
        # At (20, 20000) an isfinite scan of phi allocates an n x p
        # boolean temporary, 0.125 n p 8 bytes; construction must not.
        n, p = 20, 20000
        phi = np.random.default_rng(8).standard_normal((n, p))
        scale, alpha = DiagonalScale(np.ones(p)), np.ones(n)
        StructuredGaussian(phi, scale, alpha)
        tracemalloc.start()
        try:
            StructuredGaussian(phi, scale, alpha)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.05 * n * p * 8


@st.composite
def outside_covariances(draw):
    """p x p candidates for D, p <= 6, of four kinds.

    ``spd`` and ``rank_deficient`` are s A A' for A with entries on a
    0.01 grid in [-10, 10] and s from 1e-300 to 1e300; ``asymmetric``
    adds a relative error of 1e-9 to 1 to one upper entry of an spd
    matrix; ``diagonal`` has entries spread over 1e-300 to 1e300.
    """
    p = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(["spd", "asymmetric", "rank_deficient", "diagonal"]))
    if kind == "diagonal":
        exps = draw(st.lists(st.floats(-300.0, 300.0), min_size=p, max_size=p))
        return np.diag(10.0 ** np.array(exps, dtype=float))
    if kind == "rank_deficient":
        k = draw(st.integers(0, max(p - 1, 0)))
    else:
        k = p + draw(st.integers(0, 2))
    entries = draw(st.lists(st.integers(-1000, 1000), min_size=p * k, max_size=p * k))
    a = np.array(entries, dtype=float).reshape(p, k) / 100.0
    m = 10.0 ** draw(st.floats(-300.0, 300.0)) * (a @ a.T)
    if kind == "asymmetric" and p > 1:
        i = draw(st.integers(0, p - 2))
        j = draw(st.integers(i + 1, p - 1))
        m[i, j] += 10.0 ** draw(st.floats(-9.0, 0.0)) * np.max(np.abs(m))
    return m


class TestOutsideCovarianceFuzz:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(outside_covariances())
    def test_factor_or_typed_error(self, m):
        # An outside D either yields a lower-triangular factor with a
        # positive diagonal that reconstructs D, or a typed error; never NaN.
        try:
            scale = DenseSpdScale(m)
        except (ValueError, NotPositiveDefinite, DimensionMismatch):
            return
        lower = scale.factor.lower
        assert np.all(np.isfinite(lower))
        assert np.array_equal(lower, np.tril(lower))
        assert np.all(np.diagonal(lower) > 0.0)
        assert np.max(np.abs(lower @ lower.T - m)) <= 1e-10 * np.max(np.abs(m))
        assert np.isfinite(scale.log_det)


class TestFastSample:
    def test_zero_coupling_returns_u(self):
        # Phi = 0 decouples theta from the data entirely: theta == u.
        g = StructuredGaussian(
            np.zeros((2, 3)), DiagonalScale(np.ones(3)), np.array([5.0, -1.0])
        )
        u = np.array([0.3, -0.7, 2.0])
        delta = np.array([0.1, 0.2])
        draw = fast_sample(g, QueuedStream(normals=[u, delta]))
        np.testing.assert_array_equal(draw.theta, u)
        np.testing.assert_array_equal(draw.w, g.alpha - delta)

    def test_scalar_identity_case(self):
        g = StructuredGaussian(np.ones((1, 1)), DiagonalScale(np.ones(1)), np.zeros(1))
        draw = fast_sample(g, QueuedStream(normals=[np.zeros(1), np.zeros(1)]))
        assert draw.w[0] == 0.0
        assert draw.theta[0] == 0.0

    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_woodbury_oracle(self, dense):
        g = random_instance(77, n=3, p=7, dense=dense)
        stub = QueuedStream(
            normals=[
                np.random.default_rng(1).standard_normal(7),
                np.random.default_rng(2).standard_normal(3),
            ]
        )
        draw = fast_sample(g, stub)
        expected = woodbury_theta(g, draw.u, draw.delta)
        np.testing.assert_allclose(draw.theta, expected, rtol=1e-10)

    @pytest.mark.parametrize("dense", [False, True])
    def test_augmented_draw_invariants(self, dense):
        g = random_instance(78, n=4, p=9, dense=dense)
        draw = fast_sample(g, RngStream(3, 0))
        # v is exactly the stored combination of the stored inputs
        np.testing.assert_array_equal(draw.v, g.phi @ draw.u + draw.delta)
        # w solves the n x n coupling system to working accuracy
        d = dense_d_matrix(g.scale)
        m = g.phi @ d @ g.phi.T + np.eye(g.n)
        resid = g.alpha - draw.v
        assert np.linalg.norm(m @ draw.w - resid) <= 1e-8 * np.linalg.norm(resid)
        # theta is the stated linear combination
        np.testing.assert_allclose(
            draw.theta, draw.u + d @ g.phi.T @ draw.w, rtol=1e-12, atol=1e-14
        )


class TestPosteriorMean:
    def test_zero_alpha(self):
        g = StructuredGaussian(
            np.ones((2, 4)), DiagonalScale(np.ones(4)), np.zeros(2)
        )
        np.testing.assert_array_equal(posterior_mean(g), np.zeros(4))

    def test_scalar_half(self):
        g = StructuredGaussian(np.ones((1, 1)), DiagonalScale(np.ones(1)), np.ones(1))
        np.testing.assert_allclose(posterior_mean(g), [0.5], rtol=1e-14)

    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_normal_equations(self, dense):
        g = random_instance(79, n=4, p=9, dense=dense)
        mu = posterior_mean(g)
        d = dense_d_matrix(g.scale)
        prec = g.phi.T @ g.phi + np.linalg.inv(d)
        expected = np.linalg.solve(prec, g.phi.T @ g.alpha)
        np.testing.assert_allclose(mu, expected, rtol=1e-9)
        # residual form of the same contract
        rhs = g.phi.T @ g.alpha
        assert np.linalg.norm(prec @ mu - rhs) <= 1e-8 * np.linalg.norm(rhs)


class TestBaselineSample:
    def test_zero_coupling_identity_prior(self):
        g = StructuredGaussian(
            np.zeros((2, 4)), DiagonalScale(np.ones(4)), np.ones(2)
        )
        z = np.array([0.5, -1.5, 0.0, 2.0])
        theta = baseline_sample(g, QueuedStream(normals=[z]))
        np.testing.assert_array_equal(theta, z)

    def test_scalar_mean_half(self):
        g = StructuredGaussian(np.ones((1, 1)), DiagonalScale(np.ones(1)), np.ones(1))
        theta = baseline_sample(g, QueuedStream(normals=[np.zeros(1)]))
        np.testing.assert_allclose(theta, [0.5], rtol=1e-14)

    def test_moments_match_fast_sampler(self):
        # Two-sample comparison on a fixed instance: both samplers target
        # the same N(mu, Sigma), so all first and second moments agree.
        g = random_instance(80, n=5, p=12)
        sigma, mu = dense_sigma_mu(g)
        n_draws = 200_000
        rng_f = RngStream(100, 0)
        rng_b = RngStream(101, 0)
        fast_draws = np.empty((n_draws, g.p))
        base_draws = np.empty((n_draws, g.p))
        for i in range(n_draws):
            fast_draws[i] = fast_sample(g, rng_f).theta
            base_draws[i] = baseline_sample(g, rng_b)
        var = np.diagonal(sigma)
        mean_se = np.sqrt(2.0 * var / n_draws)
        assert np.all(np.abs(fast_draws.mean(0) - base_draws.mean(0)) < 4 * mean_se)
        cov_f = np.cov(fast_draws.T)
        cov_b = np.cov(base_draws.T)
        cov_se = np.sqrt(2.0 * (np.outer(var, var) + sigma**2) / n_draws)
        assert np.all(np.abs(cov_f - cov_b) < 4 * cov_se)
        assert np.max(np.abs(cov_f - cov_b)) < 0.02


class TestLogDensity:
    def test_standard_normal_at_origin(self):
        p = 6
        g = StructuredGaussian(
            np.zeros((2, p)), DiagonalScale(np.ones(p)), np.zeros(2)
        )
        expected = -0.5 * p * np.log(2 * np.pi)
        assert log_density(g, np.zeros(p)) == pytest.approx(expected, abs=1e-12)

    def test_scalar_case(self):
        g = StructuredGaussian(np.ones((1, 1)), DiagonalScale(np.ones(1)), np.ones(1))
        expected = -0.5 * np.log(2 * np.pi * 0.5)
        assert log_density(g, np.array([0.5])) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_dense_oracle(self, dense):
        gen = np.random.default_rng(81)
        g = random_instance(82, n=3, p=8, dense=dense)
        for _ in range(5):
            x = gen.standard_normal(8)
            assert log_density(g, x) == pytest.approx(
                dense_log_density(g, x), abs=1e-8
            )

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("shape", [(1, 1), (3, 8), (5, 4), (4, 12)])
    def test_whitened_oracle_matches_dense_oracle(self, dense, shape):
        gen = np.random.default_rng(85)
        g = random_instance(86, *shape, dense=dense)
        for x in (posterior_mean(g), gen.standard_normal(g.p)):
            assert whitened_log_density(g, x) == pytest.approx(dense_log_density(g, x),
                                                               rel=1e-10)

    def test_scales_over_77_decades_match_whitened_oracle(self):
        # Phi'Phi + D^-1 is singular at working precision here: the dense
        # oracle, which inverts it, reads 4.8e9 and 4.6e10 at the two draws.
        g = StructuredGaussian(np.array([[0.3, -1.2, 0.8, 1.5, -0.6]]),
                               DiagonalScale(10.0 ** np.array([-51.0, -30.0, -2.0, 12.0, 26.0])),
                               np.array([0.9]))
        for x in (posterior_mean(g), fast_sample(g, RngStream(3)).theta,
                  fast_sample(g, RngStream(4)).theta):
            assert log_density(g, x) == pytest.approx(whitened_log_density(g, x), rel=1e-10)

    def test_dimension_mismatch(self):
        g = random_instance(83, n=3, p=8)
        with pytest.raises(DimensionMismatch):
            log_density(g, np.zeros(5))

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x_never_gives_nan(self, bad, dense):
        # A NaN entry, or an infinite one whose terms cancel as inf - inf,
        # raises; an infinite entry whose terms do not cancel gives -inf,
        # the log of the density's limit of 0.
        g = random_instance(84, n=3, p=8, dense=dense)
        x = np.zeros(g.p)
        x[2] = bad
        try:
            value = log_density(g, x)
        except ValueError as exc:
            assert "NaN" in str(exc)
            return
        assert not np.isnan(bad) and value == -np.inf

    @pytest.mark.parametrize("dense", [False, True])
    def test_overflowing_finite_x_gives_minus_inf(self, dense):
        # Phi x is finite, but (Phi x)'(Phi x) and x' D^-1 x overflow.
        scale = DenseSpdScale(np.eye(3)) if dense else DiagonalScale(np.ones(3))
        g = StructuredGaussian(np.ones((2, 3)), scale, np.ones(2))
        assert log_density(g, np.full(3, 1e200)) == -np.inf


class TestKeptFactor:
    def test_one_factorization_per_instance(self, monkeypatch):
        g = random_instance(85, n=4, p=9)
        calls = []
        real = structured.cholesky

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(structured, "cholesky", counting)
        rng = RngStream(4, 0)
        posterior_mean(g)
        for _ in range(5):
            log_density(g, fast_sample(g, rng).theta)
        assert calls == [(4, 4)]
        fast_sample(replace(g), rng)
        assert calls == [(4, 4), (4, 4)]

    def test_mean_and_densities_share_one_solve(self, monkeypatch):
        # M^-1 alpha is solved once per instance, for the mean and every density.
        g = random_instance(90, n=4, p=9)
        calls = []
        real = structured.solve_spd

        def counting(*args, **kwargs):
            calls.append(args[1].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(structured, "solve_spd", counting)
        posterior_mean(g)
        for x in np.random.default_rng(91).standard_normal((5, 9)):
            log_density(g, x)
        assert calls == [(4,)]

    def test_scale_constants_computed_once(self, monkeypatch):
        # log|D| and D^{1/2} of a diagonal scale are evaluated once, across
        # the build of M, five draws and five densities.
        g = random_instance(92, n=4, p=9)
        counting = CountingNumpy("log", "sqrt")
        monkeypatch.setattr(structured, "np", counting)
        rng = RngStream(4, 0)
        for _ in range(5):
            log_density(g, fast_sample(g, rng).theta)
        assert counting.calls.count("log") == 1
        assert counting.calls.count("sqrt") == 1

    @pytest.mark.parametrize("dense", [False, True])
    def test_used_instance_matches_fresh_copy(self, dense):
        # After draws, the mean and the densities of an instance equal, bit
        # for bit, those of a copy that keeps nothing, scale included.
        g = random_instance(93, n=4, p=9, dense=dense)
        rng = RngStream(7, 0)
        xs = [fast_sample(g, rng).theta for _ in range(3)]
        fresh = replace(g, scale=replace(g.scale))
        np.testing.assert_array_equal(posterior_mean(g), posterior_mean(fresh))
        for x in xs:
            assert log_density(g, x) == log_density(fresh, x)

    @pytest.mark.parametrize("dense", [False, True])
    def test_mutating_results_changes_nothing(self, dense):
        # What a call returns is the caller's: writing to a mean or to a
        # draw's arrays leaves later means, draws and densities unchanged.
        g = random_instance(94, n=4, p=9, dense=dense)
        fresh = replace(g, scale=replace(g.scale))
        x = np.random.default_rng(95).standard_normal(9)
        posterior_mean(g)[:] = np.nan
        draw = fast_sample(g, RngStream(8, 0))
        for name in ("u", "delta", "v", "w", "theta"):
            getattr(draw, name)[:] = np.nan
        np.testing.assert_array_equal(posterior_mean(g), posterior_mean(fresh))
        assert log_density(g, x) == log_density(fresh, x)
        kept, again = fast_sample(g, RngStream(9, 0)), fast_sample(fresh, RngStream(9, 0))
        for name in ("u", "delta", "v", "w", "theta"):
            np.testing.assert_array_equal(getattr(kept, name), getattr(again, name))

    @pytest.mark.parametrize("dense", [False, True])
    def test_draws_match_fresh_instances(self, dense):
        # k draws on one instance equal, bit for bit, k draws that each
        # rebuild the factor on a fresh copy from the same stream.
        g = random_instance(86, n=4, p=9, dense=dense)
        rng_kept, rng_fresh = RngStream(5, 0), RngStream(5, 0)
        for _ in range(4):
            kept = fast_sample(g, rng_kept)
            fresh = fast_sample(replace(g), rng_fresh)
            for name in ("u", "delta", "v", "w", "theta"):
                np.testing.assert_array_equal(getattr(kept, name), getattr(fresh, name))
        # With the factor kept, a draw still consumes p normals for u,
        # then n for delta (QueuedStream checks each shape).
        u = np.random.default_rng(3).standard_normal(9)
        delta = np.random.default_rng(4).standard_normal(4)
        draw = fast_sample(g, QueuedStream(normals=[u, delta]))
        np.testing.assert_array_equal(draw.delta, delta)
        np.testing.assert_allclose(draw.theta, woodbury_theta(g, draw.u, delta), rtol=1e-10)

    def test_supplied_factor_is_used_and_not_copied_by_replace(self, monkeypatch):
        # A factor passed at construction is the one every draw solves
        # against: no factorization runs, and the draw equals one on an
        # instance that built the same factor itself.  replace() gives
        # an instance without it, and a factor of the wrong order raises.
        g = random_instance(88, n=4, p=9)
        m = g.phi @ np.diag(g.scale.d) @ g.phi.T + np.eye(4)
        supplied = StructuredGaussian(g.phi, g.scale, g.alpha, cholesky(m))
        calls = []
        real = structured.cholesky

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(structured, "cholesky", counting)
        got = fast_sample(supplied, RngStream(6, 0)).theta
        assert calls == []
        np.testing.assert_allclose(got, fast_sample(g, RngStream(6, 0)).theta, rtol=1e-12)
        assert calls == [(4, 4)]
        posterior_mean(replace(supplied))
        assert calls == [(4, 4), (4, 4)]
        with pytest.raises(DimensionMismatch):
            StructuredGaussian(g.phi, g.scale, g.alpha, cholesky(np.eye(3)))

    def test_every_factor_handed_out_is_triangular(self):
        # A factor is read as a full matrix (L @ z, Phi @ L), so its strict
        # upper triangle must be exactly zero, whoever made it.  Orders
        # above 32 take OpenBLAS's blocked dpotrf.
        gen = np.random.default_rng(89)
        n, p = 40, 60
        m = gen.standard_normal((p, p))
        data = RegressionData(gen.standard_normal((n, p)), gen.standard_normal(n))
        factors = [
            DenseSpdScale(m @ m.T + np.eye(p)).factor,
            update_tau(data, gen.uniform(0.2, 3.0, p), 0.7, RngStream(10, 0)).factor,
            StructuredGaussian(gen.standard_normal((n, p)), DiagonalScale(np.ones(p)),
                               np.ones(n))._coupling,
        ]
        for f in factors:
            assert np.count_nonzero(np.triu(f.lower, 1)) == 0

    def test_shared_instance_across_threads(self):
        # Threads that race to build one instance's factor and constants,
        # starting from a draw, the mean or a density, must each get the
        # results a single thread gets on a fresh copy.
        g = random_instance(87, n=6, p=40)
        x = np.random.default_rng(96).standard_normal(40)

        def results(h, k):
            # Thread k starts from the draw, the mean or the density, by k % 3.
            steps = {"draw": lambda: fast_sample(h, RngStream(9, k)).theta,
                     "mean": lambda: posterior_mean(h),
                     "density": lambda: log_density(h, x)}
            names = list(steps)[k % 3:] + list(steps)[:k % 3]
            return {name: steps[name]() for name in names}

        expected = [results(replace(g, scale=replace(g.scale)), k) for k in range(8)]

        def work(k):
            got[k] = results(shared, k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                shared, got = replace(g, scale=replace(g.scale)), [None] * 8
                threads = [threading.Thread(target=work, args=(k,)) for k in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                for k in range(8):
                    np.testing.assert_array_equal(got[k]["draw"], expected[k]["draw"])
                    np.testing.assert_array_equal(got[k]["mean"], expected[k]["mean"])
                    assert got[k]["density"] == expected[k]["density"]
        finally:
            sys.setswitchinterval(interval)


class TestPanelledBuild:
    @pytest.mark.parametrize("n, p, dense, panel_bytes", [
        (100, 20000, False, None),  # the shipped panel width
        (50, 2000, True, 32 * 1024),  # small panels, so p = 2000 is split
    ])
    def test_build_holds_no_n_by_p_array(self, monkeypatch, n, p, dense, panel_bytes):
        # An n x p copy of Phi (B = Phi D^{1/2} or Phi L) would take n p 8
        # bytes; the build of M may peak at a quarter of that.
        if panel_bytes is not None:
            monkeypatch.setattr(structured, "_PANEL_BYTES", panel_bytes)
        gen = np.random.default_rng(90)
        if dense:
            scale = DenseSpdScale(np.full((p, p), 0.5) + 0.5 * np.eye(p))
        else:
            scale = DiagonalScale(gen.uniform(0.3, 3.0, p))
        g = StructuredGaussian(gen.standard_normal((n, p)), scale, gen.standard_normal(n))
        tracemalloc.start()
        try:
            g._coupling
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * p * 8 / 4

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("p", [1, 2, 6, 7])
    def test_factor_matches_dense_oracle(self, monkeypatch, dense, width, p):
        # Panels of `width` columns: p = 1, below one panel, an exact
        # multiple of the width, and that multiple plus one.
        n = 5
        monkeypatch.setattr(structured, "_PANEL_BYTES", 8 * n * width)
        g = random_instance(91 + p, n=n, p=p, dense=dense)
        f = g._coupling
        expected = dense_system(g)
        np.testing.assert_allclose(f.lower @ f.lower.T, expected, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expected)))
        assert np.count_nonzero(np.triu(f.lower, 1)) == 0
        assert f.lower.flags.f_contiguous  # cholesky's in-place view of M

    @pytest.mark.parametrize("dense", [False, True])
    def test_panels_overflowing_only_in_their_sum_raise(self, monkeypatch, dense):
        # Each one-column panel's B B' is finite but their sum overflows:
        # M is inf, which cholesky rejects, and no warning is raised.
        monkeypatch.setattr(structured, "_PANEL_BYTES", 8)
        scale = DenseSpdScale(np.eye(2)) if dense else DiagonalScale(np.ones(2))
        g = StructuredGaussian(np.full((1, 2), math.sqrt(1.2e308)), scale, np.ones(1))
        with pytest.raises(NotPositiveDefinite):
            posterior_mean(g)


class CountingNumpy:
    """numpy, with each call to one of ``names`` recorded in ``calls``."""

    def __init__(self, *names):
        self.calls = []
        self._names = names

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in self._names:
            return fn

        def counted(*args, **kwargs):
            self.calls.append(name)
            return fn(*args, **kwargs)

        return counted


def assert_every_consumer_raises(g):
    """Each public consumer of g raises NotPositiveDefinite, each on a fresh copy."""
    with pytest.raises(NotPositiveDefinite):
        fast_sample(replace(g), RngStream(3, 0))
    with pytest.raises(NotPositiveDefinite):
        posterior_mean(replace(g))
    with pytest.raises(NotPositiveDefinite):
        log_density(replace(g), np.zeros(g.p))
    with pytest.raises(NotPositiveDefinite):
        baseline_sample(replace(g), RngStream(3, 0))


class TestHostileScales:
    """d from 1e-300 to 1e300, shuffled, through the SYRK build of M.

    Each case either matches the dense Woodbury oracle or raises
    NotPositiveDefinite, and never returns NaN.  At (20, 60) and (60, 20)
    M = I + Phi D Phi' has a condition number near 1e300, far past
    float64, and the factorization must say so; with n = 1 or p = 1 the
    draw and the mean must still match the oracle.
    """

    @staticmethod
    def instance(n, p, dense):
        gen = np.random.default_rng(7)
        d = np.logspace(-300, 300, p)
        gen.shuffle(d)
        if dense:
            # DenseSpdScale(np.diag(d)) rightly refuses diag(d) at this
            # spread (its pivot floor), so the exact factor is set on an
            # instance directly: the dense n x n build still meets the spread.
            scale = object.__new__(DenseSpdScale)
            object.__setattr__(scale, "matrix", np.diag(d))
            object.__setattr__(scale, "factor", SpdFactor(np.diag(np.sqrt(d))))
        else:
            scale = DiagonalScale(d)
        return StructuredGaussian(gen.standard_normal((n, p)), scale, gen.standard_normal(n))

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("n, p", [(20, 60), (60, 20)])
    def test_spread_past_float64_raises(self, n, p, dense):
        g = self.instance(n, p, dense)
        with pytest.raises(NotPositiveDefinite):
            fast_sample(g, RngStream(3, 0))
        with pytest.raises(NotPositiveDefinite):
            posterior_mean(replace(g))

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("n, p", [(1, 60), (60, 1), (1, 1)])
    def test_single_row_or_column_matches_oracle(self, n, p, dense):
        g = self.instance(n, p, dense)
        draw = fast_sample(g, RngStream(3, 0))
        assert not np.any(np.isnan(draw.theta))
        np.testing.assert_allclose(draw.theta, woodbury_theta(g, draw.u, draw.delta),
                                   rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(posterior_mean(g),
                                   woodbury_theta(g, np.zeros(p), np.zeros(n)),
                                   rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("n, p, entry", [  # B B', then B itself, overflows
        pytest.param(1, 3, 1e200, id="1-3"), pytest.param(3, 5, 1e200, id="3-5"),
        pytest.param(1, 3, 1e307, id="1-3-1e307"), pytest.param(3, 5, 1e307, id="3-5-1e307"),
    ])
    def test_overflowing_phi_raises(self, n, p, entry, dense):
        # Every entry of phi and d is finite, but Phi D Phi' and Phi' Phi
        # overflow to inf; a consumer must not return a value built on
        # them, and must raise no warning on the way.
        d = np.full(p, 1e10)
        scale = DenseSpdScale(np.diag(d)) if dense else DiagonalScale(d)
        g = StructuredGaussian(np.full((n, p), entry), scale, np.ones(n))
        assert_every_consumer_raises(g)


@st.composite
def hostile_instances(draw, dense):
    """(phi, D, alpha) with n <= 4, p <= 5 and scales from 1e-300 to 1e300.

    ``phi`` is independent, near-collinear (every column within 1e-12 to
    1e-4 of one column) or rank-deficient (rank min(n, p) - 1, so zero
    when n or p is 1); ``alpha`` is in the span of ``phi`` or not.  A
    diagonal D has entries spread over 1e-300 to 1e300; a dense D is
    s Q diag(e) Q' for a random rotation Q, e in [1, 1e6] and s from
    1e-300 to 1e300.
    """
    n, p = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["independent", "near_collinear", "rank_deficient"]))
    if kind == "independent":
        phi = gen.standard_normal((n, p))
    elif kind == "near_collinear":
        spread = 10.0 ** -draw(st.floats(4.0, 12.0))
        phi = gen.standard_normal((n, 1)) + spread * gen.standard_normal((n, p))
    else:
        k = min(n, p) - 1
        phi = gen.standard_normal((n, k)) @ gen.standard_normal((k, p))
    alpha = phi @ gen.standard_normal(p) if draw(st.booleans()) else gen.standard_normal(n)
    if dense:
        q, _ = np.linalg.qr(gen.standard_normal((p, p)))
        m = q @ np.diag(10.0 ** gen.uniform(0.0, 6.0, p)) @ q.T
        cov = 10.0 ** draw(st.floats(-300.0, 300.0)) * (m + m.T) / 2.0
    else:
        cov = 10.0 ** np.array(draw(st.lists(st.floats(-300.0, 300.0), min_size=p, max_size=p)))
    return phi, cov, alpha


class TestSamplerFuzz:
    """fast_sample, posterior_mean and log_density on hostile instances.

    Each either raises NotPositiveDefinite or returns a finite draw and
    mean and a density that is not NaN.  Where float64 fixes the answer
    to 1e-10, each also matches its dense oracle to 1e-10.  A draw is
    u + D Phi' w with u at the prior's scale, which the sum cancels down
    to the posterior's, so it loses up to log10 |M|_2 digits for
    M = I + Phi D Phi': draws and means are compared where |M|_2 <= 1e4.
    Densities are compared with the whitened oracle on the same
    instances: with B = Phi L for D = L L', B'B and M - I = BB' share
    their nonzero eigenvalues, so the condition number of I + B'B, which
    bounds the oracle's own error, is at most |M|_2.
    """

    @pytest.mark.parametrize("dense", [False, True])
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(data=st.data())
    def test_matches_oracle_or_raises(self, dense, data):
        phi, cov, alpha = data.draw(hostile_instances(dense))
        g = StructuredGaussian(phi, DenseSpdScale(cov) if dense else DiagonalScale(cov), alpha)
        try:
            draw = fast_sample(g, RngStream(3, 0))
            mu = posterior_mean(g)
            logs = [log_density(g, draw.theta), log_density(g, mu)]
        except NotPositiveDefinite:
            return
        assert np.all(np.isfinite(draw.theta)) and np.all(np.isfinite(mu))
        assert not any(math.isnan(v) for v in logs)
        d = dense_d_matrix(g.scale)
        with np.errstate(over="ignore", invalid="ignore"):  # past the gate below
            m = g.phi @ d @ g.phi.T + np.eye(g.n)
        if not (np.all(np.isfinite(m)) and np.linalg.norm(m, 2) <= 1e4):
            return
        np.testing.assert_allclose(draw.theta, woodbury_theta(g, draw.u, draw.delta),
                                   rtol=1e-10, atol=0.0)
        np.testing.assert_allclose(mu, woodbury_theta(g, np.zeros(g.p), np.zeros(g.n)),
                                   rtol=1e-10, atol=0.0)
        for x, value in zip((draw.theta, mu), logs):
            assert value == pytest.approx(whitened_log_density(g, x), rel=1e-10)


class TestBlockDecomposition:
    @pytest.mark.parametrize("dense", [False, True])
    def test_augmented_covariance_factors(self, dense):
        # Assembling the joint covariance of (v, u) and symmetrically
        # eliminating the v block must leave a block-diagonal matrix
        # whose lower p x p block is Sigma.
        g = random_instance(84, n=4, p=6, dense=dense)
        d = dense_d_matrix(g.scale)
        n, p = g.n, g.p
        pmat = g.phi @ d @ g.phi.T + np.eye(n)
        smat = g.phi @ d
        omega = np.block([[pmat, smat], [smat.T, d]])
        linv = np.block(
            [
                [np.eye(n), np.zeros((n, p))],
                [-smat.T @ np.linalg.inv(pmat), np.eye(p)],
            ]
        )
        gamma = linv @ omega @ linv.T
        sigma, _ = dense_sigma_mu(g)
        scale = np.max(np.abs(gamma))
        assert np.max(np.abs(gamma[:n, n:])) <= 1e-9 * scale
        assert np.max(np.abs(gamma[n:, :n])) <= 1e-9 * scale
        np.testing.assert_allclose(gamma[n:, n:], sigma, rtol=1e-9, atol=1e-12)
