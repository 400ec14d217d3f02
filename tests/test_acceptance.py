"""Acceptance suite.

One test per acceptance criterion; each prints a single
``ACCEPTANCE <k> ...: PASS`` line with the measured margin when it
succeeds (run pytest with -s to see them inline).

 1. deterministic exactness of the fast sampler vs the dense oracle
 2. distributional correctness (moments + Mahalanobis calibration)
 3. fast/baseline distributional equivalence
 4. augmentation identities (block decomposition, cross-covariance)
 5. complexity scaling slopes and speedup
 6. log-density vs dense evaluation
 7. scale-update one-transition stationarity (lambda slice, tau Metropolis)
 8. horseshoe coverage study at desk scale
 9. CLI reproducibility with fixed seeds
"""
import numpy as np
import pytest
from scipy.stats import chi2

from fastmvg import (
    ChainConfig,
    RngStream,
    SimDesign,
    STRONG_SIGNALS,
    baseline_sample,
    fast_sample,
    log_density,
    run_bench,
    run_replicates,
)
from fastmvg.cli import main

from conftest import (
    OneColumnXiTarget,
    QueuedStream,
    dense_d_matrix,
    dense_log_density,
    dense_sigma_mu,
    ks_statistic,
    quadrature_cdf,
    random_instance,
    rejection_sample,
    woodbury_theta,
)

N_DRAWS = 200_000


@pytest.fixture(scope="module")
def pooled_draws(small_instance):
    """2e5 fast_sample draws from the fixed n=3, p=8 instance."""
    g = small_instance
    rng = RngStream(314159, 0)
    theta = np.empty((N_DRAWS, g.p))
    u = np.empty((N_DRAWS, g.p))
    v = np.empty((N_DRAWS, g.n))
    for i in range(N_DRAWS):
        draw = fast_sample(g, rng)
        theta[i] = draw.theta
        u[i] = draw.u
        v[i] = draw.v
    return theta, u, v


def test_c1_deterministic_exactness():
    gen = np.random.default_rng(101)
    worst = 0.0
    for k in range(50):
        n = int(gen.integers(1, 21))
        p = int(gen.integers(1, 51))
        g = random_instance(int(gen.integers(1 << 30)), n=n, p=p, dense=(k % 2 == 1))
        stub = QueuedStream(
            normals=[gen.standard_normal(p), gen.standard_normal(n)]
        )
        draw = fast_sample(g, stub)
        expected = woodbury_theta(g, draw.u, draw.delta)
        denom = max(np.max(np.abs(expected)), 1.0)
        rel = np.max(np.abs(draw.theta - expected)) / denom
        assert rel <= 1e-10, f"instance {k} (n={n}, p={p}): rel err {rel:.3e}"
        worst = max(worst, rel)
    print(f"\nACCEPTANCE 1 (deterministic exactness): PASS - "
          f"max rel err {worst:.2e} over 50 instances")


def test_c2_distributional_correctness(small_instance, pooled_draws):
    g = small_instance
    theta, _, _ = pooled_draws
    sigma, mu = dense_sigma_mu(g)
    var = np.diagonal(sigma)

    mean_se = np.sqrt(var / N_DRAWS)
    mean_err = np.abs(theta.mean(axis=0) - mu)
    assert np.all(mean_err < 4 * mean_se), "posterior mean outside 4 SE"

    cov = np.cov(theta.T)
    cov_se = np.sqrt((np.outer(var, var) + sigma**2) / N_DRAWS)
    cov_err = np.abs(cov - sigma)
    assert np.all(cov_err < 4 * cov_se), "covariance entry outside 4 SE"

    centered = theta[:100_000] - mu
    maha = np.einsum("ij,ij->i", centered @ np.linalg.inv(sigma), centered)
    grid = np.linspace(0.0, chi2(df=g.p).ppf(1 - 1e-12), 200_001)
    ks = ks_statistic(maha, grid, chi2(df=g.p).cdf(grid))
    assert ks < 0.01, f"Mahalanobis KS {ks:.4f} >= 0.01"
    print(f"\nACCEPTANCE 2 (distributional correctness): PASS - "
          f"max mean z {np.max(mean_err / mean_se):.2f}, "
          f"max cov z {np.max(cov_err / cov_se):.2f}, KS {ks:.4f}")


def test_c3_fast_baseline_equivalence(small_instance, pooled_draws):
    g = small_instance
    theta_fast, _, _ = pooled_draws
    sigma, _ = dense_sigma_mu(g)
    var = np.diagonal(sigma)
    rng = RngStream(271828, 0)
    theta_base = np.empty((N_DRAWS, g.p))
    for i in range(N_DRAWS):
        theta_base[i] = baseline_sample(g, rng)

    pooled_mean_se = np.sqrt(2 * var / N_DRAWS)
    mean_diff = np.abs(theta_fast.mean(axis=0) - theta_base.mean(axis=0))
    assert np.all(mean_diff < 4 * pooled_mean_se), "mean difference outside 4 pooled SE"

    pooled_cov_se = np.sqrt(2 * (np.outer(var, var) + sigma**2) / N_DRAWS)
    cov_diff = np.abs(np.cov(theta_fast.T) - np.cov(theta_base.T))
    assert np.all(cov_diff < 4 * pooled_cov_se), "cov difference outside 4 pooled SE"
    print(f"\nACCEPTANCE 3 (fast/baseline equivalence): PASS - "
          f"max mean z {np.max(mean_diff / pooled_mean_se):.2f}, "
          f"max cov z {np.max(cov_diff / pooled_cov_se):.2f}")


def test_c4_augmentation_identities(small_instance, pooled_draws):
    # Deterministic block-decomposition identity over random instances.
    gen = np.random.default_rng(404)
    for k in range(10):
        g = random_instance(int(gen.integers(1 << 30)),
                            n=int(gen.integers(2, 8)),
                            p=int(gen.integers(2, 12)),
                            dense=(k % 2 == 1))
        d = dense_d_matrix(g.scale)
        n, p = g.n, g.p
        pmat = g.phi @ d @ g.phi.T + np.eye(n)
        smat = g.phi @ d
        omega = np.block([[pmat, smat], [smat.T, d]])
        linv = np.block([
            [np.eye(n), np.zeros((n, p))],
            [-smat.T @ np.linalg.inv(pmat), np.eye(p)],
        ])
        gamma = linv @ omega @ linv.T
        sigma, _ = dense_sigma_mu(g)
        scale = np.max(np.abs(gamma))
        assert np.max(np.abs(gamma[:n, n:])) <= 1e-9 * scale
        np.testing.assert_allclose(gamma[n:, n:], sigma, rtol=1e-9, atol=1e-11)

    # Empirical cross-covariance of the augmentation variables.
    g = small_instance
    _, u, v = pooled_draws
    d = dense_d_matrix(g.scale)
    target = d @ g.phi.T  # cov(u, v), p x n
    pmat = g.phi @ d @ g.phi.T + np.eye(g.n)
    uc = u - u.mean(axis=0)
    vc = v - v.mean(axis=0)
    emp = uc.T @ vc / (N_DRAWS - 1)
    se = np.sqrt((np.outer(np.diagonal(d), np.diagonal(pmat)) + target**2) / N_DRAWS)
    err = np.abs(emp - target)
    assert np.all(err < 4 * se), "cov(u, v) entry outside 4 SE"

    # cov(v) must match the coupling system matrix Phi D Phi' + I.
    emp_v = np.cov(v.T)
    pv = np.diagonal(pmat)
    se_v = np.sqrt((np.outer(pv, pv) + pmat**2) / N_DRAWS)
    err_v = np.abs(emp_v - pmat)
    assert np.all(err_v < 4 * se_v), "cov(v) entry outside 4 SE"
    print(f"\nACCEPTANCE 4 (augmentation identities): PASS - "
          f"max cov(u,v) z {np.max(err / se):.2f}, "
          f"max cov(v) z {np.max(err_v / se_v):.2f}")


def test_c5_complexity_scaling():
    p_grid = [250, 500, 1000, 2000]
    result = run_bench([50], p_grid, repetitions=5, seed=5)
    fast_slope = result.slopes[("fast", 50)]
    base_slope = result.slopes[("baseline", 50)]
    speedup = (result.median_seconds("baseline", 50, 2000)
               / result.median_seconds("fast", 50, 2000))
    assert 0.8 <= fast_slope <= 1.5, f"fast slope {fast_slope:.3f} outside [0.8, 1.5]"
    assert 2.5 <= base_slope <= 3.5, f"baseline slope {base_slope:.3f} outside [2.5, 3.5]"
    assert speedup >= 10.0, f"speedup {speedup:.1f}x below 10x"
    print(f"\nACCEPTANCE 5 (complexity scaling): PASS - fast slope {fast_slope:.2f}, "
          f"baseline slope {base_slope:.2f}, speedup {speedup:.0f}x at p=2000")


def test_c6_log_density():
    gen = np.random.default_rng(606)
    worst = 0.0
    for k in range(50):
        n = int(gen.integers(1, 8))
        p = int(gen.integers(1, 15))
        g = random_instance(int(gen.integers(1 << 30)), n=n, p=p, dense=(k % 2 == 1))
        x = gen.standard_normal(p)
        got = log_density(g, x)
        expected = dense_log_density(g, x)
        err = abs(got - expected)
        assert err <= 1e-8, f"instance {k}: abs err {err:.3e}"
        worst = max(worst, err)
    print(f"\nACCEPTANCE 6 (log-density): PASS - max abs err {worst:.2e} over 50 instances")


def test_c7_slice_stationarity():
    from fastmvg import RegressionData, update_lambda, update_tau

    n_states = 100_000
    gen = np.random.default_rng(707)

    # Local scales (slice): m_j = 1 target exp(-eta) / (1 + eta).
    eta0 = rejection_sample(
        gen, n_states,
        propose=lambda g, k: g.exponential(1.0, size=k),
        accept_prob=lambda c: 1.0 / (1.0 + c),
    )
    beta = np.full(n_states, np.sqrt(2.0))
    eta1 = 1.0 / update_lambda(beta, 1.0 / np.sqrt(eta0), 1.0, 1.0, RngStream(708, 0)) ** 2
    grid_l, cdf_l = quadrature_cdf(lambda t: -t - np.log1p(t), hi=50.0)
    ks_lambda = ks_statistic(eta1, grid_l, cdf_l)
    assert ks_lambda < 0.01, f"lambda KS {ks_lambda:.4f}"

    # Global scale (Metropolis, beta and sigma^2 integrated out): the
    # fixed problem n = 2, p = 1, lam = 1, target in closed form.
    x, y = np.array([1.0, 0.5]), np.array([1.0, -0.3])
    target = OneColumnXiTarget(x, y)
    xi0 = target.sample(gen, n_states)
    data = RegressionData(x[:, None], y)
    rng = RngStream(709, 0)
    one = np.ones(1)
    xi1 = np.array([update_tau(data, one, 1.0 / np.sqrt(xi), rng).tau ** -2.0 for xi in xi0])
    grid_t, cdf_t = quadrature_cdf(target.log_density_log_xi, lo=-40.0, hi=40.0)
    ks_tau = ks_statistic(np.log(xi1), grid_t, cdf_t)
    assert ks_tau < 0.01, f"tau KS {ks_tau:.4f}"
    print(f"\nACCEPTANCE 7 (scale-update stationarity): PASS - "
          f"lambda KS {ks_lambda:.4f}, tau KS {ks_tau:.4f}")


def test_c8_horseshoe_coverage_desk_scale():
    sigma = 1.5
    design = SimDesign(n=100, p=500, sigma=sigma, cov_kind="independent",
                       signal_set="strong", sparsity=5, n_replicates=10)
    cfg = ChainConfig(n_iter=3000, burn_in=1000, seed=2024,
                      fixed_sigma=sigma**2)
    run = run_replicates(design, cfg)
    assert not run.failures, f"replicates failed: {run.failures}"

    signal_cov = run.aggregate["signal_coverage"][0]
    noise_cov = run.aggregate["noise_coverage"][0]
    noise_len = run.aggregate["noise_length_mean"][0]
    signal_len = run.aggregate["signal_length_mean"][0]
    beta0_norm = float(np.sqrt(np.sum(np.array(STRONG_SIGNALS) ** 2)))
    n_l2_ok = sum(1 for m in run.metrics if m.l2 <= 0.5 * beta0_norm)

    assert signal_cov >= 0.80, f"pooled signal coverage {signal_cov:.3f} < 0.80"
    assert noise_cov >= 0.97, f"pooled noise coverage {noise_cov:.3f} < 0.97"
    assert noise_len <= 0.2 * signal_len, (
        f"noise/signal length ratio {noise_len / signal_len:.3f} > 0.2"
    )
    assert n_l2_ok >= 8, f"l2 criterion met in only {n_l2_ok}/10 replicates"
    print(f"\nACCEPTANCE 8 (horseshoe desk-scale study): PASS - "
          f"signal cov {signal_cov:.2f}, noise cov {noise_cov:.4f}, "
          f"length ratio {noise_len / signal_len:.3f}, l2 ok {n_l2_ok}/10")


def test_c9_cli_reproducibility(tmp_path):
    def run_twice(args, outnames):
        first: dict[str, bytes] = {}
        for tag in ("a", "b"):
            paths = {name: tmp_path / f"{tag}_{name}" for name in outnames}
            argv = [piece.format(**{k: str(v) for k, v in paths.items()})
                    for piece in args]
            assert main(argv) == 0
            for name, path in paths.items():
                data = path.read_bytes()
                assert data.endswith(b"\n")
                if tag == "a":
                    first[name] = data
                else:
                    yield name, first[name], data

    phi = tmp_path / "phi.csv"
    phi.write_text("1,0.5\n0.2,1\n")
    dfile = tmp_path / "d.csv"
    dfile.write_text("1,2\n")
    alpha = tmp_path / "alpha.csv"
    alpha.write_text("1\n-1\n")
    x = tmp_path / "x.csv"
    gen = np.random.default_rng(0)
    xm = gen.standard_normal((20, 10))
    x.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in xm) + "\n")
    y = tmp_path / "y.csv"
    y.write_text("\n".join(f"{v:.17g}" for v in xm[:, 0] * 2.0) + "\n")

    checks = []
    checks += list(run_twice(
        ["sample", str(phi), str(dfile), str(alpha),
         "--draws", "100", "--seed", "9", "--out", "{out}"], ["out"]))
    # fit writes <prefix>_summary.csv and <prefix>_draws.csv
    for tag in ("a", "b"):
        assert main(["fit", str(x), str(y), "--iters", "400", "--burnin", "100",
                     "--seed", "9", "--save-draws",
                     "--out", str(tmp_path / f"fit_{tag}")]) == 0
    for suffix in ("summary", "draws"):
        one = (tmp_path / f"fit_a_{suffix}.csv").read_bytes()
        two = (tmp_path / f"fit_b_{suffix}.csv").read_bytes()
        checks.append((f"fit_{suffix}", one, two))
    checks += list(run_twice(
        ["simulate", "--n", "30", "--p", "20", "--reps", "2",
         "--iters", "200", "--burnin", "50", "--seed", "9", "--out", "{out}"],
        ["out"]))

    for name, one, two in checks:
        assert one == two, f"{name}: outputs differ between runs"

    # bench carries wall-clock payloads, so only its structure (methods,
    # grid, row layout) is required to be stable across runs.
    shapes = []
    for tag in ("a", "b"):
        out = tmp_path / f"bench_{tag}.csv"
        assert main(["bench", "--n-grid", "10", "--p-grid", "50,100",
                     "--reps", "5", "--seed", "9", "--out", str(out)]) == 0
        text = out.read_text()
        assert text.endswith("\n")
        shapes.append([",".join(line.split(",")[:3]) for line in text.splitlines()])
    assert shapes[0] == shapes[1], "bench output structure differs between runs"
    print("\nACCEPTANCE 9 (CLI reproducibility): PASS - "
          "sample/fit/simulate byte-identical, bench structure stable")
