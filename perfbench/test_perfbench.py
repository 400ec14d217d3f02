"""Tests of the benchmark's own code: run with ``python -m pytest perfbench``."""
from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import pinning  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from ess import ess, integrated_time  # noqa: E402
from fastmvg import DiagonalScale, RngStream, StructuredGaussian  # noqa: E402
from fastmvg import fast_sample, log_density, posterior_mean  # noqa: E402
import fastmvg.structured as structured  # noqa: E402


def _ar1(phi: float, n: int, seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    e = gen.standard_normal(n) * np.sqrt(1.0 - phi * phi)
    x = np.empty(n)
    x[0] = gen.standard_normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + e[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ess_matches_ar1_integrated_time(phi):
    tau = (1.0 + phi) / (1.0 - phi)
    x = _ar1(phi, 200_000, seed=7)
    assert integrated_time(x) == pytest.approx(tau, rel=0.08)
    assert ess(x) == pytest.approx(x.size / tau, rel=0.08)


def test_ess_rejects_constant_and_short_series():
    with pytest.raises(ValueError):
        ess(np.ones(100))
    with pytest.raises(ValueError):
        ess(np.arange(3.0))


def _instance(seed=3, n=20, p=300):
    gen = np.random.default_rng(seed)
    phi = gen.standard_normal((n, p))
    d = np.exp(gen.standard_normal(p))
    alpha = gen.standard_normal(n)
    return phi, d, alpha, StructuredGaussian(phi, DiagonalScale(d), alpha)


def test_checks_pass_on_exact_sampler_outputs():
    phi, d, alpha, g = _instance()
    mu = posterior_mean(g)
    rng = RngStream(11)
    thetas = [fast_sample(g, rng).theta for _ in range(32)]
    logs = [log_density(g, t) for t in thetas]
    assert checks.check_posterior_mean(phi, d, alpha, mu) is None
    assert checks.check_log_density(phi, d, mu, thetas, log_density(g, mu), logs) is None
    assert checks.check_draws(phi, d, mu, thetas) is None


def test_checks_catch_wrong_outputs():
    phi, d, alpha, g = _instance()
    mu = posterior_mean(g)
    rng = RngStream(11)
    thetas = [fast_sample(g, rng).theta for _ in range(32)]
    # A sampler whose draws are spread 1.1 times too wide fails the chi^2 band.
    wide = [mu + 1.1 * (t - mu) for t in thetas]
    assert checks.check_draws(phi, d, mu, wide) is not None
    assert checks.check_posterior_mean(phi, d, alpha, mu * (1 + 1e-6)) is not None
    logs = [log_density(g, t) for t in thetas]
    assert checks.check_log_density(phi, d, mu, thetas, log_density(g, mu) + 1e-3, logs) is not None


def test_chain_check_catches_sign_flip_and_nan():
    beta0 = np.array([0.0, 2.0, -1.5, 0.0])
    draws = np.tile(beta0, (50, 1)) + 0.01
    scales = np.ones((50, 2))
    assert checks.check_chain(draws, scales, beta0) is None
    assert checks.check_chain(-draws, scales, beta0) is not None
    bad = draws.copy()
    bad[3, 0] = np.nan
    assert checks.check_chain(bad, scales, beta0) is not None


class _FakeBlas:
    def __init__(self, readback):
        self.name, self.path, self.readback = "fake", "/nonexistent", readback

    def set_threads(self, n):
        pass

    def get_threads(self):
        return self.readback

    def config(self):
        return "fake"


def test_pin_refuses_a_readback_that_differs():
    assert pinning.pin_threads([_FakeBlas(1)], 1)[0]["readback_threads"] == 1
    with pytest.raises(pinning.BlasPinError):
        pinning.pin_threads([_FakeBlas(1), _FakeBlas(2)], 1)


def test_run_refuses_to_report_when_pin_does_not_hold(monkeypatch, capsys):
    monkeypatch.setattr(pinning, "bundled_openblas", lambda: [_FakeBlas(4)])
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "chain_narrow", "--seed", "1", "--seconds", "1"])
    assert exc.value.code != 0
    assert "correct" not in capsys.readouterr().out


def test_real_pin_reads_back_the_request():
    libs = pinning.bundled_openblas()
    before = [lib.get_threads() for lib in libs]
    try:
        records = pinning.pin_threads(libs, 1)
    finally:
        for lib, n in zip(libs, before):
            lib.set_threads(n)
    assert [r["readback_threads"] for r in records] == [1, 1]


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["root", 0.0, 10.0, -1, 1], ["a", 1.0, 4.0, 0, 1],
               ["b", 2.0, 3.0, 1, 1], ["a", 5.0, 9.0, 0, 1]]
    s = t.summary()
    assert s["root"]["self_s"] == pytest.approx(3.0)
    assert s["a"]["self_s"] == pytest.approx(6.0)
    assert s["a"]["calls"] == 2
    assert sum(v["self_s"] for v in s.values()) == pytest.approx(10.0)


def test_instrumented_nests_spans_and_restores_attributes():
    original = structured.cholesky
    _, _, _, g = _instance()
    t = tracing.Tracer()
    with tracing.instrumented(t):
        assert structured.cholesky is not original
        t.active = True
        structured.fast_sample(g, RngStream(1))
        t.active = False
    assert structured.cholesky is original
    names = {rec[0]: i for i, rec in enumerate(t.spans)}
    parent = {rec[0]: rec[3] for rec in t.spans}
    assert parent["structured.fast_sample"] == -1
    assert parent["linalg.cholesky"] == names["structured.fast_sample"]
    assert t.counts["rng.standard_normal"] == g.p + g.n
