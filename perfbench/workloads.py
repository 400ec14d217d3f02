"""The benchmark's workloads, each a closed loop with one client.

A workload builds its inputs in ``setup``, hands the client-side input
of one operation out of ``next_input`` (untimed), runs the operation in
``op`` (timed; this is the only code that may be traced) and checks its
output in ``check`` (untimed, untraced).  Every call into fastmvg goes
through a module or class attribute looked up at call time, so a traced
run can swap it.

chain_wide and chain_narrow run a chain on fixed inputs: the design is
drawn from DATA_SEED and the chain uses CHAIN_SEED, whatever the
``--seed``.  Their effective sample sizes are then a deterministic
function of the code, repeat exactly from run to run and seed to seed,
and the spread of ESS per second is the timing spread alone.  With
seeded chains it would not be: at p = 500 and 10k kept draws the ESS of
tau ranges from 14 to 40 over four seeds.  sample_request draws all of
its inputs from ``--seed``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import fastmvg.experiments as experiments
import fastmvg.horseshoe as horseshoe
import fastmvg.structured as structured
from fastmvg.rng import RngStream

from checks import check_chain, check_draws, check_log_density, check_posterior_mean
from ess import ess

DATA_SEED = 1506
CHAIN_SEED = 4778


def fast_sample_flops(n: int, p: int) -> float:
    """Computed flops of one fast_sample draw: 2n^2 p + 5np + n^3/3."""
    return 2.0 * n * n * p + 5.0 * n * p + n**3 / 3.0


@dataclass
class ChainWorkload:
    """Short fits, timed, and one long fit whose draws give the ESS.

    An operation is one short fit: run_chain for ``fit_iter`` iterations,
    then compute_metrics on its draws.  Many short fits give a median
    time per iteration that short bursts of machine noise move little.  After the timed
    loop, ``reference_pass`` runs one chain of ``ess_iter`` iterations on
    the same inputs; ESS per second is its ESS per iteration divided by
    the median time per iteration.  The design comes from gen_design in
    ``setup``, as input generation.
    """

    name: str
    design: experiments.SimDesign
    fit_iter: int
    ess_iter: int
    warm_iter: int = 20
    min_ops: int = 3
    unit = "iteration"

    @property
    def n(self) -> int:
        return self.design.n

    @property
    def p(self) -> int:
        return self.design.p

    @property
    def units_per_op(self) -> int:
        return self.fit_iter

    def setup(self, seed: int) -> None:
        # Inputs are fixed (see the module docstring); seed is unused.
        self.first = None  # the first timed fit's result, to compare the others to
        self.ess_result = None
        self.x, self.beta0, self.y = experiments.gen_design(self.design, RngStream(DATA_SEED, 1))
        self.op(self._config(self.warm_iter))

    def _config(self, n_iter: int) -> horseshoe.ChainConfig:
        return horseshoe.ChainConfig(n_iter=n_iter, burn_in=n_iter // 10, seed=CHAIN_SEED)

    def next_input(self):
        return self._config(self.fit_iter)

    def op(self, cfg):
        result = horseshoe.run_chain(horseshoe.RegressionData(self.x, self.y), cfg)
        experiments.compute_metrics(result, self.beta0, self.x)
        return result

    def check(self, cfg, result) -> str | None:
        if not (np.all(np.isfinite(result.draws)) and np.all(np.isfinite(result.scale_draws))):
            return "chain produced non-finite draws"
        if self.first is None:
            self.first = result
        elif not (np.array_equal(result.draws, self.first.draws)
                  and np.array_equal(result.scale_draws, self.first.scale_draws)):
            return "chain on identical inputs gave different draws"
        return None

    def reference_pass(self) -> str | None:
        """The long chain for ESS, untimed; an error message if it fails its check."""
        result = self.op(self._config(self.ess_iter))
        err = check_chain(result.draws, result.scale_draws, self.beta0)
        if err is None:
            self.ess_result = result
        return err

    def ess_per_iter(self) -> dict[str, float]:
        r = self.ess_result
        kept = r.draws.shape[0]
        signal = np.flatnonzero(self.beta0)
        return {
            "tau": ess(r.scale_draws[:, 0]) / kept,
            "sigma2": ess(r.scale_draws[:, 1]) / kept,
            "beta_min": min(ess(r.draws[:, j]) for j in signal) / kept,
        }

    def end_to_end(self, walls: list[float]) -> tuple[dict, dict]:
        """End-to-end metrics and the workload's own report."""
        per_iter = np.array(walls) / self.fit_iter
        med = float(np.median(per_iter))
        e = self.ess_per_iter()
        kept = self.ess_result.draws.shape[0]
        metrics = {
            "ess_min_per_s": min(e.values()) / med,
            "op_p50_ms": 1e3 * med,
            "op_p90_ms": 1e3 * float(np.quantile(per_iter, 0.9)),
        }
        report = {
            "chain_iters_per_s": [1.0 / med, "1/s"],
            "ess_tau_per_s": [e["tau"] / med, "1/s"],
            "ess_sigma2_per_s": [e["sigma2"] / med, "1/s"],
            "ess_beta_min_per_s": [e["beta_min"] / med, "1/s"],
            "ess_tau": [e["tau"] * kept, "count"],
            "ess_sigma2": [e["sigma2"] * kept, "count"],
            "ess_beta_min": [e["beta_min"] * kept, "count"],
            "ess_kept_draws": [kept, "count"],
            "fits": [per_iter.size, "count"],
        }
        return metrics, report

    def per_layer_extra(self) -> dict[str, float]:
        e = self.ess_per_iter()
        return {
            "horseshoe.ess_tau_per_kiter": 1e3 * e["tau"],
            "horseshoe.ess_sigma2_per_kiter": 1e3 * e["sigma2"],
            "horseshoe.ess_beta_min_per_kiter": 1e3 * e["beta_min"],
        }


@dataclass
class RequestInput:
    d: np.ndarray
    alpha: np.ndarray


@dataclass
class SampleRequestWorkload:
    """Fixed Phi; each request brings a new diagonal D and alpha.

    One request: construct the instance, posterior_mean, ``draws``
    fast_sample draws, and log_density at each draw.
    """

    name: str = "sample_request"
    n: int = 100
    p: int = 5000
    draws: int = 32
    min_ops: int = 100
    unit = "request"
    units_per_op = 1

    def setup(self, seed: int) -> None:
        gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
        self.phi = gen.standard_normal((self.n, self.p))
        self._inputs = np.random.Generator(np.random.Philox(key=[seed, 1]))
        self._rng = RngStream(seed, stream_id=2)
        self.op(self.next_input())

    def next_input(self) -> RequestInput:
        gen = self._inputs
        return RequestInput(d=np.exp(gen.standard_normal(self.p)),
                            alpha=gen.standard_normal(self.n))

    def op(self, inp: RequestInput):
        g = structured.StructuredGaussian(self.phi, structured.DiagonalScale(inp.d), inp.alpha)
        mu = structured.posterior_mean(g)
        thetas = [structured.fast_sample(g, self._rng).theta for _ in range(self.draws)]
        logs = [structured.log_density(g, t) for t in thetas]
        return g, mu, thetas, logs

    def check(self, inp: RequestInput, out) -> str | None:
        g, mu, thetas, logs = out
        if not (np.all(np.isfinite(mu)) and all(np.all(np.isfinite(t)) for t in thetas)):
            return "non-finite mean or draw"
        return (check_posterior_mean(self.phi, inp.d, inp.alpha, mu)
                or check_log_density(self.phi, inp.d, mu, thetas,
                                     structured.log_density(g, mu), logs)
                or check_draws(self.phi, inp.d, mu, thetas))


    def end_to_end(self, walls: list[float]) -> tuple[dict, dict]:
        w = np.array(walls)
        p50 = 1e3 * float(np.median(w))
        p90 = 1e3 * float(np.quantile(w, 0.9))
        metrics = {
            # Exact draws are independent, so their ESS is their count.
            "ess_min_per_s": 1e3 * self.draws / p50,
            "op_p50_ms": p50,
            "op_p90_ms": p90,
        }
        report = {
            "request_p50_ms": [p50, "ms"],
            "request_p90_ms": [p90, "ms"],
            "requests": [w.size, "count"],
        }
        return metrics, report

    def per_layer_extra(self) -> dict[str, float]:
        return {}


WORKLOADS = {
    "chain_wide": lambda: ChainWorkload(
        "chain_wide",
        experiments.SimDesign(n=100, p=5000, cov_kind="independent", signal_set="strong"),
        fit_iter=50, ess_iter=1500),
    "chain_narrow": lambda: ChainWorkload(
        "chain_narrow",
        experiments.SimDesign(n=100, p=500, cov_kind="toeplitz", signal_set="strong"),
        fit_iter=500, ess_iter=10000),
    "sample_request": SampleRequestWorkload,
}
