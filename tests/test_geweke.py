"""Joint-distribution test of the chain kernel at fixed sigma^2 (Geweke,
"Getting it right: joint distribution tests of posterior simulators",
JASA 2004).

R independent successive-conditional chains each end in an exact prior
draw when the composed kernel, update_lambda then update_tau then
update_beta on update_tau's TauDraw, leaves every posterior invariant.
The sizes, seeds and bound were fixed from the power of the planted bug
below before the shipped kernel was run: at R = 1500 the bug's smallest
p-value per design, over three stream seeds, was 5e-10 to 2e-17 at
6 x 4 and 3e-7 to 6e-5 at 4 x 8.  The bound is applied to each of the
six p-values, so a correct kernel fails with probability at most 0.6%.
"""
import numpy as np
import pytest

from fastmvg import ChainConfig, RegressionData, RngStream, run_chain
from fastmvg.structured import factor_identity_plus

from conftest import chain_iteration, geweke_final_states, geweke_pvalues

CHAINS = 1500
SWEEPS = 10
SIGMA2 = 2.25
P_BOUND = 1e-3

# (n, p, design seed, stream seed): one design with p < n, one with p > n.
DESIGNS = [pytest.param(6, 4, 1, 11, id="6x4"), pytest.param(4, 8, 2, 12, id="4x8")]


def design(n, p, seed):
    return np.random.default_rng(seed).standard_normal((n, p))


def stale_factor(data, tau, step):
    """The planted bug: beta drawn on M's factor at the tau before the step."""
    b = data.x * (tau * step.lam)
    return step._replace(factor=factor_identity_plus(b @ b.T))


@pytest.mark.parametrize("n, p, design_seed, seed", DESIGNS)
def test_chain_kernel_keeps_the_prior(n, p, design_seed, seed):
    states = geweke_final_states(design(n, p, design_seed), SIGMA2, CHAINS, SWEEPS, seed)
    pvalues = geweke_pvalues(states, SIGMA2)
    assert min(pvalues.values()) >= P_BOUND, pvalues


@pytest.mark.parametrize("n, p, design_seed, seed", DESIGNS)
def test_stale_factor_fails_the_check(n, p, design_seed, seed):
    states = geweke_final_states(design(n, p, design_seed), SIGMA2, CHAINS, SWEEPS, seed,
                                 handoff=stale_factor)
    pvalues = geweke_pvalues(states, SIGMA2)
    assert min(pvalues.values()) < P_BOUND, pvalues


def test_chain_iteration_is_run_chains_loop():
    # The harness checks the shipped loop, not a copy of it: chain_iteration
    # from run_chain's start state gives a fixed_sigma fit's draws bit for bit.
    gen = np.random.default_rng(5)
    x = gen.standard_normal((8, 12))
    data = RegressionData(x, x[:, :2].sum(axis=1) + gen.standard_normal(8))
    cfg = ChainConfig(n_iter=40, burn_in=0, seed=9, fixed_sigma=SIGMA2)
    fit = run_chain(data, cfg)
    rng = RngStream(cfg.seed, stream_id=0)
    beta, lam, tau = np.zeros(data.p), np.ones(data.p), 1.0
    for i in range(cfg.n_iter):
        beta, lam, tau = chain_iteration(data, beta, lam, tau, SIGMA2, rng)
        assert np.array_equal(beta, fit.draws[i])
        assert tau == fit.scale_draws[i, 0]
