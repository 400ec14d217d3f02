"""Small frequentist coverage study of horseshoe credible intervals.

Runs independent replicates of a sparse-regression design and reports
estimation errors plus coverage of the pointwise 95% intervals, split
into signal and noise coordinates.  Desk-scale version of the kind of
table used to study interval adaptivity.
"""
from fastmvg import ChainConfig, SimDesign, run_replicates

design = SimDesign(n=100, p=250, sigma=1.5, cov_kind="independent",
                   signal_set="strong", sparsity=5, n_replicates=5)
cfg = ChainConfig(n_iter=2000, burn_in=500, seed=2024,
                  fixed_sigma=design.sigma**2)
run = run_replicates(design, cfg)

print(f"{design.n_replicates} replicates of n={design.n}, p={design.p}, "
      f"{design.cov_kind} design, {design.signal_set} signals\n")
print("metric                 mean      se")
for name in ("l1", "l2", "pred", "l2_median", "signal_coverage",
             "noise_coverage", "signal_length_mean", "noise_length_mean"):
    mean, se = run.aggregate[name]
    print(f"{name:20s} {mean:8.4f} {se:7.4f}")

ratio = run.aggregate["noise_length_mean"][0] / run.aggregate["signal_length_mean"][0]
print(f"\nnoise/signal interval length ratio: {ratio:.3f} "
      "(small ratio = intervals adapt to sparsity)")
