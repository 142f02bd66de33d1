"""P-values of a correctly specified model are only uniform with the right law.

Each replication draws an AR(1) log-volatility series whose marginal is
known exactly, then tests that marginal.  Against the iid limit laws the
p-values collapse towards zero (the test rejects its own model); against
the dependence-corrected laws they spread uniformly.  Histogram counts
are printed for both, together with a uniformity test of the p-values.
"""

import math

import numpy as np

from depgof import (
    Ar1LogVolParams,
    QuantileGrid,
    brownian_bridge_kernel,
    build_kernel_ar1,
    eigendecompose,
    gen_ar1_logvol,
    run_gof_test,
    simulate_statistic_distribution,
    uniformity_pvalue,
    vol_model_quantiles,
)

grid = QuantileGrid(100)
params = Ar1LogVolParams(g=0.88, sigma2=0.05)
s = math.sqrt(params.stationary_var)
replications, n = 200, 2500
q = vol_model_quantiles(grid, s)

corr = eigendecompose(build_kernel_ar1(params, grid))
iid = eigendecompose(brownian_bridge_kernel(grid))
corr_ks, corr_cm = simulate_statistic_distribution(corr, 100_000, seed=11)
iid_ks, iid_cm = simulate_statistic_distribution(iid, 100_000, seed=12)

panel = gen_ar1_logvol(params, n, [np.random.SeedSequence(entropy=3, spawn_key=(r,))
                                   for r in range(replications)])
p_iid, p_corr = [], []
for x in panel.T:
    p_iid.append(run_gof_test(x, q, iid_ks, iid_cm).cm_p)
    p_corr.append(run_gof_test(x, q, corr_ks, corr_cm).cm_p)

edges = np.linspace(0, 1, 11)
hist_iid, _ = np.histogram(p_iid, bins=edges)
hist_corr, _ = np.histogram(p_corr, bins=edges)
print(f"CM p-value histograms over {replications} replications (bin width 0.1):")
print("bin       " + "  ".join(f"{lo:.1f}" for lo in edges[:-1]))
print("iid law   " + "  ".join(f"{c:3d}" for c in hist_iid))
print("corrected " + "  ".join(f"{c:3d}" for c in hist_corr))
print(f"\nuniformity test p-value, iid law      : {uniformity_pvalue(p_iid):.2e}")
print(f"uniformity test p-value, corrected law: {uniformity_pvalue(p_corr):.3f}")
print("\nthe iid law crams everything into the leftmost bins; the corrected")
print("law restores the uniform spread a true null must produce.")
