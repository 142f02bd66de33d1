"""How volatility clustering stretches the KS and CM null distributions.

An AR(1) log-volatility model with g = 0.88 and innovation variance 0.05
has a short memory (a couple of weeks in daily units), yet its
goodness-of-fit statistics are far larger than the textbook iid laws
allow.  This script builds both kernels, simulates both pairs of laws
from one set of normals (common random numbers, so the ratio of their
quantiles is not blurred by two independent draws), and prints the
quantile tables plus the effective sample-size reduction.
"""

import numpy as np

from depgof import (
    Ar1LogVolParams,
    QuantileGrid,
    brownian_bridge_kernel,
    build_kernel_ar1,
    cm_moments,
    eigendecompose,
    reduction_ratio,
    simulate_statistic_distribution,
)

grid = QuantileGrid(100)
params = Ar1LogVolParams(g=0.88, sigma2=0.05)

iid_kernel = brownian_bridge_kernel(grid)
dep_kernel = build_kernel_ar1(params, grid)

print("kernel moments (mean, variance of the CM statistic):")
print("  iid      :", tuple(round(v, 5) for v in cm_moments(iid_kernel)))
print("  dependent:", tuple(round(v, 5) for v in cm_moments(dep_kernel)))

iid_spec = eigendecompose(iid_kernel)
dep_spec = eigendecompose(dep_kernel)
print("\ntop five eigenvalues:")
print("  iid      :", np.round(iid_spec.eigenvalues[:5], 5))
print("  dependent:", np.round(dep_spec.eigenvalues[:5], 5))

n_trials = 200_000
(iid_ks, iid_cm), (dep_ks, dep_cm) = simulate_statistic_distribution(
    (iid_spec, dep_spec), n_trials, seed=1)

print(f"\nnull-law quantiles ({n_trials} trials):")
print("level    KS iid  KS dep   CM iid  CM dep")
for level in (0.5, 0.9, 0.95, 0.99):
    ks_i, ks_d, cm_i, cm_d = (np.quantile(law.samples, level)
                              for law in (iid_ks, dep_ks, iid_cm, dep_cm))
    print(f"{level:5.2f}   {ks_i:6.3f}  {ks_d:6.3f}   {cm_i:6.3f}  {cm_d:6.3f}")

print("\neffective sample-size reduction sqrt(N/N_eff) at the 95th centile:")
print(f"  KS: {reduction_ratio(dep_ks, iid_ks, 0.95):.3f}")
print(f"  CM: {reduction_ratio(dep_cm, iid_cm, 0.95):.3f}")
print("\na value r means the test behaves as if only N/r^2 of the N points")
print("were independent; critical values must be inflated accordingly.")
