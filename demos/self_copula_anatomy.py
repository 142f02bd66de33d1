"""Reading temporal dependence off the lagged self-copula.

The self-copula of a series at lag t is the copula of (X_n, X_{n+t}).
Its deviation from the product copula decomposes, for weakly dependent
log-normal volatility models, into three basis shapes: volatility
clustering (alpha), leverage (beta) and residual autocorrelation (rho).
This script estimates self-copulas from a simulated panel, fits the
coefficients per lag, and summarizes the memory structure.
"""

import math

import numpy as np

from depgof import (
    Ar1LogVolParams,
    QuantileGrid,
    ar1_alpha,
    blomqvist_rho,
    delta_diagonal,
    fit_lag_coefficients,
    fit_multifractal,
    gen_ar1_logvol,
    get_basis,
    lag_surfaces,
)

grid = QuantileGrid(50)
params = Ar1LogVolParams(g=0.88, sigma2=0.05)
basis = get_basis(math.sqrt(params.stationary_var))

# one series per row: the generator returns one column per seed
panel = gen_ar1_logvol(params, 2500, [np.random.SeedSequence(entropy=4, spawn_key=(j,))
                                      for j in range(80)]).T

print("lag   alpha_fit  alpha_true  blomqvist_rho  Delta(0.92,0.92)")
coeffs = []
surfaces = lag_surfaces(panel, 32, grid)   # lags 1..32 in one sweep
for t in (1, 2, 4, 8, 16, 32):
    surf = surfaces[t - 1]
    fit, _ = fit_lag_coefficients(surf, basis=basis)
    coeffs.append(fit)
    u_tail = grid.points[-5]
    print(f"{t:3d}   {fit.alpha:9.4f}  {ar1_alpha(params, t):10.4f}"
          f"  {blomqvist_rho(surf):13.4f}  {delta_diagonal(surf, u_tail):12.4f}")

print("\nthe fitted alpha_t tracks the analytic log-vol autocovariance;")
print("rho stays near zero (no linear memory) while the positive diagonal")
print("excess Delta shows volatility clustering at work.")

mf = fit_multifractal(coeffs)
print(f"\nlogarithmic-decay fit: alpha_t = -S2 log(t/T) with "
      f"S2 = {mf.sigma2:.4f}, T = {mf.horizon_t:.0f} lags"
      f" (rms {mf.residual:.5f})")
print("an AR(1) is not multifractal, so treat this as the standard summary")
print("statistic one would also report for real data.")
