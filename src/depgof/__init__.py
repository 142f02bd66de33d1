"""Goodness-of-fit tests that remain valid for dependent observations.

The classical Kolmogorov-Smirnov and Cramer-von Mises limit laws assume
independent draws.  For a stationary but dependent series the empirical
bridge keeps a Gaussian limit, but its covariance kernel picks up a
copula-dependent factor; simulating the statistics from that kernel's
spectrum restores correct p-values.  The package estimates lagged
self-copulas non-parametrically, builds and diagonalizes the corrected
kernel, simulates the limit laws, and runs the tests.
"""

from .copulas import (
    CopulaSurface,
    PsiSurface,
    average_self_copula,
    blomqvist_rho,
    delta_diagonal,
    empirical_copula,
    frechet_bounds,
    psi_accumulate,
    rank_panel,
)
from .errors import ConfigError, DataError, DepgofError, NumericalError, ParameterError
from .grid import QuantileGrid
from .kernels import (
    KernelMatrix,
    PerturbativeInputs,
    Spectrum,
    brownian_bridge_kernel,
    build_kernel_ar1,
    build_kernel_fgn,
    build_kernel_from_psi,
    build_kernel_pseudo_elliptical,
    cm_corrected_cdf,
    cm_density_correction,
    cm_moments,
    eigendecompose,
    perturbative_spectrum,
)
from .limit_law import (
    GofResult,
    StatisticDistribution,
    p_value,
    reduction_ratio,
    run_gof_test,
    run_gof_tests,
    simulate_iid_statistic_distribution,
    simulate_statistic_distribution,
    uniformity_pvalue,
)
from .lognormal import (
    LagCoefficients,
    LogNormalVolBasis,
    MultifractalFit,
    expansion_surface,
    fit_lag_coefficients,
    fit_multifractal,
    get_basis,
    vol_model_cdf,
    vol_model_quantiles,
)
from .runner import (
    PanelData,
    PipelineConfig,
    ingest_csv,
    load_config,
    parse_config_text,
    reproduce,
    run_pipeline,
    standardize,
)
from .sampling import (
    Ar1LogVolParams,
    FgnLogVolParams,
    StochasticVolParams,
    ar1_alpha,
    calibrate_volvol,
    fgn_alpha,
    gen_ar1_logvol,
    gen_fgn_logvol,
    gen_iid_lognormal_vol,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
