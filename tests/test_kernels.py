import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq
from scipy.special import ndtr, roots_hermite

from depgof import (
    Ar1LogVolParams,
    FgnLogVolParams,
    KernelMatrix,
    LagCoefficients,
    NumericalError,
    ParameterError,
    PerturbativeInputs,
    PsiSurface,
    QuantileGrid,
    brownian_bridge_kernel,
    build_kernel_ar1,
    build_kernel_fgn,
    build_kernel_from_psi,
    build_kernel_pseudo_elliptical,
    cm_corrected_cdf,
    cm_density_correction,
    cm_moments,
    eigendecompose,
    expansion_surface,
    fgn_alpha,
    lag_surfaces,
    perturbative_spectrum,
    psi_accumulate,
)
from depgof.kernels import (
    ar1_psi_coefficient,
    fgn_psi_coefficient,
)
from depgof.lognormal import get_basis
from conftest import cramer_von_mises_series

AR1 = Ar1LogVolParams(g=0.88, sigma2=0.05)


def _bridge_values(grid):
    u = grid.points
    return np.minimum.outer(u, u) - np.outer(u, u)


def _reference_scale_ar1_kernel(grid):
    """I + c A_1 A_1^T: the AR(1) kernel's form with A at the reference scale s = 1."""
    a, _ = get_basis(1.0).tables(grid)
    return grid.bridge() + ar1_psi_coefficient(AR1) * np.outer(a, a)


def test_bridge_and_sine_modes_of_the_grid(grid):
    assert np.array_equal(grid.bridge(), _bridge_values(grid))
    j = np.array([1, 2, 7])
    modes = grid.sine_mode(j)
    assert modes.shape == (grid.m, 3)
    for col, order in enumerate(j):
        assert np.array_equal(modes[:, col], grid.sine_mode(int(order)))
    assert_allclose(grid.sine_mode(3), math.sqrt(2) * np.sin(3 * math.pi * grid.points),
                    atol=1e-15)
    with pytest.raises(ParameterError):
        grid.sine_mode(np.array([2, 0]))


def test_kernel_from_zero_psi_is_bridge(grid):
    psi = PsiSurface(grid=grid, values=np.zeros((100, 100)), t_max=1)
    k = build_kernel_from_psi(psi)
    assert_allclose(np.diagonal(k.values), grid.points * (1 - grid.points), atol=1e-15)
    assert_allclose(k.values, _bridge_values(grid), atol=1e-15)
    # interpolated midpoint variance u(1-u) = 1/4
    mid = 0.5 * (k.values[49, 49] + k.values[50, 50])
    assert abs(mid - 0.25) < 1e-4


def test_kernel_from_constant_psi_scales_spectrum(grid):
    c = 0.35
    psi = PsiSurface(grid=grid, values=np.full((100, 100), c), t_max=1)
    spec = eigendecompose(build_kernel_from_psi(psi))
    base = eigendecompose(brownian_bridge_kernel(grid))
    assert_allclose(spec.eigenvalues, (1 + c) * base.eigenvalues, rtol=1e-12)


def test_ar1_kernel_limits_and_traces(grid):
    assert_allclose(ar1_psi_coefficient(AR1), 3.2506, atol=1e-4)
    no_mem = build_kernel_ar1(Ar1LogVolParams(g=0.0, sigma2=0.3), grid)
    assert_allclose(no_mem.values, _bridge_values(grid), atol=1e-15)
    unit = _reference_scale_ar1_kernel(grid)
    assert_allclose(np.trace(unit) * grid.weight, 1 / 6 + 3.2506 * 0.011761,
                    atol=1e-3)
    model = build_kernel_ar1(AR1, grid)
    assert_allclose(np.trace(model.values) * grid.weight, 0.23767, atol=1e-3)


def test_ar1_kernel_matches_exact_copula_quadrature():
    # oracle: the lag-t copula of the generator by 2-D Gauss-Hermite, including
    # every lag with non-negligible memory
    grid = QuantileGrid(40)
    v = AR1.stationary_var
    sq = math.sqrt(2 * v)
    t64, w64 = roots_hermite(64)
    wn = w64 / math.sqrt(math.pi)

    def marginal(x):
        return (ndtr(np.asarray(x, float)[..., None] * np.exp(v - sq * t64)) * wn).sum(axis=-1)

    xq = np.array([brentq(lambda t: marginal(t) - u, -60, 60, xtol=1e-12)
                   for u in grid.points])
    outer = ndtr(xq[None, :] * np.exp(v - sq * t64[:, None]))
    acc = np.zeros((grid.m, grid.m))
    n = 2500
    for t in range(1, 140):
        c = AR1.g ** t
        arg = v - c * sq * t64[:, None, None] - math.sqrt(1 - c * c) * sq * t64[None, None, :]
        inner = (ndtr(xq[None, :, None] * np.exp(arg)) * wn[None, None, :]).sum(axis=2)
        delta = (outer * wn[:, None]).T @ inner - np.outer(grid.points, grid.points)
        acc += (1 - t / n) * (delta + delta.T)
    oracle = _bridge_values(grid) + acc

    model = build_kernel_ar1(AR1, grid).values
    unit = _reference_scale_ar1_kernel(grid)
    assert np.abs(model - oracle).max() < 0.008
    # the reference-scale variant misses the model kernel by much more
    assert np.abs(unit - oracle).max() > 0.02


def test_psi_accumulation_reproduces_ar1_kernel(grid, basis):
    surfaces = []
    for t in range(1, 400):
        alpha_t = AR1.stationary_var * AR1.g ** t
        surfaces.append(expansion_surface(
            grid, LagCoefficients(t=t, alpha=alpha_t, beta=0.0, rho=0.0), basis=basis))
    psi = psi_accumulate(surfaces, n=10 ** 9)
    k_psi = build_kernel_from_psi(psi)
    k_direct = _reference_scale_ar1_kernel(grid)
    assert np.abs(k_psi.values - k_direct).max() < 1e-6


def test_fgn_kernel(grid):
    iid = build_kernel_fgn(FgnLogVolParams(nu=1.0, sigma2=1.0), 1500, grid)
    assert_allclose(iid.values, _bridge_values(grid), atol=1e-12)
    params = FgnLogVolParams(nu=0.4, sigma2=1.0)
    t = np.arange(1, 1501)
    scalar = 2 * np.sum((1 - t / 1500) * fgn_alpha(params, t))
    assert_allclose(fgn_psi_coefficient(params, 1500), scalar, rtol=1e-12)
    a, _ = get_basis(1.0).tables(grid)
    k = build_kernel_fgn(params, 1500, grid)
    assert_allclose(k.values, _bridge_values(grid) + scalar * np.outer(a, a), rtol=1e-12)
    # long memory: the weighted sum keeps growing with the horizon
    assert fgn_psi_coefficient(params, 3000) > scalar
    assert fgn_psi_coefficient(params, 6000) > fgn_psi_coefficient(params, 3000)


def test_full_pipeline_reduces_to_bridge_for_iid_input():
    # self-copulas -> Psi -> kernel on independent data stays close to I
    grid = QuantileGrid(20)
    rng = np.random.default_rng(77)
    panel = [rng.standard_normal(4000) for _ in range(30)]
    surfaces = lag_surfaces(panel, 8, grid)
    psi = psi_accumulate(surfaces, n=4000)
    kernel = build_kernel_from_psi(psi)
    i_vals = _bridge_values(grid)
    assert np.abs(kernel.values - i_vals).max() < 0.02
    lam = eigendecompose(kernel).eigenvalues
    lam_i = eigendecompose(KernelMatrix(grid=grid, values=i_vals)).eigenvalues
    assert abs(lam[0] / lam_i[0] - 1) < 0.1


def test_kernel_requires_symmetry(grid):
    values = _bridge_values(grid)
    values[3, 7] += 1e-6
    with pytest.raises(ParameterError):
        KernelMatrix(grid=grid, values=values)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("cell", [(3, 7), (4, 4)])
def test_kernel_refuses_non_finite_values(grid, value, cell):
    # a symmetric pair: NaN passes a symmetry check alone and reaches eigh
    values = _bridge_values(grid)
    values[cell] = values[cell[::-1]] = value
    with pytest.raises(ParameterError, match="not finite"):
        KernelMatrix(grid=grid, values=values)


def test_eigendecompose_bridge(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    j = np.arange(1, 6)
    assert np.abs(spec.eigenvalues[:5] - 1.0 / (j * np.pi) ** 2).max() < 1e-4
    for jj in range(1, 6):
        overlap = abs(grid.integrate(spec.eigenvectors[:, jj - 1] * grid.sine_mode(jj)))
        assert overlap > 0.9999
    assert_allclose(spec.eigenvalues.sum(),
                    np.trace(brownian_bridge_kernel(grid).values) * grid.weight,
                    atol=1e-9)
    # continuum normalization
    norms = grid.integrate(spec.eigenvectors.T ** 2)
    assert_allclose(norms, 1.0, atol=1e-12)


def test_eigendecompose_rank_one(grid, basis):
    a, _ = basis.tables(grid)
    tr_a = grid.integrate(a * a)
    k = KernelMatrix(grid=grid, values=np.outer(a, a))
    spec = eigendecompose(k)
    assert_allclose(spec.eigenvalues[0], tr_a, rtol=1e-12)
    assert np.abs(spec.eigenvalues[1:]).max() < 1e-15
    align = abs(grid.integrate(spec.eigenvectors[:, 0] * a)) / math.sqrt(tr_a)
    assert_allclose(align, 1.0, atol=1e-12)


def test_eigendecompose_reconstructs_kernel(grid):
    k = build_kernel_ar1(AR1, grid)
    spec = eigendecompose(k)
    recon = (spec.eigenvectors * spec.eigenvalues) @ spec.eigenvectors.T
    assert np.abs(recon - k.values).max() < 1e-8


def test_eigendecompose_negative_policy(grid):
    tiny = KernelMatrix(grid=grid, values=-5e-9 * np.eye(grid.m))
    spec = eigendecompose(tiny)
    assert np.all(spec.eigenvalues == 0.0)
    sin1 = grid.sine_mode(1)
    bad = KernelMatrix(grid=grid, values=_bridge_values(grid) - 0.3 * np.outer(sin1, sin1))
    with pytest.raises(NumericalError):
        eigendecompose(bad)


def test_cm_moments(grid):
    k = brownian_bridge_kernel(grid)
    mean, var = cm_moments(k)
    m = grid.m
    assert_allclose(mean, m * (m + 2) / (6.0 * (m + 1) ** 2), rtol=1e-12)
    assert abs(mean - 1 / 6) < 1e-3
    assert abs(var - 1 / 45) < 1e-3
    scaled = KernelMatrix(grid=grid, values=2.5 * k.values)
    mean2, var2 = cm_moments(scaled)
    assert_allclose(mean2, 2.5 * mean, rtol=1e-14)
    assert_allclose(var2, 2.5 ** 2 * var, rtol=1e-14)


def test_b_operator_has_two_symmetric_eigenvalues(grid, basis):
    a, r = basis.tables(grid)
    tr_a = grid.integrate(a * a)
    tr_r = grid.integrate(r * r)
    cross = np.outer(r, a)
    lam = np.sort(np.linalg.eigvalsh((cross + cross.T) * grid.weight))
    expected = math.sqrt(tr_a * tr_r)
    assert_allclose(lam[-1], expected, atol=1e-9)
    assert_allclose(lam[0], -expected, atol=1e-9)
    assert np.abs(lam[1:-1]).max() < 1e-12


def test_weyl_monotonicity(grid, basis):
    base = build_kernel_ar1(AR1, grid)
    lam0 = eigendecompose(base).eigenvalues
    ua, _ = basis.tables(grid)
    ua = ua / math.sqrt(grid.integrate(ua * ua))
    bumped = KernelMatrix(grid=grid, values=base.values + 0.03 * np.outer(ua, ua))
    lam1 = eigendecompose(bumped).eigenvalues
    assert np.all(lam1 >= lam0 - 1e-12)


def test_perturbative_unperturbed_limit(grid):
    spec = perturbative_spectrum(PerturbativeInputs(0.0, 0.0, 0.0), grid)
    j = np.arange(1, spec.eigenvalues.size + 1)
    assert_allclose(spec.eigenvalues, 1.0 / (j * np.pi) ** 2, rtol=1e-12)


def test_perturbative_alpha_shift(grid, basis):
    inputs = PerturbativeInputs(0.1, 0.0, 0.0)
    spec = perturbative_spectrum(inputs, grid)
    a, _ = basis.tables(grid)
    tr_a = grid.integrate(a * a)
    a2sq = grid.integrate(a * grid.sine_mode(2)) ** 2 / tr_a
    # the lifted second mode becomes the top eigenvalue; the block value
    # lambda_2 + alpha_bar a2^2 = 0.12401 gets a ~1e-3 second-order shift
    lifted = 1.0 / (2 * np.pi) ** 2 + 0.1 * a2sq
    assert_allclose(lifted, 0.12401, atol=2e-4)
    assert_allclose(spec.eigenvalues[0], lifted, atol=1.5e-3)
    exact = eigendecompose(build_kernel_pseudo_elliptical(inputs, grid))
    assert_allclose(spec.eigenvalues[0], exact.eigenvalues[0], atol=5e-5)
    assert_allclose(spec.eigenvalues[1], 1.0 / np.pi ** 2, atol=2e-5)


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([10, 20, 50, 100]), alpha_bar=st.floats(0.0, 0.05),
       rho_bar=st.floats(0.0, 0.05), beta_bar=st.floats(-0.05, 0.05))
@example(m=100, alpha_bar=0.05, rho_bar=0.02, beta_bar=0.01)
def test_perturbative_matches_eigensolver(m, alpha_bar, rho_bar, beta_bar):
    # negative alpha_bar or rho_bar of this size make the dense kernel indefinite
    grid = QuantileGrid(m)
    inputs = PerturbativeInputs(alpha_bar, rho_bar, beta_bar)
    g2 = max(alpha_bar, rho_bar, abs(beta_bar)) ** 2
    approx = perturbative_spectrum(inputs, grid)
    exact = eigendecompose(build_kernel_pseudo_elliptical(inputs, grid))
    lam = approx.eigenvalues
    assert lam.size == min(20, m) and np.all(np.diff(lam) <= 0)
    assert_allclose(grid.integrate(approx.eigenvectors.T ** 2), 1.0, rtol=1e-12)
    # err0: gap between (j pi)^-2 and the m-point bridge; 1e-15 and 1e-12 allow for rounding
    err0 = np.abs(eigendecompose(brownian_bridge_kernel(grid)).eigenvalues[:5]
                  - 1.0 / (np.arange(1, 6) * np.pi) ** 2).max()
    assert np.abs(lam[:5] - exact.eigenvalues[:5]).max() <= err0 + 0.05 * g2 + 1e-15
    # the top three eigenvectors align to first order
    overlap = np.abs(grid.integrate((exact.eigenvectors[:, :3] * approx.eigenvectors[:, :3]).T))
    assert np.all(1.0 - overlap <= 0.05 * g2 + 1e-12)


def test_perturbative_needs_two_grid_points():
    with pytest.raises(ParameterError, match=r"\(sin 1, sin 2\) block .* m >= 2"):
        perturbative_spectrum(PerturbativeInputs(0.01, 0.0, 0.0), QuantileGrid(1))


def test_perturbative_inputs_reduction():
    assert not PerturbativeInputs(0.5, -0.5, 0.5).outside_small_regime
    assert PerturbativeInputs(0.7, 0.0, 0.0).outside_small_regime


def test_commutation_overlaps(grid, basis):
    a, r = basis.tables(grid)
    tr_a, tr_r = basis.traces(grid)
    assert abs(grid.integrate(a * grid.sine_mode(2))) / math.sqrt(tr_a) >= 0.99
    assert abs(grid.integrate(r * grid.sine_mode(1))) / math.sqrt(tr_r) >= 0.999


def test_cm_density_zero_correction_is_baseline():
    k = np.linspace(0.01, 2.0, 50)
    base = cm_density_correction(k, 0.0)
    again = cm_density_correction(k, 0.0)
    assert np.array_equal(base, again)   # deterministic, with no cache behind it
    assert np.all(base >= 0)


def test_cm_density_normalization():
    kg = np.arange(0.0, 5.0 + 5e-4, 1e-3)
    dens = cm_density_correction(kg, 0.005)
    total = np.trapezoid(dens, kg)
    assert abs(total - 1.0) < 1e-5


def test_cm_density_correction_matches_exact_inverse(grid, basis):
    kg = np.arange(0.0, 5.0 + 5e-4, 1e-3)
    kk = np.linspace(0.05, 2.0, 200)
    assert np.abs(cm_corrected_cdf(kk, 0.0) - cramer_von_mises_series(kk)).max() < 1e-3
    # the corrected law is the bridge spectrum with lambda_2 lifted by alpha_bar a2^2:
    # its mass, mean and variance are those of the lifted spectrum
    lam = eigendecompose(brownian_bridge_kernel(grid)).eigenvalues
    a, _ = basis.tables(grid)
    a2sq = grid.integrate(a * grid.sine_mode(2)) ** 2 / grid.integrate(a * a)
    for alpha_bar in (0.0, 0.001, 0.005, 0.01):
        lifted = lam.copy()
        lifted[1] += alpha_bar * a2sq
        dens = cm_density_correction(kg, alpha_bar)
        mean = np.trapezoid(kg * dens, kg)
        assert abs(np.trapezoid(dens, kg) - 1.0) < 1e-9
        assert abs(mean - lifted.sum()) < 1e-9
        assert abs(np.trapezoid(kg ** 2 * dens, kg) - mean ** 2
                   - 2.0 * np.sum(lifted ** 2)) < 1e-9
