import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from depgof import (
    Ar1LogVolParams,
    LagCoefficients,
    LogNormalVolBasis,
    NumericalError,
    ParameterError,
    QuantileGrid,
    StochasticVolParams,
    average_self_copula,
    expansion_surface,
    fit_lag_coefficients,
    fit_multifractal,
    gen_ar1_logvol,
    gen_iid_lognormal_vol,
    get_basis,
    vol_model_cdf,
    vol_model_quantiles,
)
from depgof import lognormal
from depgof._special import hermite_rule, ndtr, ndtri_start


# a grid of the levels 0.1, ..., 0.9: u = 1/2 is its node 4
NINE = QuantileGrid(9)


def test_marginal_cdf_symmetry_and_limits(basis):
    x = np.linspace(-8, 8, 41)
    f = basis.cdf(x)
    assert_allclose(f + basis.cdf(-x), 1.0, atol=1e-13)
    assert basis.cdf(0.0) == pytest.approx(0.5, abs=1e-14)
    assert np.all(np.diff(f) > 0)
    assert basis.cdf(60.0) > 1 - 1e-4


def test_marginal_cdf_against_direct_simulation(basis):
    rng = np.random.default_rng(13)
    draws = rng.standard_normal(2_000_000) * np.exp(rng.standard_normal(2_000_000))
    hits = draws <= 1.0
    se = hits.std(ddof=1) / math.sqrt(hits.size)
    assert abs(basis.cdf(1.0) - hits.mean()) < 3 * se


def test_marginal_quantile_roundtrip(basis):
    assert basis.quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    for u in (0.01, 0.3, 0.77, 0.99):
        assert abs(basis.cdf(basis.quantile(u)) - u) < 1e-10
        assert_allclose(basis.quantile(u), -basis.quantile(1 - u), atol=1e-10)
    with pytest.raises(ParameterError):
        basis.quantile(0.0)
    with pytest.raises(ParameterError):
        basis.quantile(1.5)


def test_basis_symmetries(grid, basis):
    a, r = basis.tables(grid)
    assert_allclose(a, -a[::-1], atol=1e-12)
    assert_allclose(r, r[::-1], atol=1e-12)
    a9, r9 = basis.tables(NINE)
    assert a9[4] == pytest.approx(0.0, abs=1e-13)
    assert_allclose(r9[4], 1.0 / math.sqrt(2 * math.pi), atol=1e-9)
    # median consistency of the expansion with the exact arcsin relation
    assert_allclose(r9[4] ** 2, 1.0 / (2 * math.pi), atol=1e-6)


def test_trace_table(grid, basis):
    a, r = basis.tables(grid)
    u = grid.points
    i_vals = np.minimum.outer(u, u) - np.outer(u, u)
    tr_i = grid.integrate(u * (1 - u))
    tr_a, tr_r = basis.traces(grid)
    assert_allclose(tr_i, 0.16667, atol=5e-4)
    assert_allclose(tr_a, 0.01176, atol=5e-6)
    assert_allclose(tr_r, 0.07806, atol=5e-6)
    w2 = grid.weight ** 2
    assert_allclose(np.sum(i_vals * i_vals) * w2, 111.139e-4, atol=1e-6)
    assert_allclose(np.sum(i_vals * np.outer(a, a)) * w2, 2.948e-4, atol=1e-6)
    assert_allclose(np.sum(i_vals * np.outer(r, r)) * w2, 79.067e-4, atol=1e-6)
    # Tr(B + B^T) = 2 integral A R du vanishes by parity
    assert abs(2 * grid.integrate(a * r)) < 1e-10


def test_overlaps(grid, basis):
    a, r = basis.tables(grid)
    tr_a, tr_r = basis.traces(grid)
    a2 = abs(grid.integrate(a * grid.sine_mode(2))) / math.sqrt(tr_a)
    r1 = abs(grid.integrate(r * grid.sine_mode(1))) / math.sqrt(tr_r)
    assert abs(a2 - 0.9934) < 1e-3
    assert abs(r1 - 0.9998) < 5e-4


def test_quadrature_doubling_gate(grid):
    a1, r1 = LogNormalVolBasis(nodes=384).tables(grid)
    a2, r2 = LogNormalVolBasis(nodes=768).tables(grid)
    assert np.abs(a1 - a2).max() < 1e-9
    assert np.abs(r1 - r2).max() < 1e-9


def _excess(coeffs):
    """Copula excess C_t(u,v) - uv of the expansion on the nine-level grid."""
    surface = expansion_surface(NINE, coeffs)
    return surface.values - np.outer(NINE.points, NINE.points)


def test_copula_expansion_values(basis):
    a, r = basis.tables(NINE)

    def node(level):
        return round(10 * level) - 1

    zero = LagCoefficients(t=1, alpha=0.0, beta=0.0, rho=0.0)
    assert _excess(zero)[node(0.3), node(0.8)] == 0.0
    alpha_only = LagCoefficients(t=1, alpha=0.1, beta=0.0, rho=0.0)
    assert_allclose(_excess(alpha_only)[node(0.9), node(0.9)], 0.1 * a[node(0.9)] ** 2,
                    rtol=1e-12)
    beta_only = LagCoefficients(t=1, alpha=0.0, beta=0.04, rho=0.0)
    u, v = node(0.2), node(0.7)
    excess = _excess(beta_only)
    expected = -0.04 * (r[u] * a[v] - r[v] * a[u])
    assert_allclose(excess[u, v] - excess[v, u], expected, rtol=1e-12)
    # diagonal of the leverage term
    assert_allclose(excess[u, u], -0.04 * r[u] * a[u], rtol=1e-12)


def test_expansion_median_matches_blomqvist_relation():
    # at the median the expansion reduces to rho R(1/2)^2 = rho/(2 pi), the
    # linearization of the exact arcsin(rho)/(2 pi) relation
    rho_only = LagCoefficients(t=1, alpha=0.0, beta=0.0, rho=0.3)
    assert_allclose(_excess(rho_only)[4, 4], 0.3 / (2 * math.pi), atol=1e-6)


def test_fit_roundtrip_is_exact(grid):
    truth = LagCoefficients(t=3, alpha=0.1, beta=0.02, rho=-0.05)
    surf = expansion_surface(grid, truth)
    fitted, rms = fit_lag_coefficients(surf)
    assert abs(fitted.alpha - truth.alpha) < 1e-8
    assert abs(fitted.beta - truth.beta) < 1e-8
    assert abs(fitted.rho - truth.rho) < 1e-8
    assert rms < 1e-8
    assert fitted.t == 3


def test_fit_product_copula_gives_zero(grid):
    from depgof.copulas import CopulaSurface, product_copula

    surf = CopulaSurface(grid=grid, lag=1, values=product_copula(grid))
    fitted, rms = fit_lag_coefficients(surf)
    assert max(abs(fitted.alpha), abs(fitted.beta), abs(fitted.rho)) < 1e-10
    assert rms < 1e-10


def test_fit_requires_enough_grid_points():
    from depgof.copulas import CopulaSurface, product_copula

    small = QuantileGrid(5)
    surf = CopulaSurface(grid=small, lag=1, values=product_copula(small))
    with pytest.raises(ParameterError):
        fit_lag_coefficients(surf)


def test_fit_recovers_ar1_log_vol_covariance():
    # the empirical lag-1 surface fits its own model basis: the basis scale
    # is the stationary log-vol standard deviation
    grid = QuantileGrid(50)
    params = Ar1LogVolParams(0.88, 0.05)
    model_basis = get_basis(math.sqrt(params.stationary_var))
    panel = gen_ar1_logvol(params, 2500, [300 + r for r in range(50)])
    surf = average_self_copula(panel.T, 1, grid)
    fitted, _ = fit_lag_coefficients(surf, basis=model_basis)
    assert abs(fitted.alpha - 0.195) < 0.03
    assert abs(fitted.beta) < 0.03
    assert abs(fitted.rho) < 0.03


def test_multifractal_exact_recovery():
    lags = np.arange(1, 769)
    coeffs = [LagCoefficients(t=int(t), alpha=-0.046 * math.log(t / 1467.0),
                              beta=0.0, rho=0.0) for t in lags]
    fit = fit_multifractal(coeffs)
    assert_allclose(fit.sigma2, 0.046, rtol=1e-10)
    assert_allclose(fit.horizon_t, 1467.0, rtol=1e-9)
    assert fit.extrapolated          # horizon beyond the largest fitted lag
    assert not fit.degenerate
    assert fit.residual < 1e-12


def test_multifractal_flags_constant_alpha():
    coeffs = [LagCoefficients(t=t, alpha=0.05, beta=0.0, rho=0.0) for t in (1, 2, 4, 8)]
    with pytest.warns(RuntimeWarning):
        fit = fit_multifractal(coeffs)
    assert fit.degenerate
    assert abs(fit.sigma2) < 1e-12


def test_multifractal_noisy_recovery():
    rng = np.random.default_rng(14)
    lags = np.arange(1, 257)
    clean = -0.046 * np.log(lags / 1467.0)
    for _ in range(100):
        noisy = clean * (1.0 + 0.05 * rng.standard_normal(lags.size))
        coeffs = [LagCoefficients(t=int(t), alpha=float(a), beta=0.0, rho=0.0)
                  for t, a in zip(lags, noisy)]
        fit = fit_multifractal(coeffs)
        assert abs(fit.sigma2 - 0.046) / 0.046 < 0.10
        assert abs(math.log(fit.horizon_t / 1467.0)) < 0.35


def test_multifractal_input_checks():
    with pytest.raises(ParameterError):
        fit_multifractal([LagCoefficients(t=1, alpha=0.1, beta=0.0, rho=0.0)] * 2)


def test_vol_model_cdf_matches_generator():
    x = gen_iid_lognormal_vol(StochasticVolParams(0.5), 200_000, seed=15)
    xs = np.sort(x)
    f = vol_model_cdf(xs, 0.5)
    ecdf = np.arange(1, xs.size + 1) / xs.size
    assert np.abs(f - ecdf).max() < 0.005
    assert_allclose(vol_model_cdf(0.0, 0.5), 0.5, atol=1e-13)


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.0, 2.5), m=st.sampled_from([10, 100]))
@example(s=0.0, m=100)
@example(s=2.5, m=100)
@example(s=1.7888834824586421, m=100)   # the CDF near u = 0.99 resolves only 1.1e-16
def test_vol_model_quantiles_invert_the_cdf(s, m):
    grid = QuantileGrid(m)
    q = vol_model_quantiles(grid, s)
    assert np.abs(vol_model_cdf(q, s) - grid.points).max() <= 1e-12
    assert np.all(np.diff(q) > 0)
    assert_allclose(q, -q[::-1], rtol=0, atol=1e-12)


def test_quantile_solve_checks_levels_and_fails_loudly(monkeypatch):
    basis = LogNormalVolBasis(0.5)
    assert basis.quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    assert basis.quantile(np.array([0.25])).shape == (1,)
    for bad in (0.0, 1.0, np.nan):
        with pytest.raises(ParameterError):
            basis.quantile(bad)
    monkeypatch.setattr(lognormal, "_NEWTON_STEPS", 1)
    with pytest.raises(NumericalError, match="did not converge"):
        basis.quantile(np.array([0.01, 0.3]))


@pytest.mark.parametrize("m", [15, 51, 100])
def test_each_row_of_a_block_solve_is_its_scales_own(m):
    grid = QuantileGrid(m)
    rule = lognormal._hermite(lognormal.DEFAULT_QUADRATURE_NODES)
    # every row starts from the quantiles of s = 0.47; the last scale lies far
    # from it and takes more Newton steps
    block = np.array([0.4612, 0.4687, 0.4733, 1.5])
    start = np.tile(get_basis(0.47).quantiles(grid), (4, 1))
    rows = lognormal._solve_quantiles(block, grid.points, *rule, start)
    assert rows.shape == (4, m)
    for i, s in enumerate(block):
        alone = lognormal._solve_quantiles(block[i:i + 1], grid.points, *rule, start[i:i + 1])
        assert rows[i].tobytes() == alone[0].tobytes(), s
    # of up to five scales, each row is the shared basis's cached solve
    assert vol_model_quantiles(grid, list(block))[1].tobytes() == vol_model_quantiles(
        grid, block[1]).tobytes()


def test_quantile_start_mirrors_with_the_levels(monkeypatch):
    # the warm solves of clustered scales start at the quartic through the anchors'
    # quantiles, the upper-half levels mirrored with their starts, and converge in
    # two Newton steps; a cold solve from the Gaussian start needs more
    grid = QuantileGrid(51)
    scales = list(0.8 * (1.0 + np.linspace(-2e-3, 2e-3, 9)))
    before = vol_model_quantiles(grid, scales)   # solves the anchors into the cache
    monkeypatch.setattr(lognormal, "_NEWTON_STEPS", 2)
    assert vol_model_quantiles(grid, scales).tobytes() == before.tobytes()
    with pytest.raises(NumericalError):
        LogNormalVolBasis(scales[1]).quantile(grid.points)


def _two_sided_bracket_quantile(basis, u):
    """The solver as it was when the bracket also doubled hi where F(hi) < u, with
    the CDF read at every level's lo and hi on each pass: the reference for the
    one-sided bracket that reads it once per distinct lo."""
    upper = u > 0.5
    u = np.where(upper, 1.0 - u, u)
    lo, hi = np.full(u.shape, -60.0), np.full(u.shape, 60.0)
    for _ in range(60):
        low_hi, high_lo = basis.cdf(hi) < u, basis.cdf(lo) > u
        if not (low_hi.any() or high_lo.any()):
            break
        hi[low_hi] *= 2.0
        lo[high_lo] *= 2.0
    x = np.clip(ndtri_start(u), lo, hi)
    scale = np.exp(-basis.s * basis._omega)
    for _ in range(100):
        z = x[:, None] * scale
        resid = ndtr(z) @ basis._weights - u
        density = (lognormal._phi(z) * scale) @ basis._weights
        lo = np.where(resid < 0.0, x, lo)
        hi = np.where(resid > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - resid / density
        tol = 1e-13 + 4e-16 * np.abs(x)
        small = np.abs(newton - x) <= tol
        if np.all(small | (resid == 0.0) | (hi - lo <= tol)):
            return np.where(upper, -1.0, 1.0) * np.where(small, newton, x)
        inside = (newton > lo) & (newton < hi)
        x = np.where(small | inside, np.clip(newton, lo, hi), 0.5 * (lo + hi))
    raise AssertionError("the reference solver did not converge")


@pytest.mark.parametrize("m", [10, 51, 100, 256])
def test_one_sided_bracket_keeps_every_quantile(m):
    u = QuantileGrid(m).points
    for s in np.linspace(0.0, 3.5, 171):
        basis = LogNormalVolBasis(s)
        assert np.array_equal(basis.quantile(u), _two_sided_bracket_quantile(basis, u)), s


def test_hermite_nodes_are_shared_read_only():
    b1, b2 = LogNormalVolBasis(0.3), LogNormalVolBasis(0.7)
    assert b1._omega is b2._omega and b1._weights is b2._weights
    assert not b1._omega.flags.writeable and not b1._weights.flags.writeable
    # the shared nodes are the ones each basis used to compute for itself
    omega, w = hermite_rule(b1.nodes, 2.0 ** -80)
    x = np.linspace(-4.0, 4.0, 33)
    own = ndtr(x[:, None] * np.exp(-0.3 * omega)) @ w
    assert np.array_equal(b1.cdf(x), own)


def test_shared_bases_are_keyed_by_the_exact_scale():
    s = 0.3
    near = float(np.nextafter(s, 2.0))
    basis, neighbour = get_basis(s), get_basis(near)
    assert basis is not neighbour
    assert (basis.s, neighbour.s) == (s, near)
    assert get_basis(np.float64(s)) is basis
    assert get_basis() is get_basis(1) is get_basis(1.0)
