from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.stats import rankdata

from depgof import (
    Ar1LogVolParams,
    CopulaSurface,
    DataError,
    LagCoefficients,
    ParameterError,
    QuantileGrid,
    blomqvist_rho,
    delta_diagonal,
    empirical_copula,
    expansion_surface,
    frechet_bounds,
    gen_ar1_logvol,
    lag_surfaces,
    psi_accumulate,
)
from depgof import copulas
from depgof.copulas import (average_self_copula, copula_thresholds, product_copula, rank_panel,
                            self_copula_at_lag)

from conftest import gaussian_copula


def _surface_from_values(grid, values, lag=1):
    return CopulaSurface(grid=grid, lag=lag, values=values)


def test_comonotone_hits_upper_bound(grid):
    x = np.random.default_rng(0).standard_normal(1000)
    surf = empirical_copula(x, x, grid)
    u = grid.points
    assert np.abs(np.diagonal(surf.values) - u).max() <= 1.0 / x.size + 1e-12
    _, upper = frechet_bounds(grid)
    assert np.abs(surf.values - upper).max() <= 1.0 / x.size + 1e-12


def test_countermonotone_hits_lower_bound(grid):
    x = np.random.default_rng(1).standard_normal(1000)
    surf = empirical_copula(x, -x, grid)
    lower, _ = frechet_bounds(grid)
    assert np.abs(surf.values - lower).max() <= 1.0 / x.size + 1e-12


def test_rank_invariance_under_increasing_transforms(grid):
    rng = np.random.default_rng(2)
    x = rng.standard_normal(500)
    y = rng.standard_normal(500)
    base = empirical_copula(x, y, grid)
    moved = empirical_copula(np.exp(x), y ** 3, grid)
    assert np.array_equal(base.values, moved.values)


def test_correction_factor_is_one_on_aligned_sample(grid):
    # n = 2 (m+1): every threshold floor(n u_i) = 2i is exact
    rng = np.random.default_rng(3)
    x = rng.standard_normal(202)
    y = rng.standard_normal(202)
    corrected = empirical_copula(x, y, grid, clip_frechet=False)
    thresholds = copula_thresholds(202, grid)
    assert_allclose(thresholds, 202 * grid.points, rtol=0, atol=1e-9)
    raw = np.zeros((grid.m, grid.m))
    rx, ry = rankdata(x, method="ordinal"), rankdata(y, method="ordinal")
    for i, a in enumerate(thresholds):
        for j, b in enumerate(thresholds):
            raw[i, j] = np.mean((rx <= a) & (ry <= b))
    assert np.abs(corrected.values - raw).max() < 1e-12


def test_frechet_bounds_hold_after_clipping(grid):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(251)
    y = 0.5 * x + rng.standard_normal(251)
    surf = empirical_copula(x, y, grid)
    lower, upper = frechet_bounds(grid)
    assert np.all(surf.values >= lower - 1e-15)
    assert np.all(surf.values <= upper + 1e-15)


def test_estimator_input_checks(grid):
    rng = np.random.default_rng(5)
    with pytest.raises(DataError):
        empirical_copula(rng.standard_normal(100), rng.standard_normal(101), grid)
    with pytest.raises(DataError):
        empirical_copula(rng.standard_normal(50), rng.standard_normal(50), grid)
    # NaN has no rank: refused, naming the sample, not estimated as a Frechet bound
    x = rng.standard_normal(200)
    y = x.copy()
    y[3] = np.nan
    small = QuantileGrid(10)
    with pytest.raises(DataError, match="sample y holds NaN"):
        empirical_copula(x, y, small)
    with pytest.raises(DataError, match="sample x holds NaN"):
        empirical_copula(y, x, small)
    with pytest.raises(DataError, match="NaN"):
        self_copula_at_lag(y, 2, small)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(11, 400), decimals=st.sampled_from([None, 0, 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pair_ranks_are_ordinal_rankdata(n, decimals, seed):
    """The per-pair estimator equals its rankdata(method="ordinal") form bit for bit."""
    grid = QuantileGrid(10)
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, n)) * 2.0
    if decimals is not None:   # ties
        x, y = np.round(x, decimals), np.round(y, decimals)
    thresholds = copula_thresholds(n, grid)
    counts = np.zeros((grid.m + 1, grid.m + 1))
    bins = [np.searchsorted(thresholds, rankdata(s, method="ordinal")) for s in (x, y)]
    np.add.at(counts, tuple(bins), 1.0)
    expected = copulas._corrected_surfaces(counts, n, copulas._bias_factor(n, grid),
                                           frechet_bounds(grid))
    assert empirical_copula(x, y, grid).values.tobytes() == expected.tobytes()


def test_unbiasedness_under_independence():
    # light version of the estimator-bias study (the acceptance suite runs
    # the full 1e4-replication protocol)
    grid = QuantileGrid(25)
    n, reps = 251, 2000
    rng = np.random.default_rng(6)
    acc = np.zeros((grid.m, grid.m))
    acc2 = np.zeros_like(acc)
    acc_raw = np.zeros_like(acc)
    thresholds = copula_thresholds(n, grid)
    correction = np.outer(n * grid.points / thresholds, n * grid.points / thresholds)
    for _ in range(reps):
        x = rng.random(n)
        y = rng.random(n)
        c = empirical_copula(x, y, grid, clip_frechet=False).values
        acc += c
        acc2 += c * c
        acc_raw += c / correction
    mean = acc / reps
    se = np.sqrt(np.maximum(acc2 / reps - mean ** 2, 0) / reps)
    z = (mean - product_copula(grid)) / np.maximum(se, 1e-300)
    assert np.abs(z).max() < 5.0
    assert (np.abs(z) > 3).mean() < 0.02
    floor_target = np.outer(thresholds, thresholds) / n ** 2
    z_raw = (acc_raw / reps - floor_target) / np.maximum(se, 1e-300)
    assert np.abs(z_raw).max() < 5.0


def test_self_copula_lag_checks(grid):
    x = np.random.default_rng(7).standard_normal(500)
    with pytest.raises(ParameterError):
        self_copula_at_lag(x, 0, grid)
    with pytest.raises(DataError):
        self_copula_at_lag(x, 450, grid)


def test_self_copula_of_iid_series_is_product(grid):
    x = np.random.default_rng(8).standard_normal(20_000)
    surf = self_copula_at_lag(x, 3, grid)
    assert np.abs(surf.values - product_copula(grid)).max() < 0.03


def test_self_copula_time_reversal_transposes(grid):
    x = gen_ar1_logvol(Ar1LogVolParams(0.88, 0.05), 3000, seed=9)
    fwd = self_copula_at_lag(x, 5, grid)
    rev = self_copula_at_lag(x[::-1], 5, grid)
    assert np.array_equal(rev.values, fwd.values.T)


def test_ar1_diagonal_excess_positive_in_both_tails():
    grid = QuantileGrid(20)
    params = Ar1LogVolParams(0.88, 0.05)
    panel = gen_ar1_logvol(params, 2500, [200 + r for r in range(30)])
    surf = average_self_copula(panel.T, 1, grid)
    u = grid.points
    excess = np.diagonal(surf.values) - u * u
    assert excess[1] > 0 and excess[-2] > 0


def test_average_self_copula_basics(grid):
    x = np.random.default_rng(10).standard_normal(2000)
    single = average_self_copula([x], 2, grid)
    direct = self_copula_at_lag(x, 2, grid)
    assert np.array_equal(single.values, direct.values)
    with pytest.raises(DataError):
        average_self_copula([], 2, grid)


def _pooled_reference(panel, t, grid):
    """The panel estimate from first principles: each pair's (bin, bin) counts
    by ordinal rankdata and np.add.at, summed over the series, then corrected
    and clipped once as n k pairs."""
    n = panel.shape[1] - t
    thresholds = copula_thresholds(n, grid)
    total = np.zeros((grid.m + 1, grid.m + 1), dtype=np.int64)
    for x in panel:
        bins = [np.searchsorted(thresholds, rankdata(s, method="ordinal"))
                for s in (x[:-t], x[t:])]
        counts = np.zeros_like(total)
        np.add.at(counts, tuple(bins), 1)
        total += counts
    return copulas._corrected_surfaces(total, n * len(panel), copulas._bias_factor(n, grid),
                                       frechet_bounds(grid))


def _panel(k, size, seed, decimals):
    """k series of one length; rounding to `decimals` makes ties (None: none)."""
    rng = np.random.default_rng(seed)
    panel = rng.standard_normal((k, size)).cumsum(axis=1) * 0.3
    return panel if decimals is None else np.round(panel, decimals)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), m=st.integers(1, 30), t=st.integers(1, 12),
       spare=st.one_of(st.just(0), st.integers(1, 4).map(lambda j: -j), st.integers(1, 90)),
       decimals=st.sampled_from([None, 0, 1]), seed=st.integers(0, 2 ** 32 - 1))
@example(k=3, m=10, t=1, spare=0, decimals=0, seed=0)       # n - t = m + 1
@example(k=2, m=20, t=5, spare=-3, decimals=1, seed=1)      # n - t = 3 (m + 1)
@example(k=6, m=30, t=12, spare=-4, decimals=None, seed=2)  # n - t = 4 (m + 1)
def test_panel_estimator_is_the_copula_of_pooled_pair_counts(k, m, t, spare, decimals, seed):
    """``spare`` is the excess of n - t over m + 1, or -j for n - t = j (m + 1)."""
    grid = QuantileGrid(m)
    pairs = (m + 1) * -spare if spare < 0 else m + 1 + spare
    panel = _panel(k, pairs + t, seed, decimals)
    expected = _pooled_reference(panel, t, grid)
    ranked = rank_panel(panel)
    assert ranked.slot.dtype == np.int32
    for given_as in (list(panel), panel, ranked):
        surf = average_self_copula(given_as, t, grid)
        assert surf.lag == t
        assert surf.values.tobytes() == expected.tobytes()


def test_panel_estimator_ignores_series_order_and_blocks(monkeypatch):
    grid = QuantileGrid(15)
    panel = _panel(2 * copulas._BLOCK + 3, 300, seed=12, decimals=1)
    expected = _pooled_reference(panel, 7, grid).tobytes()
    for perm in (np.arange(len(panel))[::-1], np.random.default_rng(3).permutation(len(panel))):
        assert average_self_copula(panel[perm], 7, grid).values.tobytes() == expected
    for block in (1, 5, copulas._BLOCK, 1000):
        monkeypatch.setattr(copulas, "_BLOCK", block)
        assert average_self_copula(panel, 7, grid).values.tobytes() == expected


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 7), m=st.integers(1, 20), t_max=st.integers(1, 14),
       spare=st.one_of(st.just(0), st.integers(1, 4).map(lambda j: -j), st.integers(1, 60)),
       decimals=st.sampled_from([None, 0, 1]), block=st.sampled_from([1, 5, 8, 1000]),
       seed=st.integers(0, 2 ** 32 - 1))
@example(k=3, m=10, t_max=1, spare=0, decimals=0, block=8, seed=0)        # n - t = m + 1
@example(k=5, m=5, t_max=14, spare=-2, decimals=1, block=1, seed=1)       # n - t = 12, 18, 24
@example(k=7, m=1, t_max=14, spare=-4, decimals=0, block=5, seed=2)       # every even n - t
def test_lag_sweep_is_the_copula_of_pooled_pair_counts_at_every_lag(k, m, t_max, spare, decimals,
                                                                     block, seed):
    """``spare`` is the excess of n - t_max over m + 1, or -j for n - t_max = j (m + 1);
    the longer lags' n - t then pass the other multiples of m + 1 above it."""
    grid = QuantileGrid(m)
    pairs = (m + 1) * -spare if spare < 0 else m + 1 + spare
    panel = _panel(k, pairs + t_max, seed, decimals)
    expected = [_pooled_reference(panel, t, grid).tobytes() for t in range(1, t_max + 1)]
    ranked = rank_panel(panel)
    slot = ranked.slot.copy()
    perm = np.random.default_rng(seed).permutation(k)
    with mock.patch.object(copulas, "_BLOCK", block):
        for given_as in (panel, ranked, ranked, panel[perm]):
            surfaces = lag_surfaces(given_as, t_max, grid)
            assert [s.lag for s in surfaces] == list(range(1, t_max + 1))
            assert [s.values.tobytes() for s in surfaces] == expected
    assert np.array_equal(ranked.slot, slot)   # the sweep updates its own ranks


def test_panel_estimator_is_the_mean_of_unclipped_pair_estimates_where_the_clip_is_idle():
    """Before its one clip the pooled surface is the mean of the per-series
    unclipped estimates; the clip binds at some cells of this small panel."""
    grid = QuantileGrid(20)
    panel = _panel(7, 70, seed=5, decimals=None)
    t = 3
    mean = np.mean([empirical_copula(x[:-t], x[t:], grid, clip_frechet=False).values
                    for x in panel], axis=0)
    lower, upper = frechet_bounds(grid)
    idle = (mean > lower) & (mean < upper)
    assert 0 < (~idle).sum() and idle.any()
    surf = average_self_copula(panel, t, grid).values
    assert_allclose(surf[idle], mean[idle], rtol=1e-12, atol=0)
    assert np.array_equal(surf[~idle], np.clip(mean, lower, upper)[~idle])


@settings(max_examples=15, deadline=None)
@given(k=st.integers(1, 6), column=st.integers(0, 5), t=st.integers(1, 9),
       decimals=st.sampled_from([None, 1]), seed=st.integers(0, 2 ** 32 - 1))
def test_panel_estimator_invariant_under_increasing_transforms(k, column, t, decimals, seed):
    grid = QuantileGrid(12)
    panel = _panel(k, 200, seed, decimals)
    moved = panel.copy()
    j = column % k
    moved[j] = np.exp(moved[j]) if seed % 2 else 7.0 * moved[j] ** 3 - 1.0
    base = average_self_copula(panel, t, grid).values
    assert average_self_copula(moved, t, grid).values.tobytes() == base.tobytes()


def test_panel_estimator_input_checks():
    grid = QuantileGrid(10)
    panel = _panel(3, 40, seed=4, decimals=None)
    with pytest.raises(ParameterError):
        average_self_copula(panel, 0, grid)
    with pytest.raises(ParameterError):
        average_self_copula(rank_panel(panel), -2, grid)
    for empty in ([], np.empty((0, 40))):
        with pytest.raises(DataError, match="empty panel"):
            average_self_copula(empty, 1, grid)
    # n - t must be at least m + 1: 40 - 29 = 11 pairs pass, 40 - 30 = 10 do not
    average_self_copula(panel, 29, grid)
    with pytest.raises(DataError, match="too short"):
        average_self_copula(panel, 30, grid)
    with pytest.raises(DataError):
        average_self_copula([panel[0], panel[1][:-1]], 1, grid)
    with pytest.raises(DataError):
        average_self_copula(panel[0], 1, grid)
    nan_panel = panel.copy()
    nan_panel[1, 5] = np.nan
    with pytest.raises(DataError, match="NaN"):
        average_self_copula(nan_panel, 1, grid)


def test_panel_averaging_shrinks_noise():
    grid = QuantileGrid(20)
    rng = np.random.default_rng(21)
    uv = product_copula(grid)

    def rms_noise(n_series):
        panel = [rng.standard_normal(1500) for _ in range(n_series)]
        surf = average_self_copula(panel, 1, grid)
        return np.sqrt(np.mean((surf.values - uv) ** 2))

    singles = np.mean([rms_noise(1) for _ in range(25)])
    averaged = np.mean([rms_noise(25) for _ in range(4)])
    ratio = averaged / singles
    assert 1 / (5 * 1.6) < ratio < 1.6 / 5   # ~ 1/sqrt(25)


def test_half_panels_agree():
    grid = QuantileGrid(20)
    rng = np.random.default_rng(11)
    panel = [rng.standard_normal(2000) for _ in range(40)]
    a = average_self_copula(panel[:20], 4, grid)
    b = average_self_copula(panel[20:], 4, grid)
    # each half-panel mean has entrywise MC noise ~ 1/(2 sqrt(20 n))
    assert np.abs(a.values - b.values).max() < 0.02


def test_psi_zero_for_product_copula(grid):
    surfaces = [_surface_from_values(grid, product_copula(grid), lag=t) for t in (1, 2, 3)]
    psi = psi_accumulate(surfaces, n=1000)
    assert np.abs(psi.values).max() == 0.0


def test_psi_constant_delta(grid):
    u = grid.points
    i_vals = np.minimum.outer(u, u) - np.outer(u, u)
    d = 0.17
    surf = _surface_from_values(grid, product_copula(grid) + d * i_vals, lag=1)
    psi = psi_accumulate([surf], n=1000)
    assert_allclose(psi.values, 2 * (1 - 1 / 1000) * d, rtol=1e-12)


def test_psi_symmetry_and_checks(grid):
    rng = np.random.default_rng(12)
    surfaces = [
        _surface_from_values(grid, product_copula(grid) + 1e-3 * rng.random((100, 100)), lag=t)
        for t in (1, 2)
    ]
    psi = psi_accumulate(surfaces, n=500)
    assert np.array_equal(psi.values, psi.values.T)
    assert psi.t_max == 2
    with pytest.raises(DataError):
        psi_accumulate([surfaces[0], surfaces[0]], n=500)  # duplicate lag
    with pytest.raises(ParameterError):
        psi_accumulate(surfaces, n=2)  # lag beyond sample size
    small = QuantileGrid(10)
    other = _surface_from_values(small, product_copula(small), lag=3)
    with pytest.raises(DataError):
        psi_accumulate([surfaces[0], other], n=500)


def test_psi_of_analytic_ar1_surfaces_sums_the_geometric_series(grid, basis):
    # with expansion surfaces alpha_t = V g^t the weighted lag sum telescopes
    # to 2 g Sigma^2/((1-g)^2 (1+g)) for n >> t_max >> 1
    params = Ar1LogVolParams(0.88, 0.05)
    n, t_max = 10 ** 9, 600
    surfaces = []
    for t in range(1, t_max + 1):
        alpha_t = params.stationary_var * params.g ** t
        coeffs = LagCoefficients(t=t, alpha=alpha_t, beta=0.0, rho=0.0)
        surfaces.append(expansion_surface(grid, coeffs, basis=basis))
    psi = psi_accumulate(surfaces, n=n)
    u = grid.points
    i_vals = np.minimum.outer(u, u) - np.outer(u, u)
    a, _ = basis.tables(grid)
    coeff = 2 * 0.88 * 0.05 / ((1 - 0.88) ** 2 * (1 + 0.88))
    assert_allclose(psi.values * i_vals, coeff * np.outer(a, a), rtol=2e-6, atol=1e-12)


def test_blomqvist_reference_points():
    # odd grid contains u = 1/2 exactly
    grid = QuantileGrid(101)
    assert abs(blomqvist_rho(_surface_from_values(grid, product_copula(grid)))) < 1e-12
    upper = np.minimum.outer(grid.points, grid.points)
    assert_allclose(blomqvist_rho(_surface_from_values(grid, upper)), 1.0, atol=1e-12)
    # even grid interpolates
    grid2 = QuantileGrid(100)
    upper2 = np.minimum.outer(grid2.points, grid2.points)
    assert_allclose(blomqvist_rho(_surface_from_values(grid2, upper2)), 1.0, atol=2e-3)


def test_blomqvist_gaussian_copula(grid):
    vals = gaussian_copula(grid.points, grid.points, rho=0.5)
    assert_allclose(gaussian_copula([0.5], [0.5], 0.5)[0, 0], 1.0 / 3.0, atol=1e-9)
    surf = _surface_from_values(grid, vals)
    assert_allclose(blomqvist_rho(surf), 0.5, atol=2e-3)


def test_delta_diagonal(grid):
    assert delta_diagonal(_surface_from_values(grid, product_copula(grid)), 0.5 - 1 / 202) == 0.0
    u_val = grid.points[10]
    upper = np.minimum.outer(grid.points, grid.points)
    assert_allclose(delta_diagonal(_surface_from_values(grid, upper), u_val), 1.0, rtol=1e-12)
    with pytest.raises(ParameterError):
        delta_diagonal(_surface_from_values(grid, upper), 0.123456)


def test_delta_diagonal_gaussian_tail(grid):
    vals = gaussian_copula(grid.points, grid.points, rho=0.5)
    surf = _surface_from_values(grid, vals)
    u = grid.points[-6]  # 0.950495...
    expected = (gaussian_copula([u], [u], 0.5)[0, 0] - u * u) / (u * (1 - u))
    assert_allclose(delta_diagonal(surf, u), expected, rtol=1e-9)
