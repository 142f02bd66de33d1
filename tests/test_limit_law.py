import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import erf
from scipy.stats import kstest, norm

from depgof import (
    Ar1LogVolParams,
    DataError,
    GofResult,
    ParameterError,
    PerturbativeInputs,
    QuantileGrid,
    Spectrum,
    StatisticDistribution,
    brownian_bridge_kernel,
    build_kernel_ar1,
    cm_moments,
    eigendecompose,
    gen_ar1_logvol,
    p_value,
    perturbative_spectrum,
    reduction_ratio,
    run_gof_test,
    run_gof_tests,
    simulate_iid_statistic_distribution,
    simulate_statistic_distribution,
    uniformity_pvalue,
    vol_model_cdf,
    vol_model_quantiles,
)
from depgof.limit_law import _BLOCK, _CHUNK, sup_distance
from conftest import kolmogorov_series


def _dist(kind, samples, m=100):
    samples = np.sort(np.asarray(samples, dtype=float))
    return StatisticDistribution(kind=kind, samples=samples, spectrum_digest="test", grid_m=m)


def test_simulated_law_moments():
    # eigenvectors on the coordinate axes make the bridge coordinates independent
    # N(0, (m+1) lam_i): CM = sum_i lam_i z_i^2 has mean sum lam and variance
    # 2 sum lam^2, and KS = max |y_i| has the CDF prod_i erf(k / sqrt(2 (m+1) lam_i))
    grid = QuantileGrid(20)
    lam = 0.05 / np.arange(1, 21) ** 2
    spec = Spectrum(grid=grid, eigenvalues=lam, eigenvectors=np.eye(20) * math.sqrt(21),
                    digest="axes")
    ks, cm = simulate_statistic_distribution(spec, 30_000, seed=5)
    x = cm.samples
    assert abs(x.mean() - lam.sum()) < 4.5 * math.sqrt(2 * np.sum(lam ** 2) / x.size)
    se_var = np.sqrt(np.var((x - x.mean()) ** 2) / x.size)
    assert abs(x.var(ddof=1) - 2 * np.sum(lam ** 2)) < 4.5 * se_var
    sd = np.sqrt(21 * lam)

    def ks_cdf(k):
        return np.prod(erf(np.asarray(k)[..., None] / (math.sqrt(2) * sd)), axis=-1)

    assert kstest(ks.samples, ks_cdf).pvalue > 1e-3


def test_single_mode_draws_are_proportional_to_eigenvector():
    # every draw is sqrt(lam) z U: KS^2 / CM = max U^2 / <U, U> in each trial,
    # and both laws are sorted by |z|
    grid = QuantileGrid(15)
    vec = grid.sine_mode(1)[:, None]
    spec = Spectrum(grid=grid, eigenvalues=np.array([0.2]), eigenvectors=vec,
                    digest="rank1")
    ks, cm = simulate_statistic_distribution(spec, 10_000, seed=3)
    ratio = ks.samples ** 2 / cm.samples
    expected = np.max(vec ** 2) / grid.integrate(vec[:, 0] ** 2)
    assert np.abs(ratio / expected - 1.0).max() < 1e-12


def test_simulate_warns_on_few_trials(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    with pytest.warns(RuntimeWarning):
        simulate_statistic_distribution(spec, 2000, seed=1)


def test_simulate_deterministic_and_thread_independent(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    a_ks, a_cm = simulate_statistic_distribution(spec, 50_000, seed=7)
    b_ks, b_cm = simulate_statistic_distribution(spec, 50_000, seed=7, n_threads=2)
    assert np.array_equal(a_ks.samples, b_ks.samples)
    assert np.array_equal(a_cm.samples, b_cm.samples)
    assert a_ks.spectrum_digest == spec.digest


_SMALL_SPECTRUM = eigendecompose(build_kernel_ar1(Ar1LogVolParams(0.6, 0.1), QuantileGrid(10)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
@settings(max_examples=15, deadline=None)
@given(n_trials=st.integers(1, 3 * _CHUNK + 5), seed=st.integers(0, 2 ** 32 - 1))
@example(n_trials=_CHUNK, seed=0)
@example(n_trials=2 * _CHUNK + 1, seed=1)
def test_chunk_driver_invariants(n_trials, seed):
    laws = [simulate_statistic_distribution(_SMALL_SPECTRUM, n_trials, seed, n_threads=t)
            for t in (1, 2, 3)]
    for ks, cm in laws[1:]:
        assert ks.samples.tobytes() == laws[0][0].samples.tobytes()
        assert cm.samples.tobytes() == laws[0][1].samples.tobytes()
    for dist in (*laws[0], *simulate_iid_statistic_distribution(10, n_trials, seed)):
        assert dist.samples.size == n_trials
        assert np.all(np.diff(dist.samples) >= 0)


def test_cm_moment_cross_check(grid):
    kernel = build_kernel_ar1(Ar1LogVolParams(0.88, 0.05), grid)
    spec = eigendecompose(kernel)
    _, cm = simulate_statistic_distribution(spec, 200_000, seed=11)
    mean, var = cm_moments(kernel)
    se_mean = cm.samples.std(ddof=1) / math.sqrt(cm.n_trials)
    assert abs(cm.samples.mean() - mean) < 4 * se_mean
    v = cm.samples.var(ddof=1)
    se_var = np.sqrt(np.var((cm.samples - cm.samples.mean()) ** 2) / cm.n_trials)
    assert abs(v - var) < 4 * se_var


def test_statistic_bounds_and_monotonicity(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    ks, cm = simulate_statistic_distribution(spec, 20_000, seed=13)
    assert ks.samples.min() >= 0
    assert cm.samples.min() >= 0
    levels = np.linspace(0.05, 0.95, 10)
    q = np.quantile(ks.samples, levels)
    assert np.all(np.diff(q) > 0)


def test_cm_below_m_times_ks_squared(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    synth = (spec.eigenvectors * np.sqrt(spec.eigenvalues)).T
    z = np.random.default_rng(5).standard_normal((2000, spec.n_modes))
    y = z @ synth
    ks = np.abs(y).max(axis=1)
    cm = (y ** 2).sum(axis=1) * grid.weight
    assert np.all(cm <= grid.m * ks ** 2 + 1e-12)
    assert np.all(cm <= ks ** 2 + 1e-12)


def test_spectrum_and_bridge_routes_agree(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    ks_a, cm_a = simulate_statistic_distribution(spec, 100_000, seed=17)
    ks_b, cm_b = simulate_iid_statistic_distribution(grid.m, 100_000, seed=18)
    # the continuum sup of the bridge route is at least its grid sup
    kgrid = np.linspace(0.3, 2.5, 30)
    da = np.searchsorted(ks_a.samples, kgrid) / ks_a.n_trials
    db = np.searchsorted(ks_b.samples, kgrid) / ks_b.n_trials
    assert np.all(db <= da + 0.005)
    levels = np.arange(0.1, 1.0, 0.1)
    assert np.all(np.quantile(ks_b.samples, levels) > np.quantile(ks_a.samples, levels))
    cgrid = np.linspace(0.02, 1.5, 30)
    da = np.searchsorted(cm_a.samples, cgrid) / cm_a.n_trials
    db = np.searchsorted(cm_b.samples, cgrid) / cm_b.n_trials
    assert np.abs(da - db).max() < 0.01


def test_refined_iid_law_matches_kolmogorov():
    ks, _ = simulate_iid_statistic_distribution(256, 200_000, seed=19)
    kgrid = np.array([0.5, 0.8, 1.0, 1.358])
    ecdf = np.searchsorted(ks.samples, kgrid, side="right") / ks.n_trials
    assert np.abs(ecdf - kolmogorov_series(kgrid)).max() < 0.01


def _iid_draw_reference(m, count, rng):
    """The iid bridge draw written out of place, one temporary per operation."""
    g = QuantileGrid(m)
    w = g.weight
    walk = np.cumsum(rng.standard_normal((count, m + 1)) * math.sqrt(w), axis=1)
    y = np.zeros((count, m + 2))
    y[:, 1:m + 1] = walk[:, :m] - np.outer(walk[:, m], g.points)
    a, c = y[:, :-1], y[:, 1:]
    gap2 = (c - a) ** 2
    hi = 0.5 * ((a + c) + np.sqrt(gap2 - 2.0 * w * np.log(rng.random((count, m + 1)))))
    lo = 0.5 * ((a + c) - np.sqrt(gap2 - 2.0 * w * np.log(rng.random((count, m + 1)))))
    inner = y[:, 1:m + 1]
    return np.maximum(hi, -lo).max(axis=1), np.einsum("ij,ij->i", inner, inner) * w


@pytest.mark.parametrize("m, n_trials, seed",
                         [(10, 1000, 0), (37, 2 * _CHUNK + 7, 5), (100, 4000, 73)])
def test_iid_sampler_matches_the_out_of_place_draw(m, n_trials, seed):
    parts = [_iid_draw_reference(m, min(_CHUNK, n_trials - start), np.random.default_rng(
                 np.random.SeedSequence(entropy=seed, spawn_key=(i,))))
             for i, start in enumerate(range(0, n_trials, _CHUNK))]
    laws = simulate_iid_statistic_distribution(m, n_trials, seed)
    for dist, samples in zip(laws, zip(*parts)):
        assert dist.samples.tobytes() == np.sort(np.concatenate(samples)).tobytes()


def _spectral_laws_reference(spectrum, n_trials, seed):
    """Sorted laws with one matrix product and out-of-place statistics per chunk."""
    synth = (spectrum.eigenvectors * np.sqrt(spectrum.eigenvalues)[None, :]).T
    parts = []
    for i, start in enumerate(range(0, n_trials, _CHUNK)):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        y = rng.standard_normal((min(_CHUNK, n_trials - start), spectrum.n_modes)) @ synth
        parts.append((np.abs(y).max(axis=1), np.einsum("ij,ij->i", y, y) * spectrum.grid.weight))
    return [np.sort(np.concatenate(samples)) for samples in zip(*parts)]


def _ar1_spectrum(m):
    return eigendecompose(build_kernel_ar1(Ar1LogVolParams(0.88, 0.05), QuantileGrid(m)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
@pytest.mark.parametrize("n_threads", [1, 2, 3])
@pytest.mark.parametrize("spectrum, n_trials, seed", [
    (_ar1_spectrum(10), 5000, 0),
    (_ar1_spectrum(37), 2 * _CHUNK + 7, 5),
    (_ar1_spectrum(100), 3 * _CHUNK, 73),
    # 20 modes on 100 points; the last chunk's second row block holds one row
    (perturbative_spectrum(PerturbativeInputs(0.05, 0.02, 0.01), QuantileGrid(100)),
     _CHUNK + _BLOCK + 1, 11),
], ids=["m10", "m37", "m100", "perturbative"])
def test_spectral_sampler_matches_the_one_matmul_draw(spectrum, n_trials, seed, n_threads):
    laws = simulate_statistic_distribution(spectrum, n_trials, seed, n_threads=n_threads)
    for dist, samples in zip(laws, _spectral_laws_reference(spectrum, n_trials, seed)):
        assert dist.samples.tobytes() == samples.tobytes()


_FIG2_SPECTRA = (_ar1_spectrum(100), eigendecompose(brownian_bridge_kernel(QuantileGrid(100))),
                 eigendecompose(build_kernel_ar1(Ar1LogVolParams(0.6, 0.1), QuantileGrid(100))))


@pytest.mark.parametrize("n_threads", [1, 2, 3])
@pytest.mark.parametrize("n_trials", [_CHUNK + 1, 3 * _CHUNK + 1],
                         ids=["1-row tail", "3 chunks + 1"])
def test_shared_draw_gives_each_spectrum_its_own_law(n_trials, n_threads):
    # common random numbers: one set of normals feeds every spectrum, and each
    # spectrum's pair is byte for byte the pair it gets drawn alone
    shared = simulate_statistic_distribution(_FIG2_SPECTRA, n_trials, seed=83, n_threads=n_threads)
    assert len(shared) == len(_FIG2_SPECTRA)
    for spectrum, pair in zip(_FIG2_SPECTRA, shared):
        alone = simulate_statistic_distribution(spectrum, n_trials, seed=83)
        for dist, ref in zip(pair, alone):
            assert (dist.kind, dist.spectrum_digest) == (ref.kind, spectrum.digest)
            assert dist.samples.tobytes() == ref.samples.tobytes()


def test_shared_draw_refuses_spectra_of_another_shape():
    fewer_modes = perturbative_spectrum(PerturbativeInputs(0.05, 0.02, 0.01), QuantileGrid(100))
    for other in (fewer_modes, _ar1_spectrum(50)):
        with pytest.raises(ParameterError, match="one grid and one mode count"):
            simulate_statistic_distribution((_FIG2_SPECTRA[0], other), 20_000, seed=1)


def test_law_memory_is_bounded_by_the_row_blocks():
    # two workers, each with one (_BLOCK, n_modes) normal block and one (_BLOCK, m)
    # product, plus the two n_trials sample arrays; 25 % slack
    spectrum, n_trials, workers = _ar1_spectrum(100), 100_000, 2
    bound = 8 * (workers * _BLOCK * (spectrum.n_modes + spectrum.grid.m) + 2 * n_trials)
    tracemalloc.start()
    try:
        simulate_statistic_distribution(spectrum, n_trials, seed=1, n_threads=workers)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * bound, f"peak {peak / 1e6:.1f} MB, design bound {bound / 1e6:.1f} MB"


def test_dependent_law_dominates_iid(grid):
    iid = eigendecompose(brownian_bridge_kernel(grid))
    dep = eigendecompose(build_kernel_ar1(Ar1LogVolParams(0.88, 0.05), grid))
    iid_ks, iid_cm = simulate_statistic_distribution(iid, 100_000, seed=23)
    dep_ks, dep_cm = simulate_statistic_distribution(dep, 100_000, seed=29)
    deciles = np.arange(0.1, 1.0, 0.1)
    assert np.all(np.quantile(dep_ks.samples, deciles)
                  > np.quantile(iid_ks.samples, deciles))
    assert np.all(np.quantile(dep_cm.samples, deciles)
                  > np.quantile(iid_cm.samples, deciles))


def test_p_value_convention():
    dist = _dist("ks", [1.0, 2.0, 3.0, 4.0])
    assert p_value(5.0, dist) == pytest.approx(1 / 5)
    assert p_value(0.5, dist) == pytest.approx(1.0)
    assert p_value(2.5, dist) == pytest.approx(3 / 5)
    assert p_value(2.0, dist) == pytest.approx(4 / 5)  # ties count as >= stat
    stats = np.linspace(0, 5, 40)
    pv = [p_value(s, dist) for s in stats]
    assert np.all(np.diff(pv) <= 0)


def test_run_gof_test_null_pvalues_are_uniform(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    dist_ks, dist_cm = simulate_statistic_distribution(spec, 100_000, seed=31)
    rng = np.random.default_rng(37)
    pks, pcm = [], []
    for _ in range(350):
        x = rng.standard_normal(2000)
        res = run_gof_test(x, norm.ppf(grid.points), dist_ks, dist_cm)
        pks.append(res.ks_p)
        pcm.append(res.cm_p)
    assert kstest(pks, "uniform").pvalue > 0.01
    assert kstest(pcm, "uniform").pvalue > 0.01
    assert uniformity_pvalue(pks) > 0.01


def test_run_gof_test_input_checks(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    dist_ks, dist_cm = simulate_statistic_distribution(spec, 20_000, seed=41)
    x = np.random.default_rng(43).standard_normal(500)
    q = norm.ppf(grid.points)
    with pytest.raises(ParameterError):
        run_gof_test(x, q, dist_cm, dist_ks)  # swapped kinds
    with_nan = q.copy()
    with_nan[40] = np.nan
    for bad in (q[::-1], with_nan, q[:-1]):   # decreasing, NaN, one level short
        with pytest.raises(DataError):
            run_gof_test(x, bad, dist_ks, dist_cm)
    # constant series: degenerate bridge handled without crashing
    res = run_gof_test(np.zeros(100), q, dist_ks, dist_cm)
    assert res.ks_stat > 0
    assert 0 < res.ks_p <= 1


def test_quantile_route_matches_the_cdf_route_on_a_fig2_panel(grid):
    # fig2 shape: 350 AR(1) series of 1000 observations tested at their exact marginal
    params = Ar1LogVolParams(0.88, 0.05)
    s = math.sqrt(params.stationary_var)
    q = vol_model_quantiles(grid, s)
    law_ks, law_cm = _dist("ks", [0.5, 1.0, 2.0]), _dist("cm", [0.1, 0.3, 1.0])
    panel = gen_ar1_logvol(params, 1000, [np.random.SeedSequence(entropy=1, spawn_key=(1, j))
                                          for j in range(350)])
    for x in panel.T:
        res = run_gof_test(x, q, law_ks, law_cm)
        by_cdf = np.searchsorted(np.sort(vol_model_cdf(x, s)), grid.points, side="right") / x.size
        by_q = np.searchsorted(np.sort(x), q, side="right") / x.size
        for i in np.flatnonzero(by_cdf != by_q):
            # a level may flip only for a sample within solver tolerance of q_i
            assert np.abs(x - q[i]).min() <= 1e-12 * (1.0 + abs(q[i]))
        if np.array_equal(by_cdf, by_q):
            y = math.sqrt(x.size) * (by_cdf - grid.points)
            assert res.ks_stat == float(np.abs(y).max())
            assert res.cm_stat == float(np.sum(y * y) * grid.weight)


def test_run_gof_grid_mismatch(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    dist_ks, dist_cm = simulate_statistic_distribution(spec, 20_000, seed=47)
    other = eigendecompose(brownian_bridge_kernel(QuantileGrid(50)))
    ks2, _ = simulate_statistic_distribution(other, 20_000, seed=47)
    with pytest.raises(ParameterError):
        run_gof_test(np.random.default_rng(1).standard_normal(300),
                     norm.ppf(grid.points), ks2, dist_cm)


def test_run_gof_test_against_several_law_pairs(grid):
    # a panel's statistics are computed once; each pair gives the results of
    # a one-pair test of each series alone
    laws = simulate_statistic_distribution(_FIG2_SPECTRA[:2], 20_000, seed=89)
    panel = np.random.default_rng(97).standard_normal((400, 3))
    q = np.tile(norm.ppf(grid.points), (3, 1))
    both = run_gof_tests(panel, q, laws)
    assert both == [[run_gof_test(x, q[0], ks, cm) for x in panel.T] for ks, cm in laws]
    assert both[0][0].ks_p != both[1][0].ks_p
    (ks0, cm0), (ks1, cm1) = laws
    other = _dist("ks", [1.0], m=50), _dist("cm", [1.0], m=50)
    for bad in ([(ks0, cm0), (cm1, ks1)], [(ks0, ks1)], [(ks0, cm0), other]):
        with pytest.raises(ParameterError):
            run_gof_tests(panel, q, bad)
    with_inf = panel.copy()
    with_inf[7, 2] = np.inf
    with pytest.raises(ParameterError, match="non-finite"):
        run_gof_tests(with_inf, q, laws)
    for bad_q in (q[:, ::-1], q[:2], q[:, :-1]):   # decreasing, a row short, a level short
        with pytest.raises(DataError):
            run_gof_tests(panel, bad_q, laws)


def _one_series(x, q, law_ks, law_cm):
    """The test of one series, by the 1-D arithmetic of a series alone."""
    g = QuantileGrid(law_ks.grid_m)
    y = math.sqrt(x.size) * (np.searchsorted(np.sort(x), q, side="right") / x.size - g.points)
    ks, cm = float(np.abs(y).max()), float(np.sum(y * y) * g.weight)
    return GofResult(ks, cm, float(p_value(ks, law_ks)), float(p_value(cm, law_cm)))


def _result_bits(results):
    return np.array([[r.ks_stat, r.cm_stat, r.ks_p, r.cm_p] for r in results]).tobytes()


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([10, 15, 100, 599]), pairs=st.integers(1, 3), k=st.integers(1, 5),
       n=st.integers(2, 400), seed=st.integers(0, 2 ** 32 - 1), digits=st.sampled_from([1, 17]))
@example(m=599, pairs=3, k=5, n=400, seed=0, digits=1)
def test_panel_pass_is_each_series_alone(m, pairs, k, n, seed, digits):
    # rounded values tie with each other and with the rounded quantiles, and
    # some law samples are statistics of the panel, so p-values meet ties too
    rng = np.random.default_rng(seed)
    q = np.round(np.sort(rng.standard_normal((k, m)), axis=1), digits)
    panel = np.round(rng.standard_normal((n, k)), digits)
    panel[rng.integers(0, n, k), np.arange(k)] = q[np.arange(k), rng.integers(0, m, k)]
    stub = _dist("ks", [1.0], m), _dist("cm", [1.0], m)
    alone = [_one_series(x, qj, *stub) for x, qj in zip(panel.T, q)]
    laws = [(_dist("ks", np.concatenate([rng.gamma(2.0, 0.5, 50), [r.ks_stat for r in alone]]), m),
             _dist("cm", np.concatenate([rng.gamma(1.0, 0.2, 50), [r.cm_stat for r in alone]]), m))
            for _ in range(pairs)]
    together = run_gof_tests(panel, q, laws)
    assert len(together) == pairs
    for (law_ks, law_cm), results in zip(laws, together):
        expected = [_one_series(x, qj, law_ks, law_cm) for x, qj in zip(panel.T, q)]
        assert _result_bits(results) == _result_bits(expected)
        assert results == [run_gof_test(x, qj, law_ks, law_cm) for x, qj in zip(panel.T, q)]


def test_reduction_ratio(grid):
    spec = eigendecompose(brownian_bridge_kernel(grid))
    iid_ks, iid_cm = simulate_statistic_distribution(spec, 50_000, seed=59)
    assert reduction_ratio(iid_ks, iid_ks, 0.95) == pytest.approx(1.0)
    dep = eigendecompose(build_kernel_ar1(Ar1LogVolParams(0.88, 0.05), grid))
    dep_ks, dep_cm = simulate_statistic_distribution(dep, 50_000, seed=61)
    assert reduction_ratio(dep_ks, iid_ks, 0.95) > 1.0
    # a level array gives, bitwise, each level's scalar ratio and the ratio of np.quantile's
    levels = np.round(np.arange(0.05, 1.0, 0.05), 2)
    ratios = reduction_ratio(dep_cm, iid_cm, levels)
    assert ratios.shape == levels.shape
    assert ratios.tobytes() == np.array([reduction_ratio(dep_cm, iid_cm, u)
                                         for u in levels]).tobytes()
    assert ratios.tobytes() == (np.quantile(dep_cm.samples, levels)
                                / np.quantile(iid_cm.samples, levels)).tobytes()
    assert type(reduction_ratio(dep_cm, iid_cm, levels[3])) is float
    for bad in (0.0, 1.0, -0.1, np.nan, [0.5, 1.5], [0.0, 0.5], [0.5, np.nan]):
        with pytest.raises(ParameterError, match="inside"):
            reduction_ratio(dep_ks, iid_ks, bad)
    for u in (0.95, levels):
        with pytest.raises(ParameterError, match="kinds differ"):
            reduction_ratio(dep_ks, iid_cm, u)
    # reproducible across seeds within 1%
    dep_ks2, _ = simulate_statistic_distribution(dep, 50_000, seed=67)
    iid_ks2, _ = simulate_statistic_distribution(spec, 50_000, seed=71)
    r1 = reduction_ratio(dep_ks, iid_ks, 0.95)
    r2 = reduction_ratio(dep_ks2, iid_ks2, 0.95)
    assert abs(r1 / r2 - 1) < 0.01


def test_grid_refinement_stability():
    qs = {}
    for m in (256, 512):
        ks, cm = simulate_iid_statistic_distribution(m, 400_000, seed=73)
        qs[m] = (np.quantile(ks.samples, 0.95), np.quantile(cm.samples, 0.95))
    assert abs(qs[512][0] / qs[256][0] - 1) < 0.01
    assert abs(qs[512][1] / qs[256][1] - 1) < 0.01


def test_uniformity_pvalue_detects_shift():
    rng = np.random.default_rng(79)
    assert uniformity_pvalue(rng.random(400)) > 0.01
    assert uniformity_pvalue(rng.random(400) * 0.5) < 1e-6


def test_uniformity_pvalue_keeps_tiny_tail():
    # 1 - K(k) cancels to 0 once K(k) rounds to 1; the tail series does not
    p = np.linspace(0.001, 0.5, 350)
    k = math.sqrt(p.size) * sup_distance(p)
    j = np.arange(1, 5)
    tail = 2.0 * np.sum((-1.0) ** (j - 1) * np.exp(-2.0 * j ** 2 * k ** 2))
    assert tail > 1e-77
    assert_allclose(uniformity_pvalue(p), tail, rtol=1e-10)
