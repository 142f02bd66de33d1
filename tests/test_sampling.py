from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.signal import lfilter

from depgof import (
    Ar1LogVolParams,
    FgnLogVolParams,
    NumericalError,
    ParameterError,
    PipelineConfig,
    QuantileGrid,
    StochasticVolParams,
    ar1_alpha,
    calibrate_volvol,
    fgn_alpha,
    gen_ar1_logvol,
    gen_fgn_logvol,
    gen_iid_lognormal_vol,
)
from depgof import sampling
from depgof.copulas import self_copula_at_lag
from depgof.runner import generate_panel

AR1 = Ar1LogVolParams(g=0.88, sigma2=0.05)
FGN = FgnLogVolParams(nu=0.4, sigma2=1.0)


@pytest.mark.parametrize("g,sigma2", [(1.0, 0.05), (1.2, 0.05), (-0.1, 0.05),
                                      (0.5, 0.0), (0.5, -1.0)])
def test_ar1_params_domain(g, sigma2):
    with pytest.raises(ParameterError):
        Ar1LogVolParams(g=g, sigma2=sigma2)


def test_ar1_alpha_values():
    assert_allclose(ar1_alpha(AR1, 0), 0.05 / (1 - 0.88 ** 2), rtol=1e-12)
    assert_allclose(ar1_alpha(AR1, 0), 0.221631, atol=5e-7)
    assert_allclose(ar1_alpha(AR1, 1), 0.195035, atol=5e-7)
    assert ar1_alpha(Ar1LogVolParams(g=0.0, sigma2=0.3), 1) == 0.0
    with pytest.raises(ParameterError):
        ar1_alpha(AR1, -1)


def test_ar1_determinism():
    a = gen_ar1_logvol(AR1, 2500, seed=7)
    b = gen_ar1_logvol(AR1, 2500, seed=7)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, gen_ar1_logvol(AR1, 2500, seed=8))


@settings(max_examples=60, deadline=None)
@given(g=st.floats(0.0, 0.99), sigma2=st.floats(1e-4, 5.0), n=st.integers(2, 3000),
       seed=st.integers(0, 2 ** 32 - 1), spawned=st.booleans())
@example(g=0.88, sigma2=0.05, n=2, seed=0, spawned=False)
@example(g=0.0, sigma2=1.0, n=3, seed=1, spawned=True)
@example(g=0.99, sigma2=0.05, n=2500, seed=2, spawned=True)
def test_ar1_recursion_is_the_lfilter_path(g, sigma2, n, seed, spawned):
    """The AR(1) generator gives the bytes of the IIR-filter construction."""
    params = Ar1LogVolParams(g=g, sigma2=sigma2)
    seed = np.random.SeedSequence(entropy=seed, spawn_key=(1, 3)) if spawned else seed
    x, omega = gen_ar1_logvol(params, n, seed, return_logvol=True)
    rng = np.random.default_rng(seed)
    drive = np.empty(n)
    drive[0] = rng.standard_normal() * np.sqrt(params.stationary_var)
    drive[1:] = rng.standard_normal(n - 1) * np.sqrt(sigma2)
    expected = lfilter([1.0], [1.0, -g], drive)
    assert omega.tobytes() == expected.tobytes()
    expected_x = rng.standard_normal(n) * np.exp(expected - params.stationary_var)
    assert x.tobytes() == expected_x.tobytes()


def _per_series_ar1(params, n, seed):
    """The AR(1) generator as it was, one series and one Python-float recursion
    per call: the reference for the recursion over a panel's columns."""
    rng = np.random.default_rng(seed)
    v = params.stationary_var
    drive = np.empty(n)
    drive[0] = rng.standard_normal() * np.sqrt(v)
    drive[1:] = rng.standard_normal(n - 1) * np.sqrt(params.sigma2)
    path = drive.tolist()
    for i in range(1, n):
        path[i] += params.g * path[i - 1]
    omega = np.array(path)
    return rng.standard_normal(n) * np.exp(omega - v), omega


@settings(max_examples=40, deadline=None)
@given(g=st.floats(0.0, 0.99), sigma2=st.floats(1e-4, 5.0), n=st.integers(2, 1200),
       k=st.integers(1, 12), entropy=st.integers(0, 2 ** 32 - 1))
@example(g=0.88, sigma2=0.05, n=2, k=1, entropy=0)
@example(g=0.88, sigma2=0.05, n=1000, k=12, entropy=9101)
def test_ar1_panel_is_the_per_series_generator(g, sigma2, n, k, entropy):
    params = Ar1LogVolParams(g=g, sigma2=sigma2)
    seeds = [np.random.SeedSequence(entropy=entropy, spawn_key=(1, j)) for j in range(k)]
    x, omega = gen_ar1_logvol(params, n, seeds, return_logvol=True)
    assert x.shape == omega.shape == (n, k)
    for j, seed in enumerate(seeds):
        x_j, omega_j = _per_series_ar1(params, n, seed)
        assert x[:, j].tobytes() == x_j.tobytes()
        assert omega[:, j].tobytes() == omega_j.tobytes()
        # one seed is the panel of one column
        assert gen_ar1_logvol(params, n, seed).tobytes() == x_j.tobytes()
    assert gen_ar1_logvol(params, n, tuple(seeds)).tobytes() == x.tobytes()


def test_ar1_generated_panel_is_the_per_series_generator():
    config = PipelineConfig(model="ar1", n=700, replications=9, seed=31)
    panel = generate_panel(config)
    for j, (_, col) in enumerate(panel.columns()):
        seed = np.random.SeedSequence(entropy=31, spawn_key=(1, j))
        assert col.tobytes() == _per_series_ar1(AR1, 700, seed)[0].tobytes()


def test_ar1_lag1_autocovariance():
    reps, n = 60, 2500
    acov = np.empty(reps)
    for r in range(reps):
        _, om = gen_ar1_logvol(AR1, n, seed=100 + r, return_logvol=True)
        acov[r] = np.mean((om[:-1] - om.mean()) * (om[1:] - om.mean()))
    se = acov.std(ddof=1) / np.sqrt(reps)
    assert abs(acov.mean() - 0.195035) < 4 * se


def test_ar1_stationarity_windows():
    _, om = gen_ar1_logvol(AR1, 80_000, seed=3, return_logvol=True)
    half = om.size // 2
    v = AR1.stationary_var
    # variance of a window mean of an AR(1) path
    var_mean = v / half * (1 + AR1.g) / (1 - AR1.g)
    diff_mean = om[:half].mean() - om[half:].mean()
    assert abs(diff_mean) < 4 * np.sqrt(2 * var_mean)
    var_var = 2 * v ** 2 / half * (1 + AR1.g ** 2) / (1 - AR1.g ** 2)
    diff_var = om[:half].var() - om[half:].var()
    assert abs(diff_var) < 4 * np.sqrt(2 * var_var)


def test_ar1_without_memory_gives_product_copula():
    x = gen_ar1_logvol(Ar1LogVolParams(g=0.0, sigma2=0.05), 20_000, seed=11)
    grid = QuantileGrid(20)
    surf = self_copula_at_lag(x, 1, grid)
    uv = np.outer(grid.points, grid.points)
    assert np.abs(surf.values - uv).max() < 0.03


@pytest.mark.parametrize("nu,sigma2", [(0.0, 1.0), (1.5, 1.0), (0.4, 0.0)])
def test_fgn_params_domain(nu, sigma2):
    with pytest.raises(ParameterError):
        FgnLogVolParams(nu=nu, sigma2=sigma2)


def test_fgn_alpha_values():
    assert_allclose(fgn_alpha(FGN, 0), 1.0, rtol=1e-14)
    assert_allclose(fgn_alpha(FGN, 1), (2 ** 1.6 - 2) / 2, rtol=1e-14)
    assert_allclose(fgn_alpha(FGN, 1), 0.51572, atol=5e-6)
    # iid boundary: second difference of t^1 vanishes for t >= 1
    iid = FgnLogVolParams(nu=1.0, sigma2=1.0)
    assert_allclose(fgn_alpha(iid, np.arange(1, 10)), 0.0, atol=1e-12)


def _fgn_alpha_60_digits(nu, t):
    """alpha_t at sigma2 = 1 as the plain second difference, in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        e = 2 - Decimal(nu)
        return np.array([float((Decimal(j + 1) ** e - 2 * Decimal(j) ** e
                                + abs(Decimal(j - 1)) ** e) / 2) for j in t.tolist()])


@pytest.mark.parametrize("nu", [1e-6, 0.4, 0.999])
def test_fgn_alpha_does_not_cancel(nu):
    """The second difference cancels terms of size t^2 down to about t^(-nu);
    formed directly it is 1e-8 (nu = 0.4) to 3e-5 (nu = 0.999) off by t = 10^4."""
    t = np.unique(np.concatenate([np.arange(60), np.geomspace(60, 10_000, 120).astype(int)]))
    params = FgnLogVolParams(nu=nu, sigma2=1.0)
    assert_allclose(fgn_alpha(params, t), _fgn_alpha_60_digits(nu, t), rtol=1e-8, atol=0)


def test_fgn_draws_at_the_shortest_memory_and_a_long_series():
    """At nu = 1e-6 and n = 10^4 the cancelling second difference gave the
    embedding a negative eigenvalue (-1.5e-6), and the draw was refused."""
    x = gen_fgn_logvol(FgnLogVolParams(nu=1e-6, sigma2=1.0), 10_000, seed=3)
    assert x.shape == (10_000,) and np.isfinite(x).all()


def test_fgn_alpha_power_law_tail():
    nu = FGN.nu
    t = 1e4
    asym = FGN.sigma2 * (2 - 3 * nu + nu ** 2) * t ** (-nu) / 2
    assert abs(fgn_alpha(FGN, t) / asym - 1) < 0.01


def test_fgn_sample_covariance():
    # every lag up to n - 1, over every pair of times: the lags past n/2 are where
    # the embedded row of length 2n - 2 wraps around
    reps, n = 10_000, 8
    _, oms = gen_fgn_logvol(FGN, n, [500 + r for r in range(reps)], return_logvol=True)
    for lag in range(n):
        prods = (oms[:n - lag] * oms[lag:]).mean(axis=0)
        se = prods.std(ddof=1) / np.sqrt(reps)
        assert abs(prods.mean() - fgn_alpha(FGN, lag)) < 3 * se, f"lag {lag}"


def test_fgn_embedding_refuses_a_row_that_is_not_positive_definite(monkeypatch):
    # alpha = (1, -0.2, -0.9) embeds as (1, -0.2, -0.9, -0.2), whose eigenvalues
    # are -0.3, 1.9 and 0.5: the draw is refused, not clipped
    monkeypatch.setattr(sampling, "fgn_alpha", lambda params, t: np.array([1.0, -0.2, -0.9]))
    with pytest.raises(NumericalError, match=r"smallest eigenvalue -0\.3 "):
        gen_fgn_logvol(FGN, 3, seed=0)


_GENERATORS = {"ar1": (gen_ar1_logvol, AR1), "fgn": (gen_fgn_logvol, FGN),
               "iid": (gen_iid_lognormal_vol, StochasticVolParams(0.5))}


@pytest.mark.parametrize("k", [1, 3, 7])
@pytest.mark.parametrize("model", sorted(_GENERATORS))
def test_panel_column_is_its_seeds_series(model, k):
    gen, params = _GENERATORS[model]
    n = 301
    seeds = [np.random.SeedSequence(entropy=77, spawn_key=(1, j)) for j in range(k)]
    x = gen(params, n, seeds)
    assert x.shape == (n, k)
    for j in range(k):
        assert x[:, j].tobytes() == gen(params, n, seeds[j]).tobytes(), j
    if model != "iid":
        x_l, omega = gen(params, n, seeds, return_logvol=True)
        assert x_l.tobytes() == x.tobytes()
        for j in range(k):
            x_j, omega_j = gen(params, n, seeds[j], return_logvol=True)
            assert x_l[:, j].tobytes() == x_j.tobytes(), j
            assert omega[:, j].tobytes() == omega_j.tobytes(), j


def test_fgn_determinism():
    a = gen_fgn_logvol(FGN, 300, seed=2)
    assert np.array_equal(a, gen_fgn_logvol(FGN, 300, seed=2))


def test_iid_determinism():
    params = StochasticVolParams(s=0.5)
    a = gen_iid_lognormal_vol(params, 300, seed=2)
    assert np.array_equal(a, gen_iid_lognormal_vol(params, 300, seed=2))


def test_iid_lognormal_kurtosis():
    x = gen_iid_lognormal_vol(StochasticVolParams(s=0.5), 1_000_000, seed=21)
    m2 = np.mean(x ** 2)
    m4 = np.mean(x ** 4)
    kurt = m4 / m2 ** 2
    se4 = np.std(x ** 4, ddof=1) / np.sqrt(x.size)
    # 3 e^{4 s^2} = 8.1548; tolerance from the fourth-moment noise alone
    assert abs(kurt - 3 * np.exp(4 * 0.25)) < 4 * se4 / m2 ** 2
    assert abs(m2 - 1.0) < 4 * np.std(x ** 2, ddof=1) / np.sqrt(x.size)


def test_iid_lognormal_zero_volvol_is_gaussian():
    x = gen_iid_lognormal_vol(StochasticVolParams(s=0.0), 200_000, seed=4)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    assert abs(np.mean(x ** 3)) < 0.02


@pytest.mark.parametrize("gen", [
    lambda seed: gen_ar1_logvol(AR1, 500, seed),
    lambda seed: gen_fgn_logvol(FGN, 500, seed),
    lambda seed: gen_iid_lognormal_vol(StochasticVolParams(0.5), 500, seed),
])
def test_unit_second_moment(gen):
    reps = 200
    m2 = np.array([np.mean(gen(seed) ** 2) for seed in range(reps)])
    se = m2.std(ddof=1) / np.sqrt(reps)
    assert abs(m2.mean() - 1.0) < 4 * se


def test_calibrate_volvol_signs_and_roundtrip():
    with pytest.warns(RuntimeWarning):
        s2 = calibrate_volvol(np.array([1.0, -1.0] * 50))
    assert_allclose(s2, np.log(2 / np.pi), rtol=1e-12)

    x = gen_iid_lognormal_vol(StochasticVolParams(s=0.5), 200_000, seed=9)
    assert abs(calibrate_volvol(x) - 0.25) < 0.02

    g = np.random.default_rng(0).standard_normal(1_000_000)
    assert abs(calibrate_volvol(g)) < 0.01

    with pytest.raises(ParameterError):
        calibrate_volvol(np.zeros(100))


def test_generator_length_checks():
    with pytest.raises(ParameterError):
        gen_ar1_logvol(AR1, 1, seed=0)
    with pytest.raises(ParameterError):
        gen_fgn_logvol(FGN, 1, seed=0)
    with pytest.raises(ParameterError):
        gen_iid_lognormal_vol(StochasticVolParams(0.2), 0, seed=0)
