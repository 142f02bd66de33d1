"""depgof's own special functions against scipy's, the reference they replaced."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.special import erfcx, kolmogorov, ndtr, ndtri, roots_hermite

from depgof import _special

FLOOR = 2.0 ** -80


def _lower_tail(z):
    """Phi(z) = erfcx(-z/sqrt 2)/2 * exp(-z^2/2), the exponential in 40-digit decimal
    arithmetic.  scipy's ndtr squares z/sqrt 2 after rounding it, which costs it
    up to 2.4e-13 of relative error below z = -30, more than the bound below."""
    with localcontext() as ctx:
        ctx.prec = 40
        gauss = np.array([float((-Decimal(v) * Decimal(v) / 2).exp()) for v in z.tolist()])
    return 0.5 * erfcx(-z / math.sqrt(2.0)) * gauss


def test_ndtr_against_scipy():
    z = np.linspace(-40.0, 40.0, 400_001)
    phi = _special.ndtr(z)
    ref = ndtr(z)
    assert np.abs(phi - ref).max() <= 2.0 ** -52
    tail = z < -20.0
    ref[tail] = _lower_tail(z[tail])
    normal = ref >= 1e-300
    assert np.abs(phi[normal] / ref[normal] - 1.0).max() <= 1e-13
    # nan stays nan, the infinities are the limits, and the shape is z's
    assert np.array_equal(_special.ndtr(np.array([np.nan, -np.inf, np.inf, 0.0])),
                          [np.nan, 0.0, 1.0, 0.5], equal_nan=True)
    assert np.array_equal(_special.ndtr(z[:20].reshape(5, 4)), phi[:20].reshape(5, 4))
    assert _special.ndtr(-1.5).shape == ()


def test_ndtri_start_is_within_acklams_bound():
    p = np.concatenate((np.logspace(-300, -1, 3000), np.linspace(0.01, 0.99, 9999),
                        1.0 - np.logspace(-16, -2, 300)))
    start, ref = _special.ndtri_start(p), ndtri(p)
    assert np.all(np.abs(start - ref) <= 1.15e-9 * np.abs(ref) + 1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 384, 768])
def test_hermite_rule_against_scipy(n):
    nodes, weights = _special.hermite_rule(n, FLOOR)
    t, w = roots_hermite(n)
    omega, mass = math.sqrt(2.0) * t, w / math.sqrt(math.pi)
    kept = mass >= FLOOR
    assert nodes.size == kept.sum()
    assert np.abs(nodes - omega[kept]).max() <= 1e-13
    assert np.abs(weights / mass[kept] - 1.0).max() <= 1e-12
    assert mass[~kept].sum() < 2e-24
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    assert np.all(np.diff(nodes) > 0)


def test_the_default_rule_keeps_126_of_384_nodes():
    nodes, weights = _special.hermite_rule(384, FLOOR)
    assert nodes.size == 126
    assert weights.min() >= FLOOR


def test_kolmogorov_sf_against_scipy():
    x = np.linspace(0.05, 6.0, 20_001)
    sf = np.array([_special.kolmogorov_sf(v) for v in x])
    assert np.abs(sf / kolmogorov(x) - 1.0).max() <= 1e-14
    assert _special.kolmogorov_sf(0.0) == 1.0
