import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import gammaln, kv, ndtr, ndtri

from depgof import QuantileGrid, _pool, get_basis

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def grid():
    return QuantileGrid(100)


@pytest.fixture(scope="session")
def basis():
    return get_basis()


@pytest.fixture
def blas():
    """numpy's OpenBLAS at two threads for the test, its count restored after."""
    found = _pool._openblas()
    if found is None:
        pytest.skip("numpy has no OpenBLAS of its own to pin")
    get, put = found
    before = get()
    put(2)
    try:
        yield get
    finally:
        put(before)


# --- independent oracles shared by several test modules --------------------

def kolmogorov_series(k):
    """Classical KS limit CDF, summed directly."""
    k = np.atleast_1d(np.asarray(k, float))
    j = np.arange(1, 200)
    out = 1.0 - 2.0 * ((-1.0) ** (j - 1) * np.exp(-2.0 * j ** 2 * k[:, None] ** 2)).sum(axis=1)
    return out if out.size > 1 else float(out[0])


def kolmogorov_quantile(p):
    return brentq(lambda k: kolmogorov_series(k) - p, 0.2, 3.0, xtol=1e-12)


def cramer_von_mises_series(z):
    """Classical omega^2 CDF via the Bessel-K expansion."""
    z = np.atleast_1d(np.asarray(z, float))
    out = np.zeros_like(z)
    for j in range(8):
        coef = np.exp(gammaln(2 * j + 1) - 2 * gammaln(j + 1) - j * np.log(4.0))
        a = (4 * j + 1) ** 2 / (16.0 * z)
        out += coef * np.sqrt(4 * j + 1) * np.exp(-a) * kv(0.25, a)
    out /= np.pi * np.sqrt(z)
    return out if out.size > 1 else float(out[0])


def cramer_von_mises_quantile(p):
    return brentq(lambda z: cramer_von_mises_series(z) - p, 0.02, 2.5, xtol=1e-12)


def gaussian_copula(u, v, rho, nodes=400):
    """C(u,v) = integral_0^u Phi((ndtri(v) - rho ndtri(t)) / sqrt(1-rho^2)) dt."""
    u = np.atleast_1d(np.asarray(u, float))
    v = np.atleast_1d(np.asarray(v, float))
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (x + 1.0)[None, :] * u[:, None]          # (nu, nodes)
    wt = 0.5 * u[:, None] * w[None, :]
    inner = ndtr((ndtri(v)[None, None, :] - rho * ndtri(t)[:, :, None])
                 / np.sqrt(1.0 - rho ** 2))             # (nu, nodes, nv)
    return np.einsum("ij,ijk->ik", wt, inner)           # (nu, nv)
