"""Parametric log-normal volatility copula family.

For X = xi e^{s w} with w, xi independent standard normals, the marginal
CDF is F(x) = E_w[Phi(x e^{-s w})] and the small-dependence expansion of
the lag copula is

    C_t(u,v) - uv ~ alpha_t A(u)A(v) - beta_t R(u)A(v) + rho_t R(u)R(v)

with the two basis functions

    A(u) = E_w[phi'(F^{-1}(u) e^{-s w})]   (odd about u = 1/2),
    R(u) = E_w[phi(F^{-1}(u) e^{-s w})]    (even about u = 1/2),

where alpha_t is the log-vol autocovariance, beta_t the leverage
coefficient and rho_t the residual correlation.  The beta term is the only
asymmetric one.  The reference normalization is s = 1, used for all
tabulated constants; pass the model's own log-vol standard deviation as s
when the expansion should match a specific generator.

All integrals over w use Gauss-Hermite quadrature.  The default node
count is chosen so that doubling it moves the basis tables by less than
1e-9.  Instances precompute nothing; grid tables are cached on first use
and are safe to share across threads read-only.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.special import ndtr, roots_hermite

from .errors import ParameterError

DEFAULT_QUADRATURE_NODES = 384


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _dphi(z):
    return -z * _phi(z)


class LogNormalVolBasis:
    """Marginal CDF, quantile and expansion basis at one vol-of-vol scale."""

    def __init__(self, s=1.0, nodes=DEFAULT_QUADRATURE_NODES):
        if s < 0:
            raise ParameterError(f"vol-of-vol scale must be >= 0, got s={s}")
        self.s = float(s)
        self.nodes = int(nodes)
        t, w = roots_hermite(self.nodes)
        self._omega = math.sqrt(2.0) * t          # N(0,1) nodes
        self._weights = w / math.sqrt(math.pi)
        self._grid_tables = {}

    def _expect(self, f, x):
        """E_w[f(x e^{-s w})] for each x, by Gauss-Hermite quadrature."""
        return f(x[..., None] * np.exp(-self.s * self._omega)) @ self._weights

    def cdf(self, x):
        """Marginal CDF F(x) = E[Phi(x e^{-s w})]; F(-x) = 1 - F(x)."""
        return self._expect(ndtr, np.asarray(x, dtype=float))

    def quantile(self, u):
        """Inverse marginal CDF by bracketed root finding (|residual| < 1e-10)."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any((u_arr <= 0.0) | (u_arr >= 1.0)):
            raise ParameterError("quantile level must lie strictly inside (0,1)")
        out = np.empty_like(u_arr)
        for i, ui in enumerate(u_arr):
            hi = 60.0
            while self.cdf(hi) < ui:
                hi *= 2.0
            lo = -60.0
            while self.cdf(lo) > ui:
                lo *= 2.0
            out[i] = brentq(lambda x: float(self.cdf(x)) - ui, lo, hi,
                            xtol=1e-13, rtol=8.9e-16)
        return out if np.ndim(u) else float(out[0])

    def _at_quantile(self, f, u):
        vals = self._expect(f, np.atleast_1d(self.quantile(u)))
        return vals if np.ndim(u) else float(vals[0])

    def a_tilde(self, u):
        """Odd basis function A(u) = E[phi'(F^{-1}(u) e^{-s w})]."""
        return self._at_quantile(_dphi, u)

    def r_tilde(self, u):
        """Even basis function R(u) = E[phi(F^{-1}(u) e^{-s w})]; R(1/2) = (2 pi)^{-1/2}."""
        return self._at_quantile(_phi, u)

    def tables(self, grid):
        """(A, R) tabulated on the grid; computed once per grid and cached."""
        key = grid.m
        if key not in self._grid_tables:
            q = self.quantile(grid.points)
            a, r = self._expect(_dphi, q), self._expect(_phi, q)
            a.flags.writeable = False
            r.flags.writeable = False
            self._grid_tables[key] = (a, r)
        return self._grid_tables[key]

    def traces(self, grid):
        """(Tr A, Tr R) = quadrature of A^2 and R^2 on the grid."""
        a, r = self.tables(grid)
        return grid.integrate(a * a), grid.integrate(r * r)


_BASIS_CACHE = {}


def get_basis(s=1.0, nodes=DEFAULT_QUADRATURE_NODES):
    """Shared basis instance for (s, nodes); the s=1 default is the reference."""
    key = (round(float(s), 12), int(nodes))
    if key not in _BASIS_CACHE:
        _BASIS_CACHE[key] = LogNormalVolBasis(s=s, nodes=nodes)
    return _BASIS_CACHE[key]


def marginal_cdf(x):
    """Reference-scale (s = 1) marginal CDF."""
    return get_basis().cdf(x)


def marginal_quantile(u):
    """Reference-scale (s = 1) marginal quantile."""
    return get_basis().quantile(u)


def a_tilde(u):
    """Reference-scale (s = 1) odd basis function."""
    return get_basis().a_tilde(u)


def r_tilde(u):
    """Reference-scale (s = 1) even basis function."""
    return get_basis().r_tilde(u)


def vol_model_cdf(x, s):
    """Marginal CDF of the normalized model X = xi e^{s w - s^2} (E[X^2] = 1).

    This is the reference CDF rescaled: P[X <= x] = F_s(x e^{s^2}).  It is
    the exact null marginal for all three generators in ``sampling`` with
    s^2 = V[omega].
    """
    basis = get_basis(s)
    return basis.cdf(np.asarray(x, dtype=float) * math.exp(s * s))


@dataclass(frozen=True)
class LagCoefficients:
    """Expansion coefficients (alpha, beta, rho) of one lag."""

    t: int
    alpha: float
    beta: float
    rho: float

    @property
    def outside_weak_regime(self):
        """True when any coefficient exceeds 0.3 and the linearization is suspect."""
        return max(abs(self.alpha), abs(self.beta), abs(self.rho)) > 0.3


def copula_expansion(u, v, coeffs):
    """Linearized copula excess C_t(u,v) - uv of lag coefficients in the s = 1 basis."""
    basis = get_basis()
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    au, ru = basis.a_tilde(u), basis.r_tilde(u)
    av, rv = basis.a_tilde(v), basis.r_tilde(v)
    return coeffs.alpha * au * av - coeffs.beta * ru * av + coeffs.rho * ru * rv


def expansion_surface(grid, coeffs, basis=None):
    """Full grid surface uv + expansion excess, as a CopulaSurface."""
    from .copulas import CopulaSurface

    basis = basis or get_basis()
    a, r = basis.tables(grid)
    # B(u,v) = R(u)A(v): rows index u, columns index v
    excess = (coeffs.alpha * np.outer(a, a) - coeffs.beta * np.outer(r, a)
              + coeffs.rho * np.outer(r, r))
    values = np.outer(grid.points, grid.points) + excess
    return CopulaSurface(grid=grid, lag=coeffs.t, values=values)


def fit_lag_coefficients(surface, basis=None):
    """Least-squares (alpha, beta, rho) from the diagonal and anti-diagonal.

    The diagonal alone cannot identify beta where R(u)A(u) changes sign, so
    both cuts enter the design jointly with uniform weights.  Returns the
    coefficients and the RMS residual of the fit.
    """
    basis = basis or get_basis()
    grid = surface.grid
    if grid.m < 10:
        raise ParameterError(f"need a grid of at least 10 points, got m={grid.m}")
    a, r = basis.tables(grid)
    u = grid.points
    idx_rev = np.arange(grid.m)[::-1]
    diag = np.diagonal(surface.values) - u * u
    anti = surface.values[np.arange(grid.m), idx_rev] - u * (1.0 - u)
    design = np.vstack([
        np.column_stack([a * a, -r * a, r * r]),
        np.column_stack([a * a[idx_rev], -r * a[idx_rev], r * r[idx_rev]]),
    ])
    target = np.concatenate([diag, anti])
    if np.linalg.matrix_rank(design) < 3:
        raise ParameterError("degenerate grid: coefficient design matrix is rank deficient")
    sol, _, _, _ = np.linalg.lstsq(design, target, rcond=None)
    rms = float(np.sqrt(np.mean((design @ sol - target) ** 2)))
    coeffs = LagCoefficients(t=surface.lag, alpha=float(sol[0]),
                             beta=float(sol[1]), rho=float(sol[2]))
    return coeffs, rms


@dataclass(frozen=True)
class MultifractalFit:
    """Fit of alpha_t = -Sigma^2 log(t/T) over a range of lags."""

    sigma2: float
    horizon_t: float
    residual: float
    extrapolated: bool   # horizon beyond the largest fitted lag
    degenerate: bool     # fitted Sigma^2 <= 0; horizon undefined


def fit_multifractal(coeffs):
    """Linear regression of alpha_t on log t; slope -Sigma^2, intercept Sigma^2 log T."""
    lags = np.array([c.t for c in coeffs], dtype=float)
    alphas = np.array([c.alpha for c in coeffs], dtype=float)
    if lags.size < 3:
        raise ParameterError(f"need at least 3 lags to fit, got {lags.size}")
    if np.any(lags < 1):
        raise ParameterError("multifractal fit needs lags >= 1")
    design = np.column_stack([np.log(lags), np.ones_like(lags)])
    (slope, intercept), _, _, _ = np.linalg.lstsq(design, alphas, rcond=None)
    sigma2 = -float(slope)
    rms = float(np.sqrt(np.mean((design @ [slope, intercept] - alphas) ** 2)))
    # a slope indistinguishable from zero makes the horizon meaningless
    tol = 1e-12 * max(1.0, float(np.abs(alphas).max()))
    if sigma2 <= tol:
        warnings.warn(f"multifractal fit gave non-positive Sigma^2 = {sigma2:.4g}",
                      RuntimeWarning, stacklevel=2)
        return MultifractalFit(sigma2=sigma2, horizon_t=math.nan, residual=rms,
                               extrapolated=False, degenerate=True)
    horizon = float(np.exp(intercept / sigma2))
    return MultifractalFit(sigma2=sigma2, horizon_t=horizon, residual=rms,
                           extrapolated=horizon > lags.max(), degenerate=False)
