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
1e-9.  Only the nodes whose standard-normal weight is at least 2^-80 are
kept: 126 of the 384, dropping 1.6e-24 of the weight, which moves no CDF
value by as much as its rounding.  The nodes are computed once per node
count and shared read-only by every basis.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._pool import map_ordered
from ._special import hermite_rule, ndtr, ndtri_start
from .copulas import CopulaSurface
from .errors import NumericalError, ParameterError

DEFAULT_QUADRATURE_NODES = 384
_WEIGHT_FLOOR = 2.0 ** -80
_BRACKET_DOUBLINGS = 60
_NEWTON_STEPS = 100
# scales per warm quantile solve: about 50k CDF points a Newton step at m = 100;
# one block of 95 scales ran slower, its 1.2M points falling out of cache
_SCALE_BLOCK = 4


def _phi(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _dphi(z):
    return -z * _phi(z)


@functools.cache
def _hermite(nodes):
    """Standard-normal Gauss-Hermite (nodes, weights) of weight >= 2^-80, computed
    once per node count."""
    omega, weights = hermite_rule(nodes, _WEIGHT_FLOOR)
    omega.flags.writeable = False
    weights.flags.writeable = False
    return omega, weights


def _solve_quantiles(scales, u, omega, weights, start=None):
    """F_s^{-1}(u) of the levels u in (0, 1) for each scale s, one row per scale,
    by Newton steps from ``start`` (one finite row per scale; by default Acklam's
    Gaussian quantile, F^{-1} at s = 0) kept inside a bracket (a step that leaves
    it bisects it).  A level above 1/2 is solved as -F^{-1}(1 - u), where the CDF
    has relative resolution.  A row is done when, at each of its levels, a step
    or the bracket is below 1e-13; a step reads the CDF and the density off one
    set of quadrature points.  Each row's arithmetic is its own, so a row comes
    out the same whatever rows are solved with it."""
    sign = np.where(u > 0.5, -1.0, 1.0)
    u = np.where(u > 0.5, 1.0 - u, u)
    start = np.tile(ndtri_start(u), (len(scales), 1)) if start is None else sign * start
    scale = np.exp(-scales[:, None] * omega)[:, None, :]       # (rows, 1, nodes)
    # every hi > 0 has F(hi) >= F(0) = 1/2 >= u, so only lo may need widening;
    # the levels share few lo values, and each row's CDF is read once at each
    lo, hi = np.full(start.shape, -60.0), np.full(start.shape, 60.0)
    rows = np.arange(len(scales))[:, None]
    for _ in range(_BRACKET_DOUBLINGS):
        values, inverse = np.unique(lo, return_inverse=True)
        cdf = ndtr(values[:, None] * scale) @ weights            # (rows, values)
        high_lo = cdf[rows, inverse.reshape(lo.shape)] > u
        if not high_lo.any():
            break
        lo[high_lo] *= 2.0
    else:
        raise NumericalError("cannot bracket the marginal quantile")
    x = np.clip(start, lo, hi)
    out = np.empty_like(x)
    live = np.arange(len(scales))       # rows still stepping
    for _ in range(_NEWTON_STEPS):
        z = x[:, :, None] * scale
        resid = ndtr(z) @ weights - u
        density = (_phi(z) * scale) @ weights
        lo = np.where(resid < 0.0, x, lo)
        hi = np.where(resid > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - resid / density
        # converged: a Newton step below tolerance, an exact root, or a bracket
        # narrower than tolerance (a CDF value resolves only to its rounding)
        tol = 1e-13 + 4e-16 * np.abs(x)
        small = np.abs(newton - x) <= tol
        done = np.all(small | (resid == 0.0) | (hi - lo <= tol), axis=1)
        out[live[done]] = np.where(small, newton, x)[done]
        if done.all():
            return sign * out
        # a Newton step that does not land inside the bracket bisects it
        inside = (newton > lo) & (newton < hi)
        x = np.where(small | inside, np.clip(newton, lo, hi), 0.5 * (lo + hi))
        keep = ~done
        live, x, lo, hi, scale = live[keep], x[keep], lo[keep], hi[keep], scale[keep]
    raise NumericalError(f"marginal quantile did not converge in {_NEWTON_STEPS} steps")


class LogNormalVolBasis:
    """Marginal CDF, quantile and expansion basis at one vol-of-vol scale."""

    def __init__(self, s=1.0, nodes=DEFAULT_QUADRATURE_NODES):
        if s < 0:
            raise ParameterError(f"vol-of-vol scale must be >= 0, got s={s}")
        self.s = float(s)
        self.nodes = int(nodes)
        self._omega, self._weights = _hermite(self.nodes)   # N(0,1) nodes

    def _expect(self, f, x):
        """E_w[f(x e^{-s w})] for each x, by Gauss-Hermite quadrature."""
        return f(x[..., None] * np.exp(-self.s * self._omega)) @ self._weights

    def cdf(self, x):
        """Marginal CDF F(x) = E[Phi(x e^{-s w})]; F(-x) = 1 - F(x)."""
        return self._expect(ndtr, np.asarray(x, dtype=float))

    def quantile(self, u):
        """Inverse marginal CDF of every level at once, by the Newton solve of
        ``_solve_quantiles`` on this scale alone, from its default start."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        if not np.all((u_arr > 0.0) & (u_arr < 1.0)):
            raise ParameterError("quantile level must lie strictly inside (0,1)")
        x = _solve_quantiles(np.array([self.s]), u_arr, self._omega, self._weights)[0]
        return x if np.ndim(u) else float(x[0])

    @functools.cache
    def quantiles(self, grid):
        """Marginal quantiles F^{-1}(u_i) of the grid levels, solved once per grid
        and cached read-only, so threads may share them.  A test needs only these,
        so they are cached apart from the tables."""
        q = self.quantile(grid.points)
        q.flags.writeable = False
        return q

    @functools.cache
    def tables(self, grid):
        """(A, R) tabulated at the grid's cached quantiles, once per grid and cached
        read-only; on an odd grid u = 1/2 is a node, where A = 0 and R = (2 pi)^{-1/2}."""
        q = self.quantiles(grid)
        a, r = self._expect(_dphi, q), self._expect(_phi, q)
        a.flags.writeable = False
        r.flags.writeable = False
        return a, r

    def traces(self, grid):
        """(Tr A, Tr R) = quadrature of A^2 and R^2 on the grid."""
        a, r = self.tables(grid)
        return grid.integrate(a * a), grid.integrate(r * r)


def get_basis(s=1.0):
    """Shared basis at scale float(s), exactly, with the default quadrature nodes;
    s=1 is the reference.  Another node count needs its own LogNormalVolBasis."""
    return _shared_basis(float(s))


_shared_basis = functools.cache(LogNormalVolBasis)


def vol_model_cdf(x, s):
    """Marginal CDF of the normalized model X = xi e^{s w - s^2} (E[X^2] = 1).

    This is the reference CDF rescaled: P[X <= x] = F_s(x e^{s^2}).  It is
    the exact null marginal for all three generators in ``sampling`` with
    s^2 = V[omega].  No stage calls it, since ``test`` reads quantiles; it
    stays public because perfbench imports it from the package to check its
    oracle's CDF against, and its tracer rebinds it.
    """
    basis = get_basis(s)
    return basis.cdf(np.asarray(x, dtype=float) * math.exp(s * s))


def vol_model_quantiles(grid, s, threads=1):
    """Quantiles of the normalized model at the grid levels: F_s^{-1}(u_i) times
    e^{-s^2}, the inverse of vol_model_cdf; for a scale ``s``, F_s^{-1}(u_i) is the
    shared basis's cached solve.  A sequence of scales gets one row each, in its
    order.  Of more than five distinct scales, only five anchors (the smallest,
    the three quartiles and the largest) are cached solves; every other scale
    starts from the Lagrange polynomial in s through the anchors' F^{-1}(u_i), in
    sorted blocks of _SCALE_BLOCK, one vectorized Newton each.  From five anchors
    a solve takes one Newton step when the scales lie within 0.4 % of each other,
    as a panel's leave-one-out scales do.  The solves run on ``threads`` workers;
    a row depends on the set of scales, not on ``threads``, on the blocks or on
    what the process solved before."""
    if not np.ndim(s):
        s = float(s)
        return get_basis(s).quantiles(grid) * math.exp(-s * s)
    scales = [float(v) for v in s]
    distinct = sorted(set(scales))
    anchors = distinct if len(distinct) <= 5 else [distinct[(len(distinct) - 1) * k // 4]
                                                   for k in range(5)]
    rest = [v for v in distinct if v not in anchors]
    blocks = [rest[i:i + _SCALE_BLOCK] for i in range(0, len(rest), _SCALE_BLOCK)]

    def warm(block):
        start = np.array([sum(get_basis(a).quantiles(grid)
                              * math.prod((v - b) / (a - b) for b in anchors if b != a)
                              for a in anchors) for v in block])
        shrink = np.array([[math.exp(-v * v)] for v in block])
        return _solve_quantiles(np.array(block), grid.points,
                                *_hermite(DEFAULT_QUADRATURE_NODES), start) * shrink

    solved = dict(zip(anchors, map_ordered(
        threads, lambda v: vol_model_quantiles(grid, v), anchors)))
    for block, rows in zip(blocks, map_ordered(threads, warm, blocks)):
        solved.update(zip(block, rows))
    return np.array([solved[v] for v in scales])


@dataclass(frozen=True)
class LagCoefficients:
    """Expansion coefficients (alpha, beta, rho) of one lag."""

    t: int
    alpha: float
    beta: float
    rho: float


def expansion_surface(grid, coeffs, basis=None):
    """Full grid surface uv + expansion excess, as a CopulaSurface; its values
    minus uv are the linearized copula excess C_t(u,v) - uv, by default in the
    s = 1 basis."""
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
