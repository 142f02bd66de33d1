"""Non-parametric lagged self-copulas and the dependence correction surface.

The self-copula C_t(u,v) is the copula of the pair (X_n, X_{n+t}) of a
stationary series.  Estimation is rank-based with a multiplicative
bias correction: the naive estimator with estimated marginals has mean
floor(Nu) floor(Nv) / N^2 under independence, so the raw surface is scaled
by (Nu/floor(Nu)) (Nv/floor(Nv)).

The lag-summed relative excess

    Psi_N(u,v) = sum_{t=1}^{N-1} (1 - t/N) (Delta_t(u,v) + Delta_t(v,u)),
    Delta_t(u,v) = (C_t(u,v) - uv) / (min(u,v) - uv),

multiplies the Brownian-bridge covariance to give the limiting covariance
kernel of the empirical-CDF bridge for dependent data.

A panel is estimated in one sweep over the lags, not series by series:
its lag-t self-copula is the bias-corrected copula of the pair counts
pooled over the series.  rank_panel gives each series one stable argsort,
whose (value, position) order is that of ordinal ranks.  lag_surfaces keeps
the int32 ordinal ranks of every position in X[:-t] and in X[t:], which start
as the full series' ranks; from lag t - 1 to lag t each sample loses one
position, so each rank above the lost one's falls by one, in place (O(N)
per series).  A table built once per lag maps rank to grid bin, and
np.bincount adds the (bin, bin) pairs of every series into one integer
count table.  Integer sums are exact, so the order of the series cannot
change it.  The bias correction and the Frechet clip then act once per lag.
Before the clip the surface is the mean of the per-series
empirical_copula(..., clip_frechet=False) estimates up to rounding, and so
unbiased under independence; a one-series panel gives self_copula_at_lag
bit for bit.
psi_accumulate reduces in ascending-lag order.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError
from .grid import QuantileGrid


@dataclass(frozen=True)
class CopulaSurface:
    """Copula values C(u_i, v_j) on a quantile grid at one lag (0 = generic pair)."""

    grid: QuantileGrid
    lag: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.m, self.grid.m):
            raise ParameterError(
                f"surface shape {self.values.shape} does not match grid m={self.grid.m}")


@dataclass(frozen=True)
class PsiSurface:
    """Accumulated dependence correction Psi_N(u_i, u_j); symmetric by construction."""

    grid: QuantileGrid
    values: np.ndarray
    t_max: int


def frechet_bounds(grid):
    """Lower and upper Frechet-Hoeffding bounds on the grid."""
    u = grid.points
    lower = np.maximum(np.add.outer(u, u) - 1.0, 0.0)
    upper = np.minimum.outer(u, u)
    return lower, upper


def product_copula(grid):
    """Independence surface uv on the grid."""
    u = grid.points
    return np.outer(u, u)


def copula_thresholds(n, grid):
    """Rank thresholds floor(n u_i), guarded against representation error.

    Distinct thresholds are at least n/(m+1) >= 1 apart, so nudging by 1e-9
    cannot skip a level but does keep n u_i exactly integral when it is so
    in exact arithmetic (e.g. n a multiple of m+1).
    """
    return np.floor(n * grid.points + 1e-9).astype(np.int64)


def empirical_copula(x, y, grid, lag=0, clip_frechet=True):
    """Bias-corrected rank-based copula estimate of a sample pair.

    Parameters
    ----------
    x, y : array_like
        Observations of equal length n >= m+1 (so every grid threshold
        floor(n u_i) is at least 1).
    grid : QuantileGrid
    lag : int
        Stored on the surface for bookkeeping; 0 for a generic pair.
    clip_frechet : bool
        Clip the corrected values into the Frechet-Hoeffding band.  The
        multiplicative correction can push grid-corner values slightly
        outside it; disable to study the raw corrected estimator, whose
        mean under independence is exactly uv.

    Notes
    -----
    Ranks are ordinal (ties broken by original position).  The estimator
    depends on the data only through the ranks, hence is invariant under
    strictly increasing transforms of either margin.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise DataError(f"need two equal-length 1-D samples, got {x.shape} and {y.shape}")
    n = x.size
    if n < grid.m + 1:
        raise DataError(
            f"grid finer than data: need n >= m+1 = {grid.m + 1}, got n={n}")
    thresholds = copula_thresholds(n, grid)
    rank_x = _slots(x, "sample x") + 1
    rank_y = _slots(y, "sample y") + 1
    # bin index of the first grid threshold >= rank; m = beyond the grid
    bx = np.searchsorted(thresholds, rank_x, side="left")
    by = np.searchsorted(thresholds, rank_y, side="left")
    counts = np.zeros((grid.m + 1, grid.m + 1))
    np.add.at(counts, (bx, by), 1.0)
    bounds = frechet_bounds(grid) if clip_frechet else None
    return CopulaSurface(grid=grid, lag=lag, values=_corrected_surfaces(
        counts, n, _bias_factor(n, grid), bounds))


def _bias_factor(n, grid):
    """The m x m correction (n u / floor(n u)) (n v / floor(n v)) on the grid."""
    factor = n * grid.points / copula_thresholds(n, grid)
    return np.outer(factor, factor)


def _corrected_surfaces(counts, n, bias, bounds=None):
    """Bias-corrected copula values from (m+1, m+1) bin counts of n pairs:
    the cumulated counts over n times the ``bias`` factor, clipped into the
    Frechet ``bounds`` (lower, upper) unless they are None.

    The counts are integers, exact in float64, so integer and float counts
    give the same bits.
    """
    m = bias.shape[0]
    below = counts[:m, :m].cumsum(axis=0)
    values = np.cumsum(below, axis=1, out=below) / n
    values *= bias
    if bounds is not None:
        np.clip(values, *bounds, out=values)
    return values


def self_copula_at_lag(series, t, grid):
    """Frechet-clipped self-copula of (X_1..X_{N-t}) against (X_{1+t}..X_N).

    C_t(u,v) is not symmetric in (u,v) in general: conditioning on the past
    differs from conditioning on the future whenever the dynamics are
    asymmetric (leverage).  No stage calls it: it is the per-series reference
    that a one-series average_self_copula is tested bitwise against.
    """
    x = np.asarray(series, dtype=float)
    if t < 1:
        raise ParameterError(f"lag must be >= 1, got t={t}")
    if x.size <= t + grid.m:
        raise DataError(
            f"series of length {x.size} too short for lag {t} on an m={grid.m} grid")
    return empirical_copula(x[:-t], x[t:], grid, lag=t)


@dataclass(frozen=True)
class RankedPanel:
    """Equal-length series sorted once for the self-copulas of every lag.

    ``slot[j]`` holds the place of each position of series j in its
    ascending (value, position) order, the order of ordinal ranks; int32 of
    shape (k, N).
    """

    slot: np.ndarray


def rank_panel(panel):
    """Sort each series of a panel once (stable) for lag_surfaces.

    ``panel`` is a sequence of k equal-length series, or a (k, N) array.
    """
    try:
        x = np.asarray(panel, dtype=float)
    except ValueError as exc:
        raise DataError(f"a panel needs equal-length numeric series: {exc}") from None
    if x.size == 0 and x.ndim == 1:
        x = x.reshape(0, 0)
    if x.ndim != 2:
        raise DataError(f"a panel is a sequence of series, got an array of shape {x.shape}")
    return RankedPanel(slot=_slots(x, "panel"))


def _slots(x, what):
    """Place of each entry in the stable ascending order along the last axis, int32.

    The order is that of ordinal ranks (ties by position), so slot + 1 is
    the ordinal rank.  NaN has no rank and is refused, naming ``what``.
    """
    if np.isnan(x).any():
        raise DataError(f"{what} holds NaN values, which have no rank")
    order = np.argsort(x, axis=-1, kind="stable").astype(np.int32)
    slot = np.empty_like(order)
    np.put_along_axis(slot, order, np.arange(x.shape[-1], dtype=np.int32), axis=-1)
    return slot


# Series per rank update and counting pass.  It bounds the (block, N) cell
# arrays; the counts are integers, so the result does not depend on it.
_BLOCK = 8


def lag_surfaces(panel, t_max, grid):
    """Self-copulas of a panel at lags 1..t_max, in lag order: at each lag the
    bias-corrected, Frechet-clipped copula of the lag-t pairs of all its
    series, counted together.

    ``panel`` is a RankedPanel, or anything rank_panel takes.  Before the
    clip a surface is the entrywise mean of the series' unclipped
    self-copulas, up to rounding; the one clip acts on that mean.  The bits
    do not depend on the order of the series.
    """
    ranked = panel if isinstance(panel, RankedPanel) else rank_panel(panel)
    slot = ranked.slot
    k, size = slot.shape
    if k == 0:
        raise DataError("empty panel")
    if t_max < 1:
        raise ParameterError(f"lag must be >= 1, got t={t_max}")
    if size <= t_max + grid.m:
        raise DataError(
            f"series of length {size} too short for lag {t_max} on an m={grid.m} grid")
    side = grid.m + 1
    bounds = frechet_bounds(grid)
    # ordinal ranks of each position in x[:-t] (left) and in x[t:] (right); at
    # lag 0 both are the ranks of the whole series
    left = slot + 1
    right = left.copy()
    surfaces = []
    for t in range(1, t_max + 1):
        n = size - t
        # grid bin of each rank 0..n: the first threshold >= rank, m = beyond the grid
        bins = np.searchsorted(copula_thresholds(n, grid), np.arange(n + 1), side="left")
        rows = bins * side
        counts = np.zeros(side * side, dtype=np.int64)
        for lo in range(0, k, _BLOCK):
            place = slot[lo:lo + _BLOCK]
            # x[:-t] loses position n and x[t:] position t - 1: every position
            # ordered after the lost one moves down one rank
            head = left[lo:lo + _BLOCK, :n]
            head -= place[:, :n] > place[:, n:n + 1]
            tail = right[lo:lo + _BLOCK, t:]
            tail -= place[:, t:] > place[:, t - 1:t]
            cells = np.take(rows, head)   # np.take gathers faster than rows[head]
            cells += np.take(bins, tail)
            counts += np.bincount(cells.ravel(), minlength=side * side)
        surfaces.append(CopulaSurface(grid=grid, lag=t, values=_corrected_surfaces(
            counts.reshape(side, side), n * k, _bias_factor(n, grid), bounds)))
    return surfaces


def average_self_copula(panel, t, grid):
    """Lag-t self-copula of a panel: the last surface of lag_surfaces(panel, t,
    grid).  One series gives self_copula_at_lag bit for bit."""
    return lag_surfaces(panel, t, grid)[-1]


def psi_accumulate(surfaces, n):
    """Accumulate per-lag surfaces into the symmetric correction Psi_N.

    The Delta_{-t} contribution is the transpose of Delta_t.  Surfaces are
    summed in ascending lag order.  On the interior grid the denominator
    min(u,v) - uv (QuantileGrid.bridge) is positive, so no special casing
    is needed; off-grid evaluation is not supported.
    """
    surfaces = sorted(surfaces, key=lambda s: s.lag)
    if not surfaces:
        raise DataError("no copula surfaces to accumulate")
    grid = surfaces[0].grid
    lags = [s.lag for s in surfaces]
    if len(set(lags)) != len(lags):
        raise DataError(f"duplicate lags in {lags}")
    if any(s.grid != grid for s in surfaces):
        raise DataError("all surfaces must share one grid")
    t_max = max(lags)
    if min(lags) < 1:
        raise ParameterError("psi accumulation needs lags >= 1")
    if t_max >= n:
        raise ParameterError(f"largest lag {t_max} must be < sample size {n}")
    uv = product_copula(grid)
    denom = grid.bridge()
    psi = np.zeros((grid.m, grid.m))
    for surf in surfaces:
        delta = (surf.values - uv) / denom
        psi += (1.0 - surf.lag / n) * (delta + delta.T)
    return PsiSurface(grid=grid, values=psi, t_max=t_max)


def _value_at_half(surface):
    """Surface value at (1/2, 1/2): grid point if m is odd, else bilinear."""
    g = surface.grid
    pos = 0.5 * (g.m + 1) - 1.0  # fractional index of u = 1/2
    lo = int(np.floor(pos))
    hi = min(lo + 1, g.m - 1)
    frac = pos - lo
    v = surface.values
    return ((1 - frac) ** 2 * v[lo, lo] + frac * (1 - frac) * (v[lo, hi] + v[hi, lo])
            + frac ** 2 * v[hi, hi])


def blomqvist_rho(surface):
    """Median-quadrant correlation rho = sin(2 pi beta_B), beta_B = C(1/2,1/2) - 1/4.

    For pseudo-elliptical copulas C(1/2,1/2) = 1/4 + arcsin(rho)/(2 pi)
    holds exactly, so this inverts the relation without any weak-dependence
    assumption.
    """
    beta_b = _value_at_half(surface) - 0.25
    return float(np.clip(np.sin(2.0 * np.pi * beta_b), -1.0, 1.0))


def delta_diagonal(surface, u):
    """Normalized diagonal excess Delta(u,u) = (C(u,u) - u^2)/(u(1-u)).

    Its limits at u -> 1 (resp. 0) are the upper (resp. lower) tail
    dependence coefficients, up to the -1 offset of the complementary tail.
    """
    g = surface.grid
    idx = int(round(u * (g.m + 1))) - 1
    if idx < 0 or idx >= g.m or abs(g.points[idx] - u) > 1e-12:
        raise ParameterError(f"u={u} is not a point of {g}")
    val = (surface.values[idx, idx] - u * u) / (u * (1.0 - u))
    return float(np.clip(val, -1.0, 1.0))
