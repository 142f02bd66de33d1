"""Monte-Carlo limit laws of the KS and CM statistics and the tests themselves.

The limiting bridge is synthesized from a kernel spectrum as
y = U Lambda^{1/2} z with iid standard normal z, giving one M-vector per
trial; the statistics are KS = max_i |y_i| and CM = sum_i y_i^2 / (M+1)
(the quadrature weight of the grid, so that E[CM] = Tr H exactly).

Trials are generated in fixed-size chunks whose generators are spawned
from (seed, chunk index), so results are bitwise reproducible and
independent of how chunks are scheduled across workers.  The workers run
through ``_pool.map_ordered``, which holds numpy's OpenBLAS at one thread
while they draw, so n_threads workers run n_threads compute threads, not
n_threads times OpenBLAS's own count; a product splits its output, not its
sums, across OpenBLAS's threads, so the pin changes no sample.  Each
chunk's draw writes its statistics straight into its slices of the two
n_trials sample arrays, which are then sorted in place.  The spectral draw
fills its chunk in row blocks of _BLOCK rows, drawn in order from the
chunk's stream through two buffers of the block's size, so a worker's
working set is _BLOCK * (n_modes + M) doubles whatever n_trials is.
Distributions are immutable sorted sample arrays; p-values use the
upper-tail (r+1)/(n_trials+1) convention, which never returns zero.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from ._pool import map_ordered
from .errors import DataError, ParameterError
from .grid import QuantileGrid
from .sampling import as_series

_CHUNK = 16_384
_BLOCK = _CHUNK // 2   # rows per matrix product; smaller blocks make slower threaded gemms


@dataclass(frozen=True)
class StatisticDistribution:
    """Sorted Monte-Carlo samples of one statistic, acting as its null CDF."""

    kind: str                 # "ks" or "cm"
    samples: np.ndarray       # ascending
    spectrum_digest: str
    grid_m: int

    def __post_init__(self):
        s = self.samples
        if s.ndim != 1 or s.size == 0 or not np.isfinite(s).all():
            raise DataError("a statistic distribution needs a non-empty column of finite samples")

    @property
    def n_trials(self):
        return self.samples.size

    def quantile(self, u):
        """np.quantile's linear rule, bitwise, read off the sorted samples: the
        value at fractional index h = (n - 1) u, interpolated from whichever
        neighbour is nearer, as numpy does.  At h = n - 1 numpy reads the
        last sample with weight h + 1, which keeps the sign of a -0.0."""
        u = np.asarray(u, dtype=float)
        if not np.all((u >= 0.0) & (u <= 1.0)):
            raise ParameterError("quantile level must lie in [0,1]")
        h = (self.n_trials - 1) * u
        below = np.floor(h)
        last = self.n_trials - 1
        t = np.where(h >= last, h + 1.0, h - below)
        a = self.samples[np.minimum(below, last).astype(np.intp)]
        b = self.samples[np.minimum(below + 1.0, last).astype(np.intp)]
        step = b - a
        return np.where(t >= 0.5, b - step * (1.0 - t), a + step * t)[()]


@dataclass(frozen=True)
class GofResult:
    """Both statistics of one series with their Monte-Carlo p-values."""

    ks_stat: float
    cm_stat: float
    ks_p: float
    cm_p: float


def sup_distance(pvals):
    """KS distance sup_u |F_n(u) - u| between a p-value sample and the uniform law."""
    p = np.sort(np.asarray(pvals, dtype=float))
    n = p.size
    if n == 0:
        raise DataError("empty p-value sample")
    grid = np.arange(1, n + 1) / n
    return float(max(np.abs(grid - p).max(), np.abs(grid - 1.0 / n - p).max()))


def uniformity_pvalue(pvals):
    """Asymptotic KS test of a p-value sample against the uniform law, by the survival 1 - K."""
    n = np.size(pvals)
    return float(kolmogorov(math.sqrt(n) * sup_distance(pvals)))


def _chunk_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _simulate(draw, n_trials, seed, digest, m, n_threads=1):
    """Sorted KS and CM laws from ``draw(rng, ks, cm)`` over fixed chunks.

    Chunk i holds up to _CHUNK trials drawn from _chunk_rng(seed, i); its
    draw fills ``ks`` and ``cm``, the chunk's slices of the two n_trials
    sample arrays, which are sorted in place once every chunk is drawn.
    So the samples do not depend on n_threads, and no chunk's result is
    kept or copied.
    """
    if n_trials < 1:
        raise ParameterError("need at least one trial")
    ks, cm = np.empty(n_trials), np.empty(n_trials)
    map_ordered(n_threads, lambda s: draw(_chunk_rng(seed, s // _CHUNK), ks[s:s + _CHUNK],
                                          cm[s:s + _CHUNK]), range(0, n_trials, _CHUNK))
    ks.sort()
    cm.sort()
    return tuple(StatisticDistribution(kind=kind, samples=samples, spectrum_digest=digest, grid_m=m)
                 for kind, samples in (("ks", ks), ("cm", cm)))


def simulate_statistic_distribution(spectrum, n_trials, seed, n_threads=1):
    """Empirical KS and CM laws from n_trials draws of the limit process.

    Both statistics are computed from the same draws.  Trials come in
    fixed chunks of 16384 seeded by (seed, chunk), so the result does not
    depend on n_threads.  A chunk is drawn in row blocks of 8192, one
    matrix product each, in the order of its stream.
    """
    if 1 <= n_trials < 10_000:
        warnings.warn(f"n_trials={n_trials} is small for quantile use; "
                      "p-values will be coarse", RuntimeWarning, stacklevel=2)
    synth = (spectrum.eigenvectors * np.sqrt(spectrum.eigenvalues)[None, :]).T
    weight = spectrum.grid.weight

    def draw(rng, ks, cm):
        rows = min(_BLOCK, ks.size)
        z = np.empty((rows, spectrum.n_modes))
        y = np.empty((rows, spectrum.grid.m))
        for lo in range(0, ks.size, rows):
            hi = min(lo + rows, ks.size)
            rng.standard_normal(out=z[:hi - lo])
            # Multiply all rows, stale ones too: a product of few rows takes
            # another OpenBLAS kernel (gemv for one row, a small-matrix kernel
            # below about 1e6 multiply-adds) that rounds differently.
            np.matmul(z, synth, out=y)
            yb = y[:hi - lo]
            np.einsum("ij,ij->i", yb, yb, out=cm[lo:hi])
            np.abs(yb, out=yb).max(axis=1, out=ks[lo:hi])   # y, not z: n_modes may be < M
        cm *= weight

    return _simulate(draw, n_trials, seed, spectrum.digest, spectrum.grid.m, n_threads)


def simulate_iid_statistic_distribution(m, n_trials, seed):
    """KS and CM laws under independence, by direct bridge simulation.

    The bridge is built from Gaussian increments (exact at the grid), and
    its supremum is completed to the continuum: conditional on its
    endpoints each grid interval is a Brownian bridge whose running max
    has the closed-form tail exp(-2(h-a)(h-b)/dt), sampled by inversion
    (and the min by symmetry), so the KS statistic is a draw of the true
    sup over [0,1] rather than over the grid.  The CM statistic stays a
    grid quadrature.
    """
    g = QuantileGrid(m)
    w = g.weight

    def draw(rng, ks, cm):
        b = ks.size
        walk = np.cumsum(rng.standard_normal((b, m + 1)) * math.sqrt(w), axis=1)
        y = np.zeros((b, m + 2))
        y[:, 1:m + 1] = walk[:, :m] - np.outer(walk[:, m], g.points)
        a = y[:, :-1]
        c = y[:, 1:]
        mid = a + c
        gap2 = c - a
        gap2 *= gap2

        def reach():
            # sqrt(gap2 - 2 w log U), in place; one uniform draw per call
            r = rng.random((b, m + 1))
            np.log(r, out=r)
            r *= 2.0 * w
            np.subtract(gap2, r, out=r)
            return np.sqrt(r, out=r)

        hi = np.add(mid, reach(), out=walk)  # walk is spent: reuse its buffer
        hi *= 0.5
        neg_lo = np.subtract(mid, reach(), out=mid)
        neg_lo *= -0.5
        inner = y[:, 1:m + 1]
        np.maximum(hi, neg_lo, out=hi).max(axis=1, out=ks)
        np.einsum("ij,ij->i", inner, inner, out=cm)
        cm *= w

    return _simulate(draw, n_trials, seed, f"bridge:iid:m={m}", m)


def p_value(stat, dist):
    """Upper-tail Monte-Carlo p-value (r+1)/(n_trials+1), r = #samples >= stat."""
    r = dist.n_trials - np.searchsorted(dist.samples, stat, side="left")
    return (r + 1.0) / (dist.n_trials + 1.0)


def run_gof_test(series, quantiles, dist_ks, dist_cm):
    """Test one series against a target marginal given by its quantiles at the law grid.

    ``quantiles`` holds F^{-1}(u_i) at the interior grid levels u_i of the
    null laws, so the empirical bridge sqrt(N)(F_N(u_i) - u_i) is read off
    as #{x <= F^{-1}(u_i)}/N without evaluating F at the sample.  Testing at
    the grid of the laws makes the finite-grid sup/sum biases of the
    statistic and of its reference distribution cancel.
    """
    if dist_ks.kind != "ks" or dist_cm.kind != "cm":
        raise ParameterError("distributions must be (ks, cm) in that order")
    if dist_ks.grid_m != dist_cm.grid_m:
        raise ParameterError("null laws were built on different grids")
    g = QuantileGrid(dist_ks.grid_m)
    q = np.asarray(quantiles, dtype=float)
    if q.shape != (g.m,):
        raise DataError(f"need one target quantile per grid level ({g.m}), got shape {q.shape}")
    if not np.isfinite(q).all() or np.any(np.diff(q) < 0):
        raise DataError("target quantiles must be finite and non-decreasing")
    x = as_series(series)
    n = x.size
    ecdf = np.searchsorted(np.sort(x), q, side="right") / n
    y = math.sqrt(n) * (ecdf - g.points)
    ks = float(np.abs(y).max())
    cm = float(np.sum(y * y) * g.weight)
    return GofResult(ks_stat=ks, cm_stat=cm,
                     ks_p=float(p_value(ks, dist_ks)),
                     cm_p=float(p_value(cm, dist_cm)))


def reduction_ratio(dep, iid, u):
    """Quantile ratio dep/iid at level u: the effective sample-size deflation sqrt(N/N_eff)."""
    if dep.kind != iid.kind:
        raise ParameterError(f"distribution kinds differ: {dep.kind} vs {iid.kind}")
    if not 0.0 < u < 1.0:
        raise ParameterError("quantile level must be inside (0,1)")
    return float(dep.quantile(u) / iid.quantile(u))
