"""Monte-Carlo limit laws of the KS and CM statistics and the tests themselves.

The limiting bridge is synthesized from a kernel spectrum as
y = U Lambda^{1/2} z with iid standard normal z, giving one M-vector per
trial; the statistics are KS = max_i |y_i| and CM = sum_i y_i^2 / (M+1)
(the quadrature weight of the grid, so that E[CM] = Tr H exactly).
Distributions are immutable sorted sample arrays; p-values use the
upper-tail (r+1)/(n_trials+1) convention, which never returns zero.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
# numpy loads these on first use, at about 16 ms each: the law draws use
# numpy.random, and np.quantile loads numpy.ma.  Nearly every run does both,
# so they load with the package, not inside the first call that needs them.
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from ._pool import map_ordered
from ._special import kolmogorov_sf
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
    return kolmogorov_sf(math.sqrt(n) * sup_distance(pvals))


def _chunk_rng(seed, index):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _simulate(draw, n_trials, seed, digests, m, n_threads=1):
    """Sorted KS and CM laws, one pair per digest, from ``draw(rng, out)`` over fixed chunks.

    Chunk i holds up to _CHUNK trials drawn from _chunk_rng(seed, i); its
    draw fills ``out``, the chunk's (laws, 2, trials) slice of the sample
    array, with each law's KS samples in ``out[j, 0]`` and CM samples in
    ``out[j, 1]``.  Every row is sorted in place once every chunk is drawn.
    So the samples do not depend on n_threads, and no chunk's result is
    kept or copied.
    """
    if n_trials < 1:
        raise ParameterError("need at least one trial")
    samples = np.empty((len(digests), 2, n_trials))
    map_ordered(n_threads, lambda s: draw(_chunk_rng(seed, s // _CHUNK),
                                          samples[:, :, s:s + _CHUNK]), range(0, n_trials, _CHUNK))
    samples.sort(axis=2)
    return tuple(tuple(StatisticDistribution(kind=kind, samples=row, spectrum_digest=digest,
                                             grid_m=m) for kind, row in zip(("ks", "cm"), pair))
                 for digest, pair in zip(digests, samples))


def simulate_statistic_distribution(spectrum, n_trials, seed, n_threads=1):
    """Empirical KS and CM laws from n_trials draws of the limit process.

    Both statistics are computed from the same draws.  Trials come in
    fixed chunks of 16384 seeded by (seed, chunk), so the result does not
    depend on n_threads.  A chunk is drawn in row blocks of 8192, one
    matrix product each, in the order of its stream, through two buffers of
    the block's size, so a worker's working set is 8192 * (n_modes + M)
    doubles whatever n_trials is.

    ``spectrum`` may also be a tuple of spectra on one grid with one mode
    count: each row block of normals is then multiplied by every spectrum
    in turn (common random numbers), and a tuple of (KS, CM) pairs comes
    back, one per spectrum, each bitwise the pair of its spectrum alone.
    """
    spectra = spectrum if isinstance(spectrum, tuple) else (spectrum,)
    first = spectra[0]
    if any((s.grid.m, s.n_modes) != (first.grid.m, first.n_modes) for s in spectra):
        raise ParameterError("spectra drawn together need one grid and one mode count")
    if 1 <= n_trials < 10_000:
        warnings.warn(f"n_trials={n_trials} is small for quantile use; "
                      "p-values will be coarse", RuntimeWarning, stacklevel=2)
    synths = [(s.eigenvectors * np.sqrt(s.eigenvalues)[None, :]).T for s in spectra]

    def draw(rng, out):
        rows = min(_BLOCK, out.shape[2])
        z = np.empty((rows, first.n_modes))
        y = np.empty((rows, first.grid.m))
        for lo in range(0, out.shape[2], rows):
            hi = min(lo + rows, out.shape[2])
            rng.standard_normal(out=z[:hi - lo])
            for synth, (ks, cm) in zip(synths, out):
                # Multiply all rows, stale ones too: a product of few rows takes
                # another OpenBLAS kernel (gemv for one row, a small-matrix kernel
                # below about 1e6 multiply-adds) that rounds differently.
                np.matmul(z, synth, out=y)
                yb = y[:hi - lo]
                np.einsum("ij,ij->i", yb, yb, out=cm[lo:hi])
                np.abs(yb, out=yb).max(axis=1, out=ks[lo:hi])   # y, not z: n_modes may be < M
        out[:, 1] *= first.grid.weight

    laws = _simulate(draw, n_trials, seed, [s.digest for s in spectra], first.grid.m, n_threads)
    return laws if isinstance(spectrum, tuple) else laws[0]


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

    def draw(rng, out):
        (ks, cm), = out
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

    return _simulate(draw, n_trials, seed, [f"bridge:iid:m={m}"], m)[0]


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

    ``dist_ks`` and ``dist_cm`` may also be tuples of laws of one length on
    one grid: the statistics are computed once, and a tuple of GofResults
    comes back, one per (dist_ks[j], dist_cm[j]) pair.
    """
    many = isinstance(dist_ks, tuple)
    if many != isinstance(dist_cm, tuple) or many and len(dist_ks) != len(dist_cm):
        raise ParameterError("need a KS and a CM law, or two tuples of them of one length")
    pairs = tuple(zip(dist_ks, dist_cm)) if many else ((dist_ks, dist_cm),)
    if any(law_ks.kind != "ks" or law_cm.kind != "cm" for law_ks, law_cm in pairs):
        raise ParameterError("distributions must be (ks, cm) in that order")
    if len({law.grid_m for pair in pairs for law in pair}) != 1:
        raise ParameterError("null laws were built on different grids")
    g = QuantileGrid(pairs[0][0].grid_m)
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
    results = tuple(GofResult(ks_stat=ks, cm_stat=cm, ks_p=float(p_value(ks, law_ks)),
                              cm_p=float(p_value(cm, law_cm))) for law_ks, law_cm in pairs)
    return results if many else results[0]


def reduction_ratio(dep, iid, u):
    """Quantile ratio dep/iid at the level or levels u, each quantile by np.quantile's
    linear rule: the effective sample-size deflation sqrt(N/N_eff).  A float for a
    scalar u, else an array of u's shape."""
    if dep.kind != iid.kind:
        raise ParameterError(f"distribution kinds differ: {dep.kind} vs {iid.kind}")
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ParameterError("quantile levels must lie inside (0,1)")
    ratio = np.quantile(dep.samples, u) / np.quantile(iid.samples, u)
    return float(ratio) if u.ndim == 0 else ratio
