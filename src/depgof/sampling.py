"""Synthetic dependent return series with log-normal stochastic volatility.

Three generators share the multiplicative structure

    X_n = xi_n * exp(omega_n - V[omega]),   xi_n iid N(0,1),

which is normalized so that E[X_n] = 0 and E[X_n^2] = 1 exactly.  They
differ in the dynamics of the log-volatility omega:

* AR(1): omega_{n+1} = g omega_n + Sigma eta_n (short memory),
* fractional Gaussian noise with Hurst index (2-nu)/2 (long memory), drawn
  exactly by circulant embedding: one rfft gives the embedding's
  eigenvalues, a negative one is refused with a NumericalError, and one
  irfft turns every column's random spectrum into its log-vols,
* iid omega (no memory; the plain log-normal stochastic-vol model).

All generators are deterministic functions of (params, n, seed).  Random
numbers come from numpy's PCG64 via ``np.random.default_rng(seed)``;
distinct seeds give independent streams, so callers may fan trials out
across workers by seed without further coordination.  Each generator also
takes a list or tuple of k seeds and returns an (n, k) panel whose column j
is, bit for bit, the series of seed j: each column's stream draws its
log-vol normals first, then its n normals xi.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError


@dataclass(frozen=True)
class Ar1LogVolParams:
    """AR(1) log-volatility: omega_{n+1} = g omega_n + Sigma eta_n."""

    g: float
    sigma2: float

    def __post_init__(self):
        if not 0.0 <= self.g < 1.0:
            raise ParameterError(f"autoregression coefficient must be in [0,1), got g={self.g}")
        if self.sigma2 <= 0.0:
            raise ParameterError(f"innovation variance must be positive, got sigma2={self.sigma2}")

    @property
    def stationary_var(self):
        """V[omega] = Sigma^2 / (1 - g^2) under the stationary law."""
        return self.sigma2 / (1.0 - self.g ** 2)


@dataclass(frozen=True)
class FgnLogVolParams:
    """Fractional-Gaussian-noise log-volatility with decay exponent nu.

    The autocovariance decays like t^(-nu), i.e. the increments of a
    fractional Brownian motion with Hurst index (2-nu)/2 > 1/2.  nu = 1
    (iid boundary) is accepted so degenerate cases can be exercised.
    """

    nu: float
    sigma2: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.nu <= 1.0:
            raise ParameterError(f"decay exponent must be in (0,1], got nu={self.nu}")
        if self.sigma2 <= 0.0:
            raise ParameterError(f"scale must be positive, got sigma2={self.sigma2}")

    @property
    def stationary_var(self):
        """V[omega] = Sigma^2 (the lag-0 autocovariance)."""
        return self.sigma2


@dataclass(frozen=True)
class StochasticVolParams:
    """iid log-normal stochastic volatility X = exp(s w - s^2) xi."""

    s: float

    def __post_init__(self):
        if self.s < 0.0:
            raise ParameterError(f"volatility-of-volatility must be >= 0, got s={self.s}")

    @property
    def stationary_var(self):
        """V[s w] = s^2, rounded once so that its square root is s exactly."""
        return self.s * self.s


def as_series(values):
    """Validate and return a 1-D float array of at least 2 observations."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ParameterError(f"series must be 1-D, got shape {x.shape}")
    if x.size < 2:
        raise ParameterError(f"series needs at least 2 observations, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise ParameterError("series contains non-finite values")
    return x


def _normals(seed, count):
    """(count, k) standard normals whose column j is the first ``count`` draws of
    the PCG64 stream of seed j, of the k seeds of a list or tuple, else of the one."""
    seeds = seed if isinstance(seed, (list, tuple)) else [seed]
    z = np.empty((count, len(seeds)))
    for j, s in enumerate(seeds):
        z[:, j] = np.random.default_rng(s).standard_normal(count)
    return z


def _series(omega, v, xi, seed, return_logvol):
    """X = xi exp(omega - v) over every column; a single seed's column comes back 1-D."""
    x = np.subtract(omega, v)
    np.exp(x, out=x)
    x *= xi
    if not isinstance(seed, (list, tuple)):
        x, omega = x[:, 0], omega[:, 0]
    return (x, omega) if return_logvol else x


def ar1_alpha(params, t):
    """Analytic log-vol autocovariance alpha_t = Sigma^2 g^t / (1 - g^2)."""
    t = np.asarray(t)
    if np.any(t < 0):
        raise ParameterError("lag must be >= 0")
    return params.stationary_var * params.g ** t


def gen_ar1_logvol(params, n, seed, return_logvol=False):
    """Simulate X_n = xi_n exp(omega_n - V[omega]) with AR(1) log-vols.

    omega_0 is drawn from the stationary law N(0, Sigma^2/(1-g^2)), so the
    series is stationary from the first sample (no burn-in).

    Parameters
    ----------
    params : Ar1LogVolParams
    n : int
        Series length, >= 2.
    seed : int, numpy.random.SeedSequence, or a list or tuple of them
        PCG64 stream seed; identical inputs give bitwise-identical output.
    return_logvol : bool
        Also return the latent omega path, which no stage reads: it is kept
        so that tests can check the log-vol law the series is built from.

    Notes
    -----
    With drive_0 ~ N(0, V[omega]) and drive_n = Sigma eta_n, the path is the
    recursion omega_0 = drive_0, omega_n = drive_n + g omega_{n-1}, run in
    float64 one step at a time (the arithmetic of the IIR filter 1/(1 - g z^-1))
    over every column at once.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    v = params.stationary_var
    z = _normals(seed, 2 * n)
    omega, xi = z[:n], z[n:]
    omega[0] *= np.sqrt(v)
    omega[1:] *= np.sqrt(params.sigma2)
    g = params.g
    steps = list(omega)   # row views, one per time step
    for prev, row in zip(steps, steps[1:]):
        row += g * prev
    return _series(omega, v, xi, seed, return_logvol)


def fgn_alpha(params, t):
    """Closed-form autocovariance of the fractional-Gaussian log-vols.

    alpha_t = Sigma^2/2 * ((t+1)^e - 2 t^e + |t-1|^e) with e = 2 - nu; the
    lag-0 value is Sigma^2 and the large-t behaviour is
    Sigma^2 (2 - 3 nu + nu^2) t^(-nu) / 2.  That second difference cancels
    terms of size t^2 down to about t^(-nu), so from t = 2 on it is formed
    as t^e (expm1(e log1p(1/t)) + expm1(e log1p(-1/t))), which does not.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ParameterError("lag must be >= 0")
    e = 2.0 - params.nu
    near = (t + 1.0) ** e - 2.0 * t ** e + np.abs(t - 1.0) ** e
    far = np.maximum(t, 2.0)
    far = far ** e * (np.expm1(e * np.log1p(1.0 / far)) + np.expm1(e * np.log1p(-1.0 / far)))
    return 0.5 * params.sigma2 * np.where(t < 2.0, near, far)


def gen_fgn_logvol(params, n, seed, return_logvol=False):
    """Simulate X_n = xi_n exp(omega_n - Sigma^2) with long-memory log-vols.

    omega is exactly Gaussian with autocovariance fgn_alpha, drawn by circulant
    embedding (Davies & Harte 1987; Wood & Chan 1994): the row
    alpha_0 .. alpha_{n-1}, alpha_{n-2} .. alpha_1 of length M = 2n - 2 is the
    first row of a circulant matrix whose eigenvalues are its rfft.  An
    eigenvalue below zero is refused with a NumericalError naming the smallest,
    never clipped: the smallest is 0.374 at nu = 0.4 and 8.5e-7 at nu = 1e-6
    (both at n = 10^4).  Each column's own ``default_rng(seed)`` draws a
    (2, M/2 + 1) block of normals, the real and imaginary parts of its
    spectrum (the zero and Nyquist terms are real), then its n normals xi; one
    irfft along axis 0 turns the whole panel's spectra into log-vols, of which
    the first n rows are kept.
    ``seed`` and ``return_logvol`` are as in gen_ar1_logvol.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    row = fgn_alpha(params, np.arange(n))
    eig = np.fft.rfft(np.concatenate([row, row[-2:0:-1]])).real   # M/2 + 1 = n of them
    if eig.min() < 0.0:
        raise NumericalError(
            "the circulant embedding of the fractional-noise covariance is not positive "
            f"semidefinite: smallest eigenvalue {eig.min():.6g} (nu={params.nu}, n={n})")
    m = 2 * n - 2
    amp = np.sqrt(eig * (m / 2.0))   # irfft divides by M and counts interior terms twice
    amp[[0, -1]] *= np.sqrt(2.0)
    z = _normals(seed, 3 * n)
    spectrum = z[:2 * n].reshape(2, n, -1) * amp[:, None]
    spectrum[1, [0, -1]] = 0.0
    omega = np.fft.irfft(spectrum[0] + 1j * spectrum[1], m, axis=0)[:n]
    return _series(omega, params.sigma2, z[2 * n:], seed, return_logvol)


def gen_iid_lognormal_vol(params, n, seed):
    """Simulate iid X = exp(s w - s^2) xi with w, xi iid N(0,1); each seed's
    stream draws its n normals w, then its n normals xi."""
    if n < 1:
        raise ParameterError(f"need n >= 1, got n={n}")
    z = _normals(seed, 2 * n)
    return _series(params.s * z[:n], params.s ** 2, z[n:], seed, False)


def calibrate_volvol(series):
    """Method-of-moments vol-of-vol: s^2 = log((2/pi) <x^2> / <|x|>^2).

    The absolute first moment is used in the denominator; with
    X = exp(s w - s^2) xi one has E|X| = sqrt(2/pi) exp(-s^2/2), which makes
    the identity exact.  On thin-tailed data the estimate can be negative;
    it is returned as-is with a warning rather than clamped.
    """
    x = as_series(series)
    m_abs = np.mean(np.abs(x))
    if m_abs == 0.0:
        raise ParameterError("cannot calibrate on an all-zero series")
    s2 = float(np.log((2.0 / np.pi) * np.mean(x ** 2) / m_abs ** 2))
    if s2 < 0.0:
        warnings.warn(f"calibrated s^2 = {s2:.4g} is negative (thin-tailed input)",
                      RuntimeWarning, stacklevel=2)
    return s2
