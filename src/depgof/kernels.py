"""Covariance kernels of the empirical-CDF bridge and their spectra.

Under dependence the limiting covariance of the rescaled bridge
sqrt(N)(F_N - F) at quantiles (u,v) is

    H(u,v) = (min(u,v) - uv) [1 + Psi(u,v)] = I(u,v) [1 + Psi(u,v)],

where I is the Brownian-bridge kernel (eigenpairs (j pi)^{-2},
sqrt(2) sin(j pi u)) and Psi the lag-summed copula excess.  This module
builds H from an estimated Psi or from model parameters, solves the
discretized Mercer eigenproblem, and provides the analytic machinery for
weakly dependent pseudo-elliptical models: a second-order spectrum by
matrix perturbation theory on the kernel's excess over the bridge, and the
exact Cramer-von Mises density of a spectrum, by inverting its
characteristic function.

Kernel construction and eigendecomposition are single-threaded per
kernel; distinct kernels can be processed concurrently.  Spectrum objects
are immutable after construction.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .grid import QuantileGrid
from .lognormal import get_basis
from .sampling import fgn_alpha

_EIG_CLAMP = 1e-9
_INDEFINITE_REMEDY = (
    "empirical Psi surfaces admit noise at large lags that can make the kernel "
    "indefinite; consider the semi-parametric route: sum estimated copulas only "
    "up to the lag where short-ranged terms die out, fit the remaining "
    "long-ranged mode analytically, and extend that fit to large lags"
)


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized covariance kernel H(u_i, u_j) on a quantile grid."""

    grid: QuantileGrid
    values: np.ndarray

    def __post_init__(self):
        m = self.grid.m
        if self.values.shape != (m, m):
            raise ParameterError(
                f"kernel shape {self.values.shape} does not match grid m={m}")
        if not np.isfinite(self.values).all():   # NaN would pass the symmetry check
            raise ParameterError("kernel has a value that is not finite")
        asym = np.abs(self.values - self.values.T).max()
        if asym > 1e-12:
            raise ParameterError(f"kernel is not symmetric (max asymmetry {asym:.2e})")


@dataclass(frozen=True)
class Spectrum:
    """Descending eigenvalues and continuum-normalized eigenvectors of a kernel.

    Eigenvectors are columns; normalization is sum_i U_j(u_i)^2 /(m+1) = 1,
    matching the L2([0,1]) convention of the Mercer expansion.
    """

    grid: QuantileGrid
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    digest: str

    @property
    def n_modes(self):
        return self.eigenvalues.size


def brownian_bridge_kernel(grid):
    """Independence kernel I(u,v) = min(u,v) - uv."""
    return KernelMatrix(grid=grid, values=grid.bridge())


def build_kernel_from_psi(psi):
    """H = I * (1 + Psi) from an accumulated correction surface."""
    return KernelMatrix(grid=psi.grid, values=psi.grid.bridge() * (1.0 + psi.values))


def _rank_one_kernel(params, grid, coefficient):
    """I + coefficient * A A^T, with A at the model's own scale s = sqrt(V[omega])."""
    a, _ = get_basis(math.sqrt(params.stationary_var)).tables(grid)
    return KernelMatrix(grid=grid, values=grid.bridge() + coefficient * np.outer(a, a))


def ar1_psi_coefficient(params):
    """Infinite-horizon weight 2 sum_t (1 - t/N) alpha_t / V-normalized form.

    Equals 2 g Sigma^2 / ((1-g)^2 (1+g)), the scalar multiplying the
    rank-one log-vol term in the weak-dependence kernel.
    """
    g = params.g
    return 2.0 * g * params.sigma2 / ((1.0 - g) ** 2 * (1.0 + g))


def build_kernel_ar1(params, grid):
    """Weak-dependence kernel H = I + [2 g Sigma^2/((1-g)^2(1+g))] A A^T for AR(1) log-vols.

    A is tabulated at the model's own log-vol standard deviation
    s = sqrt(Sigma^2/(1-g^2)), which makes the kernel the first-order
    covariance of the generated series.  The same form at another scale s
    is I + c A_s A_s^T with A_s from ``get_basis(s).tables(grid)``.
    """
    return _rank_one_kernel(params, grid, ar1_psi_coefficient(params))


def fgn_psi_coefficient(params, n):
    """Finite-N weighted lag sum 2 sum_{t=1}^{N} (1 - t/N) alpha_t.

    Long memory makes the sum grow with N, so no infinite-horizon limit is
    taken; the kernel is built at the sample size actually tested.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    t = np.arange(1, n + 1)
    return float(2.0 * np.sum((1.0 - t / n) * fgn_alpha(params, t)))


def build_kernel_fgn(params, n, grid):
    """Long-memory kernel H = I + [2 sum_t (1-t/N) alpha_t] A A^T at sample size N,
    A tabulated at the model's own log-vol standard deviation s = Sigma."""
    return _rank_one_kernel(params, grid, fgn_psi_coefficient(params, n))


def _digest(lam):
    """Spectrum digest: the sha1 of the eigenvalues rounded to 12 decimals, 16 hex digits."""
    return hashlib.sha1(np.round(lam, 12).tobytes()).hexdigest()[:16]


def eigendecompose(kernel):
    """Solve the discretized Mercer problem of a symmetric kernel.

    The quadrature operator K = H * weight is diagonalized exactly (uniform
    weight keeps it symmetric); eigenvectors are rescaled to continuum
    normalization.  Eigenvalues in [-1e-9, 0) are clamped to zero; anything
    below that raises, because a materially indefinite kernel signals a bad
    empirical Psi rather than rounding noise.
    """
    g = kernel.grid
    lam, vec = np.linalg.eigh(kernel.values * g.weight)
    lam = lam[::-1].copy()
    vec = vec[:, ::-1]
    if lam[-1] < -_EIG_CLAMP:
        raise NumericalError(
            f"kernel has a materially negative eigenvalue {lam[-1]:.3e}; "
            + _INDEFINITE_REMEDY)
    np.clip(lam, 0.0, None, out=lam)
    u_cont = vec * math.sqrt(g.m + 1)
    return Spectrum(grid=g, eigenvalues=lam, eigenvectors=u_cont, digest=_digest(lam))


def cm_moments(kernel):
    """Exact mean and variance of the CM statistic: (Tr H, 2 Tr H^2)."""
    w = kernel.grid.weight
    mean = float(np.trace(kernel.values) * w)
    variance = float(2.0 * np.sum(kernel.values ** 2) * w * w)
    return mean, variance


@dataclass(frozen=True)
class PerturbativeInputs:
    """Reduced couplings of the weak-dependence kernel.

    alpha_bar = 2 Tr A sum_t (1 - t/N) alpha_t, and analogously rho_bar
    with Tr R and beta_bar with sqrt(Tr A Tr R), so each multiplies a
    unit-trace rank-one operator.
    """

    alpha_bar: float
    rho_bar: float
    beta_bar: float

    def __post_init__(self):
        for name in ("alpha_bar", "rho_bar", "beta_bar"):
            if not np.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite")

    @property
    def outside_small_regime(self):
        return max(abs(self.alpha_bar), abs(self.rho_bar), abs(self.beta_bar)) > 0.5


def _unit_modes(grid):
    """Sign-fixed unit-norm s = 1 A and R modes: overlaps with sin(2.) and sin(1.) positive."""
    basis = get_basis()
    a, r = basis.tables(grid)
    tr_a, tr_r = basis.traces(grid)
    ua = a / math.sqrt(tr_a)
    ur = r / math.sqrt(tr_r)
    if grid.integrate(ua * grid.sine_mode(2)) < 0:
        ua = -ua
    if grid.integrate(ur * grid.sine_mode(1)) < 0:
        ur = -ur
    return ua, ur


def build_kernel_pseudo_elliptical(inputs, grid):
    """Kernel I + alpha_bar P_A + rho_bar P_R - (beta_bar/2)(P_B + P_B^T).

    P_A and P_R are the unit-trace projectors onto the A and R modes of the
    reference (s = 1) basis and P_B the cross operator |R><A|.  This is the
    exact reference that the perturbative spectrum approximates.
    """
    ua, ur = _unit_modes(grid)
    h = grid.bridge() + inputs.alpha_bar * np.outer(ua, ua) + inputs.rho_bar * np.outer(ur, ur)
    cross = np.outer(ur, ua)
    h = h - 0.5 * inputs.beta_bar * (cross + cross.T)
    return KernelMatrix(grid=grid, values=h)


def perturbative_spectrum(inputs, grid):
    """Second-order spectrum of the pseudo-elliptical kernel without diagonalizing it.

    The kernel's excess E = H - I is projected on the first J = min(40, m)
    sine modes, v[i, j] = <i|E|j>.  The A and R modes nearly coincide with
    sin(2 pi u) and sin(pi u), so H is an almost diagonal perturbation of
    the bridge spectrum lam_j = (j pi)^-2 apart from the near-degenerate
    block diag(lam_1, lam_2) + v[:2, :2].  That block is diagonalized
    exactly, each eigenvector b signed so that its larger component is
    positive; Rayleigh-Schroedinger theory (Kato 1966) then couples it to
    the orders j >= 3 through V = b^T v[:2, 2:], shifting eigenvalues at
    second order and mixing eigenvectors at first order, while each order
    j >= 3 also takes its own v[j, j].

    The leading min(20, m) modes are kept.  Returns a Spectrum whose
    eigenvectors are first-order accurate and orthonormal only to O(eps^2);
    use eigendecompose for exact output.
    """
    if grid.m < 2:
        raise ParameterError(f"the (sin 1, sin 2) block of the perturbative spectrum "
                             f"needs a grid of m >= 2 points, got m={grid.m}")
    if inputs.outside_small_regime:
        warnings.warn("couplings exceed 0.5; perturbative accuracy is not guaranteed",
                      RuntimeWarning, stacklevel=2)
    j = np.arange(1, min(40, grid.m) + 1)
    sines = grid.sine_mode(j)
    lam = 1.0 / (j * np.pi) ** 2
    excess = build_kernel_pseudo_elliptical(inputs, grid).values - grid.bridge()
    v = sines.T @ excess @ sines * grid.weight ** 2
    lam_pair, b = np.linalg.eigh(np.diag(lam[:2]) + v[:2, :2])
    lam_pair, b = lam_pair[::-1], b[:, ::-1]
    b = b * np.sign(b[np.abs(b).argmax(axis=0), [0, 1]])
    coupling = b.T @ v[:2, 2:]
    step = coupling / (lam_pair[:, None] - lam[2:])   # first-order mixing coefficients
    shift = coupling * step                           # second-order eigenvalue shifts
    lam_out = np.concatenate([lam_pair + shift.sum(axis=1),
                              lam[2:] + np.diag(v)[2:] - shift.sum(axis=0)])
    vecs = sines @ np.block([[b, -b @ step], [step.T, np.eye(j.size - 2)]])
    vecs = vecs / np.sqrt(grid.integrate(vecs.T ** 2))

    order = np.argsort(lam_out)[::-1][:20]
    return Spectrum(grid=grid, eigenvalues=lam_out[order], eigenvectors=vecs[:, order],
                    digest="perturbative:" + _digest(lam_out[order]))


# ---------------------------------------------------------------------------
# Cramer-von Mises density correction for a small shift of the second mode
# ---------------------------------------------------------------------------

_CM_GRID_STEP = 1e-3
_CM_GRID_MAX = 5.0
_CM_FFT_SIZE = 2 ** 14   # aliasing period _CM_FFT_SIZE * _CM_GRID_STEP ~ 16.4


def _cm_density(lam):
    """Exact density of CM = sum_j lam_j z_j^2 on the grid kg.

    phi(t) = prod_j (1 - 2 i lam_j t)^{-1/2} and f(k) = (1/pi) Re int_0^inf
    phi(t) e^{-itk} dt.  The trapezoid rule at step h = 2 pi / (N dk) is one
    FFT whose bins land on kg; clipping removes the -1e-15 rounding left
    near k = 0.
    """
    kg = np.arange(0.0, _CM_GRID_MAX + _CM_GRID_STEP / 2, _CM_GRID_STEP)
    h = 2.0 * np.pi / (_CM_FFT_SIZE * _CM_GRID_STEP)
    t = h * np.arange(_CM_FFT_SIZE)
    phi = np.exp(-0.5 * np.log1p(-2j * np.outer(t, lam)).sum(axis=1))
    phi[0] *= 0.5   # trapezoid end weight at t = 0
    return kg, np.clip(h / np.pi * np.fft.fft(phi).real[:kg.size], 0.0, None)


def _cm_corrected_density_grid(alpha_bar):
    """Exact CM density of the default grid's bridge spectrum with lambda_2
    lifted to mu = lambda_2 + alpha_bar <u_A, sin 2>^2."""
    grid = QuantileGrid()
    lam = eigendecompose(brownian_bridge_kernel(grid)).eigenvalues
    lam2 = lam[1]
    if alpha_bar < 0 or alpha_bar > 0.5 * lam2:
        warnings.warn(
            f"alpha_bar={alpha_bar:.4g} is not small against lambda_2={lam2:.4g}; "
            "the single-mode correction degrades", RuntimeWarning, stacklevel=3)
    ua, _ = _unit_modes(grid)
    lam[1] += alpha_bar * grid.integrate(ua * grid.sine_mode(2)) ** 2
    return _cm_density(lam)


def cm_density_correction(k, alpha_bar):
    """Density of the CM law when the second bridge mode is lifted by alpha_bar a2^2.

    a2 is the overlap of the s = 1 A mode with sin(2 pi u) on the default
    100-point grid.  The density is the exact inverse of the characteristic
    function of that grid's bridge spectrum with lambda_2 replaced by
    lambda_2 + alpha_bar a2^2, so the result is deterministic.  The
    single-mode lift models alpha_bar small against lambda_2 = 1/(4 pi^2);
    at alpha_bar = 0 it is the baseline density.
    """
    kg, dens = _cm_corrected_density_grid(alpha_bar)
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ParameterError("CM statistic values must be >= 0")
    out = np.interp(k, kg, dens)
    return out if out.ndim else float(out)


def cm_corrected_cdf(k, alpha_bar):
    """CDF companion of cm_density_correction: cumulative trapezoid of the same
    deterministic density."""
    kg, dens = _cm_corrected_density_grid(alpha_bar)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(kg))])
    k = np.asarray(k, dtype=float)
    out = np.interp(k, kg, cdf)
    return out if out.ndim else float(out)
