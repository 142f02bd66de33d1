"""Covariance kernels of the empirical-CDF bridge and their spectra.

Under dependence the limiting covariance of the rescaled bridge
sqrt(N)(F_N - F) at quantiles (u,v) is

    H(u,v) = (min(u,v) - uv) [1 + Psi(u,v)] = I(u,v) [1 + Psi(u,v)],

where I is the Brownian-bridge kernel (eigenpairs (j pi)^{-2},
sqrt(2) sin(j pi u)) and Psi the lag-summed copula excess.  This module
builds H from an estimated Psi or from model parameters, solves the
discretized Mercer eigenproblem, and provides the analytic machinery for
weakly dependent pseudo-elliptical models: the rank-one perturbation
algebra, a second-order perturbative spectrum, and a closed-form
correction of the Cramer-von Mises density.

Kernel construction and eigendecomposition are single-threaded per
kernel; distinct kernels can be processed concurrently.  Spectrum objects
are immutable after construction.
"""

import hashlib
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import ive

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


def _bridge(grid):
    """I(u_i, u_j) = min(u_i, u_j) - u_i u_j on the grid."""
    u = grid.points
    return np.minimum.outer(u, u) - np.outer(u, u)


def brownian_bridge_kernel(grid):
    """Independence kernel I(u,v) = min(u,v) - uv."""
    return KernelMatrix(grid=grid, values=_bridge(grid))


def build_kernel_from_psi(psi):
    """H = I * (1 + Psi) from an accumulated correction surface."""
    sym_psi = 0.5 * (psi.values + psi.values.T)   # symmetric up to rounding
    return KernelMatrix(grid=psi.grid, values=_bridge(psi.grid) * (1.0 + sym_psi))


def _rank_one_kernel(params, grid, coefficient, vol_scale):
    """I + coefficient * A A^T, with A at scale s = vol_scale or sqrt(V[omega])."""
    s = math.sqrt(params.stationary_var) if vol_scale is None else float(vol_scale)
    a, _ = get_basis(s).tables(grid)
    return KernelMatrix(grid=grid, values=_bridge(grid) + coefficient * np.outer(a, a))


def ar1_psi_coefficient(params):
    """Infinite-horizon weight 2 sum_t (1 - t/N) alpha_t / V-normalized form.

    Equals 2 g Sigma^2 / ((1-g)^2 (1+g)), the scalar multiplying the
    rank-one log-vol term in the weak-dependence kernel.
    """
    g = params.g
    return 2.0 * g * params.sigma2 / ((1.0 - g) ** 2 * (1.0 + g))


def build_kernel_ar1(params, grid, vol_scale=None):
    """Weak-dependence kernel H = I + [2 g Sigma^2/((1-g)^2(1+g))] A for AR(1) log-vols.

    Parameters
    ----------
    params : Ar1LogVolParams
    grid : QuantileGrid
    vol_scale : float, optional
        Scale s of the basis function A.  Defaults to the model's own
        log-vol standard deviation sqrt(Sigma^2/(1-g^2)), which makes the
        kernel the actual first-order covariance of the generated series.
        Pass 1.0 to evaluate A at the reference normalization instead.
    """
    return _rank_one_kernel(params, grid, ar1_psi_coefficient(params), vol_scale)


def fgn_psi_coefficient(params, n):
    """Finite-N weighted lag sum 2 sum_{t=1}^{N} (1 - t/N) alpha_t.

    Long memory makes the sum grow with N, so no infinite-horizon limit is
    taken; the kernel is built at the sample size actually tested.
    """
    if n < 2:
        raise ParameterError(f"need n >= 2, got n={n}")
    t = np.arange(1, n + 1)
    return float(2.0 * np.sum((1.0 - t / n) * fgn_alpha(params, t)))


def build_kernel_fgn(params, n, grid, vol_scale=None):
    """Long-memory kernel H = I + [2 sum_t (1-t/N) alpha_t] A at sample size N."""
    return _rank_one_kernel(params, grid, fgn_psi_coefficient(params, n), vol_scale)


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
    digest = hashlib.sha1(np.round(lam, 12).tobytes()).hexdigest()[:16]
    return Spectrum(grid=g, eigenvalues=lam, eigenvectors=u_cont, digest=digest)


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

    @classmethod
    def from_lag_coefficients(cls, coeffs, n, grid=None):
        """Reduce per-lag (alpha, beta, rho) sequences with weights (1 - t/n),
        traces taken of the reference (s = 1) basis on ``grid``."""
        tr_a, tr_r = get_basis().traces(grid or QuantileGrid())
        wa = wr = wb = 0.0
        for c in coeffs:
            w = 1.0 - c.t / n
            wa += w * c.alpha
            wr += w * c.rho
            wb += w * c.beta
        return cls(alpha_bar=2.0 * tr_a * wa, rho_bar=2.0 * tr_r * wr,
                   beta_bar=2.0 * math.sqrt(tr_a * tr_r) * wb)


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
    h = _bridge(grid) + inputs.alpha_bar * np.outer(ua, ua) + inputs.rho_bar * np.outer(ur, ur)
    cross = np.outer(ur, ua)
    h = h - 0.5 * inputs.beta_bar * (cross + cross.T)
    return KernelMatrix(grid=grid, values=h)


def perturbative_spectrum(inputs, grid):
    """Second-order spectrum of the pseudo-elliptical kernel without diagonalizing it.

    The A mode nearly coincides with sin(2 pi u) and the R mode with
    sin(pi u) (overlaps a2, r1 close to one), so the kernel is an almost
    diagonal perturbation of the bridge spectrum.  The (sin 1, sin 2) block

        [[lam_1 + rho_bar r1^2,  -beta_bar r1 a2 / 2],
         [-beta_bar r1 a2 / 2,   lam_2 + alpha_bar a2^2]]

    is diagonalized exactly (its eigenvalues are the lambda_+- pair); the
    residual couplings through the orthogonal remainders eps_a |2perp>,
    eps_r |1perp> enter eigenvalues at second order and eigenvectors at
    first order.

    The couplings are summed over the first min(40, m) sine orders and the
    leading min(20, m) modes are kept.  Returns a Spectrum whose
    eigenvectors are first-order accurate and orthonormal only to O(eps^2);
    use eigendecompose for exact output.
    """
    if inputs.outside_small_regime:
        warnings.warn("couplings exceed 0.5; perturbative accuracy is not guaranteed",
                      RuntimeWarning, stacklevel=2)
    j_sum = min(40, grid.m)
    ua, ur = _unit_modes(grid)
    sines = np.stack([grid.sine_mode(j) for j in range(1, j_sum + 1)], axis=1)
    lam_i = 1.0 / (np.arange(1, j_sum + 1) * np.pi) ** 2

    a_ovl = (ua @ sines) * grid.weight   # <U_A | j>
    r_ovl = (ur @ sines) * grid.weight
    a2 = a_ovl[1]
    r1 = r_ovl[0]
    eps_a = math.sqrt(max(0.0, 1.0 - a2 ** 2))
    eps_r = math.sqrt(max(0.0, 1.0 - r1 ** 2))
    # components of the orthogonal remainders on the sine basis (j >= 3)
    c2p = np.zeros(j_sum)
    c1p = np.zeros(j_sum)
    if eps_a > 0:
        c2p[3::2] = a_ovl[3::2] / eps_a   # even sine orders j = 4, 6, ...
    if eps_r > 0:
        c1p[2::2] = r_ovl[2::2] / eps_r   # odd sine orders j = 3, 5, ...

    d1 = lam_i[0] + inputs.rho_bar * r1 ** 2
    d2 = lam_i[1] + inputs.alpha_bar * a2 ** 2
    off = -0.5 * inputs.beta_bar * r1 * a2
    disc = math.sqrt((d1 - d2) ** 2 + 4.0 * off ** 2)
    lam_pair = (0.5 * (d1 + d2 + disc), 0.5 * (d1 + d2 - disc))
    pair_vecs = []
    for lam in lam_pair:
        v = np.array([off, lam - d1]) if abs(off) > 0 else (
            np.array([1.0, 0.0]) if abs(lam - d1) <= abs(lam - d2) else np.array([0.0, 1.0]))
        pair_vecs.append(v / np.linalg.norm(v))

    # first-order couplings V[i, j] between the pair modes and |j>, j >= 3
    vmat = np.zeros((2, j_sum))
    for i, (b1, b2) in enumerate(pair_vecs):
        vmat[i, 2:] = ((inputs.rho_bar * r1 * b1 - 0.5 * inputs.beta_bar * a2 * b2)
                       * c1p[2:] * eps_r
                       + (inputs.alpha_bar * a2 * b2 - 0.5 * inputs.beta_bar * r1 * b1)
                       * c2p[2:] * eps_a)

    lam_out = np.empty(j_sum)
    vec_out = np.empty((grid.m, j_sum))
    for i in range(2):
        shift = np.sum(vmat[i, 2:] ** 2 / (lam_pair[i] - lam_i[2:]))
        lam_out[i] = lam_pair[i] + shift
        vec = sines[:, :2] @ pair_vecs[i]
        vec = vec + sines[:, 2:] @ (vmat[i, 2:] / (lam_pair[i] - lam_i[2:]))
        vec_out[:, i] = vec / math.sqrt(grid.integrate(vec * vec))
    for j in range(2, j_sum):
        second = sum(vmat[i, j] ** 2 / (lam_i[j] - lam_pair[i]) for i in range(2))
        diag = (inputs.alpha_bar * eps_a ** 2 * c2p[j] ** 2
                + inputs.rho_bar * eps_r ** 2 * c1p[j] ** 2
                - inputs.beta_bar * eps_a * eps_r * c1p[j] * c2p[j])
        lam_out[j] = lam_i[j] + second + diag
        vec = sines[:, j].copy()
        for i in range(2):
            if vmat[i, j] != 0.0:
                vec = vec + (vmat[i, j] / (lam_i[j] - lam_pair[i])) * (sines[:, :2] @ pair_vecs[i])
        vec_out[:, j] = vec / math.sqrt(grid.integrate(vec * vec))

    order = np.argsort(lam_out)[::-1][:20]
    digest = "perturbative:" + hashlib.sha1(
        np.round(lam_out[order], 12).tobytes()).hexdigest()[:16]
    return Spectrum(grid=grid, eigenvalues=lam_out[order],
                    eigenvectors=vec_out[:, order], digest=digest)


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


def _iid_cm_density(m):
    """Baseline (kg, density, lambda) of the m-point independence spectrum."""
    lam = eigendecompose(brownian_bridge_kernel(QuantileGrid(m))).eigenvalues
    return (*_cm_density(lam), lam)


def _cm_corrected_density_grid(alpha_bar):
    grid = QuantileGrid()
    kg, p_i, lam = _iid_cm_density(grid.m)
    if alpha_bar == 0.0:
        return kg, p_i
    ua, _ = _unit_modes(grid)
    a2sq = grid.integrate(ua * grid.sine_mode(2)) ** 2
    lam2 = lam[1]
    mu = lam2 + alpha_bar * a2sq
    if alpha_bar < 0 or alpha_bar > 0.5 * lam2:
        warnings.warn(
            f"alpha_bar={alpha_bar:.4g} is not small against lambda_2={lam2:.4g}; "
            "the single-mode correction degrades", RuntimeWarning, stacklevel=3)
    # exact one-mode correction: the corrected law replaces lambda_2 by mu, and
    # phi_c(t) = sqrt((1 - 2 i t lam2)/(1 - 2 i t mu)) inverts to
    # sqrt(lam2/mu) delta(k) + integral_{lam2}^{mu} dl e^{-(l+mu)k/(4 l mu)} *
    #   [(l+mu) I0(c k) - (mu-l) I1(c k)] / (8 (l mu)^{3/2}),  c = (mu-l)/(4 l mu)
    tl, wl = leggauss(48)
    nodes = lam2 + (mu - lam2) * 0.5 * (tl + 1.0)
    wts = wl * 0.5 * (mu - lam2)
    corr = np.zeros_like(kg)
    for lam_n, w_n in zip(nodes, wts):
        b = (lam_n + mu) / (4.0 * lam_n * mu)
        c = (mu - lam_n) / (4.0 * lam_n * mu)
        damp = np.exp((c - b) * kg)   # e^{-b k} I_n(c k) = ive(n, c k) e^{(c-b) k}
        corr += w_n * damp * ((lam_n + mu) * ive(0, c * kg)
                              - (mu - lam_n) * ive(1, c * kg)) / (8.0 * (lam_n * mu) ** 1.5)
    corr_w = corr.copy()
    corr_w[0] *= 0.5   # trapezoid end cell of the convolution integral
    dens = math.sqrt(lam2 / mu) * p_i + np.convolve(p_i, corr_w)[:kg.size] * _CM_GRID_STEP
    return kg, dens


def cm_density_correction(k, alpha_bar):
    """Density of the CM law when the second bridge mode is lifted by alpha_bar a2^2.

    a2 is the overlap of the s = 1 A mode with sin(2 pi u) on the default
    100-point grid.  The Bessel-form correction is convolved with the exact
    baseline density of that grid's bridge spectrum, obtained by inverting
    its characteristic function, so the result is deterministic.  Valid for
    alpha_bar small against lambda_2 = 1/(4 pi^2); at alpha_bar = 0 it
    returns the baseline density exactly.
    """
    kg, dens = _cm_corrected_density_grid(alpha_bar)
    k = np.asarray(k, dtype=float)
    if np.any(k < 0):
        raise ParameterError("CM statistic values must be >= 0")
    out = np.interp(k, kg, dens)
    return out if out.ndim else float(out)


def cm_corrected_cdf(k, alpha_bar):
    """CDF companion of cm_density_correction: cumulative trapezoid of the same
    deterministic density (exact baseline plus Bessel-form correction)."""
    kg, dens = _cm_corrected_density_grid(alpha_bar)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(kg))])
    k = np.asarray(k, dtype=float)
    out = np.interp(k, kg, cdf)
    return out if out.ndim else float(out)
