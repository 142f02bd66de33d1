"""The special functions of depgof, in numpy and math alone.

- ``ndtr``: the standard-normal CDF Phi, from W. J. Cody's rational
  approximations of erf and erfc (Math. Comp. 23, 631-637, 1969), with
  exp(-z^2/2) built from an exact split of z, so that Phi keeps its
  relative accuracy far into the lower tail.
- ``ndtri_start``: P. J. Acklam's approximation of Phi^{-1}, relative
  error below 1.15e-9; a start for Newton steps, not a quantile.
- ``hermite_rule``: the nodes and weights of the standard-normal
  Gauss-Hermite rule whose weight passes a floor, from asymptotic starts
  polished by Newton steps on the normalized three-term recurrence.
- ``kolmogorov_sf``: the survival function of the Kolmogorov distribution.
"""

import math

import numpy as np

from .errors import NumericalError

# Cody's coefficients, leading first: erf on |x| <= 1/2, erfc on 1/2 < x <= 4
# (times exp(x^2)) and on x > 4 (times x exp(x^2), in 1/x^2)
_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e00, 1.13864154151050156e02,
            3.77485237685302021e02, 3.20937758913846947e03)
_ERF_DEN = (1.0, 2.36012909523441209e01, 2.44024637934444173e02, 1.28261652607737228e03,
            2.84423683343917062e03)
_MID_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e00,
            6.61191906371416295e01, 2.98635138197400131e02, 8.81952221241769090e02,
            1.71204761263407058e03, 2.05107837782607147e03, 1.23033935479799725e03)
_MID_DEN = (1.0, 1.57449261107098347e01, 1.17693950891312499e02, 5.37181101862009858e02,
            1.62138957456669019e03, 3.29079923573345963e03, 4.36261909014324716e03,
            3.43936767414372164e03, 1.23033935480374942e03)
_TAIL_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
             1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4)
_TAIL_DEN = (1.0, 2.56852019228982242e00, 1.87295284992346725e00, 5.27905102951428412e-1,
             6.05183413124413191e-2, 2.33520497626869185e-3)
_RSQRT_PI = 0.56418958354775628695
_RSQRT_2 = math.sqrt(0.5)
# the same edges in z = x sqrt(2); Phi(-38.5) is below the smallest double
_ERF_EDGE, _TAIL_EDGE, _ZERO_EDGE = 0.5 / _RSQRT_2, 4.0 / _RSQRT_2, 38.5
# exp(-h^2/2) at every h = k/16 below the zero edge, each from an exact argument
_EXP_SIXTEENTHS = np.array([math.exp(-k * k / 512.0) for k in range(16 * 39)])

# Acklam's coefficients: the central region and the lower tail
_CENTRAL_NUM = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
              1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_CENTRAL_DEN = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
              6.680131188771972e01, -1.328068155288572e01, 1.0)
_LOWER_NUM = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
            -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_LOWER_DEN = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
            3.754408661907416e00, 1.0)
_LOWER_EDGE = 0.02425

_HERMITE_PASSES = 8


def _horner(coeffs, x):
    """The polynomial of ``coeffs``, leading first, at x, by Horner's rule."""
    r = coeffs[0] * x
    for c in coeffs[1:-1]:
        r += c
        r *= x
    r += coeffs[-1]
    return r


def _mid_erfc(x):
    """exp(x^2) erfc(x) for 1/2 < x <= 4."""
    r = _horner(_MID_NUM, x)
    r /= _horner(_MID_DEN, x)
    return r


def _tail_erfc(x):
    """exp(x^2) erfc(x) for x > 4: (1/sqrt(pi) - y P(y)/Q(y)) / x, y = 1/x^2."""
    y = 1.0 / (x * x)
    r = _horner(_TAIL_NUM, y)
    r /= _horner(_TAIL_DEN, y)
    r *= -y
    r += _RSQRT_PI
    r /= x
    return r


def _exp_half_square(w):
    """exp(-w^2/2) for 0 <= w < 38.5.  w = h + d with h = k/16, so h^2/2 is exact
    and read from a table; rounding touches only the small rest d (w + h) / 2."""
    k = (w * 16.0).astype(np.intp)
    h = k * 0.0625
    rest = w - h
    rest *= w + h
    rest *= -0.5
    np.exp(rest, out=rest)
    rest *= _EXP_SIXTEENTHS[k]
    return rest


def ndtr(z):
    """Phi(z), elementwise, as a float array of z's shape.

    Relative error about 1e-15 wherever Phi(z) is a normal double; Phi is 0
    below z = -38.5 and 1 above 38.5.  Each of Cody's three ranges is
    evaluated only at its own points.
    """
    z = np.asarray(z, dtype=float)
    flat = z.reshape(-1)
    w = np.abs(flat)
    out = np.heaviside(flat, 1.0)   # the limits beyond the edges; nan stays nan
    inner = np.flatnonzero(w <= _ERF_EDGE)
    if inner.size:
        x = flat[inner] * _RSQRT_2
        y = x * x
        r = _horner(_ERF_NUM, y)
        r /= _horner(_ERF_DEN, y)
        r *= 0.5 * x
        r += 0.5                                  # Phi(z) = (1 + erf(z / sqrt 2)) / 2
        out[inner] = r
    for scaled_erfc, lo, hi in ((_mid_erfc, _ERF_EDGE, _TAIL_EDGE),
                                (_tail_erfc, _TAIL_EDGE, _ZERO_EDGE)):
        idx = np.flatnonzero((w > lo) & (w <= hi))
        if idx.size:
            wi = w[idx]
            r = scaled_erfc(wi * _RSQRT_2)
            r *= _exp_half_square(wi)
            r *= 0.5                              # Phi(-w) = erfc(w / sqrt 2) / 2
            out[idx] = np.where(flat[idx] > 0.0, 1.0 - r, r)
    return out.reshape(z.shape)


def ndtri_start(p):
    """Acklam's approximation of Phi^{-1}(p) for p in (0, 1), elementwise: a start
    for Newton steps on Phi, within 1.15e-9 of the quantile, relatively."""
    p = np.asarray(p, dtype=float)
    t = np.minimum(p, 1.0 - p)
    r = np.sqrt(-2.0 * np.log(t))
    lower = _horner(_LOWER_NUM, r) / _horner(_LOWER_DEN, r)
    q = p - 0.5
    s = q * q
    central = q * _horner(_CENTRAL_NUM, s) / _horner(_CENTRAL_DEN, s)
    return np.where(t < _LOWER_EDGE, np.where(p > 0.5, -lower, lower), central)


def _hermite_pass(x, n):
    """(q_{n-2}(x), q_{n-1}(x), q_n(x)) of the Hermite polynomials orthonormal under
    N(0, 1): q_{k+1} = (x q_k - sqrt(k) q_{k-1}) / sqrt(k + 1), q_0 = 1."""
    k = np.arange(n, dtype=float)
    down, up = -np.sqrt(k), 1.0 / np.sqrt(k + 1.0)
    older, prev, cur = np.zeros_like(x), np.zeros_like(x), np.ones_like(x)
    for j in range(n):
        np.multiply(x, cur, out=older)
        older += down[j] * prev
        older *= up[j]
        older, prev, cur = prev, cur, older
    return older, prev, cur


def hermite_rule(n, floor):
    """(nodes, weights) of the n-point Gauss-Hermite rule of the standard normal
    density, ascending, keeping only the nodes whose weight is at least ``floor``.

    The positive zeros of He_n start from the second-order WKB phase of the
    Hermite function, within 1.2e-3 of a zero spacing for every n (1.5e-10 at
    n = 384), and are polished by Newton steps on the recurrence until a step
    is below 1e-8, after which the error is below rounding.
    Only the zeros whose asymptotic weight phi(x) dx reaches floor / 64 are
    polished.  A weight is 1 / (n q_{n-1}(x)^2), divided by the sum of the
    kept weights.
    """
    nu = 2.0 * n + 1.0
    j = np.arange(1, n // 2 + 1, dtype=float)
    phase = (j - 0.5 if n % 2 == 0 else j) * math.pi
    t = phase / math.sqrt(nu)    # zeros in the units of H_n, x = t sqrt(2)
    for _ in range(_HERMITE_PASSES):
        q = nu - t * t
        root = np.sqrt(q)
        value = (0.5 * (t * root + nu * np.arcsin(t / math.sqrt(nu))) + t / (4.0 * nu * root)
                 + 5.0 * t ** 3 / (24.0 * nu * q * root))
        slope = root + 1.0 / (4.0 * q * root) + 5.0 * t * t / (8.0 * q * q * root)
        t = np.minimum(t - (value - phase) / slope, math.sqrt(nu) * (1.0 - 1e-12))
    x = t * math.sqrt(2.0)
    spacing = math.pi * math.sqrt(2.0) / np.sqrt(nu - t * t)
    x = x[np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi) * spacing >= floor / 64.0]
    if n % 2:
        x = np.concatenate(([0.0], x))
    for _ in range(_HERMITE_PASSES):
        below, before, value = _hermite_pass(x, n)
        step = value / (math.sqrt(n) * before)
        x = x - step
        if np.all(np.abs(step) <= 1e-8):
            break
    else:
        raise NumericalError(f"the {n}-point Hermite rule did not converge")
    # Newton's error squares each step (He_n'' = x He_n' at a zero), so after a
    # step below 1e-8 x is within rounding of the zero; q_{n-1} follows x to
    # first order, q_{n-1}' = sqrt(n - 1) q_{n-2}
    before -= step * math.sqrt(n - 1) * below
    weights = 1.0 / (n * before * before)
    keep = weights >= floor
    x, weights = x[keep], weights[keep]
    # the rule integrates 1 exactly: dividing by the sum removes the weights'
    # common rounding, and the mass below the floor is far below it
    mirror = n % 2    # an odd rule's node 0 has no mirror image
    weights /= math.fsum(np.concatenate((weights[mirror:], weights)))
    return (np.concatenate((-x[mirror:][::-1], x)),
            np.concatenate((weights[mirror:][::-1], weights)))


def kolmogorov_sf(x):
    """P[K > x] for K = sup |B(t)| of the Brownian bridge: 1 minus the Jacobi
    theta series sqrt(2 pi)/x sum_k exp(-(2k-1)^2 pi^2 / (8 x^2)) below x = 1,
    where it converges fast, else 2 sum_k (-1)^(k-1) exp(-2 k^2 x^2)."""
    x = float(x)
    if x <= 0.0:
        return 1.0
    if x < 1.0:
        c = -math.pi ** 2 / (8.0 * x * x)
        return 1.0 - math.sqrt(2.0 * math.pi) / x * math.fsum(
            math.exp(c * k * k) for k in (1, 3, 5, 7))
    # exp(-2 k^2 x^2) with x = h + d, h = j/16, so only the small rest rounds
    h = math.floor(16.0 * x) / 16.0
    rest = (x - h) * (x + h)
    return 2.0 * math.fsum((-1) ** (k - 1) * math.exp(-2.0 * k * k * h * h)
                           * math.exp(-2.0 * k * k * rest) for k in range(1, 7))
