"""Quantile grid shared by copula estimation, kernels and limit laws.

The unit interval is discretized at the m interior points u_i = i/(m+1),
i = 1..m, with uniform quadrature weight 1/(m+1) per point.  The endpoints
0 and 1 are excluded: the empirical bridge vanishes there and the kernels
are identically zero on the boundary.
"""

import numpy as np

from .errors import ParameterError

DEFAULT_M = 100


class QuantileGrid:
    """Regular interior lattice of quantile levels with quadrature weights.

    Parameters
    ----------
    m : int
        Number of interior points, u_i = i/(m+1).
    """

    def __init__(self, m=DEFAULT_M):
        m = int(m)
        if m < 1:
            raise ParameterError(f"grid needs at least one point, got m={m}")
        self.m = m
        self.weight = 1.0 / (m + 1)
        self.points = np.arange(1, m + 1) * self.weight
        self.points.flags.writeable = False

    def __eq__(self, other):
        return isinstance(other, QuantileGrid) and other.m == self.m

    def __hash__(self):
        return hash(("QuantileGrid", self.m))

    def __repr__(self):
        return f"QuantileGrid(m={self.m})"

    def integrate(self, values):
        """Quadrature against the grid weight; the grid runs along the last axis."""
        return float(np.sum(values) * self.weight) if np.ndim(values) == 1 else \
            np.sum(values, axis=-1) * self.weight

    def sine_mode(self, j):
        """Bridge eigenfunctions sqrt(2) sin(j pi u) on the grid: one vector for a
        scalar order j, one column per order for an array of orders."""
        j = np.asarray(j)
        if np.any(j < 1):
            raise ParameterError(f"sine mode index must be >= 1, got {j}")
        return np.sqrt(2.0) * np.sin(np.multiply.outer(self.points, j * np.pi))

    def bridge(self):
        """Brownian-bridge kernel I(u_i, u_j) = min(u_i, u_j) - u_i u_j on the grid;
        every entry is at least u_1 (1 - u_m) > 0."""
        u = self.points
        return np.minimum.outer(u, u) - np.outer(u, u)
