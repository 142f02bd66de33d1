"""Output checks that any correct depgof passes, whatever its random stream.

Nothing here imports depgof: the KS/CM statistics are recomputed by an
independent oracle (trapezoid quadrature of the log-normal volatility
marginal, not the package's Gauss-Hermite tables), and p-values are
recomputed from the law artifacts the program wrote.
"""

import hashlib
import json
import os

import numpy as np
from scipy.special import ndtr
from scipy.stats import kstest

# A sample whose model CDF lies within AMBIGUITY of a grid point may land
# on either side of it in a correct implementation (e.g. a quantile solver
# instead of a CDF evaluation); the oracle accepts both.
AMBIGUITY = 1e-9
STAT_RTOL = 1e-9
P_ATOL = 1e-12

_W = np.arange(-8.5, 8.5 + 1e-12, 0.02)
_W_WEIGHTS = np.exp(-0.5 * _W * _W) / np.sqrt(2.0 * np.pi) * 0.02


def model_cdf(x, s):
    """P[xi e^{s w - s^2} <= x] for independent standard normals xi, w."""
    x = np.asarray(x, dtype=float)
    return ndtr(x[:, None] * np.exp(s * s - s * _W)[None, :]) @ _W_WEIGHTS


def stat_bounds(x, s, m):
    """Intervals [lo, hi] that the KS and CM statistics of series x must lie in."""
    n = x.size
    f = np.sort(model_cdf(x, s))
    u = np.arange(1, m + 1) / (m + 1)
    lo = np.sqrt(n) * (np.searchsorted(f, u - AMBIGUITY, side="right") / n - u)
    hi = np.sqrt(n) * (np.searchsorted(f, u + AMBIGUITY, side="right") / n - u)
    big = np.maximum(np.abs(lo), np.abs(hi))
    small = np.where((lo <= 0) & (hi >= 0), 0.0, np.minimum(np.abs(lo), np.abs(hi)))
    w = 1.0 / (m + 1)
    return (small.max(), big.max()), ((small ** 2).sum() * w, (big ** 2).sum() * w)


def calibrated_scales(values):
    """Leave-one-out vol-of-vol per column of a raw panel, after standardizing.

    s_j^2 is the mean over the other columns of log((2/pi) <x^2> / <|x|>^2).
    """
    z = (values - values.mean(axis=0)) / values.std(axis=0, ddof=1)
    s2 = np.log((2.0 / np.pi) * np.mean(z * z, axis=0) / np.mean(np.abs(z), axis=0) ** 2)
    loo = (s2.sum() - s2) / max(1, s2.size - 1)
    return z, np.sqrt(np.maximum(loo, 0.0))


def read_law(outdir, stem):
    """Sorted samples of a written law CSV (one value a line, '#' header)."""
    return np.sort(np.loadtxt(os.path.join(outdir, stem + ".csv"), comments="#", ndmin=1))


def read_results(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def read_panel(path, columns):
    """(names, values of the given columns) of a panel CSV with a header row."""
    with open(path, encoding="utf-8") as fh:
        names = [c.strip() for c in fh.readline().split(",")]
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=columns)
    return names, values


def output_digest(outdir):
    """sha256 of the results files, in name order: equal iff outputs are bitwise equal."""
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(outdir)
                       if f.startswith("results") and f.endswith(".jsonl")):
        h.update(name.encode())
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Checker:
    """Records failed operations: a stage, or one tested series of one results file."""

    def __init__(self):
        self.failed = set()
        self.messages = []
        self.uniformity = {}

    def fail(self, key, message):
        self.failed.add(key)
        self.messages.append(message)

    def results(self, outdir, filename, names, law_stems, expected_stats):
        """Check one results file: rows, p-values against the laws, oracle statistics.

        ``expected_stats`` maps a column index to its (ks, cm) bounds.
        Returns the rows, or None when the file is unusable.
        """
        path = os.path.join(outdir, filename)
        try:
            rows = read_results(path)
        except (OSError, ValueError) as exc:
            self.fail(("test",), f"{filename}: unreadable ({exc})")
            for name in names:
                self.fail((filename, name), f"{filename}: {name} not tested")
            return None
        if [r.get("name") for r in rows] != list(names):
            self.fail(("test",), f"{filename}: rows do not match the panel columns")
            return None
        try:
            laws = {k: read_law(outdir, stem) for k, stem in law_stems.items()}
        except (OSError, ValueError) as exc:
            self.fail(("law",), f"{filename}: laws unreadable ({exc})")
            return None
        for k, law in laws.items():
            stat = np.array([r[k] for r in rows], dtype=float)
            p = np.array([r[f"p_{k}"] for r in rows], dtype=float)
            r_count = law.size - np.searchsorted(law, stat, side="left")
            expect = (r_count + 1.0) / (law.size + 1.0)
            bad = ~((p > 0) & (p <= 1) & (np.abs(p - expect) <= P_ATOL))
            for j in np.flatnonzero(bad):
                self.fail((filename, names[j]), f"{filename}: {names[j]} p_{k}={float(p[j])!r},"
                          f" law gives {float(expect[j])!r}")
        for j, bounds in expected_stats.items():
            for k, (lo, hi) in zip(("ks", "cm"), bounds):
                got = rows[j][k]
                tol = STAT_RTOL * (1.0 + hi)
                if not lo - tol <= got <= hi + tol:
                    self.fail((filename, names[j]),
                              f"{filename}: {names[j]} {k}={got!r}, oracle [{lo!r}, {hi!r}]")
        return rows

    def uniform(self, pvals, label, expect_uniform, stage):
        """KS test of p-values against U(0,1), in the sense of acceptance criterion 05."""
        pu = self.uniformity[label] = float(kstest(pvals, "uniform").pvalue)
        if expect_uniform and pu < 1e-4:
            self.fail((stage,), f"{label}: p-values not uniform (KS p={pu:.3g})")
        if not expect_uniform and pu >= 0.01:
            self.fail((stage,), f"{label}: naive p-values not rejected (KS p={pu:.3g})")

    def kernel_psd(self, outdir, m):
        k = np.loadtxt(os.path.join(outdir, "kernel.csv"), delimiter=",", comments="#", ndmin=2)
        low = np.linalg.eigvalsh(k / (m + 1))[0]
        if not low >= -1e-9:
            self.fail(("kernel",), f"kernel is not positive semi-definite (eigenvalue {low:.3g})")

    def psi_symmetric(self, outdir):
        psi = np.loadtxt(os.path.join(outdir, "psi.csv"), delimiter=",", comments="#", ndmin=2)
        asym = np.abs(psi - psi.T).max()
        if not asym <= 1e-12 * max(1.0, np.abs(psi).max()):
            self.fail(("estimate",), f"Psi is not symmetric (max asymmetry {asym:.3g})")
