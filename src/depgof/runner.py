"""Pipeline stages, their artifacts, and the chains that run them.

Configuration is a flat ``key=value`` text file (one pair per line, ``#``
comments).  Each stage takes its inputs as objects and, given an
``outdir``, writes its artifacts; no other code writes them:

    generate_panel  panel.csv       estimate_psi   copula_t*.csv, psi.csv
    build_kernel    kernel.csv      diagonalize    spectrum_eig{vals,vecs}.csv
    simulate_laws   law_{ks,cm}<suffix>.csv        test_panel     results<suffix>.jsonl

``run_pipeline`` and ``reproduce`` chain the stages in memory; each CLI
verb reads a stage's inputs back from the outdir with the loaders next to
the writers (``load_panel``, ``load_psi``, ``load_kernel``, ``load_laws``),
so ``pipeline`` and the verb chain write the same bytes.  A loader refuses
an artifact that does not fit the config with a DataError naming the file;
each loader's docstring says what it checks.
Matrices are CSV rows under a one-line header ``# depgof <kind> m=<M>
lag=<t>``, laws single-column sorted samples, results one JSON object per
line (name, ks, cm, p_ks, p_cm).  Every numeric CSV is written by ``_write_csv`` and read,
input panels included, by ``_read_rows``, which refuses a cell that does not
parse or is not finite with a DataError naming the file, row and column.
Every file, the config included, is opened for reading by ``_reading``.
``test_panel`` reads each column's empirical CDF at its target's quantiles
of the grid levels, so the target CDF is never evaluated at the samples.

The ``threads`` key (>= 1; by default the CPUs the process may run on)
sets the worker count of the Monte-Carlo law draw, whose chunks are mapped
by ``_pool.map_ordered`` and release the GIL for long stretches.  Each
chunk's arithmetic does not depend on ``threads``, and the samples are
sorted once every chunk is drawn, so it changes no result.  The lags of
``estimate_psi`` and the target-quantile solves of ``test_panel`` run in
order on the calling thread.  Every public stage and chain runs inside
``_pool.one_blas_thread()``, so the BLAS calls it makes (the kernel's
``eigh``, the law draw's products) run on one OpenBLAS thread and give a
one-thread host's bits on any host.  All stages are deterministic given the
config and seed.
"""

import json
import math
import os
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np

from . import copulas, kernels, limit_law, lognormal, sampling
from ._csvtext import format_block
from ._pool import one_blas_thread
from .errors import ConfigError, DataError, ParameterError
from .grid import QuantileGrid

_MODELS = ("empirical", "ar1", "fgn", "iid")
_PANEL_STREAM = 1   # spawn-key prefix of panel columns; law chunk j uses the key (j,)
_WRITE_BLOCK = 8192   # numbers formatted per write
# The `reproduce` experiments.  Each forces its model over the config's, and the CLI
# reads the config file over its other settings.  fig2, AR(1) log-vol series: with
# the naive iid laws the p-values pile up near zero, with the corrected laws they
# are uniform.  fig3, long-memory FGN series: the corrected law improves the
# p-value distribution without making it exactly uniform.
PRESETS = {"fig2": {"model": "ar1"}, "fig3": {"model": "fgn", "n": 1500, "sigma2": 1.0}}


def _usable_cpus():
    """The number of CPUs this process may run on: its affinity set, where the
    OS keeps one, else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass(frozen=True)
class PipelineConfig:
    """Flat pipeline settings; unknown keys in a config file are rejected."""

    model: str = "iid"
    grid_m: int = 100
    t_max: int = 0            # 0 = auto: min(512, n // 2)
    n_trials: int = 100_000
    seed: int = 0
    n: int = 2500             # series length for synthetic models
    replications: int = 350   # panel width for synthetic models
    g: float = 0.88
    sigma2: float = 0.05
    nu: float = 0.4
    s: float = 0.5
    target_s2: float = -1.0   # >=0 fixes s^2 (0 = N(0,1)); <0 = model V[omega] or leave-one-out
    threads: int = field(default_factory=_usable_cpus)
    input: str = ""
    outdir: str = "depgof-out"

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ConfigError(f"model must be one of {_MODELS}, got {self.model!r}")
        for name, kind in _FIELD_TYPES.items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be a finite number, got {getattr(self, name)}")
        if self.grid_m < 10:
            raise ConfigError(f"grid_m must be >= 10, got {self.grid_m}")
        if self.t_max < 0:
            raise ConfigError(f"t_max must be >= 1 (or 0 for auto), got {self.t_max}")
        if self.n_trials < 1_000:
            raise ConfigError(f"n_trials must be >= 1000, got {self.n_trials}")
        for name, least in (("seed", 0), ("replications", 1), ("threads", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")


_FIELD_TYPES = {f.name: f.type for f in PipelineConfig.__dataclass_fields__.values()}


def parse_config_text(text, preset=None):
    """Parse ``key=value`` lines into a PipelineConfig; a line overrides the
    ``preset`` dict, which overrides the field defaults, and a key set on two
    lines is refused.  A ``#`` at the start of a line or after whitespace starts
    a comment; any other is part of the value, as in ``outdir = runs/exp#2``."""
    values = dict(preset or {})
    set_on = {}   # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ConfigError(f"line {lineno}: key {key!r} is set again; "
                              f"line {set_on[key]} set it first")
        set_on[key] = lineno
        kind = _FIELD_TYPES[key]
        try:
            if kind is int:
                values[key] = int(val)
            elif kind is float:
                values[key] = float(val)
            else:
                values[key] = val
        except ValueError:
            raise ConfigError(
                f"line {lineno}: cannot parse {val!r} as {kind.__name__}") from None
    return PipelineConfig(**values)


@contextmanager
def _reading(path, error=DataError):
    """The text file ``path``, open for a streaming read as UTF-8 with any leading
    byte-order mark dropped.  An OSError (say, ``path`` is a directory) or bytes
    that are not UTF-8, met on opening or on any read in the block, become
    ``error`` naming the file."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror or exc}") from None


def load_config(path, preset=None):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with _reading(path, ConfigError) as fh:
        return parse_config_text(fh.read(), preset)


@dataclass
class PanelData:
    """Rectangular panel: one named return series per column."""

    names: list
    values: np.ndarray   # shape (n_rows, n_columns)

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise DataError("column names are not unique")
        if self.values.ndim != 2 or self.values.shape[1] != len(self.names):
            raise DataError("panel values do not match the column names")

    @property
    def n(self):
        return self.values.shape[0]

    def columns(self):
        for j, name in enumerate(self.names):
            yield name, self.values[:, j]


def ingest_csv(path):
    """Read a UTF-8 comma-separated panel: header row of names, numeric rows.

    Any unparsable or non-finite cell fails the whole ingest with the
    offending row number and column name; silent row dropping would bias
    every estimator downstream.
    """
    if not os.path.exists(path):
        raise DataError(f"input file not found: {path}")
    with _reading(path) as fh:
        header = fh.readline()
        if not header:
            raise DataError(f"{path}: empty file")
        names = [c.strip() for c in header.split(",")]
        empty = [j + 1 for j, name in enumerate(names) if not name]
        if empty:
            raise DataError(f"{path}: empty column name at header position(s) {empty}")
        repeated = sorted(name for name, count in Counter(names).items() if count > 1)
        if repeated:
            raise DataError(f"{path}: repeated column name(s) {repeated}")
        values = _read_rows(path, fh, names)
    if len(values) < 2:
        raise DataError(f"{path}: fewer than 2 data rows")
    return PanelData(names=names, values=values)


def standardize(panel):
    """Per-column mean 0, sample variance 1 (ddof=1)."""
    mean = panel.values.mean(axis=0)
    std = panel.values.std(axis=0, ddof=1)
    bad = np.flatnonzero(std == 0.0)
    if bad.size:
        raise DataError(f"constant column(s): {[panel.names[j] for j in bad]}")
    return PanelData(names=list(panel.names), values=(panel.values - mean) / std)


# --- artifact IO -----------------------------------------------------------

def _write_csv(path, header, values):
    """The line ``header``, then the rows of a 2-D array as comma-separated %.17g:
    the bytes np.savetxt(fmt="%.17g", delimiter=",") writes.

    ``_csvtext.format_block`` formats _WRITE_BLOCK // columns rows at a time
    with array operations, exactly: a finite value with 1e-4 <= |x| < 1e16,
    or a zero, is rounded to 17 digits in integer arithmetic, and any other
    (a nonzero |x| < 1e-4, |x| >= 1e16, nan, inf) falls back to Python's
    ``%``.  A block at a time keeps the text out of peak memory."""
    rows, cols = values.shape
    step = max(1, _WRITE_BLOCK // cols)
    row_seps = np.full(cols, ord(","), dtype=np.uint8)
    row_seps[-1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, rows, step):
            block = values[start:start + step]
            fh.write(format_block(block.ravel(), np.tile(row_seps, len(block))))


def _read_rows(path, fh, columns):
    """The rows after the header line ``fh`` has read, as a (rows, len(columns))
    float array.  One streaming np.loadtxt reads a well-formed file; any other
    is walked with float(), which keeps what float() reads (say ``1_000``) and
    names the row and the ``columns`` label of a cell refused or not finite."""
    start = fh.tell()
    if not any(line.strip() for line in fh):
        raise DataError(f"{path}: no data rows")
    fh.seek(start)
    try:
        values = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        if values.shape[1] == len(columns) and np.isfinite(values).all():
            return values
    except UnicodeDecodeError:   # a ValueError, but the walk would only meet it again
        raise
    except ValueError:
        pass
    fh.seek(start)
    cells_read = []
    for lineno, line in enumerate(fh, start=2):
        cells = line.split(",") if line.strip() else []   # a blank line has none
        if cells and len(cells) != len(columns):
            raise DataError(f"{path}: row {lineno} has {len(cells)} cells, "
                            f"expected {len(columns)}")
        for label, cell in zip(columns, cells):
            try:
                cells_read.append(float(cell))
            except ValueError:
                cells_read.append(math.nan)
            if not math.isfinite(cells_read[-1]):
                raise DataError(f"{path}: row {lineno}, column {label!r}: "
                                f"{cell.strip()!r} is not a finite number")
    return np.array(cells_read).reshape(-1, len(columns))


def write_matrix(path, kind, values, lag=0):
    """Matrix artifact: the header ``# depgof <kind> m=<M> lag=<lag>``, M the
    column count, then one CSV row per matrix row (a 1-D array is one row)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    _write_csv(path, f"# depgof {kind} m={values.shape[1]} lag={lag}", values)


def _parse_header(path, header):
    parts = header.split()
    meta = dict(p.partition("=")[::2] for p in parts[3:])
    try:
        if len(parts) == 5 and parts[:2] == ["#", "depgof"]:
            return parts[2], int(meta["m"]), int(meta["lag"])
    except (ValueError, KeyError):
        pass
    raise DataError(f"{path}: not a depgof artifact (header {header!r})")


def read_matrix(path):
    """Return (kind, m, lag, values) from a matrix artifact of m columns and
    m rows (one row for eigenvalues)."""
    with _reading(path) as fh:
        kind, m, lag = _parse_header(path, fh.readline().strip())
        values = _read_rows(path, fh, range(1, m + 1))
    rows = 1 if kind == "eigenvalues" else m
    if values.shape[0] != rows:
        raise DataError(f"{path}: {values.shape[0]} rows, but a {kind} artifact "
                        f"of m={m} has {rows}")
    return kind, m, lag, values


def write_distribution(path, dist):
    """One sample a line as %.17g, the bytes np.savetxt writes."""
    _write_csv(path, f"# depgof law_{dist.kind} m={dist.grid_m} lag=0", dist.samples[:, None])


def read_distribution(path, kind):
    """The ``kind`` ("ks" or "cm") statistic law of a law_<kind> artifact."""
    with _reading(path) as fh:
        found, m, _ = _parse_header(path, fh.readline().strip())
        if found != f"law_{kind}":
            raise DataError(f"{path} holds a {found} artifact, not a law_{kind}")
        samples = np.sort(_read_rows(path, fh, [f"law_{kind}"])[:, 0])
    return limit_law.StatisticDistribution(kind=kind, samples=samples, grid_m=m,
                                           spectrum_digest=f"file:{os.path.basename(path)}")


def write_results(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def make_outdir(path):
    """Make the output directory ``path`` and its parents, where missing.  A path
    that names a file, or that cannot be made, is a ConfigError naming it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"outdir {path}: cannot make the directory "
                          f"({exc.strerror or exc})") from None


def _artifact(config, name, verb):
    """Path of the outdir artifact ``name``, which `depgof <verb>` writes."""
    path = os.path.join(config.outdir, name)
    if not os.path.exists(path):
        raise DataError(f"no {path}; run `depgof {verb}` first")
    return path


def _grid_matrix(config, name, verb, kind):
    """(path, lag, values) of a ``kind`` matrix artifact on the config's grid;
    refuses another kind or grid."""
    path = _artifact(config, name, verb)
    found, m, lag, values = read_matrix(path)
    if (found, m) != (kind, config.grid_m):
        raise DataError(f"{path} holds a {found} artifact of m={m}, not a {kind} of "
                        f"grid_m={config.grid_m}")
    return path, lag, values


def load_panel(config):
    """The panel to estimate from and test: the standardized ``input`` for the
    empirical model, else the panel.csv that generate_panel wrote to outdir,
    which it refuses unless it is n x replications."""
    if config.model == "empirical":
        if not config.input:
            raise ConfigError("empirical model requires input=<panel.csv>")
        return standardize(ingest_csv(config.input))
    path = _artifact(config, "panel.csv", "generate")
    panel = ingest_csv(path)
    if panel.values.shape != (config.n, config.replications):
        raise DataError(f"{path} is {panel.n} x {len(panel.names)}; the config has "
                        f"n x replications = {config.n} x {config.replications}")
    return panel


def load_psi(config):
    """The PsiSurface that estimate_psi wrote to outdir, or None for a synthetic
    model, whose kernel is analytic.  Refuses a Psi that is not symmetric, or
    whose lag (the t_max it was estimated at) is not a t_max the config sets."""
    if config.model != "empirical":
        return None
    path, lag, values = _grid_matrix(config, "psi.csv", "estimate", "psi")
    if config.t_max and lag != config.t_max:
        raise DataError(f"{path} was estimated at t_max={lag}; the config has "
                        f"t_max={config.t_max}")
    asym = np.abs(values - values.T).max()
    if asym > 1e-12 * max(1.0, np.abs(values).max()):
        raise DataError(f"{path}: Psi is not symmetric (max asymmetry {asym:.2e})")
    return copulas.PsiSurface(grid=QuantileGrid(config.grid_m), values=values, t_max=lag)


def load_kernel(config):
    """The KernelMatrix that build_kernel wrote to outdir."""
    path, _, values = _grid_matrix(config, "kernel.csv", "kernel", "kernel")
    try:
        return kernels.KernelMatrix(grid=QuantileGrid(config.grid_m), values=values)
    except ParameterError as exc:   # e.g. asymmetric values: a fault of the file
        raise DataError(f"{path}: {exc}") from None


def load_laws(config):
    """The (KS, CM) laws that simulate_laws wrote to outdir.  Refuses a law
    whose sample count is not the config's n_trials: drawn at another
    n_trials, or cut short."""
    laws = []
    for kind in ("ks", "cm"):
        path = _artifact(config, f"law_{kind}.csv", "law")
        law = read_distribution(path, kind)
        if law.n_trials != config.n_trials:
            raise DataError(f"{path} holds {law.n_trials} samples; the config has "
                            f"n_trials={config.n_trials}")
        laws.append(law)
    return laws


# --- pipeline stages -------------------------------------------------------

def _model(config):
    """(params, generator) of the synthetic model named by the config."""
    if config.model == "ar1":
        return sampling.Ar1LogVolParams(config.g, config.sigma2), sampling.gen_ar1_logvol
    if config.model == "fgn":
        return sampling.FgnLogVolParams(config.nu, config.sigma2), sampling.gen_fgn_logvol
    if config.model == "iid":
        return sampling.StochasticVolParams(config.s), sampling.gen_iid_lognormal_vol
    raise ConfigError("the empirical model has no generator; use ar1, fgn or iid")


@one_blas_thread()
def generate_panel(config, outdir=None):
    """Synthesize `replications` independent series of length n; writes panel.csv."""
    params, generate = _model(config)
    reps, n = config.replications, config.n
    seeds = [np.random.SeedSequence(entropy=config.seed, spawn_key=(_PANEL_STREAM, j))
             for j in range(reps)]
    panel = PanelData(names=[f"s{j:04d}" for j in range(reps)], values=generate(params, n, seeds))
    if outdir:
        _write_csv(os.path.join(outdir, "panel.csv"), ",".join(panel.names), panel.values)
    return panel


@one_blas_thread()
def estimate_psi(panel, config, outdir=None):
    """Estimate the panel's self-copulas for lags 1..t_max and accumulate Psi.

    Copula surfaces are written for a geometric ladder of lags (1, 2, 4, ...)
    to keep artifact volume bounded; Psi always sums every lag.
    """
    grid = QuantileGrid(config.grid_m)
    t_max = config.t_max or min(512, panel.n // 2)
    longest = panel.n - grid.m - 1   # every lag pair needs n - t >= m + 1 points
    if t_max > longest:
        asked = (f"t_max={config.t_max}" if config.t_max else
                 f"auto t_max={t_max} = min(512, n//2)")
        fits = (f"the largest admissible t_max is {longest}" if longest >= 1 else
                "no lag fits; lower grid_m or use longer series")
        raise DataError(f"{asked} is too large for series of length n={panel.n} on a "
                        f"grid_m={grid.m} grid: {fits}")
    surfaces = copulas.lag_surfaces(panel.values.T, t_max, grid)
    ladder = {1 << i for i in range(30)}
    for t, surf in enumerate(surfaces, start=1):
        if outdir and (t in ladder or t == t_max):
            write_matrix(os.path.join(outdir, f"copula_t{t}.csv"),
                         "copula", surf.values, lag=t)
    psi = copulas.psi_accumulate(surfaces, panel.n)
    if outdir:
        write_matrix(os.path.join(outdir, "psi.csv"), "psi", psi.values, lag=psi.t_max)
    return psi


@one_blas_thread()
def build_kernel(config, psi=None, outdir=None):
    """Psi-based kernel for the empirical model, analytic otherwise; writes kernel.csv."""
    grid = QuantileGrid(config.grid_m)
    if config.model == "empirical":
        if psi is None:
            raise ConfigError("empirical kernel requires an estimated Psi surface")
        kernel = kernels.build_kernel_from_psi(psi)
    elif config.model == "iid":
        kernel = kernels.brownian_bridge_kernel(grid)
    elif config.model == "ar1":
        kernel = kernels.build_kernel_ar1(_model(config)[0], grid)
    else:
        kernel = kernels.build_kernel_fgn(_model(config)[0], config.n, grid)
    if outdir:
        write_matrix(os.path.join(outdir, "kernel.csv"), "kernel", kernel.values)
    return kernel


@one_blas_thread()
def diagonalize(kernel, outdir=None):
    """Spectrum of the kernel; writes spectrum_eigvals.csv and spectrum_eigvecs.csv."""
    spectrum = kernels.eigendecompose(kernel)
    if outdir:
        write_matrix(os.path.join(outdir, "spectrum_eigvals.csv"), "eigenvalues",
                     spectrum.eigenvalues)
        write_matrix(os.path.join(outdir, "spectrum_eigvecs.csv"), "eigenvectors",
                     spectrum.eigenvectors)
    return spectrum


@one_blas_thread()
def simulate_laws(spectra, config, outdir=None):
    """{suffix: (KS law, CM law)} of each spectrum of the dict ``spectra`` {suffix:
    spectrum}, all drawn from the normals of config.seed; writes
    law_{ks,cm}<suffix>.csv."""
    laws = dict(zip(spectra, limit_law.simulate_statistic_distribution(
        tuple(spectra.values()), config.n_trials, config.seed, n_threads=config.threads)))
    if outdir:
        for suffix, pair in laws.items():
            for dist in pair:
                write_distribution(os.path.join(outdir, f"law_{dist.kind}{suffix}.csv"), dist)
    return laws


def _check_target_columns(config, panel):
    """Refuse a one-column empirical panel whose target scale would be
    calibrated leave-one-out, on no other column."""
    if config.model == "empirical" and config.target_s2 < 0.0 and len(panel.names) < 2:
        raise DataError(f"{config.input}: the one column {panel.names[0]!r} leaves no other "
                        f"column to calibrate its leave-one-out target scale on; set "
                        f"target_s2 = <s^2> in the config")


def _target_quantiles(config, panel):
    """Null-marginal quantiles at the grid levels, one row per column, at each
    column's s^2: the config's target_s2, else the model's V[omega], else (the
    empirical model) the mean of the other columns' calibrated s^2."""
    _check_target_columns(config, panel)
    grid = QuantileGrid(config.grid_m)
    k = len(panel.names)
    if config.target_s2 >= 0.0:
        s2 = [config.target_s2] * k
    elif config.model != "empirical":
        s2 = [_model(config)[0].stationary_var] * k
    else:
        # leave-one-out calibration: each column gets the average s^2 of the others
        own = np.array([sampling.calibrate_volvol(col) for _, col in panel.columns()])
        total = own.sum()
        s2 = [max((total - v) / (k - 1), 0.0) for v in own]
    return lognormal.vol_model_quantiles(grid, [math.sqrt(v) for v in s2])


@one_blas_thread()
def test_panel(panel, config, laws, outdir=None):
    """{suffix: one GofResult per column} against each (KS, CM) law pair of the dict
    ``laws`` {suffix: pair}.  Each column's target quantiles and statistics are
    computed once, for every pair, in one ``limit_law.run_gof_tests`` pass;
    writes results<suffix>.jsonl."""
    for dist_ks, dist_cm in laws.values():
        if {dist_ks.grid_m, dist_cm.grid_m} != {config.grid_m}:
            raise DataError(f"null laws were simulated on grids m={dist_ks.grid_m}, "
                            f"m={dist_cm.grid_m}; the config has grid_m={config.grid_m}")
    results = dict(zip(laws, limit_law.run_gof_tests(
        panel.values, _target_quantiles(config, panel), list(laws.values()))))
    if outdir:
        for suffix, column_results in results.items():
            write_results(os.path.join(outdir, f"results{suffix}.jsonl"), (
                {"name": name, "ks": res.ks_stat, "cm": res.cm_stat,
                 "p_ks": res.ks_p, "p_cm": res.cm_p}
                for name, res in zip(panel.names, column_results)))
    return results


@one_blas_thread()
def run_pipeline(config):
    """Full chain: panel (-> Psi) -> kernel -> spectrum -> laws -> per-series tests.

    Synthetic models generate their panel and use the analytic kernel
    (``depgof estimate`` adds self-copulas and Psi of a generated panel);
    the empirical model ingests ``input`` and estimates Psi.  Writes the
    same files as the CLI verb chain and returns the GofResults.
    Idempotent for a fixed config.
    """
    outdir = config.outdir
    make_outdir(outdir)
    psi = None
    if config.model == "empirical":
        panel = load_panel(config)
        _check_target_columns(config, panel)   # before any stage writes
        psi = estimate_psi(panel, config, outdir=outdir)
    else:
        panel = generate_panel(config, outdir=outdir)
    kernel = build_kernel(config, psi=psi, outdir=outdir)
    laws = simulate_laws({"": diagonalize(kernel, outdir=outdir)}, config, outdir=outdir)
    return test_panel(panel, config, laws, outdir=outdir)[""]


@one_blas_thread()
def reproduce(which, config):
    """The synthetic experiment ``which`` of PRESETS, end to end, under the
    naive and the corrected laws, with the experiment's model.

    Both laws are drawn from the same normals (common random numbers), so
    their quantile ratios carry less Monte-Carlo noise than two independent
    draws would, and each series' statistics are computed once for both.
    Emits plot-ready tables: per-replication p-values under both laws,
    quantile reduction ratios, and a JSON summary with uniformity tests.
    """
    if which not in PRESETS:
        raise ConfigError(f"unknown experiment {which!r} (use one of {sorted(PRESETS)})")
    config = replace(config, model=PRESETS[which]["model"])
    outdir = config.outdir
    make_outdir(outdir)
    panel = generate_panel(config, outdir=outdir)
    spectrum = diagonalize(build_kernel(config, outdir=outdir))
    iid_spectrum = diagonalize(build_kernel(replace(config, model="iid")))
    laws = simulate_laws({"_corrected": spectrum, "_iid": iid_spectrum}, config, outdir)
    results = test_panel(panel, config, laws, outdir=outdir)
    (corr_ks, corr_cm), (iid_ks, iid_cm) = laws["_corrected"], laws["_iid"]

    levels = np.round(np.arange(0.05, 1.0, 0.05), 2)
    ratios = np.column_stack([levels, limit_law.reduction_ratio(corr_ks, iid_ks, levels),
                              limit_law.reduction_ratio(corr_cm, iid_cm, levels)])
    _write_csv(os.path.join(outdir, "reduction_ratios.csv"), "level,ratio_ks,ratio_cm", ratios)

    summary = {"experiment": which, "model": config.model,
               "replications": config.replications, "n": config.n}
    for label in ("iid", "corrected"):
        for stat in ("ks", "cm"):
            pv = [getattr(r, f"{stat}_p") for r in results[f"_{label}"]]
            summary[f"uniformity_p_{stat}_{label}"] = limit_law.uniformity_pvalue(pv)
            summary[f"sup_distance_{stat}_{label}"] = limit_law.sup_distance(pv)
    with open(os.path.join(outdir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary
