"""depgof benchmark: the end-to-end cost of getting honest p-values.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one call of a depgof entry point (``runner.reproduce``
or a sequence of ``cli.main`` verbs) in a fresh worker process, on inputs
derived from ``--seed``.  Operations run in a
closed loop (one caller; the next call starts when the previous one has
returned and its outputs have been checked) for about ``--seconds``.
Every operation's outputs are checked by an oracle that does not import
depgof (see checks.py).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics (medians over operations); with ``--trace 1``
operations alternate between untraced and traced and the metrics are the
per-layer ones (see tracing.py).  A record of every operation, the
machine, the output digests and the spans goes to
``.perfbench-out/<workload>-seed<N>-trace<T>.json``.  Exit code 0 when
every output check passed, 1 when one failed, 2 when the checkout holds
no depgof source.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
CONFIG = ROOT / "BENCHMARK.json"

GRID_M = 100
# The reference n_trials is 1e6; 1e5 keeps an operation short enough for
# several per run (law writes and simulation scale with it, tests do not).
N_TRIALS = 100_000
THREADS = max(1, min(2, len(os.sched_getaffinity(0))))
MIN_OPS = 3                 # operations per run (of each kind when tracing), whatever --seconds
ORACLE_SERIES = 16          # series per results file recomputed by the oracle
RUN_LIMIT_S = 165.0         # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _program_seeds(rng, k):
    return [int(v) for v in rng.integers(1, 2 ** 31 - 1, size=k)]


def _series_sample(rng, n):
    return sorted(int(j) for j in rng.choice(n, size=min(ORACLE_SERIES, n), replace=False))


def ar1_panel(rng, n, reps, g, sigma2):
    """X = xi exp(omega - V) with stationary AR(1) log-vols omega of variance V."""
    v = sigma2 / (1.0 - g * g)
    omega = np.empty((n, reps))
    omega[0] = rng.standard_normal(reps) * np.sqrt(v)
    eta = rng.standard_normal((n, reps)) * np.sqrt(sigma2)
    for t in range(1, n):
        omega[t] = g * omega[t - 1] + eta[t]
    return rng.standard_normal((n, reps)) * np.exp(omega - v)


class Workload:
    """Inputs, entry-point call and output checks of one named workload."""

    stages = ()
    tests_per_series = 1
    replications = 100      # series per panel

    def __init__(self, seed, workdir):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self._bounds = {}

    def stat_bounds(self, x, s):
        """Oracle bounds of one series, computed once per distinct series and scale."""
        key = (hashlib.sha256(x.tobytes()).hexdigest(), s)
        if key not in self._bounds:
            self._bounds[key] = checks.stat_bounds(x, s, GRID_M)
        return self._bounds[key]

    @property
    def attempted(self):
        return len(self.stages) + self.tests_per_series * self.replications

    def call(self, outdir):
        raise NotImplementedError

    def check(self, outdir, ck):
        raise NotImplementedError


class Ar1Reproduce(Workload):
    """reproduce("fig2"): 350 x 1000 AR(1), m = 100."""

    stages = ("generate", "kernel", "law", "test", "summary")
    tests_per_series = 2
    # Criterion 05's 350 series, shortened from 2500 to 1000 points so that
    # a run makes more operations for its median.  The series stay far
    # longer than the AR(1) correlation time (1 / (1 - G) ~ 8 steps).  The
    # naive-law rejection (KS p < 0.01) needs the 350 series: at 175, one
    # seed in 25 of a correct program was not rejected.
    replications = 350
    N = 1000
    G, SIGMA2 = 0.88, 0.05

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        (self.seed,) = _program_seeds(self.rng, 1)
        self.sample = _series_sample(self.rng, self.replications)

    def call(self, outdir):
        return {"entry": "reproduce", "experiment": "fig2", "config": {
            "g": self.G, "sigma2": self.SIGMA2, "n": self.N, "replications": self.replications,
            "grid_m": GRID_M, "n_trials": N_TRIALS, "seed": self.seed,
            "threads": THREADS, "outdir": outdir}}

    def check(self, outdir, ck):
        s = float(np.sqrt(self.SIGMA2 / (1.0 - self.G ** 2)))
        files = {f"results_{law}.jsonl": {k: f"law_{k}_{law}" for k in ("ks", "cm")}
                 for law in ("iid", "corrected")}
        try:
            names, values = checks.read_panel(os.path.join(outdir, "panel.csv"), self.sample)
        except (OSError, ValueError) as exc:
            ck.fail(("generate",), f"panel.csv unreadable ({exc})")
            names = None
        rows = {}
        if names is not None:
            bounds = {j: self.stat_bounds(np.ascontiguousarray(values[:, i]), s)
                      for i, j in enumerate(self.sample)}
            rows = {f: ck.results(outdir, f, names, laws, bounds) for f, laws in files.items()}
        for f, expect_uniform in (("results_corrected.jsonl", True), ("results_iid.jsonl", False)):
            if rows.get(f):
                for k in ("ks", "cm"):
                    ck.uniform([r[f"p_{k}"] for r in rows[f]], f"{f} p_{k}", expect_uniform,
                               "law" if expect_uniform else "test")
        try:
            with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            if summary.get("experiment") != "fig2":
                ck.fail(("summary",), "summary.json does not describe fig2")
        except (OSError, ValueError) as exc:
            ck.fail(("summary",), f"summary.json unreadable ({exc})")
        ck.kernel_psd(outdir, GRID_M)


class EmpiricalStaged(Workload):
    """estimate -> kernel -> law -> test as cli.main calls, model=empirical, on a
    100 x 2500 AR(1) panel CSV written from the seed."""

    stages = ("ingest", "estimate", "kernel", "law", "test")
    # Estimation costs ~0.15 s per lag here against ~2 s for 100 tests, so
    # 16 lags make it the largest stage.  Estimation noise in Psi grows with
    # the lag count and shrinks with the series count; an indefinite kernel
    # fails the operation.
    T_MAX = 16

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        (self.law_seed,) = _program_seeds(self.rng, 1)
        self.sample = _series_sample(self.rng, self.replications)
        self.values = ar1_panel(self.rng, 2500, self.replications, 0.88, 0.05)
        self.names = [f"a{j:04d}" for j in range(self.replications)]
        self.input = os.path.join(workdir, "panel_input.csv")
        with open(self.input, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.names) + "\n")
            np.savetxt(fh, self.values, fmt="%.17g", delimiter=",")

    def call(self, outdir):
        cfg = os.path.join(outdir, "empirical.cfg")
        os.makedirs(outdir, exist_ok=True)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"model = empirical\ninput = {self.input}\nt_max = {self.T_MAX}\n"
                     f"grid_m = {GRID_M}\nn_trials = {N_TRIALS}\nthreads = {THREADS}\n"
                     f"outdir = {outdir}\n")
        argvs = [["estimate", "-c", cfg], ["kernel", "-c", cfg],
                 ["law", "-c", cfg, "--seed", str(self.law_seed)], ["test", "-c", cfg]]
        return {"entry": "cli", "argvs": argvs}

    def check(self, outdir, ck):
        z, scales = checks.calibrated_scales(self.values)
        bounds = {j: self.stat_bounds(np.ascontiguousarray(z[:, j]), scales[j])
                  for j in self.sample}
        ck.results(outdir, "results.jsonl", self.names, {"ks": "law_ks", "cm": "law_cm"}, bounds)
        ck.kernel_psd(outdir, GRID_M)
        ck.psi_symmetric(outdir)


WORKLOADS = {"ar1-reproduce": Ar1Reproduce, "empirical-staged": EmpiricalStaged}


def machine_record():
    def cpu_model():
        try:
            with open("/proc/cpuinfo", encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return platform.processor() or None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "DEPGOF_THREADS": str(THREADS), "law_threads": THREADS,
        "commit": git_commit(), "source_sha256": source_digest(),
    }


def git_commit():
    """HEAD of the checkout's git directory, read without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "depgof").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()


def run_worker(job, workdir, tag, timeout):
    """Run one worker process to completion; return its result, or None if it failed."""
    job = dict(job, src=str(SRC), result=os.path.join(workdir, tag + ".result.json"))
    job_path = os.path.join(workdir, tag + ".json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    env = dict(os.environ, DEPGOF_THREADS=str(THREADS),
               PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                                          if p))
    try:
        proc = subprocess.run([sys.executable, str(Path(__file__).with_name("worker.py")),
                               job_path], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        print(f"worker timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not os.path.exists(job["result"]):
        print(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}",
              file=sys.stderr)
        return None
    with open(job["result"], encoding="utf-8") as fh:
        return json.load(fh)


def artifact_bytes(outdir):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(outdir) for f in fs)


def run_operation(workload, index, traced, deadline):
    """One closed-loop operation: worker call, then output checks.  Returns its record."""
    outdir = os.path.join(workload.workdir, f"op{index}")
    call = workload.call(outdir)
    res = run_worker({"call": call, "trace": traced}, workload.workdir, f"op{index}",
                     deadline - time.perf_counter())
    op = {"traced": traced, "attempted": workload.attempted}
    ck = checks.Checker()
    if res is None:
        ck.fail(("worker",), "worker process failed")
    elif res["error"]:
        ck.fail(("entry",), res["error"])
    elif any(res["exit_codes"]):
        ck.fail(("entry",), f"cli exit codes {res['exit_codes']}")
    if ck.failed:
        op.update(failed=op["attempted"], messages=ck.messages)
        return op
    op.update({k: res[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")})
    op["artifact_mb"] = artifact_bytes(outdir) / 1e6
    try:
        workload.check(outdir, ck)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        ck.fail(("check",), f"output check could not run ({exc!r})")
    op["digest"] = checks.output_digest(outdir)
    if traced:
        op["spans"] = res["spans"]
        op["layers"] = tracing.layer_metrics(res["spans"], res["wall_s"])
    op["failed"] = min(op["attempted"], len(ck.failed))
    op["messages"] = ck.messages
    op["uniformity_p"] = ck.uniformity
    shutil.rmtree(outdir, ignore_errors=True)
    return op


def measure(name, seed, seconds, trace, workdir):
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    workload = WORKLOADS[name](seed, workdir)
    ops = []
    while True:
        ops.append(run_operation(workload, len(ops), trace and len(ops) % 2 == 1, deadline))
        now = time.perf_counter()
        per_op = (now - started) / len(ops)
        if now + 1.5 * per_op >= deadline:
            break
        # past MIN_OPS, start another operation only if it should end within --seconds
        if len(ops) >= MIN_OPS * (2 if trace else 1) and now - started + per_op > seconds:
            break
    digests = {op["digest"] for op in ops if "digest" in op}
    if len(digests) > 1:
        for op in ops[1:]:
            op["failed"] = max(op["failed"], 1)
            op["messages"].append("outputs differ between identical operations")
    return ops, time.perf_counter() - started


def end_to_end(ops):
    """Medians over the untraced operations; setup_s over every worker's import."""
    plain = [op for op in ops if not op["traced"] and "wall_s" in op]
    out = {k: statistics.median(op[k] for op in plain)
           for k in ("wall_s", "cpu_s", "peak_rss_mb", "artifact_mb") if plain}
    setups = [op["setup_s"] for op in ops if "setup_s" in op]
    if setups:
        out["setup_s"] = statistics.median(setups)
    return out, dict.fromkeys(out, len(plain)) | {"setup_s": len(setups)}


def per_layer(ops):
    """Medians over the traced operations, and the untraced wall_s they compare with."""
    traced = [op["layers"] for op in ops if "layers" in op]
    plain = [op["wall_s"] for op in ops if not op["traced"] and "wall_s" in op]
    if not traced:
        return {}, {}
    out = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
    counts = dict.fromkeys(out, len(traced))
    if plain:
        out["trace.untraced_wall_s"] = statistics.median(plain)
        counts["trace.untraced_wall_s"] = len(plain)
    return out, counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "depgof" / "__init__.py").is_file():
        print(f"perfbench: no depgof source at {SRC / 'depgof'}", file=sys.stderr)
        return 2

    spec = json.loads(CONFIG.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        ops, elapsed = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                               str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values, samples = per_layer(ops) if args.trace else end_to_end(ops)
    attempted = sum(op["attempted"] for op in ops)
    failed = sum(op["failed"] for op in ops)
    correct = failed == 0 and all(k["name"] in values for k in wanted)
    digests = sorted({op["digest"] for op in ops if "digest" in op})
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "elapsed_s": elapsed, "machine": machine_record(),
              "operations": ops, "output_digest": digests,
              "metrics": values, "samples": samples}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} operations "
          f"in {elapsed:.1f} s")
    for m in wanted:
        n = samples.get(m["name"], 0)
        v = values.get(m["name"])
        shown = "missing" if v is None else f"{v:.6g}"
        print(f"  {m['name']:34s} {shown:>14s} {m['unit']:6s} (median of {n})")
    print(f"  {'error_rate':34s} {failed / attempted:14.6g} {'ratio':6s}"
          f" ({failed} of {attempted} operations failed)")
    if args.trace and "trace.untraced_wall_s" in values:
        print(f"  {'tracing overhead':34s} "
              f"{values['trace.wall_s'] - values['trace.untraced_wall_s']:14.6g} s      "
              f"(traced minus untraced wall_s)")
    print(f"  output_digest {', '.join(digests) or 'none'}")
    for op in ops:
        for msg in op["messages"][:20]:
            print(f"  check failed: {msg}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]}
                                  for m in wanted}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
