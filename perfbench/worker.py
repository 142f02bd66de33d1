"""One benchmark operation in a fresh process: import depgof, run one entry point.

Usage: python3 perfbench/worker.py JOB.json

The job names the depgof source directory, the call to make and whether
to trace.  The worker writes its
measurements to the job's ``result`` path as JSON.  Only the standard
library is imported before the timed import of depgof and its dependencies.
"""

import json
import os
import resource
import sys
import time
import traceback


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)   # all threads, BLAS included
    return ru.ru_utime + ru.ru_stime


def run_call(call, runner, cli):
    """Make the job's entry-point call(s); return the CLI exit codes (if any)."""
    if call["entry"] == "reproduce":
        runner.reproduce(call["experiment"], runner.PipelineConfig(**call["config"]))
        return []
    codes = []
    for argv in call["argvs"]:
        codes.append(cli.main(argv))
        if codes[-1] != 0:
            break
    return codes


def main(job_path):
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    t0 = time.perf_counter()
    import depgof   # and with it numpy and scipy
    from depgof import cli, runner
    out = {"setup_s": time.perf_counter() - t0}
    src = os.path.realpath(job["src"])
    if not os.path.realpath(depgof.__file__).startswith(src + os.sep):
        raise SystemExit(f"depgof imported from {depgof.__file__}, not from {src}")

    tracer = None
    if job["trace"]:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    try:
        out["exit_codes"] = run_call(job["call"], runner, cli)
        out["error"] = None
    except depgof.DepgofError as exc:
        out["error"] = "".join(traceback.format_exception_only(exc)).strip()
    out["wall_s"] = time.perf_counter() - wall0
    out["cpu_s"] = _cpu_s() - cpu0
    if tracer is not None:
        out["spans"] = tracer.spans
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
