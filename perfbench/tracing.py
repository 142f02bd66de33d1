"""Span tracing around depgof's public module functions, from outside the package.

``install()`` rebinds module attributes (``depgof.runner.write_distribution``
and so on) to timing wrappers.  Calls made through the module attribute,
which is how the package's own modules call each other, are then recorded
as spans (name, start, end, parent).  Calls bound by ``from ... import``
keep the original function, so their time stays in the caller's self time.

Spans are kept in memory; ``layer_metrics`` turns the spans of one traced
operation into per-layer busy and self times and counters.
"""

import functools
import importlib
import os
import threading
import time

# Traced public functions, per layer (= package module).  `grid` and
# `errors` do no measurable work and are not traced.
TRACED = {
    "sampling": ("gen_ar1_logvol", "gen_fgn_logvol", "gen_iid_lognormal_vol",
                 "calibrate_volvol"),
    "copulas": ("average_self_copula", "psi_accumulate"),
    "kernels": ("brownian_bridge_kernel", "build_kernel_ar1", "build_kernel_fgn",
                "build_kernel_from_psi", "eigendecompose"),
    "lognormal": ("vol_model_cdf",),
    "limit_law": ("simulate_statistic_distribution", "run_gof_test",
                  "uniformity_pvalue", "reduction_ratio"),
    "runner": ("reproduce", "run_pipeline", "generate_panel", "estimate_psi",
               "build_kernel", "test_panel", "ingest_csv", "standardize",
               "write_matrix", "read_matrix", "write_distribution",
               "read_distribution", "write_results"),
    "cli": ("main", "cmd_generate", "cmd_estimate", "cmd_kernel", "cmd_law", "cmd_test"),
}
LAYERS = tuple(TRACED)


def _attrs(name, args, kwargs, result):
    """Counters recorded at the span boundary, where the work happens."""
    if name == "runner.write_distribution":
        return {"bytes": os.path.getsize(args[0])}
    if name == "runner.ingest_csv":
        return {"cells": int(result.values.size)}
    if name == "lognormal.vol_model_cdf":
        return {"points": int(getattr(args[0], "size", 1)), "scale": float(args[1])}
    if name == "limit_law.simulate_statistic_distribution":
        return {"trials": int(args[1] if len(args) > 1 else kwargs["n_trials"])}
    return None


class Tracer:
    """Collects spans from the wrapped functions of every thread."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                span = {"name": name, "parent": stack[-1] if stack else None,
                        "start": 0.0, "end": 0.0}
                self.spans.append(span)
            stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            attrs = _attrs(name, args, kwargs, result)
            if attrs:
                span["attrs"] = attrs
            return result
        return traced


def install(tracer):
    """Rebind every traced module attribute to a wrapper recording into ``tracer``."""
    for layer, names in TRACED.items():
        module = importlib.import_module(f"depgof.{layer}")
        for fname in names:
            setattr(module, fname, tracer.wrap(f"{layer}.{fname}", getattr(module, fname)))


def _percentile(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def layer_metrics(spans, wall_s):
    """Per-layer metrics of one traced operation that took ``wall_s``.

    A span's self time is its duration minus its direct children's; a
    layer's busy time sums its spans that have no ancestor in the same
    layer.  The layers' self times plus ``trace.residual_s`` equal
    ``wall_s``.
    """
    dur = [s["end"] - s["start"] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            child[s["parent"]] += dur[i]
    own = [d - c for d, c in zip(dur, child)]
    layer = [s["name"].split(".", 1)[0] for s in spans]

    def nested_in_own_layer(i):
        p = spans[i]["parent"]
        while p is not None:
            if layer[p] == layer[i]:
                return True
            p = spans[p]["parent"]
        return False

    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def total(name):
        return sum((dur[i] for i in by_name.get(name, ())), 0.0)

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(spans[i]["attrs"][key] for i in by_name.get(name, ()))

    out = {}
    for lay in LAYERS:
        idx = [i for i in range(len(spans)) if layer[i] == lay]
        out[f"{lay}.busy_s"] = sum((dur[i] for i in idx if not nested_in_own_layer(i)), 0.0)
        out[f"{lay}.self_s"] = sum((own[i] for i in idx), 0.0)

    out["runner.write_distribution_s"] = total("runner.write_distribution")
    out["runner.write_distribution_mb"] = attr_sum("runner.write_distribution", "bytes") / 1e6
    out["runner.read_distribution_s"] = total("runner.read_distribution")
    out["runner.read_matrix_s"] = total("runner.read_matrix")
    out["runner.ingest_csv_s"] = total("runner.ingest_csv")
    out["runner.ingest_cells"] = attr_sum("runner.ingest_csv", "cells")

    cdf = "lognormal.vol_model_cdf"
    out["lognormal.vol_model_cdf_s"] = total(cdf)
    out["lognormal.vol_model_cdf_calls"] = calls(cdf)
    out["lognormal.cdf_points"] = attr_sum(cdf, "points")
    out["lognormal.distinct_scales"] = len({spans[i]["attrs"]["scale"]
                                            for i in by_name.get(cdf, ())})

    gof = "limit_law.run_gof_test"
    gof_ms = [dur[i] * 1e3 for i in by_name.get(gof, ())]
    out["limit_law.run_gof_test_s"] = total(gof)
    out["limit_law.run_gof_test.self_s"] = sum((own[i] for i in by_name.get(gof, ())), 0.0)
    out["limit_law.run_gof_test_calls"] = len(gof_ms)
    out["limit_law.run_gof_test_p50_ms"] = _percentile(gof_ms, 50) if gof_ms else 0.0
    # p90 is the highest percentile with >= 10 calls beyond it at 100 calls,
    # the fewest a workload makes
    out["limit_law.run_gof_test_p90_ms"] = _percentile(gof_ms, 90) if gof_ms else 0.0

    sim = "limit_law.simulate_statistic_distribution"
    out["limit_law.simulate_s"] = total(sim)
    out["limit_law.trials"] = attr_sum(sim, "trials")
    out["limit_law.trials_per_s"] = (out["limit_law.trials"] / out["limit_law.simulate_s"]
                                     if out["limit_law.simulate_s"] else 0.0)

    out["copulas.average_self_copula_s"] = total("copulas.average_self_copula")
    out["copulas.lags"] = calls("copulas.average_self_copula")
    out["copulas.s_per_lag"] = (out["copulas.average_self_copula_s"] / out["copulas.lags"]
                                if out["copulas.lags"] else 0.0)
    out["copulas.psi_accumulate_s"] = total("copulas.psi_accumulate")

    out["kernels.build_s"] = sum(total(f"kernels.{f}") for f in TRACED["kernels"]
                                 if f != "eigendecompose")
    out["kernels.eigendecompose_s"] = total("kernels.eigendecompose")
    out["kernels.eigendecompose_calls"] = calls("kernels.eigendecompose")

    gens = ("sampling.gen_ar1_logvol", "sampling.gen_fgn_logvol", "sampling.gen_iid_lognormal_vol")
    out["sampling.gen_s"] = sum(total(g) for g in gens)
    out["sampling.series"] = sum(calls(g) for g in gens)
    out["sampling.calibrate_volvol_s"] = total("sampling.calibrate_volvol")

    for verb in ("estimate", "kernel", "law", "test"):
        out[f"cli.{verb}_s"] = total(f"cli.cmd_{verb}")

    roots = sum(dur[i] for i, s in enumerate(spans) if s["parent"] is None)
    out["trace.wall_s"] = wall_s
    out["trace.residual_s"] = wall_s - roots
    out["trace.spans"] = len(spans)
    return out
