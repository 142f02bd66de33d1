"""Tests of the benchmark itself: python3 -m pytest perfbench (about two minutes)."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.CONFIG).read_text())


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = _bench("--workload", "empirical-staged", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for m in SPEC[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    record = json.loads((run.OUT / f"empirical-staged-seed5-trace{trace}.json").read_text())
    # --seconds 1 is shorter than one operation; a run still makes MIN_OPS of each kind
    assert sum(not op["traced"] for op in record["operations"]) == run.MIN_OPS
    assert record["samples"][SPEC[section][0]["name"]] == run.MIN_OPS
    if trace == "1":
        for op in record["operations"]:
            if op["traced"]:
                layers = op["layers"]
                total = sum(layers[f"{lay}.self_s"] for lay in tracing.LAYERS)
                assert total + layers["trace.residual_s"] == pytest.approx(op["wall_s"], abs=1e-9)


def test_exits_nonzero_without_depgof_source(tmp_path):
    shutil.copy(run.CONFIG, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "empirical-staged", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.fixture(scope="module")
def staged_outputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("staged"))
    workload = run.EmpiricalStaged(7, workdir)
    outdir = os.path.join(workdir, "out")
    res = run.run_worker({"call": workload.call(outdir), "trace": False}, workdir, "op0", 120)
    assert res is not None and res["error"] is None and not any(res["exit_codes"])
    return workload, outdir


def _failed(workload, outdir):
    ck = checks.Checker()
    workload.check(outdir, ck)
    return ck.failed


def _rewrite_row(outdir, pick, edit):
    path = os.path.join(outdir, "results.jsonl")
    rows = checks.read_results(path)
    j = pick(rows)
    edit(rows[j])
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    return rows[j]["name"]


def test_output_check_passes_then_catches_corruption(staged_outputs, tmp_path):
    workload, original = staged_outputs
    assert _failed(workload, original) == set()

    flipped = str(tmp_path / "flipped")
    shutil.copytree(original, flipped)
    name = _rewrite_row(flipped, lambda rows: int(np.argmax([abs(r["p_cm"] - 0.5) for r in rows])),
                        lambda row: row.update(p_cm=1.0 - row["p_cm"]))
    assert _failed(workload, flipped) == {("results.jsonl", name)}

    # a consistent (statistic, p-value) pair that the oracle does not reproduce
    shifted = str(tmp_path / "shifted")
    shutil.copytree(original, shifted)
    name = _rewrite_row(shifted, lambda rows: workload.sample[0],
                        lambda row: row.update(ks=row["ks"] * 1.01))
    law = checks.read_law(shifted, "law_ks")
    path = os.path.join(shifted, "results.jsonl")
    rows = checks.read_results(path)
    for row in rows:
        row["p_ks"] = (law.size - np.searchsorted(law, row["ks"]) + 1.0) / (law.size + 1.0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    assert _failed(workload, shifted) == {("results.jsonl", name)}


def test_changing_the_seed_changes_inputs(tmp_path):
    def panel(seed):
        d = tmp_path / f"s{seed}-{len(list(tmp_path.iterdir()))}"
        d.mkdir()
        return Path(run.EmpiricalStaged(seed, str(d)).input).read_bytes()

    assert panel(1) == panel(1)
    assert panel(1) != panel(2)
    a, b = (run.Ar1Reproduce(seed, str(tmp_path)).call(str(tmp_path / "o")) for seed in (1, 2))
    assert a != b


def test_oracle_cdf_matches_depgof_to_the_ambiguity_window(monkeypatch):
    monkeypatch.syspath_prepend(str(run.SRC))
    from depgof import vol_model_cdf

    x = np.random.default_rng(0).standard_normal(2000) * 3
    for s in (0.3, np.sqrt(0.05 / (1 - 0.88 ** 2)), 1.0):
        assert np.abs(checks.model_cdf(x, s) - vol_model_cdf(x, s)).max() < checks.AMBIGUITY / 10


def test_layer_self_times_and_residual_add_up_to_wall():
    spans = [
        {"name": "runner.reproduce", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "limit_law.run_gof_test", "parent": 0, "start": 1.0, "end": 3.0},
        {"name": "lognormal.vol_model_cdf", "parent": 1, "start": 1.5, "end": 2.5,
         "attrs": {"points": 10, "scale": 0.5}},
        {"name": "runner.write_distribution", "parent": 0, "start": 4.0, "end": 5.0,
         "attrs": {"bytes": 2_000_000}},
    ]
    m = tracing.layer_metrics(spans, wall_s=10.5)
    assert m["runner.busy_s"] == 10.0 and m["runner.self_s"] == 8.0
    assert m["limit_law.self_s"] == 1.0 and m["lognormal.self_s"] == 1.0
    assert m["limit_law.run_gof_test.self_s"] == 1.0
    assert m["runner.write_distribution_mb"] == 2.0
    assert m["trace.residual_s"] == 0.5
    assert sum(m[f"{lay}.self_s"] for lay in tracing.LAYERS) + m["trace.residual_s"] == 10.5
