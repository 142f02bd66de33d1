import ast
import hashlib
import importlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import types
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext
from functools import partial
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import depgof
from depgof import (
    ConfigError,
    DataError,
    PanelData,
    PipelineConfig,
    QuantileGrid,
    calibrate_volvol,
    empirical_copula,
    ingest_csv,
    parse_config_text,
    reproduce,
    run_pipeline,
    standardize,
    vol_model_quantiles,
)
from depgof import _pool
from depgof.cli import main
from depgof.limit_law import _chunk_rng
from depgof.lognormal import LogNormalVolBasis
from depgof.runner import (
    _target_quantiles,
    _write_csv,
    build_kernel,
    diagonalize,
    estimate_psi,
    generate_panel,
    read_distribution,
    read_matrix,
    simulate_laws,
    write_distribution,
    write_matrix,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_ingest_well_formed(tmp_path):
    path = _write(tmp_path, "p.csv",
                  "a,b,c\n1,2,3\n4,5,6\n7,8,9\n10,11,12\n13,14,15\n")
    panel = ingest_csv(path)
    assert panel.names == ["a", "b", "c"]
    assert panel.values.shape == (5, 3)
    assert panel.n == 5


def test_ingest_blank_cell_names_row_and_column(tmp_path):
    path = _write(tmp_path, "p.csv", "a,b\n1,2\n3,\n")
    with pytest.raises(DataError) as err:
        ingest_csv(path)
    assert "row 3" in str(err.value)
    assert "'b'" in str(err.value)


def test_ingest_header_only(tmp_path):
    path = _write(tmp_path, "p.csv", "a,b\n1,2\n")
    with pytest.raises(DataError) as err:
        ingest_csv(path)
    assert "fewer than 2 data rows" in str(err.value)


def test_ingest_refuses_empty_and_repeated_names(tmp_path, capsys):
    for name, header, offending in (("empty.csv", "a,,b", "[2]"),
                                    ("blank.csv", "a, ,b", "[2]"),
                                    ("twice.csv", "a,b,a,c,b", "['a', 'b']")):
        path = _write(tmp_path, name, header + "\n" + "1,2,3,4,5\n" * 40)
        with pytest.raises(DataError) as err:
            ingest_csv(path)
        assert name in str(err.value) and offending in str(err.value)
    rng = np.random.default_rng(3)
    rows = ["x,,z"] + [",".join(f"{v:.10g}" for v in r) for r in rng.standard_normal((300, 3))]
    data = _write(tmp_path, "named.csv", "\n".join(rows) + "\n")
    cfg = _write(tmp_path, "named.cfg", f"model=empirical\ninput={data}\nt_max=2\n"
                 f"grid_m=10\nn_trials=1000\ntarget_s2=0\noutdir={tmp_path}/o\n")
    assert main(["pipeline", "-c", cfg]) == 3
    assert "named.csv" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.jsonl").exists()


def test_ingest_ragged_and_missing(tmp_path):
    path = _write(tmp_path, "p.csv", "a,b\n1,2\n1,2,3\n")
    with pytest.raises(DataError) as err:
        ingest_csv(path)
    assert "row 3" in str(err.value)
    with pytest.raises(DataError):
        ingest_csv(str(tmp_path / "absent.csv"))


# finite doubles, extremes included, as a writer might spell them: repr, %.17g
# or %.6e, with padding spaces
_CELL = st.builds(
    lambda x, spell, left, right: " " * left + spell(x) + " " * right,
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-310, 1e-300, 1.7976931348623157e308]),
    st.sampled_from([repr, "%.17g".__mod__, "%.6e".__mod__]),
    st.integers(0, 2), st.integers(0, 2))


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4).flatmap(
           lambda k: st.lists(st.lists(_CELL, min_size=k, max_size=k), min_size=2, max_size=6)),
       eol=st.sampled_from(["\n", "\r\n"]))
@example(rows=[["1_000", " 2.5"], ["-0.0", "5e-324 "]], eol="\r\n")   # numpy refuses 1_000
def test_ingest_reads_what_float_reads(tmp_path_factory, rows, eol):
    path = tmp_path_factory.getbasetemp() / "float_reference.csv"
    names = [f"c{j}" for j in range(len(rows[0]))]
    path.write_bytes(eol.join([",".join(names)] + [",".join(r) for r in rows] + [""]).encode())
    expected = np.array([[float(cell) for cell in row] for row in rows])
    assert ingest_csv(str(path)).values.tobytes() == expected.tobytes()


def test_standardize():
    panel = PanelData(names=["x"], values=np.array([[1.0], [2.0], [3.0]]))
    out = standardize(panel)
    assert_allclose(out.values.mean(), 0.0, atol=1e-15)
    assert_allclose(out.values.std(ddof=1), 1.0, rtol=1e-15)
    again = standardize(out)
    assert_allclose(again.values, out.values, atol=1e-12)
    with pytest.raises(DataError):
        standardize(PanelData(names=["c"], values=np.ones((5, 1))))


def test_standardization_does_not_change_copulas():
    rng = np.random.default_rng(3)
    panel = PanelData(names=["x", "y"], values=rng.standard_normal((300, 2)))
    std = standardize(panel)
    grid = QuantileGrid(20)
    before = empirical_copula(panel.values[:, 0], panel.values[:, 1], grid)
    after = empirical_copula(std.values[:, 0], std.values[:, 1], grid)
    assert np.array_equal(before.values, after.values)


def test_config_parsing_and_validation():
    config = parse_config_text(
        "model = ar1\n"
        "# a comment line\n"
        "g = 0.88         # trailing comment\n"
        "sigma2=0.05\n"
        "n_trials = 20000\n"
        "seed=42\n")
    assert config.model == "ar1"
    assert config.g == 0.88
    assert config.n_trials == 20_000
    with pytest.raises(ConfigError):
        parse_config_text("model=ar1\ngrid_m=5\n")
    with pytest.raises(ConfigError):
        parse_config_text("n_trials=10\n")
    with pytest.raises(ConfigError):
        parse_config_text("mystery=1\n")
    with pytest.raises(ConfigError):
        parse_config_text("model ar1\n")
    with pytest.raises(ConfigError):
        parse_config_text("model=garch\n")
    for value in ("true", "ture", "0"):   # the removed estimate switch is not read as false
        with pytest.raises(ConfigError, match="unknown key 'estimate'"):
            parse_config_text(f"model=ar1\nestimate = {value}\n")
    for line in ("seed=-1", "replications=0", "threads=0", "threads=-4"):
        with pytest.raises(ConfigError, match=line.split("=")[0]):
            parse_config_text(line + "\n")
    # the standard normal target is target_s2 = 0; there is no target key
    with pytest.raises(ConfigError, match="unknown key 'target'"):
        parse_config_text("target = gaussian\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_config_refuses_a_float_that_is_not_finite(tmp_path, capsys, value):
    # nan compared false with every bound: target_s2 = nan fell back to the model's
    # V[omega], and sigma2 = nan or inf failed late in the quantile solve (exit 4)
    for key in ("g", "sigma2", "nu", "s", "target_s2"):
        with pytest.raises(ConfigError, match=f"{key} must be a finite number"):
            parse_config_text(f"model=ar1\n{key} = {value}\n")
        out = tmp_path / key
        cfg = _write(tmp_path, f"{key}.cfg", f"model=ar1\nn=300\nreplications=3\ngrid_m=10\n"
                     f"n_trials=1000\n{key}={value}\noutdir={out}\n")
        assert main(["pipeline", "-c", cfg]) == 2
        assert f"configuration error: {key} must be a finite number" in capsys.readouterr().err
        assert not out.exists()


def test_config_hash_inside_a_value_is_kept(tmp_path):
    # a "#" starts a comment only at the start of a line or after whitespace
    config = parse_config_text("outdir = runs/exp#2\ninput = data/panel#v3.csv  # note\n"
                               "#model = fgn\n\t# replications = 9\nreplications=3 #4\n")
    assert (config.outdir, config.input) == ("runs/exp#2", "data/panel#v3.csv")
    assert (config.model, config.replications) == ("iid", 3)
    out = tmp_path / "exp#2"
    cfg = _write(tmp_path, "hash.cfg", f"model=iid\nn=100\nreplications=3\noutdir={out}\n")
    assert main(["generate", "-c", cfg, "--seed", "1"]) == 0
    assert os.listdir(tmp_path / "exp#2") == ["panel.csv"]


def test_config_key_set_twice_is_refused(tmp_path, capsys):
    # the last line used to win silently: n = 200, then n = 300, gave n = 300
    with pytest.raises(ConfigError, match="line 4: key 'n' is set again; line 1 set it first"):
        parse_config_text("n = 200\nmodel = ar1\n# n = 250\nn = 300\n")
    assert parse_config_text("n = 300\n", preset={"n": 1500}).n == 300   # a preset gives way
    out = tmp_path / "twice"
    cfg = _write(tmp_path, "twice.cfg", f"seed = 1\nreplications=3\nseed=2\noutdir={out}\n")
    assert main(["generate", "-c", cfg, "--seed", "1"]) == 2
    assert "line 3: key 'seed' is set again; line 1 set it first" in capsys.readouterr().err
    assert not out.exists()


def test_outdir_that_is_a_file_is_a_config_error(tmp_path, capsys):
    # each entry made the outdir with os.makedirs, whose FileExistsError ended in a
    # traceback (exit 1)
    taken = _write(tmp_path, "taken", "a file\n")
    cfg = _write(tmp_path, "taken.cfg", f"n=100\nreplications=3\ngrid_m=10\nn_trials=1000\n"
                 f"outdir={taken}\n")
    for argv in (["generate", "-c", cfg, "--seed", "1"], ["pipeline", "-c", cfg],
                 ["reproduce", "fig2", "-c", cfg]):
        assert main(argv) == 2, argv
        assert f"configuration error: outdir {taken}: " in capsys.readouterr().err
    config = parse_config_text(Path(cfg).read_text(encoding="utf-8"))
    for run in (partial(run_pipeline, config), partial(reproduce, "fig2", config)):
        with pytest.raises(ConfigError, match=f"outdir {taken}: cannot make the directory"):
            run()
    assert Path(taken).read_text(encoding="utf-8") == "a file\n"


def test_matrix_artifact_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.standard_normal((17, 17))
    path = str(tmp_path / "m.csv")
    write_matrix(path, "copula", values, lag=3)
    kind, m, lag, loaded = read_matrix(path)
    assert (kind, m, lag) == ("copula", 17, 3)
    assert np.array_equal(values, loaded)   # %.17g round-trips float64 exactly


def test_distribution_artifact_roundtrip(tmp_path):
    from depgof import StatisticDistribution

    samples = np.sort(np.random.default_rng(7).random(500))
    dist = StatisticDistribution(kind="cm", samples=samples, spectrum_digest="x",
                                 grid_m=64)
    path = str(tmp_path / "law.csv")
    write_distribution(path, dist)
    loaded = read_distribution(path, "cm")
    assert loaded.kind == "cm"
    assert loaded.grid_m == 64
    assert np.array_equal(loaded.samples, samples)


def test_distribution_artifact_bytes_match_savetxt(tmp_path):
    from depgof import StatisticDistribution

    rng = np.random.default_rng(11)
    special = [0.0, -0.0, 1.0, 2.0, 7.0, -3.0, 1e-300, 5e-324, 2.2e-310, -1e-310, 1e300, 0.1]
    samples = np.sort(np.concatenate([
        special, rng.standard_normal(200) * 10.0 ** rng.integers(-20, 20, 200)]))
    dist = StatisticDistribution(kind="ks", samples=samples, spectrum_digest="x", grid_m=30)
    path = tmp_path / "law.csv"
    write_distribution(str(path), dist)
    expected = io.StringIO()
    expected.write("# depgof law_ks m=30 lag=0\n")
    np.savetxt(expected, samples, fmt="%.17g")
    assert path.read_bytes() == expected.getvalue().encode("utf-8")

    # the same writer serves panels, kernels and eigenvalue rows
    for shape in ((300, 50), (100, 100), (1, 100)):   # 300 x 50 spans two blocks
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        values.flat[:len(special)] = special
        expected = io.StringIO()
        expected.write("a header\n")
        np.savetxt(expected, values, fmt="%.17g", delimiter=",")
        _write_csv(str(path), "a header", values)
        assert path.read_bytes() == expected.getvalue().encode("utf-8"), shape


def test_bad_artifact_header(tmp_path):
    cases = [
        (read_matrix, "not a header\n1,2\n"),
        (read_matrix, "# depgof kernel m=2 lag=x\n1,2\n2,1\n"),
        (read_matrix, "# depgof kernel size=2 lag=0\n1,2\n2,1\n"),
        (read_matrix, "# depgof kernel m=2 lag=0\n1,2\n2\n"),            # ragged rows
        (read_matrix, "# depgof kernel m=3 lag=0\n1,2\n2,1\n"),          # m disagrees
        (read_matrix, "# depgof kernel m=2 lag=0\n1,2\n"),               # missing row
        (read_matrix, "# depgof kernel m=2 lag=0\n1,2\n2,1\n3,3\n"),     # extra row
        (read_matrix, "# depgof eigenvalues m=2 lag=0\n1,2\n2,1\n"),    # one row expected
        (read_matrix, "# depgof kernel m=2 lag=0\n"),                     # header only
        (read_matrix, "# depgof kernel m=2 lag=0\n\n\n"),                 # blank lines only
        (partial(read_distribution, kind="ks"), "# depgof law_ks m=20 lag=0\n0.5\nabc\n"),
        (partial(read_distribution, kind="cm"), "# depgof law_cm m=20 lag=0\n"),  # empty law
        (partial(read_distribution, kind="cm"), "# depgof law_cm m=20 lag=0\n0.1\nnan\n"),
        (partial(read_distribution, kind="ks"), "# depgof law_ks m=20 lag=0\n0.1 0.2\n0.3 0.4\n"),
    ]
    for i, (reader, text) in enumerate(cases):
        path = _write(tmp_path, f"bad{i}.csv", text)
        with pytest.raises(DataError, match=f"bad{i}.csv"):
            reader(path)


def _tiny_config(tmp_path, **over):
    base = dict(model="iid", s=0.4, n=400, replications=6, grid_m=20,
                n_trials=2000, seed=9, outdir=str(tmp_path / "out"))
    base.update(over)
    return PipelineConfig(**base)


def _hash_dir(path):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        digest.update(name.encode())
        with open(os.path.join(path, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def test_run_pipeline_synthetic_end_to_end(tmp_path):
    config = _tiny_config(tmp_path)
    with pytest.warns(RuntimeWarning):   # n_trials below the quantile guidance
        results = run_pipeline(config)
    out = config.outdir
    for name in ("panel.csv", "kernel.csv", "spectrum_eigvals.csv",
                 "spectrum_eigvecs.csv", "law_ks.csv", "law_cm.csv",
                 "results.jsonl"):
        assert os.path.exists(os.path.join(out, name)), name
    assert len(results) == 6
    with open(os.path.join(out, "results.jsonl"), encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    assert set(rows[0]) == {"name", "ks", "cm", "p_ks", "p_cm"}
    assert all(0 < r["p_ks"] <= 1 and 0 < r["p_cm"] <= 1 for r in rows)
    first = _hash_dir(out)
    with pytest.warns(RuntimeWarning):
        run_pipeline(config)
    assert _hash_dir(out) == first   # byte-identical rerun


def test_run_pipeline_empirical_path(tmp_path):
    rng = np.random.default_rng(11)
    rows = ["x,y,z"] + [",".join(f"{v:.10g}" for v in rng.standard_normal(3))
                        for _ in range(300)]
    data = _write(tmp_path, "panel.csv", "\n".join(rows) + "\n")
    config = _tiny_config(tmp_path, model="empirical", input=data, t_max=6,
                          target_s2=0.0, outdir=str(tmp_path / "emp"))
    with pytest.warns(RuntimeWarning):
        results = run_pipeline(config)
    assert len(results) == 3
    assert os.path.exists(os.path.join(config.outdir, "psi.csv"))
    assert os.path.exists(os.path.join(config.outdir, "copula_t1.csv"))
    kind, m, lag, psi = read_matrix(os.path.join(config.outdir, "psi.csv"))
    assert kind == "psi" and m == 20 and lag == 6
    assert np.array_equal(psi, psi.T)


def test_panel_columns_do_not_share_law_streams(tmp_path):
    config = _tiny_config(tmp_path, s=0.0, n=50, replications=3)
    panel = generate_panel(config)
    for j, (_, col) in enumerate(panel.columns()):
        # at s = 0 a column is the generator's second block of n normals
        law_normals = _chunk_rng(config.seed, j).standard_normal(2 * config.n)
        assert np.intersect1d(col, law_normals).size == 0


def test_estimate_psi_uses_all_columns(tmp_path):
    rng = np.random.default_rng(13)
    panel = PanelData(names=["a", "b"], values=rng.standard_normal((500, 2)))
    config = _tiny_config(tmp_path, model="empirical", t_max=4)
    psi = estimate_psi(panel, config)
    assert psi.t_max == 4
    assert psi.values.shape == (20, 20)


def test_cli_exit_codes(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "model=nosuch\n")
    assert main(["pipeline", "-c", cfg]) == 2
    assert "configuration error" in capsys.readouterr().err

    cfg_data = _write(tmp_path, "emp.cfg",
                      f"model=empirical\ninput={tmp_path}/missing.csv\n"
                      f"outdir={tmp_path}/o\nn_trials=2000\ngrid_m=20\n")
    assert main(["pipeline", "-c", cfg_data]) == 3
    assert "data error" in capsys.readouterr().err

    assert main(["pipeline", "-c", str(tmp_path / "void.cfg")]) == 2

    # a kernel whose header disagrees with its 20 x 20 values is a data error
    cfg_law = _write(tmp_path, "law.cfg", f"model=iid\ngrid_m=20\noutdir={tmp_path}/k\n")
    os.makedirs(tmp_path / "k")
    kernel_csv = tmp_path / "k" / "kernel.csv"
    write_matrix(str(kernel_csv), "kernel", np.eye(20))
    kernel_csv.write_text(kernel_csv.read_text().replace("m=20", "m=21", 1))
    assert main(["law", "-c", cfg_law, "--seed", "1"]) == 3
    assert "kernel.csv" in capsys.readouterr().err

    # so is a kernel whose values are not symmetric
    asymmetric = np.eye(20)
    asymmetric[0, 1] = 0.5
    write_matrix(str(kernel_csv), "kernel", asymmetric)
    assert main(["law", "-c", cfg_law, "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and "kernel.csv" in err and "not symmetric" in err

    # so is a truncated kernel: half its rows, or none
    cfg_ten = _write(tmp_path, "ten.cfg", f"model=iid\ngrid_m=10\noutdir={tmp_path}/t\n")
    os.makedirs(tmp_path / "t")
    kernel_ten = tmp_path / "t" / "kernel.csv"
    write_matrix(str(kernel_ten), "kernel", np.eye(10))
    rows = kernel_ten.read_text().splitlines(keepends=True)
    for kept in (rows[:6], rows[:1]):
        kernel_ten.write_text("".join(kept))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["law", "-c", cfg_ten, "--seed", "1"]) == 3
        assert "kernel.csv" in capsys.readouterr().err

    # and a Psi surface with 4 of its 10 rows
    cfg_psi = _write(tmp_path, "psi.cfg", f"model=empirical\ngrid_m=10\noutdir={tmp_path}/e\n")
    os.makedirs(tmp_path / "e")
    psi_csv = tmp_path / "e" / "psi.csv"
    write_matrix(str(psi_csv), "psi", np.zeros((10, 10)), lag=3)
    psi_csv.write_text("".join(psi_csv.read_text().splitlines(keepends=True)[:5]))
    assert main(["kernel", "-c", cfg_psi]) == 3
    assert "psi.csv" in capsys.readouterr().err

    # swapped law files are a data error that names the file, not a config error
    cfg_swap = _write(tmp_path, "swap.cfg", "model=iid\nn=300\nreplications=3\ngrid_m=20\n"
                      f"outdir={tmp_path}/s\n")
    assert main(["generate", "-c", cfg_swap, "--seed", "5"]) == 0
    for name, kind in (("ks", "cm"), ("cm", "ks")):
        (tmp_path / "s" / f"law_{name}.csv").write_text(f"# depgof law_{kind} m=20 lag=0\n1\n")
    capsys.readouterr()
    assert main(["test", "-c", cfg_swap]) == 3
    assert "law_ks.csv" in capsys.readouterr().err

    # an artifact of the wrong kind under the name a verb reads is a data error naming it
    rng = np.random.default_rng(23)
    rows = ["a,b,c,d,e"] + [",".join(f"{x:.10g}" for x in r)
                            for r in rng.standard_normal((600, 5))]
    data = _write(tmp_path, "emp.csv", "\n".join(rows) + "\n")
    cfg_kind = _write(tmp_path, "kind.cfg", f"model=empirical\ninput={data}\nt_max=1\n"
                      f"grid_m=20\nn_trials=2000\noutdir={tmp_path}/w\n")
    assert main(["estimate", "-c", cfg_kind]) == 0
    assert main(["kernel", "-c", cfg_kind]) == 0
    out = tmp_path / "w"
    originals = {name: (out / name).read_text() for name in ("psi.csv", "kernel.csv")}
    for source, target, verb in (("kernel.csv", "psi.csv", ["kernel"]),
                                 ("psi.csv", "kernel.csv", ["law", "--seed", "1"]),
                                 ("copula_t1.csv", "kernel.csv", ["law", "--seed", "1"])):
        (out / target).write_text((out / source).read_text())
        capsys.readouterr()
        assert main([verb[0], "-c", cfg_kind] + verb[1:]) == 3
        assert f"{target} holds a" in capsys.readouterr().err
        (out / target).write_text(originals[target])


def _unreadable(tmp_path, case):
    """(verb, config, exit code, path named) of a verb run on a config or input
    that cannot be read as UTF-8 text."""
    rows = "".join(f"{a:.10g},{b:.10g}\n"
                   for a, b in np.random.default_rng(47).standard_normal((5000, 2)))
    data, out = tmp_path / "in.csv", tmp_path / "o"
    data.write_text("a,b\n" + rows, encoding="utf-8")
    out.mkdir()
    cfg = tmp_path / "e.cfg"
    cfg.write_text(f"model=empirical\ninput={data}\nt_max=2\ngrid_m=10\noutdir={out}\n",
                   encoding="utf-8")
    if case == "latin-1 header":
        data.write_bytes(("caf\u00e9,b\n" + rows).encode("latin-1"))
        return ["estimate"], cfg, 3, data
    if case == "latin-1 last row":   # past the first 8 KB: raised inside np.loadtxt
        data.write_bytes(("a,b\n" + rows).encode() + b"1,\xe9\n")
        return ["estimate"], cfg, 3, data
    if case == "latin-1 config":
        cfg.write_bytes(cfg.read_bytes() + "# caf\u00e9\n".encode("latin-1"))
        return ["estimate"], cfg, 2, cfg
    if case == "config directory":
        return ["estimate"], tmp_path, 2, tmp_path
    if case == "input directory":
        data.unlink()
        data.mkdir()
        return ["estimate"], cfg, 3, data
    if case == "psi directory":
        (out / "psi.csv").mkdir()
        return ["kernel"], cfg, 3, out / "psi.csv"
    assert case == "latin-1 kernel"
    write_matrix(str(out / "kernel.csv"), "kernel", np.eye(10))
    (out / "kernel.csv").write_bytes((out / "kernel.csv").read_bytes() + b"# \xe9\n")
    return ["law", "--seed", "1"], cfg, 3, out / "kernel.csv"


@pytest.mark.parametrize("case", ["latin-1 header", "latin-1 last row", "latin-1 config",
                                  "config directory", "input directory", "psi directory",
                                  "latin-1 kernel"])
def test_cli_refuses_a_file_it_cannot_read(tmp_path, capsys, case):
    verb, cfg, code, named = _unreadable(tmp_path, case)
    assert main([verb[0], "-c", str(cfg)] + verb[1:]) == code
    err = capsys.readouterr().err
    assert err.startswith("depgof: configuration error" if code == 2 else "depgof: data error")
    assert str(named) in err
    assert ("not UTF-8 text" if "latin-1" in case else "Is a directory") in err


def test_a_bad_byte_is_not_walked_again(tmp_path, monkeypatch):
    # np.loadtxt's UnicodeDecodeError is a ValueError; the float() walk of the
    # whole file would only meet the same byte again
    rows = "".join(f"{a:.10g},{b:.10g}\n"
                   for a, b in np.random.default_rng(59).standard_normal((900, 2)))
    data = tmp_path / "in.csv"
    data.write_bytes(("a,b\n" + rows).encode() + b"1,\xe9\n")   # past the first 8 KB

    def walked(value):
        raise AssertionError("the float() walk ran")

    monkeypatch.setattr(depgof.runner.math, "isfinite", walked)
    with pytest.raises(DataError, match=f"{data} is not UTF-8 text"):
        ingest_csv(str(data))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
def test_cli_drops_a_byte_order_mark(tmp_path):
    # a BOM named the first column '\ufeffa', and made the first config key unknown
    rows = "".join(f"{a:.10g},{b:.10g}\n"
                   for a, b in np.random.default_rng(53).standard_normal((300, 2)))
    results = []
    for bom in ("", "\ufeff"):
        data, out = tmp_path / f"in{len(bom)}.csv", tmp_path / f"o{len(bom)}"
        data.write_text(bom + "a,b\n" + rows, encoding="utf-8")
        cfg = _write(tmp_path, f"e{len(bom)}.cfg",
                     f"{bom}model=empirical\ninput={data}\nt_max=2\ngrid_m=10\n"
                     f"n_trials=1000\ntarget_s2=0\noutdir={out}\n")
        assert main(["pipeline", "-c", cfg]) == 0
        results.append((out / "results.jsonl").read_bytes())
    assert json.loads(results[0].splitlines()[0])["name"] == "a"
    assert results[1] == results[0]


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_cli_rejects_non_finite_cells(tmp_path, capsys, cell):
    rng = np.random.default_rng(19)
    rows = ["x,y"] + [f"{a:.10g},{b:.10g}" for a, b in rng.standard_normal((60, 2))]
    rows[7] = rows[7].split(",")[0] + "," + cell   # file row 8
    data = _write(tmp_path, "cells.csv", "\n".join(rows) + "\n")
    cfg = _write(tmp_path, "cells.cfg", f"model=empirical\ninput={data}\nt_max=2\n"
                 f"grid_m=10\nn_trials=1000\noutdir={tmp_path}/o\n")
    assert main(["estimate", "-c", cfg]) == 3
    err = capsys.readouterr().err
    assert "row 8, column 'y'" in err


def test_cli_kernel_refuses_a_nan_in_psi(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    cfg = _write(tmp_path, "e.cfg", f"model=empirical\ngrid_m=10\noutdir={out}\n")
    psi = np.zeros((10, 10))
    psi[2, 5] = psi[5, 2] = np.nan   # a symmetric pair, as an estimate would write it
    write_matrix(str(out / "psi.csv"), "psi", psi, lag=3)
    write_matrix(str(out / "kernel.csv"), "kernel", np.eye(10))
    kernel = (out / "kernel.csv").read_bytes()
    assert main(["kernel", "-c", cfg]) == 3
    err = capsys.readouterr().err
    assert "psi.csv: row 4, column 6: 'nan' is not a finite number" in err
    assert (out / "kernel.csv").read_bytes() == kernel


def test_cli_kernel_refuses_an_asymmetric_psi(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    cfg = _write(tmp_path, "e.cfg", f"model=empirical\ngrid_m=20\noutdir={out}\n")
    psi = np.zeros((20, 20))
    psi[2, 5] = 0.3   # an estimate writes Psi[5, 2] too
    write_matrix(str(out / "psi.csv"), "psi", psi, lag=3)
    assert main(["kernel", "-c", cfg]) == 3
    err = capsys.readouterr().err
    assert "psi.csv: Psi is not symmetric (max asymmetry 3.00e-01)" in err
    assert not (out / "kernel.csv").exists()
    psi[5, 2] = 0.3
    write_matrix(str(out / "psi.csv"), "psi", psi, lag=3)
    assert main(["kernel", "-c", cfg]) == 0


def test_cli_kernel_refuses_psi_of_another_t_max(tmp_path, capsys):
    rng = np.random.default_rng(37)
    rows = ["a,b,c"] + [",".join(f"{v:.10g}" for v in r) for r in rng.standard_normal((200, 3))]
    data = _write(tmp_path, "in.csv", "\n".join(rows) + "\n")
    out = tmp_path / "e"
    text = f"model=empirical\ninput={data}\ngrid_m=10\noutdir={out}\n"
    assert main(["estimate", "-c", _write(tmp_path, "t3.cfg", text + "t_max=3\n")]) == 0
    capsys.readouterr()
    assert main(["kernel", "-c", _write(tmp_path, "t4.cfg", text + "t_max=4\n")]) == 3
    err = capsys.readouterr().err
    assert "psi.csv was estimated at t_max=3; the config has t_max=4" in err
    assert not (out / "kernel.csv").exists()
    # an auto t_max is not checked: it would need the input's row count
    assert main(["kernel", "-c", _write(tmp_path, "auto.cfg", text)]) == 0


def test_cli_law_refuses_an_inf_in_kernel(tmp_path, capsys):
    out = tmp_path / "o"
    out.mkdir()
    cfg = _write(tmp_path, "k.cfg", f"model=iid\ngrid_m=10\nn_trials=1000\noutdir={out}\n")
    kernel = np.eye(10)
    kernel[7, 7] = np.inf
    write_matrix(str(out / "kernel.csv"), "kernel", kernel)
    assert main(["law", "-c", cfg, "--seed", "1"]) == 3
    err = capsys.readouterr().err
    assert "kernel.csv: row 9, column 8: 'inf' is not a finite number" in err
    assert sorted(os.listdir(out)) == ["kernel.csv"]


@pytest.mark.parametrize("t_max_line, grid_m, named", [
    ("", 100, "auto t_max=90"),          # 180 // 2 lags leave 90 < 101 pairs
    ("t_max=80\n", 100, "t_max=80"),     # one lag past the largest that fits
    ("t_max=500\n", 100, "t_max=500"),   # past n - 1 too: refused as configured
    ("t_max=5\n", 200, "no lag fits"),   # 180 points cannot fill a 201-point grid
])
def test_cli_estimate_refuses_a_t_max_too_large_before_any_lag(tmp_path, capsys, t_max_line,
                                                               grid_m, named):
    rng = np.random.default_rng(23)
    rows = ["a,b,c"] + [",".join(f"{v:.10g}" for v in r) for r in rng.standard_normal((180, 3))]
    data = _write(tmp_path, "short.csv", "\n".join(rows) + "\n")
    out = tmp_path / "o"
    cfg = _write(tmp_path, "short.cfg", f"model=empirical\ninput={data}\n{t_max_line}"
                 f"grid_m={grid_m}\noutdir={out}\n")
    assert main(["estimate", "-c", cfg]) == 3
    err = capsys.readouterr().err
    assert named in err and f"grid_m={grid_m}" in err and "n=180" in err
    if grid_m == 100:
        assert "largest admissible t_max is 79" in err
    assert list(out.iterdir()) == []
    # the largest admissible t_max runs
    if grid_m == 100:
        cfg_ok = _write(tmp_path, "ok.cfg", f"model=empirical\ninput={data}\nt_max=79\n"
                        f"grid_m=100\noutdir={out}\n")
        assert main(["estimate", "-c", cfg_ok]) == 0
        assert (out / "psi.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
def test_cli_test_refuses_laws_of_another_grid(tmp_path, capsys):
    out = tmp_path / "grid"
    cfg = _write(tmp_path, "grid.cfg", "model=iid\nn=300\nreplications=3\ngrid_m=20\n"
                 f"n_trials=2000\noutdir={out}\n")
    for verb in (["generate", "--seed", "5"], ["kernel"], ["law", "--seed", "6"]):
        assert main([verb[0], "-c", cfg] + verb[1:]) == 0
    for kind in ("ks", "cm"):
        law = out / f"law_{kind}.csv"
        law.write_text(law.read_text().replace("m=20", "m=30", 1))
    capsys.readouterr()
    assert main(["test", "-c", cfg]) == 3
    assert "grid_m=20" in capsys.readouterr().err
    assert not (out / "results.jsonl").exists()


def _law_then_test(tmp_path, law_trials, test_trials, edit=None):
    """Exit code of `test` at test_trials on laws drawn at law_trials, and the outdir."""
    out = tmp_path / "laws"
    text = f"model=iid\nn=300\nreplications=5\ngrid_m=20\noutdir={out}\n"
    cfg_law = _write(tmp_path, "law.cfg", text + f"n_trials={law_trials}\n")
    cfg_test = _write(tmp_path, "test.cfg", text + f"n_trials={test_trials}\n")
    for verb in (["generate", "--seed", "5"], ["kernel"], ["law", "--seed", "6"]):
        assert main([verb[0], "-c", cfg_law] + verb[1:]) == 0
    if edit:
        edit(out)
    return main(["test", "-c", cfg_test]), out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
def test_cli_test_refuses_laws_of_another_n_trials(tmp_path, capsys):
    code, out = _law_then_test(tmp_path, 5000, 20000)
    err = capsys.readouterr().err
    assert code == 3
    assert "law_ks.csv" in err and "5000 samples" in err and "n_trials=20000" in err
    assert not (out / "results.jsonl").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
def test_cli_test_refuses_a_truncated_law(tmp_path, capsys):
    def truncate(out):   # the header and the first 1000 of 5000 samples
        law = out / "law_cm.csv"
        law.write_text("".join(law.read_text().splitlines(keepends=True)[:1001]))

    code, out = _law_then_test(tmp_path, 5000, 5000, edit=truncate)
    err = capsys.readouterr().err
    assert code == 3
    assert "law_cm.csv" in err and "1000 samples" in err and "n_trials=5000" in err
    assert not (out / "results.jsonl").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
def test_cli_refuses_a_generated_panel_of_another_length(tmp_path, capsys):
    out = tmp_path / "fgn"
    text = f"model=fgn\nreplications=3\ngrid_m=15\nn_trials=2000\noutdir={out}\n"
    short = _write(tmp_path, "short.cfg", text + "n=300\n")
    long = _write(tmp_path, "long.cfg", text + "n=400\n")
    assert main(["generate", "-c", short, "--seed", "5"]) == 0
    for verb in (["kernel"], ["law", "--seed", "6"]):   # neither reads the panel
        assert main([verb[0], "-c", long] + verb[1:]) == 0
    capsys.readouterr()
    assert main(["test", "-c", long]) == 3
    err = capsys.readouterr().err
    assert "panel.csv" in err and "300 x 3" in err and "400 x 3" in err
    assert not (out / "results.jsonl").exists()


def test_cli_refuses_psi_and_kernel_of_another_grid(tmp_path, capsys):
    rng = np.random.default_rng(31)
    rows = ["a,b,c"] + [",".join(f"{v:.10g}" for v in r) for r in rng.standard_normal((400, 3))]
    data = _write(tmp_path, "in.csv", "\n".join(rows) + "\n")
    out = tmp_path / "e"
    text = f"model=empirical\ninput={data}\nt_max=3\nn_trials=2000\noutdir={out}\n"
    m15 = _write(tmp_path, "m15.cfg", text + "grid_m=15\n")
    m20 = _write(tmp_path, "m20.cfg", text + "grid_m=20\n")
    assert main(["estimate", "-c", m15]) == 0
    assert main(["kernel", "-c", m15]) == 0
    kernel = (out / "kernel.csv").read_bytes()
    for verb, name in ((["kernel"], "psi.csv"), (["law", "--seed", "6"], "kernel.csv")):
        capsys.readouterr()
        assert main([verb[0], "-c", m20] + verb[1:]) == 3
        err = capsys.readouterr().err
        assert name in err and "m=15" in err and "grid_m=20" in err
    assert (out / "kernel.csv").read_bytes() == kernel
    assert not (out / "law_ks.csv").exists()


def test_cli_imports_only_runner_and_errors_from_depgof():
    # artifact names, kinds and pairing checks belong to runner; the CLI knows verbs
    path = Path(__file__).resolve().parents[1] / "src" / "depgof" / "cli.py"
    names = set()   # every imported name, dotted in full: depgof.errors.DataError
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = ["depgof"] * bool(node.level) + [node.module] * bool(node.module)
            names.update(".".join(package + [a.name]) for a in node.names)
    assert {n.split(".")[1] for n in names if n.startswith("depgof.")} == {"runner", "errors"}


@pytest.mark.parametrize("model", ["empirical", "ar1", "fgn", "iid"])
def test_target_s2_fixes_the_scale_of_every_column(model):
    rng = np.random.default_rng(29)
    values = rng.standard_normal((600, 5)) * np.exp(
        rng.standard_normal((600, 5)) * np.linspace(0.1, 0.7, 5))
    panel = standardize(PanelData(names=list("abcde"), values=values))
    config = PipelineConfig(model=model, grid_m=20, target_s2=0.09, threads=2)
    expected = vol_model_quantiles(QuantileGrid(20), 0.3).tobytes()
    assert [q.tobytes() for q in _target_quantiles(config, panel)] == [expected] * 5
    # unset, each column takes its own leave-one-out scale (empirical), or
    # every column the model's V[omega]
    auto = [q.tobytes() for q in _target_quantiles(replace(config, target_s2=-1.0), panel)]
    assert len(set(auto) | {expected}) == (6 if model == "empirical" else 2)


def _calls(path):
    """(top-level definition, call) for every call in a module's functions."""
    for top in ast.parse(path.read_text(encoding="utf-8")).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield getattr(top, "name", None), node


def test_one_csv_reader_and_one_csv_writer():
    src = Path(__file__).resolve().parents[1] / "src" / "depgof"
    loadtxt = [(path.stem, fn) for path in sorted(src.glob("*.py")) for fn, call in _calls(path)
               if getattr(call.func, "attr", getattr(call.func, "id", None)) == "loadtxt"]
    assert loadtxt == [("runner", "_read_rows")]
    writes = sorted(
        (fn, "summary.json" in ast.unparse(call.args[0]))
        for fn, call in _calls(src / "runner.py")
        if getattr(call.func, "id", None) == "open"
        and any(isinstance(a, ast.Constant) and "w" in str(a.value)
                for a in call.args[1:] + [k.value for k in call.keywords if k.arg == "mode"]))
    assert writes == [("_write_csv", False), ("reproduce", True), ("write_results", False)]


def test_every_file_is_read_through_one_reader():
    # _reading turns a file that cannot be read as UTF-8 text into an error naming it
    src = Path(__file__).resolve().parents[1] / "src" / "depgof"
    reads = []
    for path in sorted(src.glob("*.py")):
        for fn, call in _calls(path):
            name = getattr(call.func, "attr", getattr(call.func, "id", None))
            mode = call.args[1:2] + [k.value for k in call.keywords if k.arg == "mode"]
            writes = mode and set("wax") & set(str(getattr(mode[0], "value", "")))
            if name in ("read_text", "read_bytes") or (name == "open" and not writes):
                reads.append((path.stem, fn))
    assert reads == [("runner", "_reading")]


def test_one_thread_pool():
    # every worker pool goes through the helper that pins OpenBLAS to one thread,
    # and only the law draw, whose chunks release the GIL, maps work onto it
    src = Path(__file__).resolve().parents[1] / "src" / "depgof"

    def callers(name):
        return [(path.stem, fn) for path in sorted(src.glob("*.py")) for fn, call in _calls(path)
                if getattr(call.func, "attr", getattr(call.func, "id", None)) == name]

    assert callers("ThreadPoolExecutor") == [("_pool", "map_ordered")]
    assert callers("map_ordered") == [("limit_law", "_simulate")]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
def test_every_stage_holds_openblas_at_one_thread(tmp_path, monkeypatch, blas):
    # eigh threads inside OpenBLAS; each call must find it pinned, by the stage
    # that reached it, and each stage must restore the count
    seen = []
    for name in ("eigh", "cholesky"):
        def record(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            seen.append((_name, blas()))
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    small = dict(n=300, replications=4, grid_m=15, n_trials=2000, seed=5, t_max=4)
    reproduce("fig2", PipelineConfig(outdir=str(tmp_path / "fig2"), **small))
    assert blas() == 2
    run_pipeline(PipelineConfig(model="fgn", outdir=str(tmp_path / "fgn"), **small))
    assert blas() == 2
    rows = np.random.default_rng(17).standard_normal((300, 3))
    data = _write(tmp_path, "panel_in.csv", "x,y,z\n" + "".join(
        ",".join(map(repr, r)) + "\n" for r in rows.tolist()))
    cfg = _write(tmp_path, "emp.cfg", f"model=empirical\ninput={data}\ngrid_m=15\nt_max=4\n"
                 f"n_trials=2000\noutdir={tmp_path / 'emp'}\n")
    for verb in (["estimate"], ["kernel"], ["law", "--seed", "5"], ["test"]):
        assert main([verb[0], "-c", cfg] + verb[1:]) == 0
        assert blas() == 2
    assert sorted(set(seen)) == [("eigh", 1)]   # no stage factors a covariance
    assert [name for name, _ in seen].count("eigh") == 4   # fig2's two spectra, fgn, law
    with pytest.raises(DataError, match="t_max=1000"):
        estimate_psi(PanelData(names=list("xyz"), values=rows),
                     PipelineConfig(model="empirical", grid_m=15, t_max=1000))
    assert blas() == 2 and _pool._depth == 0


def test_every_public_name_has_a_caller():
    # each exported function or class is named in code (a Name, an Attribute or an
    # import), outside its own definition, by the package, a demo, the acceptance
    # criteria or the benchmark, and not by its own tests only; a docstring or a
    # comment that mentions it is no caller
    root = Path(__file__).resolve().parents[1]
    files = ([p for p in sorted((root / "src" / "depgof").glob("*.py")) if p.name != "__init__.py"]
             + sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
             + [root / "tests" / "test_acceptance.py"])
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in files}

    def code_names(tops):
        return {n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                else n.name for top in tops for n in ast.walk(top)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))}

    named = {p: code_names(tree.body) for p, tree in trees.items()}
    unused = []
    for name in depgof.__all__:
        obj = getattr(depgof, name)
        if isinstance(obj, types.ModuleType) or (isinstance(obj, type)
                                                 and issubclass(obj, Exception)):
            continue
        own = root / "src" / "depgof" / f"{obj.__module__.split('.')[-1]}.py"
        outside = code_names(n for n in trees[own].body if getattr(n, "name", None) != name)
        if not any(name in (outside if p == own else names) for p, names in named.items()):
            unused.append(name)
    assert unused == []


def test_tracer_names_exist():
    # the benchmark's tracer rebinds these public names; a removed one breaks it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for layer, names in tracing.TRACED.items():
        module = importlib.import_module(f"depgof.{layer}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"depgof.{layer} lacks {missing}"


def test_cli_seed_required_for_generate_and_law(tmp_path):
    cfg = _write(tmp_path, "ok.cfg", "model=iid\nn=100\nreplications=3\n")
    with pytest.raises(SystemExit) as exc:
        main(["generate", "-c", cfg])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["law", "-c", cfg])
    assert exc.value.code == 2


@pytest.mark.parametrize("verb", ["estimate", "kernel", "test"])
def test_cli_seed_only_on_verbs_that_draw(tmp_path, verb):
    # estimate, kernel and test draw no random numbers, so a seed would be ignored
    cfg = _write(tmp_path, "ok.cfg", "model=iid\nn=100\nreplications=3\n")
    with pytest.raises(SystemExit) as exc:
        main([verb, "-c", cfg, "--seed", "1"])
    assert exc.value.code == 2


def test_cli_stagewise_flow(tmp_path, capsys):
    out = tmp_path / "stage"
    cfg = _write(tmp_path, "flow.cfg",
                 "model=iid\ns=0.3\nn=300\nreplications=4\ngrid_m=15\n"
                 f"n_trials=2000\noutdir={out}\n")
    assert main(["generate", "-c", cfg, "--seed", "5"]) == 0
    assert main(["kernel", "-c", cfg]) == 0
    with pytest.warns(RuntimeWarning, match="n_trials"):   # below the quantile guidance
        assert main(["law", "-c", cfg, "--seed", "6"]) == 0
    assert main(["test", "-c", cfg]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any("results.jsonl" in ln for ln in lines)
    assert os.path.exists(out / "results.jsonl")
    # estimate also works from the generated panel
    assert main(["estimate", "-c", cfg]) == 0
    assert os.path.exists(out / "psi.csv")


def test_cli_reproduce_smoke(tmp_path, capsys):
    out = tmp_path / "repro"
    cfg = _write(tmp_path, "fig2.cfg",
                 "n=600\nreplications=40\ngrid_m=25\nn_trials=4000\nseed=3\n"
                 f"outdir={out}\n")
    with pytest.warns(RuntimeWarning, match="n_trials"):   # below the quantile guidance
        assert main(["reproduce", "fig2", "-c", cfg]) == 0
    text = capsys.readouterr().out
    assert "uniformity_p_cm_corrected" in text
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["experiment"] == "fig2"
    assert os.path.exists(out / "reduction_ratios.csv")
    assert os.path.exists(out / "results_corrected.jsonl")


@pytest.mark.parametrize("n_line, expected_n", [("n=2500\n", 2500), ("", 1500)],
                         ids=["explicit", "preset"])
def test_cli_reproduce_fig3_keeps_explicit_values(tmp_path, n_line, expected_n):
    out = tmp_path / "fig3"
    cfg = _write(tmp_path, "fig3.cfg",
                 f"{n_line}replications=4\ngrid_m=15\nn_trials=2000\nseed=2\n"
                 f"outdir={out}\n")
    with pytest.warns(RuntimeWarning):   # n_trials below the quantile guidance
        assert main(["reproduce", "fig3", "-c", cfg]) == 0
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    assert summary["model"] == "fgn"
    assert summary["n"] == expected_n


def test_law_threads_do_not_change_artifacts(tmp_path):
    digests = []
    for threads in (2, 1):   # 40000 trials are three law chunks
        config = _tiny_config(tmp_path, threads=threads, n_trials=40_000,
                              outdir=str(tmp_path / f"t{threads}"))
        run_pipeline(config)
        digests.append(_hash_dir(config.outdir))
    assert digests[0] == digests[1]


def test_default_threads_are_the_usable_cpus_and_change_no_law(tmp_path):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert PipelineConfig().threads == parse_config_text("").threads == cpus
    spectrum = diagonalize(build_kernel(PipelineConfig(model="ar1", grid_m=20)))
    laws = [simulate_laws({"": spectrum}, config)[""]   # 40000 trials are three law chunks
            for config in (PipelineConfig(grid_m=20, n_trials=40_000, seed=4),
                           PipelineConfig(grid_m=20, n_trials=40_000, seed=4, threads=1))]
    for default, one in zip(*laws):
        assert default.samples.tobytes() == one.samples.tobytes()


def _dir_bytes(path):
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def test_empirical_verb_chain_does_not_depend_on_threads(tmp_path):
    # columns of distinct vol scales, so each gets its own leave-one-out target
    rng = np.random.default_rng(23)
    k = 7
    values = rng.standard_normal((900, k)) * np.exp(
        rng.standard_normal((900, k)) * np.linspace(0.1, 0.7, k))
    data = tmp_path / "panel_in.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"c{j}" for j in range(k)) + "\n")
        np.savetxt(fh, values, fmt="%.17g", delimiter=",")
    outputs = []
    for threads in (1, 2, 3):   # 40000 trials are three law chunks
        out = tmp_path / f"t{threads}"
        cfg = _write(tmp_path, f"t{threads}.cfg",
                     f"model=empirical\ninput={data}\nt_max=9\ngrid_m=20\n"
                     f"n_trials=40000\nthreads={threads}\noutdir={out}\n")
        for verb in (["estimate"], ["kernel"], ["law", "--seed", "4"], ["test"]):
            assert main([verb[0], "-c", cfg] + verb[1:]) == 0
        outputs.append(_dir_bytes(out))
    assert {"copula_t8.csv", "copula_t9.csv", "psi.csv", "results.jsonl"} <= set(outputs[0])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    config = PipelineConfig(model="empirical", grid_m=20, threads=3)
    panel = standardize(PanelData(names=[f"c{j}" for j in range(k)], values=values))
    assert len({q.tobytes() for q in _target_quantiles(config, panel)}) == k


def test_reproduce_fig2_does_not_depend_on_threads(tmp_path):
    outputs = []
    for threads in (1, 2, 3):
        config = PipelineConfig(n=500, replications=30, grid_m=20, n_trials=40_000,
                                seed=8, threads=threads, outdir=str(tmp_path / f"t{threads}"))
        reproduce("fig2", config)
        outputs.append(_dir_bytes(tmp_path / f"t{threads}"))
    assert {"panel.csv", "reduction_ratios.csv", "summary.json"} <= set(outputs[0])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    # the ratio table is np.quantile's ratios of the four written laws, byte for byte
    law = {f"{kind}_{name}": read_distribution(tmp_path / "t1" / f"law_{kind}_{name}.csv", kind)
           for kind in ("ks", "cm") for name in ("corrected", "iid")}
    levels = np.round(np.arange(0.05, 1.0, 0.05), 2)
    table = np.column_stack([levels] + [
        np.quantile(law[f"{kind}_corrected"].samples, levels)
        / np.quantile(law[f"{kind}_iid"].samples, levels) for kind in ("ks", "cm")])
    _write_csv(tmp_path / "ratios.csv", "level,ratio_ks,ratio_cm", table)
    assert (tmp_path / "ratios.csv").read_bytes() == outputs[0]["reduction_ratios.csv"]
    with pytest.raises(ConfigError, match="unknown experiment 'fig4'"):
        reproduce("fig4", config)


def test_reproduce_arms_are_the_stage_chain_of_each_spectrum(tmp_path):
    # both laws come from the normals of config.seed; each arm writes what
    # simulate_laws and test_panel write for its spectrum alone
    config = PipelineConfig(model="ar1", n=400, replications=12, grid_m=100,
                            n_trials=3 * 16_384 + 1, seed=6, threads=2,
                            outdir=str(tmp_path / "shared"))
    reproduce("fig2", config)
    panel = generate_panel(config)
    for arm, model in (("corrected", "ar1"), ("iid", "iid")):
        alone = tmp_path / arm
        alone.mkdir()
        laws = simulate_laws({f"_{arm}": diagonalize(build_kernel(replace(config, model=model)))},
                             config, str(alone))
        depgof.runner.test_panel(panel, config, laws, str(alone))
        for name in (f"law_ks_{arm}.csv", f"law_cm_{arm}.csv", f"results_{arm}.jsonl"):
            assert (alone / name).read_bytes() == (tmp_path / "shared" / name).read_bytes()
    # the statistics of a series do not depend on the law they are tested against
    rows = {arm: [json.loads(line) for line in (tmp_path / "shared" / f"results_{arm}.jsonl")
                  .read_text(encoding="utf-8").splitlines()] for arm in ("iid", "corrected")}
    assert len(rows["iid"]) == 12
    assert ([(r["name"], r["ks"], r["cm"]) for r in rows["iid"]]
            == [(r["name"], r["ks"], r["cm"]) for r in rows["corrected"]])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
@pytest.mark.parametrize("model", ["iid", "ar1", "fgn", "empirical"])
def test_pipeline_equals_verb_chain(tmp_path, model):
    text = "n=300\nreplications=4\ngrid_m=15\nn_trials=2000\nseed=5\nt_max=4\n"
    if model == "empirical":
        rng = np.random.default_rng(17)
        rows = ["x,y,z"] + [",".join(f"{v:.10g}" for v in rng.standard_normal(3))
                            for _ in range(300)]
        data = _write(tmp_path, "panel_in.csv", "\n".join(rows) + "\n")
        text += f"model=empirical\ninput={data}\n"
        first = ["estimate"]
    else:
        text += f"model={model}\n"
        first = ["generate", "--seed", "5"]
    cfg = _write(tmp_path, "eq.cfg", text)
    piped, chained = tmp_path / "pipeline", tmp_path / "chain"
    assert main(["pipeline", "-c", cfg, "--outdir", str(piped)]) == 0
    for verb in (first, ["kernel"], ["law", "--seed", "5"], ["test"]):
        assert main([verb[0], "-c", cfg, "--outdir", str(chained)] + verb[1:]) == 0
    expected = _dir_bytes(piped)
    assert "results.jsonl" in expected
    assert _dir_bytes(chained) == expected


def _anchors(scales):
    distinct = sorted(set(scales))
    return distinct if len(distinct) <= 5 else [distinct[(len(distinct) - 1) * k // 4]
                                                for k in range(5)]


# leave-one-out scales lie within a few tenths of a percent of each other
_clustered = st.builds(lambda c, rel: [c * (1.0 + r) for r in rel], st.floats(0.01, 3.45),
                       st.lists(st.floats(-2e-3, 2e-3), min_size=4, max_size=12))
_spread = st.lists(st.floats(0.0, 3.5), min_size=4, max_size=8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(scales=st.one_of(_clustered, _spread), m=st.sampled_from([10, 51, 100]))
@example(scales=list(np.linspace(0.4624, 0.4642, 12)), m=100)
@example(scales=[0.0, 0.5, 1.5, 2.7, 3.1068371422561745, 3.5], m=100)
def test_anchored_scale_quantiles(scales, m):
    grid = QuantileGrid(m)
    rows = vol_model_quantiles(grid, scales)
    anchors = _anchors(scales)
    assert rows.shape == (len(scales), m)
    assert rows.tobytes() == vol_model_quantiles(grid, scales[::-1])[::-1].tobytes()
    for s, q in zip(scales, rows):
        assert np.all(np.diff(q) >= 0.0), s
        if s in anchors:
            assert q.tobytes() == vol_model_quantiles(grid, s).tobytes(), s
            continue
        # the cold solve's tolerance, in the basis's units, and the rounding of the
        # shared rescale by e^{-s^2}
        cold, shrink = LogNormalVolBasis(s).quantile(grid.points), np.exp(-s * s)
        tol = (1e-13 + 4e-16 * np.abs(cold)) * shrink + np.spacing(np.abs(cold * shrink))
        assert np.all(np.abs(q - cold * shrink) <= tol), s


@pytest.mark.filterwarnings("error")
def test_anchors_a_subnormal_distance_apart_leave_a_cold_start():
    # 0 and 1e-310 are both anchors: a Lagrange weight through them overflows, so
    # the start of 2.0 is not finite, and that row is solved from the cold start
    grid = QuantileGrid(51)
    scales = [0.0, 1e-310, 0.5, 1.0, 2.0, 3.0]
    for s, q in zip(scales, vol_model_quantiles(grid, scales)):
        assert q.tobytes() == vol_model_quantiles(grid, s).tobytes(), s


def test_target_quantiles_do_not_depend_on_earlier_solves():
    rng = np.random.default_rng(41)
    values = rng.standard_normal((700, 9)) * np.exp(0.6 * rng.standard_normal((700, 9)))
    panel = standardize(PanelData(names=[f"c{j}" for j in range(9)], values=values))
    config = PipelineConfig(model="empirical", grid_m=51, threads=2)
    before = [q.tobytes() for q in _target_quantiles(config, panel)]
    own = np.array([calibrate_volvol(col) for col in panel.values.T])
    scales = sorted({math.sqrt((own.sum() - v) / 8) for v in own})   # leave-one-out
    others = [s for s in scales if s not in _anchors(scales)]
    grid = QuantileGrid(51)
    assert len(others) == 4
    cold = [vol_model_quantiles(grid, s).tobytes() for s in others]   # fills the cache
    assert [q.tobytes() for q in _target_quantiles(config, panel)] == before
    # a warm start lands on other bits than the cold solve somewhere here, so a
    # solve that read the cache would show
    assert set(cold) - set(before)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # n_trials below the quantile guidance
def test_one_column_empirical_panel_needs_target_s2(tmp_path, capsys):
    # the leave-one-out mean over no other column was clamped to s = 0, the
    # standard normal, although this column's own s^2 is 0.63
    rng = np.random.default_rng(43)
    values = rng.standard_normal(800) * np.exp(0.7 * rng.standard_normal(800))
    data = _write(tmp_path, "one.csv", "solo\n" + "".join(f"{v:.17g}\n" for v in values))
    text = f"model=empirical\ninput={data}\nt_max=4\ngrid_m=10\nn_trials=2000\n"
    cfg = _write(tmp_path, "one.cfg", text + f"outdir={tmp_path / 'auto'}\n")
    assert main(["pipeline", "-c", cfg]) == 3
    err = capsys.readouterr().err
    assert "one.csv" in err and "'solo'" in err and "target_s2" in err
    # refused before any stage runs: no copula, psi, kernel, spectrum or law
    assert os.listdir(tmp_path / "auto") == []
    # estimating Psi alone needs no target scale
    assert main(["estimate", "-c", cfg]) == 0
    assert "psi.csv" in os.listdir(tmp_path / "auto")
    fixed = _write(tmp_path, "fixed.cfg", text + f"target_s2=0.49\noutdir={tmp_path / 'fixed'}\n")
    assert main(["pipeline", "-c", fixed]) == 0
    normal = _write(tmp_path, "normal.cfg", text + f"target_s2=0\noutdir={tmp_path / 'normal'}\n")
    assert main(["pipeline", "-c", normal]) == 0


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _exact_ndtri(u):
    """Phi^{-1} of the float u to about 45 digits: Newton steps from the standard
    library's quantile on the Taylor series Phi(x) = 1/2 + phi(x) (x + x^3/3 +
    x^5/(3 5) + ...), whose terms all have the sign of x."""
    with localcontext() as ctx:
        ctx.prec = 50
        level, tiny = Decimal(u), Decimal(10) ** -48
        x = Decimal(NormalDist().inv_cdf(u))
        while True:
            density = (-x * x / 2).exp() / (2 * _PI).sqrt()
            term = total = x
            k = 1
            while abs(term) > tiny:
                term *= x * x / (2 * k + 1)
                total += term
                k += 1
            step = (Decimal("0.5") + density * total - level) / density
            x -= step
            if abs(step) < Decimal(10) ** -45:
                return x


@pytest.mark.parametrize("m", [10, 15, 99, 100, 256, 599])
def test_gaussian_target_quantiles_are_norm_ppf(m):
    # at target_s2 = 0 the volatility marginal is the standard normal; the
    # reference is the exact quantile of each float level (scipy's norm.ppf is
    # itself 6.7e-16 off at u = 0.90099)
    panel = PanelData(names=["a", "b"], values=np.zeros((5, 2)))
    config = PipelineConfig(model="empirical", target_s2=0.0, grid_m=m)
    exact = [_exact_ndtri(u) for u in QuantileGrid(m).points.tolist()]
    for q in _target_quantiles(config, panel):
        errors = [abs(Decimal(v) - e) for v, e in zip(q.tolist(), exact)]
        assert max(errors) <= Decimal("1e-15"), float(max(errors))


# Runs in a fresh interpreter: depgof, a tiny fig2 and a tiny empirical verb
# chain with a standard normal target must leave every scipy module unloaded.
_STARTUP_SCRIPT = """
import json, os, sys
import numpy as np

def heavy():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

import depgof
from depgof.cli import main
from depgof.runner import PipelineConfig, reproduce

out = sys.argv[1]
loaded = {"import depgof": heavy()}
reproduce("fig2", PipelineConfig(n=300, replications=6, grid_m=15, n_trials=2000, seed=1,
                                 outdir=os.path.join(out, "fig2")))
loaded["reproduce fig2"] = heavy()
rows = np.random.default_rng(3).standard_normal((300, 3))
with open(os.path.join(out, "in.csv"), "w") as fh:
    fh.write("x,y,z\\n" + "".join(",".join(map(repr, r)) + "\\n" for r in rows.tolist()))
cfg = os.path.join(out, "emp.cfg")
with open(cfg, "w") as fh:
    fh.write(f"model=empirical\\ninput={out}/in.csv\\ntarget_s2=0\\ngrid_m=15\\n"
             f"t_max=4\\nn_trials=2000\\noutdir={out}/emp\\n")
for verb in (["estimate"], ["kernel"], ["law", "--seed", "5"], ["test"]):
    assert main([verb[0], "-c", cfg] + verb[1:]) == 0
loaded["estimate, kernel, law, test"] = heavy()
with open(os.path.join(out, "loaded.json"), "w") as fh:
    json.dump(loaded, fh)
"""


def _depgof_env():
    """The environment of a fresh interpreter that imports this checkout's depgof."""
    import depgof
    src = os.path.dirname(os.path.dirname(os.path.abspath(depgof.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_reproduce_never_loads_numpy_ma(tmp_path):
    # np.quantile loads numpy.ma, at about 15 ms; reduction_ratio reads its rule directly
    env = _depgof_env()
    script = ("import sys\nfrom depgof.runner import PipelineConfig, reproduce\n"
              "reproduce('fig2', PipelineConfig(n=300, replications=4, grid_m=15, "
              "n_trials=2000, seed=1, outdir=sys.argv[1]))\n"
              "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", script, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "reduction_ratios.csv").exists()
    assert proc.stdout.split() == ["False"]


def test_depgof_never_loads_scipy(tmp_path):
    env = _depgof_env()
    proc = subprocess.run([sys.executable, "-c", _STARTUP_SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads((tmp_path / "loaded.json").read_text(encoding="utf-8"))
    assert list(loaded) == ["import depgof", "reproduce fig2", "estimate, kernel, law, test"]
    assert loaded == {point: [] for point in loaded}
