"""The CSV writer's text kernel: ``_write_csv`` writes the bytes of
np.savetxt's %.17g, and ``_read_rows`` reads them back bitwise."""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from depgof import runner
from depgof._csvtext import format_block
from depgof.runner import _read_rows, _write_csv

_HEADER = "# depgof kernel m=3 lag=0"
# the ends of the kernel's range and their neighbours, every power of ten in
# it, ties of the 17-digit rounding, subnormals and the largest double
_EDGES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
     np.finfo(float).max, -np.finfo(float).max]
    + [v for e in (1e-4, 1e16) for v in (e, np.nextafter(e, 0.0), np.nextafter(e, np.inf))]
    + [10.0 ** p for p in range(-4, 16)]
    + [np.nextafter(10.0 ** p, s) for p in range(-4, 17) for s in (0.0, np.inf)]
    + list(np.arange(1, 400) * 2.0 ** -17) + list(np.arange(2 ** 53 - 40, 2 ** 53 + 40, 3.0)))
_EDGES = np.concatenate([_EDGES, -_EDGES])
_FINITE = (st.floats(allow_nan=False, allow_infinity=False)
           | st.floats(1e-4, 1e16) | st.sampled_from(_EDGES.tolist()))


def _savetxt_bytes(values):
    text = io.StringIO()
    text.write(_HEADER + "\n")
    np.savetxt(text, values, fmt="%.17g", delimiter=",")
    return text.getvalue().encode()


def _written(tmp_path_factory, values):
    path = tmp_path_factory.getbasetemp() / "written.csv"
    _write_csv(str(path), _HEADER, values)
    return path


# up to 30 columns: with the small blocks the test patches in, most arrays
# span several blocks and some rows alone exceed one
_ARRAYS = hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 30)),
                     elements=_FINITE)


@settings(max_examples=150, deadline=None)
@given(values=_ARRAYS, block=st.sampled_from([1, 7, 16, 8192]))
# rows that begin and end with values spliced in by %, across blocks of 7
@example(values=np.array([[1e-5, 0.25, -np.inf], [np.nan, -0.0, 1e-5], [-np.inf, -3.5, np.nan],
                          [-0.0, 1e-5, -0.0]]), block=7)
def test_written_bytes_are_savetxt(tmp_path_factory, values, block):
    with mock.patch.object(runner, "_WRITE_BLOCK", block):
        path = _written(tmp_path_factory, values)
    assert path.read_bytes() == _savetxt_bytes(values)


@settings(max_examples=150, deadline=None)
@given(values=_ARRAYS)
def test_read_rows_returns_what_was_written(tmp_path_factory, values):
    path = _written(tmp_path_factory, values)
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        read = _read_rows(str(path), fh, range(values.shape[1]))
    assert read.tobytes() == values.tobytes()


@settings(max_examples=10, deadline=None)
@given(pool=st.lists(_FINITE, min_size=1, max_size=200), seed=st.integers(0, 2 ** 32 - 1),
       cols=st.sampled_from([1, 3, 350]))
def test_rows_crossing_write_blocks(tmp_path_factory, pool, seed, cols):
    rows = 2 * runner._WRITE_BLOCK // cols + 5   # three blocks, the last one short
    values = np.random.default_rng(seed).choice(np.array(pool), size=(rows, cols))
    path = _written(tmp_path_factory, values)
    assert path.read_bytes() == _savetxt_bytes(values)
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        assert _read_rows(str(path), fh, range(cols)).tobytes() == values.tobytes()


@pytest.mark.parametrize("cols", [1, 3, 64])
def test_edge_values_and_non_finite_ones(tmp_path, cols):
    values = np.concatenate([_EDGES, [np.nan, np.inf, -np.inf, -np.nan]])
    values = np.resize(values, (-(-values.size // cols), cols))
    path = tmp_path / "edges.csv"
    _write_csv(str(path), _HEADER, values)
    assert path.read_bytes() == _savetxt_bytes(values)


def test_format_block_is_percent_17g_across_the_doubles():
    rng = np.random.default_rng(2024)
    n = 40_000
    values = np.concatenate([
        rng.standard_normal(n) * 10.0 ** rng.integers(-7, 19, n),     # either side of the range
        10.0 ** rng.uniform(-4, 16, n),                               # full mantissas inside it
        rng.integers(1, 2 ** 20, n) * 2.0 ** rng.integers(-40, 40, n),   # few bits: ties
        rng.integers(0, 2 ** 63, n, dtype=np.int64).view(np.float64),   # any bit pattern
        np.nextafter(10.0 ** rng.integers(-4, 17, n), 0.0),          # just below a power of ten
    ])
    seps = rng.choice(np.frombuffer(b",\n", dtype=np.uint8), values.size)
    expected = b"".join(b"%.17g" % v + bytes([s])
                        for v, s in zip(values.tolist(), seps.tolist()))
    assert format_block(values, seps) == expected
