import sys
import threading
import time

import pytest

from depgof import (Ar1LogVolParams, FgnLogVolParams, PipelineConfig, QuantileGrid,
                    build_kernel_ar1, eigendecompose, gen_fgn_logvol)
from depgof import _pool
from depgof._pool import map_ordered, one_blas_thread
from depgof.limit_law import simulate_statistic_distribution
from depgof.runner import generate_panel

_SPECTRUM = eigendecompose(build_kernel_ar1(Ar1LogVolParams(0.88, 0.05), QuantileGrid(100)))


def test_map_ordered_returns_results_in_item_order():
    # later items finish first
    def late(i):
        time.sleep(0.002 * (8 - i))
        return i * i

    assert map_ordered(4, late, range(8)) == [i * i for i in range(8)]
    assert map_ordered(3, late, []) == []


def test_map_pins_openblas_to_one_thread_and_restores_it(blas):
    assert map_ordered(2, lambda _: blas(), range(4)) == [1] * 4
    assert blas() == 2

    def fail(i):
        if i == 2:
            raise ValueError("unit 2")
        return blas()

    with pytest.raises(ValueError, match="unit 2"):
        map_ordered(2, fail, range(5))
    assert blas() == 2

    inner = map_ordered(2, lambda _: map_ordered(2, lambda _: blas(), range(3)) + [blas()],
                        range(3))
    assert inner == [[1] * 4] * 3
    assert blas() == 2 and _pool._depth == 0

    # the pin alone, nested in itself and around a map, as a decorator, and on a raise
    with one_blas_thread():
        with one_blas_thread():
            assert map_ordered(2, lambda _: blas(), range(3)) + [blas()] == [1] * 4
        assert blas() == 1
    assert one_blas_thread()(blas)() == 1
    with pytest.raises(ValueError, match="inside the pin"):
        with one_blas_thread():
            raise ValueError("inside the pin")
    assert blas() == 2 and _pool._depth == 0


def test_concurrent_nested_maps_restore_the_count_once(blas):
    # more workers than cores, each running maps of its own, with the
    # interpreter switching threads as often as it can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    seen = []
    pinned = one_blas_thread()(lambda _: [blas() for _ in range(6)])
    try:
        workers = [threading.Thread(target=lambda: seen.append(map_ordered(
            3, lambda _: map_ordered(3, lambda _: blas(), range(6)), range(6))))
            for _ in range(4)]
        workers += [threading.Thread(target=lambda: seen.append(map_ordered(
            3, pinned, range(6)))) for _ in range(2)]
        for t in workers:
            t.start()
        seen.append(map_ordered(5, lambda _: map_ordered(2, lambda _: blas(), range(6)),
                                range(6)))
        for t in workers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in workers)
    finally:
        sys.setswitchinterval(interval)
    assert seen == [[[1] * 6] * 6] * 7
    assert blas() == 2 and _pool._depth == 0


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_law_samples_do_not_depend_on_the_pin(monkeypatch, threads):
    # 40000 trials are three chunks; each block's 1024 x 100 by 100 x 100 product is
    # large enough for OpenBLAS to split across its threads when not pinned
    pinned = simulate_statistic_distribution(_SPECTRUM, 40_000, seed=3, n_threads=threads)
    found = _pool._openblas()
    if found is not None:
        before = found[0]()
        found[1](2)
    monkeypatch.setattr(_pool, "_openblas", lambda: None)
    try:
        assert map_ordered(2, str, range(3)) == ["0", "1", "2"]
        free = simulate_statistic_distribution(_SPECTRUM, 40_000, seed=3, n_threads=threads)
    finally:
        if found is not None:
            found[1](before)
    for a, b in zip(pinned, free):
        assert a.samples.tobytes() == b.samples.tobytes()


def test_fgn_bits_do_not_depend_on_openblas_threads(blas):
    # the FFT draw calls no BLAS: two OpenBLAS threads must give one thread's bits
    params = FgnLogVolParams(0.4, 1.0)
    config = PipelineConfig(model="fgn", n=1500, replications=2, seed=11, threads=2)

    def draw():
        x, omega = gen_fgn_logvol(params, 1500, 11, return_logvol=True)
        return x.tobytes(), omega.tobytes(), generate_panel(config).values.tobytes()

    at_two = draw()
    assert blas() == 2
    _pool._openblas()[1](1)
    assert draw() == at_two
