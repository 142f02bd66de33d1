"""The one worker pool of depgof, and the pin of numpy's OpenBLAS to one thread.

numpy's OpenBLAS starts threads of its own for each matrix product and
factorization.  Inside ``one_blas_thread()`` it runs on one thread: every
public ``runner`` stage and every ``map_ordered`` pool run there.  So a
pool of T workers runs T compute threads, not T times OpenBLAS's count;
OpenBLAS's helpers are not woken to spin beside the workers after an
``eigh``; and a product whose bits would depend on the thread count comes
out as on a one-thread host.  The count the outermost pin found is restored
when the last one ends, on an exception too.  The library is looked up on the
first pin, not at import; where numpy has no OpenBLAS of its own (an MKL
or Accelerate build), nothing is pinned.
"""

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np

_lock = threading.Lock()
_depth = 0       # pins held in the process, nested or concurrent
_entry = None    # OpenBLAS's thread count when the outermost of them began
_SYMBOLS = (("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
            ("openblas_get_num_threads", "openblas_set_num_threads"))


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def _pin(blas):
    global _depth, _entry
    with _lock:
        if _depth == 0:
            _entry = blas[0]()
            blas[1](1)
        _depth += 1


def _unpin(blas):
    global _depth
    with _lock:
        _depth -= 1
        if _depth == 0:
            blas[1](_entry)


@contextmanager
def one_blas_thread():
    """Hold numpy's OpenBLAS at one thread until the last pin held in the
    process ends; usable as a decorator too."""
    blas = _openblas()
    if blas:
        _pin(blas)
    try:
        yield
    finally:
        if blas:
            _unpin(blas)


def map_ordered(threads, fn, items):
    """[fn(item) for item in items] on `threads` worker threads, in the items'
    order, inside ``one_blas_thread()``."""
    with one_blas_thread(), ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))
