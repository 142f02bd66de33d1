"""The one worker pool of depgof: an ordered map on `threads` threads.

numpy's OpenBLAS starts threads of its own for each matrix product, so a
pool of T workers whose units multiply matrices would run T times
OpenBLAS's count of compute threads.  ``map_ordered`` holds OpenBLAS at one
thread while its pool runs, so a stage run on T workers runs T compute
threads.  A matrix product splits its output, not its sums, across
OpenBLAS's threads, so the pin changes no bit of a result.  The library is
looked up on the first map, not at import; where numpy has no OpenBLAS of
its own (an MKL or Accelerate build), the map runs unpinned.
"""

import ctypes
import functools
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_lock = threading.Lock()
_depth = 0       # maps running in the process, nested or concurrent
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


def map_ordered(threads, fn, items):
    """[fn(item) for item in items] on `threads` worker threads, in the items'
    order, with OpenBLAS at one thread until the last map running ends."""
    blas = _openblas()
    if blas:
        _pin(blas)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    finally:
        if blas:
            _unpin(blas)
