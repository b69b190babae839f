"""OpenBLAS's thread count, read and set through the BLAS that numpy links.

Both calls are looked up once, through numpy's own extension module. With
any other BLAS (MKL, Accelerate, an OpenBLAS older than 0.3.27) they are
None and the BLAS is left as found. In OpenBLAS's pthreads build, the one
numpy's wheels ship, `openblas_set_num_threads_local` sets the count of the
whole process, not only of the calling thread.
"""

from __future__ import annotations

import ctypes

import numpy as np


def _openblas_thread_calls():
    """OpenBLAS's thread-count getter and local setter, looked up through
    numpy's own extension module; (None, None) for any other BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        setter = lib.openblas_set_num_threads_local
    except (AttributeError, OSError):
        return None, None
    for name in ("openblas_get_num_threads",
                 "scipy_openblas_get_num_threads64_",   # numpy's wheels
                 "scipy_openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            break
    else:
        return None, None
    getter.argtypes, getter.restype = [], ctypes.c_int
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return getter, setter


_get_threads, _set_threads = _openblas_thread_calls()


def get_threads() -> int | None:
    """OpenBLAS's current thread count; None without the OpenBLAS calls."""
    return None if _get_threads is None else _get_threads()


def set_threads(n: int | None) -> int | None:
    """Set OpenBLAS's thread count to `n` and return the count it had.
    Does nothing, and returns None, when `n` is None or the OpenBLAS calls
    are absent, so `set_threads(set_threads(1))` always puts back what it
    found."""
    if n is None or _get_threads is None:
        return None
    return _set_threads(n)
