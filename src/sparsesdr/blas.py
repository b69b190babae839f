"""OpenBLAS's thread count, read through the BLAS that numpy links.

The getter is looked up once, through numpy's own extension module. With
any other BLAS (MKL, Accelerate) it is None and no count is reported.
"""

from __future__ import annotations

import ctypes

import numpy as np


def _openblas_get_threads():
    """OpenBLAS's thread-count getter, looked up through numpy's own
    extension module; None for any other BLAS."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (AttributeError, OSError):
        return None
    for name in ("openblas_get_num_threads",
                 "scipy_openblas_get_num_threads64_",   # numpy's wheels
                 "scipy_openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


_get_threads = _openblas_get_threads()


def get_threads() -> int | None:
    """OpenBLAS's current thread count; None without the OpenBLAS call."""
    return None if _get_threads is None else _get_threads()
