"""Small shared helpers."""

from __future__ import annotations

import ctypes
import glob
import json
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import scipy
from scipy.linalg.lapack import dpotrf

from .errors import ParameterError


@lru_cache(maxsize=None)
def _pool(threads: int) -> ThreadPoolExecutor:
    """One pool per thread count, kept for the life of the process.

    Fresh threads per call can start while the last call's threads are
    still exiting, so glibc gives them new malloc arenas, and every arena
    keeps the block temporaries freed in it: over 20 pipeline operations at
    threads=2 on a 2-core machine, peak RSS rose by 15 MB that way.  Reused
    threads keep reusing their arenas.
    """
    return ThreadPoolExecutor(max_workers=threads,
                              thread_name_prefix="lvpat-worker")


def parallel_map(fn, items, threads: int = 1) -> list:
    """Order-preserving map; results are identical for any thread count.

    Each item is computed independently and written to its own slot, so the
    only effect of threads > 1 is wall time.  The workers are shared by
    every call with the same thread count, so fn must not call parallel_map.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    return list(_pool(threads).map(fn, items))


# (get, set) symbol pairs, in order of preference: the scipy-openblas wheels
# prefix their exports, and the 64-bit-integer builds add a "64_" suffix
_OPENBLAS_THREAD_SYMBOLS = tuple(
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
    for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


@lru_cache(maxsize=None)
def _openblas() -> tuple:
    """(get, set) thread-count functions of the OpenBLAS builds that numpy
    and scipy ship in their `numpy.libs` / `scipy.libs` folders.

    Empty for any other BLAS (MKL, Accelerate, a system library).  Opening
    an already loaded library returns the loaded instance, so the functions
    act on the BLAS that numpy and scipy call.
    """
    found = []
    for pkg in (np, scipy):
        pattern = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                               f"{pkg.__name__}.libs", "*openblas*")
        for path in sorted(glob.glob(pattern)):
            lib = ctypes.CDLL(path)
            names = next((pair for pair in _OPENBLAS_THREAD_SYMBOLS
                          if all(hasattr(lib, name) for name in pair)), None)
            if names is None:
                continue
            get, set_ = (getattr(lib, name) for name in names)
            get.restype, get.argtypes = ctypes.c_int, []
            set_.restype, set_.argtypes = None, [ctypes.c_int]
            found.append((get, set_))
    return tuple(found)


@contextmanager
def serial_blas():
    """Run the block with numpy's and scipy's OpenBLAS on one thread.

    After each threaded call OpenBLAS's idle workers keep spinning for a
    while, taking cores from `parallel_map`'s workers: on 2 cores the
    benchmark's pipeline operation (`BENCH_serial_blas.json`) took a median
    0.75 s that way against 0.63 s on one BLAS thread.  One thread also
    fixes the order of BLAS sums, so outputs do not depend on
    OPENBLAS_NUM_THREADS.  The previous counts come back on exit, also when
    the block raises.  The count is process-wide: BLAS calls that other
    threads make meanwhile run serial too.  Without OpenBLAS this does
    nothing.
    """
    libs = _openblas()
    saved = [get() for get, _ in libs]
    for _, set_ in libs:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), n in zip(libs, saved):
            set_(n)


def number(value, what: str, error: type = ParameterError,
           whole: bool = False, positive: bool = False):
    """A number read from outside the program: a float, or an int when
    `whole`.

    `error`, naming `what`, is raised for a bool or a non-number, for a
    fractional value when `whole`, for an int beyond the float range, and
    for a value that is not finite and above 0 when `positive`.  Other
    ranges are checked by the objects that the number builds.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{what} must be a number, got {value!r}")
    if whole and not (isinstance(value, int) or value.is_integer()):
        raise error(f"{what} must be a whole number, got {value!r}")
    try:
        float(value)
    except OverflowError:  # an int literal past 1.8e308; repr is too long
        raise error(f"{what} lies beyond the float range") from None
    value = int(value) if whole else float(value)
    if positive and not 0 < value < np.inf:
        bound = "at least 1" if whole else "finite and positive"
        raise error(f"{what} must be {bound}, got {value!r}")
    return value


def numbers(value, count: int | None, what: str,
            error: type = ParameterError, whole: bool = False,
            positive: bool = False) -> tuple:
    """A list of `count` numbers (any count when None), each read by
    `number`, as a tuple."""
    if not isinstance(value, (list, tuple)) or count not in (None, len(value)):
        raise error(f"{what} must be a list of {count or 'any number of'} "
                    f"numbers, got {value!r}")
    return tuple(number(v, what, error, whole, positive) for v in value)


def load_json(fh, what: str, error: type = ParameterError):
    """The JSON value in the open text file fh, or `error` naming `what`
    when it is not JSON or holds an integer literal longer than Python
    reads (4300 digits)."""
    try:
        return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError is one
        raise error(f"{what} is not readable JSON: {exc}") from None


def json_object(value, what: str, error: type = ParameterError,
                keys: tuple | None = None) -> dict:
    """value itself when it is a JSON object (a dict) with no key outside
    `keys` (any keys when None); else `error`."""
    if not isinstance(value, dict):
        raise error(f"{what} must be a JSON object, got {value!r}")
    unknown = sorted(set(value) - set(value if keys is None else keys))
    if unknown:
        raise error(f"{what} has unknown key {unknown[0]!r}; known: {keys}")
    return value


def cholesky_lower(a: np.ndarray) -> tuple:
    """Lower Cholesky factor of a symmetric matrix and LAPACK-style info.

    info > 0 names the 1-based index of the failing minor, either from dpotrf
    itself or, for a factor that dpotrf accepted, the smallest diagonal entry
    when min(diag)^2 <= n * eps * max(diag)^2 (numerically rank-deficient).
    """
    c, info = dpotrf(a, lower=1)
    if info == 0:
        d = np.diagonal(c)
        if d.min() ** 2 <= len(a) * np.finfo(float).eps * d.max() ** 2:
            info = int(np.argmin(d)) + 1
    return np.tril(c), int(info)
