"""Small shared helpers."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dpotrf


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
