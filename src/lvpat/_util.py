"""Small shared helpers."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg.lapack import dpotrf


def parallel_map(fn, items, threads: int = 1) -> list:
    """Order-preserving map; results are identical for any thread count.

    Each item is computed independently and written to its own slot, so the
    only effect of threads > 1 is wall time.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


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
