"""Worker-count plumbing.

Thread count comes from the KMP_THREADS environment variable (default
1). Results always come back in submission order, so outputs do not
depend on how many workers ran. The one map is stage 2's per-cluster
finish: the cut of each spectral ordering, the exact enumeration of
small clusters and the local-search refinement. The power iterations
and sweeps before it run once for all clusters and are not mapped.
Threads only pay off when numba compiles the loop kernels, which then
release the GIL; interpreted loops hold it, so without numba every map
runs serially.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from . import _kernels


def worker_count() -> int:
    raw = os.environ.get("KMP_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def ordered_map(func, items) -> list:
    """Apply func to each item, preserving order of results."""
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1 or not _kernels.NUMBA:
        return [func(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, items))
