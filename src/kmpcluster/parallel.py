"""The one map over per-cluster work.

Stage 2's per-cluster finish (the cut of each spectral ordering, the
exact enumeration of small clusters and the local-search refinement)
runs through `ordered_map`, so that it has one name the benchmark can
time. The power iterations and sweeps before it run once for all
clusters and are not mapped.
"""

from __future__ import annotations


def ordered_map(func, items) -> list:
    """Apply func to each item in order."""
    return [func(it) for it in items]
