"""Summary numbers for clusterings.

Nothing here feeds back into the algorithms; these are the figures a
run prints at the end or writes into stats.json.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .clustering import Clustering
from .graph import Network, subset_degrees


def node_coverage(clustering: Clustering) -> float:
    """Percent of nodes in a non-singleton cluster."""
    if clustering.n_nodes == 0:
        return 0.0
    covered = int(clustering.member_mask(min_size=2).sum())
    return 100.0 * covered / clustering.n_nodes


@dataclass
class SizeStats:
    n_clusters: int
    min_size: int
    max_size: int
    median_low: float
    median_mean: float
    mean_size: float
    singleton_nodes: int

    def to_dict(self) -> dict:
        return asdict(self)


def size_stats(clustering: Clustering) -> SizeStats:
    """Distribution of non-singleton cluster sizes.

    Two medians are reported for even counts: `median_low` takes the
    lower middle element, `median_mean` averages the two middles. They
    agree for odd counts. `singleton_nodes` counts nodes outside every
    non-singleton cluster.
    """
    sizes = clustering.sizes()
    sizes = np.sort(sizes[sizes >= 2])
    n = len(sizes)
    covered = int(sizes.sum())
    if n == 0:
        return SizeStats(0, 0, 0, 0.0, 0.0, 0.0, clustering.n_nodes)
    mid = (n - 1) // 2
    median_low = float(sizes[mid])
    median_mean = (
        float(sizes[mid]) if n % 2 else (float(sizes[mid]) + float(sizes[mid + 1])) / 2
    )
    return SizeStats(
        n_clusters=n,
        min_size=int(sizes[0]),
        max_size=int(sizes[-1]),
        median_low=median_low,
        median_mean=median_mean,
        mean_size=float(sizes.mean()),
        singleton_nodes=clustering.n_nodes - covered,
    )


def mcd(net: Network, cluster) -> int:
    """Minimum within-core degree of a cluster's core.

    Measured on the subgraph induced by the core alone; non-core
    members do not contribute.
    """
    core = cluster.core if hasattr(cluster, "core") else net.subset(cluster)
    if not len(core):
        raise ValueError("cluster has an empty core")
    return int(subset_degrees(net, core).min())
