"""Attach unclustered nodes to existing clusters as non-core members.

A node qualifies for a cluster when it has at least p neighbors in that
cluster's core. Among qualifying clusters it joins the one where its
core neighbor count is largest relative to the core size; ties go to
the cluster containing the smallest node id. Each node is judged
against the clusters as they were on entry, so the result does not
depend on the order candidates are considered in.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .clustering import Clustering, run_starts
from .errors import check_thresholds
from .graph import Network


def augment(net: Network, clustering: Clustering, p: int) -> Clustering:
    """Grow clusters by their p-reachable periphery.

    Candidates are the nodes sitting in no cluster of size 2 or more;
    members of singleton clusters count as candidates, and a singleton
    cluster that fails to attach anywhere simply dissolves back to an
    unclustered node. Cores are never modified.
    """
    check_thresholds(p=p)
    nodes, cluster, core = clustering.nodes, clustering.cluster, clustering.core
    owner = clustering.assignment(min_size=2)
    candidates = np.flatnonzero(owner < 0)
    target = owner[nodes] >= 0  # the rows of the clusters that take members
    owner[nodes[~core]] = -1
    choice = _kernels.best_cluster_per_node(
        net.indptr, net.indices, owner, nodes[run_starts(cluster)], candidates, p
    )
    joined = choice >= 0
    return Clustering.of(
        clustering.n_nodes,
        np.concatenate([nodes[target], candidates[joined]]),
        np.concatenate([cluster[target], choice[joined]]),
        np.concatenate([core[target], np.zeros(joined.sum(), np.bool_)]),
    )
