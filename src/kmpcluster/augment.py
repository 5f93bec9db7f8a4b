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
from .clustering import Cluster, Clustering, disjoint_concat, split_by, union_ids
from .errors import check_thresholds
from .graph import Network


def augment(net: Network, clustering: Clustering, p: int) -> Clustering:
    """Grow clusters by their p-reachable periphery.

    Candidates are the nodes sitting in no cluster of size 2 or more;
    members of singleton clusters count as candidates, and a singleton
    cluster that fails to attach anywhere simply dissolves back to an
    unclustered node. Cores are never modified. The clusters must be
    disjoint; a node in two raises ValueError.
    """
    check_thresholds(p=p)
    targets = clustering.non_singletons()
    # the targets' cores, their non-cores, then the singletons, so that
    # a node in the core of target i is in part i
    rest = [c.noncore for c in targets] + [c.nodes for c in clustering if c.size < 2]
    nodes, part = disjoint_concat([c.core for c in targets] + rest)
    owner = np.full(net.n, -1, dtype=np.int64)
    owner[nodes] = part
    candidates = np.flatnonzero((owner < 0) | (owner >= 2 * len(targets)))
    if not targets or not len(candidates):
        return Clustering(list(targets), clustering.n_nodes)
    owner[owner >= len(targets)] = -1
    min_id = np.fromiter((c.min_id for c in targets), np.int64, len(targets))
    choice = _kernels.best_cluster_per_node(
        net.indptr, net.indices, owner, min_id, candidates, p
    )
    joined = split_by(choice, candidates, len(targets))
    out = [
        Cluster(core=c.core, noncore=union_ids([c.noncore, j]))
        for c, j in zip(targets, joined)
    ]
    return Clustering(out, clustering.n_nodes)
