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
from .clustering import Cluster, Clustering, split_by, union_ids
from .errors import ConfigError
from .graph import Network


def augment(net: Network, clustering: Clustering, p: int) -> Clustering:
    """Grow clusters by their p-reachable periphery.

    Candidates are the nodes sitting in no cluster of size 2 or more;
    members of singleton clusters count as candidates, and a singleton
    cluster that fails to attach anywhere simply dissolves back to an
    unclustered node. Cores are never modified.
    """
    if p < 1:
        raise ConfigError(f"p must be at least 1, got {p}")
    targets = clustering.non_singletons()
    candidates = np.flatnonzero(clustering.member_mask(min_size=2) == 0).astype(
        np.int64
    )
    if not targets or not len(candidates):
        return Clustering(list(targets), clustering.n_nodes)
    owner = np.full(net.n, -1, dtype=np.int64)
    min_id = np.empty(len(targets), dtype=np.int64)
    for i, c in enumerate(targets):
        owner[c.core] = i
        min_id[i] = c.min_id
    choice = _kernels.best_cluster_per_node(
        net.indptr, net.indices, owner, min_id, candidates, p
    )
    out = []
    for c, joined in zip(targets, split_by(choice, candidates, len(targets))):
        if len(joined):
            out.append(
                Cluster(core=c.core, noncore=union_ids([c.noncore, joined]))
            )
        else:
            out.append(Cluster(core=c.core, noncore=c.noncore))
    return Clustering(out, clustering.n_nodes)
