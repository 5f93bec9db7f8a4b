"""Core decomposition and the iterative top-core clustering loop.

The core label (coreness) of a node is the largest k such that the node
survives repeated deletion of all nodes with fewer than k remaining
neighbors. Labels here are always computed within an induced subgraph.

The iterative loop peels the network once and then maintains the labels
as it carves top cores off. Deleting nodes can only lower the remaining
labels, and only near the deleted nodes, so each round lowers the
labels that lost support with the h-index operator, which converges to
the core numbers from any upper bound (Lü et al. 2016, Nat. Commun.
7:10168; Montresor et al. 2013, IEEE TPDS 24(2)).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .clustering import Clustering, union_ids
from .errors import check_thresholds
from .graph import Network
from .parsing import modular_components

log = logging.getLogger(__name__)


@dataclass
class CoreLabeling:
    """Core labels for the members of one induced subgraph."""

    nodes: np.ndarray
    labels: np.ndarray

    @property
    def max_label(self) -> int:
        return int(self.labels.max()) if len(self.labels) else 0

    def at_least(self, k: int) -> np.ndarray:
        """Members with label >= k, sorted."""
        return self.nodes[self.labels >= k]


def core_labels(net: Network, within=None) -> CoreLabeling:
    """Core label of every node of the induced subgraph (whole network
    when `within` is None)."""
    s = net.all_nodes() if within is None else net.subset(within)
    labels = _kernels.peel(net.indptr, net.indices, s)
    return CoreLabeling(s, labels)


def degeneracy(net: Network) -> int:
    """Largest k for which the network has a nonempty k-core."""
    return core_labels(net).max_label


def kcore_clusters(net: Network, k: int) -> Clustering:
    """Connected components of the k-core, one all-core cluster each.

    No quality screening happens here; use `ikc` or the parsing helpers
    for that. k=0 would put every node in one bag per component, which
    callers never actually want, so it is bumped to 1 with a warning.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        log.warning("k=0 requested; using k=1 instead")
        k = 1
    # only the k-core is read, so the peel stops at k
    labels = _kernels.peel(net.indptr, net.indices, net.all_nodes(), k=k)
    members = np.flatnonzero(labels >= k)
    lptr, lind = _kernels.extract_local_csr(net.indptr, net.indices, members)
    return Clustering.of(net.n, members, _kernels.component_labels(lptr, lind))


def ikc(net: Network, k: int) -> Clustering:
    """Iteratively carve off top cores until the residual thins below k.

    Each round takes the connected components of the residual graph's
    highest-label core, keeps those with positive modularity (measured
    against the full network), and deletes every top-core node from the
    residual regardless of whether its component was kept.
    Deleted-but-rejected nodes simply end up unclustered.

    The network is peeled once. After that each node's core number in
    the residual graph (`lab`, 0 once deleted) and its support (`sup`,
    the count of neighbours u with lab[u] >= lab[v]) are kept up to
    date: a deletion costs each neighbour one support, and
    `_kernels.settle` lowers the labels of the nodes left with fewer
    supports than their label until none is. The labels it settles on
    are exactly the core numbers a fresh peel of the residual would
    give, so the clusters are the same, for work near the deleted nodes
    rather than a peel of the whole residual every round.
    """
    check_thresholds(k)
    indptr, indices = net.indptr, net.indices
    lab = core_labels(net).labels
    sup = _kernels._count_arcs(
        indptr, indices, net.all_nodes(), lambda u, at, rows: lab[u] >= lab[at][rows]
    )
    mark = np.zeros(net.n, np.bool_)
    # the kept components' rows, their ids running on from round to round
    nodes, cluster = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    offset = 0
    while (top := int(lab.max(initial=0))) >= k:
        members = np.flatnonzero(lab == top)
        comp, positive = modular_components(net, members)
        ok = positive[comp]
        nodes.append(members[ok])
        cluster.append(comp[ok] + offset)
        offset += len(positive)
        # every live neighbour had a label of at most top: each loses
        # one support per arc into the deleted core, a batch of arcs at a
        # time; supports only fall, so a node that violates after its
        # last batch violates at the end
        lab[members] = 0
        violators = []
        for _, _, nbr, _ in _kernels._row_batches(indptr, indices, members):
            nbr, cnt = np.unique(nbr[lab[nbr] > 0], return_counts=True)
            sup[nbr] -= cnt
            violators.append(nbr[sup[nbr] < lab[nbr]])
        _kernels.settle(indptr, indices, lab, sup, union_ids(violators), mark)
    # each list is freed once joined
    nodes = np.concatenate(nodes)
    cluster = np.concatenate(cluster)
    return Clustering.of(net.n, nodes, cluster)
