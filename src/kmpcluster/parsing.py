"""Cluster quality: modularity, validity checks, and core/periphery parsing.

A cluster is worth keeping when its core holds together on its own
terms: every core node has at least k core neighbors (k-valid), the
core is connected with positive single-cluster modularity (m-valid),
and every attached non-core node touches the core at least p times
(p-valid). `kmp_parse` rebuilds an arbitrary clustering so that every
output cluster satisfies all three, for any p < k.

The clusters of a clustering are disjoint, so the subgraphs they induce
form one block-diagonal graph. `validate`, `kmp_parse`, `extract_cores`
and the bisection rounds therefore handle every cluster in one grouped
pass: the kernels take each node's cluster as its group and ignore the
arcs between groups, which gives every cluster exactly the core
numbers, components and modularity terms of its own subgraph.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import _kernels
from .clustering import Clustering, trim_heap
from .errors import check_thresholds
from .graph import Network, induced_edge_count

# -- modularity --------------------------------------------------------


def modularity_terms(net: Network, nodes) -> tuple[int, int]:
    """(internal edge count, total degree) of a node subset."""
    s = net.subset(nodes)
    ls = induced_edge_count(net, s)
    ds = int(net.degrees[s].sum())
    return ls, ds


def modularity(net: Network, nodes) -> float:
    """Single-cluster modularity: l_s / L - (d_s / 2L)^2.

    l_s counts edges inside the subset, d_s sums full-network degrees of
    its members, and L is the total edge count of the network.
    """
    if net.m == 0:
        raise ValueError("modularity needs a network with at least one edge")
    ls, ds = modularity_terms(net, nodes)
    big_l = net.m
    return ls / big_l - (ds / (2 * big_l)) ** 2


def _positive(m: int, ls, ds):
    """Exact test for modularity > 0 from its terms, which may be arrays.

    mod > 0 is equivalent to 4 * L * l_s > d_s^2, so the decision never
    depends on float rounding. As l_s <= L and d_s <= 2L, both sides are
    at most 4 * L^2; int64 holds that below L = 1.5e9, and beyond it the
    products are taken over Python ints.
    """
    if 4 * m * m >= 2**63:
        ls = np.asarray(ls, dtype=object)
        ds = np.asarray(ds, dtype=object)
    return np.asarray(4 * m * ls > ds * ds, dtype=np.bool_)


def has_positive_modularity(net: Network, nodes) -> bool:
    """Exact integer test for modularity(nodes) > 0."""
    ls, ds = modularity_terms(net, nodes)
    return bool(_positive(int(net.m), ls, ds))


def modular_components(net: Network, nodes):
    """Connected components of the subgraph `nodes` induces, screened.

    `nodes` holds distinct ids. Returns (comp, positive): each node's
    component id, the ids ordered by first position in `nodes`, and for
    each component whether its modularity in the whole network is
    positive.
    """
    lptr, lind = _kernels.extract_local_csr(net.indptr, net.indices, nodes)
    return _screened_components(net, lptr, lind, nodes)


def _screened_components(net: Network, lptr, lind, nodes):
    """`modular_components` of the local CSR (lptr, lind), whose local id
    i is the network node nodes[i]."""
    comp = _kernels.component_labels(lptr, lind)
    count = int(comp.max(initial=-1)) + 1
    return comp, _positive_groups(net, np.diff(lptr), nodes, comp, count)


def _positive_groups(net: Network, deg, nodes, group, count: int):
    """Whether each of `count` groups has positive modularity, given the
    degree deg[i] of each network node nodes[i] inside its group
    group[i]."""
    ls = np.zeros(count, np.int64)
    np.add.at(ls, group, deg)
    ds = np.zeros(count, np.int64)
    np.add.at(ds, group, net.degrees[nodes])
    return _positive(int(net.m), ls // 2, ds)


# -- validity ----------------------------------------------------------


@dataclass
class ClusterValidity:
    size: int
    core_size: int
    k_valid: bool
    m_valid: bool
    p_valid: bool

    @property
    def kmp_valid(self) -> bool:
        return self.k_valid and self.m_valid and self.p_valid

    def to_dict(self) -> dict:
        return {**asdict(self), "kmp_valid": self.kmp_valid}


@dataclass
class ValidityReport:
    k: int
    p: int
    n_nodes: int
    clusters: list[ClusterValidity]

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def n_kmp_valid(self) -> int:
        return sum(1 for c in self.clusters if c.kmp_valid)

    def all_kmp_valid(self) -> bool:
        return all(c.kmp_valid for c in self.clusters)

    @property
    def covered_nodes(self) -> int:
        """Members of kmp-valid clusters (clusters are disjoint)."""
        return sum(c.size for c in self.clusters if c.kmp_valid)

    @property
    def coverage(self) -> float:
        """Percent of all nodes sitting in a kmp-valid cluster."""
        if self.n_nodes == 0:
            return 0.0
        return 100.0 * self.covered_nodes / self.n_nodes

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "p": self.p,
            "n_nodes": self.n_nodes,
            "n_clusters": self.n_clusters,
            "n_kmp_valid": self.n_kmp_valid,
            "all_kmp_valid": self.all_kmp_valid(),
            "coverage_percent": self.coverage,
            "clusters": [c.to_dict() for c in self.clusters],
        }


def validate(net: Network, clustering: Clustering, k: int, p: int) -> ValidityReport:
    """Check every cluster for k-, m-, and p-validity.

    A cluster with an empty core is vacuously k-valid but can never be
    m-valid; a cluster with no non-core members is vacuously p-valid.
    k and p must be at least 1, but p may be k or more.

    One grouped pass serves all clusters, reading each member's arcs in
    the network once. The cores' subgraph, with each core's cluster as
    its group, gives each core member its count of core neighbours in
    its own cluster (which must reach k), and each core's components
    and their modularity terms. A count over the non-core members'
    arcs, a batch at a time, gives each of them the same count (which
    must reach p). The heap is trimmed once those arrays are freed.
    """
    check_thresholds(k, p)
    nodes, cluster, is_core = clustering.nodes, clustering.cluster, clustering.core
    core = np.flatnonzero(is_core)
    rim = np.flatnonzero(~is_core)
    cptr, cind = _kernels.extract_local_csr(
        net.indptr, net.indices, nodes[core], cluster[core]
    )
    hits = np.empty(len(nodes), np.int64)
    hits[core] = np.diff(cptr)
    owner = np.full(net.n, -1, np.int64)
    owner[nodes[core]] = cluster[core]
    rim_cluster = cluster[rim]
    hits[rim] = _kernels._count_arcs(
        net.indptr,
        net.indices,
        nodes[rim],
        lambda u, at, rows: owner[u] == rim_cluster[at][rows],
    )
    del owner

    def per_cluster(mask):
        return np.bincount(cluster[mask], minlength=len(clustering))

    core_size = per_cluster(is_core)
    k_valid = per_cluster(is_core & (hits < k)) == 0
    p_valid = (per_cluster(~is_core & (hits < p)) == 0) & (
        (core_size > 0) | (per_cluster(~is_core) == 0)
    )
    comp, positive = _screened_components(net, cptr, cind, nodes[core])
    comp_cluster = np.zeros(len(positive), np.int64)
    comp_cluster[comp] = cluster[is_core]
    # a core's flag is read only when the core is one component
    core_positive = np.zeros(len(clustering), np.bool_)
    core_positive[comp_cluster] = positive
    m_valid = (np.bincount(comp_cluster, minlength=len(core_size)) == 1) & core_positive
    columns = (clustering.sizes(), core_size, k_valid, m_valid, p_valid)
    out = [ClusterValidity(*row) for row in zip(*(c.tolist() for c in columns))]
    del core, rim, cptr, cind, hits, rim_cluster, comp, comp_cluster, columns
    trim_heap()
    return ValidityReport(k=k, p=p, n_nodes=net.n, clusters=out)


# -- parsing -----------------------------------------------------------


class Subgraph(NamedTuple):
    """A CSR whose local id i stands for the network node ids[i]. With
    ids None it is the network itself, and local ids are network ids."""

    indptr: np.ndarray
    indices: np.ndarray
    ids: np.ndarray | None = None

    def nodes(self, local) -> np.ndarray:
        """The network ids of the local ids `local`."""
        return local if self.ids is None else self.ids[local]


class _CoreSplit(NamedTuple):
    nodes: np.ndarray  # the parts' nodes, as given, in network ids
    local: np.ndarray  # `nodes` as local ids of the graph split
    part: np.ndarray  # part index of each node
    owner: np.ndarray  # derived-core index of each node, -1 for none
    binned: np.ndarray  # whether each node is labelled below k
    count: int  # the number of derived cores
    dropped: np.ndarray  # sorted members of the components failing the screen


def _core_split(
    net: Network, local, part, k: int, graph: Subgraph | None = None
) -> _CoreSplit:
    """Steps shared by kmp_parse, extract_cores and iterative_split.

    The distinct nodes `local` fall into parts, node i into part
    part[i]; each part is a run of ascending nodes, and the runs come in
    ascending part order. For each part: core-label its induced
    subgraph, keep the members labeled >= k, and split them into
    connected components. Components with positive modularity are
    derived cores; the rest are dropped. Members labeled below k land in
    the holding bin. One grouped peel, one grouped component pass and
    one vectorised screen do this for every part at once. The parts
    share each peel wave, so the count of waves follows the slowest
    part rather than the sum over parts.

    The parts hold local ids of `graph`, a subgraph holding every part
    (by default the network). The peel reads it as it is; the grouped
    subgraph of the members not binned is gathered from it for the
    component pass only, and freed once the components are labelled.
    The split comes back in network ids, with the local ids beside.

    Derived cores come in part order, and within a part in order of
    smallest member.
    """
    if graph is None:
        graph = Subgraph(net.indptr, net.indices)
    labels = _kernels.peel(graph.indptr, graph.indices, local, part, k)
    keep = np.flatnonzero(labels >= k)
    lptr, lind = _kernels.extract_local_csr(
        graph.indptr, graph.indices, local[keep], part[keep]
    )
    nodes = graph.nodes(local)
    comp, positive = _screened_components(net, lptr, lind, nodes[keep])
    del lptr, lind  # the kept members' subgraph, read no further
    core_id = np.cumsum(positive) - 1
    owner = np.full(len(nodes), -1, np.int64)
    owner[keep] = np.where(positive[comp], core_id[comp], -1)
    return _CoreSplit(
        nodes=nodes,
        local=local,
        part=part,
        owner=owner,
        binned=labels < k,
        count=int(positive.sum()),
        dropped=np.sort(nodes[keep[~positive[comp]]]),
    )


def kmp_parse(
    net: Network, clustering: Clustering, k: int, p: int
) -> tuple[Clustering, np.ndarray]:
    """Rebuild a clustering so every output cluster is kmp-valid.

    Requires 1 <= p < k. Per input cluster: members whose core label
    within the cluster falls below k move to a holding bin; the
    remaining members split into connected components, of which only
    those with positive modularity survive as derived cores; bin members
    with at least p neighbors in some derived core of the same input
    cluster re-attach as non-core, each to the core maximizing the
    neighbor count over core size (ties to the core with the smallest
    member id). Unattached bin members become unclustered.

    All input clusters go through one `_core_split`, and the bin members
    pick their cores in one pass over their arcs in the network, with
    each node's input cluster as its group, so that a bin member sees
    only its own cluster's cores.

    Returns the new clustering plus the nodes of dropped components.
    Dropped nodes never re-attach; they are reported so callers can
    account for every input node.
    """
    check_thresholds(k, p, p_below_k=True)
    split = _core_split(net, clustering.nodes, clustering.cluster, k)
    core = split.owner >= 0
    # only the members of input clusters with a derived core can attach
    has_core = np.bincount(split.part[core], minlength=len(clustering))
    at = np.flatnonzero(split.binned & (has_core[split.part] > 0))
    owner = np.full(net.n, -1, np.int64)
    owner[split.nodes] = split.owner
    # in node order within its part, a core's first member is its smallest
    first = np.unique(split.owner, return_index=True)[1]
    min_id = split.nodes[first[len(first) - split.count :]]
    group = clustering.assignment()
    cluster = split.owner.copy()
    cluster[at] = _kernels.best_cluster_per_node(
        net.indptr, net.indices, owner, min_id, split.nodes[at], p, group
    )
    kept = cluster >= 0
    out = Clustering.of(net.n, split.nodes[kept], cluster[kept], core[kept])
    return out, split.dropped


def extract_cores(
    net: Network, clustering: Clustering, k: int
) -> tuple[Clustering, np.ndarray]:
    """Keep only the self-supporting cores of each cluster.

    Same as kmp_parse minus the re-attachment step: output clusters are
    all-core. Members below the core threshold become unclustered;
    components failing the modularity screen are dropped and reported.
    """
    check_thresholds(k)
    split = _core_split(net, clustering.nodes, clustering.cluster, k)
    core = split.owner >= 0
    out = Clustering.of(net.n, split.nodes[core], split.owner[core])
    return out, split.dropped


def strict_filter(
    net: Network, clustering: Clustering, k: int, p: int
) -> tuple[Clustering, ValidityReport]:
    """Drop every cluster that is not already kmp-valid.

    No repair is attempted; this is the screening mode for clusterings
    produced by other tools. The report covers the input clustering, so
    callers can see what failed and why.
    """
    report = validate(net, clustering, k, p)
    valid = np.array([cv.kmp_valid for cv in report.clusters], np.bool_)
    kept = valid[clustering.cluster]
    columns = (clustering.nodes, clustering.cluster, clustering.core)
    return Clustering.of(net.n, *(c[kept] for c in columns)), report
