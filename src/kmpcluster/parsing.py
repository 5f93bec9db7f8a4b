"""Cluster quality: modularity, validity checks, and core/periphery parsing.

A cluster is worth keeping when its core holds together on its own
terms: every core node has at least k core neighbors (k-valid), the
core is connected with positive single-cluster modularity (m-valid),
and every attached non-core node touches the core at least p times
(p-valid). `kmp_parse` rebuilds an arbitrary clustering so that every
output cluster satisfies all three, for any p < k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .clustering import Cluster, Clustering, all_core, union_ids
from .errors import ConfigError
from .graph import Network, connected_components, induced_edge_count, subset_degrees

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


def has_positive_modularity(net: Network, nodes) -> bool:
    """Exact integer test for modularity(nodes) > 0.

    mod > 0 is equivalent to 4 * L * l_s > d_s^2, so the decision never
    depends on float rounding.
    """
    if net.m == 0:
        return False
    ls, ds = modularity_terms(net, nodes)
    return 4 * int(net.m) * int(ls) > int(ds) * int(ds)


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
        return {
            "size": self.size,
            "core_size": self.core_size,
            "k_valid": self.k_valid,
            "m_valid": self.m_valid,
            "p_valid": self.p_valid,
            "kmp_valid": self.kmp_valid,
        }


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
    """
    out = []
    for c in clustering.clusters:
        if len(c.core):
            deg_in_core = subset_degrees(net, c.core)
            k_valid = bool(deg_in_core.min() >= k)
            m_valid = len(
                connected_components(net, c.core)
            ) == 1 and has_positive_modularity(net, c.core)
        else:
            k_valid = True
            m_valid = False
        if len(c.noncore):
            hits = _kernels.count_neighbors_in(
                net.indptr, net.indices, net.mask(c.core), c.noncore
            )
            p_valid = bool(len(c.core) > 0 and hits.min() >= p)
        else:
            p_valid = True
        out.append(
            ClusterValidity(
                size=c.size,
                core_size=len(c.core),
                k_valid=k_valid,
                m_valid=m_valid,
                p_valid=p_valid,
            )
        )
    return ValidityReport(k=k, p=p, n_nodes=net.n, clusters=out)


# -- parsing -----------------------------------------------------------


def _core_split(net: Network, nodes: np.ndarray, k: int):
    """Steps shared by kmp_parse and extract_cores.

    Core-label the induced subgraph, keep the members labeled >= k,
    and split them into connected components. Components with positive
    modularity are derived cores; the rest are dropped. Members labeled
    below k land in the holding bin.

    Returns (derived, dropped, bin_nodes).
    """
    labels = _kernels.peel(net.indptr, net.indices, nodes, net.n)
    keep = nodes[labels >= k]
    bin_nodes = nodes[labels < k]
    derived = []
    dropped = []
    for comp in connected_components(net, keep):
        if has_positive_modularity(net, comp):
            derived.append(comp)
        else:
            dropped.append(comp)
    return derived, dropped, bin_nodes


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

    Returns the new clustering plus the nodes of dropped components.
    Dropped nodes never re-attach; they are reported so callers can
    account for every input node.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    if not 1 <= p < k:
        raise ConfigError(f"need 1 <= p < k, got p={p} with k={k}")
    owner = np.full(net.n, -1, dtype=np.int64)
    out: list[Cluster] = []
    dropped_all: list[np.ndarray] = []
    for c in clustering.clusters:
        nodes = c.nodes
        if not len(nodes):
            continue
        derived, dropped, bin_nodes = _core_split(net, nodes, k)
        dropped_all.extend(dropped)
        if not derived:
            continue
        core_size = np.fromiter((len(d) for d in derived), np.int64, len(derived))
        min_id = np.fromiter((d[0] for d in derived), np.int64, len(derived))
        for i, d in enumerate(derived):
            owner[d] = i
        choice = _kernels.best_cluster_per_node(
            net.indptr, net.indices, owner, core_size, min_id, bin_nodes, p
        )
        for i, d in enumerate(derived):
            out.append(Cluster(core=d, noncore=bin_nodes[choice == i]))
            owner[d] = -1
    return Clustering(out, net.n), union_ids(dropped_all)


def extract_cores(
    net: Network, clustering: Clustering, k: int
) -> tuple[Clustering, np.ndarray]:
    """Keep only the self-supporting cores of each cluster.

    Same as kmp_parse minus the re-attachment step: output clusters are
    all-core. Members below the core threshold become unclustered;
    components failing the modularity screen are dropped and reported.
    """
    if k < 1:
        raise ConfigError(f"k must be at least 1, got {k}")
    out: list[Cluster] = []
    dropped_all: list[np.ndarray] = []
    for c in clustering.clusters:
        nodes = c.nodes
        if not len(nodes):
            continue
        derived, dropped, _ = _core_split(net, nodes, k)
        dropped_all.extend(dropped)
        out.extend(all_core(d) for d in derived)
    return Clustering(out, net.n), union_ids(dropped_all)


def strict_filter(
    net: Network, clustering: Clustering, k: int, p: int
) -> tuple[Clustering, ValidityReport]:
    """Drop every cluster that is not already kmp-valid.

    No repair is attempted; this is the screening mode for clusterings
    produced by other tools. The report covers the input clustering, so
    callers can see what failed and why.
    """
    report = validate(net, clustering, k, p)
    kept = [
        c for c, cv in zip(clustering.clusters, report.clusters) if cv.kmp_valid
    ]
    return Clustering(kept, net.n), report
