"""Clusters with a core/non-core split, and collections of them.

Core members are the nodes a cluster is structurally built on; non-core
members are attached to a core without having to satisfy the core degree
requirement. Both parts are kept as sorted unique int64 arrays and must
never overlap.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)

try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
    _MALLOC_TRIM.argtypes, _MALLOC_TRIM.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # no glibc: nothing to trim
    _MALLOC_TRIM = None


def trim_heap() -> None:
    """Hand freed heap pages back: glibc keeps a freed block resident while
    a live block sits above it, wherever a step's temporaries landed."""
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def as_ids(nodes) -> np.ndarray:
    """`nodes` as a sorted int64 array without repeats.

    Input that is already strictly increasing comes back as a read-only
    view of itself, so the result may share memory with the input and
    is never written to. Other input is sorted and its repeats dropped.
    Plain `np.unique` (and `np.union1d` and `np.intersect1d`, which call
    it) would do the same, but in NumPy 2.4 its first call imports
    `numpy.ma`, 12 to 17 ms of a run; every set operation goes through
    here instead.
    """
    a = np.asarray(nodes, dtype=np.int64).ravel()
    if (a[1:] > a[:-1]).all():
        a = a.view()
        a.flags.writeable = False
        return a
    a = np.sort(a)
    return a[run_starts(a)]


def run_starts(s) -> np.ndarray:
    """Mask of the entries of the sorted array `s` unlike the one before."""
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return first


def concat(parts) -> tuple[np.ndarray, np.ndarray]:
    """The node arrays `parts` concatenated, and each node's part index."""
    nodes = np.concatenate([_EMPTY, *parts])
    return nodes, np.repeat(np.arange(len(parts)), [len(a) for a in parts])


def disjoint_concat(parts) -> tuple[np.ndarray, np.ndarray]:
    """`concat(parts)`; raises ValueError when a node appears in two parts."""
    nodes, part = concat(parts)
    Clustering.of(0, nodes, part)  # which raises for a node in two parts
    return nodes, part


def split_by(label, values, count: int) -> list[np.ndarray]:
    """`[values[label == i] for i in range(count)]`, from one stable sort.

    Entries labelled -1 belong to no part. Each part keeps the order its
    entries had in `values`.
    """
    order = np.argsort(label, kind="stable")
    bounds = np.searchsorted(label[order], np.arange(count + 1)).tolist()
    values = values[order]
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def union_ids(parts) -> np.ndarray:
    """Sorted unique ids found in any of the arrays in `parts`."""
    return as_ids(np.concatenate(parts)) if len(parts) else _EMPTY


@dataclass(eq=False)
class Cluster:
    core: np.ndarray
    noncore: np.ndarray = field(default_factory=lambda: _EMPTY)

    def __post_init__(self):
        self.core = as_ids(self.core)
        self.noncore = as_ids(self.noncore)
        if (
            len(self.core)
            and len(self.noncore)
            and len(np.intersect1d(self.core, self.noncore, assume_unique=True))
        ):
            raise ValueError("core and non-core overlap")

    @property
    def nodes(self) -> np.ndarray:
        """All members, sorted."""
        if not len(self.noncore):
            return self.core
        return union_ids([self.core, self.noncore])

    @property
    def size(self) -> int:
        return len(self.core) + len(self.noncore)

    @property
    def min_id(self) -> int:
        """Smallest member id; sorts clusters into canonical order."""
        if not self.size:
            raise ValueError("empty cluster has no smallest member")
        return int(self.nodes[0])


def all_core(nodes) -> Cluster:
    return Cluster(core=as_ids(nodes))


class Clustering:
    """A set of disjoint clusters over a network of `n_nodes` nodes.

    It is held as three aligned columns, one row per member: `nodes`
    (int64), `cluster` (int64) and `core` (bool). The rows are in
    canonical order: the clusters are numbered 0, 1, ... by smallest
    member, core or non-core, and each one's members follow in
    ascending order. Nodes in no cluster are not represented.
    `Clustering.of` and `Clustering(clusters, n_nodes)` both raise
    ValueError for a node in two clusters, `Clustering.of` also for a
    row repeated within a cluster (a `Cluster` drops such a repeat), and
    both drop empty clusters.
    """

    def __init__(self, clusters, n_nodes: int):
        nodes, part = concat([a for c in clusters for a in (c.core, c.noncore)])
        self._hold(n_nodes, nodes, part // 2, part % 2 == 0)

    @classmethod
    def of(cls, n_nodes: int, nodes, cluster, core=None) -> "Clustering":
        """Rows (nodes[i], cluster[i], core[i]) in any order and with any
        integer ids; with `core` None every member is core."""
        self = cls.__new__(cls)
        self._hold(n_nodes, nodes, cluster, core)
        return self

    def _hold(self, n_nodes, nodes, cluster, core) -> None:
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        core = np.ones(len(nodes), np.bool_) if core is None else np.asarray(core)
        by_node = np.argsort(nodes, kind="stable")
        nodes = nodes[by_node]
        cluster = np.asarray(cluster, dtype=np.int64).ravel()[by_node]
        if (again := nodes[1:] == nodes[:-1]).any():
            # a node's rows stand together; two of them with two ids put
            # it in two clusters, else it repeats within one
            two = again & (cluster[1:] != cluster[:-1])
            if two.any():
                fault, bad = "appear in more than one cluster", as_ids(nodes[1:][two])
            else:
                fault, bad = "repeat within one cluster", as_ids(nodes[1:][again])
            msg = f"{len(bad)} nodes {fault} (first few: {bad[:5].tolist()})"
            raise ValueError(msg)
        del again
        # in node order, an id's first row holds its cluster's smallest
        # member; the ids are renumbered by where that row stands
        by_id = np.argsort(cluster, kind="stable")
        head = run_starts(cluster[by_id])
        rank = np.argsort(np.argsort(by_id[head], kind="stable"), kind="stable")
        cluster[by_id] = rank[np.cumsum(head) - 1]
        order = np.argsort(cluster, kind="stable")
        self.nodes, self.cluster = nodes[order], cluster[order]
        self.core = core.astype(np.bool_).ravel()[by_node[order]]
        self.n_nodes = n_nodes
        del nodes, cluster, by_node, by_id, order  # several times the columns
        trim_heap()

    @property
    def clusters(self) -> list[Cluster]:
        """The clusters as `Cluster` objects, in canonical order."""
        part = split_by(2 * self.cluster + ~self.core, self.nodes, 2 * len(self))
        return [Cluster(c, x) for c, x in zip(part[::2], part[1::2])]

    def __len__(self) -> int:
        return int(self.cluster[-1]) + 1 if len(self.cluster) else 0

    def __iter__(self):
        return iter(self.clusters)

    def sizes(self) -> np.ndarray:
        """Member count per cluster."""
        return np.bincount(self.cluster, minlength=len(self))

    def member_mask(self, min_size: int = 1) -> np.ndarray:
        """uint8 mask of nodes covered by clusters of at least `min_size`."""
        return (self.assignment(min_size) >= 0).astype(np.uint8)

    def unclustered(self) -> np.ndarray:
        """Nodes in no cluster at all, sorted."""
        return np.flatnonzero(self.member_mask() == 0).astype(np.int64)

    def unplaced(self, dropped) -> tuple[np.ndarray, np.ndarray]:
        """Account for the nodes in no cluster: (discarded, singletons).

        `dropped` holds arrays of nodes some stage explicitly dropped.
        Those that no cluster holds are discarded; every other node
        outside the clusters is a singleton. Both come back sorted.
        """
        member = self.member_mask()
        dropped = union_ids(dropped)
        discarded = dropped[member[dropped] == 0]
        member[discarded] = 1
        return discarded, np.flatnonzero(member == 0).astype(np.int64)

    def assignment(self, min_size: int = 1) -> np.ndarray:
        """Cluster index per node (-1 if unassigned or below `min_size`)."""
        out = np.full(self.n_nodes, -1, dtype=np.int64)
        keep = self.sizes()[self.cluster] >= min_size
        out[self.nodes[keep]] = self.cluster[keep]
        return out

    def same_clusters(self, other: "Clustering") -> bool:
        cols = ("nodes", "cluster", "core")
        same = (np.array_equal(getattr(self, c), getattr(other, c)) for c in cols)
        return self.n_nodes == other.n_nodes and all(same)
