"""Clusters with a core/non-core split, and collections of them.

Core members are the nodes a cluster is structurally built on; non-core
members are attached to a core without having to satisfy the core degree
requirement. Both parts are kept as sorted unique int64 arrays and must
never overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


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


def disjoint_concat(parts) -> tuple[np.ndarray, np.ndarray]:
    """The node arrays `parts` concatenated, and each node's part index.

    Raises ValueError when a node appears in two parts.
    """
    nodes = np.concatenate([_EMPTY, *parts])
    part = np.repeat(np.arange(len(parts)), [len(a) for a in parts])
    s = np.sort(nodes)
    bad = as_ids(s[1:][s[1:] == s[:-1]])
    if len(bad):
        raise ValueError(
            f"{len(bad)} nodes appear in more than one cluster "
            f"(first few: {bad[:5].tolist()})"
        )
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
        lo = None
        if len(self.core):
            lo = int(self.core[0])
        if len(self.noncore) and (lo is None or self.noncore[0] < lo):
            lo = int(self.noncore[0])
        if lo is None:
            raise ValueError("empty cluster has no smallest member")
        return lo

    def same_nodes(self, other: "Cluster") -> bool:
        return (
            np.array_equal(self.core, other.core)
            and np.array_equal(self.noncore, other.noncore)
        )


def all_core(nodes) -> Cluster:
    return Cluster(core=as_ids(nodes))


@dataclass(eq=False)
class Clustering:
    """A set of disjoint clusters over a network of `n_nodes` nodes.

    Clusters are held in canonical order: ascending by smallest member
    id. Nodes absent from every cluster are unclustered; they are not
    represented explicitly.
    """

    clusters: list[Cluster]
    n_nodes: int

    def __post_init__(self):
        self.clusters = sorted(
            (c for c in self.clusters if c.size > 0), key=lambda c: c.min_id
        )

    def __len__(self) -> int:
        return len(self.clusters)

    def __iter__(self):
        return iter(self.clusters)

    def non_singletons(self) -> list[Cluster]:
        return [c for c in self.clusters if c.size >= 2]

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
        for i, c in enumerate(self.clusters):
            if c.size >= min_size:
                out[c.core] = i
                out[c.noncore] = i
        return out

    def check_disjoint(self) -> None:
        """Raise if any node appears in two clusters."""
        disjoint_concat([a for c in self.clusters for a in (c.core, c.noncore)])

    def same_clusters(self, other: "Clustering") -> bool:
        return (
            self.n_nodes == other.n_nodes
            and len(self.clusters) == len(other.clusters)
            and all(a.same_nodes(b) for a, b in zip(self.clusters, other.clusters))
        )
