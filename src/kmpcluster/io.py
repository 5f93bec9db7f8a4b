"""Reading and writing clusterings and run artifacts.

The clustering format is TSV: `node_id<TAB>cluster_id<TAB>role` with
role `core` or `noncore`. The role column may be omitted on input, in
which case every member is core. Cluster ids on output are dense
integers assigned by ascending smallest-member internal id, which keeps
diffs stable across runs.

A clustering file of integer ids, against a network loaded on its
integer path, is read with whole-array numpy; every other file, and
every file with an error in it, is read row by row, and only that
reader words a `ClusteringFileError`. The writers format and write
their rows a batch at a time (`graph.label_batches`), not one row at
a time and not the whole file at once.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .clustering import Cluster, Clustering, split_by
from .errors import ClusteringFileError
from .graph import Network, _integer_pairs, label_batches

_MAX_LISTED = 10


def write_clustering(net: Network, clustering: Clustering, path) -> None:
    with open(path, "w") as f:
        for ci, c in enumerate(clustering.clusters):
            for part, role in ((c.core, "core"), (c.noncore, "noncore")):
                tail = f"\t{ci}\t{role}\n"
                for labels in label_batches(net, part):
                    f.write("".join([f"{e}{tail}" for e in labels]))


def load_clustering(net: Network, path) -> Clustering:
    """Read a clustering TSV against a loaded network.

    Unknown node ids and conflicting duplicate assignments are errors;
    exact duplicate rows are tolerated. Rows may omit the role column.

    A file of two-column rows of canonical decimal integers, against a
    network with integer ids, is read with whole-array numpy: the
    tokens through the edge list's `_integer_pairs`, the node ids by
    binary search, repeated rows from one sort. Anything else, and any
    such file with an unknown id or a conflicting repeat, is read row
    by row, which words every error. Either way the rows are cut into
    clusters and roles in one grouped pass at the end.
    """
    path = Path(path)
    rows = _integer_rows(net, path.read_bytes()) if net.integer_ids else None
    if rows is None:
        rows = _read_rows(net, path)
    return _group_rows(net, *rows)


def _integer_rows(net: Network, data: bytes):
    """`(ids, keys, noncore)` of an all-integer file, or None to hand off.

    For a network with `integer_ids`. On every file it accepts,
    `_read_rows` would read the same rows without error: each line is
    blank, a `#` comment, or two canonical decimal integers; no tab is
    next to another tab or a space, since `_read_rows` splits a line
    with a tab at every tab; every node is in `net`; and a node that
    repeats names the same cluster each time.
    """
    if any(gap in data for gap in (b"\t\t", b"\t ", b" \t")):
        return None
    pairs = _integer_pairs(data)
    if pairs is None or not len(pairs[0]):
        return None
    ids = net.integer_internal_ids(pairs[0])
    if (ids < 0).any():
        return None
    # by node, then cluster: a node's repeats are adjacent, and any
    # conflict among them shows between two neighbours
    order = np.lexsort((pairs[1], ids))
    ids, keys = ids[order], pairs[1][order]
    again = ids[1:] == ids[:-1]
    if (keys[1:][again] != keys[:-1][again]).any():
        return None
    first = np.concatenate([[True], ~again])
    return ids[first], keys[first], np.zeros(int(first.sum()), dtype=bool)


def _read_rows(net: Network, path: Path):
    """`(ids, keys, noncore)` of a clustering file, read row by row."""
    seen: dict[str, tuple[str, str]] = {}
    unknown: list[str] = []
    ids: list[int] = []
    keys: list[str] = []
    noncore: list[bool] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        if len(parts) == 2:
            node, cid = parts
            role = "core"
        elif len(parts) == 3:
            node, cid, role = parts
            if role not in ("core", "noncore"):
                raise ClusteringFileError(
                    f"{path}: line {lineno}: role must be core or noncore, got {role!r}"
                )
        else:
            raise ClusteringFileError(
                f"{path}: line {lineno}: expected 2 or 3 fields, got {len(parts)}"
            )
        if node in seen:
            if seen[node] != (cid, role):
                raise ClusteringFileError(
                    f"{path}: line {lineno}: node {node} assigned twice with "
                    f"different cluster or role"
                )
            continue
        seen[node] = (cid, role)
        v = net.internal_id(node)
        if v is None:
            unknown.append(node)
            continue
        ids.append(v)
        keys.append(cid)
        noncore.append(role == "noncore")
    if unknown:
        shown = ", ".join(unknown[:_MAX_LISTED])
        more = "" if len(unknown) <= _MAX_LISTED else f" (+{len(unknown) - _MAX_LISTED} more)"
        raise ClusteringFileError(
            f"{path}: {len(unknown)} node ids not in the network: {shown}{more}"
        )
    if not ids:
        raise ClusteringFileError(f"{path}: no cluster assignments found")
    return np.array(ids, dtype=np.int64), keys, np.array(noncore)


def _group_rows(net: Network, ids, keys, noncore) -> Clustering:
    """Cut rows into clusters (by key) and roles in one grouped pass."""
    names, cluster = np.unique(keys, return_inverse=True)
    # taken in id order, every part comes out sorted for Cluster
    order = np.argsort(ids)
    label = (2 * cluster + noncore)[order]
    part = split_by(label, ids[order], 2 * len(names))
    clusters = [Cluster(core=c, noncore=nc) for c, nc in zip(part[::2], part[1::2])]
    clustering = Clustering(clusters, net.n)
    clustering.check_disjoint()
    return clustering


def write_node_list(net: Network, nodes, path) -> None:
    """One external id per line, in internal id order."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    with open(path, "w") as f:
        for labels in label_batches(net, nodes):
            f.write("".join([f"{e}\n" for e in labels]))


def write_json(payload: dict, path) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_matrix_tsv(labels: list[str], matrix: np.ndarray, path) -> None:
    """Square matrix with a header row and row labels."""
    with open(path, "w") as f:
        f.write("id\t" + "\t".join(labels) + "\n")
        for label, row in zip(labels, matrix):
            f.write(label + "\t" + "\t".join(str(x) for x in row.tolist()) + "\n")


def write_coords_tsv(labels: list[str], coords: np.ndarray, path) -> None:
    with open(path, "w") as f:
        f.write("id\tx\ty\n")
        for label, row in zip(labels, coords):
            f.write(f"{label}\t{float(row[0])!r}\t{float(row[1])!r}\n")
