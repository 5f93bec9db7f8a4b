"""Reading and writing clusterings and run artifacts.

The clustering format is TSV: `node_id<TAB>cluster_id<TAB>role` with
role `core` or `noncore`. The role column may be omitted on input, in
which case every member is core. Cluster ids on output are dense
integers assigned by ascending smallest-member internal id, which keeps
diffs stable across runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .clustering import Cluster, Clustering, split_by
from .errors import ClusteringFileError
from .graph import Network

_MAX_LISTED = 10


def write_clustering(net: Network, clustering: Clustering, path) -> None:
    with open(path, "w") as f:
        for ci, c in enumerate(clustering.clusters):
            for v in c.core:
                f.write(f"{net.external_id(int(v))}\t{ci}\tcore\n")
            for v in c.noncore:
                f.write(f"{net.external_id(int(v))}\t{ci}\tnoncore\n")


def load_clustering(net: Network, path) -> Clustering:
    """Read a clustering TSV against a loaded network.

    Unknown node ids and conflicting duplicate assignments are errors;
    exact duplicate rows are tolerated. Rows may omit the role column.
    The rows' internal ids are cut into clusters and roles in one
    grouped pass at the end.
    """
    path = Path(path)
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
    names, cluster = np.unique(keys, return_inverse=True)
    # taken in id order, every part comes out sorted for Cluster
    order = np.argsort(ids)
    label = (2 * cluster + np.array(noncore))[order]
    part = split_by(label, np.array(ids, np.int64)[order], 2 * len(names))
    clusters = [Cluster(core=c, noncore=nc) for c, nc in zip(part[::2], part[1::2])]
    clustering = Clustering(clusters, net.n)
    clustering.check_disjoint()
    return clustering


def write_node_list(net: Network, nodes, path) -> None:
    """One external id per line, in internal id order."""
    with open(path, "w") as f:
        for v in np.sort(np.asarray(nodes, dtype=np.int64)):
            f.write(f"{net.external_id(int(v))}\n")


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
