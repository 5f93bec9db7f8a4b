"""Reading and writing clusterings and run artifacts.

The clustering format is TSV: `node_id<TAB>cluster_id<TAB>role` with
role `core` or `noncore`. The role column may be omitted on input, in
which case every member is core. Cluster ids on output are dense
integers assigned by ascending smallest-member internal id, which keeps
diffs stable across runs.

A clustering file of integer ids, against a network loaded on its
integer path, is read a chunk at a time with whole-array numpy, through
the edge list's tokenizer; every other file, and every file with an
error in it, is read whole and row by row, and only that reader words a
`ClusteringFileError`. The writers format and write their rows a batch
at a time (`graph.label_batches`), not one row at a time and not the
whole file at once.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .clustering import Clustering, run_starts
from .errors import ClusteringFileError, unknown_ids
from .graph import Network, _read_ids, fields, label_batches, text_lines


def write_clustering(net: Network, clustering: Clustering, path) -> None:
    """One row per member: each cluster's core members, then its
    non-core members, each in ascending order."""
    # the rows of one cluster and role share a key, and so a row tail
    key = 2 * clustering.cluster + ~clustering.core
    order = np.argsort(key, kind="stable")
    key, nodes = key[order], clustering.nodes[order]
    del order
    roles = ("core", "noncore")
    tails = {k: f"\t{k >> 1}\t{roles[k & 1]}\n" for k in key[run_starts(key)].tolist()}
    with open(path, "w", encoding="utf-8") as f:
        for labels in label_batches(net, nodes):
            at, key = key[: len(labels)].tolist(), key[len(labels) :]
            f.write("".join([f"{e}{tails[k]}" for e, k in zip(labels, at)]))


def load_clustering(net: Network, path) -> Clustering:
    """Read a clustering TSV against a loaded network.

    Unknown node ids and conflicting duplicate assignments are errors;
    exact duplicate rows are tolerated. Rows may omit the role column.

    A file of two-column rows of canonical decimal integers, against a
    network with integer ids, is read with whole-array numpy: the ids
    through the edge list's `_read_ids`, a chunk at a time, the node ids
    by binary search, repeated rows from one sort. Anything else, and
    any such file with an unknown id or a conflicting repeat, is read
    whole and row by row, which words every error. Either way the rows
    become the clustering's columns at the end, the cluster keys
    numbered by `np.unique`.
    """
    path = Path(path)
    rows = _integer_rows(net, path) if net.integer_ids else None
    if rows is None:
        rows = _read_rows(net, path, text_lines(path.read_bytes(), path))
    ids, keys, noncore = rows
    cluster = np.unique(keys, return_inverse=True)[1]
    return Clustering.of(net.n, ids, cluster, ~noncore)


def _tab_gap(buf) -> bool:
    """Whether the bytes `buf` hold a tab beside other ASCII blank space
    (a tab, space, VT or FF): `_read_rows` would cut its line at each of
    those tabs."""
    tab = buf == 9
    blank = tab | (buf == 32) | (buf == 11) | (buf == 12)
    return bool((tab[:-1] & blank[1:] | blank[:-1] & tab[1:]).any())


def _integer_rows(net: Network, path: Path):
    """`(ids, keys, noncore)` of an all-integer file, or None to hand off.

    For a network with `integer_ids`. On every file it accepts,
    `_read_rows` would read the same rows without error: each line is
    blank, a `#` comment, or two canonical decimal integers; no tab is
    next to other blank space (`_tab_gap`); every node is in `net`; and
    a node that repeats names the same cluster each time.
    """
    pairs = _read_ids(path, integer=True, refuse=_tab_gap)
    if pairs is None:
        return None
    ids = net.integer_internal_ids(pairs[0::2])
    if (ids < 0).any():
        return None
    # by node, then cluster: a node's repeats are adjacent, and any
    # conflict among them shows between two neighbours
    order = np.lexsort((pairs[1::2], ids))
    ids, keys = ids[order], pairs[1::2][order]
    del pairs, order
    again = ids[1:] == ids[:-1]
    if (keys[1:][again] != keys[:-1][again]).any():
        return None
    first = np.concatenate([[True], ~again])
    return ids[first], keys[first], np.zeros(int(first.sum()), dtype=bool)


def _read_rows(net: Network, path: Path, lines):
    """`(ids, keys, noncore)` of the clustering file `path`, read row by
    row from its `text_lines`."""
    seen: dict[str, tuple[str, str]] = {}
    unknown: list[str] = []
    ids: list[int] = []
    keys: list[str] = []
    noncore: list[bool] = []
    for lineno, line in lines:
        parts = line.split("\t") if "\t" in line else fields(line)
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
        raise ClusteringFileError(unknown_ids(path, "node", unknown))
    if not ids:
        raise ClusteringFileError(f"{path}: no cluster assignments found")
    return np.array(ids, dtype=np.int64), keys, np.array(noncore)


def write_node_list(net: Network, nodes, path) -> None:
    """One external id per line, in internal id order."""
    nodes = np.sort(np.asarray(nodes, dtype=np.int64))
    with open(path, "w", encoding="utf-8") as f:
        for labels in label_batches(net, nodes):
            f.write("".join([f"{e}\n" for e in labels]))


def write_json(payload: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def write_matrix_tsv(labels: list[str], matrix: np.ndarray, path) -> None:
    """Square matrix with a header row and row labels."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("id\t" + "\t".join(labels) + "\n")
        for label, row in zip(labels, matrix):
            f.write(label + "\t" + "\t".join(str(x) for x in row.tolist()) + "\n")


def write_coords_tsv(labels: list[str], coords: np.ndarray, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("id\tx\ty\n")
        for label, row in zip(labels, coords):
            f.write(f"{label}\t{float(row[0])!r}\t{float(row[1])!r}\n")
