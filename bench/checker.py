"""Output checks that do not use kmpcluster.

Everything here is recomputed with numpy and scipy from the arrays the
benchmark generated and the files the CLI wrote. Each check returns a
list of problems; an empty list means the artifacts passed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components


@dataclass
class Graph:
    """The generated input as a simple undirected graph.

    Node i of `adj` is the i-th distinct external id in sorted order.
    Self-loops and repeated pairs are gone, as they must be for
    `n_nodes` and `n_edges`. `keys` holds every id as written in a file,
    sorted, and `key_node` the node each key names.
    """

    keys: np.ndarray
    key_node: np.ndarray
    adj: sparse.csr_matrix
    degree: np.ndarray
    m: int

    @property
    def n(self) -> int:
        return len(self.keys)

    def index(self, tokens) -> np.ndarray:
        """Node index of each id token; -1 for tokens that name no node."""
        tokens = np.asarray(tokens, dtype=str)
        if not len(tokens):
            return np.empty(0, dtype=np.int64)
        pos = np.minimum(np.searchsorted(self.keys, tokens), self.n - 1)
        return np.where(self.keys[pos] == tokens, self.key_node[pos], -1)


def build_graph(u, v) -> Graph:
    u = np.asarray(u)
    v = np.asarray(v)
    ids, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    n = len(ids)
    a, b = inv[: len(u)], inv[len(u) :]
    keep = a != b
    lo = np.minimum(a[keep], b[keep]).astype(np.int64)
    hi = np.maximum(a[keep], b[keep]).astype(np.int64)
    pairs = np.unique(lo * n + hi)
    lo, hi = pairs // n, pairs % n
    adj = sparse.csr_matrix(
        (
            np.ones(2 * len(lo), dtype=np.int32),
            (np.concatenate([lo, hi]), np.concatenate([hi, lo])),
        ),
        shape=(n, n),
    )
    keys = ids.astype(str)
    order = np.argsort(keys, kind="stable")
    return Graph(
        keys=keys[order],
        key_node=order.astype(np.int64),
        adj=adj,
        degree=np.diff(adj.indptr).astype(np.int64),
        m=len(lo),
    )


# -- reading artifacts ---------------------------------------------------


@dataclass
class Clusters:
    """clustering.tsv resolved against the graph, one row per line."""

    node: np.ndarray  # node index, -1 when the id is unknown
    cluster: np.ndarray  # cluster id as written
    core: np.ndarray  # bool

    @property
    def n_clusters(self) -> int:
        return int(self.cluster.max()) + 1 if len(self.cluster) else 0


def _read_columns(path: Path, ncols: int) -> list[list[str]]:
    rows = [line.split("\t") for line in path.read_text().splitlines() if line]
    bad = [r for r in rows if len(r) != ncols]
    if bad:
        raise ValueError(f"{path.name}: {len(bad)} lines without {ncols} fields")
    return [list(col) for col in zip(*rows)] if rows else [[] for _ in range(ncols)]


def read_clustering(graph: Graph, path: Path) -> Clusters:
    ext, cid, role = _read_columns(path, 3)
    return Clusters(
        node=graph.index(ext),
        cluster=np.array(cid, dtype=np.int64),
        core=np.array(role) == "core",
    )


def read_node_list(graph: Graph, path: Path) -> np.ndarray:
    return graph.index([line for line in path.read_text().splitlines() if line])


# -- kmp-validity ----------------------------------------------------------


def kmp_table(graph: Graph, cl: Clusters, k: int, p: int) -> dict[str, np.ndarray]:
    """Per-cluster size, core size and k-, m- and p-validity.

    k: every core member has at least k neighbours in its cluster's core.
    m: the core is nonempty, connected, and 4 L l_s > d_s^2 in exact
    integers (l_s internal core edges, d_s summed network degrees of
    the core, L network edges). p: every non-core member has at least p
    neighbours in its cluster's core, and the core is nonempty.
    Rows with unknown ids must be rejected before calling this.
    """
    nc = cl.n_clusters
    owner = np.full(graph.n, -1, dtype=np.int64)
    owner[cl.node] = cl.cluster
    is_core = np.zeros(graph.n, dtype=bool)
    is_core[cl.node[cl.core]] = True

    rows = np.repeat(np.arange(graph.n), graph.degree)
    cols = graph.adj.indices
    to_own_core = (owner[rows] >= 0) & (owner[rows] == owner[cols]) & is_core[cols]
    core_nbrs = np.bincount(rows[to_own_core], minlength=graph.n)

    member = cl.node
    size = np.bincount(cl.cluster, minlength=nc)
    core_size = np.bincount(cl.cluster[cl.core], minlength=nc)
    k_bad = np.bincount(
        cl.cluster[cl.core & (core_nbrs[member] < k)], minlength=nc
    )
    p_bad = np.bincount(
        cl.cluster[~cl.core & (core_nbrs[member] < p)], minlength=nc
    )

    core_edge = to_own_core & is_core[rows]
    inner = sparse.csr_matrix(
        (np.ones(int(core_edge.sum()), dtype=np.int8), (rows[core_edge], cols[core_edge])),
        shape=(graph.n, graph.n),
    )
    _, comp = connected_components(inner, directed=False)
    core_nodes = member[cl.core]
    pieces = np.unique(np.stack([cl.cluster[cl.core], comp[core_nodes]]), axis=1)
    n_pieces = np.bincount(pieces[0], minlength=nc) if pieces.size else np.zeros(nc, np.int64)

    l_s = np.bincount(owner[rows[core_edge]], minlength=nc) // 2
    d_s = np.zeros(nc, dtype=np.int64)
    np.add.at(d_s, cl.cluster[cl.core], graph.degree[core_nodes])
    big_l = graph.m
    m_ok = np.array(
        [
            nk == 1 and 4 * big_l * int(ls) > int(ds) * int(ds)
            for nk, ls, ds in zip(n_pieces.tolist(), l_s.tolist(), d_s.tolist())
        ],
        dtype=bool,
    )
    return {
        "size": size,
        "core_size": core_size,
        "k_valid": k_bad == 0,
        "m_valid": m_ok,
        "p_valid": (p_bad == 0) & ((core_size > 0) | (size == core_size)),
    }


# -- the checks ------------------------------------------------------------


def check_clusters(cl: Clusters) -> list[str]:
    """Known ids, dense cluster ids, disjoint clusters."""
    problems = []
    if (cl.node < 0).any():
        problems.append(f"clustering.tsv names {int((cl.node < 0).sum())} ids not in the input")
    if len(cl.cluster) and (
        cl.cluster.min() < 0 or len(np.unique(cl.cluster)) != cl.n_clusters
    ):
        problems.append("cluster ids are not dense from 0")
    dup = len(cl.node) - len(np.unique(cl.node))
    if dup:
        problems.append(f"{dup} nodes appear in clustering.tsv more than once")
    return problems


def check_kmp(table: dict) -> list[str]:
    """Every cluster of a kmp_table is k-, m- and p-valid."""
    problems = []
    for key in ("k_valid", "m_valid", "p_valid"):
        bad = np.flatnonzero(~table[key])
        if len(bad):
            problems.append(
                f"{len(bad)} clusters fail {key[0]}-validity (first: {bad[:5].tolist()})"
            )
    return problems


def check_id_map(graph: Graph, path: Path) -> list[str]:
    ext, internal = _read_columns(path, 2)
    nodes = graph.index(ext)
    problems = []
    if (nodes < 0).any():
        problems.append(f"id_map.tsv names {int((nodes < 0).sum())} ids not in the input")
    if len(np.unique(nodes)) != len(nodes):
        problems.append("id_map.tsv lists a node more than once")
    if len(np.unique(nodes[nodes >= 0])) != graph.n:
        problems.append(f"id_map.tsv lists {len(nodes)} nodes, the input has {graph.n}")
    if sorted(int(i) for i in internal) != list(range(len(internal))):
        problems.append("id_map.tsv internal ids are not 0..n-1, each once")
    return problems


def check_size(graph: Graph, path: Path) -> list[str]:
    run = json.loads(path.read_text())
    problems = []
    if run.get("n_nodes") != graph.n:
        problems.append(f"run.json n_nodes={run.get('n_nodes')}, input has {graph.n}")
    if run.get("n_edges") != graph.m:
        problems.append(f"run.json n_edges={run.get('n_edges')}, input has {graph.m}")
    return problems


def check_accounting(graph: Graph, cl: Clusters, discarded, singletons) -> list[str]:
    """Clustered, discarded and singleton nodes partition the node set."""
    parts = np.concatenate([cl.node, discarded, singletons])
    if (parts < 0).any():
        return ["discarded.tsv or singletons.tsv names ids not in the input"]
    count = np.bincount(parts, minlength=graph.n)
    problems = []
    if (count > 1).any():
        problems.append(
            f"{int((count > 1).sum())} nodes are in more than one of clustered, "
            "discarded and singletons"
        )
    if (count == 0).any():
        problems.append(f"{int((count == 0).sum())} nodes are in none of them")
    return problems


def check_validity_report(table: dict, path: Path, k: int, p: int) -> list[str]:
    """validity.json agrees cluster by cluster with kmp_table."""
    report = json.loads(path.read_text())
    listed = report.get("clusters", [])
    if len(listed) != len(table["size"]):
        return [f"validity.json lists {len(listed)} clusters, clustering.tsv has {len(table['size'])}"]
    if report.get("k") != k or report.get("p") != p:
        return [f"validity.json has k={report.get('k')} p={report.get('p')}"]
    disagree = [
        i
        for i, entry in enumerate(listed)
        if any(entry.get(key) != table[key][i].item() for key in table)
    ]
    if disagree:
        return [f"validity.json disagrees on {len(disagree)} clusters (first: {disagree[:5]})"]
    return []


def k_core(graph: Graph, k: int) -> np.ndarray:
    """Mask of the k-core, by repeatedly pruning nodes of degree < k."""
    alive = np.ones(graph.n, dtype=bool)
    while True:
        deg = graph.adj @ alive.astype(np.int64)
        drop = alive & (deg < k)
        if not drop.any():
            return alive
        alive &= ~drop


def check_core_numbers(graph: Graph, cl: Clusters, k: int) -> list[str]:
    inside = k_core(graph, k)
    bad = int((~inside[cl.node[cl.core]]).sum())
    if bad:
        return [f"{bad} core members have core number below {k} in the whole network"]
    return []


def purity(cl: Clusters, community: np.ndarray) -> np.ndarray:
    """Per cluster: the largest share of its members from one planted community."""
    pairs, count = np.unique(
        np.stack([cl.cluster, community[cl.node]]), axis=1, return_counts=True
    )
    best = np.zeros(cl.n_clusters, dtype=np.int64)
    np.maximum.at(best, pairs[0], count)
    return best / np.bincount(cl.cluster, minlength=cl.n_clusters)


def mixing(graph: Graph, community: np.ndarray) -> float:
    """Share of edges whose endpoints lie in different planted communities."""
    coo = sparse.triu(graph.adj).tocoo()
    return float((community[coo.row] != community[coo.col]).mean())


def check_purity(graph: Graph, cl: Clusters, community: np.ndarray) -> list[str]:
    """Every cluster is purer than 1 - 2 * mixing.

    A cluster member's edges leave its community with probability about
    the mixing, and periphery attachment can pull in boundary nodes, so
    twice the mixing is allowed as impurity. The split generator gives
    the communities of a group nearly equal sizes, so a group left
    unsplit has purity at most about 0.51, below this threshold for any
    mixing under 0.24.
    """
    threshold = 1.0 - 2.0 * mixing(graph, community)
    if cl.n_clusters == 0:
        return ["no clusters to measure purity on"]
    pur = purity(cl, community)
    bad = np.flatnonzero(pur < threshold)
    if len(bad):
        return [
            f"{len(bad)} clusters have purity below {threshold:.3f} "
            f"(lowest {pur.min():.3f})"
        ]
    return []


def check_containment(cl: Clusters, partition: np.ndarray) -> list[str]:
    """No output cluster takes members from two input clusters."""
    if (partition[cl.node] < 0).any():
        return ["output clusters contain nodes missing from the input partition"]
    pairs = np.unique(np.stack([cl.cluster, partition[cl.node]]), axis=1)
    spread = np.bincount(pairs[0], minlength=cl.n_clusters)
    if (spread > 1).any():
        return [f"{int((spread > 1).sum())} output clusters span two input clusters"]
    return []


def node_labels(graph: Graph, nodes, labels) -> np.ndarray:
    """Per graph node, the label given to it (-1 where none is)."""
    out = np.full(graph.n, -1, dtype=np.int64)
    idx = graph.index(np.asarray(nodes).astype(str))
    out[idx[idx >= 0]] = np.asarray(labels)[idx >= 0]
    return out


def digest(outdir: Path) -> str:
    """sha256 over the names and bytes of every artifact in outdir."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_outputs(workload: str, graph: Graph, gen, outdir: Path, k: int, p: int) -> list[str]:
    """Every check that applies to `workload`, on the artifacts in outdir."""
    try:
        cl = read_clustering(graph, outdir / "clustering.tsv")
        problems = check_clusters(cl)
        if problems:
            return problems
        table = kmp_table(graph, cl, k, p)
        problems += check_kmp(table)
        problems += check_accounting(
            graph,
            cl,
            read_node_list(graph, outdir / "discarded.tsv"),
            read_node_list(graph, outdir / "singletons.tsv"),
        )
        problems += check_validity_report(table, outdir / "validity.json", k, p)
        if workload != "repair":  # `parse` writes no id map and no run.json
            problems += check_id_map(graph, outdir / "id_map.tsv")
            problems += check_size(graph, outdir / "run.json")
        if workload == "carve":
            problems += check_core_numbers(graph, cl, k)
        elif workload == "split":
            problems += check_purity(
                graph, cl, node_labels(graph, gen.nodes, gen.community)
            )
        elif workload == "repair":
            problems += check_containment(
                cl, node_labels(graph, gen.nodes, gen.partition)
            )
    except (OSError, ValueError, KeyError) as exc:
        problems = [f"unreadable artifacts: {exc}"]
    return problems
