"""Synthetic networks used across the test suite.

Builders return edge pairs as python lists or Network objects. All
randomness flows through an explicit generator or seed so any test case
can be reproduced from its parameters alone.
"""

from __future__ import annotations

import numpy as np

from kmpcluster import Network


def clique_edges(nodes) -> list[tuple[int, int]]:
    nodes = list(nodes)
    return [
        (nodes[i], nodes[j])
        for i in range(len(nodes))
        for j in range(i + 1, len(nodes))
    ]


def star_edges(center, leaves) -> list[tuple[int, int]]:
    return [(center, leaf) for leaf in leaves]


def path_edges(nodes) -> list[tuple[int, int]]:
    nodes = list(nodes)
    return list(zip(nodes, nodes[1:]))


def cycle_edges(nodes) -> list[tuple[int, int]]:
    nodes = list(nodes)
    return list(zip(nodes, nodes[1:] + nodes[:1]))


def circulant_edges(n, offsets) -> list[tuple[int, int]]:
    return [(v, (v + d) % n) for v in range(n) for d in offsets]


def net_from(edges, n=None) -> Network:
    if not edges:
        raise ValueError("need at least one edge")
    u, v = zip(*edges)
    return Network.from_edges(u, v, n=n)


def gnp_net(rng, n, prob) -> Network:
    """Erdos-Renyi by upper-triangle coin flips; isolated nodes kept."""
    mask = rng.random((n, n)) < prob
    iu = np.triu_indices(n, k=1)
    keep = mask[iu]
    return Network.from_edges(iu[0][keep], iu[1][keep], n=n)


def random_clustering_sets(rng, n, max_clusters=6) -> list[np.ndarray]:
    """Disjoint random node sets, cluster-shaped but arbitrary."""
    n_clusters = int(rng.integers(1, max_clusters + 1))
    perm = rng.permutation(n)
    out = []
    at = 0
    for _ in range(n_clusters):
        if at >= n:
            break
        size = int(rng.integers(1, max(2, (n - at) // 2 + 1)))
        out.append(np.sort(perm[at : at + size]))
        at += size
    return out


def planted_instance(seed: int, k: int = 5):
    """Disjoint (k+2)-cliques, light clique-to-clique noise, pendants.

    Noise is a partial matching over the cliques: each clique touches at
    most one noise edge, so no chain of bridges ties three cliques
    together. Every pendant wires to 3 distinct members of one clique;
    the attachment rule needs 2, and the extra anchor keeps a pendant
    attachable even when a boundary adjustment moves one core node out
    from under it. Node ids are scrambled.

    Returns (net, cores, periphery): cores as a list of sorted id
    arrays, periphery as {pendant id: clique index}.
    """
    rng = np.random.default_rng(seed)
    n_cliques = int(rng.integers(4, 9))
    size = k + 2
    n_pendants = int(rng.integers(2 * n_cliques, 4 * n_cliques))
    n_total = n_cliques * size + n_pendants
    ids = rng.permutation(n_total)
    cliques = [
        ids[i * size : (i + 1) * size].tolist() for i in range(n_cliques)
    ]
    pendant_ids = ids[n_cliques * size :].tolist()
    edges = []
    for members in cliques:
        edges.extend(clique_edges(members))
    pairs = rng.permutation(n_cliques)
    n_noise = int(rng.integers(0, n_cliques // 2 + 1))
    for t in range(n_noise):
        a, b = pairs[2 * t], pairs[2 * t + 1]
        edges.append(
            (
                cliques[a][rng.integers(size)],
                cliques[b][rng.integers(size)],
            )
        )
    periphery = {}
    for x in pendant_ids:
        c = int(rng.integers(n_cliques))
        anchors = rng.choice(size, 3, replace=False)
        for a in anchors:
            edges.append((x, cliques[c][a]))
        periphery[x] = c
    net = net_from(edges, n=n_total)
    order = sorted(range(n_cliques), key=lambda i: min(cliques[i]))
    cores = [np.sort(np.array(cliques[i], dtype=np.int64)) for i in order]
    rank = {old: new for new, old in enumerate(order)}
    periphery = {x: rank[c] for x, c in periphery.items()}
    return net, cores, periphery


def clique_with_cycle(clique: int, cycle: int, isolated: int) -> Network:
    """A clique, a cycle of `cycle` nodes through two of its members,
    and `isolated` nodes with no edges.

    Once IKC deletes the clique, the cycle is left as two long paths
    whose core labels fall from 2 to 1 one node per wave from each end:
    the slowest case for maintaining the labels across rounds.
    """
    rest = np.arange(clique, clique + cycle - 2)
    half = cycle // 2 - 1
    ring = np.concatenate([[0], rest[:half], [1], rest[half:]])
    iu = np.triu_indices(clique, k=1)
    u = np.concatenate([iu[0], ring])
    v = np.concatenate([iu[1], np.roll(ring, -1)])
    return Network.from_edges(u, v, n=clique + cycle - 2 + isolated)


def sweep_network_edges(seed: int = 830914, n: int = 10000):
    """The fixed mid-size network for determinism sweeps.

    Plants disjoint cliques of sizes 8..16 over a tenth of the nodes,
    then sprinkles a uniform background so most of the rest is touched.
    """
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    edges_u = []
    edges_v = []
    at = 0
    while at + 16 <= n // 10:
        size = int(rng.integers(8, 17))
        members = perm[at : at + size]
        at += size
        iu = np.triu_indices(size, k=1)
        edges_u.append(members[iu[0]])
        edges_v.append(members[iu[1]])
    m_bg = 3 * n
    edges_u.append(rng.integers(0, n, m_bg))
    edges_v.append(rng.integers(0, n, m_bg))
    return np.concatenate(edges_u), np.concatenate(edges_v)


def write_edge_file(path, u, v) -> None:
    lines = "\n".join(f"{int(a)}\t{int(b)}" for a, b in zip(u, v))
    with open(path, "w") as f:
        f.write(lines + "\n")
