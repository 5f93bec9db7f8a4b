"""Brute-force reference implementations.

Expected values in the test suite come from these, never from the
library under test. Everything favors the most literal possible
formulation: dicts, sets, and Fraction arithmetic so no comparison
hinges on float rounding. The one exception is the one-cluster stage-2
bisection at the end, a bit-for-bit reference for the batched one, with
the loops of the exact enumeration and the local search it calls.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np

from kmpcluster import _kernels
from kmpcluster.clustering import Cluster, Clustering, all_core, split_by
from kmpcluster.kcore import core_labels
from kmpcluster.parsing import modular_components


def adjacency(net) -> dict[int, set[int]]:
    return {v: set(net.neighbors(v).tolist()) for v in range(net.n)}


def csr_of(pairs, n: int) -> tuple[list[int], list[int], int]:
    """(indptr, indices, loops) of the simple graph on 0..n-1 whose edges
    are `pairs`, in Python ints: each row's neighbours sorted, repeats
    merged, and the loops (v, v) counted and dropped."""
    adj: dict[int, set[int]] = {}
    for a, b in pairs:
        if a != b:
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    indptr, indices = [0], []
    for v in range(n):
        indices += sorted(adj.get(v, ()))
        indptr.append(len(indices))
    return indptr, indices, sum(a == b for a, b in pairs)


def core_labels_by_deletion(adj: dict[int, set[int]], nodes=None) -> dict[int, int]:
    """For each k in turn, repeatedly delete nodes with fewer than k
    remaining neighbors; a node's label is the last k it survived."""
    alive = set(adj) if nodes is None else set(nodes)
    labels = {v: 0 for v in alive}
    k = 1
    while alive:
        changed = True
        while changed:
            changed = False
            for v in list(alive):
                if len(adj[v] & alive) < k:
                    alive.discard(v)
                    changed = True
        for v in alive:
            labels[v] = k
        k += 1
    return labels


def components_of(adj: dict[int, set[int]], nodes) -> list[frozenset]:
    nodes = set(nodes)
    seen = set()
    out = []
    for start in sorted(nodes):
        if start in seen:
            continue
        comp = {start}
        queue = [start]
        while queue:
            v = queue.pop()
            for u in adj[v] & nodes:
                if u not in comp:
                    comp.add(u)
                    queue.append(u)
        seen |= comp
        out.append(frozenset(comp))
    return out


def induced_edges_of(adj: dict[int, set[int]], nodes) -> int:
    nodes = set(nodes)
    return sum(1 for a, b in combinations(sorted(nodes), 2) if b in adj[a])


def modularity_fraction(net, nodes) -> Fraction:
    adj = adjacency(net)
    nodes = set(int(v) for v in nodes)
    ls = induced_edges_of(adj, nodes)
    ds = sum(len(adj[v]) for v in nodes)
    big_l = net.m
    return Fraction(ls, big_l) - Fraction(ds, 2 * big_l) ** 2


def ncut_fraction(adj: dict[int, set[int]], c1, c2):
    """Normalized cut as an exact Fraction; None when undefined."""
    c1 = set(c1)
    c2 = set(c2)
    both = c1 | c2
    cut = sum(1 for v in c1 for u in adj[v] if u in c2)
    links1 = sum(1 for v in c1 for u in adj[v] if u in both)
    links2 = sum(1 for v in c2 for u in adj[v] if u in both)
    # links counts each internal edge twice plus each cut edge once per side
    links1 = (links1 - cut) // 2 + cut
    links2 = (links2 - cut) // 2 + cut
    if links1 == 0 or links2 == 0:
        return None
    return Fraction(cut, links1) + Fraction(cut, links2)


def exhaustive_min_ncut(adj: dict[int, set[int]], nodes):
    """Minimum normalized cut over every bipartition of `nodes`.

    Returns (value, side_with_first_node) with value None when every
    bipartition is undefined. 2^(n-1) - 1 candidates; keep n small.
    """
    nodes = sorted(nodes)
    rest = nodes[1:]
    best = None
    best_side = None
    for r in range(len(rest) + 1):
        for extra in combinations(rest, r):
            side = {nodes[0], *extra}
            other = [v for v in nodes if v not in side]
            if not other:
                continue
            val = ncut_fraction(adj, side, other)
            if val is None:
                continue
            if best is None or val < best:
                best = val
                best_side = frozenset(side)
    return best, best_side


def validity_flags(net, core, noncore, k, p):
    """Direct reading of the three validity conditions."""
    adj = adjacency(net)
    core = set(int(v) for v in core)
    noncore = set(int(v) for v in noncore)
    if core:
        k_valid = all(len(adj[v] & core) >= k for v in core)
        m_valid = len(components_of(adj, core)) == 1 and modularity_fraction(
            net, core
        ) > 0
    else:
        k_valid = True
        m_valid = False
    if noncore:
        p_valid = bool(core) and all(len(adj[v] & core) >= p for v in noncore)
    else:
        p_valid = True
    return k_valid, m_valid, p_valid


def assign_by_scan(net, cores: list[set], candidates, p, order=None):
    """Augmentation by literal per-candidate scan, in any given order.

    Each candidate is judged against the cores as passed in; the order
    argument exists to demonstrate that it cannot matter. Returns
    {candidate: core index} for the candidates that attach.
    """
    adj = adjacency(net)
    mins = [min(c) for c in cores]
    result = {}
    for x in order if order is not None else sorted(candidates):
        best = None
        for i, core in enumerate(cores):
            cnt = len(adj[x] & core)
            if cnt < p:
                continue
            if best is None:
                best = i
                continue
            lhs = cnt * len(cores[best])
            rhs = len(adj[x] & cores[best]) * len(core)
            if lhs > rhs or (lhs == rhs and mins[i] < mins[best]):
                best = i
        if best is not None:
            result[int(x)] = best
    return result


def best_cluster_per_node(indptr, indices, owner, core_size, min_id, cand, p):
    """Pick the attachment target for each candidate node.

    `owner[u]` is the cluster index of u if u is a core node, else -1.
    A candidate qualifies for cluster c when it has >= p neighbors in
    c's core; among qualifying clusters the one with the largest
    count/core_size ratio wins, ties broken by smaller `min_id`. Ratio
    comparisons use integer cross-products, so there is no float
    tie ambiguity. Returns the chosen cluster index per candidate
    (-1 when none qualifies).

    The per-candidate loop the vectorised kernel replaced, kept verbatim.
    """
    ncl = len(core_size)
    count = np.zeros(ncl, np.int64)
    seen = np.full(ncl, -1, np.int64)
    done = np.full(ncl, -1, np.int64)
    out = np.full(len(cand), -1, np.int64)
    for ci in range(len(cand)):
        x = cand[ci]
        for e in range(indptr[x], indptr[x + 1]):
            c = owner[indices[e]]
            if c < 0:
                continue
            if seen[c] != ci:
                seen[c] = ci
                count[c] = 0
            count[c] += 1
        best = -1
        bnum = 0
        bden = 1
        for e in range(indptr[x], indptr[x + 1]):
            c = owner[indices[e]]
            if c < 0 or done[c] == ci:
                continue
            done[c] = ci
            cnt = count[c]
            if cnt < p:
                continue
            if best < 0:
                take = True
            else:
                lhs = cnt * bden
                rhs = bnum * core_size[c]
                take = lhs > rhs or (lhs == rhs and min_id[c] < min_id[best])
            if take:
                best = c
                bnum = cnt
                bden = core_size[c]
        out[ci] = best
    return out


def ikc(net, k: int) -> Clustering:
    """Iteratively carve off top cores until the residual thins below k.

    Each round labels the residual subgraph, takes the connected
    components of the highest-label core, keeps those with positive
    modularity (measured against the full network), and deletes every
    top-core node from the residual regardless of whether its component
    was kept. Deleted-but-rejected nodes simply end up unclustered.

    The loop that re-peels the whole residual every round, kept verbatim
    as the reference for the one that maintains the labels.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    alive = net.all_nodes()
    kept: list[Cluster] = []
    while len(alive):
        lab = core_labels(net, alive)
        top = lab.max_label
        if top < k:
            break
        members = lab.at_least(top)
        comp, positive = modular_components(net, members)
        comps = split_by(comp, members, len(positive))
        kept.extend(all_core(c) for c, ok in zip(comps, positive) if ok)
        alive = np.setdiff1d(alive, members, assume_unique=True)
    return Clustering(kept, net.n)


# -- stage 2, one cluster at a time -----------------------------------------
#
# The per-cluster spectral bisection as it stood before clusters were
# bisected in batches, kept verbatim as the reference the batched path
# must reproduce bit for bit. The local CSR and the matrix-vector product
# it calls are the library's own: batching does not change them. The
# exact enumeration and the local search are the loops over arcs and
# nodes that the library's doubling enumeration and incremental search
# replaced, kept verbatim.

_EXACT_LIMIT = 15
_SPECTRAL_SEED = 20240917
_SPECTRAL_ITERS = 100


def _exact_bipartition(nodes, lptr, lind, m_local):
    """Global minimum over all 2^(n-1) - 1 bipartitions.

    Membership of side 0 is encoded in the bits of a mask; the last node
    is pinned to side 1 so each split is enumerated once. Ties go to the
    smallest mask, which is deterministic.
    """
    nloc = len(nodes)
    masks = np.arange(1, 1 << (nloc - 1), dtype=np.int64)
    cut = np.zeros(len(masks), dtype=np.int64)
    i0 = np.zeros(len(masks), dtype=np.int64)
    for la in range(nloc):
        xa = (masks >> la) & 1
        for e in range(lptr[la], lptr[la + 1]):
            lb = lind[e]
            if lb <= la:
                continue
            xb = (masks >> lb) & 1
            cut += xa ^ xb
            i0 += xa & xb
    i1 = m_local - i0 - cut
    l0 = i0 + cut
    l1 = i1 + cut
    with np.errstate(divide="ignore", invalid="ignore"):
        obj = np.where((l0 > 0) & (l1 > 0), cut / l0 + cut / l1, np.inf)
    best = int(masks[np.argmin(obj)])
    bits = (best >> np.arange(nloc, dtype=np.int64)) & 1
    return nodes[bits == 1], nodes[bits == 0]


def refine_split(lptr, lind, side, cut, i0, i1, n0, n1, max_sweeps, max_moves):
    """Greedy single-node descent on the normalized-cut objective.

    `side` holds 0/1 per local node and is updated in place. A move is
    applied only if it strictly lowers the objective and leaves both
    sides nonempty. Runs at most `max_sweeps` passes over the nodes and
    at most `max_moves` accepted moves in total.
    """
    nloc = len(side)
    moves = 0
    for _ in range(max_sweeps):
        moved = False
        for v in range(nloc):
            sv = side[v]
            if sv == 0:
                if n0 <= 1:
                    continue
            else:
                if n1 <= 1:
                    continue
            a = 0
            b = 0
            for e in range(lptr[v], lptr[v + 1]):
                if side[lind[e]] == 0:
                    a += 1
                else:
                    b += 1
            if sv == 0:
                ncut = cut - b + a
                ni0 = i0 - a
                ni1 = i1 + b
            else:
                ncut = cut - a + b
                ni0 = i0 + a
                ni1 = i1 - b
            l0 = i0 + cut
            l1 = i1 + cut
            if l0 == 0 or l1 == 0:
                old = np.inf
            else:
                old = cut / l0 + cut / l1
            nl0 = ni0 + ncut
            nl1 = ni1 + ncut
            if nl0 == 0 or nl1 == 0:
                new = np.inf
            else:
                new = ncut / nl0 + ncut / nl1
            if new < old:
                side[v] = 1 - sv
                cut = ncut
                i0 = ni0
                i1 = ni1
                if sv == 0:
                    n0 -= 1
                    n1 += 1
                else:
                    n0 += 1
                    n1 -= 1
                moved = True
                moves += 1
                if moves >= max_moves:
                    return cut, i0, i1
        if not moved:
            break
    return cut, i0, i1


def sweep_objective(lptr, lind, order, m_local):
    """Normalized cut of every prefix split along `order`.

    Nodes are added one at a time to side 0; after each addition the
    objective for the split (first t nodes | rest) is recorded. Entry t-1
    of the result corresponds to prefix length t, for t in 1..n-1.
    """
    nloc = len(order)
    placed = np.zeros(nloc, np.uint8)
    vals = np.empty(nloc - 1, np.float64)
    cut = 0
    i0 = 0
    for t in range(nloc - 1):
        v = order[t]
        a = 0
        for e in range(lptr[v], lptr[v + 1]):
            if placed[lind[e]]:
                a += 1
        deg = lptr[v + 1] - lptr[v]
        placed[v] = 1
        i0 += a
        cut += deg - 2 * a
        i1 = m_local - i0 - cut
        l0 = i0 + cut
        l1 = i1 + cut
        if l0 == 0 or l1 == 0:
            vals[t] = np.inf
        else:
            vals[t] = cut / l0 + cut / l1
    return vals


def matvec(lptr, lind, x, out):
    """out[i] = sum of x over the neighbours of i: np.bincount adds the
    weights in arc order, each row's from 0.0."""
    rows = np.repeat(np.arange(len(out)), np.diff(lptr))
    out[:] = np.bincount(rows, weights=x[lind], minlength=len(out))


def spectral_order(lptr, lind):
    """Order local nodes by a diffusion eigenvector estimate.

    Power iteration on the lazy walk (I + D^-1 A) / 2, with the
    degree-weighted constant vector projected out each step. The start
    vector comes from a fixed-seed generator, so the result depends only
    on the subgraph. Ties in the final coordinates break by local id.
    """
    nloc = len(lptr) - 1
    deg = np.diff(lptr).astype(np.float64)
    w = deg / deg.sum()
    rng = np.random.default_rng(_SPECTRAL_SEED)
    x = rng.standard_normal(nloc)
    x -= w @ x
    tmp = np.empty(nloc)
    safe = np.maximum(deg, 1.0)
    linked = deg > 0
    for _ in range(_SPECTRAL_ITERS):
        matvec(lptr, lind, x, tmp)
        y = np.where(linked, 0.5 * x + 0.5 * tmp / safe, x)
        y -= w @ y
        nrm = np.linalg.norm(y)
        if nrm < 1e-300:
            break
        x = y / nrm
    return np.argsort(x, kind="stable")


def bipartition(net, nodes, cfg):
    """Split one cluster in two, minimizing the normalized cut.

    Clusters of at most 15 nodes are solved exactly. Larger clusters are
    cut at the best prefix of a spectral ordering, then refined by up to
    cfg.local_search_iters passes of strictly-improving single-node
    moves. The part containing the smallest node id comes back first.
    """
    nodes = net.subset(nodes)
    if len(nodes) < 2:
        raise ValueError("cannot bipartition fewer than 2 nodes")
    lptr, lind = _kernels.extract_local_csr(net.indptr, net.indices, nodes)
    m_local = len(lind) // 2
    if m_local == 0:
        return nodes[:1], nodes[1:]
    if len(nodes) <= _EXACT_LIMIT:
        p0, p1 = _exact_bipartition(nodes, lptr, lind, m_local)
    else:
        order = spectral_order(lptr, lind)
        vals = sweep_objective(lptr, lind, order, m_local)
        t = int(np.argmin(vals)) + 1
        side = np.ones(len(nodes), dtype=np.int8)
        side[order[:t]] = 0
        if cfg.local_search_iters > 0:
            rows = np.repeat(np.arange(len(nodes)), np.diff(lptr))
            sr = side[rows]
            sc = side[lind]
            cut = int((sr != sc).sum()) // 2
            i0 = int(((sr == 0) & (sc == 0)).sum()) // 2
            i1 = m_local - i0 - cut
            refine_split(
                lptr,
                lind,
                side,
                cut,
                i0,
                i1,
                int((side == 0).sum()),
                int((side == 1).sum()),
                cfg.local_search_iters,
                cfg.local_search_iters,
            )
        p0 = nodes[side == 0]
        p1 = nodes[side == 1]
    if p1[0] < p0[0]:
        p0, p1 = p1, p0
    return p0, p1
