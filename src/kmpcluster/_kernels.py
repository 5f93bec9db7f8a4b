"""Kernels over CSR adjacency arrays.

Every function here takes plain numpy arrays; nothing in this module
knows about the Network class. Callers pass (indptr, indices) plus
whatever mask or output arrays the kernel needs.

Every kernel but one is numpy over whole arrays or over batches of
them: the neighbour counts `subset_degrees`, `induced_edges` and
`count_neighbors_in` (which no module here calls; the benchmark's
tracer still wraps it by name), `cut_counts`, `extract_local_csr`,
`compact`, `matvec`, `peel`, `settle` (which keeps core numbers exact
as nodes are deleted), `component_labels` (with `local_components`,
its step on a local CSR), `sweep_objective` and
`best_cluster_per_node`. The only loop over nodes is `refine_split`,
whose steps depend on the steps before it; it runs as ordinary Python.

`extract_local_csr`, `peel` and `component_labels` take an optional
trailing `group` array, one id per node of `sub`. Arcs between groups
are then ignored, so one call answers for many disjoint subgraphs at
once, each exactly as if it were called alone. `matvec` and
`sweep_objective` work on such a block-diagonal local CSR as it is.

`extract_local_csr` gathers its rows, and `compact` (which drops the
repeated arc keys of `Network.from_edges`) moves its entries, at most
`_BATCH` arcs at a time, so their scratch does not grow with the graph;
what they keep is joined or shrunk once at the end.
"""

from __future__ import annotations

import numpy as np

# Nothing here is compiled; the benchmark reports this as its backend.
NUMBA = False

# Arcs handled at a time by `extract_local_csr` and `compact`; it bounds
# their scratch, not their results.
_BATCH = 1 << 16


def _gather(indptr, sub):
    """Arc positions of the rows `sub`, in row then arc order, and the
    index into `sub` of each arc's row."""
    start = indptr[sub]
    lens = indptr[sub + 1] - start
    rows = np.arange(len(sub)).repeat(lens)
    arcs = (start - (lens.cumsum() - lens)).repeat(lens)
    arcs += np.arange(len(rows))
    return arcs, rows


def _count_in(indptr, indices, mask, nodes):
    """Count, for each node of `nodes`, its neighbours with `mask` set."""
    arcs, rows = _gather(indptr, nodes)
    return np.bincount(rows[mask[indices[arcs]] != 0], minlength=len(nodes))


def subset_degrees(indptr, indices, in_sub, sub):
    """Degree of each node of `sub` counting only neighbors inside `sub`.

    `in_sub` is a uint8 membership mask over all nodes; `sub` is the
    sorted member list. Returns an int64 array aligned with `sub`.
    """
    return _count_in(indptr, indices, in_sub, sub)


def count_neighbors_in(indptr, indices, mask, nodes):
    """For each node in `nodes`, count neighbors with mask set."""
    return _count_in(indptr, indices, mask, nodes)


def induced_edges(indptr, indices, in_sub, sub):
    """Number of edges with both endpoints in `sub`."""
    return int(_count_in(indptr, indices, in_sub, sub).sum()) // 2


def peel(indptr, indices, sub, n, group=None):
    """Core number of every node of `sub` within the induced subgraph.

    With `group` (one id per node of `sub`), an arc counts only when its
    ends share a group, so each group is peeled as its own subgraph, all
    in the same waves.

    Frontier peeling on the local CSR. For each threshold k in turn
    (skipping ahead to the smallest live degree), every live node of
    degree <= k is removed in waves: each wave lowers its live
    neighbours' degrees, and those that fall to k or below form the
    next wave. A node's label is the k it was removed at. Returns int64
    labels aligned with `sub`.

    A wave costs a few numpy calls plus work in proportion to the
    frontier's arcs, and there is one wave per onion layer. So a long
    path, which loses only its two ends per wave, is the worst case: on
    a 100k-node path this takes about 2.2 s on a 2-core machine, where
    a bucket-queue loop run as interpreted Python takes 0.7 to 1.0 s.
    """
    lptr, lind = extract_local_csr(indptr, indices, sub, n, group)
    deg = np.diff(lptr)
    labels = np.zeros(len(sub), np.int64)
    alive = np.ones(len(sub), np.bool_)
    live = np.arange(len(sub))
    k = 0
    while len(live):
        live_deg = deg[live]
        k = max(k, int(live_deg.min()))
        frontier = live[live_deg <= k]
        while len(frontier):
            labels[frontier] = k
            alive[frontier] = False
            nbr = lind[_gather(lptr, frontier)[0]]
            nbr, cnt = np.unique(nbr[alive[nbr]], return_counts=True)
            deg[nbr] -= cnt
            frontier = nbr[deg[nbr] <= k]
        live = live[alive[live]]
        k += 1
    return labels


def settle(indptr, indices, lab, sup, violators, mark):
    """Lower upper bounds on core numbers until they are core numbers.

    `lab` holds an upper bound on every node's core number, 0 for a
    deleted node, and `sup[v]` the count of v's neighbours u with
    lab[u] >= lab[v], exact wherever lab[v] > 0. `violators` lists, once
    each, the nodes with sup < lab. `mark` is an all-False bool scratch
    array over all nodes, all-False again on return. Both `lab` and
    `sup` are updated in place.

    In synchronous waves, each violator takes its h-index over its
    neighbours' labels, capped at its own label; it had fewer than
    lab[v] neighbours labelled lab[v] or more, so it strictly drops. A
    neighbour u outside the wave loses one support per violator whose
    label went from at least lab[u] to below it; the violators recount
    theirs from the same arcs. The next wave is the touched nodes that
    now violate. When none does, every node has lab[v] neighbours
    labelled at least lab[v], so each label is at most the core number;
    and the h-index of upper bounds is an upper bound, so each label is
    at least the core number too.
    """
    v = violators
    while len(v):
        arcs, rows = _gather(indptr, v)
        nbr = indices[arcs]
        old = lab[v]
        nl = lab[nbr]
        old_r = old[rows]
        # h-index: sort each row's capped labels in descending order; it
        # is the count of positions i (from 0) holding a label above i
        span = int(old.max()) + 1
        key = rows * span
        cap = key - np.minimum(nl, old_r)
        cap.sort()
        cap = key - cap
        rank = np.arange(len(rows)) - rows.searchsorted(rows)
        new = np.bincount(rows[cap > rank], minlength=len(v))
        new_r = new[rows]
        mark[v] = True
        hit = (new_r < nl) & (nl <= old_r) & ~mark[nbr]
        mark[v] = False
        lab[v] = new
        sup[v] = np.bincount(rows[lab[nbr] >= new_r], minlength=len(v))
        u = nbr[hit]
        u.sort()
        np.subtract.at(sup, u, 1)
        u = u[sup[u] < lab[u]]
        once = np.ones(len(u), np.bool_)
        np.not_equal(u[1:], u[:-1], out=once[1:])
        v = np.concatenate((v[sup[v] < new], u[once]))


def component_labels(indptr, indices, sub, n, group=None):
    """Connected component id for each node of `sub` (induced subgraph).

    Ids are dense from 0 and ordered by each component's first position
    in `sub`, which is its smallest member when `sub` is sorted. With
    `group`, arcs between groups are ignored, so no component spans two
    groups.
    """
    return local_components(*extract_local_csr(indptr, indices, sub, n, group))


def local_components(lptr, lind):
    """Connected component id for each node of a local CSR.

    Ids are dense from 0 and ordered by smallest local id. Each round
    takes the smallest parent across each row's arcs with one
    `np.minimum.reduceat` over the rows that have arcs, hooks the roots
    of the rows that found a smaller one to it, then jumps pointers
    until every node points at a root; a component ends up pointing at
    its smallest local id, its only root.
    """
    nloc = len(lptr) - 1
    row = np.flatnonzero(np.diff(lptr))
    start = lptr[row]
    parent = np.arange(nloc)
    while len(row):
        low = np.minimum.reduceat(parent[lind], start)
        pr = parent[row]
        # arcs run both ways, so an arc between two trees shows as a
        # smaller parent at one of its ends
        split = low < pr
        if not split.any():
            break
        np.minimum.at(parent, pr[split], low[split])
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped
    root = parent == np.arange(nloc)
    return (np.cumsum(root) - 1)[parent]


def extract_local_csr(indptr, indices, sub, n, group=None):
    """CSR of the subgraph induced by `sub`, with local 0..len(sub)-1 ids.

    `group`, when given, holds one id per node of `sub`; an arc is then
    kept only when both its ends are in `sub` and share a group, which
    makes the result the disjoint union of the groups' induced
    subgraphs.

    The rows are gathered in batches of consecutive rows holding at
    most `_BATCH` arcs (a longer row is a batch of its own). So beside
    the result, the n-sized map to local ids and the running arc count
    per row, the scratch is a few batch-sized arrays; each batch's kept
    arcs are joined once at the end.
    """
    loc = np.full(n, -1, np.int64)
    loc[sub] = np.arange(len(sub))
    # arcs up to the end of each row, to cut the rows into batches
    end = np.cumsum(indptr[sub + 1] - indptr[sub])
    lptr = np.zeros(len(sub) + 1, np.int64)
    parts = []
    lo = 0
    while lo < len(sub):
        done = int(end[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(end, done + _BATCH, "right")), lo + 1)
        arcs, rows = _gather(indptr, sub[lo:hi])
        lind = loc[indices[arcs]]
        keep = lind >= 0
        if group is not None:
            # where lind is -1, group[-1] is read but keep is already False
            keep &= group[lind] == group[lo:hi][rows]
        lptr[lo + 1 : hi + 1] = np.bincount(rows[keep], minlength=hi - lo)
        parts.append(lind[keep])
        lo = hi
    np.cumsum(lptr, out=lptr)
    if len(parts) == 1:  # one batch: nothing to join
        return lptr, parts[0]
    return lptr, np.concatenate([np.empty(0, np.int64), *parts])


def compact(a, keep):
    """Keep the entries of `a` where the bool array `keep` is set, in
    order, in place: they move to the front a batch at a time, and `a`
    shrinks to them. `a` must own its data, and no view of it may
    remain in use."""
    w = 0
    for lo in range(0, len(a), _BATCH):
        part = a[lo : lo + _BATCH][keep[lo : lo + _BATCH]]
        a[w : w + len(part)] = part
        w += len(part)
    a.resize(w, refcheck=False)


def matvec(lptr, lind, x, out, rows=None):
    """out[i] = sum of x over neighbors of i in a local CSR.

    `rows` is the row of each arc, `np.repeat(np.arange(len(out)),
    np.diff(lptr))`; a caller that multiplies by one matrix many times
    builds it once and passes it in. np.bincount adds the weights in arc
    order starting from 0.0, so the sums match a per-row loop to the
    last bit.
    """
    if rows is None:
        rows = np.repeat(np.arange(len(out)), np.diff(lptr))
    out[:] = np.bincount(rows, weights=x[lind], minlength=len(out))


def cut_counts(indptr, indices, side, nodes):
    """Edge counts for a 2-way split of one cluster.

    `side` is int8 over all nodes: 0 or 1 inside the cluster, -1 outside.
    Returns (cut, internal_0, internal_1).
    """
    arcs, rows = _gather(indptr, nodes)
    sv = side[nodes][rows]
    su = side[indices[arcs]]
    inside = su >= 0
    same = inside & (su == sv)
    int0 = int((same & (sv == 0)).sum())
    int1 = int(same.sum()) - int0
    cut2 = int(inside.sum()) - int(same.sum())
    return cut2 // 2, int0 // 2, int1 // 2


def sweep_objective(lptr, lind, order, starts):
    """Normalized cut of every prefix split along `order`, for many blocks.

    (lptr, lind) is a block-diagonal local CSR; block g holds the local
    ids starts[g] to starts[g + 1] - 1, and `order` lists each block's
    ids, block after block, in the order they join side 0. Entry j is
    the objective of splitting j's block into the ids up to and
    including order[j] and the rest; the last entry of a block, whose
    side 1 is empty, is inf.

    Each node's count of neighbours placed before it is a bincount over
    the arcs that point back along the order; per-block running sums of
    these counts and of the degrees give every prefix's internal and cut
    edge counts as exact integers. The objective is then cut / l0 +
    cut / l1 in float64, the arithmetic of a node-by-node sweep.
    """
    n = len(order)
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    rows = np.repeat(np.arange(n), np.diff(lptr))
    back = np.bincount(rows[pos[lind] < pos[rows]], minlength=n)[order]
    sizes = np.diff(starts)

    def running(v):
        total = np.concatenate([[0], np.cumsum(v)])
        return total[1:] - np.repeat(total[starts[:-1]], sizes)

    i0 = running(back)
    cut = running(np.diff(lptr)[order] - 2 * back)
    l0 = i0 + cut
    l1 = np.repeat((lptr[starts[1:]] - lptr[starts[:-1]]) // 2, sizes) - i0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((l0 > 0) & (l1 > 0), cut / l0 + cut / l1, np.inf)


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


def best_cluster_per_node(indptr, indices, owner, core_size, min_id, cand, p):
    """Pick the attachment target for each candidate node.

    `owner[u]` is the cluster index of u if u is a core node, else -1.
    A candidate qualifies for cluster c when it has >= p neighbors in
    c's core; among qualifying clusters the one with the largest
    count/core_size ratio wins, ties broken by smaller `min_id`. Returns
    the chosen cluster index per candidate (-1 when none qualifies).

    The (candidate, cluster) pairs are counted over the candidates' arcs
    at once, and each candidate's pairs ranked by one lexsort. Ratios
    are compared as floats, which is exact here: each is at most 1,
    division is correctly rounded, and two different fractions with
    denominators below 2**26 differ by more than 2**-52, more than
    their rounding errors together.
    """
    ncl = len(core_size)
    assert not ncl or core_size.max() < 2**26
    arcs, rows = _gather(indptr, cand)
    c = owner[indices[arcs]]
    keep = c >= 0
    pair, cnt = np.unique(rows[keep] * ncl + c[keep], return_counts=True)
    keep = cnt >= p
    row, c = np.divmod(pair[keep], ncl)
    cnt = cnt[keep]
    best = np.lexsort((min_id[c], -cnt / core_size[c], row))
    row, c = row[best], c[best]
    first = np.ones(len(row), np.bool_)
    np.not_equal(row[1:], row[:-1], out=first[1:])
    out = np.full(len(cand), -1, np.int64)
    out[row[first]] = c[first]
    return out
