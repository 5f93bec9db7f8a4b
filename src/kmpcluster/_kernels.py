"""Kernels over CSR adjacency arrays.

Every function here takes plain numpy arrays; nothing in this module
knows about the Network class. Callers pass (indptr, indices) plus
whatever mask or output arrays the kernel needs. In every CSR, the
network's and the local ones alike, the arc offsets are int64 and the
node ids int32. A kernel widens heads to int64 before it builds a
product or key from them; `_row_batches` hands them out widened.

Every kernel but two is numpy over whole arrays or over batches of
them: the neighbour counts `subset_degrees`, `induced_edges` and
`count_neighbors_in` (which no module here calls; the benchmark's
tracer still wraps it by name), `cut_counts`, `extract_local_csr`,
`compact`, `peel`, `settle` (which keeps core numbers exact as nodes
are deleted), `component_labels` (on a local CSR), `sweep_objective`
and `best_cluster_per_node`. `matvec`, which stage 2's power iteration
calls a hundred times a round, is scipy's compiled `csr_matvec`,
loaded from its extension file alone at the first product
(`_sparsetools`); like the rest, it runs on one thread. The last one
is `refine_split`, whose steps depend on the steps before it: it runs
as ordinary Python over lists, one step per node a pass, and keeps each
node's count of neighbours on side 0 up to date instead of rescanning
its arcs. It counts its starting cut and internal edges from those
counts, and one cap bounds both its passes and its moves.

A kernel takes nothing it can derive from its other arguments: the
node count is `len(indptr) - 1`, and core sizes come from `owner`.
`extract_local_csr` and `peel` take an optional `group` array after
`sub`, one id per node of `sub`. Arcs between groups are then ignored,
so one call answers for many disjoint subgraphs at once, each exactly
as if it were called alone; `_local` states that rule for both.
`component_labels`, `matvec` and `sweep_objective` work on such a
block-diagonal local CSR as it is.

`extract_local_csr` and the neighbour counts gather their rows, and
`compact` (which drops the repeated arc keys of `Network.from_edges`)
moves its entries, at most `_BATCH` arcs at a time (`_row_batches`), so
their scratch does not grow with the graph. What they keep goes into
one array, grown (`_put`) or shrunk in place, never into parts that are
joined at the end.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .clustering import run_starts

# Nothing here is JIT-compiled; the benchmark reports this as its backend.
NUMBA = False

# Arcs handled at a time by the batched kernels and by the in-place steps
# of the loader; it bounds their scratch, not their results.
_BATCH = 1 << 14


def _gather(indptr, sub):
    """Arc positions of the rows `sub`, in row then arc order, and the
    index into `sub` of each arc's row."""
    start = indptr[sub]
    lens = indptr[sub + 1] - start
    rows = np.arange(len(sub)).repeat(lens)
    arcs = (start - (lens.cumsum() - lens)).repeat(lens)
    arcs += np.arange(len(rows))
    return arcs, rows


def _row_batches(indptr, indices, sub):
    """`(lo, hi, heads, rows)` for runs sub[lo:hi] of consecutive rows of
    `sub` holding at most `_BATCH` arcs in all (a longer row is a run of
    its own): the heads of each run's arcs, widened to int64, since
    numpy indexes with int32 ones at about half the speed, and each
    arc's row as `_gather` gives it."""
    # arcs up to the end of each row, to cut the rows into runs
    end = np.cumsum(indptr[sub + 1] - indptr[sub])
    lo = 0
    while lo < len(sub):
        done = int(end[lo - 1]) if lo else 0
        hi = max(int(np.searchsorted(end, done + _BATCH, "right")), lo + 1)
        arcs, rows = _gather(indptr, sub[lo:hi])
        yield lo, hi, indices[arcs].astype(np.int64), rows
        lo = hi


def _put(buf, at, part):
    """Write `part` into the owned array `buf` from position `at`, and
    return the position after it. A `buf` too short for it grows in
    place, by at least an eighth; so it grows a few times in all, each
    time the allocator may remap its pages rather than copy them, and
    it never holds more than an eighth beyond what was written."""
    end = at + len(part)
    if end > len(buf):
        buf.resize(max(end, len(buf) + len(buf) // 8), refcheck=False)
    buf[at:end] = part
    return end


def _count_arcs(indptr, indices, sub, keep):
    """For each node of `sub`, the count of its arcs that `keep` keeps.

    The arcs go by in `_row_batches`; `keep(u, at, rows)` gets the heads
    u of a batch of arcs, the positions `at` in `sub` of the batch's
    rows (a slice) and each arc's row in the batch, and returns a bool
    per arc.
    """
    out = np.empty(len(sub), np.int64)
    for lo, hi, heads, rows in _row_batches(indptr, indices, sub):
        kept = keep(heads, slice(lo, hi), rows)
        out[lo:hi] = np.bincount(rows[kept], minlength=hi - lo)
    return out


def _local(n, sub, group=None):
    """`local(u, at, rows)`: for the heads u of arcs from the nodes
    sub[at][rows], each head's position in `sub` (an n-sized map, -1
    outside it) and whether the arc is kept: its head is in `sub` and,
    with `group` (one id per node of `sub`), in its tail's group."""
    loc = np.full(n, -1, np.int64)
    loc[sub] = np.arange(len(sub))

    def local(u, at, rows):
        u = loc[u]
        keep = u >= 0
        if group is not None:
            # where u is -1, group[-1] is read, but keep is already False
            keep &= group[u] == group[at][rows]
        return u, keep

    return local


def _count_in(indptr, indices, mask, nodes):
    """Count, for each node of `nodes`, its neighbours with `mask` set."""
    return _count_arcs(indptr, indices, nodes, lambda u, *_: mask[u] != 0)


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


def peel(indptr, indices, sub, group=None, k=None):
    """Core number of every node of `sub` within the induced subgraph.

    With `group` (one id per node of `sub`), an arc counts only when its
    ends share a group, so each group is peeled as its own subgraph, all
    in the same waves. With `k`, the peel starts at threshold k - 1 and
    stops at k: each label is the core number clipped to k - 1 and k,
    so it is k exactly on the k-core.

    Frontier peeling on the CSR as it is: an arc that leaves `sub` or
    its group is skipped where it is read, so no local CSR is built and
    the scratch is n-sized, plus a batch. For each threshold t in turn
    (skipping ahead to the smallest live degree), every live node of
    degree <= t is removed in waves: each wave lowers its live
    neighbours' degrees, a batch of arcs at a time (`_row_batches`), and
    those that fall to t or below form the next wave. A node's label is
    the t it was removed at. Returns int64 labels aligned with `sub`.

    A wave costs a few numpy calls plus work in proportion to the
    frontier's arcs, and there is one wave per onion layer. So a long
    path, which loses only its two ends per wave, is the worst case: on
    a 100k-node path this takes about 2.2 s on a 2-core machine, where
    a bucket-queue loop run as interpreted Python takes 0.7 to 1.0 s.
    """
    if group is None and np.array_equal(sub, np.arange(len(indptr) - 1)):
        deg, local = np.diff(indptr), None  # every arc counts, at its node id
    else:
        local = _local(len(indptr) - 1, sub, group)
        deg = _count_arcs(indptr, indices, sub, lambda *arcs: local(*arcs)[1])
    labels = np.zeros(len(sub), np.int64)
    alive = np.ones(len(sub), np.bool_)
    live = np.arange(len(sub))
    t = 0 if k is None else k - 1
    while len(live):
        live_deg = deg[live]
        t = max(t, int(live_deg.min()))
        if k is not None and t >= k:  # what is left is the k-core
            labels[live] = k
            break
        frontier = live[live_deg <= t]
        while len(frontier):
            labels[frontier] = t
            alive[frontier] = False
            fallen = []
            for lo, hi, nbr, rows in _row_batches(indptr, indices, sub[frontier]):
                if local is not None:
                    nbr, keep = local(nbr, frontier[lo:hi], rows)
                    nbr = nbr[keep]
                nbr, cnt = np.unique(nbr[alive[nbr]], return_counts=True)
                was = deg[nbr]
                deg[nbr] = was - cnt
                # each node falls to t once, in whichever batch takes it there
                fallen.append(nbr[(was > t) & (was - cnt <= t)])
            frontier = np.concatenate(fallen)
        live = live[alive[live]]
        t += 1
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
    at least the core number too. A wave reads its arcs twice, in
    `_row_batches`: for the new labels, then for what they change.
    """
    v = violators
    while len(v):
        old = lab[v]
        new = np.empty(len(v), np.int64)
        for lo, hi, nbr, rows in _row_batches(indptr, indices, v):
            # h-index: sort each row's capped labels in descending order;
            # it is the count of positions i (from 0) holding a label above i
            old_r = old[lo:hi][rows]
            key = rows * (int(old_r.max()) + 1)
            cap = key - np.minimum(lab[nbr], old_r)
            cap.sort()
            cap = key - cap
            rank = np.arange(len(rows)) - rows.searchsorted(rows)
            new[lo:hi] = np.bincount(rows[cap > rank], minlength=hi - lo)
        lab[v] = new
        # a neighbour outside the wave keeps its label, so the hits read
        # it after the wave's labels are set, as the recount does
        mark[v] = True
        hits = [np.empty(0, np.int64)]
        for lo, hi, nbr, rows in _row_batches(indptr, indices, v):
            nl = lab[nbr]
            new_r = new[lo:hi][rows]
            hit = (new_r < nl) & (nl <= old[lo:hi][rows]) & ~mark[nbr]
            hits.append(nbr[hit])
            sup[v[lo:hi]] = np.bincount(rows[nl >= new_r], minlength=hi - lo)
        mark[v] = False
        u = np.concatenate(hits)
        u.sort()
        np.subtract.at(sup, u, 1)
        u = u[sup[u] < lab[u]]
        v = np.concatenate((v[sup[v] < new], u[run_starts(u)]))


def component_labels(lptr, lind):
    """Connected component id for each node of a local CSR.

    Ids are dense from 0 and ordered by smallest local id. Each round
    takes the smallest parent across each row's arcs with
    `np.minimum.reduceat` over the rows that have arcs, a batch of rows
    at a time, hooks the roots of the rows that found a smaller one to
    it, then jumps pointers until every node points at a root; a
    component ends up pointing at its smallest local id, its only root.
    """
    nloc = len(lptr) - 1
    row = np.flatnonzero(np.diff(lptr))
    start = lptr[row]
    # the rows cut where their arcs pass each multiple of _BATCH, so that
    # a round reads the parents of at most about a batch of arcs at a time
    cut = np.searchsorted(start, np.arange(_BATCH, len(lind), _BATCH))
    cut = [(lo, hi) for lo, hi in zip([0, *cut], [*cut, len(row)]) if lo < hi]
    ends = np.append(start, len(lind))
    parent = np.arange(nloc)
    low = np.empty(len(row), np.int64)
    while len(row):
        for lo, hi in cut:
            arcs = lind[ends[lo] : ends[hi]].astype(np.int64)
            low[lo:hi] = np.minimum.reduceat(parent[arcs], start[lo:hi] - ends[lo])
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


def extract_local_csr(indptr, indices, sub, group=None):
    """CSR of the subgraph induced by `sub`, with local 0..len(sub)-1 ids.

    `group`, when given, holds one id per node of `sub`; an arc is then
    kept only when both its ends are in `sub` and share a group, which
    makes the result the disjoint union of the groups' induced
    subgraphs.

    `lptr` is int64 and `lind` int32. The rows are gathered in
    `_row_batches`. Each batch's kept arcs are written into one array,
    which grows in place as they come (`_put`) and is cut to them at the
    end. So beside the result, the scratch is the n-sized map to local
    ids (`_local`), the running arc count per row and a few batch-sized
    arrays.
    """
    local = _local(len(indptr) - 1, sub, group)
    lptr = np.zeros(len(sub) + 1, np.int64)
    lind = np.empty(0, np.int32)
    w = 0
    for lo, hi, heads, rows in _row_batches(indptr, indices, sub):
        heads, keep = local(heads, slice(lo, hi), rows)
        lptr[lo + 1 : hi + 1] = np.bincount(rows[keep], minlength=hi - lo)
        w = _put(lind, w, heads[keep])
    lind.resize(w, refcheck=False)
    np.cumsum(lptr, out=lptr)
    return lptr, lind


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


def matvec(lptr, lind, x, out, ones):
    """out[i] = sum of x over neighbors of i in a local CSR.

    scipy's compiled `csr_matvec` takes `ones`, a float64 1.0 per arc,
    as the matrix's entries. It starts each row from 0.0 and adds
    1.0 * x[j], which is exact, in arc order, so the sums match a
    per-row loop to the last bit. `lptr` and `lind` must share one
    index dtype; a call on mixed dtypes converts them every time.
    """
    out.fill(0.0)  # csr_matvec adds each row's sum to what out holds
    _sparsetools().csr_matvec(len(out), len(x), lptr, lind, ones, x, out)


@functools.cache
def _sparsetools():
    """scipy's compiled sparse kernels, `scipy.sparse._sparsetools`.

    When scipy.sparse is loaded, this is its module. Otherwise only the
    extension file is loaded, found beside scipy without importing it:
    on a 2-core machine that took 0.2 ms and 0.15 MiB, where `import
    scipy.sparse` took 75 to 90 ms and 20 MiB. Loading the file enters
    it in `sys.modules`; the entry is taken out again, since a later
    `import scipy.sparse` would then leave the package without its
    `_sparsetools` attribute.
    """
    name = "scipy.sparse._sparsetools"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    folder = os.path.join(scipy.submodule_search_locations[0], "sparse")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = os.path.join(folder, "_sparsetools" + suffix)
        if os.path.exists(path):
            break
    else:
        # the file's name is scipy's private layout; `pyproject.toml`
        # bounds scipy to the versions that keep it
        raise ImportError(
            f"stage 2's product needs scipy's compiled {name}, and {folder}"
            " holds no _sparsetools file with an extension suffix of this"
            " Python",
            name=name,
            path=folder,
        )
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.pop(name, None)
    spec.loader.exec_module(module)
    return module


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

    Each node's count of neighbours placed before it is counted over the
    arcs that point back along the order, a batch of arcs at a time
    (`_count_arcs`), so no array of the graph's size is built beside
    the CSR. Per-block running sums of
    these counts and of the degrees give every prefix's internal and cut
    edge counts as exact integers. The objective is then cut / l0 +
    cut / l1 in float64, the arithmetic of a node-by-node sweep.
    """
    n = len(order)
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    back = _count_arcs(
        lptr, lind, np.arange(n), lambda u, at, rows: pos[u] < pos[at][rows]
    )[order]
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


def refine_split(lptr, lind, side, iters):
    """Greedy single-node descent on the normalized-cut objective.

    `side` holds 0/1 per local node and is updated in place. A move is
    applied only if it strictly lowers the objective and leaves both
    sides nonempty. Runs at most `iters` passes over the nodes, in local
    id order, and at most `iters` accepted moves in total. Returns the
    final (cut, internal_0, internal_1) edge counts.

    Each node's count of neighbours on side 0 is kept up to date: a move
    changes only the counts of the mover's neighbours. So a pass costs
    one step per node plus the arcs of the nodes that move. The sides,
    counts and arcs are Python lists, and the objective is Python int
    and float arithmetic.
    """
    nloc = len(side)
    deg = np.diff(lptr)
    rows = np.repeat(np.arange(nloc), deg)
    on0 = side == 0
    zeros = np.bincount(rows[on0[lind]], minlength=nloc)
    # a side-1 node's neighbours on side 0 are its cut arcs
    i0 = int(zeros[on0].sum()) // 2
    cut = int(zeros[~on0].sum())
    i1 = len(lind) // 2 - i0 - cut
    n0 = int(on0.sum())
    n1 = nloc - n0
    zeros = zeros.tolist()
    deg = deg.tolist()
    ptr = lptr.tolist()
    nbr = lind.tolist()
    sides = side.tolist()
    old = _ncut(cut, i0, i1)
    moves = 0
    for _ in range(iters):
        moved = False
        for v in range(nloc):
            sv = sides[v]
            if (n0 if sv == 0 else n1) <= 1:
                continue
            # step +1 moves v to side 0, -1 to side 1
            a = zeros[v]
            b = deg[v] - a
            step = 1 if sv else -1
            ncut = cut + step * (b - a)
            ni0 = i0 + step * a
            ni1 = i1 - step * b
            new = _ncut(ncut, ni0, ni1)
            if new < old:
                sides[v] = 1 - sv
                for u in nbr[ptr[v] : ptr[v + 1]]:
                    zeros[u] += step
                cut, i0, i1, old = ncut, ni0, ni1, new
                n0 += step
                n1 -= step
                moved = True
                moves += 1
                if moves >= iters:
                    break
        if not moved or moves >= iters:
            break
    side[:] = sides
    return cut, i0, i1


def _ncut(cut, i0, i1):
    """The normalized cut of a split from its edge counts, inf when a
    side has no edge inside the cluster."""
    l0 = i0 + cut
    l1 = i1 + cut
    if l0 == 0 or l1 == 0:
        return np.inf
    return cut / l0 + cut / l1


def best_cluster_per_node(indptr, indices, owner, min_id, cand, p, group=None):
    """Pick the attachment target for each candidate node.

    `owner[u]` is the cluster index of u if u is a core node, else -1.
    A candidate qualifies for cluster c when it has >= p neighbors in
    c's core; among qualifying clusters the one with the largest
    count/core size ratio wins, ties broken by smaller `min_id`, which
    holds one id per cluster. With `group` (one id per node), an arc
    counts only when its ends share a group. Returns the chosen cluster
    index per candidate (-1 when none qualifies).

    The (candidate, cluster) pairs are counted over the candidates' arcs
    in `_row_batches`, and the qualifying pairs of every candidate are
    ranked by one lexsort. Ratios are compared as floats, which is exact
    here: each is at most 1, division is correctly rounded, and two
    different fractions with denominators below 2**26 differ by more
    than 2**-52, more than their rounding errors together.
    """
    ncl = len(min_id)
    core_size = np.bincount(owner[owner >= 0], minlength=ncl)
    assert not ncl or core_size.max() < 2**26
    pairs, counts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for lo, hi, heads, rows in _row_batches(indptr, indices, cand):
        c = owner[heads]
        keep = c >= 0
        if group is not None:
            keep &= group[heads] == group[cand[lo:hi]][rows]
        pair, cnt = np.unique((rows[keep] + lo) * ncl + c[keep], return_counts=True)
        keep = cnt >= p
        pairs.append(pair[keep])
        counts.append(cnt[keep])
    row, c = np.divmod(np.concatenate(pairs), ncl)
    cnt = np.concatenate(counts)
    best = np.lexsort((min_id[c], -cnt / core_size[c], row))
    row, c = row[best], c[best]
    first = run_starts(row)
    out = np.full(len(cand), -1, np.int64)
    out[row[first]] = c[first]
    return out
