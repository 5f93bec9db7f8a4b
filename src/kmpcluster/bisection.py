"""Cluster refinement by repeated two-way splits.

The splitting objective is the normalized cut with edge-count
normalization: cut(A, B) / links(A, C) + cut(A, B) / links(B, C), where
links(X, C) counts edges with at least one endpoint in X and both in
C = A + B. Small clusters are split exactly by enumeration; larger ones
get a spectral ordering, a sweep over its prefixes, and optionally a
greedy single-node descent.

`bipartition_many` splits many disjoint clusters at once. Their
subgraphs form one block-diagonal local CSR, so the power iterations of
all spectral clusters step together and one sweep scores every prefix
of every ordering; each cluster still gets, bit for bit, the split a
call on it alone gives. `bipartition` is the one-cluster case.

Two drivers turn splits into clusterings: `recursive_split` keeps
splitting whatever fails the quality bar, `iterative_split` runs
synchronized rounds of split-then-extract. Each bisects a whole wave or
round in one batch. A round's clusters are subsets of the parts the
round before kept, so `iterative_split` gathers from the network once:
every later local graph comes from the one before it. Both report
every input node as either clustered or explicitly discarded.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from . import _kernels
from .clustering import Clustering, concat, disjoint_concat, split_by, union_ids
from .errors import BisectConfig
from .graph import Network
from .parallel import ordered_map
from .parsing import Subgraph, _core_split, _positive_groups

log = logging.getLogger(__name__)

# Clusters up to this many nodes are split by trying every bipartition.
_EXACT_LIMIT = 15

_SPECTRAL_SEED = 20240917
_SPECTRAL_ITERS = 100


def normalized_cut(net: Network, c1, c2) -> float:
    """Normalized cut between two disjoint nonempty node sets.

    When one side has no incident edges inside the union its links term
    is zero and the value is +inf (logged, since it usually means a
    degenerate split rather than a sensible input).
    """
    a = net.subset(c1)
    b = net.subset(c2)
    if not len(a) or not len(b):
        raise ValueError("both parts must be nonempty")
    nodes, part = disjoint_concat([a, b])
    side = np.full(net.n, -1, dtype=np.int8)
    side[nodes] = part
    ncut = _kernels._ncut(*_kernels.cut_counts(net.indptr, net.indices, side, nodes))
    if ncut == math.inf:
        log.warning(
            "normalized cut undefined: one part has no edges inside the cluster"
        )
    return ncut


# The masks `_exact_bipartition` adds a node to, which hold only the
# first _EXACT_LIMIT - 2 nodes of a cluster, and their counts of set bits.
_MASKS = np.arange(1 << (_EXACT_LIMIT - 2), dtype=np.int16)
_POPCOUNT = np.unpackbits(_MASKS.view(np.uint8).reshape(-1, 2), axis=1).sum(
    axis=1, dtype=np.uint8
)
_MASKS.flags.writeable = _POPCOUNT.flags.writeable = False


def _exact_bipartition(lptr, lind):
    """Global minimum over all 2^(n-1) - 1 bipartitions of a local CSR,
    as two arrays of local ids.

    Membership of side 0 is encoded in the bits of a mask; the last node
    is pinned to side 1 so each split is enumerated once. Ties go to the
    smallest mask, which is deterministic.

    The edges inside every mask S and its degree sum are filled in by
    doubling: adding node j to a mask S of nodes below j adds
    |N(j) ∩ S|, a popcount, to the first and deg(j) to the second. The
    cut is then the degree sum less twice the edges inside, the same
    integer a count over the edges gives.
    """
    nloc = len(lptr) - 1
    deg = np.diff(lptr)
    # the neighbours of each node as a mask
    adj = np.zeros(nloc, np.int64)
    np.add.at(adj, np.repeat(np.arange(nloc), deg), np.left_shift(1, lind))
    half = 1 << (nloc - 1)
    i0 = np.zeros(half, np.int64)
    dsum = np.zeros(half, np.int64)
    for j in range(nloc - 1):
        s = 1 << j
        np.add(i0[:s], _POPCOUNT[_MASKS[:s] & adj[j]], out=i0[s : 2 * s])
        np.add(dsum[:s], deg[j], out=dsum[s : 2 * s])
    # mask 0 leaves side 0 empty
    i0 = i0[1:]
    cut = dsum[1:] - 2 * i0
    i1 = len(lind) // 2 - i0 - cut
    l0 = i0 + cut
    l1 = i1 + cut
    with np.errstate(divide="ignore", invalid="ignore"):
        obj = np.where((l0 > 0) & (l1 > 0), cut / l0 + cut / l1, np.inf)
    best = int(np.argmin(obj)) + 1
    bits = (best >> np.arange(nloc, dtype=np.int64)) & 1
    return np.flatnonzero(bits == 1), np.flatnonzero(bits == 0)


def _spectral_orders(lptr, lind, starts):
    """Order each block's nodes by a diffusion eigenvector estimate.

    (lptr, lind) is a block-diagonal local CSR; block g holds the local
    ids starts[g] to starts[g + 1] - 1. Each block runs a power
    iteration on its lazy walk (I + D^-1 A) / 2, with the
    degree-weighted constant vector projected out each step, from a
    fixed-seed start vector, so its result depends only on its own
    subgraph. Ties in the final coordinates break by local id.

    All blocks step together, and each gets the floats of a run on its
    own: `matvec` sums every row in arc order, a block of n nodes starts
    from the first n draws of the generator, which are what a request
    for n draws returns, and everything but the scalars is elementwise. The product's entries, a 1.0 per arc,
    are built once per call, and no step allocates a per-arc array.
    Each block's scalars are BLAS dot products on its views into the
    long vectors, the call a block on its own makes (`.dot` reaches it
    with less overhead than `@`); segmented sums (`reduceat`,
    `bincount`, `einsum`) add in another order and round differently.

    An edgeless block is still from the start, and a block whose
    iterate vanishes is still from then on: it keeps its vector to the
    end, since each step gives it y = x and a norm of 1.0. An edgeless
    block's weights are all 0, so its projections are dots that give
    ±0.0 and leave its start vector as it is. Returns the local ids in
    order, block after block.
    """
    sizes = np.diff(starts)
    nb = len(sizes)
    block = np.repeat(np.arange(nb), sizes)
    arcs = lptr[starts[1:]] - lptr[starts[:-1]]
    deg = np.diff(lptr).astype(np.float64)
    w = deg / np.maximum(arcs, 1).astype(np.float64)[block]
    x = np.random.default_rng(_SPECTRAL_SEED).standard_normal(sizes.max())
    x = x[np.arange(len(block)) - starts[block]]
    y = np.empty(len(block))
    bounds = np.column_stack([starts[:-1], starts[1:]]).tolist()
    wv, xv, yv = ([v[s:e] for s, e in bounds] for v in (w, x, y))
    dot = np.ndarray.dot
    x -= np.fromiter(map(dot, wv, xv), np.float64, nb).repeat(sizes)
    tmp = np.empty(len(block))
    safe = np.maximum(deg, 1.0)
    # y = 0.5 * x + 0.5 * tmp / safe, and x where a node has no arc, whose
    # product is 0.0: the factor on x is 1.0 there
    half = np.where(deg == 0, 1.0, 0.5)
    # scipy's product takes one index dtype for both arrays, and reads
    # int32 heads as fast as int64 ones
    index = np.int32 if len(lind) < 2**31 else np.int64
    lptr, lind = lptr.astype(index, copy=False), lind.astype(index, copy=False)
    ones = np.ones(len(lind))
    still = arcs == 0
    for _ in range(_SPECTRAL_ITERS):
        _kernels.matvec(lptr, lind, x, tmp, ones)
        np.multiply(x, half, out=y)
        tmp *= 0.5
        tmp /= safe
        y += tmp
        y -= np.fromiter(map(dot, wv, yv), np.float64, nb).repeat(sizes)
        nrm = np.sqrt(np.fromiter(map(dot, yv, yv), np.float64, nb))
        still |= nrm < 1e-300
        nrm[still] = 1.0
        np.copyto(y, x, where=still.repeat(sizes))
        np.divide(y, nrm.repeat(sizes), out=x)
    return np.lexsort((x, block))


def _split_block(lptr, lind, order, vals, cfg):
    """Bipartition one cluster given its local CSR, as two arrays of
    local ids.

    `order` and `vals` are the cluster's spectral order and sweep values
    when it has more than _EXACT_LIMIT nodes; smaller clusters are
    enumerated.
    """
    nloc = len(lptr) - 1
    if not len(lind):
        return np.arange(1), np.arange(1, nloc)
    if nloc <= _EXACT_LIMIT:
        p0, p1 = _exact_bipartition(lptr, lind)
    else:
        t = int(np.argmin(vals)) + 1
        side = np.ones(nloc, dtype=np.int8)
        side[order[:t]] = 0
        if cfg.local_search_iters > 0:
            _kernels.refine_split(lptr, lind, side, cfg.local_search_iters)
        p0 = np.flatnonzero(side == 0)
        p1 = np.flatnonzero(side == 1)
    if p1[0] < p0[0]:
        p0, p1 = p1, p0
    return p0, p1


def bipartition_many(net: Network, clusters, cfg: BisectConfig) -> list:
    """Split each of the disjoint `clusters` in two, minimizing the
    normalized cut; one (p0, p1) pair per cluster, in input order.

    Clusters of at most 15 nodes are solved exactly. Larger clusters are
    cut at the best prefix of a spectral ordering, then refined by up to
    cfg.local_search_iters passes of strictly-improving single-node
    moves. The part containing the smallest node id comes first.

    One grouped pass builds the local CSR of every cluster, and the
    spectral orderings and their sweeps run once for all large clusters
    together, which give each cluster the very split it would get on
    its own. The cut, exact enumeration and refinement then run per
    cluster through `ordered_map`. Raises ValueError when a cluster has
    fewer than 2 nodes or a node lies in two clusters.
    """
    clusters = [net.subset(c) for c in clusters]
    if any(len(c) < 2 for c in clusters):
        raise ValueError("cannot bipartition fewer than 2 nodes")
    disjoint_concat(clusters)  # raises when a node lies in two clusters
    block, halves = _bisect([Subgraph(net.indptr, net.indices)], clusters, cfg)
    return [(block.ids[p0], block.ids[p1]) for p0, p1 in halves]


def _bisect(graphs: list, clusters, cfg: BisectConfig):
    """`bipartition_many` on clusters given as local ids of a graph.

    `graphs` holds that one graph, and `_bisect` takes it out: once the
    subgraph of the clusters is gathered, nothing holds the graph, so
    it is freed before the power iterations start. At paper scale each
    of the two takes hundreds of MiB.

    The clusters must be disjoint, and each cluster's local ids must
    rise with its network ids. Returns the subgraph the clusters induce,
    with the arcs between clusters dropped, and each cluster's two parts
    as local ids of that subgraph.
    """
    graph = graphs.pop()
    sizes = np.fromiter(map(len, clusters), np.int64, len(clusters))
    # large clusters first, so their local CSR is a prefix of the whole
    perm = np.argsort(sizes <= _EXACT_LIMIT, kind="stable")
    sub, block = concat([clusters[i] for i in perm])
    lptr, lind = _kernels.extract_local_csr(graph.indptr, graph.indices, sub, block)
    ids = graph.nodes(sub)
    del graph
    starts = np.concatenate([[0], np.cumsum(sizes[perm])])
    nbig = int((sizes > _EXACT_LIMIT).sum())
    order = vals = None
    if nbig:
        top = starts[nbig]
        csr = lptr[: top + 1], lind[: lptr[top]]
        order = _spectral_orders(*csr, starts[: nbig + 1])
        vals = _kernels.sweep_objective(*csr, order, starts[: nbig + 1])
    slot = np.empty(len(clusters), np.int64)
    slot[perm] = np.arange(len(clusters))

    def finish(i):
        g = slot[i]
        s, e = starts[g], starts[g + 1]
        lp = lptr[s : e + 1] - lptr[s]
        li = lind[lptr[s] : lptr[e]] - s
        spectral = (order[s:e] - s, vals[s : e - 1]) if g < nbig else (None, None)
        return tuple(p + s for p in _split_block(lp, li, *spectral, cfg))

    halves = ordered_map(finish, range(len(clusters)))
    return Subgraph(lptr, lind, ids), halves


def bipartition(net: Network, nodes, cfg: BisectConfig):
    """Split one cluster in two; see `bipartition_many`."""
    return bipartition_many(net, [nodes], cfg)[0]


def _qualifying(net: Network, parts, k: int) -> np.ndarray:
    """The quality bar a split part must clear to be kept as final:
    nonempty, k-valid as an all-core cluster, and with positive
    modularity. One grouped pass screens all the disjoint `parts`."""
    nodes, part = concat(parts)
    local = _kernels._local(net.n, nodes, part)
    deg = _kernels._count_arcs(  # each node's degree inside its part
        net.indptr, net.indices, nodes, lambda *arcs: local(*arcs)[1]
    )
    size = np.bincount(part, minlength=len(parts))
    weak = np.bincount(part[deg < k], minlength=len(parts))
    positive = _positive_groups(net, deg, nodes, part, len(parts))
    return (size > 0) & (weak == 0) & positive


def recursive_split(
    net: Network, clustering: Clustering, cfg: BisectConfig
) -> tuple[Clustering, np.ndarray]:
    """Split clusters until the pieces pass the quality bar.

    Each pending cluster is bipartitioned. If both parts qualify, both
    are final. If neither does, the cluster itself is kept when it
    qualifies and discarded otherwise (a re-queued part that still fails
    after its own split has nowhere left to go). If exactly one part
    qualifies it becomes final and the sibling is re-queued, unless the
    sibling has fewer than k + 1 nodes, too few to ever qualify, in
    which case it is discarded.

    The pending clusters of a wave are bisected in one batch, and their
    parts screened in one grouped pass.

    Returns the final clustering and the discarded nodes. Every input
    node lands in exactly one of the two.
    """
    final: list[np.ndarray] = []
    dead: list[np.ndarray] = []
    pending = split_by(clustering.cluster, clustering.nodes, len(clustering))
    while pending:
        wave, pending = pending, []
        # a lone node has no neighbour inside, so it is never k-valid
        dead.extend(nodes for nodes in wave if len(nodes) < 2)
        splittable = [nodes for nodes in wave if len(nodes) >= 2]
        splits = bipartition_many(net, splittable, cfg)
        halves = [half for pair in splits for half in pair]
        good = _qualifying(net, halves, cfg.k).reshape(-1, 2)
        neither = ~good.any(axis=1)
        whole = np.zeros(len(splittable), np.bool_)
        whole[neither] = _qualifying(
            net, [nodes for nodes, n in zip(splittable, neither) if n], cfg.k
        )
        for nodes, (p0, p1), (q0, q1), w in zip(splittable, splits, good, whole):
            if q0 and q1:
                final.append(p0)
                final.append(p1)
            elif not q0 and not q1:
                (final if w else dead).append(nodes)
            else:
                winner, sibling = (p0, p1) if q0 else (p1, p0)
                final.append(winner)
                if len(sibling) >= cfg.k + 1:
                    pending.append(sibling)
                else:
                    dead.append(sibling)
    return Clustering.of(net.n, *concat(final)), union_ids(dead)


def iterative_split(
    net: Network, clustering: Clustering, cfg: BisectConfig
) -> tuple[Clustering, np.ndarray]:
    """Rounds of split-then-extract until clusters stop improving.

    Every active cluster is bipartitioned each round; each part is
    core-extracted at k and its positively-modular components advance.
    One batch bisects all clusters of a round, and one grouped
    `_core_split` extracts all their parts. Only the first round's batch
    gathers its local graph from the network; each later round works on
    the subgraph the round before bisected, in its local ids.
    A cluster none of whose parts yields an advancing component is
    finalized as it stands. After cfg.max_rounds rounds whatever is
    still active is finalized too (advancing clusters are always k-valid
    all-core with positive modularity, so the output contract holds).

    Returns the final clustering and the discarded nodes: members shaved
    off by core extraction along the way.
    """
    final: list[np.ndarray] = []
    dead: list[np.ndarray] = []
    active = split_by(clustering.cluster, clustering.nodes, len(clustering))
    # `base` holds the graph whose local ids `local` gives the active
    # clusters in: the network at first, then the subgraph of the last
    # round's clusters, which holds all their parts. Only `base` holds it
    # between rounds, so that `_bisect` can free it once it has gathered
    # the round's own subgraph.
    base, local = [Subgraph(net.indptr, net.indices)], active
    for _ in range(cfg.max_rounds):
        if not active:
            break
        two = [len(nodes) >= 2 for nodes in active]
        final.extend(nodes for nodes, t in zip(active, two) if not t)
        splittable = [nodes for nodes, t in zip(active, two) if t]
        block, halves = _bisect(base, [c for c, t in zip(local, two) if t], cfg)
        # parts 2i and 2i + 1 are the halves of cluster i
        parts = [half for pair in halves for half in pair]
        split = _core_split(net, *concat(parts), cfg.k, block)
        cluster = split.part // 2
        advancing = np.bincount(cluster[split.owner >= 0], minlength=len(splittable))
        final.extend(nodes for nodes, a in zip(splittable, advancing) if not a)
        dead.append(split.nodes[(split.owner < 0) & (advancing[cluster] > 0)])
        active = split_by(split.owner, split.nodes, split.count)
        local = split_by(split.owner, split.local, split.count)
        # only `base` may hold a graph into the next round
        base.append(block)
        del block
    final.extend(active)
    return Clustering.of(net.n, *concat(final)), union_ids(dead)
