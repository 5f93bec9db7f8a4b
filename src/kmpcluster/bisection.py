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
round with one `bipartition_many`. Both report every input node as
either clustered or explicitly discarded.
"""

from __future__ import annotations

import logging
import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from . import _kernels
from .clustering import Clustering, all_core, disjoint_concat, union_ids
from .errors import ConfigError
from .graph import Network
from .parallel import ordered_map
from .parsing import _core_split, _positive

log = logging.getLogger(__name__)

# Clusters up to this many nodes are split by trying every bipartition.
_EXACT_LIMIT = 15

_SPECTRAL_SEED = 20240917
_SPECTRAL_ITERS = 100


@dataclass
class BisectConfig:
    k: int
    _: KW_ONLY
    local_search_iters: int = 0
    max_rounds: int = 32

    def __post_init__(self):
        if self.k < 1:
            raise ConfigError(f"k must be at least 1, got {self.k}")
        if self.local_search_iters < 0:
            raise ConfigError("local_search_iters must be nonnegative")
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be at least 1")


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
    if len(np.intersect1d(a, b)):
        raise ValueError("parts overlap")
    side = np.full(net.n, -1, dtype=np.int8)
    side[a] = 0
    side[b] = 1
    nodes = np.union1d(a, b)
    cut, i0, i1 = _kernels.cut_counts(net.indptr, net.indices, side, nodes)
    l0 = i0 + cut
    l1 = i1 + cut
    if l0 == 0 or l1 == 0:
        log.warning(
            "normalized cut undefined: one part has no edges inside the cluster"
        )
        return math.inf
    return cut / l0 + cut / l1


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


def _block_dots(a, b, blocks, count):
    """`a[g] @ b[g]` for each g in `blocks`, 0.0 for the other blocks.

    `a` and `b` hold one view per block into a long vector, and each
    value is one BLAS dot product on two such views, the same call a
    block on its own would make (`.dot` reaches it with less overhead
    than `@`). Segmented sums (`reduceat`, `bincount`, `einsum`) add in
    another order and round differently.
    """
    out = np.zeros(count)
    out[blocks] = [a[g].dot(b[g]) for g in blocks]
    return out


def _spectral_orders(lptr, lind, starts):
    """Order each block's nodes by a diffusion eigenvector estimate.

    (lptr, lind) is a block-diagonal local CSR; block g holds the local
    ids starts[g] to starts[g + 1] - 1. Each block runs a power
    iteration on its lazy walk (I + D^-1 A) / 2, with the
    degree-weighted constant vector projected out each step, from a
    fixed-seed start vector, so its result depends only on its own
    subgraph. A block whose iterate vanishes keeps its last vector and
    stops; an edgeless block never moves. Ties in the final coordinates
    break by local id.

    All blocks step together, and each gets the floats of a run on its
    own: `matvec` sums every row in arc order, a block of n nodes starts
    from the first n draws of the generator, which are what a request
    for n draws returns, its scalars come from `_block_dots`, and
    everything else is elementwise. Returns the local ids in order,
    block after block.
    """
    sizes = np.diff(starts)
    count = len(sizes)
    block = np.repeat(np.arange(count), sizes)
    arcs = lptr[starts[1:]] - lptr[starts[:-1]]
    deg = np.diff(lptr).astype(np.float64)
    w = deg / np.maximum(arcs, 1).astype(np.float64)[block]
    x = np.random.default_rng(_SPECTRAL_SEED).standard_normal(sizes.max())
    x = x[np.arange(len(block)) - starts[block]]
    y = np.empty(len(block))
    bounds = np.column_stack([starts[:-1], starts[1:]]).tolist()
    wv, xv, yv = ([v[s:e] for s, e in bounds] for v in (w, x, y))
    moving = np.flatnonzero(arcs > 0).tolist()
    x -= np.repeat(_block_dots(wv, xv, moving, count), sizes)
    tmp = np.empty(len(block))
    safe = np.maximum(deg, 1.0)
    linked = deg > 0
    rows = np.repeat(np.arange(len(block)), np.diff(lptr))
    for _ in range(_SPECTRAL_ITERS):
        if not moving:
            break
        _kernels.matvec(lptr, lind, x, tmp, rows)
        y[:] = np.where(linked, 0.5 * x + 0.5 * tmp / safe, x)
        y -= np.repeat(_block_dots(wv, yv, moving, count), sizes)
        nrm = np.sqrt(_block_dots(yv, yv, moving, count))
        # blocks already stopped read 0 here and stay stopped
        step = ~(nrm < 1e-300)
        moving = np.flatnonzero(step).tolist()
        x = np.where(step[block], y / np.where(step, nrm, 1.0)[block], x)
    return np.lexsort((x, block))


def _split_block(nodes, lptr, lind, m_local, order, vals, cfg):
    """Bipartition one cluster given its local CSR.

    `order` and `vals` are the cluster's spectral order and sweep values
    when it has more than _EXACT_LIMIT nodes; smaller clusters are
    enumerated.
    """
    if m_local == 0:
        return nodes[:1], nodes[1:]
    if len(nodes) <= _EXACT_LIMIT:
        p0, p1 = _exact_bipartition(nodes, lptr, lind, m_local)
    else:
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
            _kernels.refine_split(
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
    sizes = np.fromiter(map(len, clusters), np.int64, len(clusters))
    # large clusters first, so their local CSR is a prefix of the whole
    perm = np.argsort(sizes <= _EXACT_LIMIT, kind="stable")
    nodes, block = disjoint_concat([clusters[i] for i in perm])
    lptr, lind = _kernels.extract_local_csr(
        net.indptr, net.indices, nodes, net.n, block
    )
    starts = np.concatenate([[0], np.cumsum(sizes[perm])])
    m_local = (lptr[starts[1:]] - lptr[starts[:-1]]) // 2
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
        return _split_block(clusters[i], lp, li, int(m_local[g]), *spectral, cfg)

    return ordered_map(finish, range(len(clusters)))


def bipartition(net: Network, nodes, cfg: BisectConfig):
    """Split one cluster in two; see `bipartition_many`."""
    return bipartition_many(net, [nodes], cfg)[0]


def _qualifying(net: Network, parts, k: int) -> np.ndarray:
    """The quality bar a split part must clear to be kept as final:
    nonempty, k-valid as an all-core cluster, and with positive
    modularity. One grouped pass screens all the disjoint `parts`."""
    nodes, part = disjoint_concat(parts)
    lptr, _ = _kernels.extract_local_csr(
        net.indptr, net.indices, nodes, net.n, part
    )
    size = np.bincount(part, minlength=len(parts))
    weak = np.bincount(part[np.diff(lptr) < k], minlength=len(parts))
    bounds = np.concatenate([[0], np.cumsum(size)])
    ls = np.diff(lptr[bounds]) // 2
    ds = np.diff(np.concatenate([[0], np.cumsum(net.degrees[nodes])])[bounds])
    return (size > 0) & (weak == 0) & _positive(int(net.m), ls, ds)


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
    parts screened in one grouped pass, so the input clusters must be
    disjoint; a node in two raises ValueError.

    Returns the final clustering and the discarded nodes. Every input
    node lands in exactly one of the two.
    """
    final: list[np.ndarray] = []
    dead: list[np.ndarray] = []
    pending = [c.nodes for c in clustering.clusters if c.size > 0]
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
    return Clustering([all_core(f) for f in final], net.n), union_ids(dead)


def iterative_split(
    net: Network, clustering: Clustering, cfg: BisectConfig
) -> tuple[Clustering, np.ndarray]:
    """Rounds of split-then-extract until clusters stop improving.

    Every active cluster is bipartitioned each round; each part is
    core-extracted at k and its positively-modular components advance.
    One `bipartition_many` bisects all clusters of a round, and one
    grouped `_core_split` extracts all their parts.
    A cluster none of whose parts yields an advancing component is
    finalized as it stands. After cfg.max_rounds rounds whatever is
    still active is finalized too (advancing clusters are always k-valid
    all-core with positive modularity, so the output contract holds).

    Returns the final clustering and the discarded nodes: members shaved
    off by core extraction along the way.
    """
    final: list[np.ndarray] = []
    dead: list[np.ndarray] = []
    active = [c.nodes for c in clustering.clusters if c.size > 0]
    for _ in range(cfg.max_rounds):
        if not active:
            break
        splittable = [nodes for nodes in active if len(nodes) >= 2]
        for nodes in active:
            if len(nodes) < 2:
                final.append(nodes)
        splits = bipartition_many(net, splittable, cfg)
        # parts 2i and 2i + 1 are the halves of cluster i
        split = _core_split(net, [half for pair in splits for half in pair], cfg.k)
        cluster = split.part // 2
        advancing = np.bincount(cluster[split.owner >= 0], minlength=len(splittable))
        final.extend(nodes for nodes, a in zip(splittable, advancing) if not a)
        dead.append(split.nodes[(split.owner < 0) & (advancing[cluster] > 0)])
        active = split.cores
    final.extend(active)
    return Clustering([all_core(f) for f in final], net.n), union_ids(dead)
