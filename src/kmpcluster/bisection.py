"""Cluster refinement by repeated two-way splits.

The splitting objective is the normalized cut with edge-count
normalization: cut(A, B) / links(A, C) + cut(A, B) / links(B, C), where
links(X, C) counts edges with at least one endpoint in X and both in
C = A + B. Small clusters are split exactly by enumeration; larger ones
get a spectral ordering, a sweep over its prefixes, and optionally a
greedy single-node descent.

Two drivers turn splits into clusterings: `recursive_split` keeps
splitting whatever fails the quality bar, `iterative_split` runs
synchronized rounds of split-then-extract. Both report every input node
as either clustered or explicitly discarded.
"""

from __future__ import annotations

import logging
import math
from dataclasses import KW_ONLY, dataclass

import numpy as np

from . import _kernels
from .clustering import Clustering, all_core, union_ids
from .errors import ConfigError
from .graph import Network, subset_degrees
from .parallel import ordered_map
from .parsing import _core_split, has_positive_modularity

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


def _spectral_order(lptr, lind):
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
    rows = np.repeat(np.arange(nloc), np.diff(lptr))
    for _ in range(_SPECTRAL_ITERS):
        _kernels.matvec(lptr, lind, x, tmp, rows)
        y = np.where(linked, 0.5 * x + 0.5 * tmp / safe, x)
        y -= w @ y
        nrm = np.linalg.norm(y)
        if nrm < 1e-300:
            break
        x = y / nrm
    return np.argsort(x, kind="stable")


def bipartition(net: Network, nodes, cfg: BisectConfig):
    """Split one cluster in two, minimizing the normalized cut.

    Clusters of at most 15 nodes are solved exactly. Larger clusters are
    cut at the best prefix of a spectral ordering, then refined by up to
    cfg.local_search_iters passes of strictly-improving single-node
    moves. The part containing the smallest node id comes back first.
    """
    nodes = net.subset(nodes)
    if len(nodes) < 2:
        raise ValueError("cannot bipartition fewer than 2 nodes")
    lptr, lind = _kernels.extract_local_csr(net.indptr, net.indices, nodes, net.n)
    m_local = len(lind) // 2
    if m_local == 0:
        return nodes[:1], nodes[1:]
    if len(nodes) <= _EXACT_LIMIT:
        p0, p1 = _exact_bipartition(nodes, lptr, lind, m_local)
    else:
        order = _spectral_order(lptr, lind)
        vals = _kernels.sweep_objective(lptr, lind, order, m_local)
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


def _qualifies(net: Network, nodes, k: int) -> bool:
    """The quality bar a split part must clear to be kept as final:
    k-valid as an all-core cluster, with positive modularity."""
    if len(nodes) == 0:
        return False
    if subset_degrees(net, nodes).min() < k:
        return False
    return has_positive_modularity(net, nodes)


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

    Returns the final clustering and the discarded nodes. Every input
    node lands in exactly one of the two.
    """
    final: list[np.ndarray] = []
    dead: list[np.ndarray] = []
    pending = [c.nodes for c in clustering.clusters if c.size > 0]
    while pending:
        wave, pending = pending, []
        splittable = [nodes for nodes in wave if len(nodes) >= 2]
        tiny = [nodes for nodes in wave if len(nodes) < 2]
        for nodes in tiny:
            (final if _qualifies(net, nodes, cfg.k) else dead).append(nodes)
        splits = ordered_map(lambda s: bipartition(net, s, cfg), splittable)
        for nodes, (p0, p1) in zip(splittable, splits):
            q0 = _qualifies(net, p0, cfg.k)
            q1 = _qualifies(net, p1, cfg.k)
            if q0 and q1:
                final.append(p0)
                final.append(p1)
            elif not q0 and not q1:
                if _qualifies(net, nodes, cfg.k):
                    final.append(nodes)
                else:
                    dead.append(nodes)
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
    One grouped `_core_split` extracts all parts of a round together.
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
        splits = ordered_map(lambda s: bipartition(net, s, cfg), splittable)
        # parts 2i and 2i + 1 are the halves of cluster i
        split = _core_split(net, [half for pair in splits for half in pair], cfg.k)
        cluster = split.part // 2
        advancing = np.bincount(cluster[split.owner >= 0], minlength=len(splittable))
        final.extend(nodes for nodes, a in zip(splittable, advancing) if not a)
        dead.append(split.nodes[(split.owner < 0) & (advancing[cluster] > 0)])
        active = split.cores
    final.extend(active)
    return Clustering([all_core(f) for f in final], net.n), union_ids(dead)
