"""Seeded synthetic inputs for the three benchmark workloads.

Each generator draws everything from `numpy.random.default_rng(seed)`,
so one seed always gives the same files. It returns a `Generated`
record holding the endpoint arrays exactly as written (external ids,
before any de-duplication), the planted community of every node, and
for `repair` the partition handed to `kmpcluster parse`. The output
checks read these arrays, never the program's own view of the input.

Sizes are chosen so that one CLI run takes two to five seconds on two
cores without numba; the README gives the measured figures.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

K = 10
P = 2


@dataclass
class Generated:
    u: np.ndarray
    v: np.ndarray
    # planted community per node, as (external ids, labels)
    nodes: np.ndarray
    community: np.ndarray
    # input partition for `repair`, aligned with `nodes`
    partition: np.ndarray | None = None
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    # CLI arguments after `kmpcluster`; {edges}, {clustering} and {out}
    # are filled in per run
    argv: tuple[str, ...]
    generate: Callable[[int], Generated]
    why: str


# -- shared pieces -----------------------------------------------------


def _nine_digit_ids(rng, n: int) -> np.ndarray:
    """n distinct PubMed-like ids in 100000000..999999999."""
    return rng.choice(900_000_000, size=n, replace=False).astype(np.int64) + 100_000_000


def _doi_ids(rng, n: int) -> np.ndarray:
    """n distinct DOI-like string ids."""
    raw = rng.choice(10**9, size=n, replace=False)
    prefix = rng.integers(1000, 1100, size=n)
    return np.array(
        [f"10.{p}/j.{r:09d}" for p, r in zip(prefix.tolist(), raw.tolist())],
        dtype=object,
    )


def _planted_edges(rng, start, size, degree):
    """Uniform random pairs inside each block [start, start + size).

    Block c gets round(size * degree / 2) pairs, so its mean internal
    degree is about `degree` (self-loops and repeats are left in: the
    loader drops them, and the checks count distinct edges).
    """
    count = np.rint(size * degree / 2).astype(np.int64)
    block = np.repeat(np.arange(len(size)), count)
    a = start[block] + (rng.random(len(block)) * size[block]).astype(np.int64)
    b = start[block] + (rng.random(len(block)) * size[block]).astype(np.int64)
    return a, b


def _power_law_edges(rng, n: int, m: int, gamma: float):
    """Chung-Lu background: m pairs with endpoint weights ~ rank^(-1/(gamma-1))."""
    w = (np.arange(1, n + 1, dtype=np.float64)) ** (-1.0 / (gamma - 1.0))
    w = w[rng.permutation(n)]
    cdf = np.cumsum(w)
    cdf /= cdf[-1]
    a = np.searchsorted(cdf, rng.random(m), side="right")
    b = np.searchsorted(cdf, rng.random(m), side="right")
    return np.minimum(a, n - 1), np.minimum(b, n - 1)


def _lomax_quantiles(shape: float, count: int) -> np.ndarray:
    """The count mid-quantiles of numpy's Pareto (Lomax) law, ascending.

    Used in place of random draws for sizes and degrees, so that the
    heavy tail is the same in every seed and only the wiring changes;
    a handful of large draws would otherwise move a run's work by tens
    of percent from seed to seed.
    """
    q = (np.arange(count) + 0.5) / count
    return (1.0 - q) ** (-1.0 / shape) - 1.0


def _present(n: int, a, b) -> np.ndarray:
    """Indices of the nodes that appear in the edge list, sorted."""
    seen = np.zeros(n, dtype=bool)
    seen[a] = True
    seen[b] = True
    return np.flatnonzero(seen)


def _shuffled(rng, a, b):
    """Edges in random order, each written in a random direction."""
    order = rng.permutation(len(a))
    a, b = a[order], b[order]
    flip = rng.random(len(a)) < 0.5
    return np.where(flip, b, a), np.where(flip, a, b)


# -- generators --------------------------------------------------------


def generate_carve(seed: int) -> Generated:
    """Citation-like network for the IKC-heavy `carve` workload.

    Planted communities with Pareto mean internal degrees (12 up to 70)
    and Pareto sizes (15 up to 200, at least 1.3 times the degree plus
    5), paired in rank order, on top of a Chung-Lu background over all
    nodes with exponent 2.5 and mean degree 4. The spread of internal
    degrees gives many distinct top core labels, so IKC runs many rounds
    over the whole residual graph.
    """
    rng = np.random.default_rng(seed)
    n_comm = 90
    degree = np.minimum(12.0 + 6.0 * _lomax_quantiles(1.2, n_comm), 70.0)
    size = (15 + 10 * _lomax_quantiles(1.5, n_comm)).astype(np.int64)
    size = np.minimum(np.maximum(size, (1.3 * degree).astype(np.int64) + 5), 200)
    order = rng.permutation(n_comm)
    degree, size = degree[order], size[order]
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    n_planted = int(size.sum())
    n = n_planted + n_planted // 2
    a, b = _planted_edges(rng, start, size, degree)
    c, d = _power_law_edges(rng, n, 2 * n, 2.5)
    u, v = _shuffled(rng, np.concatenate([a, c]), np.concatenate([b, d]))
    ids = _nine_digit_ids(rng, n)
    community = np.full(n, -1, dtype=np.int64)
    community[:n_planted] = np.repeat(np.arange(n_comm), size)
    keep = _present(n, u, v)
    return Generated(
        u=ids[u],
        v=ids[v],
        nodes=ids[keep],
        community=community[keep],
        info={"communities": n_comm, "planted_nodes": n_planted},
    )


# split: community sizes rise by one or two nodes from one community to
# the next, so a group left whole has purity at most about 0.51.
SPLIT_GROUP_SIZES = (2, 3, 4, 5, 2)
SPLIT_DEGREE_SIBLING = 2.0
SPLIT_DEGREE_OUT = 0.5


def generate_split(seed: int) -> Generated:
    """Groups of 2 to 5 planted communities, for the bisection-heavy `split`.

    Group g has SPLIT_GROUP_SIZES[g] communities, of 24 to 35 nodes in
    all, with mean internal degree 24 + 2g, so each group has its own
    top core label and IKC carves the groups out one per round. Each
    node has on average SPLIT_DEGREE_SIBLING edges to the other
    communities of its group and SPLIT_DEGREE_OUT edges to random nodes
    anywhere. Ids are DOI-like strings, so the loader takes its string
    path.
    """
    rng = np.random.default_rng(seed)
    per_group = np.array(SPLIT_GROUP_SIZES)
    n_groups = len(per_group)
    group_of = np.repeat(np.arange(n_groups), per_group)
    share = (np.arange(len(group_of)) + 0.5) / len(group_of)
    size = (24 * (1.0 + 0.5 * share)).astype(np.int64)
    degree = 24.0 + 2.0 * group_of
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    n = int(size.sum())
    community = np.repeat(np.arange(len(size)), size)
    group_node = group_of[community]
    a, b = _planted_edges(rng, start, size, degree)

    # sibling links: a random node of the group, outside the node's own community
    gsize = np.bincount(group_node, minlength=n_groups)
    gstart = np.concatenate([[0], np.cumsum(gsize)[:-1]])
    n_sib = int(round(n * SPLIT_DEGREE_SIBLING / 2))
    s = rng.integers(0, n, size=n_sib)
    t = gstart[group_node[s]] + (rng.random(n_sib) * gsize[group_node[s]]).astype(np.int64)
    sib = community[s] != community[t]
    s, t = s[sib], t[sib]

    n_out = int(round(n * SPLIT_DEGREE_OUT / 2))
    x = rng.integers(0, n, size=n_out)
    y = rng.integers(0, n, size=n_out)

    u, v = _shuffled(rng, np.concatenate([a, s, x]), np.concatenate([b, t, y]))
    ids = _doi_ids(rng, n)
    keep = _present(n, u, v)
    return Generated(
        u=ids[u],
        v=ids[v],
        nodes=ids[keep],
        community=community[keep],
        info={"groups": n_groups, "communities": int(len(size))},
    )


REPAIR_FLIP = 0.10


def generate_repair(seed: int) -> Generated:
    """Large sparse citation-like network plus a noisy Leiden-like partition.

    Every node sits in one of 1200 planted communities; sizes are 16
    plus a Pareto tail (capped at 100), mean internal degrees 12 to 30,
    and a Chung-Lu background with exponent 2.5 and mean degree 4 links
    everything. The partition is the planted one with REPAIR_FLIP of the
    nodes moved to a random other cluster, so it covers every node with
    small clusters of which many need repair.
    """
    rng = np.random.default_rng(seed)
    n_comm = 1200
    size = np.minimum(16 + (10 * _lomax_quantiles(2.0, n_comm)).astype(np.int64), 100)
    size = size[rng.permutation(n_comm)]
    degree = np.minimum(12.0 + 18.0 * (np.arange(n_comm) + 0.5) / n_comm, size - 1.0)
    start = np.concatenate([[0], np.cumsum(size)[:-1]])
    n = int(size.sum())
    a, b = _planted_edges(rng, start, size, degree)
    c, d = _power_law_edges(rng, n, 2 * n, 2.5)
    u, v = _shuffled(rng, np.concatenate([a, c]), np.concatenate([b, d]))
    community = np.repeat(np.arange(n_comm), size)
    partition = community.copy()
    flip = np.flatnonzero(rng.random(n) < REPAIR_FLIP)
    shift = rng.integers(1, n_comm, size=len(flip))
    partition[flip] = (partition[flip] + shift) % n_comm
    ids = _nine_digit_ids(rng, n)
    keep = _present(n, u, v)
    return Generated(
        u=ids[u],
        v=ids[v],
        nodes=ids[keep],
        community=community[keep],
        partition=partition[keep],
        info={"communities": n_comm, "flipped": int(len(flip))},
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="carve",
            threads=1,
            argv=("pipeline", "{edges}", "--k", str(K), "--p", str(P),
                  "--stage2", "none", "--stage3", "on", "--out", "{out}"),
            generate=generate_carve,
            why="heavy-tailed cores make IKC re-peel the residual graph for many rounds",
        ),
        Workload(
            name="split",
            threads=2,
            argv=("pipeline", "{edges}", "--k", str(K), "--p", str(P),
                  "--stage2", "iterative", "--local-search", "2000",
                  "--out", "{out}"),
            generate=generate_split,
            why="IKC finds groups of communities and spectral bisection must split them; string ids",
        ),
        Workload(
            name="repair",
            threads=1,
            argv=("parse", "{edges}", "{clustering}", "--k", str(K), "--p", str(P),
                  "--out", "{out}"),
            generate=generate_repair,
            why="kmp repair of a noisy partition of 1200 small clusters on a large sparse graph: many small peels",
        ),
    )
}


# -- files -------------------------------------------------------------


def write_inputs(gen: Generated, workdir: Path) -> dict:
    """Write the edge list (and partition) into workdir.

    Returns the file names relative to workdir, which is where the CLI
    runs, so that run.json and the artifact digests do not depend on
    where the checkout lives.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "edges.tsv").write_text(
        "".join(f"{a}\t{b}\n" for a, b in zip(gen.u.tolist(), gen.v.tolist()))
    )
    paths = {"edges": "edges.tsv"}
    if gen.partition is not None:
        (workdir / "partition.tsv").write_text(
            "".join(
                f"{a}\t{c}\n"
                for a, c in zip(gen.nodes.tolist(), gen.partition.tolist())
            )
        )
        paths["clustering"] = "partition.tsv"
    return paths
