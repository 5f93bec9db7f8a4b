import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synth
from kmpcluster import (
    Clustering,
    ConfigError,
    Network,
    _kernels,
    core_labels,
    degeneracy,
    has_positive_modularity,
    ikc,
    kcore_clusters,
    mcd,
    subset_degrees,
)


def clique_star_net():
    # 100-clique disjoint from a star with 2000 leaves
    edges = synth.clique_edges(range(100)) + synth.star_edges(100, range(101, 2101))
    return synth.net_from(edges)


def test_labels_clique_and_star():
    net = clique_star_net()
    lab = core_labels(net)
    full = dict(zip(lab.nodes.tolist(), lab.labels.tolist()))
    assert all(full[v] == 99 for v in range(100))
    assert full[100] == 1
    assert all(full[v] == 1 for v in range(101, 2101))


def test_labels_on_path():
    net = synth.net_from(synth.path_edges(range(4)))
    assert core_labels(net).labels.tolist() == [1, 1, 1, 1]


def test_labels_within_subset():
    # inside {0..4} of a 6-clique, each node has 4 neighbors
    net = synth.net_from(synth.clique_edges(range(6)))
    lab = core_labels(net, within=range(5))
    assert lab.labels.tolist() == [4] * 5
    lab = core_labels(net, within=[])
    assert lab.labels.dtype == np.int64 and not len(lab.labels)


def test_labels_match_deletion_oracle():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(3, 70))
        net = synth.gnp_net(rng, n, rng.uniform(0.02, 0.25))
        lab = core_labels(net)
        expect = oracles.core_labels_by_deletion(oracles.adjacency(net))
        assert dict(zip(lab.nodes.tolist(), lab.labels.tolist())) == expect


def test_kcore_clusters_of_clique_star():
    net = clique_star_net()
    for k in (2, 50, 99):
        clusters = kcore_clusters(net, k)
        assert len(clusters) == 1
        assert clusters.clusters[0].core.tolist() == list(range(100))
    assert len(kcore_clusters(net, 100)) == 0


def test_kcore_clusters_many_components():
    # 13 disjoint triangles, k=1 gives 13 clusters
    edges = []
    for i in range(13):
        edges.extend(synth.clique_edges(range(3 * i, 3 * i + 3)))
    net = synth.net_from(edges)
    assert len(kcore_clusters(net, 1)) == 13
    assert len(kcore_clusters(net, 3)) == 0


def test_kcore_k_zero_coerced(caplog):
    net = synth.net_from(synth.clique_edges(range(4)))
    with caplog.at_level("WARNING"):
        clusters = kcore_clusters(net, 0)
    assert "k=0" in caplog.text
    assert clusters.same_clusters(kcore_clusters(net, 1))


def test_degeneracy_values():
    assert degeneracy(clique_star_net()) == 99
    net = synth.net_from(synth.path_edges(range(10)))
    assert degeneracy(net) == 1
    rng = np.random.default_rng(5)
    net = synth.gnp_net(rng, 80, 0.08)
    d = degeneracy(net)
    assert len(kcore_clusters(net, d)) > 0
    assert len(kcore_clusters(net, d + 1)) == 0


def test_ikc_two_cliques():
    # two disjoint 12-cliques: both are top cores with positive modularity
    edges = synth.clique_edges(range(12)) + synth.clique_edges(range(12, 24))
    net = synth.net_from(edges)
    clusters = ikc(net, 5)
    assert len(clusters) == 2
    assert clusters.clusters[0].core.tolist() == list(range(12))
    assert clusters.clusters[1].core.tolist() == list(range(12, 24))


def test_ikc_single_clique_rejected():
    # one 10-clique alone is the whole network: modularity exactly 0
    net = synth.net_from(synth.clique_edges(range(10)))
    assert len(ikc(net, 3)) == 0


def test_ikc_above_degeneracy_empty():
    net = clique_star_net()
    assert len(ikc(net, 100)) == 0


def test_ikc_peel_and_support_count_stay_within_n_sized_scratch(monkeypatch):
    # above the degeneracy, ikc is the whole-network peel and the first
    # support count: both read the network's CSR as it is, so beside a
    # few batches only n-sized arrays are live; with a local copy of the
    # CSR and arc-sized support arrays it took 4.1 times this bound
    rng = np.random.default_rng(9)
    n = 20_000
    net = Network.from_edges(*rng.integers(0, n, (2, 120_000)), n=n)
    k = degeneracy(net) + 1
    monkeypatch.setattr(_kernels, "_BATCH", 1 << 11)
    tracemalloc.start()
    try:
        assert len(ikc(net, k)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (8 * n) + 16 * 8 * _kernels._BATCH


def test_ikc_peels_layers():
    # a 10-clique and a separate 6-clique, bridged to a big sparse rim:
    # top core (the 10-clique) comes out first, then the 6-clique
    edges = synth.clique_edges(range(10)) + synth.clique_edges(range(10, 16))
    edges += synth.cycle_edges(range(16, 60))
    edges += [(10, 16), (15, 30)]
    net = synth.net_from(edges)
    clusters = ikc(net, 3)
    cores = [c.core.tolist() for c in clusters]
    assert list(range(10)) in cores
    assert list(range(10, 16)) in cores


def test_ikc_clusters_are_k_valid_positive():
    rng = np.random.default_rng(31)
    for _ in range(10):
        net = synth.gnp_net(rng, 90, 0.1)
        for k in (3, 5):
            for c in ikc(net, k):
                assert subset_degrees(net, c.core).min() >= k
                assert mcd(net, c) >= k
                assert has_positive_modularity(net, c.core)
                assert len(c.noncore) == 0


def test_ikc_nesting():
    rng = np.random.default_rng(37)
    for _ in range(10):
        net = synth.gnp_net(rng, 70, 0.12)
        coarse = {tuple(c.core.tolist()) for c in ikc(net, 3)}
        for kp in (4, 6, 9):
            fine = {tuple(c.core.tolist()) for c in ikc(net, kp)}
            assert fine <= coarse


def test_ikc_requires_positive_k():
    net = synth.net_from([(0, 1)])
    with pytest.raises(ValueError):
        ikc(net, 0)
    with pytest.raises(ConfigError, match="k must be at least 1"):
        ikc(net, 0)


def test_clustering_sorted_by_smallest_member():
    edges = synth.clique_edges(range(20, 26)) + synth.clique_edges(range(6))
    net = synth.net_from(edges)
    clusters = ikc(net, 4)
    assert [c.min_id for c in clusters] == sorted(c.min_id for c in clusters)
    assert isinstance(clusters, Clustering)


@st.composite
def carved_network(draw):
    """Planted cliques of distinct sizes over a noise background, with
    chains and isolated nodes, ids shuffled: many distinct top cores."""
    sizes = draw(st.lists(st.integers(2, 12), max_size=5, unique=True))
    chains = draw(st.lists(st.integers(2, 40), max_size=3))
    n_isolated = draw(st.integers(0, 5))
    edges = []
    n = 0
    for size in sizes:
        edges += synth.clique_edges(range(n, n + size))
        n += size
    for size in chains:
        edges += synth.path_edges(range(n, n + size))
        n += size
    n += n_isolated + 2
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node), max_size=2 * n))
    edges.append((n - 2, n - 1))
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    ends = perm[np.array(edges, dtype=np.int64)]
    return Network.from_edges(ends[:, 0], ends[:, 1], n=n)


@settings(max_examples=150, deadline=None)
@given(net=carved_network(), k=st.integers(1, 6), batch=st.sampled_from([1, 3, None]))
def test_ikc_matches_full_repeel_oracle(net, k, batch):
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # arcs read this many at a time
            mp.setattr(_kernels, "_BATCH", batch)
        got = ikc(net, k)
    want = oracles.ikc(net, k)
    assert [c.core.tolist() for c in got] == [c.core.tolist() for c in want]


def test_ikc_on_a_cycle_left_by_its_clique():
    # the two paths the clique leaves drop to label 1 one node per wave
    net = synth.clique_with_cycle(12, 400, 1000)
    for k in (1, 2):
        got = ikc(net, k)
        assert got.same_clusters(oracles.ikc(net, k))
        assert got.clusters[0].core.tolist() == list(range(12))
    assert [c.size for c in ikc(net, 1)] == [12, 199, 199]


def test_ikc_keeps_clusters_of_two_rounds_apart():
    # round 1 rejects three triangles, whose 12 leaves a node leave them
    # no modularity, and keeps the fourth, its component 3; round 2
    # keeps the edge, its component 0, which must not join component 3
    edges = synth.clique_edges(range(9, 12)) + [(12, 13)]
    for t in range(3):
        edges += synth.clique_edges(range(3 * t, 3 * t + 3))
    leaves = iter(range(14, 14 + 9 * 12))
    edges += [(v, next(leaves)) for v in range(9) for _ in range(12)]
    net = synth.net_from(edges)
    got = ikc(net, 1)
    assert got.same_clusters(oracles.ikc(net, 1))
    assert [c.core.tolist() for c in got] == [[9, 10, 11], [12, 13]]


def supports(adj, lab, v) -> int:
    return sum(1 for u in adj[v] if lab[u] >= lab[v])


@settings(max_examples=100, deadline=None)
@given(net=carved_network(), data=st.data(), batch=st.sampled_from([1, 3, None]))
def test_settle_keeps_core_numbers_over_deletions(net, data, batch):
    """After each deletion, settling gives the residual's core numbers
    and the exact supports of every labelled node, whatever the number
    of arcs a wave reads at a time."""
    adj = oracles.adjacency(net)
    lab = core_labels(net).labels.copy()
    sup = np.array([supports(adj, lab, v) for v in range(net.n)], np.int64)
    mark = np.zeros(net.n, np.bool_)
    alive = set(range(net.n))
    for _ in range(data.draw(st.integers(1, 8))):
        if not alive:
            break
        if data.draw(st.booleans()):
            top = max(lab[v] for v in alive)
            gone = {v for v in alive if lab[v] == top}
        else:
            gone = set(data.draw(st.sets(st.sampled_from(sorted(alive)), min_size=1)))
        alive -= gone
        old = {v: int(lab[v]) for v in gone}
        lab[list(gone)] = 0
        for d in gone:
            for u in adj[d]:
                if 0 < lab[u] <= old[d]:
                    sup[u] -= 1
        violators = np.array(sorted(u for u in alive if sup[u] < lab[u]), np.int64)
        with pytest.MonkeyPatch.context() as mp:
            if batch is not None:
                mp.setattr(_kernels, "_BATCH", batch)
            _kernels.settle(net.indptr, net.indices, lab, sup, violators, mark)
        want = oracles.core_labels_by_deletion(adj, alive)
        assert lab.tolist() == [want.get(v, 0) for v in range(net.n)]
        for v in alive:
            if lab[v]:
                assert sup[v] == supports(adj, lab, v)
        assert not mark.any()
