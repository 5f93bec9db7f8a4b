import numpy as np
import pytest

import oracles
import synth
from kmpcluster import Clustering, ConfigError, _kernels, all_core, augment


def build(net, cores):
    return Clustering([all_core(c) for c in cores], net.n)


def membership(result):
    """{node: index of the cluster it joined as non-core}."""
    out = {}
    for i, c in enumerate(result.clusters):
        for v in c.noncore.tolist():
            out[v] = i
    return out


def test_prefers_higher_core_ratio_not_raw_count():
    # 5 neighbors among 1000 cores loses to 10 among 20
    c1 = list(range(1000))
    c2 = list(range(1000, 1020))
    x = 1020
    edges = [(x, v) for v in c1[:5]] + [(x, v) for v in c2[:10]]
    edges += synth.path_edges(c1) + synth.path_edges(c2)
    net = synth.net_from(edges, n=1021)
    result = augment(net, build(net, [c1, c2]), p=2)
    winner = next(c for c in result.clusters if 1000 in c.core.tolist())
    assert winner.noncore.tolist() == [x]
    loser = next(c for c in result.clusters if 0 in c.core.tolist())
    assert loser.noncore.size == 0


def test_below_threshold_stays_unclustered():
    c1 = list(range(5))
    edges = synth.clique_edges(c1) + [(5, 0)]
    net = synth.net_from(edges)
    result = augment(net, build(net, [c1]), p=2)
    assert membership(result) == {}
    assert result.unclustered().tolist() == [5]


def test_spread_neighbors_do_not_pool():
    # one neighbor in each of three clusters is three ineligible options
    cores = [[0, 1], [2, 3], [4, 5]]
    edges = [(0, 1), (2, 3), (4, 5), (6, 0), (6, 2), (6, 4)]
    net = synth.net_from(edges)
    result = augment(net, build(net, cores), p=2)
    assert membership(result) == {}


def test_tie_breaks_toward_smaller_min_id():
    cores = [[3, 4], [10, 11]]
    edges = [(3, 4), (10, 11), (0, 3), (0, 4), (0, 10), (0, 11)]
    net = synth.net_from(edges)
    result = augment(net, build(net, cores), p=2)
    winner = next(c for c in result.clusters if 3 in c.core.tolist())
    assert winner.noncore.tolist() == [0]


def test_no_iterated_attachment():
    # y's only neighbor is x, which joins as non-core; non-core members
    # attract nobody, so y stays out
    edges = synth.clique_edges(range(4)) + [(4, 0), (4, 1), (5, 4)]
    net = synth.net_from(edges)
    result = augment(net, build(net, [range(4)]), p=2)
    assert membership(result) == {4: 0}
    assert 5 in result.unclustered().tolist()


def test_singleton_input_clusters_dissolve():
    edges = synth.clique_edges(range(4)) + [(4, 0), (4, 1)]
    net = synth.net_from(edges)
    clustering = Clustering([all_core(range(4)), all_core([4])], net.n)
    result = augment(net, clustering, p=2)
    assert len(result) == 1
    assert result.clusters[0].core.tolist() == [0, 1, 2, 3]
    assert result.clusters[0].noncore.tolist() == [4]


def test_cores_never_modified():
    rng = np.random.default_rng(88)
    for _ in range(10):
        net = synth.gnp_net(rng, 60, 0.12)
        cores = [c for c in synth.random_clustering_sets(rng, 60) if len(c) >= 2]
        if not cores:
            continue
        before = [c.tolist() for c in cores]
        result = augment(net, build(net, cores), p=2)
        after = sorted((c.core.tolist() for c in result.clusters))
        assert after == sorted(before)
        assert len(np.unique(result.nodes)) == len(result.nodes)


def test_matches_scan_oracle_under_shuffles():
    rng = np.random.default_rng(3119)
    for _ in range(12):
        n = int(rng.integers(20, 80))
        net = synth.gnp_net(rng, n, rng.uniform(0.08, 0.3))
        cores = [c for c in synth.random_clustering_sets(rng, n) if len(c) >= 2]
        if not cores:
            continue
        p = int(rng.integers(1, 4))
        clustering = build(net, cores)
        result = augment(net, clustering, p)
        got = membership(result)
        in_cluster = set()
        for c in clustering.clusters:
            in_cluster.update(c.nodes.tolist())
        candidates = [v for v in range(n) if v not in in_cluster]
        core_sets = [set(c.core.tolist()) for c in result.clusters]
        for shuffle in range(3):
            order = list(rng.permutation(candidates))
            want = oracles.assign_by_scan(net, core_sets, candidates, p, order)
            assert got == want


def test_matches_scan_oracle_on_thousands_of_clusters():
    # 2000 triangles, and 600 candidates each tied to 1 to 3 nodes of
    # each of 3 triangles: many ties in ratio, and many clusters that
    # gain nobody
    rng = np.random.default_rng(2207)
    cores = np.arange(6000).reshape(2000, 3)
    edges = [e for c in cores.tolist() for e in synth.clique_edges(c)]
    candidates = list(range(6000, 6600))
    for x in candidates:
        for c in rng.choice(len(cores), 3, replace=False):
            ends = rng.choice(cores[c], int(rng.integers(1, 4)), replace=False)
            edges += [(x, int(y)) for y in ends]
    net = synth.net_from(edges, n=6600)
    result = augment(net, build(net, cores), p=2)
    core_sets = [set(c.core.tolist()) for c in result.clusters]
    assert len(core_sets) == 2000
    want = oracles.assign_by_scan(net, core_sets, candidates, 2)
    assert want and membership(result) == want
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_BATCH", 7)  # the candidates' arcs a few at a time
        assert membership(augment(net, build(net, cores), p=2)) == want


def test_added_nodes_are_p_valid():
    rng = np.random.default_rng(515)
    for _ in range(8):
        net = synth.gnp_net(rng, 50, 0.15)
        cores = [c for c in synth.random_clustering_sets(rng, 50) if len(c) >= 2]
        if not cores:
            continue
        p = int(rng.integers(1, 3))
        result = augment(net, build(net, cores), p)
        adj = oracles.adjacency(net)
        for c in result.clusters:
            core = set(c.core.tolist())
            for v in c.noncore.tolist():
                assert len(adj[v] & core) >= p


def test_rejects_bad_p():
    net = synth.net_from([(0, 1)])
    with pytest.raises(ConfigError):
        augment(net, build(net, [[0, 1]]), p=0)
