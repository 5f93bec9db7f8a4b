import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synth
from kmpcluster import (
    Cluster,
    Clustering,
    ConfigError,
    Network,
    _kernels,
    all_core,
    extract_cores,
    has_positive_modularity,
    kmp_parse,
    modularity,
    strict_filter,
    validate,
)


def test_modularity_of_whole_network_is_zero():
    rng = np.random.default_rng(3)
    net = synth.gnp_net(rng, 40, 0.2)
    assert modularity(net, range(net.n)) == 0.0


def test_modularity_disjoint_cliques():
    # two equal 5-cliques: each has l_s = L/2 and half the degree mass
    edges = synth.clique_edges(range(5)) + synth.clique_edges(range(5, 10))
    net = synth.net_from(edges)
    assert modularity(net, range(5)) == pytest.approx(0.25)
    assert has_positive_modularity(net, range(5))


def test_modularity_single_node_is_negative():
    net = synth.net_from(synth.clique_edges(range(4)))
    assert modularity(net, [0]) < 0
    assert not has_positive_modularity(net, [0])


def test_positivity_matches_fractions():
    rng = np.random.default_rng(17)
    net = synth.gnp_net(rng, 60, 0.12)
    for _ in range(300):
        size = int(rng.integers(1, 30))
        sub = rng.permutation(60)[:size]
        exact = oracles.modularity_fraction(net, sub) > 0
        assert has_positive_modularity(net, sub) == exact
        assert (modularity(net, sub) > 0) == exact or abs(
            modularity(net, sub)
        ) < 1e-12


def test_validate_flags_match_oracle():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(6, 60))
        net = synth.gnp_net(rng, n, rng.uniform(0.05, 0.3))
        if net.m == 0:
            continue
        sets = synth.random_clustering_sets(rng, n, max_clusters=3)
        clusters = []
        for s in sets:
            cut = int(rng.integers(0, len(s) + 1))
            perm = rng.permutation(s)
            clusters.append(Cluster(core=perm[:cut], noncore=perm[cut:]))
        clustering = Clustering(clusters, n)
        k = int(rng.integers(1, 6))
        p = int(rng.integers(1, 4))
        report = validate(net, clustering, k, p)
        for c, cv in zip(clustering.clusters, report.clusters):
            expect = oracles.validity_flags(net, c.core, c.noncore, k, p)
            assert (cv.k_valid, cv.m_valid, cv.p_valid) == expect


def test_validate_empty_core_never_kmp_valid():
    net = synth.net_from(synth.clique_edges(range(5)) + [(4, 5)])
    clustering = Clustering([Cluster(core=[], noncore=[0, 1])], net.n)
    report = validate(net, clustering, 2, 1)
    cv = report.clusters[0]
    assert cv.k_valid and not cv.m_valid and not cv.kmp_valid


def test_validate_gathers_from_the_network_once(monkeypatch):
    # each member's row of the network is gathered exactly once: a core
    # member's for the cores' subgraph, a non-core member's for its count
    real = _kernels._gather
    rows = []

    def recording(indptr, sub):
        rows.append((indptr is net.indptr, sub.tolist()))
        return real(indptr, sub)

    monkeypatch.setattr(_kernels, "_gather", recording)
    for seed in range(3):
        net, cores, periphery = synth.planted_instance(seed)
        clusters = [
            Cluster(core=core, noncore=[x for x, c in periphery.items() if c == i])
            for i, core in enumerate(cores)
        ]
        rows.clear()
        report = validate(net, Clustering(clusters, net.n), 5, 2)
        assert report.all_kmp_valid()
        assert all(whole for whole, _ in rows)
        members = [v for c in clusters for v in c.nodes.tolist()]
        assert sorted(v for _, sub in rows for v in sub) == sorted(members)


def test_validate_peak_memory_is_bounded_by_the_cores_subgraph(monkeypatch):
    # 400 planted clusters of 50 nodes, 70 % of them core: beside the
    # cores' subgraph, which its component pass needs, validate holds
    # n-sized arrays and a few batches; building the members' subgraph
    # took 2.1 times this bound
    rng = np.random.default_rng(9)
    n, size = 20_000, 50
    block = np.arange(n) // size
    inside = rng.integers(0, n // size, 160_000) * size
    u, v = (inside + rng.integers(0, size, (2, 160_000))).tolist()
    a, b = rng.integers(0, n, (2, 20_000)).tolist()
    net = Network.from_edges(u + a, v + b, n=n)
    core = rng.random(n) < 0.7
    clusters = [
        Cluster(core=np.flatnonzero(here & core), noncore=np.flatnonzero(here & ~core))
        for here in (block == c for c in range(n // size))
    ]
    monkeypatch.setattr(_kernels, "_BATCH", 1 << 11)
    tracemalloc.start()
    try:
        validate(net, Clustering(clusters, n), 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    owner = np.where(core, block, -1)
    rows = np.repeat(np.arange(n), np.diff(net.indptr))
    core_arcs = int(((owner[rows] >= 0) & (owner[rows] == owner[net.indices])).sum())
    cores_subgraph = 8 * core_arcs * 9 // 8  # grown by at most an eighth
    assert peak <= cores_subgraph + 16 * (8 * n) + 16 * 8 * _kernels._BATCH


def test_kmp_parse_pendant_demotion():
    # 12-clique with a 3-edge pendant, inside a larger network so the
    # clique's modularity is positive: the pendant becomes non-core
    edges = synth.clique_edges(range(12)) + [(0, 12), (1, 12), (2, 12)]
    edges += synth.clique_edges(range(13, 19))
    net = synth.net_from(edges)
    clustering = Clustering([all_core(range(13))], net.n)
    parsed, discarded = kmp_parse(net, clustering, 5, 2)
    assert len(parsed) == 1
    assert parsed.clusters[0].core.tolist() == list(range(12))
    assert parsed.clusters[0].noncore.tolist() == [12]
    assert len(discarded) == 0


def test_kmp_parse_drops_nonpositive_component():
    # half of a 20-clique: the candidate core survives the degree screen
    # but its modularity in this network is negative, so it is dropped
    net = synth.net_from(synth.clique_edges(range(20)))
    clustering = Clustering([all_core(range(10))], net.n)
    parsed, discarded = kmp_parse(net, clustering, 5, 2)
    assert len(parsed) == 0
    assert discarded.tolist() == list(range(10))


def test_kmp_parse_attaches_only_to_own_cluster():
    # y has two neighbors in clique A but sits in cluster B; it may only
    # re-attach within B, so it ends up unclustered
    a = list(range(6))
    b = list(range(6, 12))
    y = 12
    edges = synth.clique_edges(a) + synth.clique_edges(b)
    edges += [(a[0], y), (a[1], y), (b[0], 13)]
    net = synth.net_from(edges)
    clustering = Clustering([all_core(a), all_core(b + [y])], net.n)
    parsed, _ = kmp_parse(net, clustering, 3, 2)
    placed = set()
    for c in parsed.clusters:
        placed |= set(c.nodes.tolist())
    assert y not in placed


def test_kmp_parse_rejects_bad_thresholds():
    net = synth.net_from([(0, 1)])
    clustering = Clustering([all_core([0, 1])], net.n)
    with pytest.raises(ConfigError):
        kmp_parse(net, clustering, 3, 3)
    with pytest.raises(ConfigError):
        kmp_parse(net, clustering, 3, 0)


def test_validate_rejects_thresholds_below_1():
    # p >= k stays allowed: a report can say that no cluster is valid
    net = synth.net_from([(0, 1)])
    clustering = Clustering([all_core([0, 1])], net.n)
    for k, p in ((0, 1), (2, 0)):
        with pytest.raises(ConfigError):
            validate(net, clustering, k, p)
        with pytest.raises(ConfigError):
            strict_filter(net, clustering, k, p)
    assert not validate(net, clustering, 2, 3).all_kmp_valid()


def test_kmp_parse_all_low_degree_cluster_vanishes():
    # a cycle has no 3-core at all
    edges = synth.cycle_edges(range(8)) + synth.clique_edges(range(8, 13))
    net = synth.net_from(edges)
    clustering = Clustering([all_core(range(8))], net.n)
    parsed, discarded = kmp_parse(net, clustering, 3, 2)
    assert len(parsed) == 0
    assert len(discarded) == 0


def test_kmp_parse_fixed_point():
    edges = synth.clique_edges(range(8)) + synth.cycle_edges(range(8, 30))
    net = synth.net_from(edges)
    clustering = Clustering([all_core(range(8))], net.n)
    once, _ = kmp_parse(net, clustering, 4, 2)
    twice, _ = kmp_parse(net, once, 4, 2)
    assert once.same_clusters(twice)


def random_case(rng):
    n = int(rng.integers(8, 120))
    net = synth.gnp_net(rng, n, rng.uniform(0.03, 0.25))
    sets = synth.random_clustering_sets(rng, n)
    return net, Clustering([all_core(s) for s in sets], n)


def test_kmp_parse_output_always_valid():
    rng = np.random.default_rng(41)
    for _ in range(40):
        net, clustering = random_case(rng)
        if net.m == 0:
            continue
        k = int(rng.choice([3, 5, 10]))
        p = int(rng.integers(1, k))
        parsed, discarded = kmp_parse(net, clustering, k, p)
        report = validate(net, parsed, k, p)
        assert report.all_kmp_valid()
        assert len(np.unique(parsed.nodes)) == len(parsed.nodes)
        # discarded nodes really are gone
        member = parsed.member_mask()
        assert not member[discarded].any()


def test_kmp_parse_idempotent_on_random_inputs():
    rng = np.random.default_rng(43)
    for _ in range(20):
        net, clustering = random_case(rng)
        if net.m == 0:
            continue
        k = int(rng.choice([3, 4, 6]))
        p = int(rng.integers(1, k))
        once, _ = kmp_parse(net, clustering, k, p)
        twice, _ = kmp_parse(net, once, k, p)
        assert once.same_clusters(twice)


def test_kmp_parse_noncore_labels_stay_low():
    # no non-core member can reach core label k inside the final cluster:
    # if it could, the core extraction would have kept it
    from kmpcluster import core_labels

    rng = np.random.default_rng(47)
    for _ in range(20):
        net, clustering = random_case(rng)
        if net.m == 0:
            continue
        parsed, _ = kmp_parse(net, clustering, 4, 2)
        for c in parsed.clusters:
            if not len(c.noncore):
                continue
            lab = core_labels(net, c.nodes)
            by_node = dict(zip(lab.nodes.tolist(), lab.labels.tolist()))
            assert all(by_node[v] < 4 for v in c.noncore.tolist())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kmp_parse_property_fuzz(data):
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    net, clustering = random_case(rng)
    if net.m == 0:
        return
    k, p = data.draw(st.sampled_from([(5, 2), (3, 1), (4, 3)]))
    parsed, _ = kmp_parse(net, clustering, k, p)
    assert validate(net, parsed, k, p).all_kmp_valid()


@st.composite
def clustered_network(draw):
    """(net, clustering, k, p) for the grouped passes.

    Planted (k+1)- to (k+4)-cliques mostly share a cluster each, so many
    clusters have a derived core. Satellite nodes touch p-1 to p+1
    members of one clique and sit in a random cluster, often another
    clique's, so some bin members have p neighbours in a core of a
    cluster they are not in. Up to 24 more clusters of loose nodes have
    no derived core, and random edges add noise. Each cluster's members
    are cut at random into core and non-core, so some cores are empty.
    Node ids are shuffled so the clusters interleave.
    """
    k = draw(st.integers(min_value=3, max_value=5))
    p = draw(st.integers(min_value=1, max_value=k - 1))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    edges, cliques, n = [], [], 0
    for _ in range(int(rng.integers(1, 7))):
        size = int(rng.integers(k + 1, k + 5))
        cliques.append(np.arange(n, n + size))
        edges += synth.clique_edges(range(n, n + size))
        n += size
    for _ in range(int(rng.integers(0, 10))):
        clique = cliques[rng.integers(len(cliques))]
        count = min(len(clique), int(rng.integers(max(1, p - 1), p + 2)))
        edges += [(n, int(v)) for v in rng.choice(clique, count, replace=False)]
        n += 1
    n += int(rng.integers(0, 40))
    noise = rng.integers(0, n, (int(rng.integers(0, n)), 2))
    edges += [tuple(e) for e in noise.tolist()]
    n_clusters = len(cliques) + int(rng.integers(0, 25))
    label = rng.integers(-1, n_clusters, n)
    for i, clique in enumerate(cliques):
        label[clique[rng.random(len(clique)) < 0.85]] = i
    perm = rng.permutation(n)
    ends = perm[np.array(edges, dtype=np.int64)]
    net = Network.from_edges(ends[:, 0], ends[:, 1], n=n)
    clusters = []
    for i in range(n_clusters):
        members = rng.permutation(perm[label == i])
        cut = int(rng.integers(0, len(members) + 1))
        clusters.append(Cluster(core=members[:cut], noncore=members[cut:]))
    return net, Clustering(clusters, n), k, p


@settings(max_examples=100, deadline=None)
@given(case=clustered_network(), batch=st.sampled_from([1, 3, None]))
def test_grouped_parse_equals_union_of_one_cluster_parses(case, batch):
    net, clustering, k, p = case
    alone = [Clustering([c], net.n) for c in clustering.clusters]
    for parse, args in ((kmp_parse, (k, p)), (extract_cores, (k,))):
        with pytest.MonkeyPatch.context() as mp:
            if batch is not None:  # arcs read this many at a time
                mp.setattr(_kernels, "_BATCH", batch)
            out, dropped = parse(net, clustering, *args)
        singles = [parse(net, c, *args) for c in alone]
        union = Clustering([c for s, _ in singles for c in s.clusters], net.n)
        assert out.same_clusters(union)
        assert dropped.tolist() == sorted(v for _, d in singles for v in d.tolist())


@settings(max_examples=100, deadline=None)
@given(case=clustered_network(), batch=st.sampled_from([1, 3, None]))
def test_validate_matches_oracle_on_many_clusters(case, batch):
    net, clustering, k, p = case
    for checked in (clustering, kmp_parse(net, clustering, k, p)[0]):
        with pytest.MonkeyPatch.context() as mp:
            if batch is not None:  # arcs read this many at a time
                mp.setattr(_kernels, "_BATCH", batch)
            report = validate(net, checked, k, p)
        assert len(report.clusters) == len(checked)
        for c, cv in zip(checked.clusters, report.clusters):
            assert (cv.size, cv.core_size) == (c.size, len(c.core))
            expect = oracles.validity_flags(net, c.core, c.noncore, k, p)
            assert (cv.k_valid, cv.m_valid, cv.p_valid) == expect


def test_modularity_screen_is_exact_past_int64():
    # with L = 2^31, 4 * L * l_s and d_s^2 reach 2^64, past int64
    from kmpcluster.parsing import _positive

    m = 2**31
    ls = np.array([m - 1, m - 1, m // 2, 10, 0], dtype=np.int64)
    ds = np.array([2 * m - 3, 2 * m - 1, m, 2 * m, 0], dtype=np.int64)
    expect = [4 * m * int(a) > int(d) ** 2 for a, d in zip(ls, ds)]
    assert expect == [True, False, True, False, False]
    got = _positive(m, ls, ds)
    assert got.dtype == np.bool_ and got.tolist() == expect


def test_overlapping_clusters_are_rejected():
    # a clustering that puts a node in two clusters cannot be built, so
    # no stage ever sees one
    overlapping = [all_core(range(5)), all_core(range(4, 8))]
    # node 4 in the core of one cluster and the periphery of the other
    mixed = [Cluster(range(4), [4]), all_core(range(4, 8))]
    for clusters in (overlapping, mixed):
        with pytest.raises(ValueError, match="1 nodes appear in more than one"):
            Clustering(clusters, 20)


def test_strict_filter_keeps_only_valid():
    # an embedded 12-clique passes; a 10-cycle fails the degree screen
    edges = synth.clique_edges(range(12)) + [(12, 13)]
    edges += synth.cycle_edges(range(20, 30))
    net = synth.net_from(edges)
    good = all_core(range(12))
    bad = all_core(range(20, 30))
    kept, report = strict_filter(net, Clustering([good, bad], net.n), 5, 2)
    assert len(kept) == 1
    assert kept.clusters[0].core.tolist() == list(range(12))
    assert report.n_clusters == 2
    assert report.n_kmp_valid == 1


def test_strict_filter_inner_clique_rejected_up_to_k9():
    # 10-clique inside a 20-clique: k-valid up to k=9 but never
    # positive-modularity, so it is rejected at every k
    net = synth.net_from(synth.clique_edges(range(20)) + [(19, 20)])
    inner = Clustering([all_core(range(10))], net.n)
    for k in range(1, 10):
        kept, report = strict_filter(net, inner, k, min(2, k) if k > 1 else 1)
        assert len(kept) == 0
        assert report.clusters[0].k_valid
        assert not report.clusters[0].m_valid


def test_strict_filter_singletons_all_dropped():
    net = synth.net_from(synth.clique_edges(range(5)))
    singles = Clustering([all_core([v]) for v in range(5)], net.n)
    kept, _ = strict_filter(net, singles, 1, 1)
    assert len(kept) == 0


def test_extract_cores_shaves_pendants():
    # 12-clique with 5 pendant leaves; a helper triangle keeps the
    # clique's modularity positive inside the larger network
    edges = synth.clique_edges(range(12))
    edges += [(i, 12 + i) for i in range(5)]
    edges += synth.clique_edges(range(20, 23))
    net = synth.net_from(edges)
    clustering = Clustering([all_core(range(17))], net.n)
    cores, discarded = extract_cores(net, clustering, 5)
    assert len(cores) == 1
    assert cores.clusters[0].core.tolist() == list(range(12))
    assert len(cores.clusters[0].noncore) == 0
    assert len(discarded) == 0


def test_extract_cores_positive_screen():
    net = synth.net_from(synth.clique_edges(range(20)))
    inner = Clustering([all_core(range(12))], net.n)
    cores, discarded = extract_cores(net, inner, 5)
    assert len(cores) == 0
    assert discarded.tolist() == list(range(12))


def test_modularity_fraction_cross_check():
    rng = np.random.default_rng(53)
    net = synth.gnp_net(rng, 50, 0.15)
    for _ in range(50):
        sub = rng.permutation(50)[: int(rng.integers(1, 25))]
        frac = oracles.modularity_fraction(net, sub)
        assert modularity(net, sub) == pytest.approx(float(frac), abs=1e-12)
        assert isinstance(frac, Fraction)
