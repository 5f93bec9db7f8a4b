import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synth
from kmpcluster import (
    BisectConfig,
    Clustering,
    ConfigError,
    Network,
    all_core,
    bipartition,
    bipartition_many,
    has_positive_modularity,
    iterative_split,
    normalized_cut,
    recursive_split,
    subset_degrees,
)
from kmpcluster import _kernels, bisection
from kmpcluster.clustering import disjoint_concat


def two_cliques_bridged(size, bridges=1):
    """Two disjoint `size`-cliques {0..size-1} and {size..2*size-1},
    joined by `bridges` edges pairing the lowest members."""
    edges = synth.clique_edges(range(size))
    edges += synth.clique_edges(range(size, 2 * size))
    for t in range(bridges):
        edges.append((t, size + t))
    return synth.net_from(edges)


def single_cluster(net, nodes):
    return Clustering([all_core(nodes)], net.n)


def obj_fraction(net, a, b):
    return oracles.ncut_fraction(oracles.adjacency(net), a, b)


# ---------------------------------------------------------------- normalized_cut


def test_ncut_two_cliques_one_bridge():
    net = two_cliques_bridged(5)
    # cut 1, each side 10 internal + 1 cut incident edge
    got = normalized_cut(net, range(5), range(5, 10))
    assert got == pytest.approx(1 / 11 + 1 / 11)
    assert Fraction(got).limit_denominator(10**6) == obj_fraction(
        net, range(5), range(5, 10)
    )


def test_ncut_disconnected_parts_is_zero():
    edges = synth.clique_edges(range(4)) + synth.clique_edges(range(4, 8))
    net = synth.net_from(edges)
    assert normalized_cut(net, range(4), range(4, 8)) == 0.0


def test_ncut_six_cycle_antipodal():
    net = synth.net_from(synth.cycle_edges(range(6)))
    # each side: 2 internal edges + 2 cut edges incident
    got = normalized_cut(net, [0, 1, 2], [3, 4, 5])
    assert got == pytest.approx(1.0)
    assert obj_fraction(net, [0, 1, 2], [3, 4, 5]) == Fraction(1)


def test_ncut_edgeless_side_is_inf():
    # node 3 is isolated inside the pair of sets: no links, undefined
    net = synth.net_from(synth.clique_edges(range(3)) + [(4, 5)])
    assert math.isinf(normalized_cut(net, [0, 1, 2], [3]))


def test_ncut_rejects_bad_parts():
    net = synth.net_from(synth.clique_edges(range(4)))
    with pytest.raises(ValueError):
        normalized_cut(net, [], [1, 2])
    with pytest.raises(ValueError):
        normalized_cut(net, [0, 1], [1, 2])


def test_ncut_matches_oracle_on_random_parts():
    rng = np.random.default_rng(71)
    for _ in range(20):
        net = synth.gnp_net(rng, int(rng.integers(6, 30)), 0.3)
        nodes = rng.permutation(net.n)
        cutat = int(rng.integers(1, net.n))
        a, b = nodes[:cutat], nodes[cutat:]
        want = obj_fraction(net, a, b)
        got = normalized_cut(net, a, b)
        if want is None:
            assert math.isinf(got)
        else:
            assert got == pytest.approx(float(want))


# ------------------------------------------------------------------ bipartition


CFG5 = BisectConfig(k=5)


def test_bipartition_rejects_tiny():
    net = synth.net_from([(0, 1)])
    with pytest.raises(ValueError):
        bipartition(net, [0], CFG5)


def test_bipartition_two_nodes():
    net = synth.net_from([(0, 1)])
    p0, p1 = bipartition(net, [0, 1], CFG5)
    assert p0.tolist() == [0]
    assert p1.tolist() == [1]


def test_bipartition_edgeless_cluster():
    # cluster with no internal edges: any split is as good as any other
    net = synth.net_from([(0, 1)], n=5)
    p0, p1 = bipartition(net, [2, 3, 4], CFG5)
    assert sorted(p0.tolist() + p1.tolist()) == [2, 3, 4]
    assert len(p0) and len(p1)


def test_bipartition_cuts_the_bridge():
    net = two_cliques_bridged(5)
    p0, p1 = bipartition(net, range(10), CFG5)
    assert p0.tolist() == [0, 1, 2, 3, 4]
    assert p1.tolist() == [5, 6, 7, 8, 9]


def test_bipartition_bridge_family_both_branches():
    # sizes 4..7 solve exactly, size 8 (16 nodes) goes spectral
    for size in (4, 5, 6, 7, 8):
        net = two_cliques_bridged(size)
        p0, p1 = bipartition(net, range(2 * size), BisectConfig(k=3))
        assert p0.tolist() == list(range(size))
        assert p1.tolist() == list(range(size, 2 * size))


def test_bipartition_separates_pendant_from_clique():
    edges = synth.clique_edges(range(4)) + [(3, 4)]
    net = synth.net_from(edges)
    p0, p1 = bipartition(net, range(5), CFG5)
    best, side = oracles.exhaustive_min_ncut(oracles.adjacency(net), range(5))
    assert obj_fraction(net, p0, p1) == best
    assert frozenset(p0.tolist()) in (side, frozenset(range(5)) - side)


def test_bipartition_six_cycle_antipodal():
    net = synth.net_from(synth.cycle_edges(range(6)))
    p0, p1 = bipartition(net, range(6), BisectConfig(k=2))
    got = obj_fraction(net, p0, p1)
    best, _ = oracles.exhaustive_min_ncut(oracles.adjacency(net), range(6))
    assert best == Fraction(1)
    assert got == best
    # minimizers are the six antipodal 3+3 splits: three consecutive nodes
    a = sorted(p0.tolist())
    assert len(a) == 3
    assert {(a[0] + 1) % 6, (a[0] + 2) % 6} == set(a[1:]) or {
        (a[2] + 1) % 6,
        (a[2] + 2) % 6,
    } == {a[0], a[1]}


def test_bipartition_splits_disconnected_cluster_for_free():
    edges = synth.clique_edges(range(3)) + [(3, 4)]
    net = synth.net_from(edges)
    p0, p1 = bipartition(net, range(5), CFG5)
    assert normalized_cut(net, p0, p1) == 0.0
    assert sorted(p0.tolist()) == [0, 1, 2]
    assert sorted(p1.tolist()) == [3, 4]


def test_bipartition_matches_exhaustive_oracle():
    rng = np.random.default_rng(407)
    checked = 0
    for _ in range(12):
        n = int(rng.integers(6, 14))
        net = synth.gnp_net(rng, n, rng.uniform(0.25, 0.6))
        adj = oracles.adjacency(net)
        best, _ = oracles.exhaustive_min_ncut(adj, range(n))
        if best is None:
            continue
        p0, p1 = bipartition(net, range(n), BisectConfig(k=2))
        assert obj_fraction(net, p0, p1) == best
        checked += 1
    assert checked >= 8


def test_bipartition_smallest_id_comes_first():
    rng = np.random.default_rng(55)
    for _ in range(10):
        net = synth.gnp_net(rng, 12, 0.4)
        p0, p1 = bipartition(net, range(12), BisectConfig(k=2))
        assert p0[0] == min(p0[0], p1[0])
        assert sorted(p0.tolist() + p1.tolist()) == list(range(12))


def test_bipartition_local_search_never_hurts():
    rng = np.random.default_rng(901)
    for _ in range(8):
        n = int(rng.integers(18, 40))
        net = synth.gnp_net(rng, n, 0.25)
        if net.m == 0:
            continue
        plain = bipartition(net, range(n), BisectConfig(k=2))
        refined = bipartition(
            net, range(n), BisectConfig(k=2, local_search_iters=2000)
        )
        vp = obj_fraction(net, *plain)
        vr = obj_fraction(net, *refined)
        assert vr is not None and vp is not None
        assert vr <= vp


def test_bipartition_local_search_keeps_clean_bridge_cut():
    net = two_cliques_bridged(8)
    cfg = BisectConfig(k=3, local_search_iters=2000)
    p0, p1 = bipartition(net, range(16), cfg)
    assert p0.tolist() == list(range(8))
    assert p1.tolist() == list(range(8, 16))


# ------------------------------------------------------------ exact enumeration


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=15),
    kind=st.sampled_from(["edgeless", "pieces", "complete", "isolated", "random"]),
)
def test_exact_enumeration_matches_the_arc_loop(seed, n, kind):
    rng = np.random.default_rng(seed)
    a, b = np.triu_indices(n, k=1)
    keep = rng.random(len(a)) < rng.uniform(0.1, 0.9)
    if kind == "edgeless":
        keep[:] = False
    elif kind == "complete":
        keep[:] = True
    elif kind == "pieces":
        cut = int(rng.integers(1, n))
        keep &= (a < cut) == (b < cut)
    elif kind == "isolated":
        keep &= b < int(rng.integers(1, n))
    # shuffled local ids, so isolated members and pieces interleave
    perm = rng.permutation(n)
    net = Network.from_edges(perm[a[keep]], perm[b[keep]], n=n)
    nodes = np.sort(rng.choice(10 * n, size=n, replace=False))
    m_local = len(net.indices) // 2
    got = bisection._exact_bipartition(net.indptr, net.indices)
    want = oracles._exact_bipartition(nodes, net.indptr, net.indices, m_local)
    assert [nodes[p].tobytes() for p in got] == [p.tobytes() for p in want]


# ------------------------------------------------------------- bipartition_many


@st.composite
def block_case(draw):
    """(net, clusters): disjoint clusters of every kind stage 2 meets.

    Kinds: up to 15 nodes (enumerated), edgeless, two pieces with no
    edge between them, a graph with isolated members, and a plain
    random graph of more than 15 nodes. Noise edges join clusters to one
    another and to nodes outside every cluster, and the ids are shuffled
    so clusters interleave.
    """
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = draw(
        st.lists(
            st.sampled_from(["small", "edgeless", "pieces", "isolated", "large"]),
            min_size=1,
            max_size=7,
        )
    )
    us, vs, clusters, n = [], [], [], 0

    def gnp(ids, prob):
        iu = np.triu_indices(len(ids), k=1)
        keep = rng.random(len(iu[0])) < prob
        us.append(ids[iu[0][keep]])
        vs.append(ids[iu[1][keep]])

    for kind in kinds:
        size = int(rng.integers(2, 16) if kind == "small" else rng.integers(16, 40))
        ids = np.arange(n, n + size)
        n += size
        prob = rng.uniform(0.1, 0.7)
        if kind in ("small", "large"):
            gnp(ids, prob)
        elif kind == "pieces":
            cut = int(rng.integers(1, size))
            gnp(ids[:cut], prob)
            gnp(ids[cut:], prob)
        elif kind == "isolated":
            gnp(ids[: int(rng.integers(2, size - 1))], prob)
        clusters.append(ids)
    n += int(rng.integers(2, 8))
    noise = int(rng.integers(1, 3 * len(kinds) + 2))
    us.append(rng.integers(0, n, noise))
    vs.append(rng.integers(0, n, noise))
    u, v = np.concatenate(us), np.concatenate(vs)
    perm = rng.permutation(n)
    net = Network.from_edges(perm[u[u != v]], perm[v[u != v]], n=n)
    return net, [perm[c] for c in clusters]


@settings(max_examples=80, deadline=None)
@given(case=block_case(), iters=st.sampled_from([0, 3, 200]))
def test_bipartition_many_matches_one_cluster_oracle(case, iters):
    net, clusters = case
    cfg = BisectConfig(k=2, local_search_iters=iters)
    got = bipartition_many(net, clusters, cfg)
    assert len(got) == len(clusters)
    for nodes, (p0, p1) in zip(clusters, got):
        q0, q1 = oracles.bipartition(net, nodes, cfg)
        assert p0.tobytes() == q0.tobytes()
        assert p1.tobytes() == q1.tobytes()


def _block_csr(net, parts):
    nodes, block = disjoint_concat(parts)
    lptr, lind = _kernels.extract_local_csr(net.indptr, net.indices, nodes, block)
    starts = np.concatenate([[0], np.cumsum([len(p) for p in parts])])
    return lptr, lind, starts


@settings(max_examples=80, deadline=None)
@given(case=block_case())
def test_spectral_orders_and_sweeps_match_one_block_oracle(case):
    net, clusters = case
    parts = [net.subset(c) for c in clusters]
    lptr, lind, starts = _block_csr(net, parts)
    order = bisection._spectral_orders(lptr, lind, starts)
    vals = _kernels.sweep_objective(lptr, lind, order, starts)
    rng = np.random.default_rng(len(order))
    shuffled = np.concatenate(
        [s + rng.permutation(e - s) for s, e in zip(starts[:-1], starts[1:])]
    )
    shuffled_vals = _kernels.sweep_objective(lptr, lind, shuffled, starts)
    for nodes, s, e in zip(parts, starts[:-1], starts[1:]):
        lp, li = _kernels.extract_local_csr(net.indptr, net.indices, nodes)
        m_local = len(li) // 2
        assert vals[e - 1] == np.inf
        for seq, got in ((order, vals), (shuffled, shuffled_vals)):
            want = oracles.sweep_objective(lp, li, seq[s:e] - s, m_local)
            assert got[s : e - 1].tobytes() == want.tobytes()
        if m_local:
            want = oracles.spectral_order(lp, li)
            assert (order[s:e] - s).tobytes() == want.tobytes()


def test_a_vanishing_block_stops_alone(monkeypatch):
    # with this product every row of degree 4 gives y = 0 exactly, so the
    # 4-regular ring's iterate vanishes at the first step while the
    # random graph's goes on; each block must end as it would alone
    for module in (_kernels, oracles):
        real = module.matvec

        def vanishing(lptr, lind, x, out, *ones, real=real):
            real(lptr, lind, x, out, *ones)
            out[:] = np.where(np.diff(lptr) == 4, -4.0 * x, out)

        monkeypatch.setattr(module, "matvec", vanishing)
    rng = np.random.default_rng(5)
    ring = synth.circulant_edges(20, (1, 2))
    iu = np.triu_indices(24, k=1)
    keep = rng.random(len(iu[0])) < 0.3
    edges = ring + list(zip(iu[0][keep] + 20, iu[1][keep] + 20))
    net = synth.net_from(edges)
    parts = [np.arange(20), np.arange(20, 44)]
    lptr, lind, starts = _block_csr(net, parts)
    order = bisection._spectral_orders(lptr, lind, starts)
    for nodes, s, e in zip(parts, starts[:-1], starts[1:]):
        lp, li = _kernels.extract_local_csr(net.indptr, net.indices, nodes)
        want = oracles.spectral_order(lp, li)
        assert (order[s:e] - s).tobytes() == want.tobytes()
    cfg = BisectConfig(k=2)
    for got, nodes in zip(bipartition_many(net, parts, cfg), parts):
        want = oracles.bipartition(net, nodes, cfg)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def test_a_block_that_vanishes_mid_run_keeps_its_last_vector(monkeypatch):
    # only the 5th product gives the rows of degree 4 y = 0 exactly, so
    # the 4-regular ring's iterate vanishes there and it must keep the
    # vector of the 4th step to the end, while an edgeless block keeps
    # its start vector and the random graph goes on stepping
    reals = {module: module.matvec for module in (_kernels, oracles)}

    def vanish_at_the_fifth_product():
        products = itertools.count(1)
        for module, real in reals.items():

            def vanishing(lptr, lind, x, out, *ones, real=real):
                real(lptr, lind, x, out, *ones)
                if next(products) == 5:
                    out[:] = np.where(np.diff(lptr) == 4, -4.0 * x, out)

            monkeypatch.setattr(module, "matvec", vanishing)

    rng = np.random.default_rng(5)
    ring = synth.circulant_edges(20, (1, 2))
    iu = np.triu_indices(24, k=1)
    keep = rng.random(len(iu[0])) < 0.3
    random = list(zip(iu[0][keep] + 40, iu[1][keep] + 40))
    net = synth.net_from(ring + random, n=64)
    parts = [np.arange(20), np.arange(20, 40), np.arange(40, 64)]
    lptr, lind, starts = _block_csr(net, parts)
    vanish_at_the_fifth_product()
    order = bisection._spectral_orders(lptr, lind, starts)

    def alone(nodes):
        lp, li = _kernels.extract_local_csr(net.indptr, net.indices, nodes)
        vanish_at_the_fifth_product()
        return oracles.spectral_order(lp, li)

    start = np.random.default_rng(bisection._SPECTRAL_SEED).standard_normal(20)
    wants = [alone(parts[0]), np.argsort(start, kind="stable"), alone(parts[2])]
    for want, s, e in zip(wants, starts[:-1], starts[1:]):
        assert (order[s:e] - s).tobytes() == want.tobytes()
    # the ring stops short of where 100 steps take it
    monkeypatch.setattr(_kernels, "matvec", reals[_kernels])
    assert (order[:20] != bisection._spectral_orders(lptr, lind, starts)[:20]).any()


def test_standard_normal_draws_are_prefixes_of_longer_draws():
    # a block of n nodes starts from the first n of one shared draw
    seed = bisection._SPECTRAL_SEED
    full = np.random.default_rng(seed).standard_normal(700)
    for n in range(1, 701):
        alone = np.random.default_rng(seed).standard_normal(n)
        assert alone.tobytes() == full[:n].tobytes()


def test_dot_on_a_view_matches_dot_on_a_copy():
    # each block's scalars are BLAS dots on views into one long vector
    rng = np.random.default_rng(20240917)
    a = rng.standard_normal(3000)
    b = rng.standard_normal(3000)
    for _ in range(3000):
        s = int(rng.integers(0, 2990))
        e = int(rng.integers(s + 1, 3001))
        view = a[s:e].dot(b[s:e])
        copy = a[s:e].copy() @ b[s:e].copy()
        assert view.tobytes() == copy.tobytes()
        y = b[s:e].copy()
        assert np.sqrt(y @ y).tobytes() == np.linalg.norm(y).tobytes()


def test_bipartition_many_rejects_overlapping_clusters():
    net = two_cliques_bridged(5)
    with pytest.raises(ValueError, match="1 nodes appear in more than one"):
        bipartition_many(net, [range(0, 6), range(5, 10)], CFG5)
    # recursive_split takes a Clustering, which cannot hold such clusters
    with pytest.raises(ValueError, match="more than one"):
        Clustering([all_core(range(0, 6)), all_core(range(5, 10))], net.n)


def test_bipartition_many_rejects_a_tiny_cluster_among_others():
    net = two_cliques_bridged(5)
    with pytest.raises(ValueError, match="fewer than 2 nodes"):
        bipartition_many(net, [range(5), [7]], CFG5)
    with pytest.raises(ValueError, match="fewer than 2 nodes"):
        bipartition_many(net, [range(5), []], CFG5)
    assert bipartition_many(net, [], CFG5) == []


@settings(max_examples=60, deadline=None)
@given(case=block_case(), k=st.integers(min_value=1, max_value=4))
def test_grouped_quality_screen_matches_one_part_checks(case, k):
    net, clusters = case
    rng = np.random.default_rng(k)
    parts = [np.empty(0, np.int64)]
    for c in clusters:
        cut = int(rng.integers(0, len(c)))
        parts += [np.sort(c[:cut]), np.sort(c[cut:])]
    want = [
        len(p) > 0
        and subset_degrees(net, p).min() >= k
        and has_positive_modularity(net, p)
        for p in parts
    ]
    assert bisection._qualifying(net, parts, k).tolist() == want


@settings(max_examples=40, deadline=None)
@given(case=block_case(), k=st.integers(min_value=2, max_value=4))
def test_drivers_on_many_clusters_equal_union_of_one_cluster_runs(case, k):
    net, clusters = case
    cfg = BisectConfig(k=k, max_rounds=4)
    together = Clustering([all_core(c) for c in clusters], net.n)
    for driver in (recursive_split, iterative_split):
        result, dead = driver(net, together, cfg)
        alone = [driver(net, single_cluster(net, c), cfg) for c in clusters]
        cores = [c.core for r, _ in alone for c in r.clusters]
        want = Clustering([all_core(c) for c in cores], net.n)
        assert result.same_clusters(want)
        assert dead.tolist() == np.sort(np.concatenate([d for _, d in alone])).tolist()


def test_config_validation():
    with pytest.raises(ConfigError):
        BisectConfig(k=0)
    with pytest.raises(ConfigError):
        BisectConfig(k=5, local_search_iters=-1)
    with pytest.raises(ConfigError):
        BisectConfig(k=5, max_rounds=0)


# -------------------------------------------------------------- recursive_split


def test_recursive_two_bridged_cliques():
    net = two_cliques_bridged(12, bridges=2)
    result, discarded = recursive_split(net, single_cluster(net, range(24)), CFG5)
    assert len(result) == 2
    assert result.clusters[0].core.tolist() == list(range(12))
    assert result.clusters[1].core.tolist() == list(range(12, 24))
    assert discarded.size == 0


def test_recursive_erodes_lone_clique_by_one():
    # the minimizing split of a clique peels a single node; the big part
    # passes both checks, the singleton can never, so one node is lost
    edges = synth.clique_edges(range(12)) + synth.clique_edges(range(12, 15))
    net = synth.net_from(edges)
    result, discarded = recursive_split(net, single_cluster(net, range(12)), CFG5)
    assert len(result) == 1
    assert result.clusters[0].core.tolist() == list(range(1, 12))
    assert discarded.tolist() == [0]


def test_recursive_keeps_unsplittable_cluster_whole():
    # 4-regular ring: every bipartition leaves both parts below degree 4,
    # so neither ever qualifies and the ring itself is kept
    edges = synth.circulant_edges(24, (1, 2)) + synth.clique_edges(range(24, 27))
    net = synth.net_from(edges)
    result, discarded = recursive_split(
        net, single_cluster(net, range(24)), BisectConfig(k=4)
    )
    assert len(result) == 1
    assert result.clusters[0].core.tolist() == list(range(24))
    assert discarded.size == 0


def test_recursive_discards_hopeless_cluster():
    # a ring that is the entire network has modularity zero: no split
    # qualifies and neither does the ring, so everything is discarded
    net = synth.net_from(synth.circulant_edges(24, (1, 2)))
    result, discarded = recursive_split(
        net, single_cluster(net, range(24)), BisectConfig(k=4)
    )
    assert len(result) == 0
    assert discarded.tolist() == list(range(24))


def test_recursive_empty_input():
    net = synth.net_from([(0, 1)])
    result, discarded = recursive_split(net, Clustering([], net.n), CFG5)
    assert len(result) == 0
    assert discarded.size == 0


def test_recursive_singleton_input_cluster_discarded():
    net = two_cliques_bridged(7)
    result, discarded = recursive_split(net, single_cluster(net, [3]), CFG5)
    assert len(result) == 0
    assert discarded.tolist() == [3]


def test_recursive_conserves_nodes_and_meets_bar():
    rng = np.random.default_rng(1311)
    for seed in range(6):
        net, cores, _ = synth.planted_instance(int(rng.integers(1 << 30)))
        members = np.sort(np.concatenate(cores))
        result, discarded = recursive_split(
            net, single_cluster(net, members), CFG5
        )
        out = [c.core for c in result.clusters]
        covered = (
            np.concatenate(out + [discarded]) if out else discarded
        )
        assert np.array_equal(np.sort(covered), members)
        assert len(np.unique(covered)) == len(covered)
        for core in out:
            # the bar is degree and modularity; parts may be disconnected
            assert subset_degrees(net, core).min() >= 5
            assert has_positive_modularity(net, core)


# -------------------------------------------------------------- iterative_split


def test_iterative_first_round_separates_bridged_cliques():
    net = two_cliques_bridged(12, bridges=2)
    result, discarded = iterative_split(
        net, single_cluster(net, range(24)), BisectConfig(k=5, max_rounds=1)
    )
    assert len(result) == 2
    assert result.clusters[0].core.tolist() == list(range(12))
    assert result.clusters[1].core.tolist() == list(range(12, 24))
    assert discarded.size == 0


def test_iterative_erosion_under_round_cap():
    # once separated, each clique loses its smallest member per round:
    # the split peels one node and core extraction drops it for good
    net = two_cliques_bridged(12, bridges=2)
    result, discarded = iterative_split(
        net, single_cluster(net, range(24)), BisectConfig(k=5, max_rounds=5)
    )
    assert len(result) == 2
    assert result.clusters[0].core.tolist() == list(range(4, 12))
    assert result.clusters[1].core.tolist() == list(range(16, 24))
    assert discarded.tolist() == [0, 1, 2, 3, 12, 13, 14, 15]


def test_iterative_finalizes_unsplittable_ring():
    # every split of the 4-regular ring core-extracts to nothing, so the
    # ring is finalized unchanged in the first round
    edges = synth.circulant_edges(24, (1, 2)) + synth.clique_edges(range(24, 27))
    net = synth.net_from(edges)
    result, discarded = iterative_split(
        net, single_cluster(net, range(24)), BisectConfig(k=4, max_rounds=8)
    )
    assert len(result) == 1
    assert result.clusters[0].core.tolist() == list(range(24))
    assert discarded.size == 0


def test_iterative_stops_when_nothing_advances():
    # erosion ends at the 9-clique: with 69 edges total, an 8-clique
    # (28 internal, summed degree 88) fails 4*69*28 > 88^2 by a hair,
    # so neither part of the next split advances
    net = synth.net_from(
        synth.clique_edges(range(12)) + synth.clique_edges(range(12, 15))
    )
    result, discarded = iterative_split(
        net, single_cluster(net, range(12)), BisectConfig(k=5, max_rounds=32)
    )
    assert len(result) == 1
    assert result.clusters[0].core.tolist() == list(range(3, 12))
    assert discarded.tolist() == [0, 1, 2]


def test_iterative_empty_input():
    net = synth.net_from([(0, 1)])
    result, discarded = iterative_split(net, Clustering([], net.n), CFG5)
    assert len(result) == 0
    assert discarded.size == 0


def test_iterative_conserves_nodes_and_meets_bar():
    rng = np.random.default_rng(2024)
    for seed in range(6):
        net, cores, _ = synth.planted_instance(int(rng.integers(1 << 30)))
        members = np.sort(np.concatenate(cores))
        result, discarded = iterative_split(
            net, single_cluster(net, members), BisectConfig(k=5, max_rounds=6)
        )
        out = [c.core for c in result.clusters]
        covered = np.concatenate(out + [discarded]) if out else discarded
        assert np.array_equal(np.sort(covered), members)
        for core in out:
            assert subset_degrees(net, core).min() >= 5
            assert has_positive_modularity(net, core)


def test_drivers_return_all_core_clusters():
    net = two_cliques_bridged(12, bridges=2)
    for driver in (recursive_split, iterative_split):
        result, _ = driver(net, single_cluster(net, range(24)), CFG5)
        for c in result.clusters:
            assert c.noncore.size == 0


def test_iterative_gathers_from_the_network_once(monkeypatch):
    # round r + 1's clusters are subsets of round r's parts, so every
    # local graph after the first round's is taken from the one before
    real = _kernels.extract_local_csr
    whole = []

    def counting(indptr, *args):
        whole.append(indptr is net.indptr)
        return real(indptr, *args)

    monkeypatch.setattr(_kernels, "extract_local_csr", counting)
    for seed in range(3):
        net, cores, _ = synth.planted_instance(seed)
        members = np.sort(np.concatenate(cores))
        whole.clear()
        iterative_split(
            net, single_cluster(net, members), BisectConfig(k=5, max_rounds=6)
        )
        assert sum(whole) == 1
        # more than one round ran: each gathers three local graphs
        assert len(whole) > 3
