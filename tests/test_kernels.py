"""Differential tests of the numpy kernels against the set-based oracles.

Networks are built from long paths (the frontier peel's worst case),
stars, cliques, small random pieces and isolated nodes, with ids
shuffled so the pieces interleave. Each kernel runs on the whole
network, on no nodes, on one node, or on a random part of it; the
grouped kernels also on that part cut into random groups.
"""

import importlib.machinery
import importlib.util
import sys
import tracemalloc
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synth
from kmpcluster import Network, _kernels

_SHAPES = ("path", "star", "clique", "random", "isolated")


@st.composite
def network_and_subset(draw):
    """(net, sorted subset, rng) with the rng seeded from the draw."""
    edges = []
    n = 0
    for shape in draw(st.lists(st.sampled_from(_SHAPES), min_size=1, max_size=3)):
        if shape == "path":
            size = draw(st.integers(min_value=2, max_value=300))
            edges += synth.path_edges(range(n, n + size))
        elif shape == "star":
            size = draw(st.integers(min_value=2, max_value=30))
            edges += synth.star_edges(n, range(n + 1, n + size))
        elif shape == "clique":
            size = draw(st.integers(min_value=2, max_value=12))
            edges += synth.clique_edges(range(n, n + size))
        elif shape == "random":
            size = draw(st.integers(min_value=2, max_value=25))
            node = st.integers(min_value=n, max_value=n + size - 1)
            edges += draw(st.lists(st.tuples(node, node), max_size=4 * size))
        else:
            size = draw(st.integers(min_value=1, max_value=5))
        n += size
    perm = np.array(draw(st.permutations(range(n))), dtype=np.int64)
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    net = Network.from_edges(perm[ends[:, 0]], perm[ends[:, 1]], n=n)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(("all", "empty", "one", "part")))
    if kind == "all":
        sub = net.all_nodes()
    elif kind == "empty":
        sub = np.empty(0, dtype=np.int64)
    elif kind == "one":
        sub = np.array([draw(st.integers(min_value=0, max_value=n - 1))], np.int64)
    else:
        sub = np.flatnonzero(rng.random(n) < rng.uniform(0.2, 0.95))
    return net, sub, rng


def local_adjacency(adj, sub) -> list[list[int]]:
    """Each member's neighbours inside `sub`, as sorted local ids."""
    pos = {int(v): i for i, v in enumerate(sub)}
    return [sorted(pos[u] for u in adj[int(v)] if u in pos) for v in sub]


@settings(max_examples=150, deadline=None)
@given(
    case=network_and_subset(),
    batch=st.sampled_from([1, 3, None]),
    k=st.none() | st.integers(1, 6),
)
def test_peel_matches_deletion_oracle(case, batch, k):
    # with k, the labels are the core numbers clipped to k - 1 and k
    net, sub, _ = case
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # a wave's arcs are read this many at a time
            mp.setattr(_kernels, "_BATCH", batch)
        labels = _kernels.peel(net.indptr, net.indices, sub, k=k)
    expect = oracles.core_labels_by_deletion(oracles.adjacency(net), sub.tolist())
    want = [expect[v] for v in sub.tolist()]
    if k is not None:
        want = [min(max(c, k - 1), k) for c in want]
    assert labels.dtype == np.int64
    assert labels.tolist() == want


def test_peel_waves_read_one_arc_at_a_time_match_the_oracle(monkeypatch):
    # a node can fall to the threshold in one batch of a wave and be
    # reached again in a later batch; it must join the next wave once
    monkeypatch.setattr(_kernels, "_BATCH", 1)
    rng = np.random.default_rng(4)
    for _ in range(300):
        n = int(rng.integers(4, 12))
        u, v = rng.integers(0, n, (2, int(rng.integers(n, 3 * n))))
        net = Network.from_edges(u, v, n=n)
        expect = oracles.core_labels_by_deletion(oracles.adjacency(net))
        labels = _kernels.peel(net.indptr, net.indices, net.all_nodes())
        assert labels.tolist() == [expect[x] for x in range(n)]


@settings(max_examples=150, deadline=None)
@given(case=network_and_subset())
def test_component_labels_match_oracle_in_smallest_member_order(case):
    net, sub, _ = case
    comp = _kernels.component_labels(
        *_kernels.extract_local_csr(net.indptr, net.indices, sub)
    )
    assert comp.dtype == np.int64
    assert len(comp) == len(sub)
    ncomp = int(comp.max()) + 1 if len(comp) else 0
    got = [frozenset(sub[comp == c].tolist()) for c in range(ncomp)]
    assert got == oracles.components_of(oracles.adjacency(net), sub.tolist())


@settings(max_examples=150, deadline=None)
@given(case=network_and_subset(), batch=st.sampled_from([1, 3, None]))
def test_grouped_peel_and_components_match_oracles_per_group(case, batch):
    net, sub, rng = case
    group = rng.integers(0, 4, len(sub))
    adj = oracles.adjacency(net)
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # arcs read this many at a time
            mp.setattr(_kernels, "_BATCH", batch)
        labels = _kernels.peel(net.indptr, net.indices, sub, group)
        comp = _kernels.component_labels(
            *_kernels.extract_local_csr(net.indptr, net.indices, sub, group)
        )
    expect_labels = {}
    expect_comps = []
    for g in range(4):
        members = sub[group == g].tolist()
        expect_labels.update(oracles.core_labels_by_deletion(adj, members))
        expect_comps += oracles.components_of(adj, members)
    assert labels.tolist() == [expect_labels[v] for v in sub.tolist()]
    ncomp = int(comp.max()) + 1 if len(comp) else 0
    got = [frozenset(sub[comp == c].tolist()) for c in range(ncomp)]
    assert got == sorted(expect_comps, key=min)


@settings(max_examples=150, deadline=None)
@given(case=network_and_subset(), batch=st.sampled_from([1, 3, None]))
def test_local_csr_matches_adjacency_sets(case, batch):
    net, sub, rng = case
    group = rng.integers(0, 3, len(sub))
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # rows of stars and cliques are longer than 3
            mp.setattr(_kernels, "_BATCH", batch)
        lptr, lind = _kernels.extract_local_csr(net.indptr, net.indices, sub)
        grouped = _kernels.extract_local_csr(net.indptr, net.indices, sub, group)
    rows = local_adjacency(oracles.adjacency(net), sub)
    assert lptr.dtype == np.int64 and lind.dtype == np.int32
    assert lptr.tolist() == [0, *accumulate(len(r) for r in rows)]
    assert lind.tolist() == [j for r in rows for j in r]

    lptr, lind = grouped
    assert lptr.dtype == np.int64 and lind.dtype == np.int32
    rows = [[j for j in r if group[j] == group[i]] for i, r in enumerate(rows)]
    assert lptr.tolist() == [0, *accumulate(len(r) for r in rows)]
    assert lind.tolist() == [j for r in rows for j in r]


def test_local_csr_peak_memory_is_bounded_by_its_output(monkeypatch):
    # about 96k of 120k arcs gathered in 47 batches: the peak is the
    # output, grown by at most an eighth, the n-sized map to local ids,
    # the arc count to each row and a few batches; gathering every arc
    # at once took 2.3 times the old bound of twice the output plus
    # scratch, and joining the batches' parts 1.2 times this one
    rng = np.random.default_rng(8)
    n = 20_000
    net = Network.from_edges(*rng.integers(0, n, (2, 60_000)), n=n)
    sub = np.flatnonzero(rng.random(n) < 0.8)
    group = rng.integers(0, 2, len(sub))
    monkeypatch.setattr(_kernels, "_BATCH", 1 << 11)
    tracemalloc.start()
    try:
        lptr, lind = _kernels.extract_local_csr(net.indptr, net.indices, sub, group)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    scratch = 8 * n + 8 * len(sub) + 8 * 8 * _kernels._BATCH
    assert peak <= lptr.nbytes + lind.nbytes * 9 // 8 + scratch


@settings(max_examples=150, deadline=None)
@given(case=network_and_subset())
def test_neighbor_counts_match_adjacency_sets(case):
    net, sub, rng = case
    adj = oracles.adjacency(net)
    members = set(sub.tolist())
    in_sub = net.mask(sub)
    got = _kernels.subset_degrees(net.indptr, net.indices, in_sub, sub)
    assert got.dtype == np.int64
    assert got.tolist() == [len(adj[v] & members) for v in sub.tolist()]
    edges = _kernels.induced_edges(net.indptr, net.indices, in_sub, sub)
    assert edges == oracles.induced_edges_of(adj, members)

    other = np.flatnonzero(rng.random(net.n) < 0.5)
    hits = _kernels.count_neighbors_in(net.indptr, net.indices, net.mask(other), sub)
    others = set(other.tolist())
    assert hits.dtype == np.int64
    assert hits.tolist() == [len(adj[v] & others) for v in sub.tolist()]

    side = np.full(net.n, -1, dtype=np.int8)
    side[sub] = rng.integers(0, 2, len(sub))
    part0 = set(sub[side[sub] == 0].tolist())
    part1 = members - part0
    cut = sum(1 for v in part0 for u in adj[v] if u in part1)
    expect = (
        cut,
        oracles.induced_edges_of(adj, part0),
        oracles.induced_edges_of(adj, part1),
    )
    assert _kernels.cut_counts(net.indptr, net.indices, side, sub) == expect


@settings(max_examples=150, deadline=None)
@given(case=network_and_subset(), index=st.sampled_from((np.int32, np.int64)))
def test_matvec_sums_in_arc_order_bit_for_bit(case, index):
    # the isolated pieces and the nodes outside the subset give empty rows
    net, sub, rng = case
    rows = local_adjacency(oracles.adjacency(net), sub)
    lptr = np.array([0, *accumulate(len(r) for r in rows)], dtype=index)
    lind = np.array([j for r in rows for j in r], dtype=index)
    # magnitudes from 1e-8 to 1e8, so the order of the additions shows
    x = rng.standard_normal(len(sub)) * 10.0 ** rng.integers(-8, 9, len(sub))
    out = np.full(len(sub), np.nan)
    _kernels.matvec(lptr, lind, x, out, np.ones(len(lind)))
    expect = []
    for r in rows:
        s = 0.0
        for j in r:
            s += float(x[j])
        expect.append(s)
    assert out.tobytes() == np.array(expect, dtype=np.float64).tobytes()


def test_the_product_reuses_a_loaded_scipy_sparse(monkeypatch):
    import scipy.sparse._sparsetools as loaded

    def no_file(*args):
        raise AssertionError("the extension file was loaded again")

    monkeypatch.setattr(importlib.util, "spec_from_file_location", no_file)
    _kernels._sparsetools.cache_clear()
    try:
        assert _kernels._sparsetools() is loaded
        assert sys.modules["scipy.sparse._sparsetools"] is loaded
    finally:
        _kernels._sparsetools.cache_clear()


def test_a_scipy_without_the_extension_file_names_it(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.sparse._sparsetools", raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".none"])
    _kernels._sparsetools.cache_clear()
    try:
        with pytest.raises(ImportError, match="no _sparsetools file") as raised:
            _kernels._sparsetools()
        assert raised.value.name == "scipy.sparse._sparsetools"
    finally:
        _kernels._sparsetools.cache_clear()


@settings(max_examples=200, deadline=None)
@given(case=network_and_subset(), n_cores=st.integers(0, 6), p=st.integers(1, 3))
def test_best_cluster_per_node_matches_loop_oracle(case, n_cores, p):
    # the subset's nodes are cut into cores; every other node is a candidate
    net, sub, rng = case
    owner = np.full(net.n, -1, np.int64)
    owner[sub] = rng.integers(0, n_cores, len(sub)) if n_cores else -1
    core_size = np.bincount(owner[owner >= 0], minlength=n_cores)
    min_id = rng.permutation(4 * n_cores).astype(np.int64)[:n_cores]
    cand = np.flatnonzero(owner < 0)
    got = _kernels.best_cluster_per_node(
        net.indptr, net.indices, owner, min_id, cand, p
    )
    want = oracles.best_cluster_per_node(
        net.indptr, net.indices, owner, core_size, min_id, cand, p
    )
    assert got.dtype == np.int64
    assert got.tolist() == want.tolist()


def _split_counts(lptr, lind, side):
    """(cut, internal_0, internal_1) edge counts of a 0/1 split, recounted."""
    rows = np.repeat(np.arange(len(side)), np.diff(lptr))
    sr, sc = side[rows], side[lind]
    cut = int((sr != sc).sum()) // 2
    i0 = int(((sr == 0) & (sc == 0)).sum()) // 2
    return cut, i0, len(lind) // 2 - cut - i0


def _ncut(cut, i0, i1):
    l0, l1 = i0 + cut, i1 + cut
    return np.inf if l0 == 0 or l1 == 0 else cut / l0 + cut / l1


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), ample=st.booleans())
def test_refine_split_keeps_its_contract(data, n, ample):
    node = st.integers(0, n - 1)
    ends = np.array(data.draw(st.lists(st.tuples(node, node), max_size=4 * n)), np.int64)
    ends = ends.reshape(-1, 2)
    net = Network.from_edges(ends[:, 0], ends[:, 1], n=n)
    lptr, lind = net.indptr, net.indices
    n0 = data.draw(st.integers(1, n - 1))
    start = np.ones(n, np.int8)
    start[data.draw(st.permutations(range(n)))[:n0]] = 0
    if ample:
        # every accepted move strictly lowers the objective, so no split
        # comes back: fewer than 2**n moves, at most 2**n sweeps, and the
        # descent can only end on a sweep without a move
        iters = 2**n + 1
    else:
        iters = data.draw(st.integers(1, 6))
    side = start.copy()
    got = _kernels.refine_split(lptr, lind, side, iters)
    assert got == _split_counts(lptr, lind, side)
    assert 1 <= (side == 0).sum() <= n - 1
    assert _ncut(*got) <= _ncut(*_split_counts(lptr, lind, start))
    assert (side != start).sum() <= iters
    if ample:
        for v in range(n):
            if (side == side[v]).sum() > 1:
                flip = side.copy()
                flip[v] = 1 - flip[v]
                assert not _ncut(*_split_counts(lptr, lind, flip)) < _ncut(*got)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(2, 30))
def test_refine_split_matches_the_rescanning_loop(data, n):
    node = st.integers(0, n - 1)
    ends = np.array(data.draw(st.lists(st.tuples(node, node), max_size=4 * n)), np.int64)
    ends = ends.reshape(-1, 2)
    net = Network.from_edges(ends[:, 0], ends[:, 1], n=n)
    lptr, lind = net.indptr, net.indices
    n0 = data.draw(st.integers(1, n - 1))
    start = np.ones(n, np.int8)
    start[data.draw(st.permutations(range(n)))[:n0]] = 0
    # a small cap stops the descent in the middle of a sweep; the oracle
    # takes the starting counts and its two caps as arguments
    iters = data.draw(st.integers(0, 12))
    args = (*_split_counts(lptr, lind, start), n0, n - n0, iters, iters)
    side, want_side = start.copy(), start.copy()
    got = _kernels.refine_split(lptr, lind, side, iters)
    want = oracles.refine_split(lptr, lind, want_side, *args)
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]
    assert side.tobytes() == want_side.tobytes()
