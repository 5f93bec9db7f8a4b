import numpy as np
import pytest

import synth
from kmpcluster import (
    Clustering,
    MarkerFileError,
    MarkerPanel,
    all_core,
    always_clustered,
    always_coclustered,
    classical_mds,
    load_edge_list,
    load_markers,
    marker_counts,
    mds_distances,
    smallest_common_cluster,
)

N = 300


def runs_net():
    return synth.net_from([(0, 1)], n=N)


def panel_of(ids):
    return MarkerPanel(
        external=[str(v) for v in ids],
        internal=np.array(ids, dtype=np.int64),
    )


def run_of(groups):
    return Clustering([all_core(g) for g in groups], N)


def pairwise_relation(panel, runs):
    """Boolean matrix of 'same non-singleton cluster in every run'."""
    assign = np.stack([r.assignment(min_size=2)[panel.internal] for r in runs])
    nm = len(panel)
    rel = np.zeros((nm, nm), dtype=bool)
    for i in range(nm):
        for j in range(nm):
            rel[i, j] = bool(
                (assign[:, i] >= 0).all()
                and (assign[:, i] == assign[:, j]).all()
            )
    return rel


def components_of_relation(rel):
    nm = rel.shape[0]
    seen = set()
    groups = []
    for s in range(nm):
        if s in seen:
            continue
        comp = {s}
        queue = [s]
        while queue:
            a = queue.pop()
            for b in range(nm):
                if (rel[a, b] or rel[b, a]) and b not in comp:
                    comp.add(b)
                    queue.append(b)
        seen |= comp
        groups.append(tuple(sorted(comp)))
    return sorted(groups)


# -------------------------------------------------------------------- loading


def test_load_markers_skips_noise_and_dups(tmp_path):
    net = runs_net()
    f = tmp_path / "markers.txt"
    f.write_text("3\n7\n3\n# comment\n\n5\n")
    panel = load_markers(net, f)
    assert panel.external == ["3", "7", "5"]
    assert panel.internal.tolist() == [3, 7, 5]


def test_load_markers_rejects_unknown_ids(tmp_path):
    net = synth.net_from([(0, 1)], n=10)
    f = tmp_path / "markers.txt"
    f.write_text("3\n42\n")
    with pytest.raises(MarkerFileError, match="42"):
        load_markers(net, f)


def test_load_markers_rejects_empty(tmp_path):
    net = runs_net()
    f = tmp_path / "markers.txt"
    f.write_text("# nothing here\n")
    with pytest.raises(MarkerFileError):
        load_markers(net, f)


def test_load_markers_resolves_string_labels(tmp_path):
    g = tmp_path / "net.tsv"
    g.write_text("alpha\tbeta\nbeta\tgamma\n")
    net = load_edge_list(g)
    f = tmp_path / "markers.txt"
    f.write_text("gamma\nalpha\n")
    panel = load_markers(net, f)
    assert panel.external == ["gamma", "alpha"]
    assert [net.external_id(v) for v in panel.internal] == ["gamma", "alpha"]


# --------------------------------------------------------------------- counts


def test_marker_counts_basic():
    panel = panel_of([10, 11, 12, 13, 14])
    clustering = run_of([[10, 11, 12, 50], [60, 61]])
    counts = marker_counts(clustering, panel)
    holder = next(
        i for i, c in enumerate(clustering.clusters) if 10 in c.core.tolist()
    )
    assert counts == {holder: 3}


def test_marker_counts_empty_when_all_unclustered():
    panel = panel_of([100, 101])
    clustering = run_of([[10, 11, 12]])
    assert marker_counts(clustering, panel) == {}


def test_marker_counts_match_scan():
    rng = np.random.default_rng(42)
    for _ in range(10):
        groups = synth.random_clustering_sets(rng, N)
        clustering = run_of(groups)
        panel = panel_of(sorted(rng.choice(N, 20, replace=False).tolist()))
        counts = marker_counts(clustering, panel)
        want = {}
        for i, c in enumerate(clustering.clusters):
            hit = len(set(c.nodes.tolist()) & set(panel.internal.tolist()))
            if hit:
                want[i] = hit
        assert counts == want


# ----------------------------------------------------- cross-run marker fates


def test_always_clustered_drops_one_miss():
    panel = panel_of([1, 2, 3])
    runs = [
        run_of([[1, 2, 50], [3, 60]]),
        run_of([[1, 70], [2, 80]]),  # marker 3 unclustered here
    ]
    assert always_clustered(panel, runs).tolist() == [0, 1]


def test_always_clustered_singleton_cluster_is_a_miss():
    panel = panel_of([1, 2])
    runs = [run_of([[1, 50], [2]])]
    assert always_clustered(panel, runs).tolist() == [0]


def test_always_clustered_full_panel():
    panel = panel_of([1, 2, 3])
    runs = [run_of([[1, 2, 3, 4]])]
    assert always_clustered(panel, runs).tolist() == [0, 1, 2]


def test_coclustered_pair_stays_together():
    panel = panel_of([1, 2, 3])
    runs = [
        run_of([[1, 2, 50], [3, 60]]),
        run_of([[1, 2, 3, 70]]),
    ]
    groups = always_coclustered(panel, np.arange(3), runs)
    assert [g.tolist() for g in groups] == [[0, 1], [2]]


def test_coclustered_split_once_is_split():
    panel = panel_of([1, 2])
    runs = [
        run_of([[1, 2, 50]]),
        run_of([[1, 50], [2, 60]]),
    ]
    groups = always_coclustered(panel, np.arange(2), runs)
    assert [g.tolist() for g in groups] == [[0], [1]]


def test_coclustered_unplaced_marker_is_alone():
    # markers 1 and 2 share a cluster wherever placed, but 2 goes
    # unclustered in the second run, which breaks the relation
    panel = panel_of([1, 2])
    runs = [
        run_of([[1, 2, 50]]),
        run_of([[1, 50]]),
    ]
    groups = always_coclustered(panel, np.arange(2), runs)
    assert [g.tolist() for g in groups] == [[0], [1]]


def test_coclustered_matches_component_oracle():
    rng = np.random.default_rng(9933)
    for _ in range(10):
        panel = panel_of(sorted(rng.choice(N, 12, replace=False).tolist()))
        runs = [
            run_of(synth.random_clustering_sets(rng, N))
            for _ in range(int(rng.integers(1, 5)))
        ]
        groups = always_coclustered(panel, np.arange(len(panel)), runs)
        got = sorted(tuple(g.tolist()) for g in groups)
        want = components_of_relation(pairwise_relation(panel, runs))
        assert got == want
        flat = [v for g in groups for v in g.tolist()]
        assert sorted(flat) == list(range(len(panel)))
        firsts = [int(g[0]) for g in groups]
        assert firsts == sorted(firsts)


def test_smallest_common_cluster_picks_smaller_run():
    panel = panel_of([1, 2, 3])
    big = [1, 2, 3] + list(range(100, 242))  # 145 members
    small = [1, 2, 3] + list(range(100, 170))  # 73 members
    runs = [run_of([big]), run_of([small])]
    r, cluster = smallest_common_cluster(panel, np.arange(3), runs)
    assert r == 1
    assert cluster.size == 73


def test_smallest_common_cluster_tie_goes_early():
    panel = panel_of([1, 2])
    runs = [run_of([[1, 2, 50]]), run_of([[1, 2, 60]])]
    r, cluster = smallest_common_cluster(panel, np.arange(2), runs)
    assert r == 0
    assert 50 in cluster.nodes.tolist()


def test_smallest_common_cluster_names_offending_run():
    panel = panel_of([1, 2])
    runs = [
        run_of([[1, 2, 50]]),
        run_of([[1, 50], [2, 60]]),
    ]
    with pytest.raises(ValueError, match="run 1"):
        smallest_common_cluster(panel, np.arange(2), runs)


# ------------------------------------------------------------------ distances


def test_distances_extremes():
    panel = panel_of([1, 2])
    together = [run_of([[1, 2, 50]]) for _ in range(12)]
    apart = [run_of([[1, 50], [2, 60]]) for _ in range(12)]
    assert mds_distances(panel, together)[0, 1] == 0
    assert mds_distances(panel, apart)[0, 1] == 12


def test_distances_unplaced_marker_is_far_from_everyone():
    panel = panel_of([1, 2, 3])
    runs = [run_of([[1, 2, 50]]), run_of([[1, 2, 60]])]
    d = mds_distances(panel, runs)
    assert d[0, 1] == 0
    assert d[0, 2] == 2 and d[1, 2] == 2


def test_distances_match_pairwise_oracle():
    rng = np.random.default_rng(7117)
    for _ in range(8):
        panel = panel_of(sorted(rng.choice(N, 10, replace=False).tolist()))
        runs = [
            run_of(synth.random_clustering_sets(rng, N))
            for _ in range(int(rng.integers(1, 6)))
        ]
        d = mds_distances(panel, runs)
        assert (d == d.T).all()
        assert (np.diag(d) == 0).all()
        assert d.min() >= 0 and d.max() <= len(runs)
        assign = np.stack(
            [r.assignment(min_size=2)[panel.internal] for r in runs]
        )
        for i in range(len(panel)):
            for j in range(len(panel)):
                if i == j:
                    continue
                same = sum(
                    1
                    for r in range(len(runs))
                    if assign[r, i] >= 0 and assign[r, i] == assign[r, j]
                )
                assert d[i, j] == len(runs) - same


# ------------------------------------------------------------------ embedding


def embedded_distances(coords):
    diff = coords[:, None, :] - coords[None, :, :]
    return np.sqrt((diff**2).sum(axis=2))


def test_mds_all_zero_distances():
    coords = classical_mds(np.zeros((3, 3)))
    assert coords.shape == (3, 2)
    assert np.abs(coords).max() == 0.0


def test_mds_two_points():
    d = np.array([[0.0, 7.5], [7.5, 0.0]])
    coords = classical_mds(d)
    assert embedded_distances(coords)[0, 1] == pytest.approx(7.5, abs=1e-9)


def test_mds_equilateral_triangle():
    s = 3.0
    d = s * (np.ones((3, 3)) - np.eye(3))
    got = embedded_distances(classical_mds(d))
    assert np.abs(got - d).max() < 1e-6


def test_mds_unit_square():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    d = embedded_distances(pts)
    got = embedded_distances(classical_mds(d))
    assert np.abs(got - d).max() < 1e-6


def test_mds_recovers_planar_points_exactly():
    # a planar configuration is embedded without loss, so the embedded
    # distances must match the input up to float64 rounding
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 31))
        scale = 10.0 ** rng.uniform(-3, 3)
        d = embedded_distances(scale * rng.standard_normal((n, 2)))
        got = embedded_distances(classical_mds(d))
        worst = max(worst, np.abs(got - d).max() / d.max())
    assert worst < 1e-9


def test_mds_sign_convention_and_determinism():
    d = np.array(
        [
            [0.0, 2.0, 3.0, 1.0],
            [2.0, 0.0, 1.0, 2.0],
            [3.0, 1.0, 0.0, 3.0],
            [1.0, 2.0, 3.0, 0.0],
        ]
    )
    a = classical_mds(d)
    b = classical_mds(d)
    assert np.array_equal(a, b)
    for axis in range(2):
        nz = np.flatnonzero(np.abs(a[:, axis]) > 1e-12)
        if len(nz):
            assert a[nz[0], axis] > 0


def test_mds_rejects_malformed_input():
    with pytest.raises(ValueError):
        classical_mds(np.zeros((2, 3)))
    bad_sym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        classical_mds(bad_sym)
    bad_diag = np.array([[1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        classical_mds(bad_diag)
    bad_neg = np.array([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError):
        classical_mds(bad_neg)
