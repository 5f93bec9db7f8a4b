import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth
from kmpcluster import (
    Cluster,
    Clustering,
    ClusteringFileError,
    Network,
    all_core,
    ikc,
    load_clustering,
    load_edge_list,
    mds_distances,
    write_clustering,
    write_id_map,
)
from kmpcluster import graph, io
from kmpcluster.cli import main


def write_net(tmp_path, edges, name="net.tsv"):
    path = tmp_path / name
    u, v = zip(*edges)
    synth.write_edge_file(path, u, v)
    return path


def planted_edges():
    # two 7-cliques, a 3-anchor pendant on the first, a 2-anchor on the
    # second; rich enough to exercise every pipeline stage
    edges = synth.clique_edges(range(7)) + synth.clique_edges(range(7, 14))
    edges += [(14, 0), (14, 1), (14, 2), (15, 7), (15, 8)]
    return edges


# ------------------------------------------------------------------ round trip


def test_clustering_round_trip(tmp_path):
    rng = np.random.default_rng(404)
    net = synth.gnp_net(rng, 40, 0.2)
    for trial in range(10):
        groups = synth.random_clustering_sets(rng, 40)
        clusters = []
        for g in groups:
            cut = int(rng.integers(0, len(g) + 1))
            clusters.append(Cluster(core=g[:cut], noncore=g[cut:]))
        clusters = [c for c in clusters if c.size]
        if not clusters:
            continue
        clustering = Clustering(clusters, net.n)
        path = tmp_path / f"t{trial}.tsv"
        write_clustering(net, clustering, path)
        assert load_clustering(net, path).same_clusters(clustering)


@pytest.mark.parametrize("rows", [1, 2, None])
def test_writers_write_the_rows_of_a_row_by_row_loop(tmp_path, monkeypatch, rows):
    if rows is not None:  # rows written per batch
        monkeypatch.setattr(graph, "_ROWS", rows)
    for text in ("123456789012\t7\n7\t8\n8\t90\n", "b\ta\na\tc\nc\td\n"):
        edges = tmp_path / "edges.tsv"
        edges.write_text(text)
        net = load_edge_list(edges)
        clustering = Clustering(
            [Cluster(core=[0, 1], noncore=[2]), Cluster(core=[3])], net.n
        )
        write_clustering(net, clustering, tmp_path / "c.tsv")
        write_id_map(net, tmp_path / "ids.tsv")
        io.write_node_list(net, [3, 0, 2], tmp_path / "nodes.tsv")
        io.write_node_list(net, [], tmp_path / "none.tsv")
        label = net.external_id
        parts = [
            (part, ci, role)
            for ci, c in enumerate(clustering)
            for part, role in ((c.core, "core"), (c.noncore, "noncore"))
        ]
        assert (tmp_path / "c.tsv").read_text() == "".join(
            f"{label(v)}\t{ci}\t{role}\n" for part, ci, role in parts for v in part
        )
        assert (tmp_path / "ids.tsv").read_text() == "".join(
            f"{label(v)}\t{v}\n" for v in range(net.n)
        )
        assert (tmp_path / "nodes.tsv").read_text() == "".join(
            f"{label(v)}\n" for v in (0, 2, 3)
        )
        assert (tmp_path / "none.tsv").read_text() == ""


def test_two_line_file(tmp_path):
    net = synth.net_from([(0, 1)], n=5)
    f = tmp_path / "c.tsv"
    f.write_text("0\t0\n1\t0\n")
    clustering = load_clustering(net, f)
    assert len(clustering) == 1
    assert clustering.clusters[0].core.tolist() == [0, 1]
    assert clustering.clusters[0].noncore.size == 0


def test_space_separated_and_roles(tmp_path):
    net = synth.net_from([(0, 1), (1, 2)], n=5)
    f = tmp_path / "c.tsv"
    f.write_text("0 7 core\n1 7 noncore\n# note\n\n2 8\n")
    clustering = load_clustering(net, f)
    first = clustering.clusters[0]
    assert first.core.tolist() == [0]
    assert first.noncore.tolist() == [1]
    assert clustering.clusters[1].core.tolist() == [2]


def test_unknown_node_listed(tmp_path):
    net = synth.net_from([(0, 1)], n=3)
    f = tmp_path / "c.tsv"
    f.write_text("0\t0\n9\t0\n")
    with pytest.raises(ClusteringFileError, match="9"):
        load_clustering(net, f)


def test_conflicting_duplicate_rejected(tmp_path):
    net = synth.net_from([(0, 1)], n=3)
    f = tmp_path / "c.tsv"
    f.write_text("0\t0\n0\t1\n")
    with pytest.raises(ClusteringFileError, match="line 2"):
        load_clustering(net, f)


def test_exact_duplicate_tolerated(tmp_path):
    net = synth.net_from([(0, 1)], n=3)
    f = tmp_path / "c.tsv"
    f.write_text("0\t0\n0\t0\n1\t0\n")
    clustering = load_clustering(net, f)
    assert clustering.clusters[0].core.tolist() == [0, 1]


def test_malformed_rows_rejected(tmp_path):
    net = synth.net_from([(0, 1)], n=3)
    f = tmp_path / "c.tsv"
    f.write_text("0\t0\tcore\textra\n")
    with pytest.raises(ClusteringFileError, match="line 1"):
        load_clustering(net, f)
    f.write_text("0\t0\tboss\n")
    with pytest.raises(ClusteringFileError, match="core or noncore"):
        load_clustering(net, f)
    f.write_text("# only comments\n")
    with pytest.raises(ClusteringFileError, match="no cluster assignments"):
        load_clustering(net, f)


@st.composite
def integer_partition(draw):
    """A small integer-id network, a twin that resolves the same labels
    without the integer lookup, partition text for them, and whether
    every line of that text is one the integer path must take.

    Node ids are sparse, so that an unknown id can fall between two
    known ones. The twin holds the ids as strings, and so finds them
    through a dict. A network without an id map is numbered by its own
    internal ids, and is its own twin.
    """
    if draw(st.booleans()):
        ext = sorted(draw(st.sets(st.integers(0, 60), min_size=2, max_size=12)))
        net = Network.from_edges([0], [1], ext_ids=np.array(ext, dtype=np.int64))
        twin = Network.from_edges([0], [1], ext_ids=[str(e) for e in ext])
    else:
        ext = list(range(draw(st.integers(2, 12))))
        net = twin = Network.from_edges([0], [1], n=len(ext))
    unknown = [v for v in range(ext[-1] + 3) if v not in ext]
    cids = st.integers(0, 3).map(str)
    lines, plain = [], True
    rows = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(
            st.sampled_from(
                ["row"] * 12 + ["repeat"] * 3 + ["comment", "blank"] * 2
                + ["conflict", "unknown"] * 2 + ["zero", "wide", "roles"]
            )
        )
        if kind in ("repeat", "conflict") and rows:
            node, cid = draw(st.sampled_from(rows))
            if kind == "conflict":
                cid = draw(cids)
        elif kind == "unknown":
            node = str(draw(st.sampled_from(unknown)))
            cid = draw(cids)
            plain = False
        elif kind == "comment":
            lines.append("# " + draw(st.text("0123456789 \tab#", max_size=6)))
            continue
        elif kind == "blank":
            lines.append(draw(st.text(" \t", max_size=2)))
            continue
        else:
            node, cid = str(draw(st.sampled_from(ext))), draw(cids)
            if kind == "zero":
                node = "0" + node
                plain = False
        rows.append((node, cid))
        line = node + draw(st.sampled_from(["\t", "\t", " ", "  "])) + cid
        if kind == "roles":
            line += "\t" + draw(st.sampled_from(["core", "noncore", "1"]))
            plain = False
        elif kind == "wide":
            # `_read_rows` splits a line with a tab at every tab
            line = node + draw(st.sampled_from(["\t\t", " \t", "\t "])) + cid
            plain = False
        pad = st.sampled_from(["", "", " ", "\t"])
        lines.append(draw(pad) + line + draw(pad))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    first = {}
    consistent = all(first.setdefault(node, cid) == cid for node, cid in rows)
    # the integer path also leaves any tab next to other blank space alone
    narrow = not any(gap in text for gap in ("\t\t", "\t ", " \t"))
    return net, twin, text, plain and consistent and narrow and bool(rows)


def _outcome(net, read):
    """The clusters `read` gives, in labels, or the error it raises."""
    try:
        clustering = read()
    except (ClusteringFileError, ValueError) as e:
        return type(e), str(e)
    return sorted(
        (net.external_ids(c.core), net.external_ids(c.noncore)) for c in clustering
    )


@settings(max_examples=400, deadline=None)
@given(case=integer_partition())
def test_integer_partition_path_matches_row_path(tmp_path_factory, case):
    net, twin, text, plain = case
    path = tmp_path_factory.mktemp("part") / "partition.tsv"
    path.write_bytes(text.encode())
    if plain:
        assert io._integer_rows(net, path.read_bytes()) is not None
    want = _outcome(twin, lambda: io._group_rows(twin, *io._read_rows(twin, path)))
    assert _outcome(net, lambda: io._group_rows(net, *io._read_rows(net, path))) == want
    assert _outcome(net, lambda: load_clustering(net, path)) == want


# ------------------------------------------------------------------------ cli


def read_rows(path):
    return [line.split("\t") for line in path.read_text().splitlines()]


def test_cli_ikc(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    out = tmp_path / "out"
    assert main(["ikc", str(edges), "--k", "5", "--out", str(out)]) == 0
    rows = read_rows(out / "clustering.tsv")
    by_cluster = {}
    for node, ci, role in rows:
        assert role == "core"
        by_cluster.setdefault(ci, []).append(int(node))
    assert sorted(sorted(v) for v in by_cluster.values()) == [
        list(range(7)),
        list(range(7, 14)),
    ]
    stats = json.loads((out / "stats.json").read_text())
    assert stats["n_nodes"] == 16
    assert stats["sizes"]["n_clusters"] == 2
    singles = (out / "singletons.tsv").read_text().split()
    assert sorted(int(s) for s in singles) == [14, 15]


def test_cli_pipeline_artifacts_and_accounting(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    out = tmp_path / "out"
    rc = main(
        ["pipeline", str(edges), "--k", "5", "--stage2", "recursive",
         "--out", str(out)]
    )
    assert rc == 0
    for name in (
        "clustering.tsv",
        "id_map.tsv",
        "validity.json",
        "stats.json",
        "run.json",
        "discarded.tsv",
        "singletons.tsv",
    ):
        assert (out / name).exists()
    validity = json.loads((out / "validity.json").read_text())
    assert validity["all_kmp_valid"] is True
    rows = read_rows(out / "clustering.tsv")
    noncore = sorted(int(r[0]) for r in rows if r[2] == "noncore")
    # node 15 hangs on anchors {7, 8}; splitting erodes node 7 out of
    # its clique, and with one surviving anchor 15 cannot attach (the
    # eroded node itself returns through augmentation and relabeling)
    assert noncore == [14]
    clustered = {int(r[0]) for r in rows}
    singles = {int(s) for s in (out / "singletons.tsv").read_text().split()}
    dropped = {int(s) for s in (out / "discarded.tsv").read_text().split()}
    assert not clustered & singles and not clustered & dropped
    assert clustered | singles | dropped == set(range(16))


def test_cli_pipeline_defaults_match_plain_ikc(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["ikc", str(edges), "--k", "5", "--out", str(out_a)]) == 0
    rc = main(
        ["pipeline", str(edges), "--k", "5", "--stage3", "off",
         "--out", str(out_b)]
    )
    assert rc == 0
    assert (out_a / "clustering.tsv").read_bytes() == (
        out_b / "clustering.tsv"
    ).read_bytes()


def test_cli_pipeline_runs_are_byte_identical(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        rc = main(
            ["pipeline", str(edges), "--k", "5", "--stage2", "iterative",
             "--local-search", "2000", "--out", str(out)]
        )
        assert rc == 0
        outs.append(out)
    for name in ("clustering.tsv", "validity.json", "stats.json", "run.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_missing_edges_file(tmp_path, capsys):
    rc = main(
        ["pipeline", str(tmp_path / "nope.tsv"), "--k", "5",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_p_not_below_k(tmp_path, capsys):
    edges = write_net(tmp_path, planted_edges())
    rc = main(
        ["pipeline", str(edges), "--k", "2", "--p", "2",
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_config_file_and_flag_precedence(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=9\np = 2\nstage2=none\n# comment\n")
    out = tmp_path / "out"
    rc = main(
        ["pipeline", str(edges), "--config", str(cfg), "--k", "5",
         "--out", str(out)]
    )
    assert rc == 0
    run = json.loads((out / "run.json").read_text())
    assert run["config"]["k"] == 5  # flag beat the file
    assert run["config"]["p"] == 2


def test_cli_config_file_unknown_key(tmp_path, capsys):
    edges = write_net(tmp_path, planted_edges())
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k=5\nshiny=yes\n")
    rc = main(
        ["pipeline", str(edges), "--config", str(cfg),
         "--out", str(tmp_path / "out")]
    )
    assert rc == 1
    assert "shiny" in capsys.readouterr().err


def test_cli_kcore(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    out = tmp_path / "out"
    assert main(["kcore", str(edges), "--k", "3", "--out", str(out)]) == 0
    stats = json.loads((out / "stats.json").read_text())
    assert stats["degeneracy"] == 6


def test_cli_validate_and_stats(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    out1 = tmp_path / "ikc"
    main(["ikc", str(edges), "--k", "5", "--out", str(out1)])
    clustering = out1 / "clustering.tsv"
    out2 = tmp_path / "val"
    rc = main(
        ["validate", str(edges), str(clustering), "--k", "5", "--p", "2",
         "--out", str(out2)]
    )
    assert rc == 0
    validity = json.loads((out2 / "validity.json").read_text())
    assert validity["all_kmp_valid"] is True
    assert validity["n_clusters"] == 2
    out3 = tmp_path / "stats"
    rc = main(["stats", str(edges), str(clustering), "--out", str(out3)])
    assert rc == 0
    stats = json.loads((out3 / "stats.json").read_text())
    assert stats["coverage_percent"] == pytest.approx(100 * 14 / 16)


def test_cli_parse_modes(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    # hand the parser a sloppy clustering: one good clique plus noise
    sloppy = tmp_path / "sloppy.tsv"
    rows = [f"{v}\t0" for v in range(7)] + ["14\t0", "15\t1", "9\t1"]
    sloppy.write_text("\n".join(rows) + "\n")
    out = tmp_path / "kmp"
    rc = main(
        ["parse", str(edges), str(sloppy), "--k", "5", "--out", str(out)]
    )
    assert rc == 0
    validity = json.loads((out / "validity.json").read_text())
    assert validity["all_kmp_valid"] is True
    rows = read_rows(out / "clustering.tsv")
    assert sorted(int(r[0]) for r in rows if r[2] == "core") == list(range(7))
    assert [int(r[0]) for r in rows if r[2] == "noncore"] == [14]

    out_strict = tmp_path / "strict"
    rc = main(
        ["parse", str(edges), str(sloppy), "--k", "5", "--mode", "strict",
         "--out", str(out_strict)]
    )
    assert rc == 0
    # strict mode judges the input as-is: node 14 sits in cluster 0 as
    # core with only 3 core neighbors, so neither input cluster is valid
    report = json.loads((out_strict / "validity.json").read_text())
    assert report["n_clusters"] == 2
    assert report["n_kmp_valid"] == 0
    assert (out_strict / "clustering.tsv").read_text() == ""
    singles = (out_strict / "singletons.tsv").read_text().split()
    assert sorted(int(s) for s in singles) == list(range(16))

    out_ex = tmp_path / "extract"
    rc = main(
        ["parse", str(edges), str(sloppy), "--k", "5", "--mode", "extract",
         "--out", str(out_ex)]
    )
    assert rc == 0
    rows = read_rows(out_ex / "clustering.tsv")
    assert sorted(int(r[0]) for r in rows) == list(range(7))
    assert all(r[2] == "core" for r in rows)


def test_cli_parse_with_stage3(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    bare = tmp_path / "bare.tsv"
    bare.write_text("\n".join(f"{v}\t0" for v in range(7)) + "\n")
    out = tmp_path / "out"
    rc = main(
        ["parse", str(edges), str(bare), "--k", "5", "--stage3",
         "--out", str(out)]
    )
    assert rc == 0
    rows = read_rows(out / "clustering.tsv")
    assert [int(r[0]) for r in rows if r[2] == "noncore"] == [14]


def test_cli_markers_and_mds(tmp_path):
    edges = write_net(tmp_path, planted_edges())
    markers = tmp_path / "markers.txt"
    markers.write_text("0\n7\n15\n")
    run1 = tmp_path / "run1"
    run2 = tmp_path / "run2"
    main(["ikc", str(edges), "--k", "5", "--out", str(run1)])
    main(["pipeline", str(edges), "--k", "5", "--out", str(run2)])
    out = tmp_path / "mk"
    rc = main(
        ["markers", str(edges), str(markers),
         str(run1 / "clustering.tsv"), str(run2 / "clustering.tsv"),
         "--out", str(out)]
    )
    assert rc == 0
    payload = json.loads((out / "markers.json").read_text())
    assert payload["n_markers"] == 3
    # 0 and 7 are clustered in both runs; 15 only after augmentation
    assert payload["always_clustered"] == ["0", "7"]

    out_mds = tmp_path / "mds"
    rc = main(
        ["mds", str(edges), str(markers),
         str(run1 / "clustering.tsv"), str(run2 / "clustering.tsv"),
         "--out", str(out_mds)]
    )
    assert rc == 0
    lines = (out_mds / "distances.tsv").read_text().splitlines()
    assert lines[0] == "id\t0\t7\t15"
    net = load_edge_list(edges)
    from kmpcluster import MarkerPanel, load_markers

    panel = load_markers(net, markers)
    d = mds_distances(
        panel,
        [
            load_clustering(net, run1 / "clustering.tsv"),
            load_clustering(net, run2 / "clustering.tsv"),
        ],
    )
    got = [row.split("\t")[1:] for row in lines[1:]]
    assert [[int(x) for x in row] for row in got] == d.tolist()
    coords = (out_mds / "mds.tsv").read_text().splitlines()
    assert coords[0] == "id\tx\ty"
    assert len(coords) == 4
    for row in coords[1:]:
        _, x, y = row.split("\t")
        float(x), float(y)


def test_cli_module_invocation(tmp_path):
    import subprocess
    import sys

    edges = write_net(tmp_path, planted_edges())
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "kmpcluster.cli", "ikc", str(edges),
         "--k", "5", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (out / "clustering.tsv").exists()
