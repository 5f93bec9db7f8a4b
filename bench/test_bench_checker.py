"""The benchmark's output checks pass good artifacts and catch broken ones.

The fixture network has three 12-cliques A (ids 1-12), B (13-24) and
C (27-38), a bridge 1-13, node 25 tied to three members of A and node
26 tied to one member of B. With k=10 and p=2 the good clustering is
{A core + 25 non-core, B core}; C, 26 are singletons.
"""

import json
from itertools import combinations

import numpy as np
import pytest

import checker
import workloads

K, P = 10, 2
A = list(range(1, 13))
B = list(range(13, 25))
C = list(range(27, 39))


def _edges():
    pairs = [e for clique in (A, B, C) for e in combinations(clique, 2)]
    pairs += [(1, 13), (25, 1), (25, 2), (25, 3), (26, 14)]
    pairs += [(2, 1), (5, 5)]  # a repeat and a self-loop, which do not count
    u, v = zip(*pairs)
    return np.array(u, dtype=np.int64), np.array(v, dtype=np.int64)


def _generated():
    u, v = _edges()
    nodes = np.array(sorted(set(u) | set(v)), dtype=np.int64)
    community = np.select([nodes <= 12, nodes <= 24, nodes == 25, nodes == 26], [0, 1, 0, 1], 2)
    return workloads.Generated(u=u, v=v, nodes=nodes, community=community, partition=community)


GOOD = [(a, 0, "core") for a in A] + [(25, 0, "noncore")] + [(b, 1, "core") for b in B]


def _write(outdir, rows=GOOD, singletons=None, id_map=None, run=None, validity=None):
    graph = checker.build_graph(*_edges())
    outdir.mkdir(exist_ok=True)
    (outdir / "clustering.tsv").write_text("".join(f"{a}\t{c}\t{r}\n" for a, c, r in rows))
    listed = {a for a, _, _ in rows}
    if singletons is None:
        singletons = [x for x in [*A, *B, 25, 26, *C] if x not in listed]
    (outdir / "singletons.tsv").write_text("".join(f"{x}\n" for x in singletons))
    (outdir / "discarded.tsv").write_text("")
    if id_map is None:
        id_map = sorted([*A, *B, 25, 26, *C])
    (outdir / "id_map.tsv").write_text("".join(f"{x}\t{i}\n" for i, x in enumerate(id_map)))
    if run is None:
        run = {"n_nodes": graph.n, "n_edges": graph.m}
    (outdir / "run.json").write_text(json.dumps(run))
    if validity is None:
        cl = checker.read_clustering(graph, outdir / "clustering.tsv")
        table = checker.kmp_table(graph, cl, K, P)
        validity = {
            "k": K,
            "p": P,
            "clusters": [{key: table[key][i].item() for key in table} for i in range(cl.n_clusters)],
        }
    (outdir / "validity.json").write_text(json.dumps(validity))
    return graph


def _check(workload, tmp_path, gen=None, **broken):
    graph = _write(tmp_path / "out", **broken)
    gen = _generated() if gen is None else gen
    return checker.check_outputs(workload, graph, gen, tmp_path / "out", K, P)


def test_graph_counts_distinct_nodes_and_non_loop_edges():
    graph = checker.build_graph(*_edges())
    assert graph.n == 38
    assert graph.m == 3 * 66 + 5


@pytest.mark.parametrize("workload", ["carve", "split", "repair"])
def test_good_outputs_pass(tmp_path, workload):
    assert _check(workload, tmp_path) == []


def test_core_member_short_of_k_fails(tmp_path):
    rows = [r if r[0] != 25 else (25, 0, "core") for r in GOOD]
    assert any("k-validity" in p for p in _check("carve", tmp_path, rows=rows))


def test_noncore_member_short_of_p_fails(tmp_path):
    rows = GOOD + [(26, 1, "noncore")]
    assert any("p-validity" in p for p in _check("carve", tmp_path, rows=rows))


def test_disconnected_core_fails(tmp_path):
    # A + C passes the modularity test (4 L l_s > d_s^2) but is in two pieces
    rows = [(a, 0, "core") for a in A + C] + [(b, 1, "core") for b in B]
    assert any("m-validity" in p for p in _check("carve", tmp_path, rows=rows))


def test_nonpositive_modularity_fails():
    # one clique taken as a cluster of itself: 4 L l_s = d_s^2 exactly, not >
    u, v = zip(*combinations(A, 2))
    graph = checker.build_graph(np.array(u), np.array(v))
    cl = checker.Clusters(
        node=graph.index([str(x) for x in A]),
        cluster=np.zeros(len(A), dtype=np.int64),
        core=np.ones(len(A), dtype=bool),
    )
    table = checker.kmp_table(graph, cl, K, P)
    assert table["k_valid"][0] and not table["m_valid"][0]


def test_node_in_two_clusters_fails(tmp_path):
    rows = GOOD + [(1, 1, "core")]
    assert any("more than once" in p for p in _check("carve", tmp_path, rows=rows))


def test_unknown_id_fails(tmp_path):
    rows = GOOD + [(999, 1, "noncore")]
    assert any("not in the input" in p for p in _check("carve", tmp_path, rows=rows))


def test_id_map_listing_a_node_twice_fails(tmp_path):
    id_map = sorted([*A, *B, 25, 26, *C]) + [1]
    assert any("more than once" in p for p in _check("carve", tmp_path, id_map=id_map))


def test_id_map_missing_a_node_fails(tmp_path):
    id_map = sorted([*A, *B, 25, *C])
    assert any("the input has" in p for p in _check("carve", tmp_path, id_map=id_map))


def test_wrong_input_size_fails(tmp_path):
    graph = checker.build_graph(*_edges())
    # counting the repeat and the self-loop, as a faulty loader would
    run = {"n_nodes": graph.n, "n_edges": graph.m + 2}
    assert any("n_edges" in p for p in _check("carve", tmp_path, run=run))


def test_node_both_clustered_and_singleton_fails(tmp_path):
    singletons = [1, 26, *C]
    assert any("more than one of" in p for p in _check("carve", tmp_path, singletons=singletons))


def test_node_unaccounted_fails(tmp_path):
    singletons = C
    assert any("in none of them" in p for p in _check("carve", tmp_path, singletons=singletons))


def test_validity_report_disagreeing_fails(tmp_path):
    validity = {
        "k": K,
        "p": P,
        "clusters": [
            {"size": 13, "core_size": 12, "k_valid": True, "m_valid": True, "p_valid": False},
            {"size": 12, "core_size": 12, "k_valid": True, "m_valid": True, "p_valid": True},
        ],
    }
    assert any("disagrees" in p for p in _check("repair", tmp_path, validity=validity))


def test_core_number_below_k_fails(tmp_path):
    graph = _write(tmp_path / "out", rows=[r if r[0] != 25 else (25, 0, "core") for r in GOOD])
    cl = checker.read_clustering(graph, tmp_path / "out" / "clustering.tsv")
    assert checker.check_core_numbers(graph, cl, K) != []


def test_unsplit_group_fails_purity(tmp_path):
    # A and B are two planted communities; left together they are one group
    rows = [(x, 0, "core") for x in A + B]
    problems = _check("split", tmp_path, rows=rows)
    assert any("purity" in p for p in problems)


def test_cluster_spanning_two_input_clusters_fails(tmp_path):
    gen = _generated()
    gen.partition = np.where(gen.nodes == 12, 1, gen.partition)  # 12 came in with B
    problems = _check("repair", tmp_path, gen=gen)
    assert any("span two input clusters" in p for p in problems)


def test_node_missing_from_partition_fails():
    graph = checker.build_graph(*_edges())
    gen = _generated()
    partition = checker.node_labels(graph, gen.nodes[gen.nodes != 25], gen.partition[gen.nodes != 25])
    cl = checker.Clusters(
        node=graph.index([str(x) for x, _, _ in GOOD]),
        cluster=np.array([c for _, c, _ in GOOD]),
        core=np.array([r == "core" for _, _, r in GOOD]),
    )
    assert any("missing from the input partition" in p for p in checker.check_containment(cl, partition))


def test_digest_sees_one_changed_byte(tmp_path):
    _write(tmp_path / "out")
    before = checker.digest(tmp_path / "out")
    path = tmp_path / "out" / "run.json"
    path.write_text(path.read_text() + " ")
    assert checker.digest(tmp_path / "out") != before


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_repeat_for_a_seed(name):
    generate = workloads.WORKLOADS[name].generate
    first, second, other = generate(3), generate(3), generate(4)
    assert np.array_equal(first.u, second.u) and np.array_equal(first.v, second.v)
    assert not np.array_equal(first.u, other.u)
    assert np.array_equal(np.sort(first.nodes), np.unique(np.concatenate([first.u, first.v])))
