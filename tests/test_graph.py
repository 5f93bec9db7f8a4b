import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import synth
from kmpcluster import _kernels, graph
from kmpcluster import (
    EdgeListError,
    Network,
    connected_components,
    induced_edge_count,
    load_clustering,
    load_edge_list,
    subset_degrees,
    write_edge_list,
    write_id_map,
)
from kmpcluster.clustering import Cluster, as_ids


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def labelled_edges(net):
    """Edge set in external labels, each pair in internal-id order."""
    return {
        (net.external_id(int(a)), net.external_id(int(b)))
        for a, b in zip(*net.edge_pairs())
    }


def test_load_drops_duplicates_and_loops(tmp_path):
    path = write_lines(tmp_path, "e.tsv", ["a\tb", "b\ta", "a\ta"])
    net = load_edge_list(path)
    assert net.n == 2
    assert net.m == 1
    assert net.load_report.self_loops_dropped == 1
    assert net.load_report.duplicate_edges_dropped == 1


def test_load_integer_ids_fast_path(tmp_path):
    path = write_lines(tmp_path, "e.tsv", ["10\t20", "20\t30", "# comment", "10\t30"])
    net = load_edge_list(path)
    assert net.n == 3
    assert net.m == 3
    assert sorted(net.external_id(v) for v in range(3)) == ["10", "20", "30"]
    # ids past one byte and past 32 bits keep their own nodes and labels,
    # numbered in numeric order
    ids = ["0", "256", "1000", "2000", "123456789012"]
    path = write_lines(
        tmp_path, "wide.tsv", ["256\t0", "1000\t2000", "123456789012\t1000"]
    )
    net = load_edge_list(path)
    assert net.n == 5
    assert net.m == 3
    assert [net.external_id(v) for v in range(5)] == ids
    assert [net.internal_id(e) for e in ids] == list(range(5))
    assert labelled_edges(net) == {
        ("0", "256"),
        ("1000", "2000"),
        ("1000", "123456789012"),
    }


def test_load_leading_zero_ids_stay_distinct(tmp_path):
    path = write_lines(tmp_path, "e.tsv", ["007\t7", "7\t8"])
    net = load_edge_list(path)
    assert net.n == 3
    assert net.m == 2
    assert net.load_report.self_loops_dropped == 0
    v = net.internal_id("007")
    assert v is not None
    assert net.external_id(v) == "007"
    assert labelled_edges(net) == {("007", "7"), ("7", "8")}
    members = write_lines(tmp_path, "c.tsv", ["007\t0", "7\t0", "8\t0"])
    clustering = load_clustering(net, members)
    assert len(clustering) == 1
    assert clustering.clusters[0].core.tolist() == sorted(
        net.internal_id(e) for e in ("007", "7", "8")
    )


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("")
    with pytest.raises(EdgeListError):
        load_edge_list(path)


def test_load_comments_only_rejected(tmp_path):
    path = write_lines(tmp_path, "e.tsv", ["# nothing", "# here"])
    with pytest.raises(EdgeListError):
        load_edge_list(path)


def test_load_malformed_line_reports_position(tmp_path):
    path = write_lines(tmp_path, "e.tsv", ["a\tb", "b\tc\td", "c\ta"])
    with pytest.raises(EdgeListError, match="line 2"):
        load_edge_list(path)


def test_load_single_field_line_rejected(tmp_path):
    path = write_lines(tmp_path, "e.tsv", ["1\t2", "3"])
    with pytest.raises(EdgeListError, match="line 2"):
        load_edge_list(path)


def test_clique_plus_star():
    # a 100-clique and a 2000-leaf star, disjoint
    edges = synth.clique_edges(range(100)) + synth.star_edges(
        100, range(101, 2101)
    )
    net = synth.net_from(edges)
    assert net.n == 2101
    assert net.m == 100 * 99 // 2 + 2000
    assert net.degree(100) == 2000
    assert net.degree(0) == 99
    assert net.degree(101) == 1
    comps = connected_components(net)
    assert len(comps) == 2
    assert len(comps[0]) == 100
    assert len(comps[1]) == 2001


def test_degree_out_of_range():
    net = synth.net_from([(0, 1)])
    with pytest.raises(IndexError):
        net.degree(2)
    with pytest.raises(IndexError):
        net.degree(-1)


def test_isolated_node_has_degree_zero():
    net = synth.net_from([(0, 1)], n=3)
    assert net.degree(2) == 0
    assert len(connected_components(net)) == 2


def test_components_of_path_endpoints():
    # a-b-c path: {a, c} induces two singleton components
    net = synth.net_from(synth.path_edges([0, 1, 2]))
    comps = connected_components(net, [0, 2])
    assert [c.tolist() for c in comps] == [[0], [2]]


def test_induced_edges_examples():
    net = synth.net_from(synth.clique_edges(range(10)))
    assert induced_edge_count(net, range(10)) == 45
    assert induced_edge_count(net, [3]) == 0
    assert induced_edge_count(net, []) == 0


def test_subset_degrees_on_bridge():
    net = synth.net_from(synth.clique_edges(range(4)) + [(3, 4), (4, 5)])
    assert subset_degrees(net, range(4)).tolist() == [3, 3, 3, 3]
    assert subset_degrees(net, [3, 4, 5]).tolist() == [1, 2, 1]


def test_random_graph_against_oracles():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 60))
        net = synth.gnp_net(rng, n, rng.uniform(0.02, 0.3))
        adj = oracles.adjacency(net)
        assert int(net.degrees.sum()) == 2 * net.m
        sub = rng.permutation(n)[: int(rng.integers(1, n + 1))]
        assert induced_edge_count(net, sub) == oracles.induced_edges_of(adj, sub)
        got = [frozenset(c.tolist()) for c in connected_components(net, sub)]
        assert got == oracles.components_of(adj, sub)


def test_components_partition_everything():
    rng = np.random.default_rng(11)
    net = synth.gnp_net(rng, 80, 0.03)
    comps = connected_components(net)
    combined = np.sort(np.concatenate(comps))
    assert combined.tolist() == list(range(80))
    assert all((np.diff(c) > 0).all() for c in comps)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_write_then_load_round_trip(tmp_path_factory, data):
    n = data.draw(st.integers(min_value=2, max_value=25))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=1,
            max_size=80,
        )
    )
    u, v = zip(*pairs)
    net = Network.from_edges(u, v, n=n)
    if net.m == 0:
        return
    path = tmp_path_factory.mktemp("rt") / "edges.tsv"
    write_edge_list(net, path)
    back = load_edge_list(path)
    assert back.m == net.m
    orig = {
        tuple(sorted((net.external_id(a), net.external_id(b))))
        for a, b in zip(*net.edge_pairs())
    }
    again = {
        tuple(sorted((back.external_id(a), back.external_id(b))))
        for a, b in zip(*back.edge_pairs())
    }
    assert orig == again


@st.composite
def endpoint_pairs(draw):
    """Pairs over a few nodes with loops, repeats and both orientations,
    plus the `n` to build with (None, or room for trailing isolated
    nodes)."""
    used = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=used - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=10))
        flip = draw(st.lists(st.booleans(), min_size=len(again), max_size=len(again)))
        pairs += [(b, a) if f else (a, b) for (a, b), f in zip(again, flip)]
    extra = draw(st.none() | st.integers(min_value=0, max_value=3))
    n = None if extra is None else used + extra
    return pairs, n


@settings(max_examples=300, deadline=None)
@given(case=endpoint_pairs(), batch=st.sampled_from([1, 3, None]))
def test_from_edges_matches_set_oracle(case, batch):
    pairs, n = case
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # repeats are dropped this many arcs at a time
            mp.setattr(_kernels, "_BATCH", batch)
        net = Network.from_edges(u, v, n=n)
    if n is None:
        n = max(u + v) + 1 if pairs else 0
    adj = {x: set() for x in range(n)}
    for a, b in pairs:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    m = sum(len(s) for s in adj.values()) // 2
    loops = sum(1 for a, b in pairs if a == b)
    assert net.n == n
    assert net.m == m
    assert net.indptr.tolist() == [0] + np.cumsum(
        [len(adj[x]) for x in range(n)], dtype=np.int64
    ).tolist()
    assert net.indices.tolist() == [y for x in range(n) for y in sorted(adj[x])]
    assert net.load_report.self_loops_dropped == loops
    assert net.load_report.duplicate_edges_dropped == len(pairs) - loops - m


_IDS = (st.integers(0, 10**12) | st.integers(10**17, 10**18 - 1)).map(str)
_PAD = st.text(" \t", max_size=2)
_SEP = st.text(" \t", min_size=1, max_size=3)


@st.composite
def plain_line(draw):
    """An edge, comment or blank line in the fast path's grammar."""
    kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
    if kind == "comment":
        printable = st.characters(min_codepoint=32, max_codepoint=126)
        return "#" + draw(st.text(printable, max_size=8))
    if kind == "blank":
        return draw(_PAD)
    return draw(_PAD) + draw(_IDS) + draw(_SEP) + draw(_IDS) + draw(_PAD)


@st.composite
def handoff_line(draw):
    """A line the fast path must leave to the string path.

    Leading zeros, ids too wide for int64 or wider than 18 digits, a
    field count other than two, an edge split over two lines, a lone
    carriage return, and a comment holding a character the string path
    reads as a line break.
    """
    kind = draw(
        st.sampled_from(["zero", "long", "wide", "fields", "split", "cr", "break"])
    )
    if kind == "break":
        brk = draw(st.sampled_from(["\x0b", "\x0c", "\x1c", "\x85", "\u2028"]))
        return f"# é{brk}{draw(_IDS)} {draw(_IDS)}"
    fields = [draw(_IDS), draw(_IDS)]
    sep = _SEP
    if kind == "zero":
        fields[draw(st.integers(0, 1))] = "0" + draw(_IDS)
    elif kind == "long":
        fields[draw(st.integers(0, 1))] = str(draw(st.integers(2**63, 10**20)))
    elif kind == "wide":
        # 19 and 20 digits whose values fit in an int64, small or not
        wide = ["0" * 18 + "1", str(10**18), str(10**19 - 1), "0" + str(10**18)]
        fields[draw(st.integers(0, 1))] = draw(st.sampled_from(wide))
    elif kind == "fields":
        fields = [draw(_IDS) for _ in range(draw(st.sampled_from([1, 3, 4])))]
    elif kind == "split":
        sep = st.just("\n")
    elif kind == "cr":
        fields[0] += "\r"
    return draw(_PAD) + draw(sep).join(fields) + draw(_PAD)


@st.composite
def integer_edge_list(draw):
    """Edge-list text with LF or CRLF ends, and whether it is all plain."""
    lines = draw(st.lists(plain_line(), min_size=1, max_size=12))
    odd = draw(st.none() | handoff_line())
    if odd is not None:
        lines.insert(draw(st.integers(0, len(lines))), odd)
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text, odd is None


@settings(max_examples=300, deadline=None)
@given(case=integer_edge_list())
def test_integer_fast_path_matches_string_path(tmp_path_factory, case):
    text, plain = case
    data = text.encode()
    if not data.strip():
        return
    pairs = graph._integer_pairs(data)
    if plain:
        assert pairs is not None
    if pairs is None:
        return
    path = tmp_path_factory.mktemp("fp") / "edges.tsv"
    path.write_bytes(data)
    if len(pairs[0]) == 0:
        with pytest.raises(EdgeListError, match="no edges"):
            graph._load_general(path, data)
        return
    want = graph._load_general(path, data)
    got = load_edge_list(path)
    ext = [got.external_id(v) for v in range(got.n)]
    assert [int(e) for e in ext] == sorted(int(e) for e in ext)
    assert sorted(ext) == sorted(want.external_id(v) for v in range(want.n))
    assert {frozenset(e) for e in labelled_edges(got)} == {
        frozenset(e) for e in labelled_edges(want)
    }
    assert got.load_report.to_dict() == want.load_report.to_dict()


@settings(max_examples=200, deadline=None)
@given(
    ids=st.lists(
        st.integers(0, 10**18 - 1) | st.sampled_from([0, 10**17, 10**18 - 1]),
        min_size=2,
        max_size=12,
    ).filter(lambda ids: len(ids) % 2 == 0),
    comment=st.none() | st.integers(0, 6),
)
def test_integer_pairs_reads_18_digit_ids_exactly(ids, comment):
    lines = [f"{a}\t{b}" for a, b in zip(ids[0::2], ids[1::2])]
    if comment is not None:
        # the digits of a comment must not be read as ids
        lines.insert(min(comment, len(lines)), f"# {10**18 - 1} 12\t3")
    pairs = graph._integer_pairs(("\n".join(lines) + "\n").encode())
    assert pairs is not None
    assert pairs[0].tolist() == ids[0::2]
    assert pairs[1].tolist() == ids[1::2]


@pytest.mark.parametrize(
    "text, want",
    [
        (b"0\t0\n0 1", [(0, 0), (0, 1)]),
        (b"0000000000000000001\t2\n", None),
        (b"1\t1000000000000000000\n", None),
        (b"12345678901234567890\t1\n", None),
        (b"1\t2\n3", None),
        (b"1\t2\r\n3 4 5", None),
        (b"#\r\n1 2\r\n", [(1, 2)]),
        (b"# a lone\rCR\n1 2\n", None),
        (b"# only comments\n\n \t\r\n#\n\t\n# and blanks", []),
    ],
)
def test_integer_pairs_edge_cases(text, want):
    pairs = graph._integer_pairs(text)
    if want is None:
        assert pairs is None
    else:
        assert list(zip(pairs[0].tolist(), pairs[1].tolist())) == want


def load_outcome(path):
    """What loading `path` gives: ids, CSR and report, or the error."""
    try:
        net = load_edge_list(path)
    except EdgeListError as e:
        return str(e)
    ids = [net.external_id(v) for v in range(net.n)]
    csr = (net.indptr.tolist(), net.indices.tolist())
    return ids, csr, net.load_report.to_dict(), net.integer_ids


@settings(max_examples=150, deadline=None)
@given(case=integer_edge_list(), chunk=st.sampled_from([1, 2, 7, 64]))
def test_chunked_read_matches_one_read(tmp_path_factory, case, chunk):
    text, _ = case
    path = tmp_path_factory.mktemp("chunk") / "edges.tsv"
    path.write_bytes(text.encode())
    want = load_outcome(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_CHUNK", chunk)
        assert load_outcome(path) == want


@pytest.mark.parametrize(
    "text, chunk, want",
    [
        # a hand-off byte in a late chunk still sends the file to the
        # string path, which numbers the ids in string order
        ("1\t2\n" * 40 + "10.1000/x\t3\n", 16, ["1", "10.1000/x", "2", "3"]),
        ("5 \t" + " " * 40 + "6\r\n7\t5", 8, ["5", "6", "7"]),
        (" \n\t\r\n  \n", 2, "empty edge list"),
        ("\x0c\n \n", 1, "empty edge list"),
        ("# a\n\n#b c\r\n# 1 2", 3, "no edges found"),
    ],
)
def test_chunk_boundaries(tmp_path, monkeypatch, text, chunk, want):
    path = tmp_path / "edges.tsv"
    path.write_bytes(text.encode())
    monkeypatch.setattr(graph, "_CHUNK", chunk)
    if isinstance(want, str):
        with pytest.raises(EdgeListError, match=want):
            load_edge_list(path)
    else:
        net = load_edge_list(path)
        assert [net.external_id(v) for v in range(net.n)] == want


def test_load_peak_memory_is_bounded_by_the_network(tmp_path, monkeypatch):
    # 60k edges over 20k nine-digit ids, read in about 70 chunks; the
    # loader's peak is about 1.9 times the network's arrays, and was
    # about 3.2 times when the file was read whole
    rng = np.random.default_rng(5)
    ids = rng.choice(900_000_000, 20_000, replace=False) + 100_000_000
    u, v = ids[rng.integers(0, len(ids), (2, 60_000))]
    path = tmp_path / "edges.tsv"
    synth.write_edge_file(path, u, v)
    monkeypatch.setattr(graph, "_CHUNK", 1 << 14)
    monkeypatch.setattr(_kernels, "_BATCH", 1 << 11)
    tracemalloc.start()
    try:
        net = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    network = net.indptr.nbytes + net.indices.nbytes + net._ext.nbytes
    assert peak <= 2 * network + 16 * graph._CHUNK


@st.composite
def endpoint_ids(draw):
    """The ids of 2m endpoints: some near the cutoff 2**(62 - b) above
    which `_relabel` cannot pack them, some up to 10**18 - 1, some small
    and repeated; a single edge among them."""
    m = draw(st.integers(1, 40))
    cutoff = 2 ** (62 - (2 * m - 1).bit_length())
    near = st.integers(cutoff - 3, cutoff + 2)
    one = st.integers(0, 20) | st.integers(0, 10**18 - 1) | near
    ids = draw(st.lists(one, min_size=2 * m, max_size=2 * m))
    repeat = draw(st.lists(st.integers(0, 2 * m - 1), max_size=2 * m))
    for i, j in zip(repeat[0::2], repeat[1::2]):
        ids[i] = ids[j]
    return np.array(ids, dtype=np.int64)


@settings(max_examples=300, deadline=None)
@given(ids=endpoint_ids())
def test_relabel_matches_np_unique(ids):
    ext, inv = graph._relabel(ids.copy())
    want_ext, want_inv = np.unique(ids, return_inverse=True)
    assert ext.dtype == want_ext.dtype and inv.dtype == want_inv.dtype
    assert ext.tolist() == want_ext.tolist()
    assert inv.tolist() == want_inv.tolist()


def test_integer_network_resolves_only_canonical_ids(tmp_path):
    path = write_lines(tmp_path, "e.tsv", ["256\t0", "999999999999999999\t256"])
    net = load_edge_list(path)
    assert net.integer_ids
    assert [net.internal_id(e) for e in ("0", "256", "999999999999999999")] == [0, 1, 2]
    # each of these parses as one of the ids but does not print as it
    for ext in ("0256", "+256", " 256", "256 ", "00", "２５６", "", "1" * 19, "7"):
        assert net.internal_id(ext) is None
    with pytest.raises(ValueError, match="increasing"):
        Network.from_edges([0], [1], ext_ids=np.array([5, 3]))
    with pytest.raises(ValueError, match="nonnegative"):
        Network.from_edges([0], [1], ext_ids=np.array([-1, 3]))


def test_id_map_is_bijective(tmp_path):
    path = write_lines(tmp_path, "e.tsv", ["x\ty", "y\tz", "z\tx"])
    net = load_edge_list(path)
    out = tmp_path / "ids.tsv"
    write_id_map(net, out)
    rows = [line.split("\t") for line in out.read_text().splitlines()]
    assert len(rows) == net.n
    assert len({r[0] for r in rows}) == net.n
    assert [int(r[1]) for r in rows] == list(range(net.n))
    for ext, internal in rows:
        assert net.internal_id(ext) == int(internal)


def test_string_ids_resolve():
    net = synth.net_from([(0, 1)])
    assert net.internal_id("0") == 0
    assert net.internal_id("nope") is None


@settings(max_examples=300, deadline=None)
@given(
    ids=st.lists(st.integers(min_value=-3, max_value=45), max_size=30),
    shape=st.sampled_from(("sorted", "unsorted", "repeated", "empty")),
)
def test_subset_and_as_ids_match_np_unique(ids, shape):
    if shape == "sorted":
        ids = sorted(set(ids))
    elif shape == "repeated":
        ids = ids + ids[:3]
    elif shape == "empty":
        ids = []
    given_ids = np.array(ids, dtype=np.int64)
    before = given_ids.copy()
    expect = np.unique(given_ids)
    got = as_ids(given_ids)
    assert got.dtype == np.int64 and got.tolist() == expect.tolist()
    # a result that shares memory with the input must not be writable
    assert not (np.shares_memory(got, given_ids) and got.flags.writeable)
    net = Network.from_edges([0], [1], n=40)
    if len(expect) and (expect[0] < 0 or expect[-1] >= net.n):
        with pytest.raises(IndexError):
            net.subset(given_ids)
    else:
        got = net.subset(given_ids)
        assert got.dtype == np.int64 and got.tolist() == expect.tolist()
        assert not (np.shares_memory(got, given_ids) and got.flags.writeable)
    assert np.array_equal(given_ids, before)


@settings(max_examples=200, deadline=None)
@given(
    core=st.lists(st.integers(min_value=0, max_value=30), max_size=12),
    noncore=st.lists(st.integers(min_value=0, max_value=30), max_size=12),
)
def test_cluster_rejects_overlapping_core_and_noncore(core, noncore):
    # unsorted, repeated and empty parts alike; only a shared node raises
    if set(core) & set(noncore):
        with pytest.raises(ValueError, match="overlap"):
            Cluster(core=core, noncore=noncore)
    else:
        c = Cluster(core=core, noncore=noncore)
        assert c.core.tolist() == sorted(set(core))
        assert c.noncore.tolist() == sorted(set(noncore))
