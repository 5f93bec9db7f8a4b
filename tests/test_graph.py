import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import synth
from kmpcluster import _kernels, graph
from kmpcluster import (
    EdgeListError,
    KmpError,
    Network,
    connected_components,
    induced_edge_count,
    load_clustering,
    load_edge_list,
    subset_degrees,
    write_edge_list,
    write_id_map,
)
from kmpcluster.clustering import Cluster, Clustering, as_ids


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
    # lines end at LF, CRLF or a lone CR, and a form feed is whitespace
    for data, want in [
        (b"a\tb\n\x0c\nb\tc\nc\n", "line 4: expected 2 fields"),
        (b"a\tb\rc\n", "line 2: expected 2 fields"),
        (b"a\tb\r\nb\t\xffc\n", "e.tsv: line 2: not valid UTF-8"),
    ]:
        path.write_bytes(data)
        with pytest.raises(KmpError, match=want):
            load_edge_list(path)


def test_string_ids_split_only_at_ascii_whitespace(tmp_path):
    # a no-break space (U+00A0) is part of an id, not a field break,
    # and is not stripped from a line's ends
    path = tmp_path / "e.tsv"
    path.write_text("x\u00a0y\n", encoding="utf-8")
    with pytest.raises(EdgeListError, match="line 1: expected 2 fields, got 1"):
        load_edge_list(path)
    path.write_text("caf\u00e9\u00a0e\tb\n", encoding="utf-8")
    assert labelled_edges(load_edge_list(path)) == {("b", "caf\u00e9\u00a0e")}
    data = "\u00a0a\tb \t\n \u2028\n".encode()
    assert list(graph.text_lines(data, path)) == [(1, "\u00a0a\tb"), (2, "\u2028")]


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
    assert connected_components(net, []) == []


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
    # integer ids, or string ids that are not ASCII
    ext = data.draw(st.sampled_from([None, [f"café{i}" for i in range(n)]]))
    net = Network.from_edges(u, v, n=n, ext_ids=ext)
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
def endpoint_pairs(draw, wide=False):
    """Pairs over a few nodes with loops, repeats and both orientations,
    plus the `n` to build with (None, or room for trailing isolated
    nodes). With `wide`, the nodes are ids at both ends of 0..n-1 with
    n just above 2**16."""
    used = draw(st.integers(min_value=1, max_value=12))
    node = st.integers(min_value=0, max_value=used - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if pairs:
        again = draw(st.lists(st.sampled_from(pairs), max_size=10))
        flip = draw(st.lists(st.booleans(), min_size=len(again), max_size=len(again)))
        pairs += [(b, a) if f else (a, b) for (a, b), f in zip(again, flip)]
    extra = draw(st.none() | st.integers(min_value=0, max_value=3))
    n = None if extra is None else used + extra
    if not wide:
        return pairs, n
    top = 2**16 + draw(st.integers(min_value=1, max_value=8))
    ids = [i if 2 * i < used else top - used + i for i in range(used)]
    pairs = [(ids[a], ids[b]) for a, b in pairs]
    return pairs, None if n is None else top + extra


@settings(max_examples=300, deadline=None)
@given(case=endpoint_pairs(), batch=st.sampled_from([1, 3, None]))
def test_from_edges_matches_set_oracle(case, batch):
    check_from_edges(*case, batch)


@settings(max_examples=100, deadline=None)
@given(case=endpoint_pairs(wide=True), batch=st.sampled_from([3, None]))
def test_from_edges_of_wide_int32_ids_matches_set_oracle(case, batch):
    # from int32 endpoints, with arc keys src * n + dst past 2**31; a
    # batch of 1 would take 2**16 steps to find the row pointers
    check_from_edges(*case, batch, np.int32)


def check_from_edges(pairs, n, batch, dtype=np.int64):
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:  # repeats are dropped this many arcs at a time
            mp.setattr(_kernels, "_BATCH", batch)
        net = Network.from_edges(np.array(u, dtype), np.array(v, dtype), n=n)
    if n is None:
        n = max(u + v) + 1 if pairs else 0
    indptr, indices, loops = oracles.csr_of(pairs, n)
    m = len(indices) // 2
    assert net.n == n
    assert net.m == m
    assert net.indptr.dtype == np.int64 and net.indices.dtype == np.int32
    assert net.indptr.tolist() == indptr
    assert net.indices.tolist() == indices
    assert net.load_report.self_loops_dropped == loops
    assert net.load_report.duplicate_edges_dropped == len(pairs) - loops - m


def test_load_ids_near_int32_limit_match_set_oracle(tmp_path):
    # ids on both sides of 2**31, numbered by rank; the ids pass 2**31,
    # and so do the arc keys src * n + dst of the n (near 68k) nodes
    rng = np.random.default_rng(3)
    ids = np.arange(2**31 - 35_000, 2**31 + 35_000)
    u, v = ids[rng.integers(0, len(ids), (2, 120_000))]
    u[:1000] = v[:1000]  # loops
    path = tmp_path / "edges.tsv"
    synth.write_edge_file(path, u, v)
    net = load_edge_list(path)
    labels = sorted(set(u.tolist()) | set(v.tolist()))
    rank = {x: i for i, x in enumerate(labels)}
    pairs = [(rank[a], rank[b]) for a, b in zip(u.tolist(), v.tolist())]
    indptr, indices, loops = oracles.csr_of(pairs, len(labels))
    assert [int(x) for x in net.external_ids(range(net.n))] == labels
    assert net.indptr.tolist() == indptr
    assert net.indices.tolist() == indices
    assert net.load_report.self_loops_dropped == loops


def test_from_edges_rejects_more_nodes_than_int32_ids_hold():
    # raised before the n + 1 row pointers (16 GiB) are made; 2**31
    # nodes would still fit, with ids up to 2**31 - 1
    with pytest.raises(ValueError, match="int32"):
        Network.from_edges(np.empty(0, np.int64), n=2**31 + 1)


_IDS = (st.integers(0, 10**12) | st.integers(10**17, 10**18 - 1)).map(str)
_PAD = st.text(" \t\v\f", max_size=2)
_SEP = st.text(" \t\v\f", min_size=1, max_size=3)


@st.composite
def plain_line(draw):
    """An edge, comment or blank line that the integer path reads.

    A comment may hold any text but a line end, such as non-ASCII
    characters and characters that `str.splitlines`, but no reader
    here, takes for a line break.
    """
    kind = draw(st.sampled_from(["edge", "edge", "edge", "comment", "blank"]))
    if kind == "comment":
        text = st.characters(exclude_characters="\n\r\0", exclude_categories=["Cs"])
        return draw(_PAD) + "#" + draw(st.text(text, max_size=8))
    if kind == "blank":
        return draw(_PAD)
    return draw(_PAD) + draw(_IDS) + draw(_SEP) + draw(_IDS) + draw(_PAD)


@st.composite
def handoff_line(draw):
    """A line the integer path must leave to the string path.

    Leading zeros, ids too wide for int64 or wider than 18 digits, an
    id holding a character other than a digit, a field count other
    than two, and an edge split over two lines by an LF or a lone CR.
    """
    kind = draw(
        st.sampled_from(["zero", "long", "wide", "other", "fields", "split", "cr"])
    )
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
    elif kind == "other":
        other = draw(st.sampled_from(["+", "-", "é", "\x1c", "\x85", "\u2028", "٣"]))
        fields[draw(st.integers(0, 1))] += other
    elif kind == "fields":
        fields = [draw(_IDS) for _ in range(draw(st.sampled_from([1, 3, 4])))]
    elif kind == "split":
        sep = st.just("\n")
    elif kind == "cr":
        fields[0] += "\r"
    return draw(_PAD) + draw(sep).join(fields) + draw(_PAD)


@st.composite
def integer_edge_list(draw):
    """Edge-list text with LF, CRLF or lone-CR ends, and whether it is
    all plain."""
    lines = draw(st.lists(plain_line(), min_size=1, max_size=12))
    odd = draw(st.none() | handoff_line())
    if odd is not None:
        lines.insert(draw(st.integers(0, len(lines))), odd)
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text[: -len(ends[-1])]
    return text, odd is None


def integer_pairs(data: bytes):
    """The endpoint arrays of the edge list `data`, read as the integer
    path reads a chunk, or None where it hands off."""
    found = graph._tokens(data)
    if found is None:
        return None
    if not len(found[1]):
        return np.empty(0, np.int64), np.empty(0, np.int64)
    value = graph._integers(*found)
    return None if value is None else (value[0::2], value[1::2])


@settings(max_examples=300, deadline=None)
@given(case=integer_edge_list())
def test_integer_fast_path_matches_string_path(tmp_path_factory, case):
    text, plain = case
    data = text.encode()
    if not data.strip():
        return
    pairs = integer_pairs(data)
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
    pairs = integer_pairs(("\n".join(lines) + "\n").encode())
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
        # comments, blank space and line ends play no part in it
        (b"# caf\xc3\xa9\n  # indented\r1\x0b2\r3\x0c\t4\r", [(1, 2), (3, 4)]),
        (b"999999999999999999 100000000000000000\r", [(10**18 - 1, 10**17)]),
        (b"# \xc2\x85\xe2\x80\xa8\x1c\n5 6", [(5, 6)]),
        # an id that is not a canonical decimal
        (b"1 +2\n", None),
        (b"00 1\n", None),
        (b"1 2\xc2\xa0\n", None),
        (b"1 2\x00\n", None),
        (b"1 2 # a comment after the ids\n", None),
    ],
)
def test_integer_pairs_edge_cases(text, want):
    pairs = integer_pairs(text)
    if want is None:
        assert pairs is None
    else:
        assert list(zip(pairs[0].tolist(), pairs[1].tolist())) == want


def load_outcome(path, load=load_edge_list):
    """What `load(path)` gives: ids, CSR and report, or the error."""
    try:
        net = load(path)
    except KmpError as e:
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
    # loader's peak is about 1.38 times the int64 ids of the endpoints
    # (1.03 times the network's arrays), and was 2.5 times when the
    # chunks were joined and the arc keys made beside the ids, and 4.3
    # times when the file was read whole
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
    endpoints = 8 * 2 * 60_000
    assert peak <= 1.5 * endpoints
    # the heads were narrowed to int32 in the endpoints' buffer
    assert net.indices.dtype == np.int32 and net.indices.nbytes == 8 * net.m


# id characters: a no-break space, a line separator and a NEL, which
# neither reader cuts at, UTF-8 of two to four bytes, and digits
_ID_CHARS = ["a", "Z", "/", ".", "0", "7", "é", "日", "😀"]
_ID_CHARS += ["\u00a0", "\u2028", "\x85"]
_ID_TEXT = st.text(st.sampled_from(_ID_CHARS), min_size=1, max_size=4)
_STRING_ID = _ID_TEXT | st.sampled_from(["007", "7", "10.1000/j.x"])
_WS = " \t\v\f"


@st.composite
def string_line(draw):
    """(line bytes, kind): an edge, an indented comment or a blank line,
    or, now and then, an odd line that the string reader must hand off:
    1 or 3 fields, a NUL, or bytes that are not UTF-8."""
    pad = draw(st.text(_WS, max_size=2))
    kind = draw(st.sampled_from(["edge"] * 6 + ["comment", "blank", "odd"]))
    if kind == "blank":
        return pad.encode(), kind
    if kind == "comment":
        return (pad + "#" + draw(st.text(_WS + "xé 1", max_size=6))).encode(), kind
    a, b = draw(_STRING_ID), draw(_STRING_ID)
    sep = draw(st.text(_WS, min_size=1, max_size=2))
    line = (pad + a + sep + b + draw(st.text(_WS, max_size=2))).encode()
    if kind == "edge":
        return line, kind
    odd = draw(st.sampled_from(["one", "three", "nul", "utf8"]))
    if odd == "one":
        return (pad + a).encode(), kind
    if odd == "three":
        return line + f" {draw(_STRING_ID)}".encode(), kind
    at = draw(st.integers(len(pad), len(line)))
    return line[:at] + (b"\0" if odd == "nul" else b"\xff") + line[at:], kind


@st.composite
def string_edge_list(draw):
    """Edge-list bytes with LF, CRLF and lone-CR ends, and whether the
    string reader must read them rather than hand off."""
    lines = draw(st.lists(string_line(), min_size=1, max_size=10))
    ends = [draw(st.sampled_from([b"\n", b"\r\n", b"\r"])) for _ in lines]
    data = b"".join(line + end for (line, _), end in zip(lines, ends))
    if draw(st.booleans()):
        data = data[: -len(ends[-1])]
    kinds = {kind for _, kind in lines}
    return data, "edge" in kinds and "odd" not in kinds


@settings(max_examples=300, deadline=None)
@given(case=string_edge_list(), chunk=st.sampled_from([1, 2, 7, 64, 1 << 18]))
@example(case=(b"a\tb\r\n  # x y z\r\n \x0bc\x0cd\ra\t007\n7 c", True), chunk=2)
def test_string_reader_matches_row_reader(tmp_path_factory, case, chunk):
    data, readable = case
    path = tmp_path_factory.mktemp("str") / "edges.tsv"
    path.write_bytes(data)
    want = load_outcome(path, lambda path: graph._load_general(path, data))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_CHUNK", chunk)
        got = graph._read_strings(path)
        if got is not None:
            net = Network.from_edges(got[1], ext_ids=got[0])
            assert load_outcome(path, lambda path: net) == want
            return
        assert not readable
        # handed off, the file loads as the row reader reads it
        if data.isspace() or not data:
            want = f"{path}: empty edge list"
        assert load_outcome(path) == want


def test_string_load_peak_memory_is_bounded_by_the_file(tmp_path, monkeypatch):
    # 60k edges over 20k DOI-like ids, read in about 150 chunks; the
    # string reader's peak is about 2.6 times the file's bytes, where
    # the row reader's was 8.4 times (168 bytes a token)
    rng = np.random.default_rng(5)
    raw = rng.choice(10**9, 20_000, replace=False)
    prefix = rng.integers(1000, 1100, 20_000)
    ids = np.array([f"10.{p}/j.{r:09d}" for p, r in zip(prefix, raw)], dtype=object)
    u, v = ids[rng.integers(0, len(ids), (2, 60_000))]
    path = tmp_path / "edges.tsv"
    path.write_text("".join(f"{a}\t{b}\n" for a, b in zip(u, v)), encoding="ascii")
    monkeypatch.setattr(graph, "_CHUNK", 1 << 14)
    monkeypatch.setattr(_kernels, "_BATCH", 1 << 11)

    def no_row_reader(*args):
        raise AssertionError("handed off to the row reader")

    monkeypatch.setattr(graph, "_load_general", no_row_reader)
    tracemalloc.start()
    try:
        net = load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * path.stat().st_size
    assert net.external_ids(net.all_nodes()) == sorted({*u, *v})


def test_one_long_id_sends_the_file_to_the_row_reader(tmp_path):
    # at one fixed width, a 1.5 MB id would make the ten ids of a 1.5 MB
    # file take 15 MB
    long = "x" * 1_500_000
    lines = [f"a{i}\tb{i}" for i in range(4)] + [f"a0\t{long}"]
    path = write_lines(tmp_path, "e.tsv", lines)
    assert graph._read_strings(path) is None
    net = load_edge_list(path)
    assert net.n == 9 and net.external_id(net.n - 1) == long


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
    if shape == "empty":
        assert not got.flags.writeable
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


def test_clustering_names_a_repeated_row_apart_from_a_shared_node():
    # node 3 twice in one cluster is a repeated row, not an overlap
    repeat = r"^1 nodes repeat within one cluster \(first few: \[3\]\)"
    with pytest.raises(ValueError, match=repeat):
        Clustering.of(5, [3, 3, 1], [0, 0, 0])
    # a Cluster drops the repeat, so the other constructor never sees one
    got = Clustering([Cluster(core=[3, 3, 1])], 5)
    assert got.same_clusters(Clustering.of(5, [1, 3], [7, 7]))
    # a node in two clusters is named so by both, also where it repeats
    shared = r"^1 nodes appear in more than one cluster \(first few: \[3\]\)"
    for make in (
        lambda: Clustering.of(5, [3, 1, 3, 3], [0, 0, 2, 0]),
        lambda: Clustering.of(5, [3, 3, 3], [0, 2, 2], [True, False, True]),
        lambda: Clustering([Cluster(core=[3, 3, 1]), Cluster([4], [3])], 5),
    ):
        with pytest.raises(ValueError, match=shared):
            make()


@st.composite
def clustering_columns(draw):
    """Disjoint clusters over some of the nodes 0..29, each member core
    or not, and the same clusters as shuffled rows (node, id, core) with
    gappy ids. Two equal cuts make an empty cluster."""
    nodes = draw(st.permutations(range(30)))
    cuts = sorted(draw(st.lists(st.integers(0, 30), max_size=6)))
    groups = [sorted(nodes[a:b]) for a, b in zip([0, *cuts], cuts)]
    one = st.integers(-50, 50)
    ids = draw(st.lists(one, min_size=len(groups), max_size=len(groups), unique=True))
    core = draw(st.lists(st.booleans(), min_size=30, max_size=30))
    rows = [(v, i, core[v]) for g, i in zip(groups, ids) for v in g]
    return groups, core, draw(st.permutations(rows))


@settings(max_examples=200, deadline=None)
@given(case=clustering_columns(), repeat=st.booleans())
# node 1 is the non-core smallest member of its cluster, and the second
# cluster is empty
@example(
    case=(
        [[1, 3, 4], [], [0, 2]],
        [True, False, False] + [True] * 27,
        [(3, -2, True), (0, 9, True), (4, -2, True), (1, -2, False), (2, 9, False)],
    ),
    repeat=False,
)
def test_clustering_of_columns_matches_clusters_and_oracle(case, repeat):
    groups, core, rows = case
    clusters = [
        Cluster(core=[v for v in g if core[v]], noncore=[v for v in g if not core[v]])
        for g in groups
    ]
    nodes, ids, flags = (list(col) for col in zip(*rows)) if rows else ([], [], [])
    if repeat and rows:
        # the first row's node again, in a cluster of its own
        with pytest.raises(ValueError, match="1 nodes appear in more than one"):
            Clustering.of(30, nodes + nodes[:1], ids + [99], flags + [True])
        with pytest.raises(ValueError, match="1 nodes appear in more than one"):
            Clustering(clusters + [Cluster(core=nodes[:1])], 30)
        return
    got = Clustering.of(30, np.array(nodes, np.int64), ids, np.array(flags, bool))
    assert got.same_clusters(Clustering(clusters[::-1], 30))
    # canonical order: clusters by smallest member, members ascending
    want = sorted((g for g in groups if g), key=min)
    assert got.nodes.tolist() == [v for g in want for v in g]
    assert got.cluster.tolist() == [i for i, g in enumerate(want) for _ in g]
    assert got.core.tolist() == [core[v] for g in want for v in g]
    assert [(c.core.tolist(), c.noncore.tolist()) for c in got.clusters] == [
        ([v for v in g if core[v]], [v for v in g if not core[v]]) for g in want
    ]
    assert len(got) == len(want) and got.sizes().tolist() == [len(g) for g in want]
    for min_size in (1, 2, 3):
        expect = [-1] * 30
        for i, g in enumerate(want):
            for v in g if len(g) >= min_size else ():
                expect[v] = i
        assert got.assignment(min_size).tolist() == expect
