"""Undirected networks in compressed sparse row form.

A Network is immutable once built: `indptr`/`indices` are the usual CSR
pair over internal ids 0..n-1, and an id map translates back to the
external labels found in the input file. Self-loops and duplicate edges
are dropped at construction time and counted in `load_report`.

Node subsets are passed around as sorted unique int64 arrays. Helpers
here accept any integer sequence and canonicalize it once.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .clustering import as_ids, split_by
from .errors import EdgeListError

NodeId = int


@dataclass
class LoadReport:
    """What construction threw away."""

    self_loops_dropped: int = 0
    duplicate_edges_dropped: int = 0

    def to_dict(self) -> dict:
        return {
            "self_loops_dropped": self.self_loops_dropped,
            "duplicate_edges_dropped": self.duplicate_edges_dropped,
        }


class Network:
    """Simple undirected graph over internal node ids 0..n-1."""

    def __init__(self, indptr, indices, m, ext_ids=None, load_report=None):
        self.indptr = indptr
        self.indices = indices
        self.n = len(indptr) - 1
        self.m = m
        self._ext = ext_ids
        self._ext_lookup = None
        self._degrees = None
        self.load_report = load_report if load_report is not None else LoadReport()

    @classmethod
    def from_edges(cls, u, v, n=None, ext_ids=None) -> "Network":
        """Build from endpoint arrays of internal ids.

        Self-loops and duplicates are dropped (and counted). `n` may be
        given to include isolated trailing nodes; otherwise it is one
        past the largest endpoint.
        """
        u = np.asarray(u, dtype=np.int64).ravel()
        v = np.asarray(v, dtype=np.int64).ravel()
        if len(u) != len(v):
            raise ValueError("endpoint arrays differ in length")
        if ext_ids is not None and n is not None and n != len(ext_ids):
            raise ValueError("n disagrees with the id map")
        if ext_ids is not None:
            n = len(ext_ids)
        if n is None:
            n = int(max(u.max(), v.max())) + 1 if len(u) else 0
        if len(u) and (u.min() < 0 or v.min() < 0 or u.max() >= n or v.max() >= n):
            raise ValueError("endpoint out of range")
        report = LoadReport()
        keep = u != v
        report.self_loops_dropped = int(len(u) - keep.sum())
        u = u[keep]
        v = v[keep]
        # one arc key src * n + dst per direction; sorting the keys
        # orders the arcs by source, then by destination
        arcs = np.concatenate([u * np.int64(n) + v, v * np.int64(n) + u])
        arcs.sort()
        arcs = arcs[np.diff(arcs, prepend=-1) != 0]
        m = len(arcs) // 2
        report.duplicate_edges_dropped = int(len(u) - m)
        src = arcs // n
        indices = arcs % n
        counts = np.bincount(src, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr, indices, m, ext_ids=ext_ids, load_report=report)

    # -- basic queries ---------------------------------------------------

    def degree(self, v: NodeId) -> int:
        if v < 0 or v >= self.n:
            raise IndexError(f"node {v} out of range for network with {self.n} nodes")
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def degrees(self) -> np.ndarray:
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    def neighbors(self, v: NodeId) -> np.ndarray:
        if v < 0 or v >= self.n:
            raise IndexError(f"node {v} out of range for network with {self.n} nodes")
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def all_nodes(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)

    # -- id mapping ------------------------------------------------------

    def external_id(self, v: NodeId) -> str:
        if self._ext is None:
            return str(v)
        return str(self._ext[v])

    def external_ids(self, nodes) -> list[str]:
        return [self.external_id(int(v)) for v in nodes]

    def internal_id(self, ext: str):
        """Internal id for an external label, or None if unknown."""
        if self._ext_lookup is None:
            if self._ext is None:
                self._ext_lookup = {}
            else:
                self._ext_lookup = {str(e): i for i, e in enumerate(self._ext)}
        if self._ext is None:
            try:
                v = int(ext)
            except ValueError:
                return None
            return v if 0 <= v < self.n else None
        return self._ext_lookup.get(str(ext))

    # -- subset operations -----------------------------------------------

    def subset(self, nodes) -> np.ndarray:
        """Canonicalize a node collection: sorted, unique, in range.

        Like `as_ids`, the result may be a read-only view of `nodes`.
        """
        s = as_ids(nodes)
        if len(s) and (s[0] < 0 or s[-1] >= self.n):
            raise IndexError("subset contains out-of-range node ids")
        return s

    def mask(self, nodes) -> np.ndarray:
        m = np.zeros(self.n, dtype=np.uint8)
        m[np.asarray(nodes, dtype=np.int64)] = 1
        return m

    def edge_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All edges as (lo, hi) arrays with lo < hi."""
        rows = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
        keep = self.indices > rows
        return rows[keep], self.indices[keep].astype(np.int64)


def subset_degrees(net: Network, nodes) -> np.ndarray:
    """Within-subset degree for each member, aligned with the sorted subset."""
    s = net.subset(nodes)
    return _kernels.subset_degrees(net.indptr, net.indices, net.mask(s), s)


def induced_edge_count(net: Network, nodes) -> int:
    """Number of edges with both endpoints in the subset."""
    s = net.subset(nodes)
    if len(s) == 0:
        return 0
    return int(_kernels.induced_edges(net.indptr, net.indices, net.mask(s), s))


def connected_components(net: Network, within=None) -> list[np.ndarray]:
    """Components of the induced subgraph, ordered by smallest member.

    With `within=None` the whole node set is used. Each component comes
    back as a sorted int64 array.
    """
    s = net.all_nodes() if within is None else net.subset(within)
    if len(s) == 0:
        return []
    comp = _kernels.component_labels(net.indptr, net.indices, s, net.n)
    return split_by(comp, s, int(comp.max()) + 1)


def load_edge_list(path) -> Network:
    """Read a tab-separated edge list.

    One edge per line, two id fields, `#` lines and blank lines skipped.
    Ids may be arbitrary strings. Raises EdgeListError for an empty or
    malformed file, naming the offending line.

    A file whose ids are all integers written in canonical decimal form
    takes a vectorised fast path, which numbers the nodes in numeric id
    order. It accepts lines of exactly two digit runs of at most 18
    digits, separated and optionally surrounded by spaces or tabs;
    blank lines; `#` lines of printable ASCII; and `\n` or `\r\n` line
    ends. Anything else goes to the string path, which numbers the
    nodes in string order and reports malformed lines: any other byte,
    a line with other than two fields, a longer id, a lone `\r`, and an
    id with a leading zero (so `007` and `7` stay two nodes).

    The parser's temporaries are several times the size of the network.
    Once they are freed, the heap is trimmed, so that what the process
    holds afterwards is the network and not whatever freed memory the
    allocator happened to keep.
    """
    net = _read_edge_list(Path(path))
    # glibc keeps a freed block resident while a live block sits above
    # it in the heap; without the trim, the resident memory of every
    # later stage depends on where the temporaries happened to land
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)
    return net


try:
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):  # no glibc: nothing to trim
    _MALLOC_TRIM = None


def _read_edge_list(path: Path) -> Network:
    data = path.read_bytes()
    if not data.strip():
        raise EdgeListError(f"{path}: empty edge list")
    pairs = _integer_pairs(data)
    if pairs is None:
        return _load_general(path, data)
    del data
    u, v = pairs
    m = len(u)
    if m == 0:
        raise EdgeListError(f"{path}: no edges found")
    ext, inv = np.unique(np.concatenate(pairs), return_inverse=True)
    del pairs, u, v
    return Network.from_edges(inv[:m], inv[m:], ext_ids=ext)


_MAX_DIGITS = 18  # every 18-digit decimal fits in an int64
_DATA_BYTE = np.zeros(256, dtype=bool)
_DATA_BYTE[[9, 10, 13, 32]] = True
_DATA_BYTE[ord("0") : ord("9") + 1] = True
_COMMENT_BYTE = np.zeros(256, dtype=bool)
_COMMENT_BYTE[[9, 10, 13]] = True
_COMMENT_BYTE[32:127] = True


def _integer_pairs(data: bytes):
    """Endpoint arrays of an all-integer edge list, or None to hand off.

    Accepts exactly the grammar described in `load_edge_list`, and on
    it yields the pairs `_load_general` would read, with each token
    parsed as an integer. Because no accepted token has a leading zero,
    every value prints back as the token it came from.

    Masks the size of the file, and arrays with one entry per token or
    line, are deleted as soon as they are used up to keep peak memory
    low on large files.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    if b"\r" in data:
        cr = np.flatnonzero(buf == 13)
        if cr[-1] == len(buf) - 1 or (buf[cr + 1] != 10).any():
            return None
    newline = np.flatnonzero(buf == 10)
    comment = None
    if b"#" in data:
        starts = np.concatenate([[0], newline + 1])
        starts = starts[starts < len(buf)]
        starts = starts[buf[starts] == ord("#")]
        at = np.searchsorted(newline, starts)
        ends = np.append(newline, len(buf))[at]
        delta = np.zeros(len(buf) + 1, dtype=np.int8)
        delta[starts] = 1
        delta[ends] = -1
        comment = np.cumsum(delta[:-1], dtype=np.int8).view(bool)
        del delta
        if not _COMMENT_BYTE[buf[comment]].all():
            return None
        if not _DATA_BYTE[buf[~comment]].all():
            return None
    elif not _DATA_BYTE[buf].all():
        return None

    digit = (buf - np.uint8(ord("0"))) < 10
    if comment is not None:
        digit &= ~comment
        del comment
    edge = np.diff(digit.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    del digit
    first = np.flatnonzero(edge == 1)
    length = np.flatnonzero(edge == -1) - first
    del edge
    if len(first) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if len(first) % 2 or length.max() > _MAX_DIGITS:
        return None
    if ((length > 1) & (buf[first] == ord("0"))).any():
        return None
    # token 2i and 2i+1 must share a line, and the next pair start a new one
    line = np.searchsorted(newline, first)
    del newline
    if (line[0::2] != line[1::2]).any() or (line[2::2] == line[1:-1:2]).any():
        return None
    del line

    value = np.zeros(len(first), dtype=np.int64)
    for j in range(int(length.max())):
        live = np.flatnonzero(length > j)
        digits = buf[first[live] + j] - np.uint8(ord("0"))
        value[live] = value[live] * 10 + digits
    return value[0::2], value[1::2]


def _load_general(path: Path, data: bytes) -> Network:
    pairs = []
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(
                f"{path}: line {lineno}: expected 2 fields, got {len(parts)}"
            )
        pairs.append((parts[0], parts[1]))
    if not pairs:
        raise EdgeListError(f"{path}: no edges found")
    labels = sorted({t for pair in pairs for t in pair})
    index = {t: i for i, t in enumerate(labels)}
    u = np.fromiter((index[a] for a, _ in pairs), dtype=np.int64, count=len(pairs))
    v = np.fromiter((index[b] for _, b in pairs), dtype=np.int64, count=len(pairs))
    return Network.from_edges(u, v, ext_ids=labels)


def write_edge_list(net: Network, path) -> None:
    """Write the network back out, one `lo<TAB>hi` line per edge."""
    lo, hi = net.edge_pairs()
    with open(path, "w") as f:
        for a, b in zip(lo, hi):
            f.write(f"{net.external_id(int(a))}\t{net.external_id(int(b))}\n")


def write_id_map(net: Network, path) -> None:
    """Write `external<TAB>internal` rows for every node."""
    with open(path, "w") as f:
        for v in range(net.n):
            f.write(f"{net.external_id(v)}\t{v}\n")
