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
from .clustering import as_ids, run_starts, split_by
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
        past the largest endpoint. An integer array of `ext_ids` must be
        nonnegative and strictly increasing, as `load_edge_list` makes it,
        so that labels can be found by binary search.
        """
        if _is_integer_array(ext_ids) and len(ext_ids):
            if ext_ids[0] < 0 or (ext_ids[1:] <= ext_ids[:-1]).any():
                raise ValueError("integer ids must be nonnegative and increasing")
        u = np.asarray(u, dtype=np.int64).reshape(-1)
        v = np.asarray(v, dtype=np.int64).reshape(-1)
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
        # one arc key src * n + dst per direction, filled in place;
        # sorting the keys orders the arcs by source, then by destination
        arcs = np.empty(2 * len(u), dtype=np.int64)
        fwd, back = arcs[: len(u)], arcs[len(u) :]
        np.multiply(u, n, out=fwd)
        fwd += v
        np.multiply(v, n, out=back)
        back += u
        loop = u == v
        report.self_loops_dropped = int(np.count_nonzero(loop))
        if report.self_loops_dropped:
            # past every arc key, so loops sort last and are cut off
            np.copyto(fwd, n * n, where=loop)
            np.copyto(back, n * n, where=loop)
        del fwd, back, loop  # no view of arcs may outlive its resize
        arcs.sort()
        arcs.resize(len(arcs) - 2 * report.self_loops_dropped, refcheck=False)
        _kernels.compact(arcs, run_starts(arcs))
        m = len(arcs) // 2
        report.duplicate_edges_dropped = len(u) - report.self_loops_dropped - m
        indptr = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)
        indices = np.remainder(arcs, n, out=arcs)
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
        """External labels of `nodes`, in the order given."""
        return list(map(str, self._labels(nodes)))

    def _labels(self, nodes) -> list:
        """External labels of `nodes` as held: Python ints where the ids
        are integers, each formatting as its label, else the labels."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if self._ext is None:
            return nodes.tolist()
        if isinstance(self._ext, np.ndarray):
            return self._ext[nodes].tolist()
        return [self._ext[v] for v in nodes.tolist()]

    @property
    def integer_ids(self) -> bool:
        """Whether the external ids are integers, kept in ascending order.

        So they are when the network is numbered by its own internal ids
        and when `load_edge_list` read it on its integer path.
        """
        return self._ext is None or _is_integer_array(self._ext)

    def integer_internal_ids(self, values) -> np.ndarray:
        """Internal ids of the integer labels `values`, -1 where unknown.

        Only for a network with `integer_ids`.
        """
        values = np.asarray(values, dtype=np.int64)
        if self._ext is None:
            return np.where((values >= 0) & (values < self.n), values, -1)
        at = np.searchsorted(self._ext, values)
        found = at < len(self._ext)
        found[found] = self._ext[at[found]] == values[found]
        return np.where(found, at, -1)

    def internal_id(self, ext: str):
        """Internal id for an external label, or None if unknown."""
        ext = str(ext)
        if self._ext is None:
            try:
                v = int(ext)
            except ValueError:
                return None
            return v if 0 <= v < self.n else None
        if self.integer_ids:
            # only a canonical decimal prints back as one of the ids
            canonical = ext.isascii() and ext.isdigit() and len(ext) <= _MAX_DIGITS
            if not canonical or (ext[0] == "0" and ext != "0"):
                return None
            v = int(self.integer_internal_ids([int(ext)])[0])
            return v if v >= 0 else None
        if self._ext_lookup is None:
            self._ext_lookup = {str(e): i for i, e in enumerate(self._ext)}
        return self._ext_lookup.get(ext)

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


def _is_integer_array(ids) -> bool:
    return isinstance(ids, np.ndarray) and ids.dtype.kind == "i"


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
    takes a whole-array fast path (`_integer_pairs` gives its grammar)
    and numbers the nodes in numeric id order: node i is the i-th
    smallest id. One in-place sort of the packed keys
    `id << b | position`, with b the bit length of the last position,
    gives that order, and each endpoint's rank is scattered back to its
    position. An id of 2**(62 - b) or more (near 10**18, in a large
    file) leaves no room for b bits; such a file is numbered by
    `np.unique`, with the same result. Every other file goes to the
    string path, which numbers the nodes in string order and reports
    malformed lines: any other byte, a line with other than two fields,
    a longer id, a lone `\r`, and an id with a leading zero (so `007`
    and `7` stay two nodes).

    The integer path reads the file in chunks of about `_CHUNK` bytes
    that end at a line end, and never holds it whole; the string path
    reads it whole, again. So the integer path's peak is set by the
    int64 ids of all the endpoints, not by the text: they are gathered
    chunk by chunk and joined once, relabelled in place beside int32
    positions and ranks, and the CSR is built from one array of arc keys
    that is sorted and stripped of repeats in place. At the peak, about
    twice the network's arrays are live, plus a few chunks of scratch.
    Once the temporaries are freed, the heap is trimmed, so that what
    the process holds afterwards is the network and not whatever freed
    memory the allocator happened to keep.
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
    ids = _read_integers(path)
    if ids is None:
        data = path.read_bytes()
        if not data or data.isspace():
            raise EdgeListError(f"{path}: empty edge list")
        return _load_general(path, data)
    ext, inv = _relabel(ids)
    del ids
    return Network.from_edges(inv[0::2], inv[1::2], ext_ids=ext)


_CHUNK = 1 << 18  # bytes read at a time (see `_line_chunks`)


def _read_integers(path: Path):
    """The tokens of an integer edge list as int64 in file order, or None
    to hand off; raises EdgeListError for an empty or edgeless file.

    The file is read in `_line_chunks`, and each chunk goes through
    `_blank_comments` and `_integer_values` alone. That is the same as
    one pass over the whole file: every check is per line or per token,
    a chunk starts a line, and only the last chunk can end without an
    LF, so no CR/LF pair and no token is cut.
    """
    parts = []
    blank = True
    with open(path, "rb") as f:
        for chunk in _line_chunks(f):
            blank = blank and chunk.isspace()
            if b"#" in chunk:
                chunk = _blank_comments(np.frombuffer(chunk, dtype=np.uint8).copy())
            value = None if chunk is None else _integer_values(chunk)
            if value is None:
                return None
            parts.append(value)
    if blank:
        raise EdgeListError(f"{path}: empty edge list")
    ids = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if not len(ids):
        raise EdgeListError(f"{path}: no edges found")
    return ids


def _line_chunks(f):
    """The bytes of the binary file `f`, in chunks that end at their last
    LF; each takes in `_CHUNK` bytes more, or as many as it takes to
    reach an LF. Never yields an empty chunk."""
    head = []
    while block := f.read(_CHUNK):
        cut = block.rfind(b"\n") + 1
        if cut:
            # joining a lone bytes object returns it, so a file of one
            # block that ends in an LF is never copied
            yield b"".join([*head, block[:cut]])
            head = []
            block = block[cut:]
        if block:
            head.append(block)
    if head:
        yield b"".join(head)


def _relabel(ids):
    """`np.unique(ids, return_inverse=True)` for nonempty, nonnegative
    int64 `ids`, from one sort of packed keys (see `load_edge_list`).
    Overwrites `ids` and returns it as the inverse. Positions and ranks
    are kept in int32 when they fit."""
    b = (len(ids) - 1).bit_length()
    if int(ids.max()) >= 1 << (62 - b):
        return np.unique(ids, return_inverse=True)
    index = np.int32 if b < 32 else np.int64
    key = ids
    key <<= b
    key |= np.arange(len(key), dtype=index)
    key.sort()
    pos = np.empty(len(key), dtype=index)
    np.bitwise_and(key, (1 << b) - 1, out=pos, casting="unsafe")
    key >>= b
    first = run_starts(key)
    ext = key[first]
    # counted in place: a cumsum of the bools would cast them in a copy
    rank = np.empty(len(key), dtype=index)
    rank[...] = first
    del first
    np.cumsum(rank, out=rank)
    rank -= 1
    # the keys are spent, so their array takes the inverse
    inv = key
    inv[pos] = rank
    return ext, inv


_MAX_DIGITS = 18  # every 18-digit decimal fits in an int64
_POW10 = [10**k for k in range(1, _MAX_DIGITS)]


def _integer_pairs(data: bytes):
    """Endpoint arrays of an all-integer edge list, or None to hand off.

    Accepts lines of exactly two digit runs of at most 18 digits with
    no leading zero, separated and optionally surrounded by spaces or
    tabs; blank lines; `#` lines of printable ASCII and tabs; and `\n`
    or `\r\n` line ends. The text after the last LF is a line too. On
    such a file it yields the pairs `_load_general` would read, with
    each token parsed as an integer. Because no accepted token has a
    leading zero, every value prints back as the token it came from.

    `_blank_comments` checks the comments and blanks them in a copy.
    `_integer_values` then checks the rest, each check one pass over
    the bytes or the tokens:

    - every CR is followed by an LF, and `bytes.translate` leaves
      nothing once digits, spaces, tabs, CRs and LFs are deleted (which
      fills no array the size of the file);
    - the tokens start where a digit follows a non-digit. Taken in file
      order, the token starts and the LFs cut into runs of starts, one
      run per line, and every run must hold 0 or 2 starts;
    - one `np.fromstring` call reads every token. A value's width is
      the count of digits it prints with, up to 18. A token of at most
      18 digits has at least its value's width, and more when it has a
      leading zero; a wider token has more than 18 whatever its value
      (`fromstring` saturates one too wide for int64). So the tokens
      are exactly the printed values when the file's digit count
      equals the summed widths.
    """
    if b"#" in data:
        data = _blank_comments(np.frombuffer(data, dtype=np.uint8).copy())
    value = None if data is None else _integer_values(data)
    return None if value is None else (value[0::2], value[1::2])


def _blank_comments(buf):
    """The bytes of `buf` with its `#` lines blanked, or None to hand off.

    `buf` is a writable uint8 array of the file and is blanked in place.
    A comment runs from a `#` that starts a line up to the line's LF
    and may hold printable ASCII, tabs and CRs. Every comment byte but
    a CR becomes a space; a CR stays for `_integer_values` to check.
    """
    newline = np.flatnonzero(buf == 10)
    starts = np.concatenate([[0], newline + 1])
    starts = starts[starts < len(buf)]
    starts = starts[buf[starts] == ord("#")]
    ends = np.append(newline, len(buf))[np.searchsorted(newline, starts)]
    del newline
    delta = np.zeros(len(buf) + 1, dtype=np.int8)
    delta[starts] = 1
    delta[ends] = -1
    comment = np.cumsum(delta[:-1], dtype=np.int8).view(bool)
    del delta
    inside = buf[comment]
    if not ((inside - np.uint8(32) < 95) | (inside == 9) | (inside == 13)).all():
        return None
    inside[inside != 13] = ord(" ")
    buf[comment] = inside
    del comment, inside
    return buf.tobytes()


def _integer_values(text: bytes):
    """The tokens of `text`, which holds no `#` line, as int64 in file
    order, or None to hand off. `_integer_pairs` lists the checks."""
    buf = np.frombuffer(text, dtype=np.uint8)
    if b"\r" in text:
        cr = np.flatnonzero(buf == 13)
        if cr[-1] == len(buf) - 1 or (buf[cr + 1] != 10).any():
            return None
    if text.translate(None, b"0123456789\t\n\r "):
        return None

    digit = (buf - np.uint8(ord("0"))) < 10
    digits = np.count_nonzero(digit)
    start = np.empty_like(digit)
    start[:1] = digit[:1]
    np.greater(digit[1:], digit[:-1], out=start[1:])
    del digit
    count = np.count_nonzero(start)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    start |= buf == 10
    event = np.flatnonzero(start)
    del start
    newline = np.flatnonzero(buf[event] == 10)
    del event
    # the starts between two LFs, and before the first and after the last
    run = np.diff(newline, prepend=-1, append=count + len(newline)) - 1
    del newline
    if ((run | 2) != 2).any():  # a run other than 0 or 2
        return None
    del run

    # np.fromstring parses past the end of its buffer up to a NUL, which a
    # bytes object has and an array need not, so it reads `text` and not
    # `buf`. It gets no count: NumPy 2.4 pads a read that runs short of
    # one with uninitialised values, so only a read to the end shows one
    del buf
    value = np.fromstring(text, dtype=np.int64, sep=" ")
    if len(value) != count:
        return None
    # one digit, plus one per power of ten up to the value, up to 10**17
    top = int(value.max())
    width = count + sum(np.count_nonzero(value >= p) for p in _POW10 if p <= top)
    if width != digits:
        return None
    return value


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


_ROWS = 1 << 16  # rows a writer formats at a time


def label_batches(net: Network, nodes):
    """The external labels of `nodes`, `_ROWS` at a time, for a writer
    to format straight into its rows (see `Network._labels`)."""
    for lo in range(0, len(nodes), _ROWS):
        yield net._labels(nodes[lo : lo + _ROWS])


def write_id_map(net: Network, path) -> None:
    """Write `external<TAB>internal` rows for every node."""
    with open(path, "w") as f:
        v = 0
        for labels in label_batches(net, net.all_nodes()):
            f.write("".join([f"{e}\t{i}\n" for i, e in enumerate(labels, v)]))
            v += len(labels)
