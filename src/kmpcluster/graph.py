"""Undirected networks in compressed sparse row form.

A Network is immutable once built: `indptr`/`indices` are the usual CSR
pair over internal ids 0..n-1, and an id map translates back to the
external labels found in the input file. As in every CSR here, the arc
offsets `indptr` are int64 and the node ids `indices` int32, so n is at
most 2**31. Self-loops and duplicate edges are dropped at construction
time and counted in `load_report`. `load_edge_list` numbers the nodes in
numeric id order when every id is a canonical decimal, and in string
order otherwise; nothing but the ids decides which.

Node subsets are passed around as sorted unique int64 arrays. Helpers
here accept any integer sequence and canonicalize it once.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import _kernels
from .clustering import as_ids, run_starts, split_by, trim_heap
from .errors import EdgeListError, KmpError

NodeId = int


@dataclass
class LoadReport:
    """What construction threw away."""

    self_loops_dropped: int = 0
    duplicate_edges_dropped: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


class Network:
    """Simple undirected graph over internal node ids 0..n-1."""

    def __init__(self, indptr, indices, m, ext_ids=None, load_report=None):
        self.indptr = indptr
        self.indices = indices
        self.n = len(indptr) - 1
        self.m = m
        if ext_ids is None:
            ext_ids = np.arange(self.n, dtype=np.int64)
        # one label per node: int64 for integer ids, object for strings
        self._ext = np.asarray(ext_ids, None if _is_integer_array(ext_ids) else object)
        self._ext_lookup = None
        self._degrees = None
        self.load_report = load_report if load_report is not None else LoadReport()

    @classmethod
    def from_edges(cls, u, v=None, n=None, ext_ids=None) -> "Network":
        """Build from endpoint arrays of internal ids.

        Self-loops and duplicates are dropped (and counted). `n` may be
        given to include isolated trailing nodes; otherwise it is one
        past the largest endpoint. An integer array of `ext_ids` must be
        nonnegative and strictly increasing, as `load_edge_list` makes it,
        so that labels can be found by binary search.

        With `v` None, `u` holds each edge's two endpoints in turn, as an
        int64 array that owns its data; the network takes it over and
        builds its arcs in that buffer, so that no second array of the
        endpoints' size is made. Otherwise the endpoints are copied into
        such an array first. The arc keys src * n + dst are made and
        sorted there as int64; then the heads are narrowed to int32 in
        place, a batch at a time from the front, and the buffer is cut
        to half, so `indices` holds 4 bytes per arc. More than 2**31
        nodes raise ValueError, before anything n-sized is made.
        """
        if _is_integer_array(ext_ids) and len(ext_ids):
            if ext_ids[0] < 0 or (ext_ids[1:] <= ext_ids[:-1]).any():
                raise ValueError("integer ids must be nonnegative and increasing")
        if v is None:
            ends = u
            owned = isinstance(ends, np.ndarray) and ends.flags.owndata
            if not (owned and ends.dtype == np.int64 and len(ends) % 2 == 0):
                raise ValueError("endpoints must be an owned int64 array of pairs")
        else:
            u = np.asarray(u, dtype=np.int64).reshape(-1)
            v = np.asarray(v, dtype=np.int64).reshape(-1)
            if len(u) != len(v):
                raise ValueError("endpoint arrays differ in length")
            ends = np.empty(2 * len(u), np.int64)
            ends[0::2] = u
            ends[1::2] = v
        if ext_ids is not None and n is not None and n != len(ext_ids):
            raise ValueError("n disagrees with the id map")
        if ext_ids is not None:
            n = len(ext_ids)
        if n is None:
            n = int(ends.max()) + 1 if len(ends) else 0
        if n > 2**31:
            raise ValueError(f"{n} nodes: int32 node ids allow at most 2**31")
        if len(ends) and (ends.min() < 0 or ends.max() >= n):
            raise ValueError("endpoint out of range")
        edges = len(ends) // 2
        report = LoadReport(self_loops_dropped=_arc_keys(ends, n))
        # sorting the keys orders the arcs by source, then by destination
        arcs = ends
        arcs.sort()
        arcs.resize(len(arcs) - 2 * report.self_loops_dropped, refcheck=False)
        _kernels.compact(arcs, run_starts(arcs))
        m = len(arcs) // 2
        report.duplicate_edges_dropped = edges - report.self_loops_dropped - m
        # row v starts at its first key of v * n or more; found in place,
        # a batch of rows at a time
        indptr = np.arange(n + 1, dtype=np.int64)
        for lo in range(0, n + 1, _kernels._BATCH):
            rows = indptr[lo : lo + _kernels._BATCH]
            rows[...] = np.searchsorted(arcs, rows * n)
        np.remainder(arcs, n, out=arcs)
        # narrowed in place: each batch lands at or behind where it is read
        heads = arcs.view(np.int32)
        for lo in range(0, len(arcs), _kernels._BATCH):
            hi = min(lo + _kernels._BATCH, len(arcs))
            heads[lo:hi] = arcs[lo:hi]
        del heads
        arcs.resize(m, refcheck=False)
        return cls(indptr, arcs.view(np.int32), m, ext_ids=ext_ids, load_report=report)

    # -- basic queries ---------------------------------------------------

    def degree(self, v: NodeId) -> int:
        return len(self.neighbors(v))

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
        return self.external_ids([v])[0]

    def external_ids(self, nodes) -> list[str]:
        """External labels of `nodes`, in the order given."""
        return list(map(str, self._labels(nodes)))

    def _labels(self, nodes) -> list:
        """External labels of `nodes` as held: Python ints where the ids
        are integers, each formatting as its label, else the labels."""
        return self._ext[np.asarray(nodes, dtype=np.int64)].tolist()

    @property
    def integer_ids(self) -> bool:
        """Whether the external ids are integers, kept in ascending order.

        So they are when the network is numbered by its own internal ids
        and when `load_edge_list` read it on its integer path.
        """
        return _is_integer_array(self._ext)

    def integer_internal_ids(self, values) -> np.ndarray:
        """Internal ids of the integer labels `values`, -1 where unknown.

        Only for a network with `integer_ids`.
        """
        values = np.asarray(values, dtype=np.int64)
        at = np.searchsorted(self._ext, values)
        found = at < len(self._ext)
        found[found] = self._ext[at[found]] == values[found]
        return np.where(found, at, -1)

    def internal_id(self, ext: str):
        """Internal id for an external label, or None if unknown."""
        ext = str(ext)
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


def _arc_keys(ends, n: int) -> int:
    """Overwrite each edge's two endpoints in `ends` with its arc keys
    src * n + dst, one per direction, a batch at a time, and return the
    count of self-loops. A loop's keys are n * n, past every arc key, so
    that they sort last and can be cut off."""
    loops = 0
    for lo in range(0, len(ends), 2 * _kernels._BATCH):
        pair = ends[lo : lo + 2 * _kernels._BATCH].reshape(-1, 2)
        loop = pair[:, 0] == pair[:, 1]
        key = pair * n
        key += pair[:, ::-1]
        key[loop] = n * n
        pair[...] = key
        loops += int(np.count_nonzero(loop))
    return loops


def _is_integer_array(ids) -> bool:
    return isinstance(ids, np.ndarray) and ids.dtype.kind == "i"


def subset_degrees(net: Network, nodes) -> np.ndarray:
    """Within-subset degree for each member, aligned with the sorted subset."""
    s = net.subset(nodes)
    return _kernels.subset_degrees(net.indptr, net.indices, net.mask(s), s)


def induced_edge_count(net: Network, nodes) -> int:
    """Number of edges with both endpoints in the subset."""
    s = net.subset(nodes)
    return int(_kernels.induced_edges(net.indptr, net.indices, net.mask(s), s))


def connected_components(net: Network, within=None) -> list[np.ndarray]:
    """Components of the induced subgraph, ordered by smallest member.

    With `within=None` the whole node set is used. Each component comes
    back as a sorted int64 array.
    """
    s = net.all_nodes() if within is None else net.subset(within)
    lptr, lind = _kernels.extract_local_csr(net.indptr, net.indices, s)
    comp = _kernels.component_labels(lptr, lind)
    return split_by(comp, s, int(comp.max(initial=-1)) + 1)


def load_edge_list(path) -> Network:
    """Read a tab-separated edge list.

    One edge per line, two id fields, `#` lines and blank lines skipped.
    Ids may be arbitrary strings. Raises EdgeListError for an empty or
    malformed file, naming the offending line.

    The nodes are numbered in numeric id order when every id is a
    canonical decimal (`_integers`), and in string order otherwise, so
    that `007` and `7` stay two nodes; comments, blank space and line
    ends play no part in it.

    `_read_ids` reads the file in chunks of about `_CHUNK` bytes that
    end at a line end, and never holds it whole; a file it cannot read
    so, such as one with a malformed line, goes to the row reader
    `_load_general`, which reads it whole and reports the line. The
    string path's peak is set by its ids at their fixed width, twice
    over while they are sorted. The integer path's is set by the int64
    ids of all the endpoints, not by the text. They go into one array,
    grown in place chunk by chunk, which then serves every later step:
    it is relabelled in place (`_relabel`) and then holds the arc keys
    from which `Network.from_edges` builds the CSR. At the peak, that
    array, an eighth at most of slack or a bool per endpoint, the
    n-sized id map and row pointers, and a chunk of scratch are live.
    The CSR's int32 heads then move to the front half of that array,
    which is cut to them. Once the temporaries are freed, the heap is
    trimmed, so that what the process holds afterwards is the network
    and not whatever freed memory the allocator happened to keep.
    """
    net = _read_edge_list(Path(path))
    trim_heap()
    return net


def _read_edge_list(path: Path) -> Network:
    ids = _read_ids(path, integer=True)
    if ids is not None:
        ext, inv = _relabel(ids)
        del ids
        return Network.from_edges(inv, ext_ids=ext)
    strings = _read_strings(path)
    if strings is not None:
        labels, inverse = strings
        return Network.from_edges(inverse, ext_ids=labels)
    data = path.read_bytes()
    if not data or data.isspace():
        raise EdgeListError(f"{path}: empty edge list")
    return _load_general(path, data)


_CHUNK = 1 << 16  # bytes read at a time (see `_line_chunks`)


def _read_ids(path: Path, integer: bool, refuse=None):
    """The ids of the edge list `path` in file order, or None to hand
    off: int64 values if `integer`, else fixed-width bytes.

    The file is read in `_line_chunks`, and `_tokens` finds each chunk's
    ids. No line and no id spans two chunks, so this reads what one pass
    over the whole file would. The ids go into one array that grows in
    place (`_kernels._put`), widened when a longer id comes.

    It hands off where `_tokens` does, at a chunk for whose bytes array
    `refuse` returns true, on a file with no ids and, if `integer`, at
    an id that is not a canonical decimal (`_integers`). Else it hands
    off when the ids at their fixed width would take more than `_WIDE`
    times the bytes read, and a MiB more, as one long id among many
    short ones would make them: past that, the sort's two copies in
    `_read_strings` would take more than the row reader, which takes
    about 8 times the file's bytes.
    """
    ids = np.empty(0, np.int64 if integer else "S1")
    count = read = 0
    with open(path, "rb") as f:
        for chunk in _line_chunks(f):
            found = _tokens(chunk)
            if found is None or (refuse is not None and refuse(found[0])):
                return None
            buf, lo, length = found
            read += len(chunk)
            if not len(lo):
                continue
            if integer:
                part = _integers(buf, lo, length)
                if part is None:
                    return None
            else:
                width = int(length.max())
                if max(width, ids.itemsize) * (count + len(lo)) > _WIDE * read + 2**20:
                    return None
                if width > ids.itemsize:
                    ids = ids.astype(f"S{width}")
                part = _gather(buf, lo, length, width)
            count = _kernels._put(ids, count, part)
    if not count:
        return None
    ids.resize(count, refcheck=False)
    trim_heap()  # the chunks' scratch, freed below the ids
    return ids


_WIDE = 4  # bounds the ids' fixed width (see `_read_ids`)


def _line_chunks(f):
    """The bytes of the binary file `f`, in chunks that end at their last
    LF or CR; each takes in `_CHUNK` bytes more, or as many as it takes
    to reach one. Never yields an empty chunk. A cut may split a CRLF,
    which `_tokens` reads as two line ends either way."""
    head = []
    while block := f.read(_CHUNK):
        cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1
        if cut:
            # joining a lone bytes object returns it, so a file of one
            # block that ends in a line end is never copied
            yield b"".join([*head, block[:cut]])
            head = []
            block = block[cut:]
        if block:
            head.append(block)
    if head:
        yield b"".join(head)


def _read_strings(path: Path):
    """(labels, inverse) for an edge list of string ids, or None to hand
    off to `_load_general`: the labels are the distinct ids as str in
    sorted order, and the inverse is each token's label index, in file
    order, as an int64 array that owns its data.

    One sort of the ids from `_read_ids` numbers them, as
    `np.unique(..., return_inverse=True)` would: in UTF-8 byte order,
    which is the code point order in which Python sorts str. The sort
    takes a sorted copy of the ids and 8 bytes a token beside them; once
    both copies are freed, the inverse takes 25 bytes a token.
    """
    ids = _read_ids(path, integer=False)
    if ids is None:
        return None
    order = ids.argsort()
    ids = ids[order]
    first = run_starts(ids)
    labels = [label.decode() for label in ids[first].tolist()]
    del ids
    inverse = np.empty(len(order), np.int64)
    inverse[order] = np.cumsum(first) - 1
    return labels, inverse


def _tokens(chunk: bytes):
    """(bytes, starts, lengths) of the ids on the edge lines of `chunk`,
    or None to hand off.

    An id is a run of bytes other than ASCII whitespace (`_SPACE`) and
    line ends (LF and CR, so that a CRLF makes one empty line more,
    which holds no id). A line is a comment when its first id starts
    with `#`, as `text_lines` reads it after stripping; every other line
    must hold 0 or 2 ids. It hands off where the row reader might read
    the chunk otherwise or word an error: at a NUL byte (a bytes array
    drops trailing NULs), bytes that are not UTF-8, or a line of other
    than two ids.
    """
    if b"\0" in chunk:
        return None
    try:
        chunk.decode("utf-8")
    except UnicodeDecodeError:
        return None
    buf = np.frombuffer(chunk, np.uint8)
    # bytes 9 to 13 and 32 end an id, and so do both ends of the chunk
    gap = np.ones(len(buf) + 2, np.bool_)
    np.less_equal(buf - np.uint8(9), 4, out=gap[1:-1])
    gap[1:-1] |= buf == 32
    # an id starts where a gap ends, and ends where the next one starts
    lo, hi = np.flatnonzero(gap[:-1] != gap[1:]).reshape(-1, 2).T
    del gap
    # the first id after a line end starts a line, and so does the first
    first = np.zeros(len(lo) + 1, np.bool_)
    first[np.searchsorted(lo, np.flatnonzero((buf == 10) | (buf == 13)))] = True
    first[0] = True
    first = first[:-1]
    head = np.flatnonzero(first)
    comment = buf[lo[head]] == ord("#")
    if (np.diff(head, append=len(lo))[~comment] != 2).any():
        return None
    if not comment.any():
        return buf, lo, hi - lo
    keep = ~comment[np.cumsum(first) - 1]
    return buf, lo[keep], (hi - lo)[keep]


def _gather(buf, lo, length, width: int):
    """The ids `buf[lo:lo + length]` as an array of `width`-byte strings."""
    padded = np.concatenate([buf, np.zeros(width, np.uint8)])
    out = np.lib.stride_tricks.sliding_window_view(padded, width)[lo]
    out[np.arange(width) >= length[:, None]] = 0
    return out.view(f"S{width}").ravel()


_MAX_DIGITS = 18  # every 18-digit decimal fits in an int64


def _integers(buf, lo, length):
    """The ids `buf[lo:lo + length]`, at least one, as int64; or None
    unless every one is a canonical decimal: digits only, at most
    `_MAX_DIGITS` of them, and no leading zero. So each value prints
    back as the id it came from."""
    width = int(length.max())
    if width > _MAX_DIGITS or ((buf[lo] == ord("0")) & (length > 1)).any():
        return None
    value = np.zeros(len(lo), np.int64)
    at = lo + length
    # add up the ids' k-th digits from the right, one k at a time
    for k in range(width):
        at -= 1
        digit = buf.take(at, mode="clip") - np.uint8(ord("0"))
        digit *= length > k
        if digit.max() > 9:
            return None
        value += digit * np.int64(10**k)
    return value


def _relabel(ids):
    """`np.unique(ids, return_inverse=True)` for nonempty, nonnegative
    int64 `ids`, each array owning its data. Overwrites `ids` and
    returns it as the inverse.

    With b the bit length of the last position, one in-place sort of
    the keys `id << b | position` puts the ids in order, each with its
    position. Each is then rewritten in place as `position << c | rank`,
    with c the bit length of the last rank, and a second sort puts the
    ranks back in position order. Beside `ids`, that takes a bool per
    endpoint, the distinct ids and a batch of scratch. Ids too large to
    pack so, near 10**18 in a large file, go to `np.unique` itself.
    """
    b = (len(ids) - 1).bit_length()
    if b > 31 or int(ids.max()) >= 1 << (62 - b):
        ext, inv = np.unique(ids, return_inverse=True)
        return ext, inv.astype(np.int64)  # a copy, which owns its data
    step = _kernels._BATCH
    key = ids
    for lo in range(0, len(key), step):
        part = key[lo : lo + step]
        part <<= b
        part |= np.arange(lo, lo + len(part))
    key.sort()
    # each id unlike the one before it starts a run of one id
    first = np.ones(len(key), np.bool_)
    for lo in range(1, len(key), step):
        hi = min(lo + step, len(key))
        np.not_equal(key[lo:hi] >> b, key[lo - 1 : hi - 1] >> b, out=first[lo:hi])
    ext = key[first]
    ext >>= b
    c = (len(ext) - 1).bit_length()
    rank = -1
    for lo in range(0, len(key), step):
        part = key[lo : lo + step]
        ranks = np.cumsum(first[lo : lo + step]) + rank
        rank = int(ranks[-1])
        part &= (1 << b) - 1
        part <<= c
        part |= ranks
    del first, part
    key.sort()
    key &= (1 << c) - 1
    return ext, key


def text_lines(data: bytes, path):
    """(line number, stripped line) for each line of the UTF-8 text
    `data` of the file `path` that is neither blank nor a `#` comment.
    Lines end at LF, CRLF or a lone CR, as in universal-newline mode,
    and are stripped of ASCII whitespace only (`_SPACE`). It decodes
    `data` at once, so the caller need not hold it while reading the
    lines; a byte that is not UTF-8 raises KmpError with its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        lineno = data.count(b"\n", 0, err.start) + 1
        raise KmpError(f"{path}: line {lineno}: not valid UTF-8") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return (
        (lineno, line)
        for lineno, line in enumerate((s.strip(_SPACE) for s in lines), start=1)
        if line and not line.startswith("#")
    )


# the ASCII whitespace within a line: an id may hold any other character,
# such as a no-break space, which `str.split` would cut it at
_SPACE = " \t\v\f"
_FIELD_BREAK = re.compile(f"[{_SPACE}]+")


def fields(line: str) -> list[str]:
    """The fields of a line from `text_lines`, cut at ASCII whitespace."""
    return _FIELD_BREAK.split(line)


def _load_general(path: Path, data: bytes) -> Network:
    """Read an edge list of string ids (say DOIs) from its bytes `data`.

    Ids are numbered in sorted string order. This row reader holds the
    whole decoded file, one Python string, field list and tuple per
    token and a dict from each distinct id to its number: about 8 times
    the file's bytes, against 2.6 for `_read_strings`, which reads every
    file it can take and hands the rest here. So this reader is the one
    that words an error, and the tests' reference for `_read_strings`.
    """
    pairs = []
    for lineno, line in text_lines(data, path):
        parts = fields(line)
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
    with open(path, "w", encoding="utf-8") as f:
        for a, b in zip(label_batches(net, lo), label_batches(net, hi)):
            f.write("".join([f"{x}\t{y}\n" for x, y in zip(a, b)]))


_ROWS = 1 << 12  # rows a writer formats at a time


def label_batches(net: Network, nodes):
    """The external labels of `nodes`, `_ROWS` at a time, for a writer
    to format straight into its rows (see `Network._labels`)."""
    for lo in range(0, len(nodes), _ROWS):
        yield net._labels(nodes[lo : lo + _ROWS])


def write_id_map(net: Network, path) -> None:
    """Write `external<TAB>internal` rows for every node."""
    with open(path, "w", encoding="utf-8") as f:
        v = 0
        for labels in label_batches(net, net.all_nodes()):
            f.write("".join([f"{e}\t{i}\n" for i, e in enumerate(labels, v)]))
            v += len(labels)
