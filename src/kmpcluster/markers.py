"""Marker-node analysis across one or many clustering runs.

A marker panel is a list of nodes of special interest. Given several
clusterings of the same network, these helpers report where the markers
land, which ones travel together, and a distance matrix suitable for a
low-dimensional embedding of the panel.

Co-clustering convention: a marker sitting in no cluster of size 2 or
more is co-clustered with nothing in that run, not even another such
marker. Singletons are not shared communities.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import Cluster, Clustering, as_ids, split_by
from .errors import MarkerFileError, unknown_ids
from .graph import Network, text_lines


@dataclass
class MarkerPanel:
    """Marker nodes, with both their external labels and internal ids."""

    external: list[str]
    internal: np.ndarray

    def __len__(self) -> int:
        return len(self.internal)


def load_markers(net: Network, path) -> MarkerPanel:
    """Read a marker file: one external node id per line.

    Blank lines and `#` comments are skipped. Every id must resolve to
    a network node; any that do not make the whole load fail. Duplicate
    ids collapse to one marker.
    """
    path = Path(path)
    external: list[str] = []
    internal: list[int] = []
    seen = set()
    missing = []
    for _, token in text_lines(path.read_bytes(), path):
        if token in seen:
            continue
        seen.add(token)
        v = net.internal_id(token)
        if v is None:
            missing.append(token)
        else:
            external.append(token)
            internal.append(v)
    if missing:
        raise MarkerFileError(unknown_ids(path, "marker", missing))
    if not external:
        raise MarkerFileError(f"{path}: no marker ids found")
    return MarkerPanel(external=external, internal=np.array(internal, dtype=np.int64))


def _marker_assignments(panel: MarkerPanel, runs: list[Clustering]) -> np.ndarray:
    """Cluster index per (run, marker); -1 when not in a non-singleton
    cluster. Raises ValueError when there is no run."""
    if not runs:
        raise ValueError("need at least one run")
    out = np.empty((len(runs), len(panel)), dtype=np.int64)
    for r, clustering in enumerate(runs):
        out[r] = clustering.assignment(min_size=2)[panel.internal]
    return out


def marker_counts(clustering: Clustering, panel: MarkerPanel) -> dict[int, int]:
    """How many markers each cluster holds.

    Returns {cluster index: count} for clusters containing at least one
    marker; such clusters are the relevant ones. Indices refer to the
    clustering's canonical order.
    """
    assign = clustering.assignment()[panel.internal]
    counts: dict[int, int] = {}
    for c in assign:
        if c >= 0:
            counts[int(c)] = counts.get(int(c), 0) + 1
    return dict(sorted(counts.items()))


def always_clustered(panel: MarkerPanel, runs: list[Clustering]) -> np.ndarray:
    """Markers placed in a non-singleton cluster in every run.

    Returns positions into the panel (sorted), not node ids, so callers
    can slice both the labels and the internal ids.
    """
    assign = _marker_assignments(panel, runs)
    return np.flatnonzero((assign >= 0).all(axis=0)).astype(np.int64)


def always_coclustered(
    panel: MarkerPanel, markers: np.ndarray, runs: list[Clustering]
) -> list[np.ndarray]:
    """Group markers that share a cluster in every single run.

    `markers` holds panel positions (as from always_clustered). Within
    one run co-membership is transitive, so markers whose assignment
    columns are equal across all runs form the maximal groups that
    satisfy the relation pairwise. A marker outside every non-singleton
    cluster in some run stays alone. Groups are returned sorted by
    their first member, singleton groups included.
    """
    markers = as_ids(markers)
    assign = _marker_assignments(panel, runs)[:, markers]
    if not len(markers):
        return []
    _, first, inverse = np.unique(
        assign, axis=1, return_index=True, return_inverse=True
    )
    # label each marker by the first marker with the same column
    group = first[inverse.reshape(-1)]
    placed = (assign >= 0).all(axis=0)
    group = np.where(placed, group, np.arange(len(markers)))
    return [g for g in split_by(group, markers, len(markers)) if len(g)]


def smallest_common_cluster(
    panel: MarkerPanel, markers: np.ndarray, runs: list[Clustering]
) -> tuple[int, Cluster]:
    """The smallest cluster that holds all the given markers, over all runs.

    `markers` holds panel positions. Every run must place the whole set
    in one non-singleton cluster; if run r does not, that is an error
    naming r. Ties on size go to the earliest run.
    """
    markers = as_ids(markers)
    if not len(markers):
        raise ValueError("no markers given")
    assign = _marker_assignments(panel, runs)[:, markers]
    sizes = []
    for r, clustering in enumerate(runs):
        row = assign[r]
        if (row < 0).any() or (row != row[0]).any():
            raise ValueError(f"markers are not co-clustered in run {r}")
        sizes.append(clustering.sizes()[row[0]])
    r = int(np.argmin(sizes))  # the first of equal sizes
    return r, runs[r].clusters[int(assign[r, 0])]


def mds_distances(panel: MarkerPanel, runs: list[Clustering]) -> np.ndarray:
    """D[x][y] = number of runs in which markers x and y do not share a
    cluster. Symmetric, zero diagonal, bounded by the run count."""
    assign = _marker_assignments(panel, runs)
    nm = len(panel)
    same = np.zeros((nm, nm), dtype=np.int64)
    for r in range(len(runs)):
        row = assign[r]
        placed = row >= 0
        eq = (row[:, None] == row[None, :]) & placed[:, None] & placed[None, :]
        same += eq
    d = len(runs) - same
    np.fill_diagonal(d, 0)
    return d


def classical_mds(d: np.ndarray, dims: int = 2) -> np.ndarray:
    """Embed a distance matrix by double-centering and top eigenpairs.

    B = -1/2 * J * (D squared elementwise) * J with J the centering
    projector; the top `dims` eigenpairs of B give the axes. Axes with
    nonpositive eigenvalues collapse to zero. Sign convention: the
    first nonzero entry of each axis is positive.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distance matrix must be square")
    if not np.allclose(d, d.T, atol=1e-9):
        raise ValueError("distance matrix must be symmetric")
    if np.abs(np.diag(d)).max(initial=0.0) > 1e-9:
        raise ValueError("distance matrix must have a zero diagonal")
    if d.min(initial=0.0) < 0:
        raise ValueError("distances must be nonnegative")
    n = d.shape[0]
    sq = d * d
    row = sq.mean(axis=1, keepdims=True)
    col = sq.mean(axis=0, keepdims=True)
    b = -0.5 * (sq - row - col + sq.mean())
    vals, vecs = np.linalg.eigh(b)
    coords = np.zeros((n, dims))
    for axis in range(min(dims, n)):
        lam = vals[n - 1 - axis]
        if lam <= 0:
            continue
        coord = vecs[:, n - 1 - axis] * np.sqrt(lam)
        nz = np.flatnonzero(np.abs(coord) > 1e-12)
        if len(nz) and coord[nz[0]] < 0:
            coord = -coord
        coords[:, axis] = coord
    return coords
