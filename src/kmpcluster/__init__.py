"""Center-periphery community detection for citation networks.

Clusters are built from the network's densest cores outward: iterated
top-core extraction seeds them, normalized-cut bisection refines them,
periphery augmentation grows them, and a final parsing pass guarantees
that every emitted cluster has a self-supporting core and properly
attached periphery (kmp-validity), whatever the earlier stages did.

Each public name loads its module on first use, so `import kmpcluster`
alone loads no numpy.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "augment": "augment",
    "bisection": "bipartition bipartition_many iterative_split normalized_cut "
    "recursive_split",
    "clustering": "Cluster Clustering all_core",
    "errors": "BisectConfig ClusteringFileError ConfigError EdgeListError KmpError "
    "MarkerFileError PipelineConfig",
    "graph": "Network connected_components induced_edge_count load_edge_list "
    "subset_degrees write_edge_list write_id_map",
    "io": "load_clustering write_clustering",
    "kcore": "CoreLabeling core_labels degeneracy ikc kcore_clusters",
    "markers": "MarkerPanel always_clustered always_coclustered classical_mds "
    "load_markers marker_counts mds_distances smallest_common_cluster",
    "metrics": "SizeStats mcd node_coverage size_stats",
    "parsing": "ClusterValidity ValidityReport extract_cores has_positive_modularity "
    "kmp_parse modularity strict_filter validate",
    "pipeline": "PipelineResult run_pipeline",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    """A public name, read from its module at each use (PEP 562)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


class _Package(types.ModuleType):
    """Importing a submodule binds it as an attribute of the package; a
    submodule named like a public name (`augment`) must not hide it."""

    def __setattr__(self, name, value):
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
