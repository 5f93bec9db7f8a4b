"""Center-periphery community detection for citation networks.

Clusters are built from the network's densest cores outward: iterated
top-core extraction seeds them, normalized-cut bisection refines them,
periphery augmentation grows them, and a final parsing pass guarantees
that every emitted cluster has a self-supporting core and properly
attached periphery (kmp-validity), whatever the earlier stages did.
"""

from .augment import augment
from .bisection import (
    BisectConfig,
    bipartition,
    bipartition_many,
    iterative_split,
    normalized_cut,
    recursive_split,
)
from .clustering import Cluster, Clustering, all_core
from .errors import (
    ClusteringFileError,
    ConfigError,
    EdgeListError,
    KmpError,
    MarkerFileError,
)
from .graph import (
    Network,
    connected_components,
    induced_edge_count,
    load_edge_list,
    subset_degrees,
    write_edge_list,
    write_id_map,
)
from .io import load_clustering, write_clustering
from .kcore import CoreLabeling, core_labels, degeneracy, ikc, kcore_clusters
from .markers import (
    MarkerPanel,
    always_clustered,
    always_coclustered,
    classical_mds,
    load_markers,
    marker_counts,
    mds_distances,
    smallest_common_cluster,
)
from .metrics import SizeStats, mcd, node_coverage, size_stats
from .parsing import (
    ClusterValidity,
    ValidityReport,
    extract_cores,
    has_positive_modularity,
    kmp_parse,
    modularity,
    strict_filter,
    validate,
)
from .pipeline import PipelineConfig, PipelineResult, run_pipeline

__version__ = "0.1.0"

__all__ = [
    "BisectConfig",
    "Cluster",
    "ClusterValidity",
    "Clustering",
    "ClusteringFileError",
    "ConfigError",
    "CoreLabeling",
    "EdgeListError",
    "KmpError",
    "MarkerFileError",
    "MarkerPanel",
    "Network",
    "PipelineConfig",
    "PipelineResult",
    "SizeStats",
    "ValidityReport",
    "all_core",
    "always_clustered",
    "always_coclustered",
    "augment",
    "bipartition",
    "bipartition_many",
    "classical_mds",
    "connected_components",
    "core_labels",
    "degeneracy",
    "extract_cores",
    "has_positive_modularity",
    "ikc",
    "induced_edge_count",
    "iterative_split",
    "kcore_clusters",
    "kmp_parse",
    "load_clustering",
    "load_edge_list",
    "load_markers",
    "marker_counts",
    "mcd",
    "mds_distances",
    "modularity",
    "node_coverage",
    "normalized_cut",
    "recursive_split",
    "run_pipeline",
    "size_stats",
    "smallest_common_cluster",
    "strict_filter",
    "subset_degrees",
    "validate",
    "write_clustering",
    "write_edge_list",
    "write_id_map",
]
