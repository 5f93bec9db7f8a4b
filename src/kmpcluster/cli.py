"""Command-line entry points.

Every subcommand reads an edge list, does one job, and writes its
artifacts into --out with fixed file names, so runs with the same
inputs and flags produce byte-identical directories.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .augment import augment
from .errors import ConfigError, KmpError
from .graph import load_edge_list, write_id_map
from .io import (
    load_clustering,
    write_clustering,
    write_coords_tsv,
    write_json,
    write_matrix_tsv,
    write_node_list,
)
from .kcore import degeneracy, ikc, kcore_clusters
from .markers import (
    always_clustered,
    always_coclustered,
    classical_mds,
    load_markers,
    marker_counts,
    mds_distances,
)
from .metrics import node_coverage, size_stats
from .parsing import extract_cores, kmp_parse, strict_filter, validate
from .pipeline import STAGE2_CHOICES, PipelineConfig, run_pipeline

log = logging.getLogger(__name__)


def _on_off(value) -> bool:
    value = str(value).lower()
    if value not in ("on", "off"):
        raise ConfigError(f"stage3 must be on or off, got {value!r}")
    return value == "on"


# pipeline flag (its dest, also the config-file key) -> (PipelineConfig
# field, parser of the given value); the dataclass holds the defaults
_PIPELINE_KEYS = {
    "k": ("k", int),
    "p": ("p", int),
    "stage2": ("stage2", str),
    "local_search": ("local_search_iters", int),
    "max_rounds": ("max_rounds", int),
    "stage3": ("stage3", _on_off),
}


def _read_config_file(path: str) -> dict:
    """key=value per line, # comments. Keys match the pipeline flags."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PIPELINE_KEYS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _effective_pipeline_config(args) -> PipelineConfig:
    given = _read_config_file(args.config) if args.config else {}
    for key in _PIPELINE_KEYS:
        flag = getattr(args, key)
        if flag is not None:
            given[key] = flag
    if "k" not in given:
        raise ConfigError("k is required (flag --k or config file)")
    return PipelineConfig(
        **{
            field: parse(given[key])
            for key, (field, parse) in _PIPELINE_KEYS.items()
            if key in given
        }
    )


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summary(net, clustering, **extra) -> dict:
    """The stats.json block: network size, coverage and cluster sizes."""
    return {
        "n_nodes": net.n,
        "n_edges": net.m,
        "coverage_percent": node_coverage(clustering),
        "sizes": size_stats(clustering).to_dict(),
        **extra,
    }


def _cmd_pipeline(args) -> int:
    cfg = _effective_pipeline_config(args)
    net = load_edge_list(args.edges)
    log.info("loaded %d nodes, %d edges", net.n, net.m)
    res = run_pipeline(net, cfg)
    out = _outdir(args)
    write_clustering(net, res.final, out / "clustering.tsv")
    write_id_map(net, out / "id_map.tsv")
    write_json(res.validity.to_dict(), out / "validity.json")
    stats = _summary(
        net, res.final, n_discarded=int(len(res.discarded)), config=cfg.to_dict()
    )
    write_json(stats, out / "stats.json")
    run = {
        "config": cfg.to_dict(),
        "edges": str(args.edges),
        "n_nodes": net.n,
        "n_edges": net.m,
    }
    write_json(run, out / "run.json")
    write_node_list(net, res.discarded, out / "discarded.tsv")
    write_node_list(net, res.singletons, out / "singletons.tsv")
    return 0


def _cmd_ikc(args) -> int:
    net = load_edge_list(args.edges)
    clustering = ikc(net, args.k)
    out = _outdir(args)
    write_clustering(net, clustering, out / "clustering.tsv")
    write_id_map(net, out / "id_map.tsv")
    write_json(_summary(net, clustering, k=args.k), out / "stats.json")
    write_node_list(net, clustering.unclustered(), out / "singletons.tsv")
    return 0


def _cmd_kcore(args) -> int:
    net = load_edge_list(args.edges)
    clustering = kcore_clusters(net, args.k)
    out = _outdir(args)
    write_clustering(net, clustering, out / "clustering.tsv")
    write_id_map(net, out / "id_map.tsv")
    stats = _summary(net, clustering, k=args.k, degeneracy=degeneracy(net))
    write_json(stats, out / "stats.json")
    return 0


def _cmd_parse(args) -> int:
    net = load_edge_list(args.edges)
    clustering = load_clustering(net, args.clustering)
    out = _outdir(args)
    if args.mode == "strict":
        result, report = strict_filter(net, clustering, args.k, args.p)
        write_json(report.to_dict(), out / "validity.json")
        dropped = []
    elif args.mode == "extract":
        result, discarded = extract_cores(net, clustering, args.k)
        dropped = [discarded]
    else:
        if args.stage3:
            clustering = augment(net, clustering, args.p)
        result, discarded = kmp_parse(net, clustering, args.k, args.p)
        dropped = [discarded]
        report = validate(net, result, args.k, args.p)
        write_json(report.to_dict(), out / "validity.json")
    write_clustering(net, result, out / "clustering.tsv")
    discarded, singletons = result.unplaced(dropped)
    write_node_list(net, discarded, out / "discarded.tsv")
    write_node_list(net, singletons, out / "singletons.tsv")
    return 0


def _cmd_validate(args) -> int:
    net = load_edge_list(args.edges)
    clustering = load_clustering(net, args.clustering)
    report = validate(net, clustering, args.k, args.p)
    out = _outdir(args)
    write_json(report.to_dict(), out / "validity.json")
    return 0


def _cmd_stats(args) -> int:
    net = load_edge_list(args.edges)
    clustering = load_clustering(net, args.clustering)
    out = _outdir(args)
    write_json(_summary(net, clustering), out / "stats.json")
    return 0


def _load_runs(net, paths):
    return [load_clustering(net, p) for p in paths]


def _cmd_markers(args) -> int:
    net = load_edge_list(args.edges)
    panel = load_markers(net, args.markers)
    runs = _load_runs(net, args.clusterings)
    always = always_clustered(panel, runs)
    groups = always_coclustered(panel, always, runs)
    payload = {
        "n_markers": len(panel),
        "runs": [str(p) for p in args.clusterings],
        "counts": [
            {str(ci): n for ci, n in marker_counts(run, panel).items()}
            for run in runs
        ],
        "always_clustered": [panel.external[i] for i in always],
        "coclustered_groups": [
            [panel.external[i] for i in g] for g in groups if len(g) >= 2
        ],
    }
    out = _outdir(args)
    write_json(payload, out / "markers.json")
    return 0


def _cmd_mds(args) -> int:
    net = load_edge_list(args.edges)
    panel = load_markers(net, args.markers)
    runs = _load_runs(net, args.clusterings)
    d = mds_distances(panel, runs)
    coords = classical_mds(d, dims=2)
    out = _outdir(args)
    write_matrix_tsv(panel.external, d, out / "distances.tsv")
    write_coords_tsv(panel.external, coords, out / "mds.tsv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kmpcluster",
        description="Center-periphery clustering of citation networks",
    )
    parser.add_argument(
        "--log-level",
        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
        default="INFO",
        help="least severe message written to stderr (default INFO)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pipeline", help="run the full four-stage pipeline")
    p.add_argument("edges", help="edge list TSV")
    p.add_argument("--k", type=int, default=None, help="core degree threshold")
    p.add_argument("--p", type=int, default=None, help="periphery attachment threshold")
    p.add_argument("--stage2", choices=STAGE2_CHOICES, default=None)
    p.add_argument("--local-search", dest="local_search", type=int, default=None)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=None)
    p.add_argument("--stage3", choices=("on", "off"), default=None)
    p.add_argument("--config", default=None, help="key=value config file; flags win")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("ikc", help="iterative top-core clustering only")
    p.add_argument("edges")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_ikc)

    p = sub.add_parser("kcore", help="connected components of the k-core")
    p.add_argument("edges")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_kcore)

    p = sub.add_parser("parse", help="make an existing clustering kmp-valid")
    p.add_argument("edges")
    p.add_argument("clustering")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=PipelineConfig.p)
    p.add_argument(
        "--mode",
        choices=("kmp", "strict", "extract"),
        default="kmp",
        help="kmp: repair clusters; strict: drop invalid ones; extract: cores only",
    )
    p.add_argument(
        "--stage3",
        action="store_true",
        help="augment with unclustered periphery before parsing (kmp mode)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("validate", help="check a clustering for kmp-validity")
    p.add_argument("edges")
    p.add_argument("clustering")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--p", type=int, default=PipelineConfig.p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("stats", help="coverage and size distribution")
    p.add_argument("edges")
    p.add_argument("clustering")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("markers", help="marker placement across runs")
    p.add_argument("edges")
    p.add_argument("markers", help="marker file, one node id per line")
    p.add_argument("clusterings", nargs="+", help="clustering TSVs, one per run")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_markers)

    p = sub.add_parser("mds", help="marker distance matrix and 2-d embedding")
    p.add_argument("edges")
    p.add_argument("markers")
    p.add_argument("clusterings", nargs="+")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=args.log_level, format="%(levelname)s %(name)s: %(message)s"
    )
    try:
        return args.func(args)
    except (KmpError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
