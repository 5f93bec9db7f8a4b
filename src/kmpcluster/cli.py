"""Command-line entry points.

Every subcommand reads an edge list, does one job, and writes its
artifacts into --out with fixed file names, so runs with the same
inputs and flags produce byte-identical directories.

Each subcommand imports the stages it runs when it starts, so `--help`
and a bad argument load no numpy.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields
from pathlib import Path

from .errors import STAGE2_CHOICES, ConfigError, KmpError, PipelineConfig

log = logging.getLogger(__name__)


def _pipeline_config(args) -> PipelineConfig:
    """The flags' settings over the config file's. The settings parser
    reads each `key=value` line of the file as `--key value`, `_` in the
    key read as `-`, so the file and the flags share types and choices."""
    from .graph import text_lines

    path = args.config
    given = argparse.Namespace()
    for lineno, line in text_lines(Path(path).read_bytes(), path) if path else ():
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        flag = "--" + key.strip().replace("_", "-")
        try:
            _, unknown = args.settings.parse_known_args([flag, value.strip()], given)
        except argparse.ArgumentError as err:
            raise ConfigError(f"{path}: line {lineno}: {err}") from None
        if unknown:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key.strip()!r}")
    flags = [f.name for f in fields(PipelineConfig) if hasattr(args, f.name)]
    given = vars(given) | {name: getattr(args, name) for name in flags}
    if "k" not in given:
        raise ConfigError("k is required (flag --k or config file)")
    if "stage3" in given:
        given["stage3"] = given["stage3"] == "on"
    return PipelineConfig(**given)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _summary(net, clustering, **extra) -> dict:
    """The stats.json block: network size, coverage and cluster sizes."""
    from .metrics import node_coverage, size_stats

    return {
        "n_nodes": net.n,
        "n_edges": net.m,
        "coverage_percent": node_coverage(clustering),
        "sizes": size_stats(clustering).to_dict(),
        **extra,
    }


def _cmd_pipeline(args) -> int:
    from .graph import load_edge_list, write_id_map
    from .io import write_clustering, write_json, write_node_list
    from .pipeline import run_pipeline

    cfg = _pipeline_config(args)
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
    from .graph import load_edge_list, write_id_map
    from .io import write_clustering, write_json, write_node_list
    from .kcore import ikc

    net = load_edge_list(args.edges)
    clustering = ikc(net, args.k)
    out = _outdir(args)
    write_clustering(net, clustering, out / "clustering.tsv")
    write_id_map(net, out / "id_map.tsv")
    write_json(_summary(net, clustering, k=args.k), out / "stats.json")
    write_node_list(net, clustering.unclustered(), out / "singletons.tsv")
    return 0


def _cmd_kcore(args) -> int:
    from .graph import load_edge_list, write_id_map
    from .io import write_clustering, write_json
    from .kcore import degeneracy, kcore_clusters

    net = load_edge_list(args.edges)
    clustering = kcore_clusters(net, args.k)
    out = _outdir(args)
    write_clustering(net, clustering, out / "clustering.tsv")
    write_id_map(net, out / "id_map.tsv")
    stats = _summary(net, clustering, k=args.k, degeneracy=degeneracy(net))
    write_json(stats, out / "stats.json")
    return 0


def _cmd_parse(args) -> int:
    from .augment import augment
    from .graph import load_edge_list
    from .io import load_clustering, write_clustering, write_json, write_node_list
    from .parsing import extract_cores, kmp_parse, strict_filter, validate

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
    from .graph import load_edge_list
    from .io import load_clustering, write_json
    from .parsing import validate

    net = load_edge_list(args.edges)
    clustering = load_clustering(net, args.clustering)
    report = validate(net, clustering, args.k, args.p)
    out = _outdir(args)
    write_json(report.to_dict(), out / "validity.json")
    return 0


def _cmd_stats(args) -> int:
    from .graph import load_edge_list
    from .io import load_clustering, write_json

    net = load_edge_list(args.edges)
    clustering = load_clustering(net, args.clustering)
    out = _outdir(args)
    write_json(_summary(net, clustering), out / "stats.json")
    return 0


def _marker_runs(args):
    """The marker panel and the clusterings that `markers` and `mds` read."""
    from .graph import load_edge_list
    from .io import load_clustering
    from .markers import load_markers

    net = load_edge_list(args.edges)
    panel = load_markers(net, args.markers)
    return panel, [load_clustering(net, p) for p in args.clusterings]


def _cmd_markers(args) -> int:
    from .io import write_json
    from .markers import always_clustered, always_coclustered, marker_counts

    panel, runs = _marker_runs(args)
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
    from .io import write_coords_tsv, write_matrix_tsv
    from .markers import classical_mds, mds_distances

    panel, runs = _marker_runs(args)
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

    def command(name, func, parents, text):
        p = sub.add_parser(name, parents=parents, help=text)
        p.set_defaults(func=func)
        return p

    # the arguments that several subcommands share, each declared once
    def shared(*parents, **options):
        return argparse.ArgumentParser(add_help=False, parents=parents, **options)

    edges = shared()
    edges.add_argument("edges", help="edge list TSV")
    out = shared()
    out.add_argument("--out", required=True, help="output directory")
    clustering = shared(edges)
    clustering.add_argument("clustering", help="clustering TSV")
    runs = shared(edges)
    runs.add_argument("markers", help="marker file, one node id per line")
    runs.add_argument("clusterings", nargs="+", help="clustering TSVs, one per run")
    k = shared()
    k.add_argument("--k", type=int, required=True, help="core degree threshold")
    kp = shared(k)
    kp.add_argument(
        "--p", type=int, default=PipelineConfig.p, help="periphery attachment threshold"
    )

    # the pipeline's settings, as its flags and as the lines of its config
    # file; each dest is a PipelineConfig field, absent where not given
    settings = shared(
        allow_abbrev=False, exit_on_error=False, argument_default=argparse.SUPPRESS
    )
    settings.add_argument("--k", type=int, help="core degree threshold")
    settings.add_argument("--p", type=int, help="periphery attachment threshold")
    settings.add_argument("--stage2", choices=STAGE2_CHOICES)
    settings.add_argument(
        "--local-search", dest="local_search_iters", type=int, metavar="LOCAL_SEARCH"
    )
    settings.add_argument("--max-rounds", type=int)
    settings.add_argument("--stage3", type=str.lower, choices=("on", "off"))

    p = command(
        "pipeline",
        _cmd_pipeline,
        [edges, out, settings],
        "run the full four-stage pipeline",
    )
    p.add_argument("--config", default=None, help="key=value config file; flags win")
    p.set_defaults(settings=settings)

    command("ikc", _cmd_ikc, [edges, k, out], "iterative top-core clustering only")
    command("kcore", _cmd_kcore, [edges, k, out], "connected components of the k-core")
    p = command(
        "parse",
        _cmd_parse,
        [clustering, kp, out],
        "make an existing clustering kmp-valid",
    )
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
    command(
        "validate",
        _cmd_validate,
        [clustering, kp, out],
        "check a clustering for kmp-validity",
    )
    command("stats", _cmd_stats, [clustering, out], "coverage and size distribution")
    command("markers", _cmd_markers, [runs, out], "marker placement across runs")
    command("mds", _cmd_mds, [runs, out], "marker distance matrix and 2-d embedding")

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
