"""The benchmark's tracer still finds and wraps what it names.

`bench/tracing.py` wraps kernels and stages by name and reads their
arguments by position, so renaming a kernel, inlining it or moving a
stage's work elsewhere would leave its metrics reading 0. So would a
module the CLI loads during a traced run that binds a stage at import:
it would keep that run's wrapper after the tracer is removed.
"""

import importlib
import sys
from pathlib import Path

import numpy as np

import synth
from test_package import _child
from kmpcluster import BisectConfig, Clustering, _kernels, all_core, bisection, parsing

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import tracing  # noqa: E402

# two traced pipeline runs in one fresh process, each with its own tracer;
# prints the names given that read 0 in the second
_TWO_TRACERS = """
import sys

bench, edges, out, *names = sys.argv[1:]
sys.path.insert(0, bench)
import tracing
from kmpcluster.cli import main

argv = ["pipeline", edges, "--k", "5", "--stage2", "iterative", "--out", out]
for _ in range(2):
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        assert main(argv) == 0
    finally:
        restore()
metrics = tracing.layer_metrics(tracer)
print([name for name in names if metrics[name] <= 0])
"""


def test_every_traced_name_resolves():
    for name in tracing.KERNELS:
        assert callable(getattr(_kernels, name)), name
    for module, name, _ in tracing.STAGES:
        assert callable(getattr(importlib.import_module("kmpcluster." + module), name))


def test_a_traced_iterative_split_reports_stage_two_work():
    # the 40 nodes take the spectral path and the local search
    edges = synth.clique_edges(range(20)) + synth.clique_edges(range(20, 40))
    edges += [(0, 20), (1, 21)]
    net = synth.net_from(edges)
    clustering = Clustering([all_core(np.arange(40))], net.n)
    cfg = BisectConfig(k=5, local_search_iters=20, max_rounds=4)
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        bisection.iterative_split(net, clustering, cfg)
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer)
    for name in (
        "bisection.split_s",
        "kernels.matvec_arcs",
        "kernels.sweep_refine_s",
        "kernels.local_csr_s",
        "kernels.peel_s",
        "kernels.components_s",
        "parallel.task_s",
    ):
        assert metrics[name] > 0, name


def test_a_traced_parse_reports_kernel_work():
    # the tracer reads the kernels' arguments by position: the CSR first
    # and the node subset or owner array third
    net, cores, _ = synth.planted_instance(3)
    stage3 = importlib.import_module("kmpcluster.augment")
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        grown = stage3.augment(net, Clustering([all_core(c) for c in cores], net.n), 2)
        parsed, _ = parsing.kmp_parse(net, grown, 5, 2)
        parsing.validate(net, parsed, 5, 2)
    finally:
        restore()
    metrics = tracing.layer_metrics(tracer)
    for name in (
        "augment.augment_s",
        "parsing.kmp_parse_s",
        "parsing.validate_s",
        "kernels.peel_arcs",
        "kernels.attach_s",
        "kernels.local_csr_s",
        "kernels.components_s",
        "kernels.scratch_mb",
    ):
        assert metrics[name] > 0, name


def test_a_second_tracer_sees_every_stage_of_a_cli_run(tmp_path):
    # two 20-cliques joined by two edges, which stage 2 splits apart
    edges = synth.clique_edges(range(20)) + synth.clique_edges(range(20, 40))
    edges += [(0, 20), (1, 21)]
    path = tmp_path / "net.tsv"
    synth.write_edge_file(path, *zip(*edges))
    stages = [
        "kcore.ikc_s",
        "bisection.split_s",
        "augment.augment_s",
        "parsing.kmp_parse_s",
        "parsing.validate_s",
    ]
    assert _child(_TWO_TRACERS, BENCH, path, tmp_path / "out", *stages) == "[]"
