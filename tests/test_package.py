"""The package has one backend, no environment switches and lazy names.

Every kernel runs on one thread as numpy, plain Python or, for stage
2's product, scipy's compiled CSR kernel. So nothing in the package may
read an environment variable to pick a path, and loading the CLI and
every module must not look for an optional compiler. A run does not import `numpy.ma`, which
plain `np.unique` loads, nor the `scipy.sparse` package, whose product
kernel is loaded from its extension file alone.

The package's public names load their modules on first use, and the CLI
imports a subcommand's stages when it runs, so `--help`, a bad argument
and a bare `import kmpcluster` load no numpy.
"""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import kmpcluster

PACKAGE = Path(kmpcluster.__file__).parent

# records every import the child attempts before running the import
_PROBE = """
import sys

class Probe:
    seen = []

    def find_spec(self, name, path=None, target=None):
        Probe.seen.append(name)
        return None

sys.meta_path.insert(0, Probe())
import kmpcluster.cli
for name in kmpcluster.__all__:  # each loads its module
    getattr(kmpcluster, name)
print(sorted({n.split(".")[0] for n in Probe.seen}))
"""

# runs `parse` and `pipeline` on the files given and reports numpy.ma
_RUNS = """
import sys
from kmpcluster.cli import main

edges, clustering, out = sys.argv[1:]
assert main(["parse", edges, clustering, "--k", "5", "--out", out + "/p"]) == 0
assert main(
    ["pipeline", edges, "--k", "5", "--stage2", "iterative", "--out", out + "/i"]
) == 0
print("numpy.ma" in sys.modules)
"""


# runs `pipeline` with stage 2 on the file given, reports whether the
# product kernel was loaded and whether scipy.sparse was, then whether a
# later import of scipy.sparse still binds its kernel module
_SPECTRAL = """
import sys
from kmpcluster import _kernels
from kmpcluster.cli import main

edges, out = sys.argv[1:]
assert main(["pipeline", edges, "--k", "5", "--stage2", "iterative", "--out", out]) == 0
print(_kernels._sparsetools.cache_info().currsize, "scipy.sparse" in sys.modules)
import scipy.sparse
print(hasattr(scipy.sparse, "_sparsetools"))
"""

# calls the CLI with the arguments given and lists what it loaded
_LOADED = """
import sys
from kmpcluster.cli import main

try:
    main(sys.argv[1:])
except SystemExit as exit:
    print(exit.code)
print(sorted(n for n in sys.modules if n.partition(".")[0] in ("kmpcluster", "numpy")))
"""

# the package's 52 public names
_PUBLIC = """
    BisectConfig Cluster ClusterValidity Clustering ClusteringFileError
    ConfigError CoreLabeling EdgeListError KmpError MarkerFileError
    MarkerPanel Network PipelineConfig PipelineResult SizeStats
    ValidityReport all_core always_clustered always_coclustered augment
    bipartition bipartition_many classical_mds connected_components
    core_labels degeneracy extract_cores has_positive_modularity ikc
    induced_edge_count iterative_split kcore_clusters kmp_parse
    load_clustering load_edge_list load_markers marker_counts mcd
    mds_distances modularity node_coverage normalized_cut recursive_split
    run_pipeline size_stats smallest_common_cluster strict_filter
    subset_degrees validate write_clustering write_edge_list write_id_map
""".split()


def _child(code, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_no_module_reads_the_environment():
    reads = re.compile(r"\benviron\b|\bgetenv\b")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if reads.search(line)
    ]
    assert found == []


def test_cli_import_does_not_look_for_numba():
    tried = _child(_PROBE)
    assert "'kmpcluster'" in tried and "'numpy'" in tried
    assert "'numba'" not in tried


def test_cli_runs_do_not_import_numpy_ma(tmp_path):
    # two 7-cliques and two pendants, given out of order and with a
    # repeated row, so that the set operations see unsorted input
    cliques = [
        (a, b) for c in (0, 7) for a in range(c, c + 7) for b in range(a + 1, c + 7)
    ]
    edges = [(14, 0), (14, 1), (14, 2), (15, 7), (15, 8)] + cliques[::-1]
    path = tmp_path / "net.tsv"
    path.write_text("".join(f"{a}\t{b}\n" for a, b in edges + edges[:3]))
    noisy = tmp_path / "noisy.tsv"
    rows = [(v, 0) for v in range(6, -1, -1)] + [(14, 0), (15, 1), (9, 1), (8, 1)]
    noisy.write_text("".join(f"{v}\t{c}\n" for v, c in rows))
    assert _child(_RUNS, path, noisy, tmp_path) == "False"


def test_stage_2_loads_its_product_without_scipy_sparse(tmp_path):
    # two 20-cliques joined by one edge are one core of 40 nodes, too
    # many to enumerate, so stage 2 orders it by the power iteration; a
    # third clique apart gives that core positive modularity
    edges = [
        (a, b)
        for c in (0, 20, 40)
        for a in range(c, c + 20)
        for b in range(a + 1, c + 20)
    ]
    path = tmp_path / "net.tsv"
    rows = "".join(f"{a}\t{b}\n" for a, b in edges + [(19, 20)])
    path.write_text(rows, encoding="utf-8")
    assert _child(_SPECTRAL, path, tmp_path / "out").splitlines() == ["1 False", "True"]


def test_help_and_a_bad_argument_load_only_the_parser():
    cli = ["kmpcluster", "kmpcluster.cli", "kmpcluster.errors"]
    assert _child(_LOADED, "--help").splitlines()[-2:] == ["0", str(cli)]
    bad = ["pipeline", "net.tsv", "--k", "ten", "--out", "out"]
    assert _child(_LOADED, *bad).splitlines() == ["2", str(cli)]


def test_a_bare_import_and_the_settings_load_no_numpy():
    code = """
import sys
import kmpcluster

kmpcluster.PipelineConfig(k=5, stage2="iterative")
print("numpy" in sys.modules)
"""
    assert _child(code) == "False"


def test_every_public_name_resolves_to_its_module_object():
    assert sorted(kmpcluster.__all__) == sorted(_PUBLIC)
    for name in _PUBLIC:
        obj = getattr(kmpcluster, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    bisection = importlib.import_module("kmpcluster.bisection")
    pipeline = importlib.import_module("kmpcluster.pipeline")
    assert bisection.BisectConfig is kmpcluster.BisectConfig
    assert pipeline.PipelineConfig is kmpcluster.PipelineConfig


def test_augment_stays_the_function_after_its_module_loads():
    code = """
import importlib
import kmpcluster

module = importlib.import_module("kmpcluster.augment")
from kmpcluster import augment

print(kmpcluster.augment is module.augment is augment)
"""
    assert _child(code) == "True"
    importlib.import_module("kmpcluster.augment")
    assert callable(kmpcluster.augment)
