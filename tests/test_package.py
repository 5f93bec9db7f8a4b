"""The package has one backend and no environment switches.

Every kernel runs as numpy or plain Python on one thread, so nothing in
the package may read an environment variable to pick a path, and
importing the CLI must not look for an optional compiler. A run does
not import `numpy.ma` either, which plain `np.unique` loads.
"""

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
    assert "'kmpcluster'" in tried
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
