"""The package has one backend and no environment switches.

Every kernel runs as numpy or plain Python on one thread, so nothing in
the package may read an environment variable to pick a path, and
importing the CLI must not look for an optional compiler.
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    tried = proc.stdout.strip()
    assert "'kmpcluster'" in tried
    assert "'numba'" not in tried
