#!/usr/bin/env python3
"""Time kmpcluster end to end and layer by layer on seeded workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload carve --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

With `--trace 0` every operation is one fresh `python3 -m kmpcluster.cli`
process on the generated input, and the run reports the end-to-end
metrics: median wall time and peak RSS of those processes, and the
median start-up time of a CLI call that does nothing. With `--trace 1`
the same command runs in this process with tracing wrappers installed,
and the run reports the per-layer metrics. Either way every operation's
artifacts go through the independent checks in checker.py, and
operations repeat until `--seconds` have passed (at least one runs).

`--workload all` runs every workload untraced and then traced, prints
every metric with its unit, and reports the tracing overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds
the run's metadata. A results file with the samples, the artifact
digests and, for traced runs, the spans goes to bench/results/.
"""

from __future__ import annotations

import os

# Set before numpy loads, so the traced run and the CLI processes use one
# BLAS thread each; the CLI's heavy loops are not BLAS calls.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402
from workloads import K, P, WORKLOADS, write_inputs  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_PER_OPERATION = 2

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)
    samples: dict[str, list[float]] = field(default_factory=dict)

    def record(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def medians(self, names) -> dict[str, float]:
        return {n: statistics.median(self.samples[n]) for n in names}


class Verifier:
    """Checks each operation's artifacts; identical bytes are checked once.

    Every run of a workload must write the same bytes, so an operation
    whose digest differs from the first one's fails even if its
    artifacts pass the checks.
    """

    def __init__(self, workload: str, graph, gen):
        self.workload = workload
        self.graph = graph
        self.gen = gen
        self.results: dict[str, list[str]] = {}

    def __call__(self, outdir: Path) -> list[str]:
        d = checker.digest(outdir)
        if d not in self.results:
            self.results[d] = checker.check_outputs(
                self.workload, self.graph, self.gen, outdir, K, P
            )
        problems = list(self.results[d])
        if d != next(iter(self.results)):
            problems.append("artifacts differ from the first run's")
        return problems


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["KMP_THREADS"] = str(threads)
    return env


def launch(argv: list[str], env: dict, workdir: Path, stderr) -> tuple[int, float, float]:
    """Run argv through launch.py; return its exit code, wall time and peak RSS.

    Started from this process, argv would inherit this process's larger
    resident-set high-water mark; see launch.py.
    """
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "launch.py"), *argv],
        cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=stderr, text=True,
    )
    try:
        out, _ = proc.communicate()
    except BaseException:  # interrupted: leave no process behind
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result["code"], result["wall_s"], result["peak_rss_mb"]


def measure_setup(env: dict, workdir: Path) -> float:
    """Start-up time of a CLI call that does nothing but print its usage."""
    code, wall, _ = launch(
        [sys.executable, "-m", "kmpcluster.cli", "--help"], env, workdir, subprocess.DEVNULL
    )
    if code != 0:
        raise RuntimeError(f"kmpcluster.cli --help exited with {code}")
    return wall


def cli_args(workload, paths: dict) -> list[str]:
    return [a.format(out="out", **paths) for a in workload.argv]


def run_untraced(workload, workdir: Path, paths: dict, verify, seconds: int) -> Outcome:
    env = child_env(workload.threads)
    outcome = Outcome()
    argv = [sys.executable, "-m", "kmpcluster.cli", *cli_args(workload, paths)]
    deadline = time.perf_counter() + seconds
    while outcome.attempted == 0 or time.perf_counter() < deadline:
        # start-up samples are spread over the run, so that they see the
        # same machine as the operations they sit between
        for _ in range(SETUP_PER_OPERATION):
            outcome.record("setup_s", measure_setup(env, workdir))
        shutil.rmtree(workdir / "out", ignore_errors=True)
        with open(workdir / "cli.log", "wb") as log:
            code, wall, rss = launch(argv, env, workdir, log)
        outcome.attempted += 1
        if code != 0:
            outcome.failed += 1
            tail = (workdir / "cli.log").read_text(errors="replace")[-2000:]
            outcome.problems.append(f"exit code {code}: {tail}")
            continue
        outcome.record("wall_s", wall)
        outcome.record("peak_rss_mb", rss)
        _verify(outcome, verify, workdir / "out")
    return outcome


def _verify(outcome: Outcome, verify, outdir: Path) -> None:
    problems = verify(outdir)
    if problems:
        outcome.failed += 1
        outcome.correct = False
        outcome.problems.extend(problems)


def run_traced(workload, workdir: Path, paths: dict, verify, seconds: int):
    """The same command in this process, with every layer wrapped."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import kmpcluster.cli as cli

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    saved_threads = os.environ.get("KMP_THREADS")
    os.environ["KMP_THREADS"] = str(workload.threads)
    cwd = os.getcwd()
    outcome = Outcome()
    first_trace = None
    try:
        os.chdir(workdir)
        deadline = time.perf_counter() + seconds
        while outcome.attempted == 0 or time.perf_counter() < deadline:
            shutil.rmtree(workdir / "out", ignore_errors=True)
            tracer.reset()
            start = time.perf_counter()
            try:
                code = cli.main(cli_args(workload, paths))
            except Exception as exc:  # a crash is a failed operation, not a benchmark error
                code = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
            outcome.attempted += 1
            if code != 0:
                outcome.failed += 1
                outcome.problems.append(f"traced run failed: {code}")
                continue
            outcome.record("traced_wall_s", wall)
            for name, value in tracing.layer_metrics(tracer).items():
                outcome.record(name, value)
            if first_trace is None:
                first_trace = {
                    "summary": tracing.span_summary(tracer),
                    "spans": tracing.as_arrays(tracer),
                }
            _verify(outcome, verify, workdir / "out")
    finally:
        os.chdir(cwd)
        restore()
        if saved_threads is None:
            os.environ.pop("KMP_THREADS", None)
        else:
            os.environ["KMP_THREADS"] = saved_threads
    return outcome, first_trace


def src_lines() -> int:
    return sum(
        len(p.read_bytes().splitlines()) for p in sorted((SRC / "kmpcluster").glob("*.py"))
    )


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def backend(env: dict, workdir: Path) -> str:
    out = subprocess.run(
        [sys.executable, "-c", "import kmpcluster._kernels as k; print(k.NUMBA)"],
        cwd=workdir, env=env, capture_output=True, text=True, check=True,
    )
    return "numba" if out.stdout.strip() == "True" else "interpreted"


def metadata(workload, seed: int, seconds: int, graph, gen, workdir: Path) -> dict:
    env = child_env(workload.threads)
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "git_revision": git_revision(),
        "backend": backend(env, workdir),
        "kmp_threads": workload.threads,
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "src_lines": src_lines(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "input": {
            "nodes": graph.n,
            "edges": graph.m,
            "edge_lines": int(len(gen.u)),
            **gen.info,
        },
    }


def run_workload(name: str, seed: int, seconds: int, trace: int) -> tuple[dict, Outcome]:
    """Generate the input, run the timed loop, and return (report, outcome)."""
    workload = WORKLOADS[name]
    workdir = BENCH / "work" / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        gen = workload.generate(seed)
        paths = write_inputs(gen, workdir)
        graph = checker.build_graph(gen.u, gen.v)
        verify = Verifier(name, graph, gen)
        meta = metadata(workload, seed, seconds, graph, gen, workdir)
        if trace:
            outcome, spans = run_traced(workload, workdir, paths, verify, seconds)
            names = list(tracing.PER_LAYER)
            units = tracing.PER_LAYER
        else:
            outcome = run_untraced(workload, workdir, paths, verify, seconds)
            spans = None
            names = list(END_TO_END)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    complete = outcome.failed < outcome.attempted and all(n in outcome.samples for n in names)
    metrics = (
        {n: {"value": v, "unit": units[n]} for n, v in outcome.medians(names).items()}
        if complete
        else {}
    )
    meta.update(
        trace=trace,
        attempted=outcome.attempted,
        failed=outcome.failed,
        digests=list(verify.results),
        problems=outcome.problems[:20],
    )
    report = {"meta": meta, "metrics": metrics, "samples": outcome.samples}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{trace}"
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    return report, outcome


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "kmpcluster" / "cli.py").is_file():
        print(f"error: {SRC / 'kmpcluster'} not found; run from a checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        report, outcome = run_workload(args.workload, args.seed, args.seconds, args.trace)
        for problem in outcome.problems[:5]:
            print(f"problem: {problem}", file=sys.stderr)
        print(json.dumps({"meta": report["meta"]}))
        print(json.dumps({
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": report["metrics"],
        }))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        walls = {}
        for trace in (0, 1):
            report, outcome = run_workload(name, args.seed, args.seconds, trace)
            combined["correct"] &= outcome.correct
            combined["attempted"] += outcome.attempted
            combined["failed"] += outcome.failed
            for metric, entry in report["metrics"].items():
                print(f"{name:7s} {metric:26s} {entry['value']:14.6g} {entry['unit']}")
                combined["metrics"][f"{name}.{metric}"] = entry
            key = "traced_wall_s" if trace else "wall_s"
            if key in outcome.samples:
                walls[trace] = statistics.median(outcome.samples[key])
            for problem in outcome.problems[:5]:
                print(f"{name:7s} problem: {problem}")
            print(f"{name:7s} trace {trace}: attempted {outcome.attempted}, failed {outcome.failed}")
        if len(walls) == 2:
            print(f"{name:7s} {'tracing_overhead_s':26s} {walls[1] - walls[0]:14.6g} s")
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
