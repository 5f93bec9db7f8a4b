"""Run one command; print its exit code, wall time and own peak RSS.

    python3 bench/launch.py <program> <args...>

A process started from the benchmark inherits the benchmark's resident
set high-water mark until it execs (Linux keeps the larger of the two in
the child's `ru_maxrss`), and the benchmark holds numpy, scipy and the
generated input. This launcher imports nothing heavy, so a command
started from it reports its own peak. The command's standard output is
discarded and its standard error passed through; the last line printed
is one JSON object with the keys `code`, `wall_s` and `peak_rss_mb`.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    start = time.perf_counter()
    proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no process behind
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "code": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
