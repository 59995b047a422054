"""Child launcher for bench/run.py.

Linux charges a process's peak RSS with the peak of the address space it was
spawned from, so a CLI child spawned by the benchmark process (which holds
numpy and the lattice oracle) would report the benchmark's memory as its own.
This launcher imports nothing heavy and is started before the benchmark
loads anything; it spawns each child, times it from spawn to exit and reads
its rusage.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "cwd": ..., "env": {...}, "stdout": path, "stderr": path, "timeout": s}``;
one JSON reply per line on stdout, ``{"wall_s", "cpu_s", "maxrss_kb", "code"}``.
It exits at end of input.
"""

import json
import os
import subprocess
import sys
import threading
from time import perf_counter


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as so, open(req["stderr"], "wb") as se:
        start = perf_counter()
        proc = subprocess.Popen(req["argv"], stdout=so, stderr=se, env=req["env"], cwd=req["cwd"])
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
