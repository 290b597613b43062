"""Spawn commands one at a time on request and report their wall time and
resource usage.

    python3 perfbench/launcher.py WORKDIR

Reads one JSON request per stdin line, {"cmd": [...], "stdout": PATH,
"stderr": PATH, "timeout": SECONDS}, runs the command in WORKDIR, and
answers with one JSON line {"code", "wall_s", "cpu_s", "maxrss_kb"} taken
from wait4.  It exits at the end of its input.

Linux starts a child's peak-RSS counter from its parent's resident size at
exec, so the benchmark's own process, which holds scipy and the reference
matrices, must not be the parent of the program it measures.  This process
imports nothing beyond the standard library and stays small.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict, workdir: str) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=out, stderr=err, cwd=workdir)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
    }


def main() -> None:
    workdir = sys.argv[1]
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line), workdir)) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
