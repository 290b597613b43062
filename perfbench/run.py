"""The influx benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; influx is imported from `src/`.
Set-up generates the seeded inputs, computes reference answers with numpy
and scipy, and warms the interpreter up; it is repeated SETUP_REPEATS times
and `setup_s` is the median.

--trace 0: a single-client closed loop of real CLI invocations
(`python3 -m influx.cli ...`), the next spawned only after the previous one
exits, for S seconds.  Reports median wall time and user+sys CPU time per
invocation, invocations per second of loop time and the median child peak
RSS.

--trace 1: alternates untraced and traced in-process runs of
`influx.cli.main(argv)`, one fresh interpreter each, for S seconds, and
reports the per-layer metrics of spans.py (medians over traced runs) plus
the import time and the tracing overhead.

Every report is checked (check.py).  Earlier lines of stdout carry the
per-invocation wall times (--trace 0), the machine facts and every metric
with its sample count; the last line is the result object.  Work files go to `.perfbench/` in the checkout.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread for this process and, through the launcher, for every child:
# on a machine of two vCPUs shared with other tenants, a second thread that
# spins at each barrier mostly measures the host's scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import scipy

import spans
from workloads import WORKLOADS, make_rng

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 5
INVOCATION_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Invocation:
    """One finished child process."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: str


class Launcher:
    """The small process (launcher.py) that spawns every measured command."""

    def __init__(self, work: Path):
        self.work = work
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py"), str(work)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()

    def invoke(self, cmd: list[str]) -> Invocation:
        out, err = self.work / "stdout", self.work / "stderr"
        request = {"cmd": cmd, "stdout": str(out), "stderr": str(err),
                   "timeout": INVOCATION_TIMEOUT_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process exited")
        r = json.loads(reply)
        return Invocation(r["code"], r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024,
                          out.read_bytes(), err.read_text(encoding="utf-8", errors="replace"))


def set_up(workload, seed: int, launcher: Launcher):
    """Write the input and its description, build the checker, warm up."""
    work = launcher.work
    graph = workload.graph(make_rng(seed))
    path = work / "graph.csv"
    path.write_text(graph.text(), encoding="utf-8")
    argv = workload.argv(str(path), seed)
    (work / "workload.json").write_text(json.dumps({
        "name": workload.name, "why": workload.why, "seed": seed,
        "n": graph.n, "edges": int(graph.src.size), "argv": argv,
    }, indent=2) + "\n", encoding="utf-8")
    checker = workload.checker(graph, seed)
    # load the interpreter, numpy and influx's bytecode once before timing
    warm = launcher.invoke([sys.executable, "-m", "influx.cli", "generate", "line", "-n", "3"])
    if warm.code != 0:
        raise RuntimeError(f"warm-up invocation failed: {warm.stderr.strip()}")
    return argv, checker


def measure_cli(argv, checker, seconds: float, launcher: Launcher):
    """Closed loop of CLI invocations; returns metrics and each one's problems."""
    cmd = [sys.executable, "-m", "influx.cli", *argv]
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        runs.append(launcher.invoke(cmd))
    loop_s = time.perf_counter() - start
    problems = [checker.problems(r.code, r.stdout, r.stderr) for r in runs]
    print(json.dumps({"latency_samples_s": [r.wall_s for r in runs]}))
    metrics = {
        "latency_p50_s": (statistics.median(r.wall_s for r in runs), "s"),
        "cpu_p50_s": (statistics.median(r.cpu_s for r in runs), "s"),
        "ops_per_s": (len(runs) / loop_s, "1/s"),
        "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), "MB"),
    }
    return metrics, problems


def measure_traced(argv, checker, seconds: float, launcher: Launcher, run_id: str):
    """Alternating untraced and traced in-process runs, one interpreter each;
    returns metrics and each run's problems."""
    results = {False: [], True: []}
    problems = []
    work = launcher.work
    out = work / "traced.json"
    start = time.perf_counter()
    while not results[True] or time.perf_counter() - start < seconds:
        tracing = len(results[False]) > len(results[True])
        cmd = [sys.executable, str(BENCH / "traced.py"), "--out", str(out)]
        if tracing:
            cmd += ["--trace", f"{run_id}-{len(problems)}"]
        out.unlink(missing_ok=True)
        run = launcher.invoke(cmd + ["--", *argv])
        if run.code != 0:
            problems.append(checker.problems(run.code, b"", run.stderr))
            continue
        result = json.loads(out.read_text(encoding="utf-8"))
        problems.append(checker.problems(result["code"], result["report"].encode("utf-8"), run.stderr))
        if not problems[-1]:
            results[tracing].append((result, problems[-1]))
        if len(problems) >= 4 and not results[True]:
            break  # nothing traced succeeds; report the failures
    untraced = [r for r, _ in results[False]]
    traced = [r for r, _ in results[True]]
    if traced:
        (work / "spans.json").write_text(json.dumps(traced[-1]["spans"]), encoding="utf-8")
    per_run = [spans.summarize(r["spans"], r["counts"]) for r in traced]
    metrics = {}
    units = spans.metric_names()
    for name in units:
        if per_run and name in per_run[0]:
            values = [m[name] for m in per_run]
            exact = name in spans.COUNTS or name.endswith(".calls")
            if exact and len(set(values)) > 1:
                for _, found in results[True]:  # counts must repeat exactly
                    found.append(f"{name} differs between traced runs: {values}")
            metrics[name] = (values[0] if exact else statistics.median(values), units[name][0])
    if untraced and traced:
        imports = [r["import_s"] for r in untraced + traced]
        metrics["cli.import_s"] = (statistics.median(imports), "s")
        ratio = (statistics.median(r["main_s"] for r in traced)
                 / statistics.median(r["main_s"] for r in untraced))
        metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics, problems


def _blas() -> dict:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                return facts
    return facts


def machine_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "influx" / "cli.py").is_file():
        print(f"error: no influx sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be >= 0", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-{args.seed}-{'traced' if args.trace else 'cli'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s = []
    with Launcher(work) as launcher:
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            argv, checker = set_up(workload, args.seed, launcher)
            setup_s.append(time.perf_counter() - start)
        if args.trace:
            run_id = f"{workload.name}-{args.seed}"
            metrics, problems = measure_traced(argv, checker, args.seconds, launcher, run_id)
        else:
            metrics, problems = measure_cli(argv, checker, args.seconds, launcher)
            metrics["setup_s"] = (statistics.median(setup_s), "s")
    for scratch in ("graph.csv", "stdout", "stderr", "traced.json"):
        (work / scratch).unlink(missing_ok=True)  # keep only workload.json and spans.json
    attempted = len(problems)
    failed = sum(1 for p in problems if p)

    print(json.dumps({"machine": machine_facts()}))
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace, "argv": argv,
        "samples": attempted, "setup_samples": len(setup_s),
        "failed_ratio": failed / attempted, "problems": [p for p in problems if p][:10],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
