"""The report corpus: 21 CLI reports on three seeded n = 600 graphs, pinned
by SHA-256 and length.

The graphs are perfbench's inputs (`perfbench/workloads.sparse_graph` at
seeds 1, 7 and 23), drawn here by a copy of its generator and pinned to the
digests of the texts it writes.  Seven commands run in process on each.  A
change that moves a report's bytes on purpose updates REPORTS in the same
commit; a failure names the report and prints its new digest and length.

The reports without --emit-matrix come from np.bincount, elementwise numpy
and math.  The nine with it come from the sliced-ELL step's batched BLAS
products, so another CPU or BLAS may round them differently.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import influx
from influx.cli import main

N = 600

GRAPHS = {  # seed: (SHA-256, length) of perfbench's sparse_graph(make_rng(seed), 600).text()
    1: ("f2e10f29b07be726fe080f1b10a6396acd727504503db86b08d638c586b521d4", 81206),
    7: ("0b0393c5fe7ea46afe5e4bb28152f9f945453daa8c4a7fb5eb54d3a1eac86dc4", 81283),
    23: ("535dd40de528b96c579ca5ebf191b385dec3146c49062993cd1578db9b04216c", 79538),
}

COMMANDS = {
    "compare": ["compare"],
    "compare-csv": ["compare", "--csv"],
    "pwp-matrix": ["compute", "--method", "pwp", "--emit-matrix"],
    "micmac-matrix": ["compute", "--method", "micmac", "--emit-matrix"],
    "pagerank": ["compute", "--method", "pagerank"],
    "montecarlo": ["montecarlo", "--lambda", "4", "-N", "100000"],
    "montecarlo-matrix": ["montecarlo", "--lambda", "4", "-N", "100000", "--emit-matrix"],
}

REPORTS = {  # (seed, command): (SHA-256, length) of the report
    (1, "compare"): ("a74e651f6bf378ff7cdf5bf9f258b2af58da8e64425dc9aa333fb7a66427c905", 307011),
    (1, "compare-csv"): ("618220701ca2734ff388ee0161d7ada9097cd3b451671774bd9e818e9684d0eb", 49474),
    (1, "pwp-matrix"): ("a7e86fad5c99eaab49898e11ad14524fb6ba8175d0ff1e9e0a595b417b7363dd", 8880851),
    (1, "micmac-matrix"): ("64da0ebde6ce540aa1ed660fb278fc574aee1175c58e75f8b2e2249de7c349fe", 6715765),
    (1, "pagerank"): ("e37e5305e8e31912b0e144c0fc3556b17c497d69365cb2b4561b93b660dabd8b", 79128),
    (1, "montecarlo"): ("aac0bd3588e26a180ec378308800f949d725935a098d10372a23ff4cc2292ff8", 281),
    (1, "montecarlo-matrix"): ("b662bb360b49d2988ffce458551a5da1baa9db1fa147e98ee2f7bc69c8c4bf36", 17408695),
    (7, "compare"): ("f95fb19cade20c7306a821c978dd29c5e5c5b1802187eb3aaad9069404387fc8", 307237),
    (7, "compare-csv"): ("05827081114da440146b7287b43e8db032bf732ef9e9e22b8ed4e3922d2762e6", 49586),
    (7, "pwp-matrix"): ("c2f007e9589d072f0e3030066d73a984eac59738378ad7a05491d9501db3af86", 8929441),
    (7, "micmac-matrix"): ("3c490de8dbe38485f676d80dcb9d788315a16f8b6f4bb075e0421f5775836558", 6657497),
    (7, "pagerank"): ("efa5d20674efe574b98b96bdfdcb60c5d92a41b8bc214aa441258458a10ed1ac", 79142),
    (7, "montecarlo"): ("fbfbf854564cafb822ed524ec7dafa1f91f8a1c566274b9a9bfb2eb0556ba63f", 282),
    (7, "montecarlo-matrix"): ("46def2830096c05e0bda53b9afd94f21e931521539968993b477f6592b3892eb", 17497385),
    (23, "compare"): ("314d8a549a52b91ffb10eb92c3794663a1c74f84f4ff24efc7b9bdc605d6ad73", 307303),
    (23, "compare-csv"): ("9faf071d1f12fa1eb713bf97de435ae1b1c9108c644fc764e82956665ba4c8d4", 49617),
    (23, "pwp-matrix"): ("b03aadf9ccd3227f0957074c38b9130187a4b892a8c311506a1ecd1e19d949f0", 8874848),
    (23, "micmac-matrix"): ("0f4518aec3edd63a61a331e55a4fa495522c29e28fed37aca06fe2e15e86aa85", 6511671),
    (23, "pagerank"): ("bdfae29a904311fc9e95d9ebb120b64a76ef38211dc6284e310b482764d6959c", 79102),
    (23, "montecarlo"): ("c1b42f7fcdcec4857513096a8e3a5fb4fc21e00cc4d857f64f86bc7d52b98411", 282),
    (23, "montecarlo-matrix"): ("da37361369ac81a0db301d281471c746d6c2042f755a3b339a80d194b4df894d", 17434913),
}


def sparse_graph_text(seed: int, n: int) -> str:
    """perfbench's sparse_graph(make_rng(seed), n).text(): Poisson(5)
    out-degrees (at most n - 1, and at least 1 for vertex n), distinct
    targets other than the source, weights U(0, 0.4], from Philox 4x64
    keyed by seed."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    degrees = np.minimum(rng.poisson(5.0, n), n - 1)
    degrees[-1] = max(degrees[-1], 1)
    sources, targets = [], []
    for v, k in enumerate(degrees.tolist(), 1):
        if k:
            t = rng.choice(n - 1, size=k, replace=False) + 1
            t[t >= v] += 1  # skip the self-loop
            sources += [v] * k
            targets += np.sort(t).tolist()
    weights = 0.4 * (1.0 - rng.random(len(sources)))
    return "".join(f"{s},{t},{w!r}\n" for s, t, w in zip(sources, targets, weights.tolist()))


def _digest(data: bytes) -> tuple[str, int]:
    return hashlib.sha256(data).hexdigest(), len(data)


@pytest.fixture(scope="module")
def graphs(tmp_path_factory):
    """seed: the path of its graph's edge list."""
    folder = tmp_path_factory.mktemp("corpus")
    paths = {}
    for seed in GRAPHS:
        paths[seed] = folder / f"seed{seed}.csv"
        paths[seed].write_text(sparse_graph_text(seed, N))
    return paths


@pytest.mark.parametrize("seed", GRAPHS)
def test_graph_is_perfbench_s(graphs, seed):
    assert _digest(graphs[seed].read_bytes()) == GRAPHS[seed]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("seed", GRAPHS)
def test_report_is_the_pinned_one(graphs, tmp_path, seed, command):
    out = tmp_path / "report"
    assert main([*COMMANDS[command], str(graphs[seed]), "-o", str(out)]) == 0
    got = _digest(out.read_bytes())
    assert got == REPORTS[seed, command], f"report {command} on seed {seed} is now {got}"


@pytest.mark.parametrize("command", ["micmac-matrix", "montecarlo"])
def test_a_real_process_writes_every_byte(graphs, command):
    # the command ends the process without the interpreter's teardown, so
    # nothing flushes stdout after main: a tail left in its buffer, or the
    # whole of a 281-byte report, would be lost
    src = str(Path(influx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run(
        [sys.executable, "-m", "influx.cli", *COMMANDS[command], str(graphs[1])],
        capture_output=True, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert _digest(proc.stdout) == REPORTS[1, command]
