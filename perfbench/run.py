"""Benchmark of bisyncgames verdicts: one command, three workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload decide|fixpoints|cli --seed N \
        --seconds S --trace 0|1

The library is imported from ./src.  The run takes setup_s from fresh
interpreter starts, then starts worker.py, which measures the workload
in a closed loop and checks every verdict.  The last line of stdout is
one JSON object with "correct", "attempted", "failed" and "metrics":
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  A copy goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# One BLAS thread: a single caller, and steadier timings on a shared 2-core host.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Tail percentile per workload: the highest of 75, 90, 95, 99 that would keep
# ten verdicts beyond it in a 30 s run on a host twice as slow (README).
TAIL = {"decide": 90, "fixpoints": 95, "cli": 75}
# Fresh starts for setup_s, half before and half after the timed phase, so
# that a burst of host contention moves the median less.
SETUP_STARTS = 10
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _setup_probe(workload: str, seed: int, tmp: str) -> list:
    """The command of one fresh start, with its small input written beforehand."""
    path = os.path.join(tmp, "probe.json")
    with open(path, "w", encoding="utf-8") as fh:
        if workload == "fixpoints":
            json.dump({"grid": _small_block_pair(seed)}, fh)
        else:
            json.dump({"n": 4, "k": 4, "p": _small_density(seed)}, fh)
    if workload == "cli":
        return [sys.executable, "-m", "bisyncgames.cli", "density", "check", "--in", path]
    return [sys.executable, os.path.join(HERE, "probe.py"), workload, path]


def _small_density(seed: int) -> list:
    """A 4-point mixture of three permutations, p[x][y][a][b]."""
    rng = random.Random(seed)
    perms = [rng.sample(range(4), 4) for _ in range(3)]
    w = [rng.random() + 0.1 for _ in perms]
    p = [[[[0.0] * 4 for _ in range(4)] for _ in range(4)] for _ in range(4)]
    for wi, s in zip(w, perms):
        for x in range(4):
            for y in range(4):
                p[x][y][s[x]][s[y]] += wi / sum(w)
    return p


def _small_block_pair(seed: int) -> list:
    """block_pair(p, q) for random rank-1 p, q in M_2, as [x][a][i][j] -> [re, im]."""
    rng = random.Random(seed)

    def rank1():
        v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
        norm = math.sqrt(sum(abs(z) ** 2 for z in v))
        return [[v[i] * v[j].conjugate() / norm ** 2 for j in range(2)] for i in range(2)]

    def minus(m):
        return [[(1.0 if i == j else 0.0) - m[i][j] for j in range(2)] for i in range(2)]

    p, q = rank1(), rank1()
    z = [[0j, 0j], [0j, 0j]]
    rows = [[p, minus(p), z, z], [minus(p), p, z, z],
            [z, z, q, minus(q)], [z, z, minus(q), q]]
    return [[[[[e.real, e.imag] for e in row] for row in m] for m in r] for r in rows]


def fresh_starts(cmd: list, env: dict, count: int) -> list:
    """Wall times of ``count`` fresh starts of ``cmd``, spawn to exit."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-500:]}")
    return times


def tail_ms(latencies: list, pct: int) -> float:
    """Nearest-rank percentile, in ms."""
    ordered = sorted(latencies)
    return 1000.0 * ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(TAIL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "bisyncgames", "__init__.py")):
        print(f"error: no library at {SRC}/bisyncgames; run from the repository root",
              file=sys.stderr)
        return 2
    env = _env()
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tmp = tempfile.mkdtemp(prefix=f"{tag}-", dir=OUT)
    try:
        starts = []
        if not args.trace:
            probe = _setup_probe(args.workload, args.seed, tmp)
            fresh_starts(probe, env, 1)  # fills the bytecode and file caches
            starts += fresh_starts(probe, env, SETUP_STARTS // 2)
        summary_path = os.path.join(tmp, "summary.json")
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--tmp", tmp, "--out", summary_path, "--trace-out", trace_path],
                       env=env, check=True, timeout=WORKER_TIMEOUT_S)
        with open(summary_path, encoding="utf-8") as fh:
            s = json.load(fh)
        if not args.trace:
            starts += fresh_starts(probe, env, SETUP_STARTS - len(starts))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lat = s["latencies_s"]
    busy = sum(s["round_s"])
    # Verdicts of one round over the median round time: a burst of host
    # contention slows a few rounds and leaves the median round alone.
    throughput = len(lat) / len(s["round_s"]) / statistics.median(s["round_s"])
    if args.trace:
        metrics = {name: {"value": value, "unit": "ms" if name.endswith("_ms") else "count"}
                   for name, value in sorted(s["layers"].items())}
        metrics["traced.verdicts_per_s"] = {"value": throughput, "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(starts), "unit": "s"},
            "verdicts_per_s": {"value": throughput, "unit": "1/s"},
            "verdict_p50_ms": {"value": 1000.0 * statistics.median(lat), "unit": "ms"},
            "verdict_tail_ms": {"value": tail_ms(lat, TAIL[args.workload]), "unit": "ms"},
            "peak_rss_mb": {"value": s["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    result = {"correct": not s["unexpected"], "attempted": len(lat),
              "failed": len(s["failures"]), "metrics": metrics}

    print(f"{args.workload}: seed {args.seed}, {len(s['round_s'])} rounds, {len(lat)} verdicts "
          f"in {busy:.2f} s, tail = p{TAIL[args.workload]}")
    for reason in sorted(set(s["failures"])):
        known = "unexpected" if reason in s["unexpected"] else "known fault"
        print(f"  failed ({known}) x{s['failures'].count(reason)}: {reason}")
    for reason in sorted(set(s["unexpected"]) - set(s["failures"])):
        print(f"  failed on a one-round layer pass: {reason}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
