"""Measure a commit's baseline with the benchmark and write it to baseline.json.

    python3 perfbench/baseline.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --trace 0`` once
per seed (seeds 1-10) and records each end-to-end metric's median, quartiles and spread, the
spread being (Q3 - Q1) / median as ``statistics.quantiles(values, n=4)``
gives the quartiles.  It then runs ``--trace 1`` twice on seed 1, records
the per-layer metrics of the first run and checks that every work count (a
per-layer metric that is not a time) repeats exactly in the second.  The
run environment goes into the same file.  It exits non-zero if any run
fails or a work count does not repeat.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stdout[-3000:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in res["metrics"].items()}


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "not installed"


def git_revision() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    started = time.time()
    load_before = os.getloadavg()
    result = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in SEEDS]
        e2e = {name: summarize([r[name] for r in runs]) for name in bounds}
        traced = [bench(workload, 1, seconds, 1) for _ in range(2)]
        counts = [k for k in traced[0] if not k.endswith("_s")]
        unsteady = [k for k in counts if traced[0][k] != traced[1][k]]
        result[workload] = {"end_to_end": e2e, "per_layer_seed1": traced[0],
                            "work_counts_repeat": not unsteady}
        for name, s in e2e.items():
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  WIDE"
            print(f"{workload:9s} {name:12s} median={s['median']:.4f} "
                  f"spread={s['spread']:.4f} bound={bounds[name]}{flag}", flush=True)
        if unsteady:
            print(f"{workload}: work counts differ between two runs of seed 1: {unsteady}")
    out = {
        "environment": {
            "python": platform.python_version(),
            "mpmath": version("mpmath"),
            "sympy": version("sympy"),
            "git_revision": git_revision(),
            "nproc": os.cpu_count(),
            "PYTHONHASHSEED": "0",
            "loadavg_before": load_before,
            "loadavg_after": os.getloadavg(),
            "elapsed_s": round(time.time() - started, 1),
            "run_seconds": seconds,
            "seeds": list(SEEDS),
        },
        "workloads": result,
    }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(w["work_counts_repeat"] for w in result.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
