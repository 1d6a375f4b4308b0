"""homlab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the repository root; homlab is imported from ``src/`` there.  The
command starts fresh interpreters and waits for each:

* ``--trace 0``: five set-up probes (``probe.py``: import homlab and parse
  the workload's inputs), whose median wall time is ``setup_s``, then one
  worker that repeats untraced passes over the workload's jobs for
  ``--seconds`` (three passes at least), each on a fresh import of homlab,
  and checks every result after its timing stops.
* ``--trace 1``: one worker that makes untraced passes for half the time,
  then one pass with every public homlab function wrapped in a timing span,
  and reports per-layer work counts and self times from the spans.  The
  spans are written to ``perfbench/out/``.

Every interpreter runs with ``PYTHONHASHSEED=0``.  The last line of standard
output is the JSON result; the exit code is 0 only if every job passed its
check.  Nothing here pins CPUs, drops caches or changes machine settings.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_REFERENCE_S, SpeedSampler, end_samples

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
MIN_PASSES = 3
WORKER_TIMEOUT_S = 165
HASH_SEED = "0"


def unit_of(metric: str) -> str:
    for suffix, unit in (("_rel", "ref"), ("_mb", "MB"), ("_ms", "ms"), ("_s", "s"),
                         ("_ratio", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=str(SRC))
    env.pop("HOMLAB_MAX_WORK", None)  # jobs run under homlab's default guards
    return env


def percentile(sorted_values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, -(-pct * len(sorted_values) // 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


# ---------------------------------------------------------------------------
# Worker: runs inside a fresh interpreter
# ---------------------------------------------------------------------------

def fresh_jobs(workload: str, seed: int):
    """The workload's jobs, built on a fresh import of homlab.

    Every homlab module (and ``workloads``, which binds them) is dropped from
    ``sys.modules`` and imported again, and the inputs are parsed anew, so a
    pass inherits no cache, memo or lazily filled attribute from the pass
    before it: homlab starts as cold as in a new CLI call.  Third-party
    modules (sympy, mpmath) stay loaded, with whatever they cached.
    """
    for name in [n for n in sys.modules if n in ("homlab", "workloads") or n.startswith("homlab.")]:
        del sys.modules[name]
    import workloads

    return workloads.build(workload, seed)


def run_pass(jobs, tracer=None, reference=False):
    """One pass over the jobs, each timed on its own.

    Returns the pass time (the sum of its jobs' times), each job's seconds,
    each job's result and, with ``reference``, each job's seconds divided by
    the median time of a single run of the reference work, over the runs
    timed just before and just after the job and, by a SpeedSampler, while
    it ran.  A full garbage collection before each job, outside its timing,
    starts every job from the same collector state.
    """
    seconds, results, rel = [], [], []
    with SpeedSampler() if reference else contextlib.nullcontext() as sampler:
        before = end_samples() if reference else []
        for k, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = k
            gc.collect()
            if reference:
                first, stolen = len(sampler.samples), sampler.stolen
            t0 = time.perf_counter()
            try:
                result = job.run()
            except Exception as exc:  # noqa: BLE001 - a raising job counts as failed
                result = exc
            elapsed = time.perf_counter() - t0
            results.append(result)
            if reference:
                elapsed -= sampler.stolen - stolen
                after = end_samples()
                rel.append(elapsed / statistics.median(before + sampler.samples[first:] + after))
                before = after
            seconds.append(elapsed)
    return sum(seconds), seconds, results, rel


FAILED = object()


def checked(job, result):
    """The job's result summary if it passes its check, else FAILED."""
    if isinstance(result, Exception) or not job.check(result):
        return FAILED
    return job.summary(result)


def repeat_failures(jobs, results, summaries) -> list[str]:
    """Later passes must repeat the results the first pass checked."""
    return [
        f"{job.name}: {result!r}"[:300]
        for job, result, expect in zip(jobs, results, summaries)
        if expect is FAILED or isinstance(result, Exception) or job.summary(result) != expect
    ]


def tail_percentile(jobs: int) -> int:
    """Highest whole percentile that leaves ten samples beyond it after MIN_PASSES passes."""
    n = jobs * MIN_PASSES
    return max(p for p in range(1, 100) if n - -(-p * n // 100) >= 10)


def worker(workload: str, seed: int, budget_s: float, trace: bool) -> dict:
    walls, rel_walls, latencies, rel_latencies, failures, summaries = [], [], [], [], [], None
    min_passes = 1 if trace else MIN_PASSES
    started = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - started < budget_s:
        jobs = fresh_jobs(workload, seed)
        wall, seconds, results, rel = run_pass(jobs, reference=not trace)
        walls.append(wall)
        rel_walls.append(sum(rel))
        latencies += seconds
        rel_latencies += rel
        if summaries is None:  # full checks on the first pass, outside the timing
            summaries = [checked(job, result) for job, result in zip(jobs, results)]
            failures += [f"{job.name}: {result!r}"[:300]
                         for job, result, s in zip(jobs, results, summaries) if s is FAILED]
        else:
            failures += repeat_failures(jobs, results, summaries)
    out = {
        "attempted": len(jobs) * len(walls),
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(walls),
        "jobs": len(jobs),
    }
    if not trace:
        pct = tail_percentile(len(jobs))
        latencies.sort()
        rel_latencies.sort()
        out["metrics"] = {
            "wall_rel": statistics.median(rel_walls),
            "job_p50_rel": statistics.median(rel_latencies),
            "job_tail_rel": percentile(rel_latencies, pct)[0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        out["raw"] = {
            "wall_s": statistics.median(walls),
            "job_p50_ms": statistics.median(latencies) * 1000,
            "job_tail_ms": percentile(latencies, pct)[0] * 1000,
        }
        out["tail"] = {"pct": pct, "beyond": percentile(latencies, pct)[1],
                       "samples": len(latencies)}
        return out

    jobs = fresh_jobs(workload, seed)
    from tracer import Tracer

    tr = Tracer()
    tr.install()
    try:
        traced_wall, _, results, _ = run_pass(jobs, tr)
    finally:
        tr.uninstall()
    traced_failures = repeat_failures(jobs, results, summaries)
    out["failed"] += len(traced_failures)
    failures += traced_failures
    out["attempted"] += len(jobs)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{workload}-{seed}.bin")
    metrics = tr.layer_metrics()
    metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
    out["metrics"] = metrics
    out["failures"] = failures[:20]
    return out


# ---------------------------------------------------------------------------
# The command itself
# ---------------------------------------------------------------------------

def check_source() -> None:
    if not (SRC / "homlab" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'homlab'} not found; run from a homlab checkout")


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median set-up time of the probes: at nominal host speed, and as measured.

    Each probe times the reference work before and after its set-up; its
    wall time, less that reference work, is rescaled to a host on which one
    run of the reference work takes NOMINAL_REFERENCE_S.
    """
    nominal, raw = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        # no timeout: waiting with one polls in steps of up to 50 ms
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            env=child_env(), cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True,
        )
        wall = time.perf_counter() - t0
        before, after, spent = map(float, proc.stdout.split())
        raw.append(wall - spent)
        nominal.append(raw[-1] * NOMINAL_REFERENCE_S * 2 / (before + after))
    return statistics.median(nominal), statistics.median(raw)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper", "census", "kernels", "separate"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    check_source()

    if args.worker:
        sys.path.insert(0, str(SRC))
        import homlab

        if Path(homlab.__file__).resolve().parent != (SRC / "homlab").resolve():
            sys.exit(f"error: imported homlab from {homlab.__file__}, not {SRC}")
        budget = args.seconds / 2 if args.trace else args.seconds
        print(json.dumps(worker(args.workload, args.seed, budget, bool(args.trace))))
        return 0

    load_before = os.getloadavg()
    setup_s, setup_raw_s = (None, None) if args.trace else setup_seconds(args.workload, args.seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--worker", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S, check=True,
    )
    res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    metrics = dict(res["metrics"])
    if setup_s is not None:
        metrics["setup_s"] = setup_s

    for failure in res["failures"]:
        print(f"FAILED {failure}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} jobs={res['jobs']} "
          f"passes={res['passes']} attempted={res['attempted']} failed={res['failed']} "
          f"loadavg_before={load_before[0]:.2f} loadavg_after={os.getloadavg()[0]:.2f}")
    if "tail" in res:
        t = res["tail"]
        print(f"job tail is p{t['pct']} of {t['samples']} job latencies, {t['beyond']} beyond it")
    shown = {**res.get("raw", {}), "failed_ratio": res["failed"] / res["attempted"], **metrics}
    if setup_raw_s is not None:
        shown["setup_raw_s"] = setup_raw_s
    for name, value in shown.items():
        print(f"{name:36s} {value:>16.6f} {unit_of(name)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
