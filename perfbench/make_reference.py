"""Record the reference results the benchmark checks against.

Run from the repository root, at the commit the references should describe:

    python3 perfbench/make_reference.py

It writes ``perfbench/reference.json``:

* ``paper``: the names of the checks each ``verify-paper`` group returns,
  all of which must pass (59 checks);
* ``census.pool``: full, non-trivial targets drawn from a fixed generator
  seed, each with its ``classify(bound=2)`` stage;
* ``census.fixtures``: the stage of each bundled worked example per bound;
* ``kernels``: the sparse bigraphs of the independent-set jobs, every exact
  count, and the total of every phase table;
* ``separate.canonical``: the canonical form of every shape, as hex.

Only jobs that finish under homlab's default guards are recorded.  Stages
and counts are invariant under relabelling, which the script checks on two
relabelled copies of every census target and of every count job's target.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import homlab  # noqa: E402
import workloads as wl  # noqa: E402

POOL_SEED = 1502_01335
POOL_SIZE = 50
BIS_SEED = 2015
BIS_COUNT = 4


def random_target(rng: random.Random) -> homlab.TwoColouredGraph:
    """Full, non-trivial target, sides 3-6, 1 to side-1 full vertices per side."""
    while True:
        lsize, rsize = rng.randint(3, 6), rng.randint(3, 6)
        f_l, f_r = rng.randint(1, lsize - 1), rng.randint(1, rsize - 1)
        density = rng.uniform(0.3, 0.7)
        edges = {(i, j) for i in range(f_l) for j in range(rsize)}
        edges |= {(i, j) for i in range(lsize) for j in range(f_r)}
        edges |= {
            (i, j) for i in range(f_l, lsize) for j in range(f_r, rsize)
            if rng.random() < density
        }
        h = wl.bigraph(lsize, rsize, edges)
        prof = homlab.fullness(h)
        if len(prof.f_l) == f_l and len(prof.f_r) == f_r and not prof.is_trivial:
            return h


PAPER_CHECKS = 59


def paper_reference() -> dict:
    import homlab.verify

    names = {}
    for group, _ in homlab.verify.CHECK_GROUPS:
        res = homlab.verify.run_all(group)
        if not all(c.passed for c in res):
            raise SystemExit(f"paper group {group} has failing checks")
        names[group] = [c.name for c in res]
    if sum(map(len, names.values())) != PAPER_CHECKS:
        raise SystemExit(f"verify-paper has {sum(map(len, names.values()))} checks, "
                         f"not {PAPER_CHECKS}")
    return names


def census_reference() -> dict:
    rng = random.Random(POOL_SEED)
    pool = []
    while len(pool) < POOL_SIZE:
        h = random_target(rng)
        stage = homlab.classify(h, bound=2).stage
        copies = {homlab.classify(wl.relabel_bigraph(h, rng), bound=2).stage for _ in range(2)}
        if copies != {stage}:
            raise SystemExit(f"stage of {h.to_text()!r} depends on labels: {stage} {copies}")
        pool.append({"target": h.to_text(), "stage": stage})
    fixtures = {"case1": (2, 3), "case3": (1, 2, 3), "coexistence": (2, 3)}
    return {
        "pool": pool,
        "fixtures": {
            name: {
                str(b): homlab.classify(homlab.fixtures.fixture_bigraph(name), bound=b).stage
                for b in bounds
            }
            for name, bounds in fixtures.items()
        },
    }


def bis_instances() -> list[str]:
    """Sparse 15+15 bigraphs whose independent-set count takes 0.1-1 s here."""
    rng = random.Random(BIS_SEED)
    out = []
    while len(out) < BIS_COUNT:
        m = rng.randint(30, 36)
        edges = set()
        while len(edges) < m:
            edges.add((rng.randrange(15), rng.randrange(15)))
        g = wl.bigraph(15, 15, edges)
        t0 = time.perf_counter()
        homlab.count_bis(g)
        if 0.1 <= time.perf_counter() - t0 <= 1.0:
            out.append(g.to_text())
    return out


def kernels_reference() -> dict:
    rng = random.Random(0)
    instances = bis_instances()
    counts = {}
    for name, kind, target, instance in wl.kernel_count_specs(instances):
        fast, _ = wl.COUNTERS[kind]
        counts[name] = fast(target, instance)
        relabel = wl.relabel_graph if kind == "col" else wl.relabel_bigraph
        again = fast(None if target is None else relabel(target, rng), instance)
        if again != counts[name]:
            raise SystemExit(f"{name}: count changed under relabelling")
    phases = {}
    for name, kind, args in wl.kernel_phase_specs():
        rep = wl.run_phase(kind, args)
        if not rep.exact:
            raise SystemExit(f"{name}: phase table not exact")
        phases[name] = wl.phase_total(kind, rep)
    return {"bis_instances": instances, "counts": counts, "phases": phases}


def separate_reference() -> dict:
    return {"canonical": {name: homlab.canonical_form(g).hex()
                          for name, g in wl.separate_shapes().items()}}


def main() -> None:
    ref = {
        "paper": paper_reference(),
        "census": census_reference(),
        "kernels": kernels_reference(),
        "separate": separate_reference(),
    }
    with open(wl.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
