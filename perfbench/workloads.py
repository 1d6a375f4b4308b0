"""Seeded job lists for the four benchmark workloads, with their checks.

Every job calls a public homlab function through the ``homlab`` package (or
``homlab.verify``) at call time, so a tracer that patches those names sees
the call.  Inputs are made from the seed as isomorphic relabellings of fixed
templates, so the results stay checkable against references recorded once.
Where an input's labels would steer a search (the instance side of a count,
whose vertex order shapes the backtracking tree, or an isomorphism test that
stops at the first match), it is left as recorded, so the work per pass
does not depend on the seed and runs of different seeds compare.

Every job here finishes under homlab's default guards; a job the library
refuses with ``WorkBudgetExceeded`` would cost nothing now and would be
charged as a regression to a later change that made it run, so none is
included.

A job's ``check`` runs after its timing has stopped.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import homlab
import homlab.fixtures

REFERENCE = Path(__file__).with_name("reference.json")

# Naive oracles are run as the second route only when their own estimate fits
# this budget; above it a count is checked against the recorded reference.
NAIVE_CHECK_BUDGET = 1_000_000


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    summary: Callable[[Any], Any] = lambda r: r


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Graph templates and seeded relabelling
# ---------------------------------------------------------------------------

def bigraph(lsize: int, rsize: int, edges) -> homlab.TwoColouredGraph:
    return homlab.TwoColouredGraph(lsize, rsize, sorted(set(edges)))


def path_bigraph(n: int) -> homlab.TwoColouredGraph:
    """2-coloured path on n vertices, starting on the left."""
    edges = [(k // 2, k // 2) if k % 2 == 0 else ((k + 1) // 2, k // 2) for k in range(n - 1)]
    return bigraph((n + 1) // 2, n // 2, edges)


def cycle_bigraph(n: int) -> homlab.TwoColouredGraph:
    k = n // 2
    return bigraph(k, k, [(i, i) for i in range(k)] + [(i, (i + 1) % k) for i in range(k)])


def cycles(*ns: int) -> homlab.TwoColouredGraph:
    return homlab.disjoint_union([cycle_bigraph(n) for n in ns])


def star_bigraph(leaves: int) -> homlab.TwoColouredGraph:
    """K(leaves, 1): one right centre joined to every left vertex."""
    return bigraph(leaves, 1, [(i, 0) for i in range(leaves)])


# a 9-vertex tree (4 left, 5 right) with a degree-3 centre
TREE9 = bigraph(4, 5, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (3, 2), (1, 3), (2, 4)])


def path_graph(n: int) -> homlab.Graph:
    return homlab.Graph(n, [(k, k + 1) for k in range(n - 1)])


# a 9-vertex plain tree: a spider with legs 3, 3, 2
TREE9_PLAIN = homlab.Graph(9, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8)])


def relabel_bigraph(g: homlab.TwoColouredGraph, rng: random.Random) -> homlab.TwoColouredGraph:
    """An isomorphic copy, written out as text and parsed back."""
    pl = list(range(g.lsize))
    pr = list(range(g.rsize))
    rng.shuffle(pl)
    rng.shuffle(pr)
    copy = homlab.TwoColouredGraph(g.lsize, g.rsize, sorted((pl[i], pr[j]) for i, j in g.edges))
    return homlab.parse_bigraph(copy.to_text())


def relabel_graph(g: homlab.Graph, rng: random.Random) -> homlab.Graph:
    p = list(range(g.n))
    rng.shuffle(p)
    copy = homlab.Graph(g.n, sorted(tuple(sorted((p[u], p[v]))) for u, v in g.edges))
    return homlab.parse_graph(copy.to_text())


# ---------------------------------------------------------------------------
# Checks shared by several workloads
# ---------------------------------------------------------------------------

def naive_or_reference(naive: Callable[[], int], reference: int) -> int:
    """The naive route's count when it fits the check budget, else the reference."""
    saved = os.environ.get(homlab.counting.WORK_BUDGET_ENV)
    os.environ[homlab.counting.WORK_BUDGET_ENV] = str(NAIVE_CHECK_BUDGET)
    try:
        return naive()
    except homlab.WorkBudgetExceeded:
        return reference
    finally:
        if saved is None:
            del os.environ[homlab.counting.WORK_BUDGET_ENV]
        else:
            os.environ[homlab.counting.WORK_BUDGET_ENV] = saved


def separator_summary(r) -> tuple:
    return (r.j.to_text(), r.counts, r.winner)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def paper_jobs(seed: int, ref: dict) -> list[Job]:
    """One job per ``verify-paper`` check group; together they are ``run_all()``.

    A group passes when it returns exactly the checks recorded for it (59 in
    all) and every one of them passed.
    """
    import homlab.verify  # as ``verify-paper`` does, only this workload imports it

    for fx in homlab.fixtures.FIXTURES.values():
        (homlab.parse_graph if fx.kind == "graph" else homlab.parse_bigraph)(fx.text)
    jobs = []
    for group, _ in homlab.verify.CHECK_GROUPS:
        jobs.append(Job(
            name=f"paper/{group}",
            run=lambda g=group: homlab.verify.run_all(g),
            check=lambda res, e=ref["paper"][group]: (
                [c.name for c in res] == e and all(c.passed for c in res)),
            summary=lambda res: tuple((c.name, c.passed, c.actual) for c in res),
        ))
    return jobs


def census_jobs(seed: int, ref: dict) -> list[Job]:
    """classify(bound=2) over the recorded target pool, then the worked examples.

    The bundled worked examples run at bounds 2 and 3, and case3 also at
    bound 1, where it is CaseIII.  The seed relabels every target and
    shuffles the order; stages do not depend on labels.
    """
    rng = random.Random(seed)
    cases = [(f"census/pool{k}", homlab.parse_bigraph(t["target"]), 2, t["stage"])
             for k, t in enumerate(ref["census"]["pool"])]
    for name, bounds in ref["census"]["fixtures"].items():
        for bound, stage in bounds.items():
            cases.append((f"census/{name}@{bound}", homlab.fixtures.fixture_bigraph(name),
                          int(bound), stage))
    rng.shuffle(cases)
    return [
        Job(
            name=name,
            run=lambda h=relabel_bigraph(h, rng), b=bound: homlab.classify(h, bound=b),
            check=lambda rep, s=stage: rep.stage == s,
            summary=lambda rep: json.dumps(rep.to_json_dict(), sort_keys=True),
        )
        for name, h, bound, stage in cases
    ]


def kernel_count_specs(bis_instances: list[str]) -> list[tuple]:
    """(name, kind, target, instance) for every count job, before relabelling."""
    case1 = homlab.fixtures.fixture_bigraph("case1")
    case3 = homlab.fixtures.fixture_bigraph("case3")
    toy = homlab.fixtures.fixture_graph("toy")
    specs = []
    for tname, t in (("case1", case1), ("case3", case3)):
        for iname, g in (("P7", path_bigraph(7)), ("P8", path_bigraph(8)), ("C6", cycle_bigraph(6)),
                         ("C8", cycle_bigraph(8)), ("T9", TREE9)):
            specs.append((f"fixcol/{iname}->{tname}", "fixcol", t, g))
        for iname, g in (("P8", path_bigraph(8)), ("C8", cycle_bigraph(8)), ("T9", TREE9),
                         ("P12", path_bigraph(12))):
            specs.append((f"inj/{iname}->{tname}", "inj", t, g))
    specs.append(("fixcol/P9->case1", "fixcol", case1, path_bigraph(9)))
    specs.append(("fixcol/K(1,6)->case1", "fixcol", case1, bigraph(1, 6, [(0, j) for j in range(6)])))
    for iname, g in (("P7", path_graph(7)), ("P8", path_graph(8)), ("P9", path_graph(9)),
                     ("T9", TREE9_PLAIN)):
        specs.append((f"col/{iname}->toy", "col", toy, g))
    for k, text in enumerate(bis_instances):
        specs.append((f"bis/sparse{k}", "bis", None, homlab.parse_bigraph(text)))
    return specs


# counter and naive second route (None where homlab has none) per count kind
COUNTERS = {
    "fixcol": (lambda h, g: homlab.count_fixcol(h, g),
               lambda h, g: homlab.count_fixcol_naive(h, g)),
    "inj": (lambda h, g: homlab.count_inj_fixcol(h, g), None),
    "col": (lambda h, g: homlab.count_col(h, g),
            lambda h, g: homlab.count_col_naive(h, g)),
    "bis": (lambda h, g: homlab.count_bis(g), lambda h, g: homlab.count_bis_naive(g)),
}


def kernel_phase_specs() -> list[tuple]:
    """(name, decomposer, arguments) for the exact phase tables, a, b <= 3."""
    fx = homlab.fixtures.fixture_bigraph
    empty = homlab.TwoColouredGraph(0, 0, [])
    p4, p3, k11, coex = fx("p4"), fx("p3"), fx("k11"), fx("coexistence")
    gp = homlab.GadgetParams
    return [
        ("kab/p4-a3b3", "kab", (p4, k11, k11, empty, gp(a=3, b=3, copies_gamma=1))),
        ("kab/coex-a2b2", "kab", (coex, k11, k11, empty, gp(a=2, b=2, copies_gamma=1))),
        ("kab/p4-p3-a2b2", "kab", (p4, p3, p3, k11, gp(a=2, b=2, copies_gamma=1, copies_j=1))),
        ("bis/p4-P4-a2b2", "bis", (p4, p4, empty, gp(a=2, b=2))),
        ("bis/coex-P3-a1b1", "bis", (coex, p3, empty, gp(a=1, b=1))),
    ]


def phase_total(kind: str, rep) -> int:
    return rep.total_actual if kind == "kab" else rep.bis_count


def run_phase(kind: str, args):
    if kind == "kab":
        return homlab.phase_decompose_kab(*args)
    return homlab.phase_decompose_bis(*args)


def kernels_jobs(seed: int, ref: dict) -> list[Job]:
    """Exact counts with large results, plus small exact phase tables."""
    rng = random.Random(seed)
    counts = ref["kernels"]["counts"]
    jobs = []
    for name, kind, target, instance in kernel_count_specs(ref["kernels"]["bis_instances"]):
        relabel = relabel_graph if kind == "col" else relabel_bigraph
        h = None if target is None else relabel(target, rng)
        g = instance
        fast, naive = COUNTERS[kind]
        expected = counts[name]
        jobs.append(Job(
            name=f"kernels/{name}",
            run=lambda f=fast, h=h, g=g: f(h, g),
            check=lambda c, n=naive, h=h, g=g, e=expected: c == e and (
                n is None or c == naive_or_reference(lambda: n(h, g), e)),
        ))
    phases = ref["kernels"]["phases"]
    for name, kind, args in kernel_phase_specs():
        args = (relabel_bigraph(args[0], rng),) + args[1:]
        jobs.append(Job(
            name=f"kernels/phase-{name}",
            run=lambda k=kind, a=args: run_phase(k, a),
            check=lambda rep, k=kind, e=phases[name]: rep.exact and phase_total(k, rep) == e,
            summary=lambda rep, k=kind: (rep.exact, phase_total(k, rep)),
        ))
    rng.shuffle(jobs)
    return jobs


def separate_shapes() -> dict[str, homlab.TwoColouredGraph]:
    shapes = {f"C{n}": cycle_bigraph(n) for n in (10, 12, 14, 16)}
    shapes.update({f"C{a}+C{b}": cycles(a, b)
                   for a, b in ((4, 6), (6, 6), (4, 8), (6, 8), (4, 10))})
    shapes.update({f"K({l},1)": star_bigraph(l) for l in (5, 6, 7, 8)})
    return shapes


def separate_jobs(seed: int, ref: dict) -> list[Job]:
    """Separators, selectors, canonical forms and isomorphism tests on regular bigraphs.

    Unions of even cycles share one degree sequence, so degree refinement
    never splits them and canonical labelling does the work; random
    equal-degree pairs would separate on a 4-vertex graph in milliseconds.
    """
    rng = random.Random(seed)
    sep = ref["separate"]
    rb = lambda g: relabel_bigraph(g, rng)  # noqa: E731
    jobs = []
    pairs = [(12, (6, 6)), (14, (6, 8)), (16, (6, 10)), (18, (6, 12)),
             (10, (4, 6)), (12, (4, 8)), (14, (4, 10)), (16, (4, 12))]
    for big, (a, b) in pairs:
        hs = [rb(cycle_bigraph(big)), rb(cycles(a, b))]
        jobs.append(Job(
            name=f"separate/pair C{big}|C{a}+C{b}",
            run=lambda hs=hs: homlab.find_pair_distinguisher(*hs),
            check=lambda r, hs=hs: homlab.recount_verify(r, hs),
            summary=separator_summary,
        ))
    selectors = [((12,), (6, 6), (4, 8)), ((14,), (6, 8), (4, 10)),
                 ((10,), (4, 6), (12,), (6, 6))]
    for members in selectors:
        hs = [rb(cycles(*m)) for m in members]
        label = "|".join("+".join(f"C{n}" for n in m) for m in members)
        jobs.append(Job(
            name=f"separate/selector {label}",
            run=lambda hs=hs: homlab.build_selector(hs),
            check=lambda r, hs=hs: homlab.recount_verify(r, hs),
            summary=separator_summary,
        ))
    shapes = separate_shapes()
    for name, g in shapes.items():
        g = rb(g)
        jobs.append(Job(
            name=f"separate/canonical {name}",
            run=lambda g=g: homlab.canonical_form(g),
            check=lambda key, e=sep["canonical"][name]: key.hex() == e,
        ))
    # non-isomorphic pairs that degree refinement cannot split, so the test
    # tries every class-respecting bijection whatever the labels
    for a, b in (("C10", "C4+C6"), ("C12", "C6+C6"), ("C12", "C4+C8"),
                 ("C14", "C6+C8"), ("C14", "C4+C10")):
        g1, g2 = rb(shapes[a]), rb(shapes[b])
        jobs.append(Job(
            name=f"separate/colour_iso {a}~{b}",
            run=lambda g1=g1, g2=g2: homlab.colour_iso(g1, g2),
            check=lambda w: w is None,
        ))
    rng.shuffle(jobs)
    return jobs


JOB_LISTS = {
    "paper": paper_jobs,
    "census": census_jobs,
    "kernels": kernels_jobs,
    "separate": separate_jobs,
}


def build(workload: str, seed: int) -> list[Job]:
    """The workload's jobs for this seed; building them parses every input."""
    return JOB_LISTS[workload](seed, load_reference())
