"""One-shot verification suite over the bundled fixtures.

Each check re-derives a frozen expected value: either a number the worked
examples state outright (source "worked-example"), a value recomputed through
an independent oracle route (source "oracle"), or an identity whose two sides
are computed by different code paths (source "identity").  The CLI prints one
line per check; the acceptance tests run the same functions with stated time
budgets.

Each group records its checks through one `_Recorder`.  A check's seconds run
from the previous check of its group, or from the group's start for the first
check, so a group's seconds add up to its whole run, setup included.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, isqrt, log

from . import exactcmp
from .bicliques import analyze, dominating_set_rational
from .classifier import (
    STAGE_CASE_I,
    STAGE_CASE_II,
    STAGE_CASE_III,
    classify,
    reduce_col_to_fixcol,
)
from .counting import (
    count_bis,
    count_bis_naive,
    count_col,
    count_col_naive,
    count_fixcol,
    count_fixcol_naive,
    partition_sum_checks,
    surjection_count,
)
from .distinguisher import build_selector, find_pair_distinguisher, recount_verify
from .exactcmp import LogForm, certified_compare
from .fixtures import fixture_bigraph, fixture_graph
from .gadgets import (
    GadgetParams,
    approx_bracket_report,
    dirichlet,
    phase_decompose_bis,
    phase_decompose_col,
    phase_decompose_kab,
    xz_bound_check,
)
from .graphs import (
    TwoColouredGraph,
    canonical_side_bounded,
    canonical_two_coloured,
    induced_subgraph,
    iso_colour_preserving,
    tensor,
)
from .structure import make_biclique


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    expected: str
    actual: str
    source: str
    seconds: float


class _Recorder:
    """The results of one check group, timed back to back."""

    def __init__(self) -> None:
        self.results: list[CheckResult] = []
        self._last = time.perf_counter()

    def check(self, name, source, expected, actual) -> None:
        now = time.perf_counter()
        self.results.append(
            CheckResult(
                name=name,
                passed=(expected == actual),
                expected=str(expected),
                actual=str(actual),
                source=source,
                seconds=now - self._last,
            )
        )
        self._last = now

    def tally(self, name, source, bad, what) -> None:
        """A count of bad cases that should be zero, as `0 <what>` vs `<bad> <what>`."""
        self.check(name, source, f"0 {what}", f"{bad} {what}")

    def holds(self, name, source, claim, ok, otherwise) -> None:
        """A claim that should hold, as `<claim>` vs `<claim>` or `<otherwise>`."""
        self.check(name, source, claim, claim if ok else otherwise)


EMPTY = TwoColouredGraph(0, 0, [])
SINGLE_L = TwoColouredGraph(1, 0, [])


def _bkeys(bs) -> list:
    return sorted(b.key() for b in bs)


# ---------------------------------------------------------------------------
# Criterion 1 and 2: the two 9+9 worked examples
# ---------------------------------------------------------------------------

def _nine_by_nine(rec, name, counts):
    """The 9+9 example `name` under K(1,1), recording its `<name>/counts` row.

    Returns the analysis, b1 = ({0,1,2}, {0,1,2}) and the extremal pair.
    """
    h = fixture_bigraph(name)
    ctx = analyze(h, fixture_bigraph("k11"))
    zeta = ctx.zp.zeta
    b1 = make_biclique(h, {0, 1, 2}, {0, 1, 2})
    b2 = make_biclique(h, {0, 7, 8}, {0, 7, 8})
    ex1, ex2 = ctx.extremal
    rec.check(f"{name}/counts", "worked-example", counts,
              (zeta[ex1], zeta[ex2], zeta[b1], zeta[b2]))
    return ctx, b1, (ex1, ex2)


def check_case1() -> list[CheckResult]:
    rec = _Recorder()
    ctx, b1, _ = _nine_by_nine(rec, "case1", (9, 27, 16, 15))
    rec.check("case1/gamma", "worked-example", Fraction(1, 2), ctx.gv.as_fraction())
    rec.check(
        "case1/gamma-dominating", "worked-example",
        [b1.key()], _bkeys(ctx.c_ab_gamma),
    )
    w_b1 = LogForm.ln(16) + LogForm.ln(3).scale(Fraction(1, 2))
    w_ex = LogForm.ln(27)
    w_b2 = LogForm.ln(15) + LogForm.ln(3).scale(Fraction(1, 2))
    rec.check(
        "case1/strict-order", "worked-example",
        (exactcmp.GREATER, exactcmp.GREATER),
        (certified_compare(w_b1, w_ex), certified_compare(w_ex, w_b2)),
    )
    rec.check("case1/stage", "worked-example", STAGE_CASE_I,
              classify(ctx.target, bound=1).stage)
    return rec.results


def check_case3() -> list[CheckResult]:
    rec = _Recorder()
    ctx, _, extremal = _nine_by_nine(rec, "case3", (9, 29, 16, 15))
    # gamma is defined by 9^gamma = 29/9; symbolically that is the 4-tuple
    # (29, 9, 9, 1), and the defining residual cancels identically
    residual = LogForm.ln(29, 9) * LogForm.ln(9) - LogForm.ln(9) * LogForm.ln(29, 9)
    rec.check(
        "case3/gamma-definition", "worked-example",
        ((29, 9, 9, 1), True),
        (ctx.gv.tuple4(), residual.is_zero()),
    )
    rec.check(
        "case3/gamma-dominating", "worked-example",
        _bkeys(extremal), _bkeys(ctx.c_ab_gamma),
    )
    # 16 * sqrt(29)/3 < 29 and 15 * sqrt(29)/3 < 29, certified through the
    # gamma-weighted forms multiplied by ln 9
    lhs1 = LogForm.ln(16) * LogForm.ln(9) + LogForm.ln(3) * LogForm.ln(29, 9)
    lhs2 = LogForm.ln(15) * LogForm.ln(9) + LogForm.ln(3) * LogForm.ln(29, 9)
    rhs = LogForm.ln(29) * LogForm.ln(9)
    rec.check(
        "case3/strict-order", "worked-example",
        (exactcmp.LESS, exactcmp.LESS),
        (certified_compare(lhs1, rhs), certified_compare(lhs2, rhs)),
    )
    rec.check("case3/stage-bound1", "worked-example", STAGE_CASE_III,
              classify(ctx.target, bound=1).stage)
    return rec.results


# ---------------------------------------------------------------------------
# Criterion 3: coexistence of dominating bicliques
# ---------------------------------------------------------------------------

def check_coexistence() -> list[CheckResult]:
    rec = _Recorder()
    h = fixture_bigraph("coexistence")
    everything = range(4)
    ex1 = make_biclique(h, {0}, everything)
    ex2 = make_biclique(h, everything, {0})
    b1 = make_biclique(h, {0, 1}, {0, 1})
    b2 = make_biclique(h, {0, 2}, {0, 2})

    ctx = analyze(h)
    rec.check(
        "coexistence/equal-exponents", "worked-example",
        _bkeys([ex1, ex2, b1, b2]), _bkeys(ctx.c_ab),
    )
    rec.check(
        "coexistence/alpha-gt-beta", "worked-example",
        [ex2.key()],
        _bkeys(dominating_set_rational(h, Fraction(2), Fraction(1))),
    )
    rec.check(
        "coexistence/alpha-lt-beta", "worked-example",
        [ex1.key()],
        _bkeys(dominating_set_rational(h, Fraction(1), Fraction(2))),
    )
    rep = classify(h)
    rec.check(
        "coexistence/stage", "worked-example",
        (STAGE_CASE_II, "1/2"),
        (rep.stage, rep.witnesses.get("exponent")),
    )
    return rec.results


# ---------------------------------------------------------------------------
# Criterion 4: squared-count identity and tensor isomorphisms
# ---------------------------------------------------------------------------

def check_tensor_identity() -> list[CheckResult]:
    rec = _Recorder()
    h = fixture_bigraph("coexistence")
    p3 = fixture_bigraph("p3")
    p4 = fixture_bigraph("p4")
    hex1 = induced_subgraph(h, {0}, range(4))
    h1 = induced_subgraph(h, {0, 1}, range(4))

    gammas = canonical_side_bounded(3)
    bad = sum(
        1 for g in gammas
        if count_fixcol(h1, g) ** 2 != count_fixcol(hex1, g) * count_fixcol(h, g)
    )
    rec.tally("tensor/squared-identity", "identity", bad,
              f"failures over {len(gammas)} decorations")
    rec.check(
        "tensor/isomorphisms", "worked-example",
        (True, True, True),
        (
            iso_colour_preserving(hex1, tensor(p3, p3)),
            iso_colour_preserving(h, tensor(p4, p4)),
            iso_colour_preserving(h1, tensor(p3, p4)),
        ),
    )
    return rec.results


# ---------------------------------------------------------------------------
# Criterion 5: contraction identity
# ---------------------------------------------------------------------------

def check_contraction_identity() -> list[CheckResult]:
    rec = _Recorder()
    targets = ["case1", "case3", "coexistence", "p4", "p3", "k11", "two_k11"]
    js = canonical_side_bounded(3)
    hs = [fixture_bigraph(name) for name in targets]
    rows = partition_sum_checks(hs, js)
    # the first check carries the shared batch's time
    for name, row in zip(targets, rows):
        bad = sum(1 for lhs, rhs in row if lhs != rhs)
        rec.tally(f"contraction/{name}", "identity", bad,
                  f"mismatches over {len(js)} instances")
    return rec.results


# ---------------------------------------------------------------------------
# Criterion 6 and 7: separators and selectors
# ---------------------------------------------------------------------------

def check_separator_coverage() -> list[CheckResult]:
    rec = _Recorder()
    pool = canonical_two_coloured(4)
    pairs = 0
    failures = 0
    for a in range(len(pool)):
        for b in range(a + 1, len(pool)):
            pairs += 1
            r = find_pair_distinguisher(pool[a], pool[b])
            if r.j.total > max(pool[a].total, pool[b].total):
                failures += 1
            if count_fixcol_naive(pool[a], r.j) == count_fixcol_naive(pool[b], r.j):
                failures += 1
    rec.tally("separator/coverage", "oracle", failures, "failures over all pairs")
    # 32 classes with at most 4 vertices: the l + r <= 4 entries of OEIS A028657
    rec.check("separator/pair-count", "oracle", 32 * 31 // 2, pairs)
    return rec.results


def check_selector() -> list[CheckResult]:
    rec = _Recorder()
    red = reduce_col_to_fixcol(fixture_graph("toy"))
    ok = recount_verify(red.selector, list(red.class_reps))
    rec.check(
        "selector/toy-reduction", "oracle",
        (1, 20, True),
        (red.class_count, red.lambda_star_size, ok),
    )
    rng = random.Random(20250810)
    pool = [g for g in canonical_two_coloured(4) if g.total >= 1]
    bad = 0
    for _ in range(10):
        hs = rng.sample(pool, 3)
        sel = build_selector(hs)
        if not recount_verify(sel, hs):
            bad += 1
    rec.tally("selector/random-triples", "oracle", bad, "failures over 10 triples")
    return rec.results


# ---------------------------------------------------------------------------
# Criterion 8, 9, 10: gadget phase identities
# ---------------------------------------------------------------------------

def check_kab_phases() -> list[CheckResult]:
    rec = _Recorder()
    k11 = fixture_bigraph("k11")
    p3 = fixture_bigraph("p3")
    p4 = fixture_bigraph("p4")
    coex = fixture_bigraph("coexistence")
    case1 = fixture_bigraph("case1")
    configs = [
        ("p4-plain", p4, k11, EMPTY, EMPTY, GadgetParams(a=1, b=1)),
        ("p4-gamma", p4, k11, k11, EMPTY, GadgetParams(a=2, b=1, copies_gamma=1)),
        ("coex-gamma", coex, k11, k11, EMPTY, GadgetParams(a=2, b=2, copies_gamma=1)),
        ("case1-j", case1, k11, EMPTY, k11, GadgetParams(a=1, b=1, copies_j=1)),
        ("p4-gamma-j", p4, p3, p3, k11, GadgetParams(a=2, b=2, copies_gamma=1, copies_j=1)),
        ("coex-lone-left", coex, SINGLE_L, EMPTY, EMPTY, GadgetParams(a=1, b=2)),
    ]
    for name, h, gp, gg, j, params in configs:
        rep = phase_decompose_kab(h, gp, gg, j, params)
        rec.holds(f"phases-kab/{name}", "identity", "exact decomposition", rep.exact,
                  "MISMATCH")
    return rec.results


def check_bis_phases() -> list[CheckResult]:
    rec = _Recorder()
    p4 = fixture_bigraph("p4")
    instances = [
        ("point", SINGLE_L, 2),
        ("edge", fixture_bigraph("k11"), 3),
        ("path3", fixture_bigraph("p3"), 5),
        ("path4", fixture_bigraph("p4"), 8),
    ]
    for name, gp, expected_bis in instances:
        rep = phase_decompose_bis(p4, gp, EMPTY, GadgetParams(a=1, b=1))
        rec.check(
            f"phases-bis/{name}", "identity",
            (expected_bis, expected_bis, True),
            (rep.good_permissible, rep.bis_count, rep.exact),
        )
    rep = phase_decompose_bis(
        fixture_bigraph("coexistence"), fixture_bigraph("k11"), EMPTY,
        GadgetParams(a=1, b=1),
    )
    rec.check(
        "phases-bis/edge-into-coexistence", "identity",
        (3, True), (rep.good_permissible, rep.exact),
    )
    return rec.results


def check_col_phases() -> list[CheckResult]:
    rec = _Recorder()
    k11 = fixture_bigraph("k11")
    for hname in ("h_is", "triangle"):
        h = fixture_graph(hname)
        exact = [
            phase_decompose_col(h, k11, k11, size_a, size_b, copies_j).exact
            for size_a in range(3)
            for size_b in range(3)
            for copies_j in (0, 1)
        ]
        rec.tally(f"phases-col/{hname}", "identity", exact.count(False),
                  f"mismatches over {len(exact)} runs")
    return rec.results


# ---------------------------------------------------------------------------
# Criterion 11, 12, 13: scalar lemmas
# ---------------------------------------------------------------------------

def check_dirichlet() -> list[CheckResult]:
    rec = _Recorder()
    rng = random.Random(1729)
    bad = 0
    for _ in range(50):
        d = rng.choice([1, 2, 3])
        big_n = rng.randint(2, 10**4 if d == 1 else 2000)
        alphas = []
        for _ in range(d):
            if rng.random() < 0.5:
                alphas.append(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)))
            else:
                # sqrt(k) rounded down to 220 fractional bits
                alphas.append(Fraction(isqrt(rng.randint(2, 99) << 440), 1 << 220))
        q, ps = dirichlet(alphas, big_n)
        if not (1 <= q <= big_n):
            bad += 1
            continue
        for v, p in zip(alphas, ps):
            if p < 1 or abs(q * v - p) ** d * big_n > 1:
                bad += 1
                break
    rec.tally("dirichlet/seeded", "oracle", bad, "bound violations over 50 trials")
    return rec.results


def check_surjection_bracket() -> list[CheckResult]:
    rec = _Recorder()
    bad = 0
    trials = 0
    for k in range(1, 7):
        for n in range(max(1, ceil(2 * k * log(k))), 61):
            trials += 1
            t = surjection_count(n, k)
            if not ((n - 2 * k) * k**n <= n * t <= n * k**n):
                bad += 1
    rec.tally("surjections/bracket", "identity", bad, f"violations over {trials} pairs")
    return rec.results


def check_power_bound() -> list[CheckResult]:
    rec = _Recorder()
    bad = 0
    trials = 0
    for k_cap in (1, 2, 5, 10, 20):
        for n in (k_cap, 2 * k_cap, 10 * k_cap, 100 * k_cap):
            for xi in range(5):
                x = Fraction(1) + Fraction(xi, 4) * (k_cap - 1)
                for zi in (-10, -7, -3, -1, 1, 2, 4, 6, 8, 10):
                    z = Fraction(zi, 10 * n)
                    trials += 1
                    if not xz_bound_check(x, z, k_cap, n):
                        bad += 1
    rec.tally("power-bound/grid", "identity", bad, f"violations over {trials} points")
    return rec.results


# ---------------------------------------------------------------------------
# Criterion 14: approximation brackets and monotone separation
# ---------------------------------------------------------------------------

def check_brackets() -> list[CheckResult]:
    rec = _Recorder()
    k11 = fixture_bigraph("k11")
    ratios = {}
    for name in ("case1", "case3", "coexistence", "p4"):
        h = fixture_bigraph(name)
        for n in (4, 6, 8):
            rep = approx_bracket_report(h, k11, n)
            ratios.setdefault(name, []).append(rep.dominant_ratio)
            rec.holds(f"bracket/{name}-n{n}", "identity",
                      "bracket holds for every biclique", rep.all_ok, "VIOLATION")
    r = ratios["case1"]
    rec.check("bracket/monotone-separation", "oracle", True, r[0] < r[1] < r[2])
    return rec.results


# ---------------------------------------------------------------------------
# Criterion 15: oracle equivalence
# ---------------------------------------------------------------------------

def check_oracle_equivalence() -> list[CheckResult]:
    rec = _Recorder()
    graphs = [fixture_graph(n) for n in ("h_is", "triangle", "p3_plain", "toy")]
    bigraphs = [fixture_bigraph(n) for n in ("k11", "p3", "p4", "two_k11")]
    singles = [(fixture_bigraph(n),) for n in
               ("k11", "p3", "p4", "two_k11", "coexistence", "case1")]
    routes = [
        ("plain-counts", "pairs", count_col, count_col_naive, list(product(graphs, repeat=2))),
        ("coloured-counts", "pairs", count_fixcol, count_fixcol_naive,
         list(product(bigraphs, repeat=2))),
        ("independent-sets", "fixtures", count_bis, count_bis_naive, singles),
    ]
    for name, over, fast, naive, cases in routes:
        bad = sum(fast(*args) != naive(*args) for args in cases)
        rec.holds(f"oracle/{name}", "oracle", f"agreement on all {over}", bad == 0,
                  f"{bad}/{len(cases)} mismatches")
    return rec.results


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

CHECK_GROUPS = [
    ("case1", check_case1),
    ("case3", check_case3),
    ("coexistence", check_coexistence),
    ("tensor", check_tensor_identity),
    ("contraction", check_contraction_identity),
    ("separator", check_separator_coverage),
    ("selector", check_selector),
    ("phases-kab", check_kab_phases),
    ("phases-bis", check_bis_phases),
    ("phases-col", check_col_phases),
    ("dirichlet", check_dirichlet),
    ("surjections", check_surjection_bracket),
    ("power-bound", check_power_bound),
    ("bracket", check_brackets),
    ("oracle", check_oracle_equivalence),
]


def run_all(name_filter: str | None = None) -> list[CheckResult]:
    """Run every check group whose name contains the filter substring.

    A group that raises (say, over a corrupted fixture file) becomes a single
    failed result naming the group, so the table and the exit code survive.
    """
    results: list[CheckResult] = []
    for group, fn in CHECK_GROUPS:
        if name_filter and name_filter not in group:
            continue
        harness = _Recorder()
        try:
            results += fn()
        except Exception as exc:  # noqa: BLE001 - report, do not crash the table
            harness.check(f"{group}/error", "harness", "check group runs to completion",
                          f"{type(exc).__name__}: {exc}")
            results += harness.results
    return results
