#!/usr/bin/env python3
"""Gadget phase decomposition walk-through.

Builds the three reduction gadgets at desk scale and checks their exact
per-phase closed forms against brute-force bucketing, then derives
integer exponents by simultaneous rational approximation and reports the
two-sided bracket plus the growth of the dominant-phase separation.
"""

from fractions import Fraction
from math import isqrt

from homlab import (
    GadgetParams,
    approx_bracket_report,
    dirichlet,
    phase_decompose_bis,
    phase_decompose_col,
    phase_decompose_kab,
)
from homlab.fixtures import fixture_bigraph, fixture_graph
from homlab.graphs import TwoColouredGraph

EMPTY = TwoColouredGraph(0, 0, [])
k11 = fixture_bigraph("k11")

print("== decorated complete-bipartite gadget ==")
rep = phase_decompose_kab(
    fixture_bigraph("coexistence"), k11, k11, EMPTY,
    GadgetParams(a=2, b=2, copies_gamma=1),
)
for e in rep.entries:
    if e.actual:
        print(f"phase {e.key}: predicted {e.predicted} actual {e.actual}")
print("every phase exact:", rep.exact, " total:", rep.total_actual)

print("\n== independent-set gadget ==")
rep = phase_decompose_bis(
    fixture_bigraph("p4"), fixture_bigraph("p3"), EMPTY, GadgetParams(a=1, b=1)
)
print("good permissible phase vectors:", rep.good_permissible,
      "= independent sets:", rep.bis_count)
print("non-permissible good vectors all empty:", rep.nonpermissible_good_zero)

print("\n== two-pin plain gadget ==")
rep = phase_decompose_col(fixture_graph("h_is"), k11, k11, 1, 1, 0)
for e in rep.entries:
    print(f"pin pair {e.key}: predicted {e.predicted} actual {e.actual}")
print("exact:", rep.exact)

print("\n== integer exponents by simultaneous approximation ==")
root2 = Fraction(isqrt(2 << 600), 1 << 300)  # sqrt(2) rounded down to 300 bits
print("q, p for sqrt(2) at bound 10:", dirichlet([root2], 10))

print("\n== bracket residuals and separation growth (case1) ==")
for n in (4, 6, 8):
    br = approx_bracket_report(fixture_bigraph("case1"), k11, n)
    print(
        f"n={n}: q={br.params.q} a={br.params.a} b={br.params.b} "
        f"bracket ok={br.all_ok} dominant ratio={float(br.dominant_ratio):.4f}"
    )
