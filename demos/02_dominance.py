#!/usr/bin/env python3
"""Biclique dominance analysis walk-through.

Shows how the weight |S_L|^alpha |S_R|^beta selects dominating bicliques,
how the coexistence fixture keeps extremal and non-extremal bicliques tied
for the equalizing exponents, and how a single-edge decoration reweights the
phases through zeta and the correction exponent gamma.
"""

from fractions import Fraction

from homlab import analyze, dominating_set_rational, maximal_bicliques
from homlab.fixtures import fixture_bigraph


def show(bs):
    # key() is a biclique's printable form: each side mask as a sorted tuple
    return [tuple(map(list, b.key())) for b in bs]


coex = fixture_bigraph("coexistence")
print("== coexistence fixture ==")
print("maximal bicliques:", show(maximal_bicliques(coex)))
print("dominating at alpha=beta:   ", show(dominating_set_rational(coex, Fraction(1), Fraction(1))))
print("dominating at alpha=2, beta=1:", show(dominating_set_rational(coex, Fraction(2), Fraction(1))))
print("dominating at alpha=1, beta=2:", show(dominating_set_rational(coex, Fraction(1), Fraction(2))))

k11 = fixture_bigraph("k11")
for name in ("case1", "case3"):
    h = fixture_bigraph(name)
    ctx = analyze(h, k11)
    print(f"\n== {name} fixture, single-edge decoration ==")
    print("dominating set:", show(ctx.c_ab))
    print("zeta values:", {str(k.key()): v for k, v in sorted(ctx.zp.zeta.items(), key=lambda kv: kv[0].key()) if k in ctx.c_ab})
    print("gamma 4-tuple:", ctx.gv.tuple4(), " =", ctx.gv.decimal())
    print("reweighted dominating set:", show(ctx.c_ab_gamma))
