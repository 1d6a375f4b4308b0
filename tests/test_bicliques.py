import dataclasses
import random
import sys
from fractions import Fraction

import mpmath
import pytest

from homlab import bicliques, classifier
from homlab.bicliques import (
    BICLIQUE_SIDE_GUARD,
    GammaValue,
    all_bicliques,
    analyze,
    dominating_set_rational,
    extremal_pair,
    gamma,
    gamma_dominating_set,
    gamma_weight,
    maximal_bicliques,
    target_record,
    zeta_profile,
)
from homlab.classifier import case2_identity_check, classify
from homlab.counting import count_fixcol
from homlab.exactcmp import EQUAL, GREATER, LogForm, certified_compare
from homlab.fixtures import FIXTURES, fixture_bigraph
from homlab.graphs import TwoColouredGraph, iter_bits, canonical_side_bounded
from homlab.structure import (
    Biclique,
    InvariantViolation,
    PreconditionError,
    fullness,
    is_maximal_biclique,
    make_biclique,
)
from test_classifier import _eq7_two_products, _gamma_keeps_extremal

K11 = TwoColouredGraph(1, 1, [(0, 0)])
P4 = TwoColouredGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
EMPTY = TwoColouredGraph(0, 0, [])


def test_all_bicliques_k11():
    bs = all_bicliques(K11)
    assert len(bs) == 1
    assert is_maximal_biclique(K11, bs[0])


def test_all_bicliques_p4():
    keys = {b.key() for b in maximal_bicliques(P4)}
    assert keys == {((1,), (0, 1)), ((0, 1), (0,))}


def test_bounded_enumeration_is_the_filtered_full_list():
    # the phase tables enumerate within the gadget's K(a,b) sides only
    for name, fixture in FIXTURES.items():
        if fixture.kind != "bigraph":
            continue
        h = fixture_bigraph(name)
        full = all_bicliques(h)
        for a in range(4):
            for b in range(4):
                want = [x for x in full if x.s_l.bit_count() <= a and x.s_r.bit_count() <= b]
                assert bicliques._bicliques_within(h, a, b) == want, (name, a, b)


def test_coexistence_maximal_bicliques():
    h = fixture_bigraph("coexistence")
    keys = {b.key() for b in maximal_bicliques(h)}
    assert ((0,), (0, 1, 2, 3)) in keys
    assert ((0, 1, 2, 3), (0,)) in keys
    assert ((0, 1), (0, 1)) in keys
    assert ((0, 2), (0, 2)) in keys


def test_exponent_pair_requires_full_nontrivial():
    k22 = TwoColouredGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(PreconditionError):
        target_record(k22)
    with pytest.raises(PreconditionError):
        target_record(TwoColouredGraph(2, 1, [(0, 0)]))  # not full


def test_exponent_pair_symmetry():
    ep = target_record(fixture_bigraph("case1")).ep
    # same ratio on both sides forces equal display exponents
    a, b = ep.display()
    assert a == b == mpmath.mpf("0.5")
    assert (ep.alpha_form() - ep.beta_form()).is_zero()


def test_exponent_pair_two_to_one_ratio():
    # left ratio is the square of the right ratio: alpha:beta = 1:2
    h = TwoColouredGraph(
        4,
        2,
        [(i, 0) for i in range(4)] + [(0, 1)],
    )
    # full: vertex 0 on L sees all of R; vertex 0 on R sees all of L
    ep = target_record(h).ep
    assert (ep.v_l, ep.f_l, ep.v_r, ep.f_r) == (4, 1, 2, 1)
    a, b = ep.display()
    assert 2 * a == b


def test_dominating_set_scale_invariance():
    h = fixture_bigraph("coexistence")
    base = dominating_set_rational(h, Fraction(1), Fraction(1))
    for s in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
        assert dominating_set_rational(h, s, s) == base


def test_dominating_set_matches_eq_pair():
    h = fixture_bigraph("coexistence")
    assert target_record(h).c_ab == dominating_set_rational(h, Fraction(1), Fraction(1))


def test_zeta_profile_empty_decoration():
    h = fixture_bigraph("case1")
    zp = zeta_profile(target_record(h), EMPTY)
    assert zp.zeta_ex1 == zp.zeta_ex2 == 1
    assert all(v == 1 for v in zp.zeta.values())


def test_zeta_profile_case_values():
    for name, ex2 in (("case1", 27), ("case3", 29)):
        h = fixture_bigraph(name)
        zp = zeta_profile(target_record(h), K11)
        assert zp.zeta_ex1 == 9 and zp.zeta_ex2 == ex2
        b1 = make_biclique(h, {0, 1, 2}, {0, 1, 2})
        assert zp.zeta[b1] == 16


def test_gamma_values():
    rec = target_record(fixture_bigraph("case1"))
    gv = gamma(zeta_profile(rec, EMPTY), rec.ep)
    assert gv.as_fraction() == 0
    gv = gamma(zeta_profile(rec, K11), rec.ep)
    assert gv.as_fraction() == Fraction(1, 2)
    rec3 = target_record(fixture_bigraph("case3"))
    gv3 = gamma(zeta_profile(rec3, K11), rec3.ep)
    assert gv3.tuple4() == (29, 9, 9, 1)
    assert gv3.as_fraction() is None
    assert gv3.decimal().startswith("0.5325")


def test_gamma_dominating_examples():
    ctx1 = analyze(fixture_bigraph("case1"), K11)
    assert [b.key() for b in ctx1.c_ab_gamma] == [((0, 1, 2), (0, 1, 2))]
    ctx3 = analyze(fixture_bigraph("case3"), K11)
    ex = sorted(b.key() for b in extremal_pair(ctx3.target))
    assert sorted(b.key() for b in ctx3.c_ab_gamma) == ex


def test_empty_decoration_gamma_set_equals_plain_set():
    for name in ("case1", "case3", "coexistence", "p4"):
        ctx = analyze(fixture_bigraph(name))
        assert ctx.c_ab_gamma == ctx.c_ab


def test_analysis_json_is_serializable():
    import json

    ctx = analyze(fixture_bigraph("coexistence"), K11)
    payload = json.dumps(ctx.to_json_dict(), sort_keys=True)
    assert "gamma_tuple" in payload


def _float_argmax(h, gamma_graph, prec=200):
    """Independent floating-point recomputation of the reweighted argmax."""
    rec = target_record(h)
    ep = rec.ep
    zp = zeta_profile(rec, gamma_graph)
    with mpmath.workprec(prec):
        gam = mpmath.log(mpmath.mpf(zp.zeta_ex2) / zp.zeta_ex1) / mpmath.log(
            mpmath.mpf(ep.v_r) / ep.f_r
        )
        alpha = mpmath.log(mpmath.mpf(ep.v_r) / ep.f_r)
        beta = mpmath.log(mpmath.mpf(ep.v_l) / ep.f_l)

        def kab_weight(b):
            return alpha * mpmath.log(b.s_l.bit_count()) + beta * mpmath.log(b.s_r.bit_count())

        allb = all_bicliques(h)
        best = max(kab_weight(b) for b in allb)
        c_ab = [b for b in allb if mpmath.almosteq(kab_weight(b), best)]

        def gweight(b):
            return mpmath.log(zp.zeta[b]) + gam * mpmath.log(b.s_r.bit_count())

        best2 = max(gweight(b) for b in c_ab)
        return sorted(b.key() for b in c_ab if mpmath.almosteq(gweight(b), best2))


def test_certified_argmax_matches_float_oracle():
    # exhaustive over full non-trivial targets with up to 3 vertices a side,
    # then a seeded sample of bigger ones; decorations up to 2 vertices a side
    gammas = canonical_side_bounded(2)
    pool = [
        h
        for h in canonical_side_bounded(3)
        if fullness(h).is_full and not fullness(h).is_trivial
    ]
    rng = random.Random(4242)
    for _ in range(60):
        l = rng.randint(3, 5)
        r = rng.randint(3, 5)
        edges = {
            (i, jj)
            for i in range(l)
            for jj in range(r)
            if rng.random() < 0.55
        }
        h = TwoColouredGraph(l, r, edges)
        prof = fullness(h)
        if prof.is_full and not prof.is_trivial:
            pool.append(h)
    checked = 0
    for h in pool:
        rec = target_record(h)
        for g in gammas:
            winners = gamma_dominating_set(rec, zeta_profile(rec, g), c_ab=rec.c_ab)
            assert sorted(b.key() for b in winners) == _float_argmax(h, g), (h, g)
            checked += 1
    assert checked >= 400


def _absolute_weight(ep, zp, b):
    """ln zeta(b) ln(v_r/f_r) + ln|S_R| ln(zeta_ex2/zeta_ex1), not offset by the extremal pair."""
    return LogForm.ln(zp.zeta[b]) * LogForm.ln(ep.v_r, ep.f_r) + LogForm.ln(
        b.s_r.bit_count()
    ) * LogForm.ln(zp.zeta_ex2, zp.zeta_ex1)


def test_one_gamma_weight_decides_eq7_and_ranks_the_argmax():
    # every full non-trivial class with sides <= 3, every decoration with sides <= 2
    gammas = canonical_side_bounded(2)
    profiles = [(h, fullness(h)) for h in canonical_side_bounded(3)]
    pool = [h for h, prof in profiles if prof.is_full and not prof.is_trivial]
    checked = 0
    for h in pool:
        rec = target_record(h)
        ep = rec.ep
        for g in gammas:
            zp = zeta_profile(rec, g)

            def weight(b):
                return gamma_weight(ep, zp.zeta[b], zp.zeta_ex1, zp.zeta_ex2, b.s_r.bit_count())

            for b in maximal_bicliques(h):
                s_r = b.s_r.bit_count()
                want = _eq7_two_products(ep, zp.zeta[b], zp.zeta_ex1, zp.zeta_ex2, s_r)
                assert weight(b).sign() == want, (h, g, b)
            assert all(weight(ex).is_zero() for ex in extremal_pair(h)), (h, g)
            best, best_form = [], None
            for b in rec.c_ab:
                f = _absolute_weight(ep, zp, b)
                verdict = GREATER if best_form is None else certified_compare(f, best_form)
                if verdict == GREATER:
                    best, best_form = [b], f
                elif verdict == EQUAL:
                    best.append(b)
            assert gamma_dominating_set(rec, zp, c_ab=rec.c_ab) == best, (h, g)
            checked += 1
    assert checked >= 200


# A full, non-trivial target one vertex over the side guard: left vertex 0 and
# right vertex 0 see the whole opposite side.
WIDE = TwoColouredGraph(
    BICLIQUE_SIDE_GUARD + 1,
    2,
    [(0, 1)] + [(i, 0) for i in range(BICLIQUE_SIDE_GUARD + 1)],
)
GUARD_MESSAGE = f"limited to {BICLIQUE_SIDE_GUARD} vertices per side"


def test_enumeration_guard():
    # every path that enumerates bicliques refuses, with one message
    for call in (
        lambda: all_bicliques(WIDE),
        lambda: maximal_bicliques(WIDE),
        lambda: maximal_bicliques(TwoColouredGraph(1, BICLIQUE_SIDE_GUARD + 1, [])),
        lambda: target_record(WIDE),
        lambda: dominating_set_rational(WIDE, Fraction(1), Fraction(1)),
        lambda: analyze(WIDE, K11),
        lambda: classify(WIDE, bound=1),
    ):
        with pytest.raises(PreconditionError, match=GUARD_MESSAGE):
            call()


def test_enumeration_accepts_a_side_at_the_guard():
    # exactly BICLIQUE_SIDE_GUARD vertices, on the left or on the right, is within the guard
    full = (1 << BICLIQUE_SIDE_GUARD) - 1
    star_l = TwoColouredGraph(BICLIQUE_SIDE_GUARD, 1, [(i, 0) for i in range(BICLIQUE_SIDE_GUARD)])
    star_r = TwoColouredGraph(1, BICLIQUE_SIDE_GUARD, [(0, j) for j in range(BICLIQUE_SIDE_GUARD)])
    assert maximal_bicliques(star_l) == [Biclique(full, 1)]
    assert maximal_bicliques(star_r) == [Biclique(1, full)]


@pytest.mark.parametrize("alpha, beta", [(0, 1), (1, 0)])
def test_dominating_set_rational_refuses_a_zero_exponent(alpha, beta):
    with pytest.raises(PreconditionError, match="exponents must be positive"):
        dominating_set_rational(fixture_bigraph("p4"), Fraction(alpha), Fraction(beta))


def _maximal_by_left_scan(h):
    """The 2^lsize scan over left sets: close each joint neighbourhood."""
    seen = {}
    for lmask in range(1, 1 << h.lsize):
        joint = (1 << h.rsize) - 1
        for i in iter_bits(lmask):
            joint &= h.left_adj[i]
        if joint:
            closed = (1 << h.lsize) - 1
            for j in iter_bits(joint):
                closed &= h.right_adj[j]
            b = Biclique(closed, joint)
            seen[b.key()] = b
    return [seen[k] for k in sorted(seen)]


def _argmax_over_all_bicliques(h, alpha, beta):
    """Certified argmax of alpha ln|S_L| + beta ln|S_R| over every biclique."""
    best, best_form = [], None
    for b in all_bicliques(h):
        f = alpha * LogForm.ln(b.s_l.bit_count()) + beta * LogForm.ln(b.s_r.bit_count())
        verdict = GREATER if best_form is None else certified_compare(f, best_form)
        if verdict == GREATER:
            best, best_form = [b], f
        elif verdict == EQUAL:
            best.append(b)
    return best


def _oracle_pool():
    pool = list(canonical_side_bounded(3))
    pool += [fixture_bigraph(name) for name, f in FIXTURES.items() if f.kind == "bigraph"]
    rng = random.Random(8080)
    for _ in range(40):
        l, r = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.uniform(0.2, 0.6)
        pool.append(TwoColouredGraph(
            l, r, [(i, j) for i in range(l) for j in range(r) if rng.random() < density]
        ))
    return pool


RATIONAL_EXPONENTS = ((1, 1), (2, 1), (1, 2))


def test_argmax_over_maximal_bicliques_matches_all_bicliques_oracle():
    full = 0
    for h in _oracle_pool():
        assert maximal_bicliques(h) == _maximal_by_left_scan(h), h
        for a, b in RATIONAL_EXPONENTS:
            want = _argmax_over_all_bicliques(
                h, LogForm.rational(a), LogForm.rational(b)
            )
            assert dominating_set_rational(h, Fraction(a), Fraction(b)) == want, (h, a, b)
        prof = fullness(h)
        if prof.is_full and not prof.is_trivial:
            rec = target_record(h)
            want = _argmax_over_all_bicliques(h, rec.ep.alpha_form(), rec.ep.beta_form())
            assert rec.c_ab == want, h
            full += 1
    assert full >= 15


# ---------------------------------------------------------------------------
# Named checks of the dominance analysis
# ---------------------------------------------------------------------------

def _closure_not_maximal(mp):
    mp.setattr(bicliques, "is_maximal_biclique", lambda h, b: False)


def _counts_off_by_one(mp):
    mp.setattr(bicliques, "count_fixcol", lambda h, g: count_fixcol(h, g) + 1)


def _gamma_set_empty(mp):
    mp.setattr(bicliques, "gamma_dominating_set", lambda rec, zp, *, c_ab: [])


def _gamma_off(mp):
    # gamma's numerator is ln((zeta_ex2 + 1)/zeta_ex1), which misses the defining equation
    mp.setattr(
        bicliques, "gamma",
        lambda zp, ep: GammaValue(zp.zeta_ex2 + 1, zp.zeta_ex1, ep.v_r, ep.f_r),
    )


def _zeta_ex1_off(mp):
    # the profile's zeta_ex1 is one below zeta(ex1), so ex1 weighs ln(v_r/f_r) ln(9/8)
    real = classifier.zeta_profile
    mp.setattr(
        classifier, "zeta_profile",
        lambda rec, g: dataclasses.replace(real(rec, g), zeta_ex1=real(rec, g).zeta_ex1 - 1),
    )


def _every_left_vertex_full(mp):
    # a profile that puts every left vertex in F_L leaves alpha's side no proper part
    real = bicliques.require_full_nontrivial
    mp.setattr(
        bicliques, "require_full_nontrivial",
        lambda h: dataclasses.replace(real(h), f_l=frozenset(range(h.lsize))),
    )


def _every_right_vertex_full(mp):
    # the same on beta's side only: F_R is all of R while F_L stays proper
    real = bicliques.require_full_nontrivial
    mp.setattr(
        bicliques, "require_full_nontrivial",
        lambda h: dataclasses.replace(real(h), f_r=frozenset(range(h.rsize))),
    )


def _patch_record(mp, module, **change):
    """Make ``module.target_record`` replace each field f of the record by ``change[f](rec)``."""
    real = bicliques.target_record

    def patched(h):
        rec = real(h)
        return dataclasses.replace(rec, **{f: fn(rec) for f, fn in change.items()})

    mp.setattr(module, "target_record", patched)


def _record_ex2_is_b1(mp):
    # case1's ({0,1,2},{0,1,2}) in ex2's place: its count on K(1,1) is 16, the count into h 27
    b1 = make_biclique(fixture_bigraph("case1"), {0, 1, 2}, {0, 1, 2})
    _patch_record(mp, bicliques, extremal=lambda rec: (rec.extremal[0], b1))


def _record_with_submaximal(mp):
    # case1's ({0,1},{0,1,2}) lies inside the winner ({0,1,2},{0,1,2}) and
    # confines a decoration to the same subgraph, so the two tie on every decoration
    sub = make_biclique(fixture_bigraph("case1"), {0, 1}, {0, 1, 2})
    _patch_record(
        mp, bicliques, maximal=lambda rec: rec.maximal + [sub], c_ab=lambda rec: rec.c_ab + [sub]
    )


def _whole_target_counts_zero(mp):
    # every count into the whole 9+9 target reads 0, below zeta(ex1) = 9
    mp.setattr(bicliques, "count_fixcol", lambda h, g: 0 if h.total == 18 else count_fixcol(h, g))


def _record_drops_ex2(mp):
    _patch_record(
        mp, classifier, c_ab=lambda rec: [b for b in rec.c_ab if b != rec.extremal[1]]
    )


def _record_f_r_two(mp):
    # f_r = |S_R| of ({0,1},{0,1}) makes its equality exponent ln(4/2)/ln(4/2) = 1
    _patch_record(mp, classifier, ep=lambda rec: dataclasses.replace(rec.ep, f_r=2))


def _verdict_outside_three(mp):
    # a faulty comparator whose verdict is none of GREATER, EQUAL and LESS
    mp.setattr(classifier, "_eq7_verdict", lambda *args: None)


CASE1_K11 = "t.analyze(t.fixture_bigraph('case1'), t.K11)"


@pytest.mark.parametrize(
    "patch, call, name",
    [
        (_closure_not_maximal, "t.maximal_bicliques(t.P4)", "maximal-closure"),
        (
            _counts_off_by_one,
            "t.zeta_profile(t.target_record(t.fixture_bigraph('case1')), t.K11)",
            "zeta-closed-form",
        ),
        (_gamma_set_empty, "t.analyze(t.fixture_bigraph('case3'))", "empty-decoration-argmax"),
        # classify calls no gamma(): the checks run inside gamma_dominating_set
        (_gamma_off, "t.classify(t.fixture_bigraph('case1'), bound=1)", "gamma-equation"),
        (_zeta_ex1_off, "t.classify(t.fixture_bigraph('case1'), bound=1)", "gamma-extremal-tie"),
        (
            _every_left_vertex_full,
            "t.target_record(t.fixture_bigraph('case1'))",
            "exponent-proper-full",
        ),
        (
            _every_right_vertex_full,
            "t.target_record(t.fixture_bigraph('case1'))",
            "exponent-proper-full",
        ),
        (_record_ex2_is_b1, CASE1_K11, "zeta-whole-target"),
        (_record_with_submaximal, CASE1_K11, "gamma-winner-maximal"),
        (
            _whole_target_counts_zero,
            "t.zeta_profile(t.target_record(t.fixture_bigraph('case1')), t.K11)",
            "zeta-order",
        ),
        (_record_drops_ex2, "t.classify(t.fixture_bigraph('case1'), bound=1)", "extremal-pair"),
        (
            _record_f_r_two,
            "t.case2_identity_check(t.fixture_bigraph('coexistence'), 0, t.K11)",
            "case2-exponent",
        ),
        (_verdict_outside_three, "t.classify(t.fixture_bigraph('case3'), bound=1)", "case3-witness"),
        # the union witness's argmax keeps the non-extremal bicliques too
        (
            _gamma_keeps_extremal,
            "t.classify(t.fixture_bigraph('case3'), bound=1)",
            "case3-extremal-only",
        ),
    ],
)
def test_analysis_invariants_are_named_checks(
    monkeypatch, check_name_under_optimize, patch, call, name
):
    patch(monkeypatch)
    # one expression, run here and by the fixture under python -O
    with pytest.raises(InvariantViolation) as info:
        eval(call, {"t": sys.modules[__name__]})
    assert info.value.check_name == name
    assert check_name_under_optimize(patch, call) == name
