import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import homlab
from homlab import classifier, exactcmp, graphs
from homlab.bicliques import gamma_dominating_set, target_record, zeta_profile
from homlab.classifier import (
    STAGE_BASE_P4,
    STAGE_CASE_I,
    STAGE_CASE_II,
    STAGE_CASE_III,
    STAGE_EXTREMAL_ONLY,
    case2_identity_check,
    classify,
    reduce_col_to_fixcol,
)
from homlab.counting import count_fixcol
from homlab.exactcmp import LogForm, certified_compare, log_ratio_as_fraction
from homlab.fixtures import fixture_bigraph, fixture_graph
from homlab.graphs import (
    Graph,
    TwoColouredGraph,
    canonical_side_bounded,
    disjoint_union,
    iso_colour_preserving,
    parse_bigraph,
)
from homlab.structure import (
    InvariantViolation,
    PreconditionError,
    derived_subgraph,
    fullness,
    make_biclique,
    require_full_nontrivial,
)

K11 = TwoColouredGraph(1, 1, [(0, 0)])


def test_p4_base_case():
    assert classify(fixture_bigraph("p4")).stage == STAGE_BASE_P4


def test_case1_strict_witness():
    rep = classify(fixture_bigraph("case1"), bound=1)
    assert rep.stage == STAGE_CASE_I
    g = parse_bigraph(rep.witnesses["gamma_graph"])
    assert (g.lsize, g.rsize, len(g.edges)) == (1, 1, 1)
    assert rep.witnesses["biclique"] == [[0, 1, 2], [0, 1, 2]]
    hprime = parse_bigraph(rep.witnesses["hprime"])
    assert (hprime.lsize, hprime.rsize) == (3, 9)
    assert len(hprime.edges) == 16


def test_case2_equality_stage():
    rep = classify(fixture_bigraph("coexistence"), bound=2)
    assert rep.stage == STAGE_CASE_II
    assert rep.witnesses["exponent"] == "1/2"
    assert rep.witnesses["identity_checked_decorations"] > 5


def test_case3_at_unit_bound():
    rep = classify(fixture_bigraph("case3"), bound=1)
    assert rep.stage == STAGE_CASE_III
    star = parse_bigraph(rep.witnesses["gamma_star"])
    assert (star.lsize, star.rsize, len(star.edges)) == (2, 2, 2)


def test_case3_flips_to_strict_witness_at_larger_bound():
    # the 1+2 path decoration pushes the first non-extremal biclique strictly
    # above the extremal pair on this target: the inequality reduces to
    # 2 ln(106/81) > ln(137/81), i.e. 106^2 > 137*81, so a deeper search
    # reclassifies the target that the single-edge decoration left dominated
    rep = classify(fixture_bigraph("case3"), bound=2)
    assert rep.stage == STAGE_CASE_I
    g = parse_bigraph(rep.witnesses["gamma_graph"])
    assert (g.lsize, g.rsize, len(g.edges)) == (1, 2, 2)
    h = fixture_bigraph("case3")
    from homlab.graphs import induced_subgraph

    derived = induced_subgraph(h, {0, 1, 2}, range(9))
    assert count_fixcol(derived, g) == 106
    assert count_fixcol(h, g) == 137
    assert 106 * 106 > 137 * 81


def test_stage_refusals():
    k22 = TwoColouredGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    with pytest.raises(PreconditionError):
        classify(k22)
    with pytest.raises(PreconditionError):
        classify(TwoColouredGraph(2, 1, [(0, 0)]))


def test_extremal_only_stage():
    # a full non-trivial target whose only maximal bicliques are extremal;
    # the 4-path itself short-circuits to the base case, so use a 5-vertex
    # variant
    h5 = TwoColouredGraph(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)])
    rep = classify(h5)
    assert rep.stage == STAGE_EXTREMAL_ONLY


def test_extremal_absent_stage():
    # one full vertex per side plus an inner 2x2 block: the inner 3x3
    # biclique outweighs the extremal pair, which drops out of the
    # dominating set entirely
    h = TwoColouredGraph(
        4,
        4,
        [(0, j) for j in range(4)]
        + [(i, 0) for i in range(1, 4)]
        + [(1, 1), (1, 2), (2, 1), (2, 2)],
    )
    rep = classify(h, bound=1)
    assert rep.stage == "ExtremalAbsent"
    hprime = parse_bigraph(rep.witnesses["hprime"])
    assert hprime.total < h.total
    assert fullness(hprime).is_full


def test_all_small_targets_classify_cleanly():
    stages = set()
    for h in canonical_side_bounded(3):
        prof = fullness(h)
        if not prof.is_full or prof.is_trivial:
            continue
        rep = classify(h, bound=2)
        stages.add(rep.stage)
        assert rep.stage in {
            STAGE_BASE_P4,
            STAGE_CASE_I,
            STAGE_CASE_II,
            STAGE_CASE_III,
            STAGE_EXTREMAL_ONLY,
            "ExtremalAbsent",
            "Inconclusive",
        }
    assert STAGE_BASE_P4 in stages
    assert STAGE_EXTREMAL_ONLY in stages


def test_case2_identity_values():
    h = fixture_bigraph("coexistence")
    lhs, rhs = case2_identity_check(h, 0, K11)
    assert lhs == rhs == 36  # 6^2 = 4 * 9
    lhs, rhs = case2_identity_check(h, 0, TwoColouredGraph(0, 0, []))
    assert lhs == rhs == 1
    p4 = fixture_bigraph("p4")
    lhs, rhs = case2_identity_check(h, 0, p4)
    assert lhs == rhs


@pytest.mark.parametrize("c", [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)])
def test_case2_sides_refuse_an_exponent_outside_the_open_unit_interval(c):
    # both ends of (0, 1) are refused, so c = 0 and c = 1 each fire the check
    with pytest.raises(InvariantViolation) as info:
        classifier._case2_sides(c, 6, 4, 9)
    assert info.value.check_name == "case2-exponent"
    # c = 1/2: 6^2 = 9^1 * 4^1
    assert classifier._case2_sides(Fraction(1, 2), 6, 4, 9) == (36, 36)


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_case2_identity_refuses_an_index_outside_the_nonextremal_list(i):
    # coexistence has two non-extremal dominating bicliques: a negative i must
    # not count from the end, and one past the end is no bare IndexError
    with pytest.raises(PreconditionError, match=f"index i must lie in \\[0, 2\\), got i={i}"):
        case2_identity_check(fixture_bigraph("coexistence"), i, K11)


def test_reduce_is_target():
    red = reduce_col_to_fixcol(fixture_graph("h_is"))
    assert red.class_count == 1
    assert red.lambda_star_size == 1
    p4 = fixture_bigraph("p4")
    assert iso_colour_preserving(red.hprime, p4)


def test_reduce_triangle():
    red = reduce_col_to_fixcol(fixture_graph("triangle"))
    assert red.class_count == 1
    assert red.lambda_star_size == 6


def test_reduce_toy_single_class():
    red = reduce_col_to_fixcol(fixture_graph("toy"))
    assert red.class_count == 1
    assert red.lambda_star_size == 20
    prof = fullness(red.hprime)
    assert prof.is_full and not prof.is_trivial
    assert (red.hprime.lsize, red.hprime.rsize) == (4, 4)


def test_reduce_refuses_trivial_components():
    message = (
        "target has a trivial component (fully looped clique or complete "
        "bipartite); such targets are easy and the reduction refuses them"
    )
    with pytest.raises(PreconditionError) as exc:
        reduce_col_to_fixcol(Graph(3, [(0, 0), (0, 1), (2, 2)]))
    assert str(exc.value) == message


def test_reduce_two_class_target():
    # pendant path grown from the looped 2-vertex target: top-degree pairs
    # induce more than one cover-neighbourhood class
    h = Graph(3, [(0, 0), (0, 1), (1, 2)])
    red = reduce_col_to_fixcol(h)
    assert red.class_count >= 1
    assert red.lambda_star_size >= 1
    prof = fullness(red.hprime)
    assert prof.is_full


def test_report_json_shape():
    rep = classify(fixture_bigraph("case1"), bound=1)
    d = rep.to_json_dict()
    assert set(d) == {"stage", "search_bound", "witnesses"}


# ---------------------------------------------------------------------------
# The decoration loop: one count and one verdict per class of derived subgraph
# ---------------------------------------------------------------------------

CENSUS_REFERENCE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "reference.json"
)


def _eq7_two_products(ep, z_i, z_ex1, z_ex2, s_r):
    """eq. 7 as two products compared on the certified comparator:
    ln(v_r/f_r) ln(z_i/z_ex1) against ln(v_r/s_r) ln(z_ex2/z_ex1)."""
    lhs = LogForm.ln(ep.v_r, ep.f_r) * LogForm.ln(z_i, z_ex1)
    return certified_compare(lhs, LogForm.ln(ep.v_r, s_r) * LogForm.ln(z_ex2, z_ex1))


def _oracle_classify(h, bound):
    """classify as it was before classes were shared: every non-extremal
    biclique counted and compared on its own with its own form of eq. 7,
    and the equality stage recounting each decoration through
    case2_identity_check."""
    C = classifier
    require_full_nontrivial(h)
    if iso_colour_preserving(h, C.P4):
        return C.HardnessCaseReport(stage=C.STAGE_BASE_P4, search_bound=bound)
    rec = target_record(h)
    ep, c_ab = rec.ep, rec.c_ab
    ex1, ex2 = rec.extremal
    if ex1 not in c_ab:
        return C.HardnessCaseReport(
            stage=C.STAGE_EXTREMAL_ABSENT, search_bound=bound,
            witnesses={"dominating": [C._biclique_json(b) for b in c_ab], **C._descend(h, c_ab)},
        )
    nonextremal = [b for b in c_ab if b not in (ex1, ex2)]
    if not nonextremal:
        return C.HardnessCaseReport(
            stage=C.STAGE_EXTREMAL_ONLY, search_bound=bound,
            witnesses={"dominating": [C._biclique_json(b) for b in c_ab]},
        )
    derived = [derived_subgraph(h, b) for b in nonextremal]
    gammas = [g for g in canonical_side_bounded(bound) if not g.isolated_right()]
    strict_witness = None
    equal_so_far = [True] * len(nonextremal)
    dominated_witness = [None] * len(nonextremal)
    for g in gammas:
        z_ex1 = ep.f_l ** g.lsize * h.rsize ** g.rsize
        z_ex2 = count_fixcol(h, g)
        for i, b in enumerate(nonextremal):
            z_i = count_fixcol(derived[i], g)
            verdict = _eq7_two_products(ep, z_i, z_ex1, z_ex2, b.s_r.bit_count())
            if verdict == exactcmp.GREATER:
                strict_witness = (g, i)
                break
            if verdict == exactcmp.LESS:
                equal_so_far[i] = False
                if dominated_witness[i] is None:
                    dominated_witness[i] = g
        if strict_witness:
            break
    if strict_witness:
        g, i = strict_witness
        c_gamma = gamma_dominating_set(rec, zeta_profile(rec, g), c_ab=c_ab)
        return C.HardnessCaseReport(
            stage=C.STAGE_CASE_I, search_bound=bound,
            witnesses={
                "gamma_graph": g.to_text(),
                "index": i,
                "biclique": C._biclique_json(nonextremal[i]),
                "gamma_dominating": [C._biclique_json(b) for b in c_gamma],
                **C._descend(h, c_gamma),
            },
        )
    if any(equal_so_far):
        i = equal_so_far.index(True)
        b = nonextremal[i]
        c = log_ratio_as_fraction(ep.v_r, b.s_r.bit_count(), ep.v_r, ep.f_r)
        if c is None:
            return C.HardnessCaseReport(
                stage=C.STAGE_INCONCLUSIVE, search_bound=bound,
                witnesses={
                    "reason": "equality exponent is irrational",
                    "index": i,
                    "biclique": C._biclique_json(b),
                },
            )
        checked = 0
        for g in gammas:
            lhs, rhs = case2_identity_check(h, i, g)
            assert lhs == rhs
            checked += 1
        return C.HardnessCaseReport(
            stage=C.STAGE_CASE_II, search_bound=bound,
            witnesses={
                "index": i,
                "biclique": C._biclique_json(b),
                "exponent": str(c),
                "identity_checked_decorations": checked,
                "note": (
                    "equality held for every enumerated decoration; a finite "
                    "search cannot prove it for all of them"
                ),
                "hprime": derived[i].to_text(),
            },
        )
    gamma_star = disjoint_union(dominated_witness)
    c_gamma = gamma_dominating_set(rec, zeta_profile(rec, gamma_star), c_ab=c_ab)
    return C.HardnessCaseReport(
        stage=C.STAGE_CASE_III, search_bound=bound,
        witnesses={
            "per_index_gamma": [g.to_text() for g in dominated_witness],
            "gamma_star": gamma_star.to_text(),
            "gamma_dominating": [C._biclique_json(b) for b in c_gamma],
        },
    )


def _same_as_oracle(h, bound):
    assert classify(h, bound=bound).to_json_dict() == _oracle_classify(h, bound).to_json_dict()


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_classify_matches_oracle_on_small_classes(bound):
    full = [
        h for h in canonical_side_bounded(3)
        if fullness(h).is_full and not fullness(h).is_trivial
    ]
    assert len(full) == 11
    for h in full:
        _same_as_oracle(h, bound)


@pytest.mark.parametrize("name", ["case1", "case3", "coexistence", "p4"])
def test_classify_matches_oracle_on_fixtures(name):
    for bound in (1, 2, 3, 4):
        _same_as_oracle(fixture_bigraph(name), bound)


def test_classify_matches_oracle_on_census_pool():
    with open(CENSUS_REFERENCE, encoding="utf-8") as fh:
        pool = json.load(fh)["census"]["pool"]
    assert len(pool) == 50
    for target in pool:
        _same_as_oracle(parse_bigraph(target["target"]), 2)


def _count_calls(monkeypatch):
    calls = []
    real = classifier.count_fixcol
    monkeypatch.setattr(
        classifier, "count_fixcol", lambda h, g: calls.append((h, g)) or real(h, g)
    )
    return calls


def test_decoration_counted_once_per_derived_class(monkeypatch):
    calls = _count_calls(monkeypatch)
    classify(fixture_bigraph("coexistence"), bound=3)
    # 54 decorations, each counted into H and into the one class that both
    # non-extremal bicliques share; recounting per biclique made 270 calls
    assert len([g for g in canonical_side_bounded(3) if not g.isolated_right()]) == 54
    assert len(calls) == 108
    calls.clear()
    # case3's two derived subgraphs have 16 and 15 edges: two classes, each
    # counted on each of the 3 decorations
    classify(fixture_bigraph("case3"), bound=1)
    assert len(calls) == 3 * 3
    assert len({h for h, _ in calls}) == 3


def test_derived_classes_key_on_form_and_right_side():
    h = fixture_bigraph("coexistence")
    # R3 sees only L0, so {3} and {0,3} and {1,3} all confine decorations to
    # the same subgraph; the eq7 verdict still differs with |S_R|
    narrow = make_biclique(h, {0}, {3})
    wide = make_biclique(h, {0}, {0, 3})
    wide2 = make_biclique(h, {0}, {1, 3})
    derived, class_of = classifier._derived_classes(h, [narrow, wide, wide2])
    assert derived[0] == derived[1] == derived[2]
    assert class_of == [0, 1, 1]


def test_derived_classes_separate_same_shape_non_isomorphic(monkeypatch):
    # L0 and R0 full; N(R1) = {0,1,2} and N(R2) = {0,3,4}.  Both derived
    # subgraphs are 3+5 with 11 edges, but L1 and L2 share two right
    # neighbours while L3 and L4 share three
    h = TwoColouredGraph(
        5, 5,
        [(0, j) for j in range(5)] + [(i, 0) for i in range(1, 5)]
        + [(1, 1), (1, 3), (2, 1), (2, 4), (3, 2), (3, 3), (4, 2), (4, 3)],
    )
    b1 = make_biclique(h, {0, 1, 2}, {1})
    b2 = make_biclique(h, {0, 3, 4}, {2})
    searches = []
    real = graphs._canonical_rows
    monkeypatch.setattr(graphs, "_canonical_rows", lambda g: searches.append(g) or real(g))
    derived, class_of = classifier._derived_classes(h, [b1, b2, b1])
    assert [(d.lsize, d.rsize, len(d.edges)) for d in derived[:2]] == [(3, 5, 11)] * 2
    assert class_of == [0, 1, 0]
    assert len(searches) == 3
    searches.clear()
    # case3's two non-extremal bicliques: derived subgraphs of 16 and 15
    # edges, so no canonical search is needed to tell them apart
    case3 = fixture_bigraph("case3")
    pair = [make_biclique(case3, {0, 1, 2}, {0, 1, 2}), make_biclique(case3, {0, 7, 8}, {0, 7, 8})]
    assert classifier._derived_classes(case3, pair)[1] == [0, 1]
    assert searches == []


def _claim_ties(monkeypatch, tie=lambda zeta_i: True):
    """Make the comparator report a tie wherever ``tie(zeta_i)`` holds, and
    a strict loss elsewhere, as a faulty certified comparison would."""
    monkeypatch.setattr(
        classifier, "_eq7_verdict",
        lambda ep, zeta_i, *rest: exactcmp.EQUAL if tie(zeta_i) else exactcmp.LESS,
    )


def test_case2_checks_the_counts_of_the_reported_class(monkeypatch):
    # on case1 at bound 1 the derived counts on K(1,1) are 16 (index 0) and
    # 15 (index 1); a comparator claiming only index 1 ties sends it to the
    # equality stage, whose integer route must read index 1's class:
    # 15^2 = 225 against 27 * 9 = 243
    _claim_ties(monkeypatch, tie=lambda zeta_i: zeta_i != 16)
    with pytest.raises(InvariantViolation) as info:
        classify(fixture_bigraph("case1"), bound=1)
    assert info.value.check_name == "case2-identity"
    assert "'bigraph 1 1\\n0 0\\n'" in info.value.detail
    assert "z_i^k1 = 225, z_ex2^k2 * z_ex1^(k1-k2) = 243" in info.value.detail


def _corrupt_one_derived_count(monkeypatch):
    h = fixture_bigraph("coexistence")
    derived = derived_subgraph(h, make_biclique(h, {0, 1}, {0, 1}))
    real = classifier.count_fixcol
    monkeypatch.setattr(
        classifier, "count_fixcol",
        lambda t, g: real(t, g) + (t == derived and g == K11),
    )
    _claim_ties(monkeypatch)
    return h


def test_case2_identity_failure_raises(monkeypatch):
    h = _corrupt_one_derived_count(monkeypatch)
    with pytest.raises(InvariantViolation, match="z_i\\^k1 = 49, "):
        classify(h, bound=1)


def test_bound_below_one_refused(monkeypatch):
    calls = _count_calls(monkeypatch)
    for bound in (0, -1):
        for name in ("coexistence", "p4"):
            with pytest.raises(PreconditionError, match="bound must be at least 1"):
                classify(fixture_bigraph(name), bound=bound)
    assert calls == []


def test_enumeration_guard_refuses_only_the_decoration_loop():
    with pytest.raises(PreconditionError, match=r"2\^30 labelled graphs for split \(5,6\)"):
        classify(fixture_bigraph("coexistence"), bound=6)
    h5 = TwoColouredGraph(2, 3, [(0, 0), (0, 1), (0, 2), (1, 0)])
    assert classify(h5, bound=6).stage == STAGE_EXTREMAL_ONLY
    assert classify(fixture_bigraph("p4"), bound=6).stage == STAGE_BASE_P4


def test_case2_identity_failure_raises_under_optimize():
    # the check is explicit, so python -O keeps it
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    script = (
        "import sys, pytest, test_classifier as t\n"
        "from homlab.classifier import classify\n"
        "from homlab.structure import InvariantViolation\n"
        "with pytest.MonkeyPatch.context() as mp:\n"
        "    try:\n"
        "        classify(t._corrupt_one_derived_count(mp), bound=1)\n"
        "    except InvariantViolation as exc:\n"
        "        print(exc.check_name, sys.flags.optimize)\n"
        "        sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([src, here])), timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.split() == ["case2-identity", "1"]


# ---------------------------------------------------------------------------
# Named checks of the descent step and of the stages
# ---------------------------------------------------------------------------

def _trivial_h_uv(mp):
    # every edge neighbourhood becomes K(1,1): full, but trivial
    mp.setattr(classifier, "h_uv", lambda h, u, v: K11)


def _gamma_keeps_extremal(mp):
    # the strict witness leaves the whole dominating set, extremal pair included
    mp.setattr(classifier, "gamma_dominating_set", lambda rec, zp, *, c_ab: c_ab)


def test_descent_target_is_a_named_check(monkeypatch, check_name_under_optimize):
    _trivial_h_uv(monkeypatch)
    with pytest.raises(InvariantViolation) as info:
        reduce_col_to_fixcol(fixture_graph("toy"))
    assert info.value.check_name == "descent-target"
    call = "t.reduce_col_to_fixcol(t.fixture_graph('toy'))"
    assert check_name_under_optimize(_trivial_h_uv, call) == "descent-target"


def test_descent_smaller_is_a_named_check(monkeypatch):
    # every derived subgraph becomes the target itself, which is full and
    # non-trivial but not smaller
    h = fixture_bigraph("case1")
    winners = [make_biclique(h, {0, 1, 2}, {0, 1, 2})]
    monkeypatch.setattr(classifier, "derived_subgraph", lambda h, b: h)
    with pytest.raises(InvariantViolation) as info:
        classifier._descend(h, winners)
    assert info.value.check_name == "descent-smaller"
    assert "18 vertices, the target 18" in info.value.detail


def test_case1_extremal_absent_is_a_named_check(monkeypatch, check_name_under_optimize):
    _gamma_keeps_extremal(monkeypatch)
    with pytest.raises(InvariantViolation) as info:
        classify(fixture_bigraph("case1"), bound=1)
    assert info.value.check_name == "case1-extremal-absent"
    call = "t.classify(t.fixture_bigraph('case1'), bound=1)"
    assert check_name_under_optimize(_gamma_keeps_extremal, call) == "case1-extremal-absent"
