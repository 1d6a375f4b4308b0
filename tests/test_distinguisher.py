import functools
import random

import pytest

from homlab import distinguisher, graphs
from homlab.counting import count_fixcol, count_fixcol_naive
from homlab.distinguisher import (
    DistinguisherResult,
    TargetsIsomorphic,
    build_selector,
    find_pair_distinguisher,
    recount_verify,
)
from homlab.fixtures import fixture_bigraph
from homlab.graphs import (
    TwoColouredGraph,
    canonical_two_coloured,
    disjoint_union,
    induced_subgraph,
    iter_canonical_two_coloured,
)
from homlab.structure import InvariantViolation, PreconditionError

K11 = TwoColouredGraph(1, 1, [(0, 0)])


def test_pair_isolated_vertex_separator():
    h2 = TwoColouredGraph(1, 2, [(0, 0)])  # an edge plus an isolated R vertex
    r = find_pair_distinguisher(K11, h2)
    assert r.counts == (1, 2)
    assert r.winner == 1
    assert (r.j.lsize, r.j.rsize) == (0, 1)


def test_pair_case_one_derived_graphs():
    case1 = fixture_bigraph("case1")
    h1 = induced_subgraph(case1, {0, 1, 2}, range(9))
    h2 = induced_subgraph(case1, {0, 7, 8}, range(9))
    r = find_pair_distinguisher(h1, h2)
    assert r.j.total <= max(h1.total, h2.total)
    assert count_fixcol_naive(h1, r.j) != count_fixcol_naive(h2, r.j)
    assert r.counts == (16, 15)  # the single-edge test separates already


def test_pair_star_versus_path():
    k13 = TwoColouredGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
    p4 = fixture_bigraph("p4")
    r = find_pair_distinguisher(p4, k13)
    assert r.j.total <= 4
    assert count_fixcol(p4, r.j) != count_fixcol(k13, r.j)


def test_pair_isomorphic_inputs_detected():
    other = TwoColouredGraph(1, 1, [(0, 0)])
    with pytest.raises(TargetsIsomorphic):
        find_pair_distinguisher(K11, other)


def test_pair_determinism():
    p3 = fixture_bigraph("p3")
    p4 = fixture_bigraph("p4")
    r1 = find_pair_distinguisher(p3, p4)
    r2 = find_pair_distinguisher(p3, p4)
    assert r1.j == r2.j and r1.counts == r2.counts


def test_bound_holds_on_exhaustive_small_pairs():
    pool = canonical_two_coloured(4)
    for a in range(len(pool)):
        for b in range(a + 1, len(pool)):
            r = find_pair_distinguisher(pool[a], pool[b])
            assert r.j.total <= max(pool[a].total, pool[b].total)


def _full_walk(h1, h2):
    """The search without the connectivity skip: count every class in order."""
    for j in iter_canonical_two_coloured(max(h1.total, h2.total)):
        c1, c2 = count_fixcol(h1, j), count_fixcol(h2, j)
        if c1 != c2:
            return j, (c1, c2), 0 if c1 > c2 else 1
    return None


def _cycles(*ns):
    """Disjoint union of 2-coloured cycles, the n-cycle as an n/2 + n/2 bigraph."""
    return disjoint_union([
        TwoColouredGraph(n // 2, n // 2, [(i, i) for i in range(n // 2)]
                         + [(i, (i + 1) % (n // 2)) for i in range(n // 2)])
        for n in ns
    ])


def _result(h1, h2):
    r = find_pair_distinguisher(h1, h2)
    return r.j, r.counts, r.winner


def test_matches_full_walk_on_all_small_pairs():
    pool = canonical_two_coloured(5)
    assert len(pool) * (len(pool) - 1) // 2 == 2415  # 496 of them within 4 vertices
    for a in range(len(pool)):
        for b in range(a + 1, len(pool)):
            r = _result(pool[a], pool[b])
            assert r == _full_walk(pool[a], pool[b]), (pool[a], pool[b])
            assert len(r[0].components()) == 1


def test_matches_full_walk_on_cycle_unions():
    for h1, h2 in [(_cycles(12), _cycles(6, 6)), (_cycles(10), _cycles(4, 6))]:
        assert _result(h1, h2) == _full_walk(h1, h2)


def test_relabelled_cycle_union_still_raises_isomorphic():
    h1 = _cycles(4, 4)
    perm_l, perm_r = [2, 0, 3, 1], [1, 3, 0, 2]
    h2 = TwoColouredGraph(4, 4, [(perm_l[i], perm_r[j]) for i, j in h1.edges])
    assert h2 != h1 and _full_walk(h1, h2) is None
    with pytest.raises(TargetsIsomorphic) as exc:
        find_pair_distinguisher(h1, h2)
    assert str(exc.value) == "no separator up to 8 vertices; the targets are colour-isomorphic"


def _enumeration_limited_to(monkeypatch, cells):
    """Refuse shapes over ``cells`` cells, with a class-list cache of this test's own."""
    monkeypatch.setattr(graphs, "_ENUM_EDGE_CELL_LIMIT", cells)
    monkeypatch.setattr(graphs, "_shape_classes", functools.cache(graphs._shape_classes.__wrapped__))


def test_refused_walk_on_isomorphic_targets_raises_isomorphic(monkeypatch):
    # the walk reaches split (2,5) before it could end, and the guard refuses it
    _enumeration_limited_to(monkeypatch, 9)
    with pytest.raises(TargetsIsomorphic) as exc:
        find_pair_distinguisher(_cycles(4, 6), _cycles(6, 4))
    assert str(exc.value) == "no separator up to 10 vertices; the targets are colour-isomorphic"


def test_refused_walk_on_distinct_targets_raises_the_refusal(monkeypatch):
    # C16 and C8+C8 first differ on the 4+4 cycle, past the refused split (2,5)
    _enumeration_limited_to(monkeypatch, 9)
    with pytest.raises(PreconditionError, match=r"split \(2,5\)"):
        find_pair_distinguisher(_cycles(16), _cycles(8, 8))


def test_only_connected_classes_are_counted(monkeypatch):
    calls = []

    def counting(h, j):
        calls.append(j)
        return count_fixcol(h, j)

    monkeypatch.setattr(distinguisher, "count_fixcol", counting)
    r = find_pair_distinguisher(_cycles(12), _cycles(6, 6))
    assert r.counts == (120, 132)
    assert len(calls) == 74  # 37 classes with at most one component, each into both targets
    assert all(len(j.components()) <= 1 for j in calls)


def test_selector_single_target():
    r = build_selector([K11])
    assert r.winner == 0
    assert r.j.total == 0
    assert r.counts == (1,)


def test_selector_two_targets_reduces_to_pair():
    p3 = fixture_bigraph("p3")
    r = build_selector([p3, K11])
    assert r.counts[r.winner] > r.counts[1 - r.winner]


def test_selector_rejects_isomorphic():
    with pytest.raises(PreconditionError):
        build_selector([K11, TwoColouredGraph(1, 1, [(0, 0)])])


def test_selector_seeded_triples_recount():
    rng = random.Random(20250810)
    pool = [g for g in canonical_two_coloured(4) if g.total >= 1]
    for _ in range(10):
        hs = rng.sample(pool, 3)
        sel = build_selector(hs)
        assert recount_verify(sel, hs)


def test_selector_case1_gamma_classes():
    case1 = fixture_bigraph("case1")
    h1 = induced_subgraph(case1, {0, 1, 2}, range(9))
    h2 = induced_subgraph(case1, {0, 7, 8}, range(9))
    hex1 = induced_subgraph(case1, {0}, range(9))
    sel = build_selector([hex1, h1, h2])
    assert recount_verify(sel, [hex1, h1, h2])


def test_selector_winner_strictness_is_asserted():
    # the result type itself enforces strictness; reaching here means the
    # invariant held for a non-trivial four-way selection
    pool = canonical_two_coloured(3)
    hs = [g for g in pool if g.total in (2, 3)][:4]
    sel = build_selector(hs)
    assert recount_verify(sel, hs)


def test_result_without_a_strict_winner_is_an_invariant_violation():
    with pytest.raises(InvariantViolation) as exc:
        DistinguisherResult(K11, (1, 1), 0)
    assert exc.value.check_name == "selector-strict"


def test_recount_verify_refuses_a_tied_winner(monkeypatch):
    # the recount is a second route and must not lean on the result's own
    # check: with that check off, a winner that truly ties is refused
    monkeypatch.setattr(DistinguisherResult, "__post_init__", lambda self: None)
    one_left = TwoColouredGraph(1, 0, [])  # counts the left vertices: 1 and 1
    hs = [K11, TwoColouredGraph(1, 2, [(0, 0)])]
    assert not recount_verify(DistinguisherResult(one_left, (1, 1), 0), hs)


def test_selector_copy_count_reads_only_the_other_targets():
    # The tail [K(1,1), B] splits on one right vertex j2 (counts 1 and 2, B
    # wins), and the head H ties B there (m = 2).  One left vertex jp then puts
    # B (2) over H (1), and the copies of j2 need only keep B ahead of the
    # others, K(1,1) alone (1): c = 1/2 and t = ceil(c m) = 1.  Counting B
    # among the others would give c = 1 and t = 2.
    head = TwoColouredGraph(1, 2, [(0, 0)])
    b = TwoColouredGraph(2, 2, [(0, 0)])
    sel = build_selector([head, K11, b])
    assert sel.winner == 2
    assert sel.j == disjoint_union([TwoColouredGraph(1, 0, []), TwoColouredGraph(0, 1, [])])
    assert sel.counts == (2, 1, 4)
