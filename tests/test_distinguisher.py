import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    iter_bits,
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
    """The search without the connectivity and tree skips: count every class in order."""
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


def _even_parts(n, least=4):
    """The multisets of even cycle lengths, each at least 4, that sum to n."""
    if n == 0:
        yield ()
    for k in range(least, n + 1, 2):
        for rest in _even_parts(n - k, k):
            yield (k,) + rest


# distinct unions of even cycles with one total; colour refinement splits none of them
CYCLE_UNION_PAIRS = [
    pair for n in range(4, 17, 2) for pair in itertools.combinations(list(_even_parts(n)), 2)
]


def _is_tree(j):
    return len(j.components()) == 1 and sum(m.bit_count() for m in j.left_adj) == j.total - 1


def test_matches_full_walk_on_cycle_unions():
    assert len(CYCLE_UNION_PAIRS) == 35
    for a, b in CYCLE_UNION_PAIRS:
        h1, h2 = _cycles(*a), _cycles(*b)
        assert distinguisher._refinement_equivalent(h1, h2), (a, b)
        assert _result(h1, h2) == _full_walk(h1, h2), (a, b)


def test_refinement_equivalent_cycle_unions_tie_on_every_small_tree():
    # the theorem behind the tree skip, checked by counting: a connected test
    # graph maps into one component, so the naive route counts each cycle once
    trees = [j for j in iter_canonical_two_coloured(8) if _is_tree(j)]
    assert len(trees) == 88
    naive = {
        (n, j): count_fixcol_naive(_cycles(n), j)
        for n in range(4, 17, 2) for j in trees if j.total <= 5
    }
    for a, b in CYCLE_UNION_PAIRS:
        h1, h2 = _cycles(*a), _cycles(*b)
        for j in trees:
            assert count_fixcol(h1, j) == count_fixcol(h2, j), (a, b, j)
            if j.total <= 5:
                assert sum(naive[n, j] for n in a) == sum(naive[n, j] for n in b), (a, b, j)


def test_equal_degrees_split_by_refinement_still_count_trees():
    # K(1,2) + K(2,1) against P4 + K(1,1): the same degrees on each side, but
    # a degree-2 vertex has a degree-2 neighbour only in the second; one round
    # of refinement cannot tell them apart, and the 2+2 path separates them
    h1 = TwoColouredGraph(3, 3, [(0, 1), (0, 2), (1, 0), (2, 0)])
    h2 = TwoColouredGraph(3, 3, [(0, 0), (0, 2), (1, 1), (2, 0)])
    assert not distinguisher._refinement_equivalent(h1, h2)
    r = _result(h1, h2)
    assert r == _full_walk(h1, h2)
    assert r[0] == TwoColouredGraph(2, 2, [(0, 0), (0, 1), (1, 0)]) and r[1:] == ((8, 9), 1)


def _oracle_refinement_equivalent(h1, h2):
    """Refinement from sides on the disjoint union, one rank space for both
    sides, stopped only when a round splits no class: the tree skip's verdict
    as first written."""
    g = disjoint_union([h1, h2])
    l = g.lsize
    nbrs = [[l + j for j in iter_bits(m)] for m in g.left_adj]
    nbrs += [list(iter_bits(m)) for m in g.right_adj]
    colour = [0] * l + [1] * g.rsize
    count = len(set(colour))
    while True:
        keys = [(c, tuple(sorted([colour[w] for w in nb]))) for c, nb in zip(colour, nbrs)]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        if len(rank) == count:
            break
        colour, count = [rank[k] for k in keys], len(rank)
    l1, r1 = h1.lsize, h1.rsize
    first = colour[:l1] + colour[l:l + r1]
    second = colour[l1:l] + colour[l + r1:]
    return sorted(first) == sorted(second)


SMALL_CLASSES = canonical_two_coloured(6)  # 164 classes, empty sides included


@st.composite
def _target_pairs(draw):
    """Two classes with at most 6 vertices, or a cycle-union pair; the second
    sometimes replaced by a relabelled copy of the first."""
    if draw(st.booleans()):
        h1, h2 = draw(st.sampled_from(SMALL_CLASSES)), draw(st.sampled_from(SMALL_CLASSES))
    else:
        a, b = draw(st.sampled_from(CYCLE_UNION_PAIRS))
        h1, h2 = _cycles(*a), _cycles(*b)
    if draw(st.integers(0, 3)) == 0:
        pl = draw(st.permutations(range(h1.lsize)))
        pr = draw(st.permutations(range(h1.rsize)))
        h2 = TwoColouredGraph(h1.lsize, h1.rsize, [(pl[i], pr[j]) for i, j in h1.edges])
    return h1, h2


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_target_pairs())
def test_refinement_equivalent_matches_refinement_from_sides(pair):
    h1, h2 = pair
    assert distinguisher._refinement_equivalent(h1, h2) == _oracle_refinement_equivalent(h1, h2)


def test_refinement_equivalent_compares_each_side():
    # the L vertices agree; only the R side has an isolated vertex more
    assert not distinguisher._refinement_equivalent(K11, TwoColouredGraph(1, 2, [(0, 0)]))
    # the R vertices agree; only the L side has an isolated vertex more
    assert not distinguisher._refinement_equivalent(K11, TwoColouredGraph(2, 1, [(0, 0)]))
    # no L vertex at all: the R sides are compared as they are
    assert distinguisher._refinement_equivalent(
        TwoColouredGraph(0, 2, []), TwoColouredGraph(0, 2, [])
    )
    assert not distinguisher._refinement_equivalent(
        TwoColouredGraph(0, 2, []), TwoColouredGraph(0, 1, [])
    )


def test_relabelled_cycle_union_still_raises_isomorphic():
    h1 = _cycles(4, 4)
    perm_l, perm_r = [2, 0, 3, 1], [1, 3, 0, 2]
    h2 = TwoColouredGraph(4, 4, [(perm_l[i], perm_r[j]) for i, j in h1.edges])
    assert h2 != h1 and _full_walk(h1, h2) is None
    with pytest.raises(TargetsIsomorphic) as exc:
        find_pair_distinguisher(h1, h2)
    assert str(exc.value) == "no separator up to 8 vertices; the targets are colour-isomorphic"


def test_walk_list_is_the_filtered_class_enumeration():
    # run before the refused walks below, so the shape they refuse is cached by then
    want = {}
    for j in iter_canonical_two_coloured(8):
        if len(j.components()) <= 1:
            tree = j.total >= 3 and len(j.edges) == j.total - 1
            want.setdefault((j.lsize, j.rsize), []).append((j, tree))
    for lsize, rsize in graphs._shapes(8):
        assert list(distinguisher._walk_list(lsize, rsize)) == want.get((lsize, rsize), [])
    assert sum(tree for entries in want.values() for _, tree in entries) > 0


def _enumeration_limited_to(monkeypatch, cells):
    """Refuse shapes over ``cells`` cells, with mask and class-list caches of this test's own."""
    monkeypatch.setattr(graphs, "_ENUM_EDGE_CELL_LIMIT", cells)
    for name in ("_split_masks", "_shape_half"):
        monkeypatch.setattr(graphs, name, functools.cache(getattr(graphs, name).__wrapped__))
    monkeypatch.setattr(distinguisher, "_shape_half", graphs._shape_half)


def test_each_mask_is_canonicalised_once_and_the_walk_list_only_the_connected(monkeypatch):
    _enumeration_limited_to(monkeypatch, graphs._ENUM_EDGE_CELL_LIMIT)
    walk_list = functools.cache(distinguisher._walk_list.__wrapped__)
    monkeypatch.setattr(distinguisher, "_walk_list", walk_list)
    seen = []
    real = graphs.canonical_form
    monkeypatch.setattr(graphs, "canonical_form", lambda g: seen.append(g) or real(g))
    masks = graphs._doubly_sorted_masks(3, 3)
    connected = [m for m in masks if len(graphs._mask_graph(3, 3, m).components()) <= 1]
    assert 0 < len(connected) < len(masks)
    distinguisher._walk_list(3, 3)
    assert seen == [graphs._mask_graph(3, 3, m) for m in connected]
    seen.clear()
    classes = graphs._shape_classes(3, 3)
    assert seen == [graphs._mask_graph(3, 3, m) for m in masks if m not in connected]
    seen.clear()
    assert graphs._shape_classes(3, 3) == classes and distinguisher._walk_list(3, 3) and not seen


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
    # 37 classes with at most one component; of them, the 18 trees with 3 or
    # more vertices tie by refinement and are not counted; the rest go into
    # both targets
    assert len(calls) == 38
    assert all(len(j.components()) <= 1 for j in calls)
    assert not any(_is_tree(j) and j.total >= 3 for j in calls)


def test_refinement_runs_once_and_only_at_a_tree_of_three_vertices(monkeypatch):
    runs = []

    def refinement(h1, h2):
        runs.append((h1, h2))
        return equivalent(h1, h2)

    equivalent = distinguisher._refinement_equivalent
    monkeypatch.setattr(distinguisher, "_refinement_equivalent", refinement)
    find_pair_distinguisher(K11, TwoColouredGraph(1, 2, [(0, 0)]))  # split by a 1-vertex class
    find_pair_distinguisher(K11, TwoColouredGraph(1, 1, []))  # split by K(1,1)
    assert runs == []
    find_pair_distinguisher(_cycles(12), _cycles(6, 6))
    assert len(runs) == 1


def test_selector_single_target():
    r = build_selector([K11])
    assert r.winner == 0
    assert r.j.total == 0
    assert r.counts == (1,)


def test_selector_two_targets_reduces_to_pair():
    p3 = fixture_bigraph("p3")
    r = build_selector([p3, K11])
    assert r.counts[r.winner] > r.counts[1 - r.winner]


def test_selector_on_two_targets_is_the_pair_distinguisher():
    # the general step on a one-target tail: both count 1 into the empty
    # graph, the pair distinguisher splits them, and no copies are added
    rng = random.Random(3803)
    pool = canonical_two_coloured(5)
    for h1, h2 in (rng.sample(pool, 2) for _ in range(40)):
        assert build_selector([h1, h2]) == find_pair_distinguisher(h1, h2)


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
