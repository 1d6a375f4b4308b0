import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homlab import classifier, counting
from homlab.counting import (
    PARTITION_SIDE_GUARD,
    contractions,
    count_bis,
    count_bis_naive,
    count_col,
    count_col_naive,
    count_fixcol,
    count_fixcol_naive,
    count_inj_fixcol,
    partition_sum_check,
    partition_sum_checks,
    set_partitions,
    surjection_count,
)
from homlab.fixtures import fixture_bigraph, fixture_graph
from homlab.graphs import (
    Graph,
    PreconditionError,
    TwoColouredGraph,
    WorkBudgetExceeded,
    canonical_form,
    canonical_side_bounded,
    disjoint_union,
    induced_subgraph,
    quotient,
    tensor,
)

K11 = TwoColouredGraph(1, 1, [(0, 0)])
P4 = TwoColouredGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
EMPTY = TwoColouredGraph(0, 0, [])


def test_count_col_independent_sets_of_path():
    assert count_col(fixture_graph("h_is"), fixture_graph("p3_plain")) == 5


def test_count_col_triangle_edge():
    assert count_col(fixture_graph("triangle"), Graph(2, [(0, 1)])) == 6


def test_count_col_edge_into_loopless_target_is_twice_edges():
    h = fixture_bigraph("case1").as_graph()
    assert count_col(h, Graph(2, [(0, 1)])) == 2 * 27


def test_count_fixcol_empty_instance():
    assert count_fixcol(fixture_bigraph("case1"), EMPTY) == 1
    assert count_fixcol(EMPTY, EMPTY) == 1


def test_count_fixcol_single_edge_counts_edges():
    case1 = fixture_bigraph("case1")
    hex1 = induced_subgraph(case1, {0}, range(9))
    h1 = induced_subgraph(case1, {0, 1, 2}, range(9))
    h2 = induced_subgraph(case1, {0, 7, 8}, range(9))
    assert count_fixcol(hex1, K11) == 9
    assert count_fixcol(case1, K11) == 27
    assert count_fixcol(h1, K11) == 16
    assert count_fixcol(h2, K11) == 15
    case3 = fixture_bigraph("case3")
    assert count_fixcol(case3, K11) == 29


def test_count_fixcol_into_empty_side():
    lonely_r = TwoColouredGraph(0, 1, [])
    assert count_fixcol(lonely_r, TwoColouredGraph(1, 0, [])) == 0
    assert count_fixcol(lonely_r, TwoColouredGraph(0, 1, [])) == 1


def test_count_inj_pigeonhole():
    assert count_inj_fixcol(K11, TwoColouredGraph(2, 0, [])) == 0


def test_count_inj_identity_map():
    assert count_inj_fixcol(K11, K11) == 1


def test_count_inj_k22():
    k22 = TwoColouredGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert count_inj_fixcol(k22, K11) == 4


def test_count_inj_couples_components():
    # two isolated left vertices have 2 injective placements into a 2-left
    # target, not 2*2: injectivity is global
    two_l = TwoColouredGraph(2, 0, [])
    target = TwoColouredGraph(2, 0, [])
    assert count_inj_fixcol(target, two_l) == 2


def test_count_bis_examples():
    assert count_bis(EMPTY) == 1
    assert count_bis(K11) == 3
    assert count_bis(P4) == 8


def test_count_bis_matches_subset_enumeration():
    for name in ("k11", "p3", "p4", "two_k11", "coexistence", "case1"):
        g = fixture_bigraph(name)
        assert count_bis(g) == count_bis_naive(g)


def test_count_bis_is_the_count_into_the_base_case_p4():
    # one P4 object: the classifier's base case is the #BIS target
    assert classifier.P4 is counting.P4 == P4
    for name in ("k11", "p3", "p4", "coexistence", "case1"):
        g = fixture_bigraph(name)
        assert count_bis(g) == count_fixcol(P4, g) == count_fixcol_naive(P4, g)


def test_count_bis_repeated_is_a_fixcol_memo_hit():
    g = fixture_bigraph("case1")
    assert counting._fixcol_memo.cache_info()[:2] == (0, 0)  # (hits, misses), cold
    assert count_bis(g) == 9728
    assert counting._fixcol_memo.cache_info()[:2] == (0, 1)
    assert count_bis(g) == 9728
    assert counting._fixcol_memo.cache_info()[:2] == (1, 1)


def _bis_all_masks(g):
    """Independent sets by testing every edge on every vertex subset; the
    reference for ``count_bis_naive``."""
    plain = g.as_graph()
    total, edges = 0, plain.edges
    for mask in range(1 << plain.n):
        if not any(mask >> u & 1 and mask >> v & 1 for u, v in edges):
            total += 1
    return total


@st.composite
def _lopsided_bigraphs(draw):
    lsize, rsize = draw(st.one_of(
        st.sampled_from([(0, 0), (0, 7), (7, 0), (1, 8), (8, 1), (6, 2), (2, 6)]),
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
    ))
    # sparse edge sets leave isolated vertices on either side
    cells = [(i, j) for i in range(lsize) for j in range(rsize)]
    edges = draw(st.sets(st.sampled_from(cells), max_size=len(cells))) if cells else set()
    return TwoColouredGraph(lsize, rsize, edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_lopsided_bigraphs())
def test_count_bis_naive_matches_all_masks(g):
    assert count_bis_naive(g) == _bis_all_masks(g)


def test_count_bis_naive_charges_the_smaller_side(monkeypatch):
    monkeypatch.setenv("HOMLAB_MAX_WORK", "4")
    # left 0 sees all 30 right vertices, left 1 none: 2^30 + 2^30 + 1 + 1
    star = TwoColouredGraph(2, 30, [(0, j) for j in range(30)])
    assert count_bis_naive(star) == 2**31 + 2
    path = TwoColouredGraph(12, 12, [(i, i) for i in range(12)] + [(i + 1, i) for i in range(11)])
    monkeypatch.setenv("HOMLAB_MAX_WORK", "4095")
    with pytest.raises(WorkBudgetExceeded, match="~4096 "):
        count_bis_naive(path)


def test_count_bis_naive_is_independent_of_elimination(monkeypatch):
    def no_plan(*args, **kwargs):
        raise AssertionError("count_bis_naive used the elimination route")

    monkeypatch.setattr(counting, "count_col", no_plan)
    monkeypatch.setattr(counting, "_eliminate", no_plan)
    assert count_bis_naive(fixture_bigraph("case1")) == 9728
    assert count_bis_naive(P4) == 8


def test_surjection_examples():
    assert surjection_count(3, 2) == 6
    assert surjection_count(2, 3) == 0
    for n in range(1, 8):
        assert surjection_count(n, 1) == 1
    assert surjection_count(0, 0) == 1


def test_surjection_bracket():
    from math import log

    for k in range(1, 7):
        for n in range(1, 61):
            if n < 2 * k * log(k):
                continue
            t = surjection_count(n, k)
            assert t <= k**n
            assert (n - 2 * k) * k**n <= n * t


def test_set_partitions_bell_numbers():
    bells = [1, 1, 2, 5, 15, 52]
    for n, b in enumerate(bells):
        parts = list(set_partitions(n))
        assert len(parts) == b
        for p in parts:
            flat = sorted(v for block in p for v in block)
            assert flat == list(range(n))


def test_set_partitions_refuse_a_negative_size_by_name():
    with pytest.raises(PreconditionError, match="got n=-1"):
        list(set_partitions(-1))


def test_partition_sum_single_edge():
    for h in (P4, fixture_bigraph("coexistence")):
        lhs, rhs = partition_sum_check(h, K11)
        assert lhs == rhs == len(h.edges)


def test_partition_sum_two_isolated_left():
    j = TwoColouredGraph(2, 0, [])
    lhs, rhs = partition_sum_check(K11, j)
    assert lhs == rhs == 1


def test_partition_sum_guard(monkeypatch):
    def no_counts(*args):
        raise AssertionError("counted before the guard")

    monkeypatch.setattr(counting, "count_fixcol", no_counts)
    monkeypatch.setattr(counting, "count_inj_fixcol", no_counts)
    message = f"limited to {PARTITION_SIDE_GUARD} vertices per side"
    for big in (TwoColouredGraph(6, 0, []), TwoColouredGraph(1, 6, [(0, 5)])):
        with pytest.raises(ValueError, match=message):
            partition_sum_check(K11, big)
        with pytest.raises(ValueError, match=message):
            partition_sum_checks([K11, P4], [K11, P4, big])
        with pytest.raises(ValueError, match=message):
            contractions(big)


def test_contractions_accept_a_side_at_the_guard():
    # a side of exactly the guard is counted: Bell(5) * Bell(0) = Bell(1) * Bell(5) = 52
    assert PARTITION_SIDE_GUARD == 5
    star = TwoColouredGraph(1, 5, [(0, j) for j in range(5)])
    for j in (TwoColouredGraph(5, 0, []), star):
        assert sum(contractions(j).values()) == 52
    lhs, rhs = partition_sum_check(P4, star)
    assert lhs == rhs == 1 + 2**5


def _quotient_multiset(j):
    """The quotients of j, one per partition pair, as the old loop made them."""
    out = {}
    for theta_l in set_partitions(j.lsize):
        for theta_r in set_partitions(j.rsize):
            q = quotient(j, theta_l, theta_r)
            out[q] = out.get(q, 0) + 1
    return out


def _partition_sum_per_pair(h, j):
    """The per-pair oracle of ``partition_sum_checks``: one ``quotient()`` and
    one injective count per partition pair, with no batch and no grouping of
    isomorphic quotients."""
    rhs = 0
    for theta_l in set_partitions(j.lsize):
        for theta_r in set_partitions(j.rsize):
            rhs += count_inj_fixcol(h, quotient(j, theta_l, theta_r))
    return count_fixcol(h, j), rhs


def test_contractions_match_partition_loop():
    bells = [1, 1, 2, 5]
    for j in canonical_side_bounded(3):
        got = contractions(j)
        assert sum(got.values()) == bells[j.lsize] * bells[j.rsize]
        assert list(got.items()) == list(_quotient_multiset(j).items())


@st.composite
def bigraphs_to_the_guard(draw):
    """Random bigraphs with sides up to ``PARTITION_SIDE_GUARD``, isolated vertices likely."""
    lsize = draw(st.integers(0, PARTITION_SIDE_GUARD))
    rsize = draw(st.integers(0, PARTITION_SIDE_GUARD))
    cells = [(i, j) for i in range(lsize) for j in range(rsize)]
    edges = draw(st.lists(st.sampled_from(cells), unique=True, max_size=8)) if cells else []
    return TwoColouredGraph(lsize, rsize, edges)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(bigraphs_to_the_guard())
@example(TwoColouredGraph(5, 0, []))
@example(TwoColouredGraph(0, 5, []))
@example(TwoColouredGraph(5, 5, [(0, 4), (2, 4), (4, 0)]))
def test_contractions_match_partition_loop_up_to_the_guard(j):
    got = contractions(j)
    assert list(got.items()) == list(_quotient_multiset(j).items())


def test_partition_sum_counts_one_quotient_per_isomorphism_class(monkeypatch):
    calls = []

    def counted(h, q):
        calls.append(q)
        return count_inj_fixcol(h, q)

    monkeypatch.setattr(counting, "count_inj_fixcol", counted)
    js = canonical_side_bounded(3)
    rows = partition_sum_checks([P4], js)
    assert all(lhs == rhs for lhs, rhs in rows[0])
    # 112 labelled quotients, 92 classes: those of the sides up to 3, each once
    assert len({q for j in js for q in contractions(j)}) == 112
    assert len(calls) == len(js) == 92
    assert sorted(canonical_form(q) for q in calls) == sorted(canonical_form(j) for j in js)


def test_partition_sum_counts_a_quotient_refused_a_canonical_form(monkeypatch):
    # at budget 7 the three-edge matching's canonical form is refused; the counts are not
    j = TwoColouredGraph(3, 3, [(0, 0), (1, 1), (2, 2)])
    monkeypatch.setenv("HOMLAB_MAX_WORK", "7")
    with pytest.raises(WorkBudgetExceeded):
        canonical_form(j)
    assert partition_sum_checks([K11], [j]) == [[_partition_sum_per_pair(K11, j)]] == [[(1, 1)]]


def test_partition_sum_batch_matches_per_pair_loop():
    names = ("case1", "case3", "coexistence", "p3", "p4", "k11", "two_k11")
    hs = [fixture_bigraph(name) for name in names]
    js = canonical_side_bounded(2)
    rows = partition_sum_checks(hs, js)
    assert len(rows) == len(hs)
    for h, row in zip(hs, rows):
        assert row == [_partition_sum_per_pair(h, j) for j in js]
    assert partition_sum_checks([], js) == []
    assert partition_sum_checks(hs, []) == [[] for _ in hs]


def test_partition_sum_exhaustive_small():
    # every target with sides up to 4 against every instance with sides up
    # to 3, one representative per class
    hs = canonical_side_bounded(4)
    assert len(hs) == 639
    js = canonical_side_bounded(3)
    rows = partition_sum_checks(hs, js)
    assert len(rows) == len(hs)
    for h, row in zip(hs, rows):
        assert len(row) == len(js)
        for j, (lhs, rhs) in zip(js, row):
            assert lhs == rhs, (h, j)


def test_fixcol_multiplicative_over_instance_union():
    h = fixture_bigraph("coexistence")
    p3 = fixture_bigraph("p3")
    assert count_fixcol(h, disjoint_union([K11, p3])) == count_fixcol(
        h, K11
    ) * count_fixcol(h, p3)


def test_fixcol_multiplicative_over_target_tensor():
    p3 = fixture_bigraph("p3")
    for g in canonical_side_bounded(2):
        assert count_fixcol(tensor(p3, P4), g) == count_fixcol(p3, g) * count_fixcol(
            P4, g
        )


def test_backend_equivalence_exhaustive():
    # optimized counters against the naive full enumeration, every pair of
    # classes with at most 3 vertices per side
    pool = canonical_side_bounded(3)
    small = [g for g in pool if g.total <= 4]
    for h in small:
        for g in small:
            assert count_fixcol(h, g) == count_fixcol_naive(h, g)


def test_backend_equivalence_fixtures():
    graphs = [fixture_graph(n) for n in ("h_is", "triangle", "p3_plain", "toy")]
    for h in graphs:
        for g in graphs:
            assert count_col(h, g) == count_col_naive(h, g)
