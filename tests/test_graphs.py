import itertools
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import graphs
from homlab.counting import count_col, count_fixcol
from homlab.fixtures import fixture_bigraph, fixture_graph
from homlab.graphs import (
    Graph,
    ParseError,
    TwoColouredGraph,
    WorkBudgetExceeded,
    bip_double_cover,
    canonical_form,
    canonical_side_bounded,
    canonical_two_coloured,
    colour_classes,
    colour_iso,
    disjoint_union,
    induced_subgraph,
    iso_colour_preserving,
    parse_bigraph,
    parse_graph,
    quotient,
    tensor,
    _labelled_bigraphs,
    _shape_classes,
)
from homlab.structure import PreconditionError

K11 = TwoColouredGraph(1, 1, [(0, 0)])
P4 = TwoColouredGraph(2, 2, [(0, 0), (1, 0), (1, 1)])


def test_parse_graph_basic():
    g = parse_graph("graph 2\n0 0\n0 1\n")
    assert g.n == 2
    assert g.edges == frozenset({(0, 0), (0, 1)})


def test_parse_graph_empty_edges():
    g = parse_graph("graph 1\n")
    assert g.n == 1 and not g.edges


def test_parse_graph_duplicate_edge():
    with pytest.raises(ParseError, match="duplicate edge, line 3"):
        parse_graph("graph 3\n0 1\n0 1\n")


def test_parse_graph_bad_index():
    with pytest.raises(ParseError, match="out of range, line 2"):
        parse_graph("graph 2\n0 2\n")
    # the first endpoint is checked by the parser too, not left to the constructor
    with pytest.raises(ParseError, match="out of range, line 2"):
        parse_graph("graph 2\n2 0\n")


def test_parse_graph_comments_and_blank_lines():
    g = parse_graph("# a comment\ngraph 3\n\n0 1\n# another\n1 2\n")
    assert g.edges == frozenset({(0, 1), (1, 2)})


def test_parse_bigraph_basic():
    g = parse_bigraph("bigraph 1 1\n0 0\n")
    assert (g.lsize, g.rsize) == (1, 1)
    assert g.edges == frozenset({(0, 0)})


def test_parse_bigraph_isolated_left():
    g = parse_bigraph("bigraph 2 0\n")
    assert (g.lsize, g.rsize) == (2, 0)


def test_parse_bigraph_r_out_of_range():
    with pytest.raises(ParseError, match="R index out of range, line 2"):
        parse_bigraph("bigraph 1 1\n0 1\n")


def test_parse_bigraph_side_internal_edge_is_unrepresentable():
    # the format has no way to write a side-internal edge: both columns are
    # interpreted against their own side, so range checks are the guard
    with pytest.raises(ParseError):
        parse_bigraph("bigraph 1 1\n1 0\n")


def test_parse_bytes_that_are_not_utf8():
    with pytest.raises(ParseError, match="invalid UTF-8, line 3"):
        parse_bigraph(b"bigraph 1 1\n0 0\n# \xff\n")
    with pytest.raises(ParseError, match="invalid UTF-8, line 2"):
        parse_graph(b"graph 2\n\xff")
    with pytest.raises(ParseError, match="invalid UTF-8, line 1"):
        parse_bigraph(b"\xff")
    assert parse_bigraph("bigraph 1 1\n# é\n0 0\n".encode()) == K11


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from([b"", b"graph 3\n", b"bigraph 2 2\n"]),
    st.binary(max_size=12),
)
def test_parse_random_bytes_only_raises_parse_error(header, tail):
    # a prefix of at most a 3-vertex header keeps every parsed graph tiny
    for parse in (parse_graph, parse_bigraph):
        try:
            g = parse(header + tail)
        except ParseError:
            continue
        assert isinstance(g, (Graph, TwoColouredGraph))


def test_round_trip_text():
    for name in ("case1", "coexistence", "p4"):
        g = fixture_bigraph(name)
        assert parse_bigraph(g.to_text()) == g
    for name in ("toy", "h_is"):
        g = fixture_graph(name)
        assert parse_graph(g.to_text()) == g


def test_bip_double_cover_loop_gives_single_edge():
    g = bip_double_cover(Graph(1, [(0, 0)]))
    assert (g.lsize, g.rsize) == (1, 1)
    assert g.edges == frozenset({(0, 0)})


def test_bip_double_cover_nonloop_gives_two_edges():
    g = bip_double_cover(Graph(2, [(0, 1)]))
    assert g.edges == frozenset({(0, 1), (1, 0)})


def test_bip_double_cover_mixed_edge_count():
    # loops contribute one cover edge each, the plain edge two
    g = bip_double_cover(Graph(2, [(0, 0), (0, 1), (1, 1)]))
    assert len(g.edges) == 4
    assert g.edges == frozenset({(0, 0), (1, 1), (0, 1), (1, 0)})


def test_bip_double_cover_of_is_target_is_path():
    cover = bip_double_cover(fixture_graph("h_is"))
    assert iso_colour_preserving(cover, P4)


def test_tensor_identity_element():
    assert tensor(K11, K11) == K11


def test_tensor_count_factorizes():
    from homlab.graphs import canonical_side_bounded

    p3 = fixture_bigraph("p3")
    for g in canonical_side_bounded(3):
        assert count_fixcol(tensor(p3, P4), g) == count_fixcol(p3, g) * count_fixcol(
            P4, g
        )


def test_quotient_singletons_is_identity():
    g = fixture_bigraph("p4")
    q = quotient(g, [[0], [1]], [[0], [1]])
    assert q == g


def test_quotient_merge_left_of_k22():
    k22 = TwoColouredGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    q = quotient(k22, [[0, 1]], [[0], [1]])
    assert (q.lsize, q.rsize) == (1, 2)
    assert q.edges == frozenset({(0, 0), (0, 1)})


def test_quotient_p4_contract_left():
    q = quotient(P4, [[0, 1]], [[0], [1]])
    # contracting both left vertices of the path leaves a 2-star
    assert (q.lsize, q.rsize) == (1, 2)
    assert q.edges == frozenset({(0, 0), (0, 1)})


def test_quotient_rejects_bad_partition():
    with pytest.raises(ValueError):
        quotient(P4, [[0]], [[0], [1]])
    with pytest.raises(ValueError):
        quotient(P4, [[0, 0], [1]], [[0], [1]])
    # two indexes, as many as the side has, but one of them past it
    with pytest.raises(ValueError, match="L partition uses out-of-range index 2"):
        quotient(P4, [[0, 2]], [[0], [1]])


def test_iso_examples():
    assert iso_colour_preserving(K11, K11)
    flipped = TwoColouredGraph(2, 1, [(0, 0), (1, 0)])
    star = TwoColouredGraph(1, 2, [(0, 0), (0, 1)])
    assert not iso_colour_preserving(flipped, star)  # sides matter


def test_iso_coexistence_inner_blocks():
    # the two tied inner bicliques of the coexistence fixture induce
    # colour-isomorphic subgraphs
    from homlab.graphs import induced_subgraph

    h = fixture_bigraph("coexistence")
    h1 = induced_subgraph(h, {0, 1}, range(4))
    h2 = induced_subgraph(h, {0, 2}, range(4))
    assert iso_colour_preserving(h1, h2)


def test_iso_witness_is_a_real_mapping():
    g1 = TwoColouredGraph(2, 2, [(0, 0), (1, 1)])
    g2 = TwoColouredGraph(2, 2, [(0, 1), (1, 0)])
    w = colour_iso(g1, g2)
    assert w is not None
    sigma_l, sigma_r = w
    edges2 = g2.edges
    for i, j in g1.edges:
        assert (sigma_l[i], sigma_r[j]) in edges2


def _brute_iso(g1, g2):
    if (g1.lsize, g1.rsize) != (g2.lsize, g2.rsize):
        return False
    edges1, edges2 = g1.edges, g2.edges
    if len(edges1) != len(edges2):
        return False
    for pl in itertools.permutations(range(g1.lsize)):
        for pr in itertools.permutations(range(g1.rsize)):
            if all((pl[i], pr[j]) in edges2 for i, j in edges1):
                return True
    return False


def test_canonical_form_matches_brute_force_iso():
    shapes = [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (1, 3)]
    for l, r in shapes:
        gs = list(_labelled_bigraphs(l, r))
        for a in range(len(gs)):
            for b in range(a, len(gs)):
                assert (canonical_form(gs[a]) == canonical_form(gs[b])) == _brute_iso(
                    gs[a], gs[b]
                )


def test_canonical_form_distinct_shapes():
    assert canonical_form(TwoColouredGraph(1, 1, [])) != canonical_form(
        TwoColouredGraph(1, 1, [(0, 0)])
    )
    # exactly two classes on the 1+1 shape
    keys = {canonical_form(g) for g in _labelled_bigraphs(1, 1)}
    assert len(keys) == 2


# Classes of l x r 0/1 matrices under row and column permutations, OEIS A028657
A028657 = [
    [1, 1, 1, 1, 1],
    [1, 2, 3, 4, 5],
    [1, 3, 7, 13, 22],
    [1, 4, 13, 36, 87],
    [1, 5, 22, 87, 317],
]


@pytest.fixture(scope="module")
def scanned_classes():
    """The full labelled scan that class enumeration replaced, for sides up to 4.

    Per shape, every labelled graph in mask order, the first member of each
    class kept, classes sorted by canonical form; the second list drops the
    labelled graphs with an isolated R vertex before the scan.
    """
    shapes = {}
    for lsize, rsize in itertools.product(range(5), repeat=2):
        reps, kept = {}, {}
        for g in _labelled_bigraphs(lsize, rsize):
            key = canonical_form(g)
            reps.setdefault(key, g)
            if not g.isolated_right():
                kept.setdefault(key, g)
        shapes[lsize, rsize] = (
            [reps[key] for key in sorted(reps)],
            [kept[key] for key in sorted(kept)],
        )
    return shapes


def _by_shape_order(shapes, skip):
    order = sorted(shapes, key=lambda shape: (sum(shape), shape[0]))
    return [g for shape in order for g in shapes[shape][skip]]


def test_class_enumeration_matches_full_scan(scanned_classes):
    for skip in (False, True):
        got = canonical_side_bounded(4)
        if skip:
            got = [g for g in got if not g.isolated_right()]
        assert got == _by_shape_order(scanned_classes, skip)
    for (lsize, rsize), (full, _) in scanned_classes.items():
        assert list(_shape_classes(lsize, rsize)) == full, (lsize, rsize)


def test_canonical_enumeration_counts():
    # cross-checked against a transfer-matrix count of part-labelled classes
    assert len(canonical_two_coloured(4)) == 32
    assert len(canonical_side_bounded(3)) == 92
    assert len([g for g in canonical_side_bounded(3) if not g.isolated_right()]) == 54
    assert len(canonical_side_bounded(4)) == 639
    for lsize, row in enumerate(A028657):
        for rsize, count in enumerate(row):
            assert len(_shape_classes(lsize, rsize)) == count, (lsize, rsize)
    assert len(_shape_classes(4, 5)) == len(_shape_classes(5, 4)) == 1053


def test_class_list_survives_caller_mutation():
    first = canonical_side_bounded(3)
    expected = list(first)
    first.reverse()
    first.append(K11)
    del first[:10]
    assert canonical_side_bounded(3) == expected
    listed = canonical_two_coloured(4)
    expected = list(listed)
    listed.clear()
    assert canonical_two_coloured(4) == expected


def test_class_list_not_cached_when_budget_refuses(monkeypatch, scanned_classes):
    graphs._shape_half.cache_clear()
    seen = []
    real = graphs.canonical_form
    monkeypatch.setattr(graphs, "canonical_form", lambda g: seen.append(g) or real(g))
    monkeypatch.setenv("HOMLAB_MAX_WORK", "6")
    with pytest.raises(WorkBudgetExceeded):
        _shape_classes(3, 3)
    assert len(seen) > 1  # the refusal came part-way through the shape
    monkeypatch.delenv("HOMLAB_MAX_WORK")
    assert list(_shape_classes(3, 3)) == scanned_classes[3, 3][0]


def test_class_enumeration_guard():
    with pytest.raises(ValueError, match=r"refusing to enumerate 2\^30 labelled graphs for split \(5,6\)"):
        _shape_classes(5, 6)


@pytest.mark.parametrize("lset, rset, message", [
    ({99}, {0}, "left index 99 is outside the left side 0..1"),
    ({-1, 0}, {0, 1}, "left index -1 is outside the left side 0..1"),
    ({0}, {0, 2, 7}, "right index 2 is outside the right side 0..1"),
    ({0, 1}, {-3, -1, 1}, "right index -3 is outside the right side 0..1"),
    ({0, 2}, {0}, "left index 2 is outside the left side 0..1"),
])
def test_induced_subgraph_refuses_indexes_outside_their_side(lset, rset, message):
    # an index outside its side used to become an invented isolated vertex
    with pytest.raises(PreconditionError) as exc:
        induced_subgraph(P4, lset, rset)
    assert str(exc.value) == message


def test_induced_subgraph_in_range_unchanged():
    assert induced_subgraph(P4, {0, 1}, [1, 0, 1]) == P4
    assert induced_subgraph(P4, {1}, {0, 1}) == TwoColouredGraph(1, 2, [(0, 0), (0, 1)])
    assert induced_subgraph(P4, [], {1}) == TwoColouredGraph(0, 1, [])
    assert induced_subgraph(TwoColouredGraph(0, 0, []), (), ()) == TwoColouredGraph(0, 0, [])


def test_disjoint_union_empty():
    g = disjoint_union([])
    assert (g.lsize, g.rsize) == (0, 0)


def test_disjoint_union_multiplicative():
    two = disjoint_union([K11, K11])
    for h in (fixture_bigraph("coexistence"), P4):
        assert count_fixcol(h, two) == count_fixcol(h, K11) ** 2
    three = disjoint_union([K11, P4, fixture_bigraph("p3")])
    for h in (fixture_bigraph("coexistence"),):
        assert (
            count_fixcol(h, three)
            == count_fixcol(h, K11)
            * count_fixcol(h, P4)
            * count_fixcol(h, fixture_bigraph("p3"))
        )


def test_disjoint_union_sizes():
    g = disjoint_union([P4, K11, P4])
    assert (g.lsize, g.rsize) == (5, 5)
    assert len(g.edges) == 7


def test_two_colourings_and_plain_count_correspondence():
    # homomorphisms into any target from a bipartite instance are counted
    # exactly by the colour-preserving count into the double cover, under
    # the instance's 2-colouring and under the side-swapped one
    targets = [fixture_graph("h_is"), fixture_graph("triangle"), fixture_graph("toy")]
    instances = [
        K11,
        parse_bigraph("bigraph 1 2\n0 0\n0 1\n"),
        P4,
        parse_bigraph("bigraph 1 4\n0 0\n0 1\n0 2\n0 3\n"),
        parse_bigraph("bigraph 3 3\n0 0\n1 0\n1 1\n2 1\n2 2\n"),
        disjoint_union([P4, K11]),
    ]
    for h in targets:
        cover = bip_double_cover(h)
        for tc in instances:
            swapped = TwoColouredGraph(tc.rsize, tc.lsize, [(j, i) for i, j in tc.edges])
            want = count_col(h, tc.as_graph())
            assert count_fixcol(cover, tc) == want
            assert count_fixcol(cover, swapped) == want


def test_colour_classes_match_pairwise_isomorphism():
    # one to three relabelled copies of each class with at most 4 vertices,
    # shuffled; the oracle opens a class at its first member and appends each
    # later graph to the first class whose first member it is isomorphic to
    rng = random.Random(20261018)
    gs = []
    for g in canonical_two_coloured(4):
        for _ in range(rng.randint(1, 3)):
            pl = rng.sample(range(g.lsize), g.lsize)
            pr = rng.sample(range(g.rsize), g.rsize)
            gs.append(TwoColouredGraph(g.lsize, g.rsize, [(pl[i], pr[j]) for i, j in g.edges]))
    rng.shuffle(gs)
    expected = []
    for i, g in enumerate(gs):
        for members in expected:
            if iso_colour_preserving(gs[members[0]], g):
                members.append(i)
                break
        else:
            expected.append([i])
    assert len(expected) == 32
    assert colour_classes(gs) == expected
    assert colour_classes([]) == []


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


@st.composite
def plain_graphs(draw):
    n = draw(st.integers(0, 6))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def bigraphs(draw):
    lsize = draw(st.integers(0, 5))
    rsize = draw(st.integers(0, 5))
    cells = list(itertools.product(range(lsize), range(rsize)))
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return TwoColouredGraph(lsize, rsize, edges)


@PROPERTY
@given(plain_graphs())
def test_graph_text_round_trip(g):
    # loops, isolated vertices and the 0-vertex graph included
    text = g.to_text()
    assert parse_graph(text) == g
    assert parse_graph(text).to_text() == text


@PROPERTY
@given(bigraphs())
def test_bigraph_text_round_trip(g):
    # empty sides and the 0+0 graph included
    text = g.to_text()
    assert parse_bigraph(text) == g
    assert parse_bigraph(text).to_text() == text


# ---------------------------------------------------------------------------
# The row constructor
# ---------------------------------------------------------------------------

@st.composite
def edge_lists(draw):
    """Side sizes and an edge list over them, repeats included."""
    lsize = draw(st.integers(0, 5))
    rsize = draw(st.integers(0, 5))
    cells = list(itertools.product(range(lsize), range(rsize)))
    return lsize, rsize, draw(st.lists(st.sampled_from(cells))) if cells else []


@PROPERTY
@given(edge_lists())
def test_row_constructor_matches_edge_constructor(case):
    lsize, rsize, edges = case
    rows = [sum({1 << j for i2, j in edges if i2 == i}) for i in range(lsize)]
    cols = [sum({1 << i for i, j2 in edges if j2 == j}) for j in range(rsize)]
    by_rows = TwoColouredGraph.from_rows(lsize, rsize, rows)
    by_edges = TwoColouredGraph(lsize, rsize, edges)
    assert by_rows == by_edges
    assert hash(by_rows) == hash(by_edges)
    assert by_rows.edges == by_edges.edges == frozenset(edges)
    assert by_rows.left_adj == by_edges.left_adj == tuple(rows)
    assert by_rows.right_adj == by_edges.right_adj == tuple(cols)
    assert by_rows.to_text() == by_edges.to_text()
    assert repr(by_rows) == repr(by_edges)


def test_graphs_differ_by_side_sizes_alone():
    # the rows of an edgeless graph do not carry its right side's size
    assert TwoColouredGraph(2, 1, []) != TwoColouredGraph(2, 2, [])
    assert TwoColouredGraph(1, 2, []) != TwoColouredGraph(2, 2, [])
    assert Graph(2, []) != Graph(3, [])
    assert TwoColouredGraph(2, 2, [(0, 1)]) != TwoColouredGraph(2, 2, [(1, 0)])


@pytest.mark.parametrize("lsize, rsize, rows, message", [
    (1, 2, [4], "row 0 "),  # a bit at R index 2
    (2, 2, [1, -1], "row 1 "),
    (2, 0, [0, 1], "row 1 "),
    (3, 2, [0, 2, 4], "row 2 "),
    (2, 3, [1], "1 rows for 2 "),
    (1, 3, [1, 1], "2 rows for 1 "),
    (-1, 0, [], "non-negative"),
    (0, -1, [], "non-negative"),
])
def test_row_constructor_refuses_out_of_range(lsize, rsize, rows, message):
    with pytest.raises(ValueError, match=message):
        TwoColouredGraph.from_rows(lsize, rsize, rows)


@pytest.mark.parametrize("lsize, rsize, rows", [
    (1, 2, [3]), (2, 1, [0, 1]), (2, 0, [0, 0]), (0, 3, []), (3, 3, [7, 0, 7]),
])
def test_row_constructor_admits_every_in_range_row(lsize, rsize, rows):
    g = TwoColouredGraph.from_rows(lsize, rsize, rows)
    assert g.left_adj == tuple(rows)
    assert (g.lsize, g.rsize) == (lsize, rsize)


def test_row_constructor_refuses_under_optimize():
    # -O strips bare asserts: the range check must not be one
    src = os.path.dirname(os.path.dirname(graphs.__file__))
    script = (
        "from homlab.graphs import TwoColouredGraph\n"
        "for rows in ([4], [-1]):\n"
        "    try:\n"
        "        TwoColouredGraph.from_rows(1, 2, rows)\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refused\nrefused\n"


def test_has_edge_outside_the_vertex_range_is_false():
    g = Graph(2, [(0, 1), (1, 1)])
    assert g.has_edge(0, 1) and g.has_edge(1, 0) and g.has_edge(1, 1) and not g.has_edge(0, 0)
    assert not any(g.has_edge(u, v) for u, v in [(0, 2), (2, 0), (-1, 1), (1, -1)])


def test_constructions_write_rows():
    # each construction's rows, columns and edges agree, on graphs with
    # empty rows and columns
    g = TwoColouredGraph(3, 4, [(0, 1), (0, 3), (2, 0), (2, 3)])
    h = TwoColouredGraph(2, 2, [(0, 0), (1, 0), (1, 1)])
    built = [
        tensor(g, h), tensor(h, g), disjoint_union([g, h, g]),
        quotient(g, [[0, 2], [1]], [[0], [1, 3], [2]]),
        induced_subgraph(g, [0, 2], [0, 3]), induced_subgraph(g, [2], [1, 2, 3]),
        bip_double_cover(Graph(3, [(0, 1), (1, 1), (1, 2)])),
    ]
    for b in built:
        assert b == TwoColouredGraph(b.lsize, b.rsize, b.edges)
        assert b.right_adj == TwoColouredGraph(b.lsize, b.rsize, b.edges).right_adj
    assert tensor(g, h).edges == {
        (a * 2 + b, c * 2 + d) for a, c in g.edges for b, d in h.edges
    }
    assert quotient(g, [[0, 2], [1]], [[0], [1, 3], [2]]).edges == {(0, 0), (0, 1)}
    assert induced_subgraph(g, [0, 2], [0, 3]).edges == {(0, 1), (1, 0), (1, 1)}
    assert bip_double_cover(Graph(3, [(0, 1), (1, 1), (1, 2)])).edges == {
        (0, 1), (1, 0), (1, 1), (1, 2), (2, 1)
    }


def test_check_estimate_admits_the_budget_itself(monkeypatch):
    monkeypatch.setenv("HOMLAB_MAX_WORK", "10")
    graphs.check_estimate(10, "a job", "units")
    with pytest.raises(WorkBudgetExceeded, match=r"^a job needs ~11 units, budget is 10 "):
        graphs.check_estimate(11, "a job", "units")


def test_estimates_past_30_digits_print_as_powers_of_ten():
    def printed(estimate):
        return str(graphs.over_estimate(estimate, "a job", "units", 10))

    assert printed(11) == "a job needs ~11 units, budget is 10 (override with HOMLAB_MAX_WORK)"
    assert printed(10**30 - 1).startswith("a job needs ~" + "9" * 30 + " units, ")
    assert printed(10**30).startswith("a job needs ~10^30 units, ")
    assert printed(3 * 10**5000).startswith("a job needs ~10^5000 units, ")  # past str()'s limit


def test_row_constructor_transposes_zero_and_repeated_rows():
    rows = [0, 5, 0, 5, 2] * 7  # groups spanning several bytes of a member mask
    g = TwoColouredGraph.from_rows(35, 3, rows)
    assert g.right_adj == tuple(
        sum(1 << i for i, row in enumerate(rows) if row >> j & 1) for j in range(3)
    )


def test_row_constructor_is_linear_in_zero_and_repeated_rows():
    # one OR per row into a growing member mask made both quadratic: 7.9 s and
    # 1.1 s on a 2-core Xeon VM
    def seconds(build):
        start = time.perf_counter()
        g = build()
        return time.perf_counter() - start, g

    took, g = seconds(lambda: TwoColouredGraph(10**6, 1, []))
    assert took < 1.0 and g.right_adj == (0,)
    took, g = seconds(lambda: TwoColouredGraph.from_rows(4 * 10**5, 1, [1] * (4 * 10**5)))
    assert took < 0.5 and g.right_adj == ((1 << 4 * 10**5) - 1,)


@pytest.mark.parametrize("make, message", [
    (lambda: Graph(2, [(2, 0)]), r"edge \(2,0\) out of range for n=2"),
    (lambda: Graph(2, [(0, 2)]), r"edge \(0,2\) out of range for n=2"),
    (lambda: Graph(2, [(-1, 0)]), r"edge \(-1,0\) out of range"),
    (lambda: TwoColouredGraph(2, 2, [(2, 0)]), "L index 2 out of range"),
    (lambda: TwoColouredGraph(2, 2, [(0, 2)]), "R index 2 out of range"),
    (lambda: TwoColouredGraph(2, 2, [(-1, 0)]), "L index -1 out of range"),
    (lambda: TwoColouredGraph(2, 2, [(0, -1)]), "R index -1 out of range"),
])
def test_edge_constructors_refuse_an_index_past_the_side(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_colour_classes_forms_only_shared_shapes(monkeypatch):
    # K11 and P4 share no (sides, edge count) shape: neither needs a canonical search
    def no_form(g):
        raise AssertionError("a canonical search was started")

    monkeypatch.setattr(graphs, "canonical_form", no_form)
    monkeypatch.setattr(graphs, "_canonical_rows", no_form)
    assert colour_classes([K11, P4, TwoColouredGraph(1, 1, [])]) == [[0], [1], [2]]


def test_enumeration_guard_admits_25_cells():
    graphs._check_enum_split(5, 5)
    with pytest.raises(PreconditionError, match=r"2\^26 labelled graphs for split \(2,13\)"):
        graphs._check_enum_split(2, 13)
