import os
import random
import subprocess
import sys

import pytest

import homlab
from homlab import structure
from homlab.cli import EXIT_PRECONDITION
from homlab.fixtures import FIXTURES, fixture_bigraph, fixture_graph
from homlab.graphs import (
    Graph,
    TwoColouredGraph,
    canonical_side_bounded,
    canonical_two_coloured,
    induced_subgraph,
    iter_bits,
)
from homlab.structure import (
    InvariantViolation,
    PreconditionError,
    degree_machinery,
    derived_subgraph,
    fullness,
    h_uv,
    has_trivial_component,
    is_maximal_biclique,
    make_biclique,
    two_coloured_is_trivial,
)
from homlab.bicliques import all_bicliques, extremal_pair, maximal_bicliques

K11 = TwoColouredGraph(1, 1, [(0, 0)])
P4 = TwoColouredGraph(2, 2, [(0, 0), (1, 0), (1, 1)])


def _component_graphs(h):
    """Each component of h, by its least vertex, as a standalone plain graph."""
    out = []
    for comp in h.components():
        index = {v: k for k, v in enumerate(comp)}
        out.append(Graph(len(comp), [(index[u], index[v]) for u, v in h.edges if u in index]))
    return out


def test_looped_clique_is_trivial():
    assert has_trivial_component(Graph(3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]))


def test_complete_bipartite_is_trivial():
    assert has_trivial_component(Graph(5, [(i, j) for i in range(2) for j in range(2, 5)]))


def test_is_target_is_not_trivial():
    assert not has_trivial_component(fixture_graph("h_is"))


def test_isolated_vertex_is_trivial_component():
    g = Graph(3, [(0, 0), (0, 1)])
    assert [has_trivial_component(c) for c in _component_graphs(g)] == [False, True]
    assert has_trivial_component(g)


def test_single_looped_vertex_trivial():
    assert has_trivial_component(Graph(1, [(0, 0)]))


def test_path3_is_a_complete_bipartite_star():
    assert has_trivial_component(fixture_graph("p3_plain"))


def test_path4_not_trivial():
    assert not has_trivial_component(Graph(4, [(0, 1), (1, 2), (2, 3)]))


def test_fullness_k22():
    k22 = TwoColouredGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    prof = fullness(k22)
    assert prof.f_l == frozenset({0, 1}) and prof.f_r == frozenset({0, 1})
    assert prof.is_full and prof.is_trivial


def test_fullness_p4():
    prof = fullness(P4)
    assert prof.f_l == frozenset({1}) and prof.f_r == frozenset({0})
    assert prof.is_full and not prof.is_trivial


def test_fullness_case1():
    prof = fullness(fixture_bigraph("case1"))
    assert prof.f_l == frozenset({0}) and prof.f_r == frozenset({0})


def test_two_coloured_triviality_per_component():
    g = TwoColouredGraph(2, 2, [(0, 0), (1, 1)])  # two disjoint edges
    assert two_coloured_is_trivial(g)
    assert not two_coloured_is_trivial(P4)


def _trivial_by_components(h):
    """The definition: each component's left rows are all its whole right mask."""
    for cl, cr in h.components():
        rmask = sum(1 << j for j in cr)
        if any(h.left_adj[i] != rmask for i in cl):
            return False
    return True


def test_two_coloured_triviality_matches_the_components_definition():
    rng = random.Random(7)
    graphs = list(canonical_two_coloured(7))
    for _ in range(2000):
        lsize, rsize, p = rng.randint(0, 6), rng.randint(0, 6), rng.random()
        cells = [(i, j) for i in range(lsize) for j in range(rsize) if rng.random() < p]
        graphs.append(TwoColouredGraph(lsize, rsize, cells))
    verdicts = [two_coloured_is_trivial(h) for h in graphs]
    assert verdicts == [_trivial_by_components(h) for h in graphs]
    assert 0 < sum(verdicts) < len(verdicts)


def test_triviality_of_a_three_million_vertex_side_is_decided_at_once(tmp_path):
    # the components walk over 3M-bit masks ran for minutes; the disjoint-rows test is linear
    path = tmp_path / "wide.bigraph"
    path.write_text("bigraph 3000000 1\n")
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", "analyze", "--target", str(path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=30,
    )
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stderr.startswith("error: target is not full")


def test_make_biclique_validates():
    with pytest.raises(PreconditionError):
        make_biclique(P4, set(), {0})
    with pytest.raises(PreconditionError, match=r"^\(0,1\) is not an edge, not a biclique$"):
        make_biclique(P4, {0}, {1})
    b = make_biclique(P4, {1}, {0, 1})
    assert (b.s_l, b.s_r) == (0b10, 0b11)
    assert b.key() == ((1,), (0, 1)) and repr(b) == "Biclique([1], [0, 1])"
    # the message names the least missing pair, left index first
    case1 = fixture_bigraph("case1")
    with pytest.raises(PreconditionError, match=r"^\(1,8\) is not an edge, not a biclique$"):
        make_biclique(case1, {1, 0}, {2, 0, 8})
    with pytest.raises(PreconditionError, match=r"^\(3,3\) is not an edge"):
        make_biclique(case1, [4, 3], [8, 3, 0])


@pytest.mark.parametrize(
    "s_l, s_r, message",
    [
        ({-1}, {0}, "left index -1 is outside the left side 0..1"),
        ({5}, {0}, "left index 5 is outside the left side 0..1"),
        ({0}, {9}, "right index 9 is outside the right side 0..1"),
        ({0, 1}, {-2, 4, -1}, "right index -2 is outside the right side 0..1"),
    ],
)
def test_make_biclique_refuses_indexes_outside_their_side(s_l, s_r, message):
    with pytest.raises(PreconditionError) as exc:
        make_biclique(P4, s_l, s_r)
    assert str(exc.value) == message


def test_derived_subgraph_extremal_shapes():
    h = fixture_bigraph("case1")
    ex1, ex2 = extremal_pair(h)
    d1 = derived_subgraph(h, ex1)
    assert len(d1.edges) == d1.lsize * d1.rsize  # complete bipartite
    d2 = derived_subgraph(h, ex2)
    assert d2 == h


def test_derived_subgraph_case1_inner():
    h = fixture_bigraph("case1")
    b = make_biclique(h, {0, 1, 2}, {0, 1, 2})
    sub = derived_subgraph(h, b)
    assert (sub.lsize, sub.rsize) == (3, 9)
    assert len(sub.edges) == 16


def test_derived_subgraph_without_full_left_vertex():
    # right vertex 1 is isolated, so the maximal phase reaches only right vertex 0
    h = TwoColouredGraph(1, 2, [(0, 0)])
    b = make_biclique(h, {0}, {0})
    assert is_maximal_biclique(h, b)
    assert derived_subgraph(h, b) == K11


def test_derived_subgraph_check_raises_on_full_target(monkeypatch):
    h = fixture_bigraph("case1")
    b = make_biclique(h, {0, 1, 2}, {0, 1, 2})
    assert is_maximal_biclique(h, b)
    real, calls = structure._joint, []

    def drop_full_left_vertex_once(rows, mask, full):
        # the first call is the derived left part; losing the full left
        # vertex 0 there leaves the right part short of R
        calls.append(mask)
        joint = real(rows, mask, full)
        return joint & ~1 if len(calls) == 1 else joint

    monkeypatch.setattr(structure, "_joint", drop_full_left_vertex_once)
    with pytest.raises(InvariantViolation) as exc:
        derived_subgraph(h, b)
    assert exc.value.check_name == "derived-subgraph"
    assert exc.value.detail.startswith("maximal phase Biclique([0, 1, 2], [0, 1, 2]) reaches")


def test_derived_subgraph_nonmaximal_uses_general_form():
    h = fixture_bigraph("case1")
    b = make_biclique(h, {1}, {0})  # inside the bigger biclique
    sub = derived_subgraph(h, b)
    # closure of {0} on the right is the whole left side of the biclique hull
    assert sub.lsize == h.right_adj[0].bit_count()


def _pair_degrees(h, lam):
    """The (deg(u), deg(v)) values over the pairs; one value is (delta1, delta2)."""
    return {(h.degree(u), h.degree(v)) for u, v in lam}


def test_degree_machinery_is_target():
    h = fixture_graph("h_is")
    lam = degree_machinery(h)
    assert _pair_degrees(h, lam) == {(2, 2)}
    assert lam == ((0, 0),)


def test_degree_machinery_triangle():
    h = fixture_graph("triangle")
    lam = degree_machinery(h)
    assert _pair_degrees(h, lam) == {(2, 2)}
    assert len(lam) == 6  # all ordered pairs on the three edges


def test_degree_machinery_toy():
    h = fixture_graph("toy")
    lam = degree_machinery(h)
    assert _pair_degrees(h, lam) == {(4, 4)}
    assert len(lam) == 20  # 8 rim-orderings x2 and 4 loops and 8 spokes


def test_degree_machinery_second_level_below_the_top():
    # a spider: the centre 0 has degree 3, and of its neighbours only 1,
    # which continues to 4, has degree 2
    h = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 4)])
    lam = degree_machinery(h)
    assert _pair_degrees(h, lam) == {(3, 2)}
    assert lam == ((0, 1),)


def test_degree_machinery_refuses_trivial():
    with pytest.raises(PreconditionError):
        degree_machinery(Graph(1, [(0, 0)]))


def test_h_uv_single_edge():
    g = h_uv(Graph(2, [(0, 1)]), 0, 1)
    assert (g.lsize, g.rsize) == (1, 1)
    assert g.edges == frozenset({(0, 0)})


def test_h_uv_requires_edge():
    with pytest.raises(PreconditionError):
        h_uv(fixture_graph("h_is"), 1, 1)


def test_h_uv_of_is_target_loop_pair():
    g = h_uv(fixture_graph("h_is"), 0, 0)
    # the cover is the 4-path and both neighbourhoods span everything
    assert (g.lsize, g.rsize) == (2, 2)
    assert len(g.edges) == 3


def test_h_uv_full_nontrivial_on_lambda():
    for name in ("h_is", "triangle", "toy"):
        h = fixture_graph(name)
        for u, v in degree_machinery(h):
            sub = h_uv(h, u, v)
            sprof = fullness(sub)
            assert sprof.is_full and not two_coloured_is_trivial(sub)


def test_descent_property_enumerated():
    # for every full non-trivial target with small sides, every maximal
    # non-extremal biclique yields a full, non-trivial, strictly smaller
    # derived subgraph
    for h in canonical_side_bounded(3):
        prof = fullness(h)
        if not prof.is_full or prof.is_trivial:
            continue
        ex1, ex2 = extremal_pair(h)
        for b in maximal_bicliques(h):
            if b in (ex1, ex2):
                continue
            sub = derived_subgraph(h, b)
            sprof = fullness(sub)
            assert sprof.is_full
            assert not two_coloured_is_trivial(sub)
            assert sub.total < h.total


def test_maximality_flag_matches_inclusion_oracle():
    for h in [fixture_bigraph("coexistence"), P4, K11]:
        allb = all_bicliques(h)
        for b in allb:
            flag = is_maximal_biclique(h, b)
            dominated = any(
                b.s_l & ~o.s_l == 0 and b.s_r & ~o.s_r == 0 and b != o for o in allb
            )
            assert flag == (not dominated)


def _bfs_component_is_trivial(h, comp):
    """The component test that the double cover replaced, kept as the oracle:
    a fully looped clique, or loopless and complete bipartite between the
    parts of its 2-colouring."""
    loops = {v for v in comp if h.has_edge(v, v)}
    if loops == set(comp):
        return all(h.has_edge(u, v) for u in comp for v in comp)
    if loops:
        return False
    colour = {comp[0]: 0}
    stack = [comp[0]]
    while stack:
        u = stack.pop()
        for w in iter_bits(h.adj[u]):
            if w not in colour:
                colour[w] = 1 - colour[u]
                stack.append(w)
            elif colour[w] == colour[u]:
                return False
    left = [v for v in comp if colour[v] == 0]
    right = [v for v in comp if colour[v] == 1]
    return all(h.has_edge(u, v) for u in left for v in right)


def _same_triviality(h):
    flags = [_bfs_component_is_trivial(h, comp) for comp in h.components()]
    assert [has_trivial_component(c) for c in _component_graphs(h)] == flags, h
    assert has_trivial_component(h) == any(flags), h


def _trivial_piece(rng, vs):
    """A looped clique or a loopless complete bipartite graph on vs."""
    if rng.random() < 0.5:
        return [(u, v) for u in vs for v in vs if u <= v]
    k = rng.randint(1, len(vs))
    return [(u, v) for u in vs[:k] for v in vs[k:]]


def test_component_triviality_matches_bfs_oracle():
    # every labelled graph, loops allowed, on at most 4 vertices
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for mask in range(1 << len(pairs)):
            _same_triviality(Graph(n, [pairs[k] for k in iter_bits(mask)]))
    # seeded graphs on 5-8 vertices: random ones, and unions of trivial
    # pieces with at most one edge toggled
    rng = random.Random(20261018)
    for n in range(5, 9):
        pairs = [(u, v) for u in range(n) for v in range(u, n)]
        for _ in range(150):
            _same_triviality(Graph(n, [p for p in pairs if rng.random() < rng.random()]))
            vs = list(range(n))
            rng.shuffle(vs)
            cuts = sorted(rng.sample(range(1, n), rng.randint(0, 3)))
            edges = set()
            for part in zip([0] + cuts, cuts + [n]):
                edges.update(_trivial_piece(rng, sorted(vs[slice(*part)])))
            if rng.random() < 0.5:
                edges ^= {rng.choice(pairs)}
            _same_triviality(Graph(n, edges))


# ---------------------------------------------------------------------------
# The mask layer against a frozenset reference
# ---------------------------------------------------------------------------

def _ref_union(h, s, side):
    """Opposite-side vertices adjacent to some member of s (side "L" or "R")."""
    rows = h.left_adj if side == "L" else h.right_adj
    return frozenset(k for v in s for k in iter_bits(rows[v]))


def _ref_joint(h, s, side):
    """Opposite-side vertices adjacent to every member of s; all of them for s empty."""
    opp, rows = (h.rsize, h.left_adj) if side == "L" else (h.lsize, h.right_adj)
    return frozenset(k for k in range(opp) if all(rows[v] >> k & 1 for v in s))


def _subsets(items):
    items = sorted(items)
    for mask in range(1, 1 << len(items)):
        yield frozenset(items[k] for k in iter_bits(mask))


def _ref_all_bicliques(h):
    return sorted(
        (tuple(sorted(s_l)), tuple(sorted(s_r)))
        for s_l in _subsets(range(h.lsize))
        for s_r in _subsets(_ref_joint(h, s_l, "L"))
    )


def _ref_is_maximal(h, s_l, s_r):
    return _ref_joint(h, s_r, "R") == s_l and _ref_joint(h, s_l, "L") == s_r


def _ref_maximal_bicliques(h):
    """The closure (joint of the joint) of every biclique's left side."""
    found = set()
    for s_l, _ in _ref_all_bicliques(h):
        s_r = _ref_joint(h, frozenset(s_l), "L")
        found.add((tuple(sorted(_ref_joint(h, s_r, "R"))), tuple(sorted(s_r))))
    return sorted(found)


def _ref_derived(h, s_l, s_r):
    lpart = _ref_joint(h, s_r, "R")
    return induced_subgraph(h, lpart, _ref_union(h, lpart, "L"))


def _ref_trivial(h):
    return all(
        sum(1 for i, _ in h.edges if i in cl) == len(cl) * len(cr) for cl, cr in h.components()
    )


def _mask_oracle_pool():
    pool = list(canonical_side_bounded(3))
    pool += [fixture_bigraph(name) for name, f in FIXTURES.items() if f.kind == "bigraph"]
    rng = random.Random(1802)
    for _ in range(60):
        l, r = rng.randint(0, 6), rng.randint(0, 6)
        density = rng.uniform(0.15, 0.7)
        pool.append(TwoColouredGraph(
            l, r, [(i, j) for i in range(l) for j in range(r) if rng.random() < density]
        ))
    return pool


def test_neighbourhoods():
    # the mask helper against the frozenset logic it replaced, on fixed cases
    h = fixture_bigraph("coexistence")
    full_l, full_r = (1 << h.lsize) - 1, (1 << h.rsize) - 1
    assert _ref_union(h, {0}, "L") == frozenset(range(4))
    assert _ref_joint(h, {0}, "L") == frozenset(range(4))
    assert _ref_union(h, set(), "L") == frozenset()
    assert _ref_joint(h, set(), "L") == frozenset(range(4))
    assert _ref_joint(h, {1, 2}, "L") == frozenset({0})
    assert structure._joint(h.left_adj, 0b1, full_r) == 0b1111
    assert structure._joint(h.left_adj, 0, full_r) == full_r
    assert structure._joint(h.left_adj, 0b110, full_r) == 0b1
    assert structure._joint(h.right_adj, 0, full_l) == full_l


def test_neighbourhood_union_of_maximal_biclique_side():
    h = fixture_bigraph("case1")
    for b in maximal_bicliques(h):
        s_l, s_r = map(frozenset, b.key())
        assert _ref_union(h, s_l, "L") == frozenset(range(h.rsize))
        assert _ref_union(h, s_r, "R") == frozenset(range(h.lsize))
        # the derived subgraph of a maximal phase reaches all of R
        assert derived_subgraph(h, b).rsize == h.rsize


def test_mask_layer_matches_frozenset_reference():
    checked = 0
    for h in _mask_oracle_pool():
        allb = all_bicliques(h)
        assert [b.key() for b in allb] == _ref_all_bicliques(h), h
        assert [b.key() for b in maximal_bicliques(h)] == _ref_maximal_bicliques(h), h
        assert two_coloured_is_trivial(h) == _ref_trivial(h), h
        for b in allb:
            s_l, s_r = map(frozenset, b.key())
            assert is_maximal_biclique(h, b) == _ref_is_maximal(h, s_l, s_r), (h, b)
            assert derived_subgraph(h, b) == _ref_derived(h, s_l, s_r), (h, b)
            checked += 1
    assert checked > 1000
