"""The elimination kernel and the injective search against independent routes.

Property tests pit every production counter against its naive enumeration
on random small pairs; the key-vertex enumerations below, one item per
homomorphism, are the oracles for the gadget phase tables; long paths check
that no counter recurses; tight budgets check that ``HOMLAB_MAX_WORK`` is
enforced before any table is built.
"""

import itertools
import math
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homlab
from homlab import counting
from homlab.cli import EXIT_PRECONDITION, main
from homlab.counting import (
    WorkBudgetExceeded,
    count_bis,
    count_bis_naive,
    count_col,
    count_col_naive,
    count_fixcol,
    count_fixcol_naive,
    count_inj_fixcol,
    set_partitions,
)
from homlab.fixtures import fixture_bigraph, fixture_graph, fixture_path
from homlab.gadgets import (
    W_A,
    W_B,
    GadgetParams,
    build_bis_gadget,
    build_col_gadget,
    build_kab_gamma_gadget,
    phase_decompose_bis,
    phase_decompose_col,
    phase_decompose_kab,
)
from homlab.graphs import Graph, TwoColouredGraph, canonical_form, iter_bits

K11 = TwoColouredGraph(1, 1, [(0, 0)])
EMPTY = TwoColouredGraph(0, 0, [])
SINGLE_L = TwoColouredGraph(1, 0, [])
PATH_SIDE = 1200

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

@st.composite
def bigraphs(draw, max_side):
    lsize = draw(st.integers(0, max_side))
    rsize = draw(st.integers(0, max_side))
    cells = list(itertools.product(range(lsize), range(rsize)))
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return TwoColouredGraph(lsize, rsize, edges)


@st.composite
def graphs(draw, max_n):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]  # loops included
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


# ---------------------------------------------------------------------------
# Counters against the naive routes
# ---------------------------------------------------------------------------

@PROPERTY
@given(bigraphs(3), bigraphs(4))
def test_fixcol_matches_naive(h, g):
    assert count_fixcol(h, g) == count_fixcol_naive(h, g)


@PROPERTY
@given(graphs(4), graphs(6))
def test_col_matches_naive_with_loops(h, g):
    assert count_col(h, g) == count_col_naive(h, g)


@PROPERTY
@given(bigraphs(5))
def test_bis_matches_naive(g):
    assert count_bis(g) == count_bis_naive(g)


def test_col_twins_differing_only_in_a_loop():
    # vertices 1 and 2 have the same neighbourhood; only 2 needs a looped image
    for g in (Graph(3, [(0, 1), (0, 2), (2, 2)]), Graph(4, [(0, 2), (1, 2), (0, 3), (1, 3), (3, 3)])):
        for name in ("h_is", "toy", "triangle"):
            h = fixture_graph(name)
            assert count_col(h, g) == count_col_naive(h, g)


def _inj_brute_force(h, g):
    total, edges = 0, g.edges
    for lmap in itertools.permutations(range(h.lsize), g.lsize):
        for rmap in itertools.permutations(range(h.rsize), g.rsize):
            if all((h.left_adj[lmap[i]] >> rmap[j]) & 1 for i, j in edges):
                total += 1
    return total


@PROPERTY
@given(bigraphs(4), bigraphs(3))
def test_inj_matches_brute_force(h, g):
    assert count_inj_fixcol(h, g) == _inj_brute_force(h, g)


@st.composite
def padded_bigraphs(draw, max_side):
    """A random bigraph plus 0-3 isolated vertices per side, each side relabelled."""
    g = draw(bigraphs(max_side))
    lsize, rsize = g.lsize + draw(st.integers(0, 3)), g.rsize + draw(st.integers(0, 3))
    perm_l = draw(st.permutations(range(lsize)))
    perm_r = draw(st.permutations(range(rsize)))
    return TwoColouredGraph(lsize, rsize, [(perm_l[i], perm_r[j]) for i, j in g.edges])


@PROPERTY
@given(bigraphs(5), padded_bigraphs(3))
def test_inj_with_isolated_vertices_matches_brute_force(h, g):
    assert count_inj_fixcol(h, g) == _inj_brute_force(h, g)


K22 = TwoColouredGraph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


@st.composite
def twinned_bigraphs(draw, max_side):
    """A random bigraph with every vertex copied 2-4 times and 1-2 isolated
    vertices added per side, each side relabelled so twins are rarely adjacent."""
    g = draw(bigraphs(max_side))
    copies_l = [i for i in range(g.lsize) for _ in range(draw(st.integers(2, 4)))]
    copies_r = [j for j in range(g.rsize) for _ in range(draw(st.integers(2, 4)))]
    copies_l += [None] * draw(st.integers(1, 2))
    copies_r += [None] * draw(st.integers(1, 2))
    perm_l = draw(st.permutations(range(len(copies_l))))
    perm_r = draw(st.permutations(range(len(copies_r))))
    edges = [
        (perm_l[a], perm_r[b])
        for a, i in enumerate(copies_l) for b, j in enumerate(copies_r)
        if i is not None and j is not None and g.left_adj[i] >> j & 1
    ]
    return TwoColouredGraph(len(copies_l), len(copies_r), edges)


@PROPERTY
@given(twinned_bigraphs(2), padded_bigraphs(2))
def test_inj_with_target_twins_matches_brute_force(h, g):
    assert count_inj_fixcol(h, g) == _inj_brute_force(h, g)


def test_inj_tries_one_member_per_target_twin_class(monkeypatch):
    # the 12-vertex path into case1: 2,560 search nodes; one branch per twin needs 10,592
    monkeypatch.setenv("HOMLAB_MAX_WORK", "3000")
    assert count_inj_fixcol(fixture_bigraph("case1"), _path(6)) == 256
    # an edge into K(2,2): one node per side, for 2 * 2 maps
    monkeypatch.setenv("HOMLAB_MAX_WORK", "2")
    assert count_inj_fixcol(K22, K11) == 4


@pytest.mark.parametrize("h, g, want", [
    # isolated vertices outnumber the target vertices the edge leaves free
    (K22, TwoColouredGraph(3, 1, [(0, 0)]), 0),
    (K22, TwoColouredGraph(1, 3, [(0, 2)]), 0),
    # ... or exactly fill them
    (K22, TwoColouredGraph(2, 2, [(1, 0)]), 4),
    # every vertex isolated
    (TwoColouredGraph(5, 4, [(0, 0)]), TwoColouredGraph(3, 2, []), 60 * 12),
    (K22, TwoColouredGraph(3, 0, []), 0),
    # an empty target side
    (TwoColouredGraph(3, 0, []), TwoColouredGraph(2, 0, []), 6),
    (TwoColouredGraph(3, 0, []), TwoColouredGraph(0, 1, []), 0),
    (TwoColouredGraph(3, 0, []), TwoColouredGraph(1, 1, [(0, 0)]), 0),
    (EMPTY, EMPTY, 1),
])
def test_inj_isolated_vertex_cases(h, g, want):
    assert count_inj_fixcol(h, g) == _inj_brute_force(h, g) == want


def test_inj_all_isolated_needs_no_search(monkeypatch):
    # 20! maps, counted without visiting a single search node
    h, g = TwoColouredGraph(20, 1, [(0, 0)]), TwoColouredGraph(20, 0, [])
    monkeypatch.setenv("HOMLAB_MAX_WORK", "1")
    assert count_inj_fixcol(h, g) == math.factorial(20)


def test_cli_inj_all_isolated(tmp_path):
    target, instance = tmp_path / "target.bigraph", tmp_path / "instance.bigraph"
    target.write_text(TwoColouredGraph(20, 1, [(0, 0)]).to_text())
    instance.write_text(TwoColouredGraph(20, 0, []).to_text())
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("HOMLAB_MAX_WORK", None)
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", "count", "--mode", "inj",
         "--target", str(target), "--instance", str(instance)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == math.factorial(20)


@PROPERTY
@given(graphs(4), graphs(5), st.data())
def test_residual_table_matches_enumeration(h, g, data):
    # the table over any kept vertices is the enumeration grouped by their images
    plan = counting._col_plan(h, g)
    adj, dom, tadj = plan
    keep = data.draw(st.permutations(range(g.n)).map(lambda p: p[: len(p) // 2]))
    want: dict = {}
    for vmap in itertools.product(*[list(iter_bits(d)) for d in dom]):
        if all(tadj[vmap[u]] >> vmap[w] & 1 for u in range(g.n) for w in iter_bits(adj[u])):
            key = tuple(vmap[u] for u in keep)
            want[key] = want.get(key, 0) + 1
    assert counting._eliminate(plan, keep) == want


def test_iter_bits():
    for mask in (0, 1, 2, 0b1011, 1 << 70 | 5):
        assert list(iter_bits(mask)) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_set_partitions_in_growth_string_order():
    for n in range(6):
        strings = []
        for parts in set_partitions(n):
            rgs = [0] * n
            for b, block in enumerate(parts):
                for v in block:
                    rgs[v] = b
            strings.append(rgs)
        assert strings == sorted(strings)
        assert len({tuple(s) for s in strings}) == [1, 1, 2, 5, 15, 52][n]


# ---------------------------------------------------------------------------
# Long paths: no recursion
# ---------------------------------------------------------------------------

def _path(side):
    """The path L0 R0 L1 R1 ... on side+side vertices."""
    return TwoColouredGraph(
        side, side, [(i, i) for i in range(side)] + [(i + 1, i) for i in range(side - 1)]
    )


def _walks(step_matrices, start):
    """Sum over walks of the transfer-matrix product, in exact ints."""
    vec = start
    for mat in step_matrices:
        vec = [sum(vec[i] * mat[i][j] for i in range(len(vec))) for j in range(len(mat[0]))]
    return sum(vec)


@pytest.fixture(scope="module")
def path_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("paths") / "path.bigraph"
    path.write_text(_path(PATH_SIDE).to_text())
    return str(path)


def _path_count(h, side):
    """Colour-preserving maps of the side+side path into h, by transfer matrices."""
    down = [[(h.left_adj[i] >> j) & 1 for j in range(h.rsize)] for i in range(h.lsize)]
    up = [list(col) for col in zip(*down)]
    return _walks([down] + [up, down] * (side - 1), [1] * h.lsize)


def test_cli_fixcol_long_path(capsys, path_file):
    want = _path_count(fixture_bigraph("case1"), PATH_SIDE)
    code = main(["count", "--mode", "fixcol", "--target", fixture_path("case1.bigraph"),
                 "--instance", path_file])
    out = capsys.readouterr().out
    assert code == 0
    assert int(out) == want


def test_cli_bis_long_path(capsys, path_file):
    # a vertex is out of the set (0) or in it (1), and no two neighbours are in
    mat = [[1, 1], [1, 0]]
    want = _walks([mat] * (2 * PATH_SIDE - 1), [1, 1])
    code = main(["count", "--mode", "bis", "--instance", path_file])
    out = capsys.readouterr().out
    assert code == 0
    assert int(out) == want


def test_inj_long_path_identity():
    p = _path(PATH_SIDE)
    assert count_inj_fixcol(p, p) == 1


# ---------------------------------------------------------------------------
# The work budget
# ---------------------------------------------------------------------------

def _estimate(plan, keep=()):
    return counting._schedule(plan[0], plan[1], keep)[1]


def test_elimination_budget_checked_before_any_table(monkeypatch):
    # on a cold memo and order cache, the refusal comes before any table
    h, g = fixture_bigraph("case1"), _path(8)
    estimate = _estimate(counting._fixcol_plan(h, g))
    counting._cached_order.cache_clear()

    def no_tables(*args):
        raise AssertionError("a table was built")

    with monkeypatch.context() as m:
        for name in ("_sum_out", "_one_neighbour", "_leaf"):
            m.setattr(counting, name, no_tables)
        m.setenv("HOMLAB_MAX_WORK", str(estimate - 1))
        with pytest.raises(WorkBudgetExceeded, match=f"~{estimate} "):
            count_fixcol(h, g)
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(estimate))
    assert count_fixcol(h, g) == _path_count(h, 8)


def test_elimination_order_stops_once_the_estimate_passes_the_budget(monkeypatch):
    # the refusal gives the estimate at the step that crossed the budget, a lower bound
    h, g = fixture_bigraph("case1"), _path(8)
    estimate = _estimate(counting._fixcol_plan(h, g))
    monkeypatch.setenv("HOMLAB_MAX_WORK", "10")
    with pytest.raises(WorkBudgetExceeded) as exc:
        count_fixcol(h, g)
    reached = int(re.search(r"needs ~(\d+) table entries", str(exc.value)).group(1))
    assert 10 < reached < estimate


def test_elimination_order_takes_one_more_step_at_an_estimate_equal_to_the_budget(monkeypatch):
    # an estimate equal to the budget has not passed it, so the next step is still taken
    h, g = fixture_bigraph("case1"), _path(8)
    adj, dom, _ = counting._fixcol_plan(h, g)
    size = [d.bit_count() for d in dom]
    works = [size[v] * math.prod(size[u] for u in scope)
             for v, scope, *_ in counting._schedule(adj, dom, ())[0]]
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(works[0]))
    with pytest.raises(WorkBudgetExceeded, match=f"needs ~{works[0] + works[1] + 1} table"):
        count_fixcol(h, g)


@pytest.mark.parametrize("count", [
    lambda: count_fixcol(fixture_bigraph("case3"), _path(6)),
    lambda: count_col(fixture_graph("toy"), Graph(6, [(k, k + 1) for k in range(5)])),
    lambda: count_bis(_path(6)),
])
def test_counters_refuse_small_budget(monkeypatch, count):
    monkeypatch.setenv("HOMLAB_MAX_WORK", "10")
    with pytest.raises(WorkBudgetExceeded, match="needs ~"):
        count()


def test_count_bis_refusal_text_one_below_its_estimate(monkeypatch):
    # the text the count into the looped-plus-pendant plain target gave: the
    # count into P4 has the same instance, two values per vertex and one order
    g = _path(6)
    assert _estimate(counting._fixcol_plan(counting.P4, g)) == 47
    monkeypatch.setenv("HOMLAB_MAX_WORK", "46")
    with pytest.raises(WorkBudgetExceeded) as exc:
        count_bis(g)
    assert str(exc.value) == (
        "homomorphism count by elimination needs ~47 table entries, budget is 46 "
        "(override with HOMLAB_MAX_WORK)"
    )
    monkeypatch.setenv("HOMLAB_MAX_WORK", "47")
    assert count_bis(g) == 377
    monkeypatch.delenv("HOMLAB_MAX_WORK")
    assert count_bis_naive(g) == 377


def test_inj_charges_visited_nodes(monkeypatch):
    h, g = fixture_bigraph("case1"), _path(4)
    monkeypatch.setenv("HOMLAB_MAX_WORK", "10")
    with pytest.raises(WorkBudgetExceeded, match="visited 1[1-9] search nodes, budget is 10 "):
        count_inj_fixcol(h, g)
    monkeypatch.delenv("HOMLAB_MAX_WORK")
    assert count_inj_fixcol(h, g) > 0


@pytest.mark.parametrize("work, unit, call", [
    ("homomorphism count by elimination", "table entries",
     lambda: count_fixcol(fixture_bigraph("case3"), _path(6))),
    ("naive colour-preserving count", "vertex maps",
     lambda: count_fixcol_naive(fixture_bigraph("case1"), _path(2))),
    ("naive homomorphism count", "vertex maps",
     lambda: count_col_naive(fixture_graph("toy"), Graph(3, [(0, 1), (1, 2)]))),
    ("naive independent-set count", "subsets", lambda: count_bis_naive(_path(6))),
    ("injective count", "search nodes",
     lambda: count_inj_fixcol(fixture_bigraph("case1"), _path(4))),
    ("canonical labelling", "candidate rows",
     lambda: canonical_form(TwoColouredGraph(6, 6, [(i, i) for i in range(6)]))),
    # a phase table is refused by its elimination's estimate
    pytest.param("homomorphism count by elimination", "table entries",
                 lambda: phase_decompose_kab(fixture_bigraph("p4"), K11, EMPTY, EMPTY,
                                             GadgetParams(a=2, b=2)),
                 id="kab phase table-table entries"),
    # a class of twins is charged its image sets, then the tests between adjacent classes
    pytest.param("lifting twin classes", "image sets",
                 lambda: phase_decompose_kab(fixture_bigraph("case1"), K11, EMPTY, EMPTY,
                                             GadgetParams(a=2, b=1)),
                 id="kab twin classes-image sets"),
    # 3 + 6 image sets, then 3 * 6 subset tests; the gadget has 3 * 3 adjacency cells
    pytest.param("lifting twin classes", "subset tests",
                 lambda: phase_decompose_kab(TwoColouredGraph(2, 3, itertools.product(range(2), range(3))),
                                             K11, EMPTY, EMPTY, GadgetParams(a=2, b=2)),
                 id="kab twin classes-subset tests"),
    # a builder charges the cells of the graph it builds before it allocates them
    pytest.param("kab gadget build", "adjacency cells",
                 lambda: build_kab_gamma_gadget(K11, EMPTY, EMPTY, GadgetParams(a=3, b=3)),
                 id="kab gadget build-adjacency cells"),
    pytest.param("bis gadget build", "adjacency cells",
                 lambda: build_bis_gadget(K11, EMPTY, GadgetParams(a=2, b=2)),
                 id="bis gadget build-adjacency cells"),
])
def test_budget_refusals_name_their_unit(monkeypatch, work, unit, call):
    # every refusal says what it counted, the budget, and the variable that raises it
    monkeypatch.setenv("HOMLAB_MAX_WORK", "10")
    with pytest.raises(WorkBudgetExceeded) as exc:
        call()
    assert re.fullmatch(
        rf"{work} \w+ ~?\d+ {unit}, budget is 10 \(override with HOMLAB_MAX_WORK\)", str(exc.value)
    ), str(exc.value)


def test_cli_budget_refusal_has_no_traceback(tmp_path):
    path = tmp_path / "path.bigraph"
    path.write_text(_path(40).to_text())
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    env = dict(os.environ, HOMLAB_MAX_WORK="100", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", "count", "--mode", "fixcol",
         "--target", fixture_path("case1.bigraph"), "--instance", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")


# ---------------------------------------------------------------------------
# The count_fixcol memo
# ---------------------------------------------------------------------------

def _copy(g):
    """An equal graph in a distinct object."""
    return TwoColouredGraph.from_rows(g.lsize, g.rsize, list(g.left_adj))


@PROPERTY
@given(bigraphs(3), bigraphs(4))
def test_memoised_fixcol_matches_naive_and_a_fresh_elimination(h, g):
    want = count_fixcol_naive(h, g)
    assert counting._eliminate(counting._fixcol_plan(h, g)).get((), 0) == want
    assert count_fixcol(h, g) == want
    h2, g2 = _copy(h), _copy(g)
    assert h2 is not h and h2 == h
    hits = counting._fixcol_memo.cache_info().hits
    assert count_fixcol(h2, g2) == want
    assert counting._fixcol_memo.cache_info().hits == hits + 1


def test_memo_remembers_counts_not_refusals(monkeypatch):
    # a refusal leaves the memo empty; once counted, the pair is a hit under any budget
    h, g = fixture_bigraph("case1"), _path(8)
    estimate = _estimate(counting._fixcol_plan(h, g))
    refusal = (f"homomorphism count by elimination needs ~{estimate} table entries, "
               f"budget is {estimate - 1} (override with HOMLAB_MAX_WORK)")
    memo = counting._fixcol_memo
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(estimate - 1))
    with pytest.raises(WorkBudgetExceeded) as exc:
        count_fixcol(h, g)
    assert str(exc.value) == refusal
    assert memo.cache_info().currsize == 0
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(estimate))
    assert count_fixcol(h, g) == _path_count(h, 8)
    assert memo.cache_info()[:2] == (0, 2)  # (hits, misses)
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(estimate - 1))
    assert count_fixcol(h, g) == _path_count(h, 8)
    assert memo.cache_info()[:2] == (1, 2)


def test_a_remembered_pair_answers_without_an_elimination(monkeypatch):
    # a hit reads no budget; a miss is refused with the elimination's own text
    h, g = fixture_bigraph("case1"), _path(8)
    want = count_fixcol(h, g)
    # under a budget of 0 the order takes its first step, then refuses
    other = _path(7)
    adj, dom, _ = counting._fixcol_plan(h, other)
    v, scope, *_ = counting._schedule(adj, dom, ())[0][0]
    first = dom[v].bit_count() * math.prod(dom[u].bit_count() for u in scope)

    def no_elimination(*args):
        raise AssertionError("a remembered pair was eliminated")

    monkeypatch.setenv("HOMLAB_MAX_WORK", "0")
    with monkeypatch.context() as m:
        m.setattr(counting, "_eliminate", no_elimination)
        assert count_fixcol(h, g) == want
        assert count_fixcol(_copy(h), _copy(g)) == want
    with pytest.raises(WorkBudgetExceeded) as exc:
        count_fixcol(h, other)
    assert str(exc.value) == (f"homomorphism count by elimination needs ~{first + 1} table "
                              "entries, budget is 0 (override with HOMLAB_MAX_WORK)")
    monkeypatch.setenv("HOMLAB_MAX_WORK", "x")
    assert count_fixcol(h, g) == want
    with pytest.raises(ValueError, match="HOMLAB_MAX_WORK must be an integer, got 'x'"):
        count_fixcol(h, other)


@pytest.mark.parametrize("side, admitted", [(20, True), (21, False)])
def test_memo_admits_sides_up_to_the_biclique_guard(side, admitted):
    h = fixture_bigraph("case1")
    for g in (TwoColouredGraph(side, 1, []), TwoColouredGraph(1, side, [])):
        before = counting._fixcol_memo.cache_info().currsize
        assert count_fixcol(h, g) == h.lsize ** g.lsize * h.rsize ** g.rsize
        assert counting._fixcol_memo.cache_info().currsize == before + admitted
    # the target's sides are guarded too
    before = counting._fixcol_memo.cache_info().currsize
    assert count_fixcol(TwoColouredGraph(1, side, []), K11) == 0
    assert counting._fixcol_memo.cache_info().currsize == before + admitted


def test_memo_hits_a_repeated_pair_and_stays_bounded():
    memo = counting._fixcol_memo
    h, g = fixture_bigraph("case1"), _path(3)
    assert count_fixcol(h, g) == _path_count(h, 3)
    assert memo.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert count_fixcol(h, g) == _path_count(h, 3)
    assert memo.cache_info()[:2] == (1, 1)
    maxsize = memo.cache_info().maxsize
    # isolated instance vertices: (lsize of h)^l * (rsize of h)^r maps
    pairs = itertools.islice(
        ((TwoColouredGraph(a, b, []), TwoColouredGraph(l, r, []))
         for a in range(1, 21) for b in range(1, 21) for l in range(4) for r in range(4)),
        maxsize + 10,
    )
    for th, tg in pairs:
        assert count_fixcol(th, tg) == th.lsize ** tg.lsize * th.rsize ** tg.rsize
        assert memo.cache_info().currsize <= maxsize
    assert memo.cache_info().currsize == maxsize
    # the first pair was the least recently used, so it is counted again
    misses = memo.cache_info().misses
    assert count_fixcol(h, g) == _path_count(h, 3)
    assert memo.cache_info().misses == misses + 1


# ---------------------------------------------------------------------------
# The elimination's cached halves: orders per instance, fresh tables per target
# ---------------------------------------------------------------------------

@st.composite
def instance_pairs(draw):
    """Two plans of one instance into two targets, and the vertices to keep."""
    if draw(st.booleans()):
        g, hs = draw(bigraphs(4)), draw(st.lists(bigraphs(3), min_size=2, max_size=2))
        plans = [counting._fixcol_plan(h, g) for h in hs]
    else:
        g, hs = draw(graphs(6)), draw(st.lists(graphs(4), min_size=2, max_size=2))
        plans = [counting._col_plan(h, g) for h in hs]
    n = len(plans[0][0])
    keep = draw(st.permutations(range(n)))[: draw(st.sampled_from([0, n // 2, n]))]
    return plans, tuple(keep)


def _uncached_schedule(plan, keep, budget):
    """The steps and estimate of the order built afresh, or the refusal's text."""
    adj, dom, _ = plan
    try:
        steps, estimate = counting._estimated(
            counting._order(adj, keep), keep, [d.bit_count() for d in dom], budget)
    except WorkBudgetExceeded as exc:
        return str(exc)
    return list(steps), estimate


def _cached_schedule(plan, keep, budget):
    """``_schedule`` under ``HOMLAB_MAX_WORK=budget``: steps and estimate, or the refusal's text."""
    with pytest.MonkeyPatch.context() as m:
        m.setenv("HOMLAB_MAX_WORK", str(budget))
        try:
            steps, estimate = counting._schedule(plan[0], plan[1], keep)
        except WorkBudgetExceeded as exc:
            return str(exc)
    return list(steps), estimate


@PROPERTY
@given(instance_pairs())
def test_cached_order_serves_another_target_as_an_uncached_schedule(pair):
    # the order is cached under one target's domains and read under the other's
    (plan, other), keep = pair
    orders = counting._cached_order
    want = _uncached_schedule(plan, keep, 10**9)
    estimate = want[1]
    orders.cache_clear()
    assert _cached_schedule(other, keep, 10**9) == _uncached_schedule(other, keep, 10**9)
    assert _cached_schedule(plan, keep, 10**9) == want
    assert orders.cache_info()[:3] == (1, 1, orders.cache_info().maxsize)
    # at and just under the estimate, cold and warm, the outcome is the uncached one
    for budget in (estimate - 1, estimate):
        for warm in (False, True):
            orders.cache_clear()
            if warm:
                _cached_schedule(other, keep, 10**9)
            assert _cached_schedule(plan, keep, budget) == _uncached_schedule(plan, keep, budget)
            # the whole order is kept, whether the schedule was refused or not
            assert orders.cache_info().currsize == 1
    # an order kept by a refused schedule serves the next one whole
    orders.cache_clear()
    assert _cached_schedule(plan, keep, estimate - 1) == (
        f"homomorphism count by elimination needs ~{estimate} table entries, "
        f"budget is {estimate - 1} (override with HOMLAB_MAX_WORK)")
    assert _cached_schedule(plan, keep, estimate) == want
    assert orders.cache_info()[:2] == (1, 1)


@pytest.mark.parametrize("rsize, admitted", [(20, True), (21, False)])
def test_order_cache_admits_instances_up_to_twice_the_biclique_guard(rsize, admitted):
    g = TwoColouredGraph(20, rsize, [(i, i) for i in range(20)])
    assert count_fixcol(K11, g) == 1
    assert counting._cached_order.cache_info().currsize == admitted


def test_a_refused_count_keeps_its_whole_order(monkeypatch):
    # the order is finished work: a count refused under a low budget leaves it for the next
    h, g = fixture_bigraph("case1"), _path(8)
    plan = counting._fixcol_plan(h, g)
    steps, estimate = counting._schedule(plan[0], plan[1], ())
    counting._cached_order.cache_clear()
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(estimate - 1))
    with pytest.raises(WorkBudgetExceeded, match=f"~{estimate} "):
        count_fixcol(h, g)
    assert counting._cached_order.cache_info()[:2] == (0, 1)  # (hits, misses)
    assert counting._cached_order.cache_info().currsize == 1
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(estimate))
    assert count_fixcol(h, g) == _path_count(h, 8)
    assert counting._cached_order.cache_info()[:2] == (1, 1)
    assert list(counting._cached_order(tuple(plan[0]), ())) == steps


@PROPERTY
@given(instance_pairs())
def test_fresh_tables_equal_a_sum_out_over_their_scope(pair):
    # looped col instance vertices have the looped target vertices as domain
    (plan, _), _ = pair
    adj, dom, tadj = plan
    for v, scope, consumed, fresh in counting._order(adj, ()):
        mask = sum(1 << u for u in scope)
        assert fresh == (not consumed and not any(adj[u] & mask for u in scope))
        if scope and fresh:
            got = counting._fresh(tuple(tadj), dom[v], tuple(dom[u] for u in scope))
            assert got == counting._sum_out(plan, v, list(scope), [])[1]


def test_a_scope_with_instance_edges_is_not_served_from_the_table_cache():
    h, tables = fixture_graph("toy"), counting._fresh
    triangle = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert count_col(h, triangle) == count_col_naive(h, triangle)
    assert tables.cache_info()[:2] == (0, 0)
    # the path's first table is over a scope with no instance edge: it is cached
    path = Graph(3, [(0, 1), (1, 2)])
    assert count_col(h, path) == count_col_naive(h, path)
    assert tables.cache_info()[:2] == (0, 1)


@pytest.mark.parametrize("lsize, admitted", [
    (counting.FRESH_TABLE_GUARD, True), (counting.FRESH_TABLE_GUARD + 1, False),
])
def test_table_cache_admits_tables_up_to_the_entry_guard(lsize, admitted):
    # K(1,1)'s R vertex goes first: its table is over the L vertex, one entry per h's L vertex
    h = TwoColouredGraph(lsize, 1, [(i, 0) for i in range(lsize)])
    assert count_fixcol(h, K11) == lsize
    assert counting._fresh.cache_info().currsize == admitted


def test_sum_out_indexes_equal_entries_over_different_scopes_apart():
    # the tables of vertices 0 and 1 share one entries dict; vertex 2 consumes both
    h = fixture_graph("toy")
    plan = counting._col_plan(h, Graph(3, [(0, 2), (1, 2)]))
    entries = {(a, c): a + 3 * c + 1 for a in range(h.n) for c in iter_bits(h.adj[a])}
    shared = counting._sum_out(plan, 2, [0, 1], [((0, 2), entries), ((1, 2), entries)])
    apart = counting._sum_out(plan, 2, [0, 1], [((0, 2), entries), ((1, 2), dict(entries))])
    assert shared == apart
    # a six-cycle and an isolated vertex: scope-blind sharing counted 38 independent sets
    g = TwoColouredGraph(3, 4, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
    assert count_bis(g) == count_bis_naive(g) == 36


# ---------------------------------------------------------------------------
# One-neighbour steps and the injective search's target half
# ---------------------------------------------------------------------------

@st.composite
def trees(draw, max_n):
    """A path, a star or a random tree on 1..max_n vertices, coloured by depth parity."""
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(["path", "star", "tree"]))
    parent = [None] + [
        k - 1 if shape == "path" else 0 if shape == "star" else draw(st.integers(0, k - 1))
        for k in range(1, n)
    ]
    side, index = [0], [0]
    sizes = [1, 0]
    for k in range(1, n):
        side.append(1 - side[parent[k]])
        index.append(sizes[side[k]])
        sizes[side[k]] += 1
    edges = [
        (index[k], index[parent[k]]) if side[k] == 0 else (index[parent[k]], index[k])
        for k in range(1, n)
    ]
    return TwoColouredGraph(sizes[0], sizes[1], edges)


@st.composite
def one_neighbour_cases(draw):
    """A plan and its naive count: a tree into a random target, or a col pair with loops."""
    if draw(st.booleans()):
        h, g = draw(bigraphs(3)), draw(trees(8))
        return counting._fixcol_plan(h, g), count_fixcol_naive(h, g)
    h, g = draw(graphs(4)), draw(graphs(6))
    return counting._col_plan(h, g), count_col_naive(h, g)


@PROPERTY
@given(one_neighbour_cases())
def test_one_neighbour_tables_equal_sum_out_tables(case):
    # every table built by _sum_out; each one-vertex scope also by _one_neighbour
    plan, want = case
    adj, dom, tadj = plan
    tables, count = [], 1
    for v, scope, consumed, _ in counting._order(adj, ()):
        factors = [tables[t] for t in consumed]
        table = counting._sum_out(plan, v, list(scope), factors)
        if len(scope) == 1:
            u = scope[0]
            got = counting._one_neighbour(tadj, u, dom[u], dom[v], factors)
            assert table[0] == scope
            assert list(got.items()) == list(table[1].items())
        if not table[1]:
            count = 0
            break
        tables.append(table)
        for t in consumed:
            tables[t] = None
        if not scope:
            count *= table[1][()]
    assert count == want
    assert counting._eliminate(plan).get((), 0) == want


def test_one_neighbour_step_keeps_to_the_values_every_factor_has():
    # vertex 1 sums out last but one, from a table over (1,) left by its looped
    # pendant 3 and a table over (0, 1) left by 2; the pendant's table has no
    # entry for a value of 1 with no looped neighbour, such as the triangle's
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (3, 3)])
    adj, _, _ = counting._col_plan(g, g)
    assert [step[:3] for step in counting._order(adj, ())] == [
        (3, (1,), ()), (2, (0, 1), ()), (1, (0,), (0, 1)), (0, (), (2,))]
    h = Graph(4, [(0, 1), (1, 2), (0, 2), (3, 3)])
    assert count_col(h, g) == count_col_naive(h, g) == 1


T9 = TwoColouredGraph(4, 5, [(0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 1), (3, 4)])
# a 3 + 3 quotient of the 10-vertex path
Q33 = TwoColouredGraph(3, 3, [(0, 0), (0, 2), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])


@pytest.mark.parametrize("target, g, nodes, want", [
    ("case1", _path(6), 2560, 256),
    ("case3", _path(6), 5703, 816),
    ("case3", T9, 5060, 5436),
    ("case3", Q33, 751, 212),
])
def test_inj_search_node_counts_are_pinned(monkeypatch, target, g, nodes, want):
    # the search's nodes, leaves included, as the search with a separate leaf level charged them
    h = fixture_bigraph(target)
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(nodes - 1))
    with pytest.raises(WorkBudgetExceeded) as exc:
        count_inj_fixcol(h, g)
    assert str(exc.value) == (f"injective count visited {nodes} search nodes, "
                              f"budget is {nodes - 1} (override with HOMLAB_MAX_WORK)")
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(nodes))
    assert count_inj_fixcol(h, g) == want


@pytest.mark.parametrize("budget, visited", [(0, 1), (16, 21), (20, 21), (24, 29), (43, 48)])
def test_inj_charges_a_level_of_leaves_at_once(monkeypatch, budget, visited):
    # a node's leaves are charged together, after the node itself
    monkeypatch.setenv("HOMLAB_MAX_WORK", str(budget))
    with pytest.raises(WorkBudgetExceeded, match=f"visited {visited} search nodes, budget is {budget} "):
        count_inj_fixcol(fixture_bigraph("case3"), T9)


def test_inj_target_half_is_built_once_per_target():
    halves = counting._inj_target
    h = fixture_bigraph("case3")
    assert count_inj_fixcol(h, _path(2)) == _inj_brute_force(h, _path(2))
    assert count_inj_fixcol(_copy(h), Q33) == 212
    assert halves.cache_info()[:2] == (1, 1)  # (hits, misses)
    # an instance that does not fit, or has no edge, never reaches the search
    assert count_inj_fixcol(h, TwoColouredGraph(10, 0, [])) == 0
    assert count_inj_fixcol(h, TwoColouredGraph(2, 3, [])) == 9 * 8 * 9 * 8 * 7
    assert halves.cache_info()[:2] == (1, 1)


@pytest.mark.parametrize("side, admitted", [(20, True), (21, False)])
def test_inj_target_cache_admits_sides_up_to_the_biclique_guard(side, admitted):
    for h in (TwoColouredGraph(side, 1, [(0, 0)]), TwoColouredGraph(1, side, [(0, 0)])):
        before = counting._inj_target.cache_info().currsize
        assert count_inj_fixcol(h, K11) == 1
        assert counting._inj_target.cache_info().currsize == before + admitted


# ---------------------------------------------------------------------------
# Phase tables against the enumerating oracles
# ---------------------------------------------------------------------------

def _iter_hom_keys(h, g, key_l, key_r):
    """Every colour-preserving homomorphism of g into h, as its key images.

    Key vertices are assigned first, the rest in breadth-first order from
    them; a plain backtracking search yields one item per homomorphism.
    """
    if (g.lsize and not h.lsize) or (g.rsize and not h.rsize):
        return

    def nbrs(side, u):
        if side == "L":
            return [("R", j) for j in iter_bits(g.left_adj[u])]
        return [("L", i) for i in iter_bits(g.right_adj[u])]

    order = [("L", i) for i in key_l] + [("R", j) for j in key_r]
    placed = set(order)
    queue = list(order)
    starts = [("L", i) for i in range(g.lsize)] + [("R", j) for j in range(g.rsize)]
    while True:
        while queue:
            for w in nbrs(*queue.pop(0)):
                if w not in placed:
                    placed.add(w)
                    order.append(w)
                    queue.append(w)
        rest = [v for v in starts if v not in placed]
        if not rest:
            break
        placed.add(rest[0])
        order.append(rest[0])
        queue.append(rest[0])
    pos = {v: k for k, v in enumerate(order)}
    earlier = [[pos[w] for w in nbrs(*v) if pos[w] < k] for k, v in enumerate(order)]
    assign = [0] * len(order)
    nl, nk = len(key_l), len(key_l) + len(key_r)

    def rec(k):
        if k == len(order):
            yield tuple(assign[:nl]), tuple(assign[nl:nk])
            return
        side = order[k][0]
        cand = (1 << (h.lsize if side == "L" else h.rsize)) - 1
        adj = h.right_adj if side == "L" else h.left_adj
        for e in earlier[k]:
            cand &= adj[assign[e]]
        for c in iter_bits(cand):
            assign[k] = c
            yield from rec(k + 1)

    yield from rec(0)


def _col_bucketed(h, g, w_a, w_b):
    """Every homomorphism of g into h, as its images of (w_a, w_b)."""
    order = [w_a, w_b]
    placed = {w_a, w_b}
    queue = [w_a, w_b]
    while queue:
        for w in iter_bits(g.adj[queue.pop(0)]):
            if w not in placed:
                placed.add(w)
                order.append(w)
                queue.append(w)
    order += [v for v in range(g.n) if v not in placed]
    pos = {v: k for k, v in enumerate(order)}
    earlier = [[pos[w] for w in iter_bits(g.adj[u]) if w != u and pos[w] < k]
               for k, u in enumerate(order)]
    loops = sum(1 << u for u in range(h.n) if h.has_edge(u, u))
    assign = [0] * len(order)

    def rec(k):
        if k == len(order):
            yield (assign[0], assign[1])
            return
        cand = (1 << h.n) - 1
        if g.has_edge(order[k], order[k]):
            cand &= loops
        for e in earlier[k]:
            cand &= h.adj[assign[e]]
        for c in iter_bits(cand):
            assign[k] = c
            yield from rec(k + 1)

    yield from rec(0)


def _tally(items):
    out: dict = {}
    for key in items:
        out[key] = out.get(key, 0) + 1
    return out


def _kab_cases():
    p3, p4, k11 = fixture_bigraph("p3"), fixture_bigraph("p4"), fixture_bigraph("k11")
    coex, case1 = fixture_bigraph("coexistence"), fixture_bigraph("case1")
    gp = GadgetParams
    return [
        (K11, SINGLE_L, EMPTY, EMPTY, gp(a=1, b=1)),
        (p4, K11, EMPTY, EMPTY, gp(a=1, b=1)),
        (coex, K11, K11, p3, gp(a=2, b=2, copies_gamma=1, copies_j=1)),
        (p4, k11, k11, EMPTY, gp(a=2, b=1, copies_gamma=1)),
        (coex, k11, k11, EMPTY, gp(a=2, b=2, copies_gamma=1)),
        (case1, k11, EMPTY, k11, gp(a=1, b=1, copies_j=1)),
        (p4, p3, p3, k11, gp(a=2, b=2, copies_gamma=1, copies_j=1)),
        (coex, SINGLE_L, EMPTY, EMPTY, gp(a=1, b=2)),
        (p4, k11, k11, EMPTY, gp(a=3, b=3, copies_gamma=1)),
        # 26 vertices: only the elimination estimate bounds a phase table
        (p4, TwoColouredGraph(12, 12, itertools.product(range(12), repeat=2)), EMPTY, EMPTY,
         gp(a=1, b=1)),
    ]


@pytest.mark.parametrize("case", _kab_cases())
def test_kab_phase_table_matches_oracle(case):
    h, g_prime, gamma_graph, j, params = case
    g = build_kab_gamma_gadget(g_prime, gamma_graph, j, params)
    # K(a,b) is L 0..a-1 and R 0..b-1
    want = _tally(
        (tuple(sorted(set(img_l))), tuple(sorted(set(img_r))))
        for img_l, img_r in _iter_hom_keys(h, g, range(params.a), range(params.b))
    )
    rep = phase_decompose_kab(h, g_prime, gamma_graph, j, params)
    assert {e.key: e.actual for e in rep.entries if e.actual} == want


def _bis_cases():
    p3, p4, coex = fixture_bigraph("p3"), fixture_bigraph("p4"), fixture_bigraph("coexistence")
    gp = GadgetParams
    cases = [(p4, g, EMPTY, gp(a=1, b=1)) for g in (SINGLE_L, K11, p3, p4)]
    return cases + [
        (coex, K11, K11, gp(a=1, b=1, copies_gamma=1)),
        (coex, K11, EMPTY, gp(a=1, b=1)),
        (coex, p3, EMPTY, gp(a=1, b=1)),
        (p4, p4, EMPTY, gp(a=2, b=2)),
        # 24 vertices
        (p4, p3, K11, gp(a=1, b=1, copies_gamma=3)),
    ]


@pytest.mark.parametrize("case", _bis_cases())
def test_bis_phase_table_matches_oracle(case):
    h, g_prime, gamma_graph, params = case
    g = build_bis_gadget(g_prime, gamma_graph, params)
    a, b = params.a, params.b
    nverts = g_prime.lsize + g_prime.rsize
    # block t spans g's sides evenly; its K(a,b) comes first on each side
    bl, br = g.lsize // nverts, g.rsize // nverts
    key_l = [t * bl + i for t in range(nverts) for i in range(a)]
    key_r = [t * br + i for t in range(nverts) for i in range(b)]
    want = _tally(
        tuple(
            (tuple(sorted(set(img_l[t * a:(t + 1) * a]))),
             tuple(sorted(set(img_r[t * b:(t + 1) * b]))))
            for t in range(nverts)
        )
        for img_l, img_r in _iter_hom_keys(h, g, key_l, key_r)
    )
    assert phase_decompose_bis(h, g_prime, gamma_graph, params).vector_counts == want


def _col_cases():
    h_is, k3 = fixture_graph("h_is"), fixture_graph("triangle")
    cases = [(h_is, EMPTY, EMPTY, 0, 0, 0), (h_is, K11, K11, 1, 1, 0)]
    for h in (h_is, k3):
        for size_a, size_b, copies_j in itertools.product(range(3), range(3), (0, 1)):
            cases.append((h, K11, K11, size_a, size_b, copies_j))
    return cases


@pytest.mark.parametrize("case", _col_cases())
def test_col_phase_table_matches_oracle(case):
    h, g_prime, j, size_a, size_b, copies_j = case
    g = build_col_gadget(g_prime, j, size_a, size_b, copies_j)
    want = _tally(_col_bucketed(h, g, W_A, W_B))
    rep = phase_decompose_col(h, g_prime, j, size_a, size_b, copies_j)
    assert {(e.key[0][0], e.key[1][0]): e.actual for e in rep.entries if e.actual} == want


# ---------------------------------------------------------------------------
# Keyed counts against per-vertex bucketing
# ---------------------------------------------------------------------------

def _per_vertex_buckets(h, g, blocks):
    """The keyed count with every key vertex kept on its own.

    The residual table of the plain plan over all key vertices, bucketed by
    each block part's image mask: the route ``count_by_images`` took before
    twins entered the elimination as image sets.
    """
    if isinstance(g, TwoColouredGraph):
        plan, gl, hl = counting._fixcol_plan(h, g), g.lsize, h.lsize
    else:
        plan, gl, hl = counting._col_plan(h, g), 0, 0
    keep = [v for left, right in blocks for v in (*left, *(gl + j for j in right))]
    buckets: dict = {}
    for images, count in counting._eliminate(plan, keep).items():
        at = iter(images)
        key = []
        for left, right in blocks:
            lmask = rmask = 0
            for _ in left:
                lmask |= 1 << next(at)
            for _ in right:
                rmask |= 1 << (next(at) - hl)
            key.append((lmask, rmask))
        buckets[tuple(key)] = buckets.get(tuple(key), 0) + count
    return buckets


def _gadget_blocks():
    """(h, g, blocks) of every kab and bis case above with a, b <= 3, and every col case."""
    out = []
    for h, g_prime, gamma_graph, j, params in _kab_cases():
        if params.a <= 3 and params.b <= 3:
            g = build_kab_gamma_gadget(g_prime, gamma_graph, j, params)
            out.append((h, g, [(range(params.a), range(params.b))]))
    for h, g_prime, gamma_graph, params in _bis_cases():
        g = build_bis_gadget(g_prime, gamma_graph, params)
        nverts = g_prime.lsize + g_prime.rsize
        bl, br = g.lsize // nverts, g.rsize // nverts
        out.append((h, g, [(range(t * bl, t * bl + params.a), range(t * br, t * br + params.b))
                           for t in range(nverts)]))
    for h, g_prime, j, size_a, size_b, copies_j in _col_cases():
        out.append((h, build_col_gadget(g_prime, j, size_a, size_b, copies_j), [((W_A,), (W_B,))]))
    return out


@pytest.mark.parametrize("h, g, blocks", _gadget_blocks())
def test_keyed_count_matches_per_vertex_buckets_on_gadgets(h, g, blocks):
    assert counting.count_by_images(h, g, blocks) == _per_vertex_buckets(h, g, blocks)


@st.composite
def blown_up_keys(draw):
    """A bigraph whose vertices come in twin classes, and key blocks over it.

    Every vertex of a small base bigraph is copied one to three times, and
    each copy is put on its own in block 0, block 1 or no block: the parts
    mix twins with vertices that are not twins of each other.
    """
    base = draw(bigraphs(2))
    lcopy = [i for i in range(base.lsize) for _ in range(draw(st.integers(1, 3)))]
    rcopy = [j for j in range(base.rsize) for _ in range(draw(st.integers(1, 3)))]
    edges = [(x, y) for x, i in enumerate(lcopy) for y, j in enumerate(rcopy)
             if base.left_adj[i] >> j & 1]
    g = TwoColouredGraph(len(lcopy), len(rcopy), edges)
    lslot = draw(st.lists(st.integers(-1, 1), min_size=g.lsize, max_size=g.lsize))
    rslot = draw(st.lists(st.integers(-1, 1), min_size=g.rsize, max_size=g.rsize))
    blocks = [
        ([x for x, s in enumerate(lslot) if s == b], [y for y, s in enumerate(rslot) if s == b])
        for b in range(2)
    ]
    return g, blocks


@PROPERTY
@given(bigraphs(3), blown_up_keys())
def test_keyed_count_matches_per_vertex_buckets_on_mixed_parts(h, keyed):
    g, blocks = keyed
    assert counting.count_by_images(h, g, blocks) == _per_vertex_buckets(h, g, blocks)


@PROPERTY
@given(graphs(3), graphs(6), st.data())
def test_keyed_count_matches_per_vertex_buckets_on_plain_graphs(h, g, data):
    # isolated vertices and the leaves of one vertex are twins of a plain graph
    slot = data.draw(st.lists(st.integers(-1, 3), min_size=g.n, max_size=g.n))
    blocks = [([u for u, s in enumerate(slot) if s == 2 * b],
               [u for u, s in enumerate(slot) if s == 2 * b + 1]) for b in range(2)]
    assert counting.count_by_images(h, g, blocks) == _per_vertex_buckets(h, g, blocks)


@pytest.mark.parametrize("blocks, vertex", [
    ([((0, 0), ())], "left vertex 0"),
    ([((), (1,)), ((), (1,))], "right vertex 1"),
    ([((1,), ())], "left vertex 1"),
])
def test_keyed_count_refuses_malformed_blocks(monkeypatch, blocks, vertex):
    # a repeated vertex, a vertex in two blocks, an index out of range
    def no_count(*args):
        raise AssertionError("a count was started")

    monkeypatch.setattr(counting, "_eliminate", no_count)
    with pytest.raises(homlab.PreconditionError, match=f"key {vertex} "):
        counting.count_by_images(fixture_bigraph("p4"), fixture_bigraph("p3"), blocks)


def test_onto_counts_match_surjections():
    for t in range(13):
        assert counting._onto_counts(t, 12) == [counting.surjection_count(t, k) for k in range(13)]


def test_keyed_count_at_paper_scale_matches_closed_forms(monkeypatch):
    # (27, 36) are params_from_scale's sizes for case1 and K(1,1) at n = 3
    h, a, b, copies = fixture_bigraph("case1"), 27, 36, 3
    g = build_kab_gamma_gadget(K11, K11, EMPTY, GadgetParams(a=a, b=b, copies_gamma=copies))
    want = {}
    for lmask in range(1, 1 << h.lsize):
        joint = (1 << h.rsize) - 1
        for i in iter_bits(lmask):
            joint &= h.left_adj[i]
        # the phase (lmask, rmask) for every rmask inside the joint neighbourhood
        rmask = joint
        while rmask:
            # each K(1,1) copy: a left vertex seeing all of rmask, and one of its edges
            zeta = sum(row.bit_count() for row in h.left_adj if not rmask & ~row)
            if zeta:
                want[((lmask, rmask),)] = (counting.surjection_count(a, lmask.bit_count())
                                           * counting.surjection_count(b, rmask.bit_count())
                                           * zeta ** (copies + 1))
            rmask = (rmask - 1) & joint

    def no_surjections(*args):
        raise AssertionError("the keyed count called surjection_count")

    monkeypatch.setattr(counting, "surjection_count", no_surjections)
    start = time.perf_counter()
    got = counting.count_by_images(h, g, [(range(a), range(b))])
    assert time.perf_counter() - start < 1.0
    assert got == want


def test_kab_phase_table_exact_at_n2_sizes():
    # (4, 6) are params_from_scale's sizes for case1 and K(1,1) at n = 2
    rep = phase_decompose_kab(fixture_bigraph("case1"), K11, K11, EMPTY,
                              GadgetParams(a=4, b=6, copies_gamma=1))
    assert rep.exact
