"""Canonical labelling against the permutation scans it replaced.

The oracles below are the old ``canonical_form`` and ``colour_iso``: they
try every row order that respects the degree refinement classes, so they
cost the product of the class factorials.  The level-by-level search must
give the same bytes on every input, and a witness that really is an
isomorphism; the work budget must stop it on large symmetric inputs.
"""

import itertools
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import homlab
from homlab.cli import EXIT_PRECONDITION
from homlab.distinguisher import build_selector
from homlab.graphs import (
    TwoColouredGraph,
    WorkBudgetExceeded,
    _labelled_bigraphs,
    canonical_form,
    canonical_two_coloured,
    colour_classes,
    colour_iso,
    disjoint_union,
    iter_bits,
    refined_keys,
)
from homlab.structure import PreconditionError

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
ORACLE_ORDERS = 5040


# ---------------------------------------------------------------------------
# Oracles: the permutation scans
# ---------------------------------------------------------------------------

def _oracle_refined_keys(g):
    """Iterated degree refinement as first written: L ranks after at most l + r rounds."""
    lkey = [m.bit_count() for m in g.left_adj]
    rkey = [m.bit_count() for m in g.right_adj]
    for _ in range(g.lsize + g.rsize):
        nl = [(lkey[i], tuple(sorted(rkey[j] for j in iter_bits(g.left_adj[i]))))
              for i in range(g.lsize)]
        nr = [(rkey[j], tuple(sorted(lkey[i] for i in iter_bits(g.right_adj[j]))))
              for j in range(g.rsize)]
        lranks = {k: r for r, k in enumerate(sorted(set(nl)))}
        rranks = {k: r for r, k in enumerate(sorted(set(nr)))}
        nl2 = [lranks[k] for k in nl]
        nr2 = [rranks[k] for k in nr]
        if nl2 == lkey and nr2 == rkey:
            break
        lkey, rkey = nl2, nr2
    return lkey


def _oracle_classes(g):
    keys = _oracle_refined_keys(g)
    classes = {}
    for i in range(g.lsize):
        classes.setdefault(keys[i], []).append(i)
    return [classes[k] for k in sorted(classes)]


def _class_orders(g):
    return math.prod(math.factorial(len(c)) for c in _oracle_classes(g))


def _oracle_row_string(g, lorder):
    cols = sorted(tuple((g.right_adj[j] >> i) & 1 for i in lorder) for j in range(g.rsize))
    return tuple(col[row] for row in range(g.lsize) for col in cols)


def _oracle_canonical_form(g):
    """The least row string over every class-respecting row order, packed."""
    best = min(
        _oracle_row_string(g, [v for part in parts for v in part])
        for parts in itertools.product(*(itertools.permutations(c) for c in _oracle_classes(g)))
    )
    payload = bytearray(g.lsize.to_bytes(2, "big") + g.rsize.to_bytes(2, "big"))
    for k in range(0, len(best), 8):
        chunk = best[k:k + 8]
        payload.append(int("".join(map(str, chunk)), 2) << (8 - len(chunk)))
    return bytes(payload)


def _oracle_colour_iso(g1, g2):
    """First class-respecting bijection of the L sides whose columns then match."""
    if (g1.lsize, g1.rsize, len(g1.edges)) != (g2.lsize, g2.rsize, len(g2.edges)):
        return None
    k1, k2 = _oracle_refined_keys(g1), _oracle_refined_keys(g2)
    c1, c2 = {}, {}
    for i in range(g1.lsize):
        c1.setdefault(k1[i], []).append(i)
        c2.setdefault(k2[i], []).append(i)
    if {k: len(v) for k, v in c1.items()} != {k: len(v) for k, v in c2.items()}:
        return None
    keys = sorted(c1)
    for choice in itertools.product(*(itertools.permutations(c2[k]) for k in keys)):
        sigma_l = [0] * g1.lsize
        for k, images in zip(keys, choice):
            for src, dst in zip(c1[k], images):
                sigma_l[src] = dst
        want = {}
        for j in range(g2.rsize):
            want.setdefault(tuple((g2.right_adj[j] >> i) & 1 for i in sigma_l), []).append(j)
        sigma_r = []
        for j in range(g1.rsize):
            bucket = want.get(tuple((g1.right_adj[j] >> i) & 1 for i in range(g1.lsize)))
            if not bucket:
                break
            sigma_r.append(bucket.pop())
        else:
            return tuple(sigma_l), tuple(sigma_r)
    return None


# ---------------------------------------------------------------------------
# Strategies and helpers
# ---------------------------------------------------------------------------

@st.composite
def bigraphs(draw, max_side):
    lsize = draw(st.integers(0, max_side))
    rsize = draw(st.integers(0, max_side))
    cells = list(itertools.product(range(lsize), range(rsize)))
    edges = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    return TwoColouredGraph(lsize, rsize, edges)


def _relabel(g, pl, pr):
    return TwoColouredGraph(g.lsize, g.rsize, [(pl[i], pr[j]) for i, j in g.edges])


def _assert_isomorphism(g1, g2, witness):
    sigma_l, sigma_r = witness
    assert sorted(sigma_l) == list(range(g1.lsize))
    assert sorted(sigma_r) == list(range(g1.rsize))
    assert {(sigma_l[i], sigma_r[j]) for i, j in g1.edges} == g2.edges


def _cycle(n):
    """The 2n-cycle as an n+n bigraph."""
    return TwoColouredGraph(n, n, [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)])


def _matching(n):
    return TwoColouredGraph(n, n, [(i, i) for i in range(n)])


def _star(leaves):
    return TwoColouredGraph(leaves, 1, [(i, 0) for i in range(leaves)])


# ---------------------------------------------------------------------------
# Same bytes as the oracle
# ---------------------------------------------------------------------------

def test_refined_keys_match_oracle_exhaustive():
    for lsize, rsize in itertools.product(range(5), repeat=2):
        if lsize * rsize <= 12:
            for g in _labelled_bigraphs(lsize, rsize):
                assert refined_keys(g)[0] == _oracle_refined_keys(g), g


def _is_equitable(g, lkey, rkey):
    """Vertices of one colour have equal multisets of neighbour colours."""
    seen = {}
    for side, keys, rows, other in (("L", lkey, g.left_adj, rkey), ("R", rkey, g.right_adj, lkey)):
        for v, row in enumerate(rows):
            nbrs = sorted(other[w] for w in iter_bits(row))
            if seen.setdefault((side, keys[v]), nbrs) != nbrs:
                return False
    return True


def test_refined_keys_are_equitable_unless_stopped_on_l_singletons():
    stable = 0
    for lsize, rsize in itertools.product(range(5), repeat=2):
        if lsize * rsize <= 12:
            for g in _labelled_bigraphs(lsize, rsize):
                lkey, rkey = refined_keys(g)
                assert len(rkey) == rsize and sorted(set(rkey)) == list(range(len(set(rkey))))
                # with one L vertex or none the degree ranks are already stable
                if len(set(lkey)) < lsize or lsize <= 1:
                    assert _is_equitable(g, lkey, rkey), g
                    stable += 1
    assert stable > 5000  # 5729 of the 9427 graphs


def test_canonical_form_matches_oracle_exhaustive():
    # every labelled bigraph with sides up to 4 and at most 12 edge cells
    seen = 0
    for lsize, rsize in itertools.product(range(5), repeat=2):
        if lsize * rsize <= 12:
            for g in _labelled_bigraphs(lsize, rsize):
                assert canonical_form(g) == _oracle_canonical_form(g), g
                seen += 1
    assert seen == 9427


@PROPERTY
@given(bigraphs(7))
def test_canonical_form_matches_oracle(g):
    assume(_class_orders(g) <= ORACLE_ORDERS)
    assert canonical_form(g) == _oracle_canonical_form(g)


def test_canonical_form_matches_oracle_seeded():
    # denser and more symmetric graphs than the shrinking strategy favours
    rng = random.Random(20261018)
    checked = 0
    while checked < 300:
        lsize, rsize, p = rng.randint(1, 7), rng.randint(1, 7), rng.random()
        g = TwoColouredGraph(lsize, rsize, [(i, j) for i in range(lsize) for j in range(rsize)
                                            if rng.random() < p])
        if _class_orders(g) <= ORACLE_ORDERS:
            assert canonical_form(g) == _oracle_canonical_form(g), g
            checked += 1


def test_canonical_form_on_symmetric_unions():
    # cycles, cycle unions, stars and matchings: the shapes whose refinement
    # classes are largest
    for g in (_cycle(6), disjoint_union([_cycle(3), _cycle(3)]), _star(6), _matching(6)):
        assert canonical_form(g) == _oracle_canonical_form(g)


# ---------------------------------------------------------------------------
# colour_iso
# ---------------------------------------------------------------------------

@PROPERTY
@given(bigraphs(7), st.data())
def test_colour_iso_maps_relabelling_edges_onto_edges(g, data):
    pl = data.draw(st.permutations(range(g.lsize)))
    pr = data.draw(st.permutations(range(g.rsize)))
    g2 = _relabel(g, pl, pr)
    witness = colour_iso(g, g2)
    assert witness is not None
    _assert_isomorphism(g, g2, witness)


@PROPERTY
@given(bigraphs(3), bigraphs(3))
def test_colour_iso_none_exactly_when_forms_differ(g1, g2):
    witness = colour_iso(g1, g2)
    assert (witness is None) == (canonical_form(g1) != canonical_form(g2))
    assert (witness is None) == (_oracle_colour_iso(g1, g2) is None)
    if witness is not None:
        _assert_isomorphism(g1, g2, witness)


def test_colour_iso_same_degrees_not_isomorphic():
    # refinement cannot split these pairs; only the search tells them apart
    pairs = [
        (_cycle(6), disjoint_union([_cycle(3), _cycle(3)])),
        (_cycle(7), disjoint_union([_cycle(3), _cycle(4)])),
        (_cycle(8), disjoint_union([_cycle(4), _cycle(4)])),
    ]
    for g1, g2 in pairs:
        assert colour_iso(g1, g2) is None
        assert colour_iso(g2, g1) is None
    assert _oracle_colour_iso(*pairs[0]) is None


def test_colour_iso_large_relabelled_union():
    rng = random.Random(7)
    g = disjoint_union([_cycle(5), _cycle(5), _matching(3)])
    pl, pr = list(range(g.lsize)), list(range(g.rsize))
    rng.shuffle(pl)
    rng.shuffle(pr)
    g2 = _relabel(g, pl, pr)
    _assert_isomorphism(g, g2, colour_iso(g, g2))


# ---------------------------------------------------------------------------
# Row-by-row comparison against whole forms
# ---------------------------------------------------------------------------

def _comparison_pool():
    """Every class with at most 7 vertices, the cycles, cycle unions and stars
    K(l,1), l <= 8, that the benchmark separates, and one or two relabelled
    copies of each, shuffled by a fixed seed."""
    shapes = list(canonical_two_coloured(7))
    shapes += [_cycle(n) for n in (5, 6, 7, 8)]
    shapes += [disjoint_union([_cycle(a), _cycle(b)]) for a, b in ((2, 3), (3, 3), (2, 4), (3, 4), (2, 5))]
    shapes += [_star(leaves) for leaves in (5, 6, 7, 8)]
    rng = random.Random(20261020)
    pool = []
    for g in shapes:
        pool.append(g)
        for _ in range(rng.randint(1, 2)):
            pool.append(_relabel(g, rng.sample(range(g.lsize), g.lsize),
                                 rng.sample(range(g.rsize), g.rsize)))
    rng.shuffle(pool)
    return pool


def test_colour_classes_equal_grouping_by_whole_form():
    pool = _comparison_pool()
    by_form = {}
    for i, g in enumerate(pool):
        by_form.setdefault(canonical_form(g), []).append(i)
    assert len(by_form) == 422 + 11  # K(5,1) and K(6,1) have at most 7 vertices
    assert colour_classes(pool) == list(by_form.values())


def test_colour_iso_none_exactly_when_whole_forms_differ():
    # every pair that shares sides and edge count, so the precheck decides none
    pool = _comparison_pool()
    groups = {}
    for g in pool:
        groups.setdefault((g.lsize, g.rsize, len(g.edges)), []).append(g)
    outcomes = set()
    for members in groups.values():
        for g1, g2 in itertools.combinations(members, 2):
            witness = colour_iso(g1, g2)
            assert (witness is None) == (canonical_form(g1) != canonical_form(g2))
            if witness is not None:
                _assert_isomorphism(g1, g2, witness)
            outcomes.add(witness is None)
    assert outcomes == {True, False}


def test_comparison_that_stops_early_charges_only_its_rows(monkeypatch):
    # C12 and C6+C6 differ on the second row, after 84 candidate rows per search;
    # C12's whole search is refused when it reaches 120
    c12, c6c6 = _cycle(6), disjoint_union([_cycle(3), _cycle(3)])
    monkeypatch.setenv("HOMLAB_MAX_WORK", "100")
    assert colour_iso(c12, c6c6) is None
    assert colour_iso(c6c6, c12) is None
    with pytest.raises(WorkBudgetExceeded) as exc:
        canonical_form(c12)
    assert str(exc.value) == (
        "canonical labelling reached 120 candidate rows, budget is 100 "
        "(override with HOMLAB_MAX_WORK)"
    )
    with pytest.raises(WorkBudgetExceeded, match="reached 120 candidate rows"):
        colour_classes([c12, _relabel(c12, [1, 0, 2, 3, 4, 5], list(range(6)))])


# ---------------------------------------------------------------------------
# Identity checks by form
# ---------------------------------------------------------------------------

def test_selector_names_least_isomorphic_pair():
    # forms X, Y, Z, Y, X: the least a is 0, then the least b is 4, not (1, 3);
    # Z shares its sizes and edge count with no other target
    x = TwoColouredGraph(1, 1, [(0, 0)])
    y = TwoColouredGraph(1, 2, [(0, 0), (0, 1)])
    z = TwoColouredGraph(2, 2, [(0, 0)])
    x2 = TwoColouredGraph(1, 1, [(0, 0)])
    y2 = TwoColouredGraph(1, 2, [(0, 1), (0, 0)])
    with pytest.raises(PreconditionError, match="targets 0 and 4 are colour-isomorphic"):
        build_selector([x, y, z, y2, x2])
    with pytest.raises(PreconditionError, match="targets 1 and 3 are colour-isomorphic"):
        build_selector([x, y, z, y2])
    # same sizes and edge count, different forms: no refusal
    matching = TwoColouredGraph(2, 2, [(0, 0), (1, 1)])
    cherry = TwoColouredGraph(2, 2, [(0, 0), (0, 1)])
    assert build_selector([matching, cherry, z]).counts


# ---------------------------------------------------------------------------
# The work budget
# ---------------------------------------------------------------------------

def test_search_fits_budget_on_symmetric_inputs(monkeypatch):
    # K(9,1), C16 against C8+C8 and 10K2 were 9!, 8! and 10! scans
    monkeypatch.setenv("HOMLAB_MAX_WORK", "100000")
    assert canonical_form(_star(9)) == bytes([0, 9, 0, 1, 0xFF, 0x80])
    assert colour_iso(_cycle(8), disjoint_union([_cycle(4), _cycle(4)])) is None
    g = _matching(10)
    perm = list(range(10))
    random.Random(3).shuffle(perm)
    g2 = _relabel(g, perm, perm[::-1])
    assert canonical_form(g) == canonical_form(g2)
    _assert_isomorphism(g, g2, colour_iso(g, g2))


def test_search_refuses_over_budget(monkeypatch):
    monkeypatch.setenv("HOMLAB_MAX_WORK", "1000")
    with pytest.raises(WorkBudgetExceeded, match="budget is 1000 ") as exc:
        canonical_form(_matching(10))
    reached = int(str(exc.value).split("reached ")[1].split()[0])
    assert reached > 1000
    monkeypatch.delenv("HOMLAB_MAX_WORK")
    assert canonical_form(_matching(10))


def test_search_with_one_candidate_per_level_is_never_charged(monkeypatch):
    # distinct degrees make every refinement class a singleton: four forced rows
    staircase = TwoColouredGraph.from_rows(4, 4, [1, 3, 7, 15])
    monkeypatch.setenv("HOMLAB_MAX_WORK", "1")
    assert canonical_form(staircase) == bytes([0, 4, 0, 4, 0x13, 0x7F])


def test_search_budget_admits_its_own_value(monkeypatch):
    # K(2,1): one level of two twin candidates is charged, the forced level after it is not
    cherry = TwoColouredGraph.from_rows(2, 1, [1, 1])
    monkeypatch.setenv("HOMLAB_MAX_WORK", "2")
    assert canonical_form(cherry) == bytes([0, 2, 0, 1, 0xC0])
    monkeypatch.setenv("HOMLAB_MAX_WORK", "1")
    with pytest.raises(WorkBudgetExceeded, match="reached 2 candidate rows, budget is 1 "):
        canonical_form(cherry)


def test_cli_distinguish_over_budget_has_no_traceback(tmp_path):
    files = []
    for name, g in (("c16", _cycle(8)), ("c8c8", disjoint_union([_cycle(4), _cycle(4)]))):
        path = tmp_path / f"{name}.bigraph"
        path.write_text(g.to_text())
        files += ["--target", str(path)]
    src = os.path.dirname(os.path.dirname(homlab.__file__))
    env = dict(os.environ, HOMLAB_MAX_WORK="20", PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "homlab.cli", "distinguish", *files],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_PRECONDITION
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: canonical labelling reached ")
