import os

from homlab.fixtures import (
    FIXTURES,
    fixture_bigraph,
    fixture_graph,
    fixture_path,
)
from homlab.graphs import Graph, TwoColouredGraph


def test_registry_parses():
    for name, f in FIXTURES.items():
        if f.kind == "graph":
            g = fixture_graph(name)
            assert isinstance(g, Graph)
        else:
            g = fixture_bigraph(name)
            assert isinstance(g, TwoColouredGraph)


def test_frozen_edge_counts():
    assert len(fixture_bigraph("case1").edges) == 27
    assert len(fixture_bigraph("case3").edges) == 29
    assert len(fixture_bigraph("coexistence").edges) == 9
    assert len(fixture_graph("toy").edges) == 12


def test_case_fixtures_differ_only_by_two_edges():
    extra = fixture_bigraph("case3").edges - fixture_bigraph("case1").edges
    assert extra == frozenset({(4, 4), (5, 5)})


def test_toy_is_regular():
    toy = fixture_graph("toy")
    assert {toy.degree(v) for v in range(toy.n)} == {4}


def test_fixture_paths_exist():
    for name, f in FIXTURES.items():
        suffix = ".graph" if f.kind == "graph" else ".bigraph"
        stem = {
            "p3_plain": "p3.graph",
            "p3": "p3.bigraph",
        }.get(name)
        if stem is None:
            stem = name + suffix
        assert os.path.exists(fixture_path(stem))
