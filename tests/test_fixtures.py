import hashlib
import os
from importlib import resources

import pytest

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


# name, kind and the SHA-256 of the text of every fixture, in registry order;
# toy's graph lines are also pinned on their own, apart from its header comment
REGISTRY = [
    ("case1", "bigraph", "17da0f20381dc2c2c28c85feeb1db294ac8e340659e27e924b61eae3723f1d82"),
    ("case3", "bigraph", "90e926a34269838d58f1025b6b6f2a54c0300830425637f76181ff96dc64c540"),
    ("coexistence", "bigraph", "ba74a607b50678c65ead8d1b3744ba6606d7c404bb9d0fdaf39deaf646892ced"),
    ("toy", "graph", "952e46b12643dc6cadf086f77b330b0d760198882e15bfeacb05eb0385303c9d"),
    ("h_is", "graph", "2df2dc551fd96b0bc5385b80f24a92d5b80747545fa73ee25ea6d498d9c7dde7"),
    ("triangle", "graph", "0f496256e5c860fc5d9ad0abb19221672da7f8b318bbe47ef954befdbe95058b"),
    ("p3_plain", "graph", "960f9bc4eab5184c87120210592de93c7c19d47a7e37fc4abe68299f314d97d5"),
    ("p3", "bigraph", "e7e5dbe1c4e3e5b5bef1502a14f9dc629c25305b35d0a58f5d31854e5bb7b862"),
    ("p4", "bigraph", "3d9e9b26075824e86e2befd5b49c42e4c482f9eadd10e2b3850ce245945993c9"),
    ("k11", "bigraph", "c6544c0a25369e75e16426ce7ae3a2afacc1fbc60ec945c66de8b01061304616"),
    ("two_k11", "bigraph", "687f405345b1f9ac2d066a79214e46966262d387cd55c3d59ebfb0a36019e7ad"),
]


def test_registry_is_pinned():
    assert [
        (name, f.kind, hashlib.sha256(f.text.encode("utf-8")).hexdigest())
        for name, f in FIXTURES.items()
    ] == REGISTRY
    assert all(name == f.name for name, f in FIXTURES.items())


def test_toy_graph_lines_are_unchanged():
    body = [line for line in FIXTURES["toy"].text.splitlines() if not line.startswith("#")]
    assert body == ["graph 5", "1 1", "2 2", "3 3", "4 4", "1 2", "2 3", "3 4", "1 4",
                    "0 1", "0 2", "0 3", "0 4"]


def test_every_data_file_is_registered():
    files = {
        p.name for p in resources.files("homlab").joinpath("data").iterdir()
        if p.name.endswith((".graph", ".bigraph"))
    }
    assert len(files) == len(FIXTURES)
    for name, f in FIXTURES.items():
        assert ("p3" if name == "p3_plain" else name) + "." + f.kind in files


@pytest.mark.parametrize("load, name, kind", [
    (fixture_graph, "p3", "bigraph"),
    (fixture_bigraph, "toy", "graph"),
    (fixture_bigraph, "p3_plain", "graph"),
])
def test_wrong_kind_is_refused_naming_it(load, name, kind):
    with pytest.raises(ValueError, match=f"^fixture {name} is a {kind}$"):
        load(name)
