"""Bundled fixture graphs: the worked examples and the small targets around them.

The fixtures carry no expected values; the checks in `verify` state the
numbers they compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .graphs import Graph, TwoColouredGraph, parse_bigraph, parse_graph


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str  # "graph" | "bigraph"
    text: str
    description: str


def _load(name: str) -> str:
    return (
        resources.files("homlab").joinpath("data", name).read_text(encoding="utf-8")
    )


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture file (for CLI invocations)."""
    return str(resources.files("homlab").joinpath("data", name))


def _fixture(name: str, kind: str, filename: str, description: str) -> Fixture:
    return Fixture(name=name, kind=kind, text=_load(filename), description=description)


def load_fixtures() -> dict[str, Fixture]:
    fx = [
        _fixture(
            "case1",
            "bigraph",
            "case1.bigraph",
            "9+9 target whose single-edge decoration yields a strict non-extremal winner",
        ),
        _fixture(
            "case3",
            "bigraph",
            "case3.bigraph",
            "case1 plus edges (4,4),(5,5); extremal pair dominates every decoration seen",
        ),
        _fixture(
            "coexistence",
            "bigraph",
            "coexistence.bigraph",
            "4+4 target where extremal and non-extremal bicliques tie for every decoration",
        ),
        _fixture(
            "toy",
            "graph",
            "toy.graph",
            "4-regular hub-and-looped-rim graph; its top-degree edge pairs form one "
            "edge-neighbourhood class, with lambda* = 20",
        ),
        _fixture(
            "h_is",
            "graph",
            "h_is.graph",
            "looped vertex plus pendant; counts independent sets",
        ),
        _fixture(
            "triangle",
            "graph",
            "triangle.graph",
            "K3; counts proper 3-colourings",
        ),
        _fixture("p3_plain", "graph", "p3.graph", "plain path on 3 vertices"),
        _fixture(
            "p3",
            "bigraph",
            "p3.bigraph",
            "2-coloured path on 3 vertices, centre on L",
        ),
        _fixture(
            "p4",
            "bigraph",
            "p4.bigraph",
            "2-coloured path on 4 vertices; the smallest full non-trivial target",
        ),
        _fixture("k11", "bigraph", "k11.bigraph", "a single 2-coloured edge"),
        _fixture("two_k11", "bigraph", "two_k11.bigraph", "two disjoint edges"),
    ]
    return {f.name: f for f in fx}


FIXTURES = load_fixtures()


def fixture_graph(name: str) -> Graph:
    f = FIXTURES[name]
    if f.kind != "graph":
        raise ValueError(f"fixture {name} is a {f.kind}")
    return parse_graph(f.text)


def fixture_bigraph(name: str) -> TwoColouredGraph:
    f = FIXTURES[name]
    if f.kind != "bigraph":
        raise ValueError(f"fixture {name} is a {f.kind}")
    return parse_bigraph(f.text)
