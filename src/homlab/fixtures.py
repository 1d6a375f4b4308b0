"""Bundled fixture graphs: the worked examples and the small targets around them.

Each fixture is one file in ``homlab/data``: the extension gives its kind and
the stem its name, except that the plain ``p3.graph`` is ``p3_plain`` beside
the 2-coloured ``p3``.  The header comment of each file is its description.
The fixtures carry no expected values; the checks in `verify` state the
numbers they compare against.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from .graphs import Graph, TwoColouredGraph, parse_bigraph, parse_graph

_FILES = (
    "case1.bigraph", "case3.bigraph", "coexistence.bigraph", "toy.graph", "h_is.graph",
    "triangle.graph", "p3.graph", "p3.bigraph", "p4.bigraph", "k11.bigraph", "two_k11.bigraph",
)


@dataclass(frozen=True)
class Fixture:
    name: str
    kind: str  # "graph" | "bigraph"
    text: str


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture file (for CLI invocations)."""
    return str(resources.files("homlab").joinpath("data", name))


FIXTURES = {
    fx.name: fx
    for fx in (
        Fixture(
            name="p3_plain" if filename == "p3.graph" else filename.split(".")[0],
            kind=filename.split(".")[1],
            text=resources.files("homlab").joinpath("data", filename).read_text(encoding="utf-8"),
        )
        for filename in _FILES
    )
}


def _fixture_text(name: str, kind: str) -> str:
    f = FIXTURES[name]
    if f.kind != kind:
        raise ValueError(f"fixture {name} is a {f.kind}")
    return f.text


def fixture_graph(name: str) -> Graph:
    return parse_graph(_fixture_text(name, "graph"))


def fixture_bigraph(name: str) -> TwoColouredGraph:
    return parse_bigraph(_fixture_text(name, "bigraph"))
