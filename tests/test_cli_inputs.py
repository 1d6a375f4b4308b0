"""Every subcommand, fed random bytes, random headers and small random graphs.

The CLI's contract: any input file ends in a documented exit code with, at
most, an ``error:`` line on stderr, never a traceback.  Sizes stay small (at
most 4 vertices a side, 5 plain vertices, ``--bound`` at most 2) so that no
case allocates much or runs long.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homlab.cli import (
    EXIT_INTERRUPTED,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)
from homlab.fixtures import fixture_path
from homlab.graphs import Graph, TwoColouredGraph

DOCUMENTED = {EXIT_OK, EXIT_VERIFY, EXIT_PARSE, EXIT_USAGE, EXIT_PRECONDITION, EXIT_INVARIANT,
              EXIT_INTERRUPTED}
SMALL = st.integers(min_value=-1, max_value=5)


@st.composite
def bigraph_texts(draw):
    """A bigraph, often with left and right vertex 0 full, as the analyses need."""
    lsize, rsize = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    pairs = [(i, j) for i in range(lsize) for j in range(rsize)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        edges += [(i, j) for i, j in pairs if i == 0 or j == 0]
    return TwoColouredGraph(lsize, rsize, edges).to_text()


@st.composite
def graph_texts(draw):
    n = draw(st.integers(0, 5))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges).to_text()


@st.composite
def header_texts(draw):
    """A header of either kind or none, small sizes, then small edge lines."""
    word = draw(st.sampled_from(["bigraph", "graph", "digraph", "#", ""]))
    sizes = draw(st.lists(SMALL, max_size=3))
    edges = draw(st.lists(st.tuples(SMALL, SMALL), max_size=6))
    lines = [" ".join([word, *map(str, sizes)])] + [f"{u} {v}" for u, v in edges]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n0\n", "\n1 x\n"]))


def _bundled(name):
    with open(fixture_path(name), "rb") as fh:
        return fh.read()


# the bundled inputs within the size limits
BUNDLED = [_bundled(name) for name in (
    "coexistence.bigraph", "p4.bigraph", "p3.bigraph", "k11.bigraph", "two_k11.bigraph",
    "toy.graph", "h_is.graph", "triangle.graph", "p3.graph",
)]

# well-formed graphs weigh more, so that most subcommands also get past parsing
INPUTS = st.one_of(
    st.binary(max_size=40),
    header_texts().map(str.encode),
    bigraph_texts().map(str.encode),
    bigraph_texts().map(str.encode),
    graph_texts().map(str.encode),
    st.sampled_from(BUNDLED),
    st.sampled_from(BUNDLED),
)

K11 = fixture_path("k11.bigraph")


def _argvs(draw, path, other):
    """One subcommand call that reads ``path`` (and ``other``, a second input)."""
    small = st.integers(0, 2)
    kind = draw(st.sampled_from(["kab", "bis", "col"]))
    gadget = ["gadget", "--kind", kind, "--target", path, "--gprime", other]
    if kind == "col":
        gadget += ["--size-a", str(draw(small)), "--size-b", str(draw(small)),
                   "--j", K11, "--copies-j", str(draw(st.integers(0, 1)))]
    else:
        gadget += ["-a", str(draw(small)), "-b", str(draw(small)),
                   "--gamma-graph", K11, "--copies-gamma", str(draw(st.integers(0, 1)))]
    mode = draw(st.sampled_from(["col", "fixcol", "inj"]))
    return draw(st.sampled_from([
        ["count", "--mode", mode, "--target", path, "--instance", other],
        ["count", "--mode", "bis", "--instance", path],
        ["analyze", "--target", path],
        ["analyze", "--target", path, "--gamma-graph", other],
        ["classify", "--target", path, "--bound", str(draw(st.integers(0, 2)))],
        ["distinguish", "--target", path, "--target", other],
        ["reduce", "--target", path],
        gadget,
        gadget + ["--build-only"],
        ["verify-paper", "--filter", "no-such-group-" + draw(st.text(max_size=5))],
    ]))


@settings(max_examples=500, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(INPUTS, INPUTS, st.data())
def test_every_subcommand_exits_with_a_documented_code(first, second, data):
    with tempfile.TemporaryDirectory() as tmp:
        path, other = os.path.join(tmp, "first"), os.path.join(tmp, "second")
        with open(path, "wb") as fh:
            fh.write(first)
        with open(other, "wb") as fh:
            fh.write(second)
        argv = _argvs(data.draw, path, other)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in DOCUMENTED, (argv, first, second, code)
    # no program fault: an invariant break or an interrupt is not an input error
    assert code not in (EXIT_INVARIANT, EXIT_INTERRUPTED), (argv, first, second, err.getvalue())
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
