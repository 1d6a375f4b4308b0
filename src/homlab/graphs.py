"""Graph types, parsing, constructions and canonical forms.

Two kinds of objects live here.  A ``Graph`` is a plain undirected graph on
vertices 0..n-1; self-loops are allowed, parallel edges are not.  A
``TwoColouredGraph`` is a bipartite graph whose (L, R) part labelling is part
of the object: vertex identity is (side, index) and all mappings between such
graphs are required to respect sides.  A plain graph becomes a 2-coloured
one through its bipartite double cover (``bip_double_cover``).

Everything is immutable and pure.  A graph is its adjacency masks: bit v
of row u marks the edge (u, v), a degree is the ``bit_count()`` of a row,
and equality and hashing read the rows.  ``edges`` is a frozenset made from
the rows on each read, for the parsers' callers, ``to_text`` and the
enumerating oracles.  The constructions write rows
(``TwoColouredGraph.from_rows``), so a K(a,b) block is ``a`` copies of one
row and costs no edge list.  The work budget (``HOMLAB_MAX_WORK``) lives
here because the canonical search, the counters and the gadget builders
charge it; a value that is not an integer raises ``ValueError``.

The class enumeration builds each (lsize, rsize) shape's class list in two
halves, cached apart: the classes with at most one component, which the
separator walks read, and the rest.  Each labelled graph it examines has its
components counted once and is canonicalised once, by the first request for
its half.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import os
from typing import Iterable, Iterator, Sequence


DEFAULT_WORK_BUDGET = 10**9
WORK_BUDGET_ENV = "HOMLAB_MAX_WORK"
# the largest side that biclique enumeration takes, that count_fixcol's memo and
# counting._inj_target admit, and half the vertices that counting._cached_order admits
BICLIQUE_SIDE_GUARD = 20


class ParseError(ValueError):
    """Raised when a graph file does not conform to the text format."""


class PreconditionError(ValueError):
    """An operation was called on an input outside its contract."""


class WorkBudgetExceeded(RuntimeError):
    """A computation would exceed, or has exceeded, the configured work budget."""


def work_budget() -> int:
    raw = os.environ.get(WORK_BUDGET_ENV)
    if raw is None:
        return DEFAULT_WORK_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{WORK_BUDGET_ENV} must be an integer, got {raw!r}") from None


def over_budget(work: str, budget: int) -> WorkBudgetExceeded:
    """The refusal of ``work`` (what it counted, and how much) past ``budget``."""
    return WorkBudgetExceeded(f"{work}, budget is {budget} (override with {WORK_BUDGET_ENV})")


def over_estimate(estimate: int, what: str, unit: str, budget: int) -> WorkBudgetExceeded:
    """The refusal of ``what``, estimated at ``estimate`` ``unit``, past ``budget``.

    The estimate prints in full up to 30 digits and as ``10^k`` past that,
    with k from ``math.log10``: ``str`` of an int past 4300 digits raises
    ``ValueError``.
    """
    n = str(estimate) if estimate < 10**30 else f"10^{math.floor(math.log10(estimate))}"
    return over_budget(f"{what} needs ~{n} {unit}", budget)


def check_estimate(estimate: int, what: str, unit: str) -> None:
    """Refuse ``what`` before it starts when its estimate, in ``unit``, is over the budget."""
    budget = work_budget()
    if estimate > budget:
        raise over_estimate(estimate, what, unit, budget)


def iter_bits(mask: int) -> Iterator[int]:
    """Indexes of the set bits of a non-negative mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _component_masks(adj: Sequence[int]) -> list[int]:
    """Vertex masks of the connected components, by their least vertex."""
    comps = []
    seen = 0
    for s in range(len(adj)):
        if seen >> s & 1:
            continue
        comp = frontier = 1 << s
        while frontier:
            reach = 0
            for u in iter_bits(frontier):
                reach |= adj[u]
            frontier = reach & ~comp
            comp |= frontier
        seen |= comp
        comps.append(comp)
    return comps


class Graph:
    """Undirected graph; vertices 0..n-1, self-loops allowed, no parallel edges.

    The adjacency masks are the state: bit v of ``adj[u]`` is the edge {u, v}.
    """

    __slots__ = ("n", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._hash = hash((n, self.adj))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as pairs (u, v) with u <= v, made from the masks on each read."""
        return frozenset(_pairs(self.adj, upper=True))

    def degree(self, u: int) -> int:
        # a self-loop contributes exactly 1 (it adds u to its own mask once)
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def components(self) -> list[tuple[int, ...]]:
        return [tuple(iter_bits(comp)) for comp in _component_masks(self.adj)]

    def to_text(self) -> str:
        lines = [f"graph {self.n}"]
        lines += [f"{u} {v}" for u, v in _pairs(self.adj, upper=True)]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(_pairs(self.adj, upper=True))})"


class TwoColouredGraph:
    """Bipartite graph with a fixed (L, R) part labelling.

    Edges are pairs (i, j) with i an L-index and j an R-index, so side-internal
    edges and self-loops are impossible by construction.  The state is the
    row of each L vertex, the mask of its R neighbours (``left_adj``), and
    their transpose (``right_adj``), both set by ``_set`` alone.
    """

    __slots__ = ("lsize", "rsize", "left_adj", "right_adj", "_hash")

    def __init__(self, lsize: int, rsize: int, edges: Iterable[tuple[int, int]]):
        rows = [0] * lsize
        for i, j in edges:
            if not (0 <= i < lsize):
                raise ValueError(f"L index {i} out of range")
            if not (0 <= j < rsize):
                raise ValueError(f"R index {j} out of range")
            rows[i] |= 1 << j
        self._set(lsize, rsize, rows)

    @classmethod
    def from_rows(cls, lsize: int, rsize: int, rows: Iterable[int]) -> TwoColouredGraph:
        """The graph whose L vertex i has the R neighbours of mask ``rows[i]``."""
        g = cls.__new__(cls)
        g._set(lsize, rsize, rows)
        return g

    def _set(self, lsize: int, rsize: int, rows: Iterable[int]) -> None:
        """Set the state from the rows, or raise ``ValueError`` if they leave the sides.

        The columns are the rows' transpose.  Equal rows are grouped first, so
        each distinct row is read bit by bit once: a K(a,b) block costs one.
        Zero rows add no column bit and are skipped, and a group's member
        mask is built in time linear in its last member, not by one OR per
        member into a growing int.
        """
        rows = tuple(rows)
        if lsize < 0 or rsize < 0:
            raise ValueError("side sizes must be non-negative")
        if len(rows) != lsize:
            raise ValueError(f"{len(rows)} rows for {lsize} L vertices")
        if rows and (min(rows) < 0 or max(rows).bit_length() > rsize):
            i = next(i for i, row in enumerate(rows) if row < 0 or row.bit_length() > rsize)
            raise ValueError(f"row {i} is not a mask of the {rsize} R indices")
        members: dict[int, list[int]] = {}
        for i, row in enumerate(rows):
            if row:
                members.setdefault(row, []).append(i)
        cols = [0] * rsize
        for row, group in members.items():
            mask = 1 << group[0] if len(group) == 1 else _mask_of(group)  # one member: no buffer
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= mask
                row ^= low
        self.lsize = lsize
        self.rsize = rsize
        self.left_adj = rows
        self.right_adj = tuple(cols)
        self._hash = hash((lsize, rsize, self.left_adj))

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (L index, R index) pairs, made from the rows on each read."""
        return frozenset(_pairs(self.left_adj))

    @property
    def total(self) -> int:
        return self.lsize + self.rsize

    def isolated_right(self) -> int:
        """The mask of right vertices with no edge: bit j is right vertex j."""
        return sum(1 << j for j, row in enumerate(self.right_adj) if not row)

    def masks(self) -> list[int]:
        """Adjacency masks of all lsize + rsize vertices, L first: R-index j is lsize + j."""
        return [m << self.lsize for m in self.left_adj] + list(self.right_adj)

    def components(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Connected components as (L-indices, R-indices) pairs."""
        l = self.lsize
        masks = _component_masks(self.masks())
        return [(tuple(iter_bits(c & (1 << l) - 1)), tuple(iter_bits(c >> l))) for c in masks]

    def as_graph(self) -> Graph:
        """Forget the colouring, in the layout of ``masks``.

        Nothing in the library calls it: it is the tests' oracle route from a
        2-coloured graph into ``count_col`` and the plain-graph enumerators.
        """
        return Graph(self.total, _pairs(self.masks(), upper=True))

    def to_text(self) -> str:
        lines = [f"bigraph {self.lsize} {self.rsize}"]
        lines += [f"{i} {j}" for i, j in _pairs(self.left_adj)]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, TwoColouredGraph)
            and self.rsize == other.rsize
            and self.left_adj == other.left_adj
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"TwoColouredGraph(lsize={self.lsize}, rsize={self.rsize}, "
            f"edges={list(_pairs(self.left_adj))})"
        )


def _mask_of(indexes: list[int]) -> int:
    """The mask with the bits of the increasing ``indexes``, in time linear in the last one."""
    buf = bytearray((indexes[-1] >> 3) + 1)
    for i in indexes:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _pairs(rows: Sequence[int], upper: bool = False) -> Iterator[tuple[int, int]]:
    """(u, v) for each bit v of each row u, in sorted order; with ``upper``, only v >= u."""
    for u, row in enumerate(rows):
        for v in iter_bits(row >> u << u if upper else row):
            yield u, v


def _edge_count(g: TwoColouredGraph) -> int:
    return sum(row.bit_count() for row in g.left_adj)


# ---------------------------------------------------------------------------
# Text format
# ---------------------------------------------------------------------------

def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _parse(text: str | bytes, kind: str, fields: str) -> tuple[list[int], Iterator]:
    """Header sizes, and the (line number, u, v) edge lines as they are read."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the prefix decodes; the sentinel makes a trailing line break count
            lineno = len((text[: exc.start].decode("utf-8") + ".").splitlines())
            raise ParseError(f"invalid UTF-8, line {lineno}") from None
    lines = _data_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(f"empty input, expected '{kind} {fields}' header") from None
    parts = header.split()
    try:
        if len(parts) != len(fields.split()) + 1 or parts[0] != kind:
            raise ValueError
        sizes = [int(x) for x in parts[1:]]
        if min(sizes) < 0:
            raise ValueError
    except ValueError:
        raise ParseError(f"malformed header, line {lineno}") from None

    def edges():
        for lineno, line in lines:
            try:
                u, v = map(int, line.split())
            except ValueError:
                raise ParseError(f"malformed edge, line {lineno}") from None
            yield lineno, u, v

    return sizes, edges()


def parse_graph(text: str | bytes) -> Graph:
    """Parse the ``graph <n>`` text format; errors carry the offending line number."""
    (n,), lines = _parse(text, "graph", "<n>")
    edges = set()
    for lineno, u, v in lines:
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex index out of range, line {lineno}")
        key = (min(u, v), max(u, v))
        if key in edges:
            raise ParseError(f"duplicate edge, line {lineno}")
        edges.add(key)
    return Graph(n, edges)


def parse_bigraph(text: str | bytes) -> TwoColouredGraph:
    """Parse the ``bigraph <lsize> <rsize>`` text format."""
    (lsize, rsize), lines = _parse(text, "bigraph", "<lsize> <rsize>")
    edges = set()
    for lineno, i, j in lines:
        if not 0 <= i < lsize:
            raise ParseError(f"L index out of range, line {lineno}")
        if not 0 <= j < rsize:
            raise ParseError(f"R index out of range, line {lineno}")
        if (i, j) in edges:
            raise ParseError(f"duplicate edge, line {lineno}")
        edges.add((i, j))
    return TwoColouredGraph(lsize, rsize, edges)


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def bip_double_cover(h: Graph) -> TwoColouredGraph:
    """Bipartite double cover: L = R = V(h); (u, v) is a cover edge iff {u,v} in E(h).

    A non-loop edge {u,v} yields the two cover edges (u,v) and (v,u); a
    self-loop {u,u} yields the single edge (u,u).
    """
    return TwoColouredGraph.from_rows(h.n, h.n, h.adj)


def tensor(h1: TwoColouredGraph, h2: TwoColouredGraph) -> TwoColouredGraph:
    """Side-respecting tensor product: L = L1 x L2, R = R1 x R2.

    ((a,b),(c,d)) is an edge iff (a,c) in E(h1) and (b,d) in E(h2).  Pairs are
    indexed row-major: (a,b) -> a*|L2|+b.
    """
    rows = []
    for row1 in h1.left_adj:
        for row2 in h2.left_adj:
            row = 0
            for c in iter_bits(row1):
                row |= row2 << c * h2.rsize
            rows.append(row)
    return TwoColouredGraph.from_rows(h1.lsize * h2.lsize, h1.rsize * h2.rsize, rows)


def _check_partition(parts: Sequence[Iterable[int]], size: int, label: str) -> list[tuple[int, ...]]:
    norm = [tuple(sorted(p)) for p in parts]
    seen: set[int] = set()
    for p in norm:
        for v in p:
            if not 0 <= v < size:
                raise ValueError(f"{label} partition uses out-of-range index {v}")
            if v in seen:
                raise ValueError(f"{label} partition repeats index {v}")
            seen.add(v)
    if len(seen) != size:
        raise ValueError(f"{label} partition does not cover all indices")
    return norm


def quotient(
    g: TwoColouredGraph,
    theta_l: Sequence[Iterable[int]],
    theta_r: Sequence[Iterable[int]],
) -> TwoColouredGraph:
    """Contract every part of the two partitions; duplicate edges collapse."""
    pl = _check_partition(theta_l, g.lsize, "L")
    pr = _check_partition(theta_r, g.rsize, "R")
    rparts = [sum(1 << j for j in part) for part in pr]
    rows = []
    for part in pl:
        union = 0
        for i in part:
            union |= g.left_adj[i]
        rows.append(sum(1 << k for k, rpart in enumerate(rparts) if union & rpart))
    return TwoColouredGraph.from_rows(len(pl), len(pr), rows)


def disjoint_union(gs: Sequence[TwoColouredGraph]) -> TwoColouredGraph:
    """Side-wise concatenation with index shifting."""
    rows: list[int] = []
    roff = 0
    for g in gs:
        rows += [row << roff for row in g.left_adj]
        roff += g.rsize
    return TwoColouredGraph.from_rows(len(rows), roff, rows)


def induced_subgraph(
    h: TwoColouredGraph, lset: Iterable[int], rset: Iterable[int]
) -> TwoColouredGraph:
    """Induced 2-coloured subgraph; new indices follow the sorted old ones."""
    lsel = sorted(set(lset))
    rsel = sorted(set(rset))
    require_on_side("left", lsel, h.lsize)
    require_on_side("right", rsel, h.rsize)
    rmap = {v: k for k, v in enumerate(rsel)}
    kept = sum(1 << j for j in rsel)
    rows = [sum(1 << rmap[j] for j in iter_bits(h.left_adj[i] & kept)) for i in lsel]
    return TwoColouredGraph.from_rows(len(lsel), len(rsel), rows)


def require_on_side(side: str, indexes: list[int], size: int) -> None:
    """Refuse sorted ``indexes`` that leave 0..size-1, naming the least index outside."""
    if indexes and (indexes[0] < 0 or indexes[-1] >= size):
        bad = indexes[0] if indexes[0] < 0 else indexes[bisect.bisect_left(indexes, size)]
        raise PreconditionError(f"{side} index {bad} is outside the {side} side 0..{size - 1}")


def component_graphs(g: TwoColouredGraph) -> list[TwoColouredGraph]:
    """Connected components as standalone 2-coloured graphs."""
    return [induced_subgraph(g, cl, cr) for cl, cr in g.components()]


# ---------------------------------------------------------------------------
# Canonical forms and colour-preserving isomorphism
# ---------------------------------------------------------------------------

def _ranks(values: list) -> tuple[list[int], int]:
    """Dense ranks of the values in sorted order, and the number of ranks."""
    rank = {v: k for k, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values], len(rank)


def refined_keys(g: TwoColouredGraph) -> tuple[list[int], list[int]]:
    """Ranks of the L vertices and of the R vertices under iterated degree refinement.

    Both sides start from their degree ranks.  Each round ranks every vertex
    by its own rank and the sorted ranks of its neighbours, so a round only
    splits classes and keeps their order.  Rounds stop once the L classes are
    singletons or neither side splits; only the second stop leaves R ranks
    that no further round splits.
    """
    lkey, lcount = _ranks([m.bit_count() for m in g.left_adj])
    rkey, rcount = _ranks([m.bit_count() for m in g.right_adj])
    if lcount == g.lsize:
        return lkey, rkey
    lnb = [tuple(iter_bits(m)) for m in g.left_adj]
    rnb = [tuple(iter_bits(m)) for m in g.right_adj]
    while True:
        nl, nlcount = _ranks(
            [(lkey[i], tuple(sorted([rkey[j] for j in nb]))) for i, nb in enumerate(lnb)]
        )
        nr, nrcount = _ranks(
            [(rkey[j], tuple(sorted([lkey[i] for i in nb]))) for j, nb in enumerate(rnb)]
        )
        if nlcount == lcount and nrcount == rcount:
            return lkey, rkey
        lkey, lcount, rkey, rcount = nl, nlcount, nr, nrcount
        if lcount == g.lsize:
            return lkey, rkey


def _canonical_rows(g: TwoColouredGraph) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The rows of the least row string, one at a time, each with a row order reaching it.

    Rows are the L vertices.  An order places the refinement classes in rank
    order and any order within a class; its string lists, row by row, the bits
    of the columns sorted lexicographically.  After k rows the sorted columns
    fall into blocks that share a k-bit prefix, and row k writes, block by
    block, the block's zeros and then its ones.  So a row is least when its
    tuple of per-block neighbour counts is least, and the search keeps, level
    by level, only the partial orders whose next row is least.  Twin rows are
    tried once per state, and states that agree on the placed rows and on
    their blocks restricted to the columns an unplaced row still touches are
    merged.  Each level adds its candidate rows to a work count, and a level
    with more than one candidate first checks that count against the work
    budget.

    Each level yields its row, as an rsize-bit integer with the first column
    highest, and the order of the first state kept; after the last row that
    order reaches the whole least string.  Two searches on graphs of one
    shape yield equal rows so far exactly when their strings agree so far,
    so a comparison can stop at the first differing row, and a search that
    is not run to its end charges only the rows it made.
    """
    lsize, rsize = g.lsize, g.rsize
    adj = g.left_adj
    cells = [0] * lsize
    for v, k in enumerate(refined_keys(g)[0]):
        cells[k] |= 1 << v
    full = (1 << lsize) - 1
    sizes, blocks = ([rsize], [(1 << rsize) - 1]) if rsize else ([], [])
    states = [(0, (), blocks)]
    work = 0
    budget = None
    for cell in cells:
        for free in range(cell.bit_count(), 0, -1):
            work += len(states) * free
            if free > 1 or len(states) > 1:
                if budget is None:
                    budget = work_budget()
                if work > budget:
                    raise over_budget(f"canonical labelling reached {work} candidate rows", budget)
            best = None
            children = []
            for placed, order, blocks in states:
                tried = []
                rest = cell & ~placed
                while rest:
                    low = rest & -rest
                    rest ^= low
                    a = adj[low.bit_length() - 1]
                    if a in tried:
                        continue
                    tried.append(a)
                    key = [(a & b).bit_count() for b in blocks]
                    if best is None or key < best:
                        best, children = key, []
                    elif key != best:
                        continue
                    split = []
                    for b in blocks:
                        if b & ~a:
                            split.append(b & ~a)
                        if b & a:
                            split.append(b & a)
                    children.append((placed | low, order + (low.bit_length() - 1,), split))
            if len(children) > 1:
                merged = {}
                for child in children:
                    touched = 0
                    for u in iter_bits(full & ~child[0]):
                        touched |= adj[u]
                    merged.setdefault((child[0], tuple([b & touched for b in child[2]])), child)
                children = list(merged.values())
            states = children
            bits = 0
            row = []
            for s, o in zip(sizes, best):
                bits = bits << s | (1 << o) - 1
                if s > o:
                    row.append(s - o)
                if o:
                    row.append(o)
            sizes = row
            yield bits, states[0][1]


def canonical_form(g: TwoColouredGraph) -> bytes:
    """Canonical byte string: equal iff a colour-preserving isomorphism exists.

    The string is the least adjacency bit matrix, read row by row, over the
    row orders that respect the degree refinement classes, with the columns
    sorted lexicographically for each order.  ``_canonical_rows`` reaches
    it level by level instead of trying every order: it keeps only the
    partial orders whose next row is least.  The bytes are the two side
    sizes, then the string padded with zeros to whole bytes.
    """
    bits = 0
    rsize = g.rsize
    for row, _ in _canonical_rows(g):
        bits = bits << rsize | row
    n = g.lsize * rsize
    return (
        g.lsize.to_bytes(2, "big")
        + g.rsize.to_bytes(2, "big")
        + (bits << -n % 8).to_bytes((n + 7) // 8, "big")
    )


def colour_iso(
    g1: TwoColouredGraph, g2: TwoColouredGraph
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Side-respecting isomorphism witness (sigma_l, sigma_r) or None.

    sigma_l[i] is the image in g2 of g1's L-vertex i, similarly sigma_r.  The
    two canonical searches run in lockstep, a row at a time, and the answer
    is None at the first row on which they differ: their strings are equal
    exactly when an isomorphism exists.  A search stopped there charges the
    work budget only for the rows it made.  Otherwise sigma_l maps one final
    order onto the other, and sigma_r pairs the columns whose masks then
    agree.
    """
    if g1.lsize != g2.lsize or g1.rsize != g2.rsize:
        return None
    if _edge_count(g1) != _edge_count(g2):
        return None
    order1 = order2 = ()
    for (row1, order1), (row2, order2) in zip(_canonical_rows(g1), _canonical_rows(g2)):
        if row1 != row2:
            return None
    sigma_l = [0] * g1.lsize
    for i, k in zip(order1, order2):
        sigma_l[i] = k
    columns: dict[int, list[int]] = {}
    for j in range(g2.rsize):
        columns.setdefault(g2.right_adj[j], []).append(j)
    sigma_r = []
    for mask in g1.right_adj:
        image = 0
        for i in iter_bits(mask):
            image |= 1 << sigma_l[i]
        sigma_r.append(columns[image].pop())
    return tuple(sigma_l), tuple(sigma_r)


def iso_colour_preserving(g1: TwoColouredGraph, g2: TwoColouredGraph) -> bool:
    return colour_iso(g1, g2) is not None


def colour_classes(gs: Sequence[TwoColouredGraph]) -> list[list[int]]:
    """Indexes of ``gs`` grouped by colour-preserving isomorphism class.

    Classes are listed in the order of their first member, and each lists
    its members in increasing order.  Graphs are first grouped by sides and
    edge count; a group of two or more is then split by the rows of its
    members' canonical searches, one row at a time, and a member whose
    string so far no other member shares leaves the search there.
    """
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, g in enumerate(gs):
        groups.setdefault((g.lsize, g.rsize, _edge_count(g)), []).append(i)
    searches = {i: _canonical_rows(gs[i]) for m in groups.values() if len(m) > 1 for i in m}
    classes = []
    pending = [(members, gs[members[0]].lsize) for members in groups.values()]
    while pending:
        members, rows_left = pending.pop()
        if len(members) == 1 or not rows_left:
            classes.append(members)
            continue
        split: dict[int, list[int]] = {}
        for i in members:
            split.setdefault(next(searches[i])[0], []).append(i)
        pending += [(part, rows_left - 1) for part in split.values()]
    classes.sort()
    return classes


# ---------------------------------------------------------------------------
# Enumeration of canonical representatives
# ---------------------------------------------------------------------------

# The most cells l*r a listed shape may have.  A shape's classes come from its
# doubly sorted masks, one canonical form each, and their number grows
# exponentially in the cells; the full scan of ``_labelled_bigraphs`` (2^(l*r)
# masks, the tests' oracle) is refused past the same limit.
_ENUM_EDGE_CELL_LIMIT = 25


def _check_enum_split(lsize: int, rsize: int) -> None:
    cells = lsize * rsize
    if cells > _ENUM_EDGE_CELL_LIMIT:
        raise PreconditionError(
            f"refusing to enumerate 2^{cells} labelled graphs for split ({lsize},{rsize})"
        )


def _mask_graph(lsize: int, rsize: int, mask: int) -> TwoColouredGraph:
    """The graph whose cell (i, j) is bit i*rsize+j of ``mask``: row i is an rsize-bit slice."""
    rows = [mask >> i * rsize & (1 << rsize) - 1 for i in range(lsize)]
    return TwoColouredGraph.from_rows(lsize, rsize, rows)


def _labelled_bigraphs(lsize: int, rsize: int) -> Iterator[TwoColouredGraph]:
    """Every labelled graph of the shape, by mask; bit k is cell divmod(k, rsize)."""
    _check_enum_split(lsize, rsize)
    for mask in range(1 << lsize * rsize):
        yield _mask_graph(lsize, rsize, mask)


def _doubly_sorted_masks(lsize: int, rsize: int) -> list[int]:
    """Masks of the labelled graphs whose rows and columns are both non-increasing.

    Bit i*rsize+j of a mask is cell (i, j).  A row is read as an rsize-bit
    int, and a column as an lsize-bit int with row i at bit i.  Rows are
    placed from the last (the columns' most significant bit) to the first,
    each at least the one placed before it.  The columns that agree on the
    placed rows form runs, and a new row keeps them non-increasing exactly
    when it sets a prefix of each run.
    """
    out = []
    stack = [(lsize - 1, 0, [(0, rsize)], 0)]
    while stack:
        i, floor, runs, mask = stack.pop()
        if i < 0:
            out.append(mask)
            continue
        for ones in itertools.product(*[range(size + 1) for _, size in runs]):
            row = 0
            split = []
            for (start, size), k in zip(runs, ones):
                row |= (1 << k) - 1 << start
                if k:
                    split.append((start, k))
                if k < size:
                    split.append((start + k, size - k))
            if row >= floor:
                stack.append((i - 1, row, split, mask | row << i * rsize))
    return out


@functools.cache
def _split_masks(lsize: int, rsize: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The shape's doubly sorted masks: those of graphs with two or more
    components, and those of graphs with at most one, each tested once."""
    _check_enum_split(lsize, rsize)
    split: tuple[list[int], list[int]] = ([], [])
    for mask in _doubly_sorted_masks(lsize, rsize):
        split[len(_component_masks(_mask_graph(lsize, rsize, mask).masks())) <= 1].append(mask)
    return tuple(split[0]), tuple(split[1])


@functools.cache
def _shape_half(lsize: int, rsize: int,
                connected: bool) -> tuple[tuple[bytes, TwoColouredGraph], ...]:
    """The shape's classes with at most one component (``connected``) or the
    rest, each as (canonical form, representative), sorted by canonical form.

    The representative is the member with the least mask, which is the one a
    scan of ``_labelled_bigraphs`` meets first.  Swapping two adjacent rows,
    or two adjacent columns, that are out of order lowers the mask, so that
    member has sorted rows and sorted columns and only those graphs are
    examined.  The number of components is a class invariant, so each mask's
    class lies in the half its own count puts it in, and each mask is
    canonicalised once, by the first request for its half.  The cache is
    per process, and a half whose build raises (the work budget of
    ``canonical_form``) is not cached.
    """
    reps: dict[bytes, tuple[int, TwoColouredGraph]] = {}
    for mask in _split_masks(lsize, rsize)[connected]:
        g = _mask_graph(lsize, rsize, mask)
        key = canonical_form(g)
        if key not in reps or mask < reps[key][0]:
            reps[key] = (mask, g)
    return tuple((key, reps[key][1]) for key in sorted(reps))


def _shape_classes(lsize: int, rsize: int) -> tuple[TwoColouredGraph, ...]:
    """One representative per class of the shape, sorted by canonical form:
    the two halves of ``_shape_half``, merged."""
    both = _shape_half(lsize, rsize, True) + _shape_half(lsize, rsize, False)
    return tuple(g for _, g in sorted(both))


def iter_canonical_two_coloured(max_total: int) -> Iterator[TwoColouredGraph]:
    """Canonical representatives of 2-coloured graphs, smallest first.

    Ordered by total vertex count, then lsize, then canonical form; one
    representative per colour-preserving isomorphism class.  Lazy across
    (total, lsize) shapes, so early consumers never touch the large shapes;
    each shape's class list is built once per process.
    """
    for lsize, rsize in _shapes(max_total):
        yield from _shape_classes(lsize, rsize)


def _shapes(max_total: int) -> list[tuple[int, int]]:
    """The (lsize, rsize) splits in enumeration order: total, then lsize."""
    return [(lsize, n - lsize) for n in range(max_total + 1) for lsize in range(n + 1)]


def _class_list(shapes: list[tuple[int, int]]) -> list[TwoColouredGraph]:
    """The classes of the shapes, in order, as a fresh list.

    Every shape passes the enumeration guard before any is built, so an
    oversized request is refused at once, naming the first shape refused.
    """
    for lsize, rsize in shapes:
        _check_enum_split(lsize, rsize)
    return [g for lsize, rsize in shapes for g in _shape_classes(lsize, rsize)]


def canonical_two_coloured(max_total: int) -> list[TwoColouredGraph]:
    """Eager form of :func:`iter_canonical_two_coloured`."""
    return _class_list(_shapes(max_total))


def canonical_side_bounded(max_per_side: int) -> list[TwoColouredGraph]:
    """Canonical representatives with both sides bounded by ``max_per_side``."""
    return _class_list([s for s in _shapes(2 * max_per_side) if max(s) <= max_per_side])
