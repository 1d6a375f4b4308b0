"""Graph types, parsing, constructions and canonical forms.

Two kinds of objects live here.  A ``Graph`` is a plain undirected graph on
vertices 0..n-1; self-loops are allowed, parallel edges are not.  A
``TwoColouredGraph`` is a bipartite graph whose (L, R) part labelling is part
of the object: vertex identity is (side, index) and all mappings between such
graphs are required to respect sides.

Everything is immutable and pure; adjacency is precomputed as integer
bitmasks at construction time.  The work budget (``HOMLAB_MAX_WORK``) lives
here because both the canonical search and the counters charge it.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Iterable, Iterator, Sequence


DEFAULT_WORK_BUDGET = 10**9
WORK_BUDGET_ENV = "HOMLAB_MAX_WORK"


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
    """Undirected graph; vertices 0..n-1, self-loops allowed, no parallel edges."""

    __slots__ = ("n", "edges", "adj", "_hash")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            norm.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(norm)
        adj = [0] * n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)
        self._hash = hash((n, self.edges))

    def degree(self, u: int) -> int:
        # a self-loop contributes exactly 1 (it adds u to its own mask once)
        return bin(self.adj[u]).count("1")

    def neighbours(self, u: int) -> frozenset[int]:
        return frozenset(iter_bits(self.adj[u]))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def components(self) -> list[tuple[int, ...]]:
        return [tuple(iter_bits(comp)) for comp in _component_masks(self.adj)]

    def to_text(self) -> str:
        lines = [f"graph {self.n}"]
        lines += [f"{u} {v}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


class TwoColouredGraph:
    """Bipartite graph with a fixed (L, R) part labelling.

    Edges are pairs (i, j) with i an L-index and j an R-index, so side-internal
    edges and self-loops are impossible by construction.
    """

    __slots__ = ("lsize", "rsize", "edges", "left_adj", "right_adj", "_hash")

    def __init__(self, lsize: int, rsize: int, edges: Iterable[tuple[int, int]]):
        if lsize < 0 or rsize < 0:
            raise ValueError("side sizes must be non-negative")
        norm = set()
        for i, j in edges:
            if not (0 <= i < lsize):
                raise ValueError(f"L index {i} out of range")
            if not (0 <= j < rsize):
                raise ValueError(f"R index {j} out of range")
            norm.add((i, j))
        self.lsize = lsize
        self.rsize = rsize
        self.edges = frozenset(norm)
        ladj = [0] * lsize
        radj = [0] * rsize
        for i, j in self.edges:
            ladj[i] |= 1 << j
            radj[j] |= 1 << i
        self.left_adj = tuple(ladj)
        self.right_adj = tuple(radj)
        self._hash = hash((lsize, rsize, self.edges))

    @property
    def total(self) -> int:
        return self.lsize + self.rsize

    def degree_left(self, i: int) -> int:
        return bin(self.left_adj[i]).count("1")

    def degree_right(self, j: int) -> int:
        return bin(self.right_adj[j]).count("1")

    def isolated_right(self) -> frozenset[int]:
        return frozenset(j for j in range(self.rsize) if not self.right_adj[j])

    def components(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        """Connected components as (L-indices, R-indices) pairs."""
        l = self.lsize
        masks = _component_masks([m << l for m in self.left_adj] + list(self.right_adj))
        return [(tuple(iter_bits(c & (1 << l) - 1)), tuple(iter_bits(c >> l))) for c in masks]

    def as_graph(self) -> Graph:
        """Forget the colouring: L-indices keep their value, R-index j becomes lsize+j."""
        return Graph(
            self.lsize + self.rsize,
            [(i, self.lsize + j) for i, j in self.edges],
        )

    def to_text(self) -> str:
        lines = [f"bigraph {self.lsize} {self.rsize}"]
        lines += [f"{i} {j}" for i, j in sorted(self.edges)]
        return "\n".join(lines) + "\n"

    def __eq__(self, other):
        return (
            isinstance(other, TwoColouredGraph)
            and self.lsize == other.lsize
            and self.rsize == other.rsize
            and self.edges == other.edges
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"TwoColouredGraph(lsize={self.lsize}, rsize={self.rsize}, "
            f"edges={sorted(self.edges)})"
        )


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
        text = text.decode("utf-8")
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
    edges = set()
    for u, v in h.edges:
        edges.add((u, v))
        edges.add((v, u))
    return TwoColouredGraph(h.n, h.n, edges)


def tensor(h1: TwoColouredGraph, h2: TwoColouredGraph) -> TwoColouredGraph:
    """Side-respecting tensor product: L = L1 x L2, R = R1 x R2.

    ((a,b),(c,d)) is an edge iff (a,c) in E(h1) and (b,d) in E(h2).  Pairs are
    indexed row-major: (a,b) -> a*|L2|+b.
    """
    edges = []
    for a, c in h1.edges:
        for b, d in h2.edges:
            edges.append((a * h2.lsize + b, c * h2.rsize + d))
    return TwoColouredGraph(h1.lsize * h2.lsize, h1.rsize * h2.rsize, edges)


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
    lmap = {v: k for k, part in enumerate(pl) for v in part}
    rmap = {v: k for k, part in enumerate(pr) for v in part}
    edges = {(lmap[i], rmap[j]) for i, j in g.edges}
    return TwoColouredGraph(len(pl), len(pr), edges)


def disjoint_union(gs: Sequence[TwoColouredGraph]) -> TwoColouredGraph:
    """Side-wise concatenation with index shifting."""
    edges = []
    loff = roff = 0
    for g in gs:
        edges += [(i + loff, j + roff) for i, j in g.edges]
        loff += g.lsize
        roff += g.rsize
    return TwoColouredGraph(loff, roff, edges)


def induced_subgraph(
    h: TwoColouredGraph, lset: Iterable[int], rset: Iterable[int]
) -> TwoColouredGraph:
    """Induced 2-coloured subgraph; new indices follow the sorted old ones."""
    lsel = sorted(set(lset))
    rsel = sorted(set(rset))
    lmap = {v: k for k, v in enumerate(lsel)}
    rmap = {v: k for k, v in enumerate(rsel)}
    edges = [
        (lmap[i], rmap[j]) for i, j in h.edges if i in lmap and j in rmap
    ]
    return TwoColouredGraph(len(lsel), len(rsel), edges)


def strip_isolated_right(g: TwoColouredGraph) -> TwoColouredGraph:
    """Drop R vertices with no incident edge, keeping everything else."""
    return induced_subgraph(g, range(g.lsize), [j for j in range(g.rsize) if g.right_adj[j]])


def component_graphs(g: TwoColouredGraph) -> list[TwoColouredGraph]:
    """Connected components as standalone 2-coloured graphs."""
    return [induced_subgraph(g, cl, cr) for cl, cr in g.components()]


def two_colourings(g: Graph) -> list[TwoColouredGraph]:
    """The two proper 2-colourings of a connected bipartite graph.

    Always returns both side assignments, even when they produce equal
    objects (a lone edge looks the same either way round).  Raises if g is
    disconnected or not bipartite.  Within each side, vertices keep their
    relative order.
    """
    comps = g.components()
    if len(comps) != 1:
        raise ValueError("two_colourings needs a connected graph")
    colour = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in iter_bits(g.adj[u]):
            if w == u:
                raise ValueError("graph has a self-loop, not bipartite")
            if w not in colour:
                colour[w] = 1 - colour[u]
                stack.append(w)
            elif colour[w] == colour[u]:
                raise ValueError("graph is not bipartite")
    out = []
    for flip in (0, 1):
        left = sorted(v for v in range(g.n) if colour[v] ^ flip == 0)
        right = sorted(v for v in range(g.n) if colour[v] ^ flip == 1)
        lmap = {v: k for k, v in enumerate(left)}
        rmap = {v: k for k, v in enumerate(right)}
        edges = [(lmap[u], rmap[v]) if u in lmap else (lmap[v], rmap[u]) for u, v in g.edges]
        out.append(TwoColouredGraph(len(left), len(right), edges))
    return out


# ---------------------------------------------------------------------------
# Canonical forms and colour-preserving isomorphism
# ---------------------------------------------------------------------------

def _ranks(values: list) -> tuple[list[int], int]:
    """Dense ranks of the values in sorted order, and the number of ranks."""
    rank = {v: k for k, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values], len(rank)


def _refined_keys(g: TwoColouredGraph) -> list[int]:
    """Ranks of the L vertices under iterated degree refinement.

    Both sides start from their degree ranks.  Each round ranks every vertex
    by its own rank and the sorted ranks of its neighbours, so a round only
    splits classes and keeps their order.  Rounds stop once the L classes are
    singletons or neither side splits.
    """
    lsize = g.lsize
    if lsize <= 1:
        return [0] * lsize
    lkey, lcount = _ranks([m.bit_count() for m in g.left_adj])
    if lcount == lsize:
        return lkey
    rkey, rcount = _ranks([m.bit_count() for m in g.right_adj])
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
            return lkey
        lkey, lcount, rkey, rcount = nl, nlcount, nr, nrcount
        if lcount == lsize:
            return lkey


def _canonical_search(g: TwoColouredGraph) -> tuple[int, tuple[int, ...]]:
    """The least row string, as an l*r-bit integer, and a row order reaching it.

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
    """
    lsize, rsize = g.lsize, g.rsize
    adj = g.left_adj
    cells = [0] * lsize
    for v, k in enumerate(_refined_keys(g)):
        cells[k] |= 1 << v
    full = (1 << lsize) - 1
    sizes, blocks = ([rsize], [(1 << rsize) - 1]) if rsize else ([], [])
    states = [(0, (), blocks)]
    bits = work = 0
    budget = None
    for cell in cells:
        for free in range(cell.bit_count(), 0, -1):
            work += len(states) * free
            if free > 1 or len(states) > 1:
                if budget is None:
                    budget = work_budget()
                if work > budget:
                    raise WorkBudgetExceeded(
                        f"canonical labelling reached {work} candidate rows, budget is "
                        f"{budget} (override with {WORK_BUDGET_ENV})"
                    )
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
            row = []
            for s, o in zip(sizes, best):
                bits = bits << s | (1 << o) - 1
                if s > o:
                    row.append(s - o)
                if o:
                    row.append(o)
            sizes = row
    return bits, states[0][1]


def canonical_form(g: TwoColouredGraph) -> bytes:
    """Canonical byte string: equal iff a colour-preserving isomorphism exists.

    The string is the least adjacency bit matrix, read row by row, over the
    row orders that respect the degree refinement classes, with the columns
    sorted lexicographically for each order.  ``_canonical_search`` reaches
    it level by level instead of trying every order: it keeps only the
    partial orders whose next row is least.  The bytes are the two side
    sizes, then the string padded with zeros to whole bytes.
    """
    bits, _ = _canonical_search(g)
    n = g.lsize * g.rsize
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
    two canonical searches give row orders with equal strings exactly when
    an isomorphism exists; sigma_l maps one order onto the other, and sigma_r
    pairs the columns whose masks then agree.
    """
    if g1.lsize != g2.lsize or g1.rsize != g2.rsize:
        return None
    if len(g1.edges) != len(g2.edges):
        return None
    bits1, order1 = _canonical_search(g1)
    bits2, order2 = _canonical_search(g2)
    if bits1 != bits2:
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


# ---------------------------------------------------------------------------
# Enumeration of canonical representatives
# ---------------------------------------------------------------------------

_ENUM_EDGE_CELL_LIMIT = 25  # refuse 2^(l*r) enumeration beyond this


def _check_enum_split(lsize: int, rsize: int) -> None:
    cells = lsize * rsize
    if cells > _ENUM_EDGE_CELL_LIMIT:
        raise PreconditionError(
            f"refusing to enumerate 2^{cells} labelled graphs for split ({lsize},{rsize})"
        )


def _labelled_bigraphs(lsize: int, rsize: int) -> Iterator[TwoColouredGraph]:
    """Every labelled graph of the shape, by mask; bit k is cell divmod(k, rsize)."""
    _check_enum_split(lsize, rsize)
    cells = [(i, j) for i in range(lsize) for j in range(rsize)]
    for mask in range(1 << len(cells)):
        edges = [cells[k] for k in range(len(cells)) if (mask >> k) & 1]
        yield TwoColouredGraph(lsize, rsize, edges)


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
def _shape_classes(lsize: int, rsize: int) -> tuple[TwoColouredGraph, ...]:
    """One representative per class of the shape, sorted by canonical form.

    The representative is the member with the least mask, which is the one a
    scan of ``_labelled_bigraphs`` meets first.  Swapping two adjacent rows,
    or two adjacent columns, that are out of order lowers the mask, so that
    member has sorted rows and sorted columns and only those graphs are
    examined.  The cache is per process, and a shape whose build raises
    (the work budget of ``canonical_form``) is not cached.
    """
    _check_enum_split(lsize, rsize)
    reps: dict[bytes, tuple[int, TwoColouredGraph]] = {}
    for mask in _doubly_sorted_masks(lsize, rsize):
        g = TwoColouredGraph(lsize, rsize, [divmod(k, rsize) for k in iter_bits(mask)])
        key = canonical_form(g)
        if key not in reps or mask < reps[key][0]:
            reps[key] = (mask, g)
    return tuple(reps[key][1] for key in sorted(reps))


def iter_canonical_two_coloured(
    max_total: int,
    *,
    max_per_side: int | None = None,
    skip_isolated_right: bool = False,
) -> Iterator[TwoColouredGraph]:
    """Canonical representatives of 2-coloured graphs, smallest first.

    Ordered by total vertex count, then lsize, then canonical form; one
    representative per colour-preserving isomorphism class.  With
    ``skip_isolated_right`` classes containing an isolated R vertex are left
    out.  Lazy across (total, lsize) shapes, so early consumers never touch
    the large shapes; each shape's class list is built once per process.
    """
    for lsize, rsize in _shapes(max_total, max_per_side):
        for g in _shape_classes(lsize, rsize):
            if not (skip_isolated_right and g.isolated_right()):
                yield g


def _shapes(max_total: int, max_per_side: int | None) -> Iterator[tuple[int, int]]:
    """The (lsize, rsize) splits in enumeration order: total, then lsize."""
    for n in range(max_total + 1):
        for lsize in range(n + 1):
            rsize = n - lsize
            if max_per_side is None or max(lsize, rsize) <= max_per_side:
                yield lsize, rsize


def canonical_two_coloured(
    max_total: int,
    *,
    max_per_side: int | None = None,
    skip_isolated_right: bool = False,
) -> list[TwoColouredGraph]:
    """Eager form of :func:`iter_canonical_two_coloured`.

    Every shape passes the enumeration guard before any is built, so an
    oversized request is refused at once, naming the first shape refused.
    """
    for lsize, rsize in _shapes(max_total, max_per_side):
        _check_enum_split(lsize, rsize)
    return list(
        iter_canonical_two_coloured(
            max_total,
            max_per_side=max_per_side,
            skip_isolated_right=skip_isolated_right,
        )
    )


def canonical_side_bounded(
    max_per_side: int, *, skip_isolated_right: bool = False
) -> list[TwoColouredGraph]:
    """Canonical representatives with both sides bounded by ``max_per_side``."""
    return canonical_two_coloured(
        2 * max_per_side,
        max_per_side=max_per_side,
        skip_isolated_right=skip_isolated_right,
    )
