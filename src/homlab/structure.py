"""Structural predicates and derived subgraphs.

Covers the one plain-graph triviality predicate (``has_trivial_component``:
a plain component is trivial exactly when its part of the bipartite double
cover is), full-vertex profiles, bicliques as pairs of side masks, the
subgraph a biclique phase confines a decoration to, and the
plain-graph-to-2-coloured reduction's inputs: ``degree_machinery`` lists the
top-degree edge pairs and ``h_uv`` builds the cover subgraph around each.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    PreconditionError,
    TwoColouredGraph,
    bip_double_cover,
    induced_subgraph,
    iter_bits,
    require_on_side,
)


class InvariantViolation(RuntimeError):
    """A property the paper's argument rests on failed on computed values.

    Raised by explicit checks, so it survives ``python -O``.  ``check_name``
    names the check and ``detail`` gives the values that broke it.
    """

    def __init__(self, check_name: str, detail: str):
        super().__init__(f"{check_name}: {detail}")
        self.check_name = check_name
        self.detail = detail


# ---------------------------------------------------------------------------
# Trivial components
# ---------------------------------------------------------------------------

def has_trivial_component(h: Graph) -> bool:
    """Whether some connected component is trivial.

    Trivial means a fully looped clique or a loopless complete bipartite
    graph, so a lone vertex, looped or not, is trivial.  That holds exactly
    when the component's part of the bipartite double cover is trivial as a
    2-coloured graph: a looped clique on k vertices covers to K(k, k), a
    loopless K(A, B) covers to K(A, B) beside K(B, A), and any other
    connected graph covers to something that is not complete bipartite.
    """
    cover = bip_double_cover(h)
    return any(
        two_coloured_is_trivial(induced_subgraph(cover, comp, comp)) for comp in h.components()
    )


# ---------------------------------------------------------------------------
# Fullness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullnessProfile:
    """Full vertices as index sets: ``f_l`` adjacent to all of R, ``f_r`` to all of L."""

    f_l: frozenset[int]
    f_r: frozenset[int]
    is_full: bool
    is_trivial: bool


def two_coloured_is_trivial(h: TwoColouredGraph) -> bool:
    """Every component is complete bipartite between its parts.

    A left row never leaves its component, so the component is complete
    exactly when each of its left rows is its whole right mask.  So h is
    trivial exactly when its distinct non-zero rows are pairwise disjoint:
    each is then the right side of the component its left vertices share.
    That is decided in one pass over the distinct rows, without the
    components, whose walk over masks of every vertex is quadratic.
    """
    seen = 0
    for row in set(h.left_adj):
        if row & seen:
            return False
        seen |= row
    return True


def fullness(h: TwoColouredGraph) -> FullnessProfile:
    # membership in f_l / f_r is vacuously true when the opposite side is empty
    full_r_mask = (1 << h.rsize) - 1
    full_l_mask = (1 << h.lsize) - 1
    f_l = frozenset(i for i in range(h.lsize) if h.left_adj[i] == full_r_mask)
    f_r = frozenset(j for j in range(h.rsize) if h.right_adj[j] == full_l_mask)
    return FullnessProfile(
        f_l=f_l,
        f_r=f_r,
        is_full=bool(f_l) and bool(f_r),
        is_trivial=two_coloured_is_trivial(h),
    )


def require_full_nontrivial(h: TwoColouredGraph) -> FullnessProfile:
    prof = fullness(h)
    if not prof.is_full:
        raise PreconditionError(
            "target is not full: it needs a left vertex adjacent to the whole "
            "right side and a right vertex adjacent to the whole left side"
        )
    if prof.is_trivial:
        raise PreconditionError(
            "target is trivial (complete bipartite), counting it is easy and "
            "the analysis does not apply"
        )
    return prof


# ---------------------------------------------------------------------------
# Bicliques and the subgraph a phase confines decorations to
# ---------------------------------------------------------------------------

def _joint(rows: list[int], mask: int, full: int) -> int:
    """The AND of ``rows`` over the set bits of ``mask``, starting from ``full``.

    With a side's rows and the opposite side's full mask this is the joint
    neighbourhood of ``mask``: the opposite vertices adjacent to every member,
    the whole opposite side for the empty mask (vacuous intersection).
    """
    for v in iter_bits(mask):
        full &= rows[v]
    return full


@dataclass(frozen=True)
class Biclique:
    """Two side masks: bit i of ``s_l`` is left vertex i, bit j of ``s_r`` right vertex j.

    ``key()`` is the printable form, each side as a sorted tuple.
    """

    s_l: int
    s_r: int

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (tuple(iter_bits(self.s_l)), tuple(iter_bits(self.s_r)))

    def __repr__(self):
        return f"Biclique({list(iter_bits(self.s_l))}, {list(iter_bits(self.s_r))})"


def make_biclique(h: TwoColouredGraph, s_l, s_r) -> Biclique:
    """Validated biclique of h from two iterables of side indexes.

    Both sides must be non-empty, every index inside its side and every
    cross pair an edge.
    """
    s_l, s_r = sorted(set(s_l)), sorted(set(s_r))
    require_on_side("left", s_l, h.lsize)
    require_on_side("right", s_r, h.rsize)
    lmask, rmask = sum(1 << i for i in s_l), sum(1 << j for j in s_r)
    if not lmask or not rmask:
        raise PreconditionError("biclique sides must be non-empty")
    for i in iter_bits(lmask):
        for j in iter_bits(rmask & ~h.left_adj[i]):  # the least missing pair
            raise PreconditionError(f"({i},{j}) is not an edge, not a biclique")
    return Biclique(lmask, rmask)


def is_maximal_biclique(h: TwoColouredGraph, b: Biclique) -> bool:
    """Maximal iff each side is exactly the joint neighbourhood of the other."""
    return (
        _joint(h.right_adj, b.s_r, (1 << h.lsize) - 1) == b.s_l
        and _joint(h.left_adj, b.s_l, (1 << h.rsize) - 1) == b.s_r
    )


def derived_subgraph(h: TwoColouredGraph, b: Biclique) -> TwoColouredGraph:
    """The induced subgraph a decoration is confined to when the phase is b.

    Its left side is the joint neighbourhood of b's right side, and its right
    side is the union neighbourhood of that left side.  For a maximal b in a
    target with a full left vertex (which then lies in s_l) this is the
    induced subgraph on (s_l, whole right side), and that is checked.
    """
    lpart = _joint(h.right_adj, b.s_r, (1 << h.lsize) - 1)
    rpart = 0
    for i in iter_bits(lpart):
        rpart |= h.left_adj[i]
    full_r = (1 << h.rsize) - 1
    if full_r in h.left_adj and rpart != full_r and is_maximal_biclique(h, b):
        raise InvariantViolation(
            "derived-subgraph",
            f"maximal phase {b!r} reaches right vertices {list(iter_bits(rpart))}, not all of R",
        )
    return induced_subgraph(h, iter_bits(lpart), iter_bits(rpart))


# ---------------------------------------------------------------------------
# Degree machinery on plain graphs
# ---------------------------------------------------------------------------

def h_uv(h: Graph, u: int, v: int) -> TwoColouredGraph:
    """Induced subgraph of the double cover around the edge (u, v).

    Left side: the cover neighbours of v's right copy; right side: the cover
    neighbours of u's left copy.  Always full.
    """
    if not h.has_edge(u, v):
        raise PreconditionError(f"({u},{v}) is not an edge")
    cover = bip_double_cover(h)
    # the neighbours of v_2 on the left, of u_1 on the right
    return induced_subgraph(cover, iter_bits(cover.right_adj[v]), iter_bits(cover.left_adj[u]))


def degree_machinery(h: Graph) -> tuple[tuple[int, int], ...]:
    """The ordered edge pairs realizing the top two degree levels, sorted.

    A pair (u, v) lies on an edge, deg(u) is maximal, and deg(v) is maximal
    among the neighbours of maximum-degree vertices; u = v is allowed on
    self-loops.
    """
    if has_trivial_component(h):
        raise PreconditionError(
            "target has a trivial component (fully looped clique or complete "
            "bipartite); such targets are easy and the reduction refuses them"
        )
    if h.n == 0:
        raise PreconditionError("empty graph")
    deg = [h.degree(u) for u in range(h.n)]
    delta1 = max(deg)
    top = [u for u in range(h.n) if deg[u] == delta1]
    delta2 = max(deg[v] for u in top for v in iter_bits(h.adj[u]))
    return tuple(sorted((u, v) for u in top for v in iter_bits(h.adj[u]) if deg[v] == delta2))
