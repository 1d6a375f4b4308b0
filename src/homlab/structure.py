"""Structural predicates and derived subgraphs.

Covers the easy/hard component split, full-vertex profiles, neighbourhood
operators, the subgraph a biclique phase confines a decoration to, and the
degree machinery that drives the plain-graph-to-2-coloured reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    Graph,
    PreconditionError,
    TwoColouredGraph,
    bip_double_cover,
    canonical_form,
    induced_subgraph,
    iter_bits,
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

@dataclass(frozen=True)
class ComponentInfo:
    vertices: tuple[int, ...]
    is_trivial: bool


def _component_is_trivial(h: Graph, comp: tuple[int, ...]) -> bool:
    """Trivial means: fully looped clique, or loopless complete bipartite.

    A single looped vertex is a 1-clique with loop; a single loopless vertex
    is a degenerate complete bipartite graph with one empty side.  Both count
    as trivial.
    """
    vs = set(comp)
    loops = {v for v in comp if h.has_edge(v, v)}
    if loops == vs:
        # clique with self-loops on every vertex?
        return all(h.has_edge(u, v) for u in comp for v in comp)
    if loops:
        return False
    # loopless: complete bipartite between the parts of some 2-colouring?
    colour = {comp[0]: 0}
    stack = [comp[0]]
    while stack:
        u = stack.pop()
        for w in iter_bits(h.adj[u]):
            if w not in colour:
                colour[w] = 1 - colour[u]
                stack.append(w)
            elif colour[w] == colour[u]:
                return False
    left = [v for v in comp if colour[v] == 0]
    right = [v for v in comp if colour[v] == 1]
    return all(h.has_edge(u, v) for u in left for v in right)


def classify_components(h: Graph) -> list[ComponentInfo]:
    """Per connected component, whether it is trivial."""
    return [
        ComponentInfo(comp, _component_is_trivial(h, comp))
        for comp in h.components()
    ]


def has_trivial_component(h: Graph) -> bool:
    return any(c.is_trivial for c in classify_components(h))


# ---------------------------------------------------------------------------
# Fullness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FullnessProfile:
    f_l: frozenset[int]
    f_r: frozenset[int]
    is_full: bool
    is_trivial: bool


def two_coloured_is_trivial(h: TwoColouredGraph) -> bool:
    """Every component is complete bipartite between its parts."""
    return all(
        len([e for e in h.edges if e[0] in cl]) == len(cl) * len(cr)
        for cl, cr in h.components()
    )


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
# Neighbourhood operators
# ---------------------------------------------------------------------------

def neighbourhood_union(
    h: TwoColouredGraph, s: frozenset[int] | set[int], side: str
) -> frozenset[int]:
    """Vertices on the opposite side adjacent to at least one member of s."""
    adj = h.left_adj if side == "L" else h.right_adj
    mask = 0
    for v in s:
        mask |= adj[v]
    return frozenset(iter_bits(mask))


def neighbourhood_joint(
    h: TwoColouredGraph, s: frozenset[int] | set[int], side: str
) -> frozenset[int]:
    """Vertices on the opposite side adjacent to every member of s.

    The joint neighbourhood of the empty set is the whole opposite side
    (vacuous intersection).
    """
    opp = h.rsize if side == "L" else h.lsize
    adj = h.left_adj if side == "L" else h.right_adj
    mask = (1 << opp) - 1
    for v in s:
        mask &= adj[v]
    return frozenset(iter_bits(mask))


# ---------------------------------------------------------------------------
# Bicliques and the subgraph a phase confines decorations to
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Biclique:
    s_l: frozenset[int]
    s_r: frozenset[int]

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (tuple(sorted(self.s_l)), tuple(sorted(self.s_r)))

    def __repr__(self):
        return f"Biclique({sorted(self.s_l)}, {sorted(self.s_r)})"


def make_biclique(h: TwoColouredGraph, s_l, s_r) -> Biclique:
    """Validated biclique of h: both sides non-empty, all cross pairs edges."""
    s_l = frozenset(s_l)
    s_r = frozenset(s_r)
    if not s_l or not s_r:
        raise PreconditionError("biclique sides must be non-empty")
    for i in s_l:
        for j in s_r:
            if not (h.left_adj[i] >> j) & 1:
                raise PreconditionError(f"({i},{j}) is not an edge, not a biclique")
    return Biclique(s_l, s_r)


def is_maximal_biclique(h: TwoColouredGraph, b: Biclique) -> bool:
    """Maximal iff each side is exactly the joint neighbourhood of the other."""
    return (
        neighbourhood_joint(h, b.s_r, "R") == b.s_l
        and neighbourhood_joint(h, b.s_l, "L") == b.s_r
    )


def derived_subgraph(h: TwoColouredGraph, b: Biclique) -> TwoColouredGraph:
    """The induced subgraph a decoration is confined to when the phase is b.

    Its left side is the joint neighbourhood of b's right side, and its right
    side is the union neighbourhood of that left side.  For a maximal b this
    is the induced subgraph on (s_l, whole right side); asserted.
    """
    lpart = neighbourhood_joint(h, b.s_r, "R")
    rpart = neighbourhood_union(h, lpart, "L")
    sub = induced_subgraph(h, lpart, rpart)
    if is_maximal_biclique(h, b):
        expect = induced_subgraph(h, b.s_l, range(h.rsize))
        assert sub == expect, "maximal-phase subgraph must equal H[s_l + all R]"
    return sub


# ---------------------------------------------------------------------------
# Degree machinery on plain graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeProfile:
    delta1: int
    delta2: int
    lam: tuple[tuple[int, int], ...]
    lam_star: tuple[tuple[int, int], ...] | None


def h_uv(h: Graph, u: int, v: int) -> TwoColouredGraph:
    """Induced subgraph of the double cover around the edge (u, v).

    Left side: the cover neighbours of v's right copy; right side: the cover
    neighbours of u's left copy.  Always full.
    """
    if not h.has_edge(u, v):
        raise PreconditionError(f"({u},{v}) is not an edge")
    cover = bip_double_cover(h)
    lpart = frozenset(iter_bits(cover.right_adj[v]))  # neighbours of v_2
    rpart = frozenset(iter_bits(cover.left_adj[u]))  # neighbours of u_1
    return induced_subgraph(cover, lpart, rpart)


def degree_machinery(h: Graph, hprime: TwoColouredGraph | None = None) -> DegreeProfile:
    """Top two degree levels and the ordered edge pairs realizing them.

    ``lam`` collects ordered pairs (u, v) on edges with deg(u) maximal and
    deg(v) maximal among neighbours of maximum-degree vertices; u = v is
    allowed on self-loops.  With ``hprime`` given, ``lam_star`` keeps the
    pairs whose induced cover subgraph is colour-isomorphic to it.
    """
    if has_trivial_component(h):
        raise PreconditionError("target has a trivial component")
    if h.n == 0:
        raise PreconditionError("empty graph")
    deg = [h.degree(u) for u in range(h.n)]
    delta1 = max(deg)
    top = [u for u in range(h.n) if deg[u] == delta1]
    nbrs_of_top = set()
    for u in top:
        nbrs_of_top |= set(iter_bits(h.adj[u]))
    delta2 = max(deg[v] for v in nbrs_of_top)
    lam = []
    for u in top:
        for v in sorted(iter_bits(h.adj[u])):
            if deg[v] == delta2:
                lam.append((u, v))
    lam = tuple(sorted(lam))
    lam_star = None
    if hprime is not None:
        key = canonical_form(hprime)
        lam_star = tuple((u, v) for u, v in lam if canonical_form(h_uv(h, u, v)) == key)
    return DegreeProfile(delta1=delta1, delta2=delta2, lam=lam, lam_star=lam_star)
