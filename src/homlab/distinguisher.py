"""Separating gadgets: pair distinguishers and strict-maximum selectors.

Two non-isomorphic 2-coloured graphs always disagree on the colour-preserving
count of some test graph no larger than the bigger of the two; the search
enumerates canonical representatives in increasing size and returns the first
separator.  Counts multiply over components, so the first separator is
connected, and only connected test graphs are counted.  Targets that colour
refinement cannot tell apart tie on every tree (Dvořák, JGT 2010; Dell, Grohe
and Rattan, ICALP 2018), so for such pairs trees are not counted either.  The
selector powers this up: given pairwise non-isomorphic targets it builds one
test graph on which a single target strictly beats all the others, by
recursion on the number of targets.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, prod

from .counting import count_fixcol, count_fixcol_naive
from .graphs import (
    TwoColouredGraph,
    colour_classes,
    colour_iso,
    component_graphs,
    disjoint_union,
    refined_keys,
    _check_enum_split,
    _component_masks,
    _edge_count,
    _shape_classes,
    _shapes,
)
from .structure import InvariantViolation, PreconditionError


class TargetsIsomorphic(ValueError):
    """The targets are colour-isomorphic: the search exhausted its size bound,
    or the class enumeration refused it and ``colour_iso`` found a map.

    Only connected test graphs are counted, which loses nothing: every
    disconnected one ties whenever all of its components do.
    """


@dataclass(frozen=True)
class DistinguisherResult:
    j: TwoColouredGraph
    counts: tuple[int, ...]
    winner: int

    def __post_init__(self):
        w = self.counts[self.winner]
        if not all(c < w for i, c in enumerate(self.counts) if i != self.winner):
            raise InvariantViolation(
                "selector-strict", f"winner {self.winner} is not strictly largest in {self.counts}"
            )


def find_pair_distinguisher(h1: TwoColouredGraph, h2: TwoColouredGraph) -> DistinguisherResult:
    """Smallest canonical test graph on which h1 and h2 disagree.

    Enumerates canonical representatives by total size, then left-side size,
    then canonical form, up to max(|V(h1)|, |V(h2)|) vertices; existence
    within that bound is guaranteed for non-isomorphic targets.

    Each shape is walked through its list of classes with at most one
    component, with their tree flags (``_walk_list``), built once per
    process, so a class with two or more components is never counted and no
    walk recomputes a class's components or edge count.  The result is the
    same as counting every class: counts multiply over components,
    hom(J1 + J2, h) = hom(J1, h) * hom(J2, h), and each component of a
    disconnected class has a strictly smaller total, so its class comes
    earlier in the walk and has already tied.  By induction on the total, the
    first class on which the counts differ is connected.

    A tree class (connected, one edge fewer than vertices) is skipped too
    when the targets are refinement-equivalent (``_refinement_equivalent``).
    Root a tree T at r, and let f_T(v) count the colour-preserving maps of T
    that send r to the target vertex v.  By induction on depth, f_T(v)
    depends only on v's stable colour: it is zero when v is off r's side,
    which the colour records, and otherwise it is the product, over the
    children c of r, of the sum of f_{T_c}(w) over the neighbours w of v.
    Each f_{T_c}(w) depends only on w's colour, and v's stable colour fixes
    the multiset of its neighbours' colours.  So hom(T, h) is f_T summed over
    the stable colours of h's vertices, and equivalent targets, which have
    equal multisets of those colours, tie on every tree.  A skipped class
    would have tied, so the result (class, counts, winner) is the one the
    full walk returns.  The walk still reaches every shape in the same order
    and checks the enumeration guard there, so the isomorphic and refused
    endings below are unchanged.  Equivalence is decided once, at the first
    tree with 3 or more vertices, so a pair that a smaller class separates
    never runs the refinement.

    When the class enumeration refuses a shape before the walk ends, the
    targets are tested with ``colour_iso``: isomorphic targets raise
    ``TargetsIsomorphic`` as an exhausted walk does, any others the refusal.
    """
    bound = max(h1.total, h2.total)
    skip_trees = None  # decided at the first tree with 3 or more vertices
    try:
        for lsize, rsize in _shapes(bound):
            _check_enum_split(lsize, rsize)
            for j, tree in _walk_list(lsize, rsize):
                if tree:
                    if skip_trees is None:
                        skip_trees = _refinement_equivalent(h1, h2)
                    if skip_trees:
                        continue
                c1 = count_fixcol(h1, j)
                c2 = count_fixcol(h2, j)
                if c1 != c2:
                    winner = 0 if c1 > c2 else 1
                    return DistinguisherResult(j=j, counts=(c1, c2), winner=winner)
    except PreconditionError:
        if colour_iso(h1, h2) is None:
            raise
    raise TargetsIsomorphic(
        f"no separator up to {bound} vertices; the targets are colour-isomorphic"
    )


@functools.cache
def _walk_list(lsize: int, rsize: int) -> tuple[tuple[TwoColouredGraph, bool], ...]:
    """The shape's classes with at most one component, in walk order, each with its tree flag.

    A class is a tree when it has 3 or more vertices and one edge fewer than
    vertices (with at most one component, that is connected and acyclic).
    Built once per process from the shape's class list; the caller checks
    the enumeration guard each time it reaches the shape, so a cached list
    is never read past a guard that refuses the shape.
    """
    return tuple(
        (j, j.total >= 3 and _edge_count(j) == j.total - 1)
        for j in _shape_classes(lsize, rsize)
        if len(_component_masks(j.masks())) <= 1
    )


def _refinement_equivalent(h1: TwoColouredGraph, h2: TwoColouredGraph) -> bool:
    """Whether colour refinement gives h1 and h2 the same multiset of stable colours.

    ``refined_keys`` runs on their disjoint union, so the two share colour
    ids, and each side's ranks are compared as multisets.  Its start from
    degrees is the first round from sides, so the stable partition is the
    one refinement from sides reaches.  Its stop on L singletons leaves each
    L colour on one target, so with an L vertex the verdict is "not
    equivalent", as the finer stable partition says too; with none, every
    R vertex is isolated and the degree ranks are already stable.
    """
    lkey, rkey = refined_keys(disjoint_union([h1, h2]))
    l1, r1 = h1.lsize, h1.rsize
    return sorted(lkey[:l1]) == sorted(lkey[l1:]) and sorted(rkey[:r1]) == sorted(rkey[r1:])


def build_selector(hs: list[TwoColouredGraph]) -> DistinguisherResult:
    """One test graph on which exactly one target is the strict maximum.

    Recursion on the number of targets: select among the tail, and if the
    head ties the tail's winner on that test graph, splice in enough copies
    of it next to a head-vs-winner distinguisher to preserve the head's lead
    over everyone else.  The result is re-counted against every target.
    """
    if not hs:
        raise PreconditionError("need at least one target")
    # classes come in first-member order, so this names the least a, then its least b
    dup = next((c for c in colour_classes(hs) if len(c) > 1), None)
    if dup:
        raise PreconditionError(f"targets {dup[0]} and {dup[1]} are colour-isomorphic")
    j, winner = _selector_rec(list(range(len(hs))), hs)
    counts = tuple(count_fixcol(h, j) for h in hs)
    return DistinguisherResult(j=j, counts=counts, winner=winner)


def _selector_rec(
    idx: list[int], hs: list[TwoColouredGraph]
) -> tuple[TwoColouredGraph, int]:
    """Returns (test graph, winning index into hs) for the targets idx."""
    if len(idx) == 1:
        return TwoColouredGraph(0, 0, []), idx[0]
    if len(idx) == 2:
        r = find_pair_distinguisher(hs[idx[0]], hs[idx[1]])
        return r.j, idx[r.winner]
    head, tail = idx[0], idx[1:]
    j2, w2 = _selector_rec(tail, hs)
    m_head = count_fixcol(hs[head], j2)
    m_win = count_fixcol(hs[w2], j2)
    if m_head != m_win:
        return j2, (head if m_head > m_win else w2)
    m = m_head
    r = find_pair_distinguisher(hs[head], hs[w2])
    first, second = (head, w2) if r.winner == 0 else (w2, head)
    jp = r.j
    win_count = count_fixcol(hs[first], jp)
    others = [i for i in tail if i != w2]
    c = max(
        (Fraction(count_fixcol(hs[i], jp), win_count) for i in others),
        default=Fraction(0),
    )
    t = ceil(c * m)
    j = disjoint_union([jp] + [j2] * t)
    return j, first


def recount_verify(result: DistinguisherResult, hs: list[TwoColouredGraph]) -> bool:
    """Re-derive all counts with the naive enumerator and check strictness.

    Selector witnesses can hold many copies of one component, so the naive
    route enumerates one representative per component class and multiplies;
    nothing from the optimized counter is reused.
    """
    comps = component_graphs(result.j)
    classes = colour_classes(comps)
    counts = tuple(
        prod(count_fixcol_naive(h, comps[c[0]]) ** len(c) for c in classes)
        for h in hs
    )
    if counts != result.counts:
        return False
    w = counts[result.winner]
    return all(c < w for i, c in enumerate(counts) if i != result.winner)
