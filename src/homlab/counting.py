"""Exact homomorphism counters.

All counts are exact Python integers.  Every production counter first
compiles its pair of graphs into one plan of three bitmask lists: the
instance as a plain loopless graph, a domain mask per instance vertex (the
target's L or R side for a colour-preserving map; the target's looped
vertices for an instance vertex with a self-loop, every target vertex
otherwise) and the target adjacency.

``_eliminate`` evaluates a plan by variable elimination.  It sums out one
instance vertex at a time, in greedy min-degree order, into an exact-int
table over that vertex's neighbourhood, and returns the residual table over
the vertices it is asked to keep.  This is dynamic programming over the tree
decomposition that the order defines, so a count costs time polynomial in the
instance when the instance has bounded treewidth, however large the count.
The order is first run on degrees alone, and its cost estimate is checked
against ``HOMLAB_MAX_WORK`` before any table is built.

One rule governs this module's caches: each holds finished work, keyed by
exactly what that work depends on, and the work budget bounds only work
still to do.  So ``HOMLAB_MAX_WORK`` is read where an elimination or a
search is about to run, never in a cache key, and a cache hit answers under
any budget.  A refusal raises, so a refused count is never remembered; the
order that its estimate was summed over is finished work and stays cached.

Each elimination reuses two halves that other calls share, in two
``functools.lru_cache``s whose ``cache_info()`` count the halves built and
reused.  The order depends on the instance alone: ``_cached_order`` keeps
160 whole orders, keyed by (instance adjacency, ``keep``), of instances of
at most ``2 * BICLIQUE_SIDE_GUARD`` vertices, and a larger instance is
ordered afresh.  Each call sums the estimate over the order from its own
domain sizes, with the same early stop and refusal whether the order was
cached or not.  A table that consumes no other, over a scope with no
instance edges, depends on the target alone:
``_fresh`` keeps 128 such tables of at most ``FRESH_TABLE_GUARD`` entries,
keyed by (target adjacency, the vertex's domain, the scope's domains in
scope order).  Two fast paths build the tables over small scopes, fresh or
consuming others, with no search: a table over one vertex u comes from
``_one_neighbour``, for each value of u the sum over v's values of the
product of v's factors, and a table over two vertices from
``_two_neighbours``, a join of v's factors over the two vertices' values
under the instance edges among v and them.  Their scope order, entries and
entry order equal ``_sum_out``'s, which builds the tables over three or
more vertices and the residual over ``keep``, and is the tests' oracle for
both.

``count_fixcol`` remembers its answers: a ``functools.lru_cache`` of 4096
entries maps (target, instance) to the count, so a pair that the
separators, the phase closed forms and ``verify-paper`` count again is
eliminated once while it stays among the 4096 most recently used.  Only
pairs with no side over ``BICLIQUE_SIDE_GUARD`` are admitted, so a
paper-scale gadget is never pinned; ``count_bis``, a count into ``P4``,
shares it.  ``_fixcol_memo.cache_info()`` is the library's cache-hit counter.

Injectivity couples every vertex, so injective counts cannot be factored
into tables: ``count_inj_fixcol`` runs an explicit-stack search over the same
plan, and charges every node it visits against the budget.  Target twins
(one side, one neighbourhood) are interchangeable, so the search uses a twin
class's members in index order: only the next unused member of each class is
free, and choosing it weighs the branch by the number of members still free.
A node is one class representative tried.  The classes are the target's
half of the search: ``_inj_target`` keeps them for 64 targets with no side
over ``BICLIQUE_SIDE_GUARD``, keyed by the target.  The last level's nodes
are counted in place, as bit counts, by the level above.  The isolated
instance vertices factor out, as a falling factorial over the target
vertices the search leaves unused.

``count_by_images`` keys the count by the image sets of a gadget's key
blocks: the phase tables of ``homlab.gadgets`` are these keyed counts.  A
block side is a class of twins (one neighbourhood, one domain), so it
enters the elimination once, as one vertex whose values are its possible
image sets, each weighted by the number of maps of the class onto it
(lifted inference with counting formulas).  The residual is then over the
image sets themselves: a side of t twins into k target vertices gives at
most 2^k values where the per-vertex residual had k^t.

The contraction identity hom(J, H) = sum over partition pairs theta of
inj(J/theta, H) is checked in batches: ``contractions`` collects each
instance's quotients once as a multiset, their rows read off precomputed
part masks and one graph built per distinct quotient, and
``partition_sum_checks`` counts one quotient per isomorphism class
(``canonical_form``) once per target.

The ``*_naive`` variants are an independent second route for the same
numbers and never use a plan: ``count_fixcol_naive`` and ``count_col_naive``
enumerate every vertex map, and ``count_bis_naive`` enumerates the subsets of
the instance's smaller side.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterator, Sequence

# WORK_BUDGET_ENV and WorkBudgetExceeded are read from here by callers
from .graphs import (
    BICLIQUE_SIDE_GUARD,
    WORK_BUDGET_ENV,
    Graph,
    PreconditionError,
    TwoColouredGraph,
    WorkBudgetExceeded,
    canonical_form,
    check_estimate,
    iter_bits,
    over_budget,
    over_estimate,
    work_budget,
)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

def _fixcol_plan(h: TwoColouredGraph, g: TwoColouredGraph):
    """Plan of the colour-preserving maps g -> h, both laid out by ``masks``.

    g's R-index j is instance vertex g.lsize + j, and h's R-index j is
    target vertex h.lsize + j.
    """
    dom = [(1 << h.lsize) - 1] * g.lsize + [((1 << h.rsize) - 1) << h.lsize] * g.rsize
    return g.masks(), dom, h.masks()


def _col_plan(h: Graph, g: Graph):
    """Plan of the homomorphisms g -> h; a looped g-vertex needs a looped image."""
    full = (1 << h.n) - 1
    loops = sum(1 << u for u in range(h.n) if h.adj[u] >> u & 1)
    adj = [m & ~(1 << u) for u, m in enumerate(g.adj)]
    dom = [loops if m >> u & 1 else full for u, m in enumerate(g.adj)]
    return adj, dom, h.adj


# ---------------------------------------------------------------------------
# Variable elimination
# ---------------------------------------------------------------------------

FRESH_TABLE_GUARD = 256  # entries: a larger table that consumes none is built afresh


def _order(adj, keep) -> Iterator[tuple[int, tuple[int, ...], tuple[int, ...], bool]]:
    """The elimination order, run on the interaction graph alone, one step at a time.

    The interaction graph is the instance plus a clique on the scope of every
    table built so far.  Each step takes the highest-numbered vertex of minimum
    degree outside ``keep`` from a degree-bucket index of vertex masks; its
    table's scope is its current neighbourhood.  Yields the steps as (vertex,
    scope in increasing order, ids of the earlier tables it consumes, whether
    it consumes none and its scope has no instance edge); table ids are step
    indexes.  No domain enters the order.
    """
    n = len(adj)
    inter = list(adj)
    kept = 0
    for u in keep:
        kept |= 1 << u
    buckets = [0] * (n + 1)  # degree -> mask of the vertices outside keep
    for u in range(n):
        if not kept >> u & 1:
            buckets[inter[u].bit_count()] |= 1 << u
    tables_of = [0] * n  # vertex -> mask of the tables whose scope holds it
    live = low = 0
    for new in range(n - len(keep)):
        while not buckets[low]:
            low += 1
        v = buckets[low].bit_length() - 1
        bit = 1 << v
        buckets[low] ^= bit
        scope = inter[v]
        consumed = tables_of[v] & live
        live ^= consumed | 1 << new
        rest = scope
        while rest:
            ub = rest & -rest
            rest ^= ub
            u = ub.bit_length() - 1
            tables_of[u] |= 1 << new
            old = inter[u]
            inter[u] = (old | scope) & ~(ub | bit)
            if not kept & ub and old.bit_count() != inter[u].bit_count():
                buckets[old.bit_count()] ^= ub
                buckets[inter[u].bit_count()] |= ub
        verts = tuple(iter_bits(scope))
        fresh = not consumed and not any(adj[u] & scope for u in verts)
        yield v, verts, tuple(iter_bits(consumed)), fresh
        # a neighbour loses v and gains the rest of the scope: min drops by <= 1
        low = max(low - 1, 0)


def _estimated(order, keep, size: list[int], budget: int) -> tuple[list, int]:
    """The steps of ``order`` taken under ``budget``, and the work estimate.

    The estimate is the sum over steps of the product of domain sizes
    (``size``) over the scope and the eliminated vertex, plus that product
    over ``keep``.  Once the running sum passes the budget no further step is
    taken, and the refusal gives the estimate so far.
    """
    steps, estimate = [], 0
    for step in order:
        if estimate > budget:
            break
        work = size[step[0]]
        for u in step[1]:
            work *= size[u]
        estimate += work
        steps.append(step)
    estimate += math.prod(size[u] for u in keep)
    if estimate > budget:
        raise over_estimate(estimate, "homomorphism count by elimination", "table entries", budget)
    return steps, estimate


def _schedule(adj: list[int], dom: list[int], keep) -> tuple[list, int]:
    """The steps of the instance's order and their estimate, refused past the budget.

    Reads ``work_budget()`` once.  An instance of at most
    ``2 * BICLIQUE_SIDE_GUARD`` vertices takes its whole order from
    ``_cached_order``; a larger one is ordered lazily, up to the first step
    past the budget.  Either way the estimate is summed once, from this
    plan's domain sizes, with ``_estimated``'s early stop and refusal.
    """
    if len(adj) > 2 * BICLIQUE_SIDE_GUARD:
        order = _order(adj, keep)
    else:
        order = _cached_order(tuple(adj), tuple(keep))
    return _estimated(order, keep, [d.bit_count() for d in dom], work_budget())


@functools.lru_cache(maxsize=160)  # a paper pass orders 140 distinct instances
def _cached_order(adj: tuple[int, ...], keep: tuple[int, ...]) -> tuple:
    """Every step of the instance's order; callers only read it."""
    return tuple(_order(adj, keep))


def _eliminate(plan, keep=()) -> dict[tuple[int, ...], int]:
    """Residual table of a plan over the ``keep`` vertices.

    Maps each assignment of target vertices to ``keep`` (a tuple in keep
    order) to the number of homomorphisms that extend it; assignments with
    none are absent.  With ``keep=()`` the table is ``{(): count}``, or empty
    when the count is 0.  ``_schedule`` checks the budget before any table
    is built.  A table that consumes none, over a scope with no instance
    edges, has its entries from ``_fresh`` when there are at most
    ``FRESH_TABLE_GUARD`` of them; any other table over one or two vertices
    comes from ``_one_neighbour`` or ``_two_neighbours``.
    """
    adj, dom, tadj = plan
    tables: list = []
    target = tuple(tadj)
    for v, scope, consumed, fresh in _schedule(adj, dom, keep)[0]:
        factors = [tables[t] for t in consumed]
        if not scope:
            # the last vertex of a component: every factor is a table over v alone
            cv, subs = dom[v], []
            for _, entries in factors:
                d = {key[0]: x for key, x in entries.items()}
                cv &= sum(1 << c for c in d)
                subs.append(d)
            table = ((), {(): _leaf(cv, subs)} if cv else {})
        elif fresh:
            doms = tuple([dom[u] for u in scope])
            if math.prod(d.bit_count() for d in doms) > FRESH_TABLE_GUARD:
                table = (scope, _fresh.__wrapped__(target, dom[v], doms))
            else:
                table = (scope, _fresh(target, dom[v], doms))
        elif len(scope) == 1:
            u = scope[0]
            table = (scope, _one_neighbour(tadj, u, dom[u], dom[v], factors))
        elif len(scope) == 2:
            table = _two_neighbours(plan, v, scope, factors)
        else:
            table = _sum_out(plan, v, scope, factors)
        if not table[1]:
            return {}
        tables.append(table)
        for t in consumed:
            tables[t] = None
    residual = [table for table in tables if table is not None]
    if not keep:
        # every table left is a component's count
        return {(): math.prod(entries[()] for _, entries in residual)}
    return _sum_out(plan, None, list(keep), residual)[1]


@functools.lru_cache(maxsize=128)  # a paper pass builds 92
def _fresh(tadj: tuple[int, ...], dv: int, doms: tuple[int, ...]) -> dict:
    """Entries of a table that consumes none, over a scope with no instance edges.

    Each assignment of the scope, whose domains are ``doms`` in scope order,
    maps to the number of values in ``dv`` adjacent to all of it, so the
    entries depend on nothing else: twin vertices (a side of a biclique, the
    leaves of a star) and other instances share them.  They are only read.
    """
    k = len(doms)
    if k == 1:
        return _one_neighbour(tadj, None, doms[0], dv, [])
    # vertex 0 is adjacent to the scope 1..k, which has no edge inside
    star = ([((1 << k) - 1) << 1] + [1] * k, (dv, *doms), tadj)
    return (_two_neighbours if k == 2 else _sum_out)(star, 0, list(range(1, k + 1)), [])[1]


def _one_neighbour(tadj, u, du: int, dv: int, factors: list) -> dict:
    """Entries of the table over one vertex u that sums out v, equal to ``_sum_out``'s.

    Each value of u maps to the sum, over v's values in ``dv`` that may sit
    next to it, of the product of v's factors; values with no such sum are
    absent.  A factor is a table over v alone or over u and v.  With no
    factor over u and v, u is in v's scope only through the instance edge
    v-u, so v's values are those adjacent to u's value; a factor over u and
    v holds only such pairs already when the instance has that edge.  The
    entries follow ``_sum_out``'s search order: the keys of the last factor
    over u and v, or else u's values in ``du``.
    """
    ones, pairs = [], []
    for fscope, entries in factors:
        if len(fscope) == 1:
            d = {key[0]: x for key, x in entries.items()}
            dv &= sum(1 << c for c in d)
            ones.append(d)
        else:
            # index by u's value: (mask of v's values, {v's value: count})
            p = fscope.index(u)
            rows: dict = {}
            for key, x in entries.items():
                c = key[1 - p]
                row = rows.get(key[p])
                if row is None:
                    rows[key[p]] = [1 << c, {c: x}]
                else:
                    row[0] |= 1 << c
                    row[1][c] = x
            pairs.append(rows)
    out = {}
    if not pairs:
        for cu in iter_bits(du):
            cv = dv & tadj[cu]
            if cv:
                out[(cu,)] = _leaf(cv, ones)
        return out
    last = pairs.pop()
    for cu, (cv, d) in last.items():
        cv &= dv
        subs = [*ones, d]
        for rows in pairs:
            e = rows.get(cu)
            if e is None:
                cv = 0
                break
            cv &= e[0]
            subs.append(e[1])
        if cv:
            out[(cu,)] = _leaf(cv, subs)
    return out


def _indexed(v, factors: list) -> list:
    """Each factor as (its scope without v, its entries indexed by their values off v).

    An index maps the values off v to (mask of v's values, {v's value: count}).
    """
    out = []
    for fscope, entries in factors:
        p = fscope.index(v)
        index: dict = {}
        for key, x in entries.items():
            rest, c = key[:p] + key[p + 1:], key[p]
            e = index.get(rest)
            if e is None:
                index[rest] = [1 << c, {c: x}]
            else:
                e[0] |= 1 << c
                e[1][c] = x
        out.append((fscope[:p] + fscope[p + 1:], index))
    return out


def _two_neighbours(plan, v, scope: Sequence[int], factors: list) -> tuple[tuple[int, ...], dict]:
    """``_sum_out``'s table over a two-vertex scope, by a direct join.

    The factors are indexed as ``_sum_out`` indexes them, and the last of the
    widest leads, as in its search; that fixes the scope order (x, y) and the
    entry order.  A lead over v, x and y gives the assignments in its entry
    order; a lead over v and x gives x's values in its entry order, each
    followed by y's values in increasing order; with no lead both run in
    increasing order.  y's values are narrowed under the x-y instance edge,
    and v's values by each factor's mask for the assignment and by the
    target rows of x's and y's values under the v-x and v-y instance edges;
    then ``_leaf`` sums v out.
    """
    adj, dom, tadj = plan
    indexed = _indexed(v, factors)
    indexed.sort(key=lambda f: len(f[0]))
    lead = indexed.pop() if indexed and indexed[-1][0] else ((), {})
    x, y = order = (*lead[0], *[u for u in scope if u not in lead[0]])
    vx, vy, xy = adj[v] >> x & 1, adj[v] >> y & 1, adj[x] >> y & 1
    cv0, ones, at_x, at_y, pairs = dom[v], [], [], [], []
    for rest, index in indexed:
        if not rest:
            mask, d = index.get((), (0, None))
            cv0 &= mask
            ones.append(d)
        elif len(rest) == 2:
            # another factor over v, x and y, keyed in (x, y) order
            pairs.append(index if rest == order else {k[::-1]: e for k, e in index.items()})
        else:
            (at_x if rest == (x,) else at_y).append(index)
    # per value of y: v's values that the v-y edge and the factors over v and y
    # alone leave, and those factors' counts
    by_y = {}
    for cy in iter_bits(dom[y]):
        mask, subs = cv0 & tadj[cy] if vy else cv0, []
        for index in at_y:
            m, d = index.get((cy,), (0, None))
            mask &= m
            subs.append(d)
        if mask:
            by_y[cy] = (mask, subs)
    if len(lead[0]) == 2:
        starts = [(cx, 1 << cy, cv, d) for (cx, cy), (cv, d) in lead[1].items()]
    elif lead[0]:
        starts = [(cx, -1, cv, d) for (cx,), (cv, d) in lead[1].items()]
    else:
        starts = [(cx, -1, cv0, None) for cx in iter_bits(dom[x])]
    dy = sum(1 << cy for cy in by_y)
    out = {}
    for cx, ys, cv, d in starts:
        cv &= cv0 & tadj[cx] if vx else cv0
        subs = ones[:] if d is None else [*ones, d]
        for index in at_x:
            e = index.get((cx,))
            if e is None:
                cv = 0
                break
            cv &= e[0]
            subs.append(e[1])
        if not cv:
            continue
        ys &= dy & tadj[cx] if xy else dy
        while ys:
            low = ys & -ys
            ys ^= low
            cy = low.bit_length() - 1
            mask, ds = by_y[cy]
            cw = cv & mask
            if not cw:
                continue
            sub = subs + ds
            for index in pairs:
                e = index.get((cx, cy))
                if e is None:
                    cw = 0
                    break
                cw &= e[0]
                sub.append(e[1])
            if cw:
                out[cx, cy] = _leaf(cw, sub)
    return order, out


def _sum_out(plan, v, scope: Sequence[int], factors: list) -> tuple[tuple[int, ...], dict]:
    """Table over ``scope`` of the sum over v's values of the factors' product.

    A factor is a table (scope tuple, entries); all of them mention v.  With
    ``v=None`` nothing is summed out and each entry is the plain product.
    The assignments of the scope come from a pruned search: it starts from
    the entries of the factor with the largest scope, assigns the other
    vertices one at a time within their domains and the instance edges to
    vertices already assigned, and drops a partial assignment as soon as a
    factor it completes has no entry for it or no value is left for v.
    Returns the table's scope order (the search order) and its entries.
    """
    adj, dom, tadj = plan
    if v is None:
        indexed = [(fscope, {key: [1, {0: x}] for key, x in entries.items()})
                   for fscope, entries in factors]
    else:
        indexed = _indexed(v, factors)
    # level 0 takes the widest factor's entries (or one empty start; always
    # for v=None, so the search runs in scope order); each later level assigns
    # one more scope vertex
    indexed.sort(key=lambda f: len(f[0]))
    if v is not None and indexed and indexed[-1][0]:
        rest, index = indexed.pop()
        order = list(rest)
        starts = list(index.items())
    else:
        order = []
        starts = [((), [1 if v is None else dom[v], None])]
    npre = len(order)
    order += [u for u in scope if u not in order]
    levels = len(order) - npre + 1
    pos = {u: k for k, u in enumerate(order)}
    # per level: the positions of its vertex's earlier instance neighbours,
    # whether v is one of its neighbours, and the factors whose scope it completes
    vnbr = 0 if v is None else adj[v]
    hits_v = [0] + [vnbr >> u & 1 for u in order[npre:]]
    nbr_pos = [None]
    before = 0
    for k, u in enumerate(order):
        if k >= npre:
            nbr_pos.append([pos[w] for w in iter_bits(adj[u] & before)])
        before |= 1 << u
    checks: list[list] = [[] for _ in range(levels)]
    for rest, index in indexed:
        ps = [pos[u] for u in rest]
        checks[max(max(ps, default=-1) - npre + 1, 0)].append((ps, index))

    out: dict = {}
    val = [0] * len(order)
    rem = [len(starts)] + [0] * (levels - 1)
    cvs, subss = [0] * levels, [[]] * levels
    j = 0
    while j >= 0:
        r = rem[j]
        if not r:
            j -= 1
            continue
        cv, subs = cvs[j], subss[j]
        if j:
            low = r & -r
            rem[j] = r ^ low
            c = low.bit_length() - 1
            val[npre + j - 1] = c
            if hits_v[j]:
                cv &= tadj[c]
                if not cv:
                    continue
        else:
            rem[0] = r - 1
            key, (mask, d) = starts[-r]
            val[:npre] = key
            cv = mask
            if not cv:
                continue
            if d is not None:
                subs = [d]
        if checks[j]:
            subs = subs[:]
            for ps, index in checks[j]:
                e = index.get(tuple([val[p] for p in ps]))
                if e is None:
                    cv = 0
                    break
                cv &= e[0]
                subs.append(e[1])
            if not cv:
                continue
        if j + 1 == levels:
            out[tuple(val)] = _leaf(cv, subs) if subs else cv.bit_count()
            continue
        j += 1
        cand = dom[order[npre + j - 1]]
        for p in nbr_pos[j]:
            cand &= tadj[val[p]]
        rem[j], cvs[j], subss[j] = cand, cv, subs
    return tuple(order), out


def _leaf(cv: int, subs: list[dict]) -> int:
    """Sum over the values left in the mask ``cv`` of the factors' product."""
    if not subs:
        return cv.bit_count()
    total = 0
    if len(subs) == 1:
        d = subs[0]
        while cv:
            low = cv & -cv
            cv ^= low
            total += d[low.bit_length() - 1]
        return total
    while cv:
        low = cv & -cv
        cv ^= low
        x = 1
        for d in subs:
            x *= d[low.bit_length() - 1]
        total += x
    return total


# ---------------------------------------------------------------------------
# Colour-preserving counting
# ---------------------------------------------------------------------------

def count_fixcol(h: TwoColouredGraph, g: TwoColouredGraph) -> int:
    """Number of colour-preserving homomorphisms from g to h.

    A pair with no side over ``BICLIQUE_SIDE_GUARD`` is looked up in
    ``_fixcol_memo``, keyed by (h, g), and counted by elimination only on a
    miss; a larger pair is always counted afresh.  Equal graphs share an
    entry whatever object holds them.  A hit answers under any budget; only
    the elimination of a miss reads ``HOMLAB_MAX_WORK``, and a refusal
    raises and leaves nothing in the memo.
    ``_fixcol_memo.cache_info()`` gives the hits and misses.
    """
    if max(h.lsize, h.rsize, g.lsize, g.rsize) > BICLIQUE_SIDE_GUARD:
        return _fixcol_memo.__wrapped__(h, g)
    return _fixcol_memo(h, g)


@functools.lru_cache(maxsize=4096)  # a paper pass counts 995 distinct pairs
def _fixcol_memo(h: TwoColouredGraph, g: TwoColouredGraph) -> int:
    """The count of g into h by elimination, remembered per pair."""
    return _eliminate(_fixcol_plan(h, g)).get((), 0)


def count_inj_fixcol(h: TwoColouredGraph, g: TwoColouredGraph) -> int:
    """Number of injective colour-preserving homomorphisms from g to h.

    An isolated vertex of g is bound only by its side and by injectivity, so
    the isolated vertices are left out of the search: each injective map of
    the rest extends in ``perm(free L, isolated L) * perm(free R, isolated R)``
    ways, where the free vertices are those of h's side the rest leaves
    unused.  Injectivity couples the other components, so one search runs over
    all of them, in DFS order so that a vertex follows one of its neighbours.

    Twins of h (one side, one neighbourhood) may be swapped in any injective
    map, so the search uses a class's members in index order: the free mask
    holds only the next unused member of each class, choosing member c frees
    its successor, and weighs the branch by ``mult[c]``, the number of the
    class's members still free.  A class of s twins that t vertices of g use
    is then tried once, for s!/(s-t)! maps.  These classes are h's half of
    the search, from ``_inj_target``.  Every class representative tried is a
    node charged against the work budget; the last level's nodes, the leaves,
    are counted in place by their parent's level, each value left one map.
    """
    if g.lsize > h.lsize or g.rsize > h.rsize:
        return 0
    isolated_l = g.left_adj.count(0)
    isolated_r = g.right_adj.count(0)
    spread = math.perm(h.lsize - g.lsize + isolated_l, isolated_l) * math.perm(
        h.rsize - g.rsize + isolated_r, isolated_r
    )
    adj = g.masks()
    order: list[int] = []
    seen = 0
    for s in range(len(adj)):
        stack = [] if seen >> s & 1 or not adj[s] else [s]
        seen |= 1 << s
        while stack:
            u = stack.pop()
            order.append(u)
            fresh = adj[u] & ~seen
            seen |= fresh
            stack += iter_bits(fresh)
    n = len(order)
    if not n:
        return spread
    # n >= 2: a vertex in the search has a neighbour, so level n - 2 exists
    if max(h.lsize, h.rsize) > BICLIQUE_SIDE_GUARD:
        tadj, succ, mult, free, heavy = _inj_target.__wrapped__(h)
    else:
        tadj, succ, mult, free, heavy = _inj_target(h)
    pos = {u: k for k, u in enumerate(order)}
    earlier = [[pos[w] for w in iter_bits(adj[u]) if pos[w] < k] for k, u in enumerate(order)]
    lmask, rmask = (1 << h.lsize) - 1, ((1 << h.rsize) - 1) << h.lsize
    doms = [lmask if u < g.lsize else rmask for u in order]
    last = n - 1
    fused = last - 1
    linked = fused in earlier[last]
    above = [e for e in earlier[last] if e != fused]
    budget, nodes, total = work_budget(), 0, 0
    val, frees, weight = [0] * n, [free] + [0] * last, [1] * n
    rem = [doms[0] & free] + [0] * last
    k = 0
    while k >= 0:
        r = rem[k]
        if not r:
            k -= 1
            continue
        if k < fused:
            low = r & -r
            rem[k] = r ^ low
            nodes += 1
            c = val[k] = low.bit_length() - 1
            f = frees[k] ^ low | succ[c]
            w = weight[k] * mult[c]
            k += 1
            cand = doms[k] & f
            for e in earlier[k]:
                cand &= tadj[val[e]]
            frees[k], weight[k], rem[k] = f, w, cand
            if nodes > budget:
                raise over_budget(f"injective count visited {nodes} search nodes", budget)
            continue
        # level n - 2: each value tried is a node, and each value it leaves
        # the last level is a leaf that completes a homomorphism; the leaves
        # are counted by bit counts, not visited one by one
        base = doms[last]
        for e in above:
            base &= tadj[val[e]]
        f, w = frees[k], weight[k]
        rem[k] = 0
        while r:
            low = r & -r
            r ^= low
            nodes += 1
            if nodes > budget:
                raise over_budget(f"injective count visited {nodes} search nodes", budget)
            c = low.bit_length() - 1
            leaf = base & (f ^ low | succ[c])
            if linked:
                leaf &= tadj[c]
            if leaf:
                leaves = leaf.bit_count()
                nodes += leaves
                if nodes > budget:
                    raise over_budget(f"injective count visited {nodes} search nodes", budget)
                for e, m in heavy:
                    leaves += e * (leaf & m).bit_count()
                total += w * mult[c] * leaves
        k -= 1
    return total * spread


@functools.lru_cache(maxsize=64)  # a paper pass searches into 7 targets
def _inj_target(h: TwoColouredGraph) -> tuple:
    """h's half of the injective search: (tadj, succ, mult, free, heavy).

    ``tadj`` is h's adjacency laid out L first.  The twin classes (one side,
    one neighbourhood) are taken in index order: ``free`` holds each class's
    first member, ``succ[c]`` the bit of the member after c (0 for the last),
    ``mult[c]`` the number of members from c on, and ``heavy`` lists, per
    e >= 1, the mask of the members c with ``mult[c] = e + 1``, each of which
    stands for e + 1 maps at a leaf.  Callers only read them.  Targets with a
    side over ``BICLIQUE_SIDE_GUARD`` are not kept.
    """
    tadj = h.masks()
    classes: dict[tuple[bool, int], list[int]] = {}
    for c, m in enumerate(tadj):
        classes.setdefault((c < h.lsize, m), []).append(c)
    succ, mult, free, heavy = [0] * len(tadj), [1] * len(tadj), 0, {}
    for members in classes.values():
        free |= 1 << members[0]
        for j, c in enumerate(members[:-1]):
            mult[c] = len(members) - j
            succ[c] = 1 << members[j + 1]
            heavy[mult[c] - 1] = heavy.get(mult[c] - 1, 0) | 1 << c
    return tadj, succ, mult, free, list(heavy.items())


def count_fixcol_naive(h: TwoColouredGraph, g: TwoColouredGraph) -> int:
    """Full enumeration over every vertex map; the oracle route."""
    estimate = max(h.lsize, 1) ** g.lsize * max(h.rsize, 1) ** g.rsize
    check_estimate(estimate, "naive colour-preserving count", "vertex maps")
    if (g.lsize and not h.lsize) or (g.rsize and not h.rsize):
        return 0
    total, edges = 0, g.edges
    for lmap in itertools.product(range(h.lsize), repeat=g.lsize):
        for rmap in itertools.product(range(h.rsize), repeat=g.rsize):
            if all((h.left_adj[lmap[i]] >> rmap[j]) & 1 for i, j in edges):
                total += 1
    return total


# ---------------------------------------------------------------------------
# Counts keyed by the image sets of key vertices
# ---------------------------------------------------------------------------

def _onto_counts(t: int, kmax: int) -> list[int]:
    """Maps of t labelled vertices onto exactly k given images, for k = 0..kmax.

    By the recurrence f_{i+1}(k) = k (f_i(k) + f_i(k - 1)): vertex i + 1
    either lands on one of the k images the others already hit, or is the
    only vertex on one of them.
    """
    f = [1] + [0] * kmax
    for _ in range(t):
        f = [0] + [k * (f[k] + f[k - 1]) for k in range(1, kmax + 1)]
    return f


def count_by_images(h, g, blocks) -> dict[tuple, int]:
    """Homomorphism counts of g into h, bucketed by the image sets of key blocks.

    For two-coloured graphs the maps are colour-preserving, each block is a
    pair (left indexes, right indexes) of g's key vertices on each side, and
    its key part is (left image mask, right image mask) with bit j the
    target's vertex j of that side.  For plain graphs the maps are the
    homomorphisms of ``count_col``, and a block's two parts are two tuples of
    g's vertices, each keyed by the mask of its images in h.  The key has one
    such pair per block; a key's count sums the homomorphisms whose blocks
    have exactly those image sets, everything else summed out by elimination.

    A key vertex out of range, or named twice in the blocks, raises
    ``PreconditionError`` before anything is counted.  The twins of a part
    (its vertices with one neighbourhood and one domain) enter the
    elimination once, as one vertex whose value is their image set; see
    ``_lift_twins``.  The lifting's sizes and then the elimination's
    estimate are checked against the budget.
    """
    if isinstance(g, TwoColouredGraph):
        plan, shift = _fixcol_plan(h, g), h.lsize
        sides = ((0, g.lsize, "left vertex"), (g.lsize, g.rsize, "right vertex"))
    else:
        plan, shift = _col_plan(h, g), 0
        sides = ((0, g.n, "vertex"),) * 2
    adj, dom, tadj = plan
    key_classes, slots, seen = [], [], set()
    for b, (left, right) in enumerate(blocks):
        for slot, (offset, size, name), part in zip((2 * b, 2 * b + 1), sides, (left, right)):
            # a part's twin classes, each kept as its first vertex
            classes: dict = {}
            for i in part:
                if not 0 <= i < size:
                    raise PreconditionError(f"key {name} {i} is not in range({size})")
                v = i + offset
                if v in seen:
                    raise PreconditionError(f"key {name} {i} appears twice in the key blocks")
                seen.add(v)
                classes.setdefault((adj[v], dom[v]), []).append(v)
            key_classes += classes.values()
            slots += [slot] * len(classes)
    plan, keep, image, weight = _lift_twins(plan, key_classes)
    out: dict[tuple, int] = {}
    for values, count in _eliminate(plan, keep).items():
        union = [0] * (2 * len(blocks))
        for s, x in zip(slots, values):
            # a part's mask is the union of its classes' sets; R masks lose the L bits
            union[s] |= image[x] >> (s & 1) * shift
            count *= weight[x]
        masks = iter(union)
        key = tuple(zip(masks, masks))  # one (left mask, right mask) pair per block
        out[key] = out.get(key, 0) + count
    return out


def _lift_twins(plan, classes: list[list[int]]):
    """The plan with each class of t >= 2 twins as one vertex valued by image sets.

    Every class keeps its first vertex; a class of t >= 2 drops the rest, and
    its values are new target vertices, one per non-empty set S of at most t
    vertices of its domain; a set with no common neighbour is left out when
    the class has neighbours.  S's vertex is adjacent to the common
    neighbourhood N(S), and to the set T of an adjacent class when T lies in
    N(S), so a map of the lifted plan is a map of the class's neighbours that
    every vertex of S sees.  The maps of the class onto exactly S number
    f_t(|S|) of ``_onto_counts``.  The number of sets, and then of subset
    tests between adjacent classes, are checked against the budget before
    any set is built.  Returns the lifted plan, the kept vertices renumbered,
    and each value's image mask and weight: 1 << c and 1 for a target vertex
    c, S's mask and f_t(|S|) for a set S.
    """
    adj, dom, tadj = plan
    image = [1 << c for c in range(len(tadj))]
    weight = [1] * len(tadj)
    twins = [cls for cls in classes if len(cls) > 1]
    if not twins:
        return plan, [cls[0] for cls in classes], image, weight
    sizes = {}
    for cls in twins:
        d = dom[cls[0]].bit_count()
        sizes[cls[0]] = sum(math.comb(d, k) for k in range(1, min(len(cls), d) + 1))
    check_estimate(sum(sizes.values()), "lifting twin classes", "image sets")
    pairs = [(u, v) for u in sizes for v in sizes if u < v and adj[u] >> v & 1]
    check_estimate(sum(sizes[u] * sizes[v] for u, v in pairs), "lifting twin classes",
                   "subset tests")
    dropped = sum(1 << v for cls in twins for v in cls[1:])
    new = {v: k for k, v in enumerate(u for u in range(len(adj)) if not dropped >> u & 1)}
    ladj = [sum(1 << new[w] for w in iter_bits(adj[v] & ~dropped)) for v in new]
    ldom = [dom[v] for v in new]
    ltadj = list(tadj)
    values = {}
    for cls in twins:
        v, t = cls[0], len(cls)
        domain = list(iter_bits(dom[v]))
        onto = _onto_counts(t, min(t, len(domain)))
        xs = []
        for k in range(1, min(t, len(domain)) + 1):
            for subset in itertools.combinations(domain, k):
                common = tadj[subset[0]]
                for c in subset[1:]:
                    common &= tadj[c]
                if common or not adj[v]:
                    x = len(ltadj)
                    for c in iter_bits(common):
                        ltadj[c] |= 1 << x
                    ltadj.append(common)
                    image.append(sum(1 << c for c in subset))
                    weight.append(onto[k])
                    xs.append(x)
        ldom[new[v]] = sum(1 << x for x in xs)
        values[v] = xs
    for u, v in pairs:
        for x in values[u]:
            common = ltadj[x]
            for y in values[v]:
                if not image[y] & ~common:
                    ltadj[x] |= 1 << y
                    ltadj[y] |= 1 << x
    return (ladj, ldom, ltadj), [new[cls[0]] for cls in classes], image, weight


# ---------------------------------------------------------------------------
# Plain homomorphism counting
# ---------------------------------------------------------------------------

def count_col(h: Graph, g: Graph) -> int:
    """Number of homomorphisms from g to h (loops in h are legal targets)."""
    return _eliminate(_col_plan(h, g)).get((), 0)


def count_col_naive(h: Graph, g: Graph) -> int:
    """Full enumeration over every vertex map; the oracle route."""
    check_estimate(max(h.n, 1) ** g.n, "naive homomorphism count", "vertex maps")
    if g.n and not h.n:
        return 0
    total, edges = 0, g.edges
    for vmap in itertools.product(range(h.n), repeat=g.n):
        if all(h.adj[vmap[u]] >> vmap[v] & 1 for u, v in edges):
            total += 1
    return total


# ---------------------------------------------------------------------------
# Independent sets of a 2-coloured graph
# ---------------------------------------------------------------------------

P4 = TwoColouredGraph(2, 2, [(0, 0), (1, 0), (1, 1)])


def count_bis(g: TwoColouredGraph) -> int:
    """Number of independent sets of g, the empty set included.

    It is the colour-preserving count into ``P4``, the 2+2 path L0-R0-L1-R1
    of the paper's base case: the vertices mapped to L0 or R1, the ends of
    its one missing edge, form an independent set, and each independent set
    comes from exactly one map.
    """
    return count_fixcol(P4, g)


def count_bis_naive(g: TwoColouredGraph) -> int:
    """Independent sets of g by subset enumeration over its smaller side.

    An independent set splits into its part S on the smaller side and a part
    on the other side, and the sets with part S are exactly the subsets of the
    other side that avoid N(S).  So the count is the sum, over every S, of
    2^(|other side| - |N(S)|): 2^min(lsize, rsize) steps, charged against the
    work budget.  It uses neither ``P4`` nor the elimination; it is the
    second route that ``count_bis`` is checked against.
    """
    if g.lsize <= g.rsize:
        small, other = g.left_adj, g.rsize
    else:
        small, other = g.right_adj, g.lsize
    check_estimate(2 ** len(small), "naive independent-set count", "subsets")
    total = 0
    for mask in range(1 << len(small)):
        nbrs = 0
        for i in iter_bits(mask):
            nbrs |= small[i]
        total += 1 << (other - nbrs.bit_count())
    return total


# ---------------------------------------------------------------------------
# Surjections
# ---------------------------------------------------------------------------

def surjection_count(n: int, k: int) -> int:
    """Number of surjections from an n-set onto a k-set, by inclusion-exclusion."""
    if n < 0 or k < 0:
        raise ValueError("arguments must be non-negative")
    return sum(
        (-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)
    )


# ---------------------------------------------------------------------------
# Set partitions and the contraction identity
# ---------------------------------------------------------------------------

def set_partitions(n: int) -> Iterator[list[list[int]]]:
    """All set partitions of range(n), from restricted growth strings in
    lexicographic order."""
    if n < 0:
        raise PreconditionError(f"set partitions need n >= 0, got n={n}")
    if n == 0:
        yield []
        return
    rgs = [0] * n
    while True:
        parts: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
        for v, block in enumerate(rgs):
            parts[block].append(v)
        yield parts
        # the rightmost entry that may grow is at most the maximum before it
        i = n - 1
        while i > 0 and rgs[i] > max(rgs[:i]):
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        rgs[i + 1:] = [0] * (n - i - 1)


PARTITION_SIDE_GUARD = 5  # Bell(5) = 52 per side


def contractions(j: TwoColouredGraph) -> dict[TwoColouredGraph, int]:
    """The multiset of quotients j/theta over all partition pairs theta.

    Maps each labelled quotient to the number of pairs (partition of L(j),
    partition of R(j)) that give it, in first-seen order; the multiplicities
    sum to Bell(lsize) * Bell(rsize).  A quotient's row for an L part is the
    mask of the R parts that the union of its members' rows meets: the
    unions are formed once per L partition, and each R partition maps every
    R mask to its parts once.  Each distinct quotient becomes one graph.
    """
    if j.lsize > PARTITION_SIDE_GUARD or j.rsize > PARTITION_SIDE_GUARD:
        raise ValueError(
            f"partition enumeration limited to {PARTITION_SIDE_GUARD} vertices per side"
        )
    unions = [
        [functools.reduce(operator.or_, [j.left_adj[i] for i in part], 0) for part in theta]
        for theta in set_partitions(j.lsize)
    ]
    parts_of = []  # per R partition: its size, and each R mask's mask of parts met
    for theta in set_partitions(j.rsize):
        part = [0] * j.rsize
        for k, members in enumerate(theta):
            for i in members:
                part[i] = 1 << k
        meets = [0] * (1 << j.rsize)
        for m in range(1, 1 << j.rsize):
            low = m & -m
            meets[m] = meets[m ^ low] | part[low.bit_length() - 1]
        parts_of.append((len(theta), meets))
    seen: dict[tuple[int, tuple[int, ...]], int] = {}
    for rows in unions:
        for size, meets in parts_of:
            key = (size, tuple([meets[m] for m in rows]))
            seen[key] = seen.get(key, 0) + 1
    return {
        TwoColouredGraph.from_rows(len(rows), size, rows): times
        for (size, rows), times in seen.items()
    }


def partition_sum_checks(
    hs: Sequence[TwoColouredGraph], js: Sequence[TwoColouredGraph]
) -> list[list[tuple[int, int]]]:
    """Both sides of the contraction identity for every pair (h, j).

    Returns one row per h, one (lhs, rhs) pair per j in that row.  Left: the
    colour-preserving count of j into h.  Right: the sum, over all partitions
    of L(j) and R(j), of the injective counts of the contracted graphs.  Each
    j's quotients are collected once.  Isomorphic quotients have equal
    injective counts, so the quotients are grouped by ``canonical_form`` and
    each group's first-seen member is counted once per h; a quotient whose
    canonical form the work budget refuses is a group of its own.  The two
    sides agree exactly when the counters are right; the caller compares
    them.  Every j is checked against ``PARTITION_SIDE_GUARD`` before
    anything is counted.
    """
    multisets = [contractions(j) for j in js]
    first: dict = {}  # canonical form -> the first quotient of that class
    rep = {}  # quotient -> the quotient counted for it
    for m in multisets:
        for q in m:
            if q not in rep:
                try:
                    form = canonical_form(q)
                except WorkBudgetExceeded:
                    form = q
                rep[q] = first.setdefault(form, q)
    rows = []
    for h in hs:
        inj = {q: count_inj_fixcol(h, q) for q in first.values()}
        rows.append([
            (count_fixcol(h, j), sum(times * inj[rep[q]] for q, times in m.items()))
            for j, m in zip(js, multisets)
        ])
    return rows


def partition_sum_check(
    h: TwoColouredGraph, j: TwoColouredGraph
) -> tuple[int, int]:
    """Both sides of the contraction identity for one pair; see
    ``partition_sum_checks``."""
    return partition_sum_checks([h], [j])[0][0]
