"""Reduction gadgets and their exact phase decompositions.

Three constructions are materialized at desk scale:

* the decorated complete-bipartite gadget: a K(a,b) with a connected
  instance, decoration copies and selector copies all glued to its right
  side; its homomorphism count splits exactly over biclique phases,
* the per-vertex gadget encoding independent sets: one decorated K(a,b)
  per instance vertex, wired along instance edges; good permissible phase
  vectors biject with independent sets,
* the two-pin plain-graph gadget: special vertices w_a, w_b with attached
  independent blocks, selector copies and the instance; its count splits
  exactly over edge pairs (h(w_a), h(w_b)).

Every per-phase count has a closed form that is exact at any scale; the
decomposers recompute the counts independently, as the exact counts keyed
by the image sets of the gadget's key blocks (``counting.count_by_images``:
each block side, a class of twins, enters the elimination once with its
image set as its value, and everything else is summed out), and compare.
So one K(a,b) block's table has at most 2^|H_L| * 2^|H_R| keys, however
large a and b are.
Approximation enters only through the integer-exponent selection (the
simultaneous rational approximation below, exact integer arithmetic on the
log-ratio snapshots of the exponents) and is reported as two-sided
brackets decided on the certified comparator, never folded into the exact
identities.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .bicliques import DominanceContext, all_bicliques, analyze, extremal_pair
from .counting import count_bis, count_by_images, count_col, count_fixcol, surjection_count
from .exactcmp import GREATER, LESS, LogForm, certified_compare, log_ratio_snapshot
from .graphs import Graph, TwoColouredGraph, check_estimate, disjoint_union, iter_bits
from .structure import (
    Biclique,
    InvariantViolation,
    PreconditionError,
    derived_subgraph,
    h_uv,
    has_trivial_component,
)

DIRICHLET_SCAN_GUARD = 10**5


# ---------------------------------------------------------------------------
# Simultaneous rational approximation
# ---------------------------------------------------------------------------

def _cf_convergents(num: int, den: int):
    """Continued fraction convergents (p, q) of the positive fraction num/den."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    while den:
        a, rem = divmod(num, den)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield p1, q1
        num, den = den, rem


def dirichlet(alphas, big_n: int) -> tuple[int, list[int]]:
    """Positive integers q <= big_n and p_i >= 1 with |q*alpha_i - p_i| <= big_n^(-1/d).

    Inputs are taken as exact rationals num_i/den_i (anything ``Fraction``
    accepts), and everything after that is integer
    arithmetic: the bound reads |q*num_i - p_i*den_i|^d * big_n <= den_i^d.
    One value is answered by its last continued-fraction convergent with
    q <= big_n and p >= 1, which always meets the bound (a named check says
    so).  Several values, or one value alpha <= 1/(big_n + 1), which has no such
    convergent, go to a scan that returns the least q for which every
    p_i = max(1, nearest integer to q*alpha_i) is within the bound.  Dirichlet's
    theorem guarantees some q when p_i = 0 is allowed, but not with p_i >= 1
    (alpha = 1/100 at big_n = 5 has none), so an empty scan raises
    ``PreconditionError``.
    """
    if big_n < 1:
        raise ValueError("big_n must be positive")
    vals = [Fraction(a) for a in alphas]
    if not vals or any(v <= 0 for v in vals):
        raise ValueError("alphas must be positive")
    d = len(vals)
    pairs = [(v.numerator, v.denominator) for v in vals]
    if d == 1:
        num, den = pairs[0]
        best = None
        for p, q in _cf_convergents(num, den):
            if q > big_n:
                break
            if p >= 1:
                best = (q, p)
        if best is not None:
            # the next convergent's q exceeds big_n (or alpha = p/q exactly), and
            # |q*alpha - p| < 1/q_next, so the bound holds strictly
            q, p = best
            if abs(q * num - p * den) * big_n > den:
                raise InvariantViolation(
                    "dirichlet-convergent",
                    f"convergent {p}/{q} of {num}/{den} misses 1/{big_n}",
                )
            return q, [p]
    if big_n > DIRICHLET_SCAN_GUARD:
        raise PreconditionError(f"scan bound {big_n} above guard {DIRICHLET_SCAN_GUARD}")
    scan = [(num, den, 2 * den, den**d) for num, den in pairs]
    for q in range(1, big_n + 1):
        ps = []
        for num, den, den2, den_d in scan:
            qnum = q * num
            p = max(1, (2 * qnum + den) // den2)
            if abs(qnum - p * den) ** d * big_n > den_d:
                break
            ps.append(p)
        else:
            return q, ps
    raise PreconditionError(
        f"no q <= {big_n} puts every q*alpha_i within big_n^(-1/{d}) of an integer p_i >= 1"
    )


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GadgetParams:
    """Sizes for one gadget instance.

    For scale-derived parameters, ``q`` and ``n`` record the approximation
    choice and (a, b) satisfy |q*alpha*n^3 - a| <= 1/n and
    |q*(beta*n^3 + gamma_exp*n^2) - b| <= 1/n for the stored exponents.
    """

    a: int
    b: int
    copies_gamma: int = 0
    copies_j: int = 0
    q: int | None = None
    n: int | None = None
    alpha: Fraction | None = None
    beta: Fraction | None = None
    gamma_exp: Fraction | None = None

    def __post_init__(self):
        if self.a < 1 or self.b < 1:
            raise PreconditionError("gadget sides must be at least 1")
        if self.copies_gamma < 0 or self.copies_j < 0:
            raise PreconditionError("copy counts must be non-negative")
        if self.n is None:
            return
        if self.n < 1:
            raise PreconditionError(f"scale n must be at least 1, got n={self.n}")
        if None in (self.q, self.alpha, self.beta, self.gamma_exp):
            raise PreconditionError("scale-derived sizes need q, alpha, beta and gamma_exp")
        bound = Fraction(1, self.n)
        if abs(self.q * self.alpha * self.n**3 - self.a) > bound:
            raise PreconditionError(f"a = {self.a} is not within 1/n of q*alpha*n^3")
        if abs(self.q * (self.beta * self.n**3 + self.gamma_exp * self.n**2) - self.b) > bound:
            raise PreconditionError(f"b = {self.b} is not within 1/n of q*(beta*n^3 + gamma*n^2)")


def normalized_exponents(ctx: DominanceContext) -> tuple[Fraction, Fraction, Fraction]:
    """(alpha, beta, gamma) of a dominance analysis, as log-ratio snapshots, exact where rational.

    alpha and beta are normalized so the larger is 1/2; gamma is the
    correction exponent of the analysis' decoration.
    """
    return (*ctx.ep.display(), log_ratio_snapshot(*ctx.gv.tuple4()))


def params_from_scale(ctx: DominanceContext, n: int) -> GadgetParams:
    """Derive (a, b, q) by simultaneous approximation at scale n."""
    if n < 1:
        raise PreconditionError(f"scale n must be at least 1, got n={n}")
    alpha, beta, gamma_exp = normalized_exponents(ctx)
    q, (a, b) = dirichlet([alpha * n**3, beta * n**3 + gamma_exp * n**2], n**2)
    return GadgetParams(
        a=a,
        b=b,
        q=q,
        n=n,
        alpha=alpha,
        beta=beta,
        gamma_exp=gamma_exp,
    )


# ---------------------------------------------------------------------------
# Decorated K(a,b) gadget
# ---------------------------------------------------------------------------

def build_kab_gamma_gadget(
    g_prime: TwoColouredGraph,
    gamma_graph: TwoColouredGraph,
    j: TwoColouredGraph,
    params: GadgetParams,
) -> TwoColouredGraph:
    """The decorated complete-bipartite gadget.

    Disjoint union of K(a,b), the connected instance, decoration copies and
    selector copies, plus all edges from K's right side to every left vertex
    of the attachments.  K(a,b) comes first: its sides are L 0..a-1 and
    R 0..b-1.  The gadget's adjacency cells, lsize * rsize, are charged
    against the work budget before anything is built.
    """
    if len(g_prime.components()) > 1:
        raise PreconditionError("instance must be connected")
    if g_prime.isolated_right():
        raise PreconditionError("instance must have no isolated right vertices")
    if gamma_graph.isolated_right() or j.isolated_right():
        raise PreconditionError("decorations must have no isolated right vertices")
    a, b, cg, cj = params.a, params.b, params.copies_gamma, params.copies_j
    lsize = a + g_prime.lsize + cg * gamma_graph.lsize + cj * j.lsize
    rsize = b + g_prime.rsize + cg * gamma_graph.rsize + cj * j.rsize
    check_estimate(lsize * rsize, "kab gadget build", "adjacency cells")
    attached = disjoint_union([g_prime] + [gamma_graph] * cg + [j] * cj)
    # K's rows are all of its right side; every left vertex outside K attaches to it too
    full = (1 << b) - 1
    rows = [full] * a + [row << b | full for row in attached.left_adj]
    return TwoColouredGraph.from_rows(lsize, rsize, rows)


@dataclass(frozen=True)
class PhaseEntry:
    key: tuple
    predicted: int
    actual: int


@dataclass(frozen=True)
class PhaseReport:
    entries: list[PhaseEntry]
    total_independent: int

    @property
    def total_actual(self) -> int:
        return sum(e.actual for e in self.entries)

    @property
    def exact(self) -> bool:
        return (
            all(e.predicted == e.actual for e in self.entries)
            and self.total_actual == self.total_independent
        )

    def to_json_dict(self) -> dict:
        return {
            "phases": [
                {
                    "key": [list(map(int, part)) for part in e.key],
                    "predicted": str(e.predicted),
                    "actual": str(e.actual),
                }
                for e in self.entries
            ],
            "total": str(self.total_actual),
            "total_independent_route": str(self.total_independent),
            "exact": self.exact,
        }


def _phase_report(buckets: dict, predicted, independent: int) -> PhaseReport:
    """Pair each (phase biclique, closed form) with its bucketed count.

    ``buckets`` is a one-block table of :func:`count_by_images`.  Every bucket
    must belong to a predicted phase; a leftover one breaks the
    decomposition's coverage of the full count.
    """
    entries = [
        PhaseEntry(key=b.key(), predicted=closed, actual=buckets.pop(((b.s_l, b.s_r),), 0))
        for b, closed in predicted
    ]
    if buckets:
        leftover = sorted(Biclique(*pair).key() for (pair,) in buckets)
        raise InvariantViolation(
            "phase-coverage", f"counts on phases outside the predicted set: {leftover}"
        )
    return PhaseReport(entries=entries, total_independent=independent)


def phase_decompose_kab(
    h: TwoColouredGraph,
    g_prime: TwoColouredGraph,
    gamma_graph: TwoColouredGraph,
    j: TwoColouredGraph,
    params: GadgetParams,
) -> PhaseReport:
    """Exact per-biclique phase counts, bucketed against the closed form.

    The closed form for phase (S_L, S_R) is T(a,|S_L|) T(b,|S_R|) times the
    decoration, selector and instance counts into the subgraph the phase
    confines attachments to, each raised to its copy count.  The identity is
    exact at any scale and any target; the total is re-derived by the
    production counter.
    """
    g = build_kab_gamma_gadget(g_prime, gamma_graph, j, params)
    buckets = count_by_images(h, g, [(range(params.a), range(params.b))])
    predicted = []
    for b in all_bicliques(h):
        if b.s_l.bit_count() > params.a or b.s_r.bit_count() > params.b:
            continue
        sub = derived_subgraph(h, b)
        closed = (
            surjection_count(params.a, b.s_l.bit_count())
            * surjection_count(params.b, b.s_r.bit_count())
            * count_fixcol(sub, gamma_graph) ** params.copies_gamma
            * count_fixcol(sub, j) ** params.copies_j
            * count_fixcol(sub, g_prime)
        )
        predicted.append((b, closed))
    return _phase_report(buckets, predicted, count_fixcol(h, g))


# ---------------------------------------------------------------------------
# Independent-set gadget
# ---------------------------------------------------------------------------

def build_bis_gadget(
    g_prime: TwoColouredGraph,
    gamma_graph: TwoColouredGraph,
    params: GadgetParams,
) -> TwoColouredGraph:
    """One decorated K(a,b) copy per instance vertex, wired along edges.

    Block t belongs to instance vertex t, L vertices first, so R vertex j is
    t = lsize + j.  Each block is the decorated K(a,b) with no instance, so
    it has bl = a + copies_gamma*|gamma_L| left and br = b +
    copies_gamma*|gamma_R| right vertices, and its K(a,b) sits at L indices
    t*bl..t*bl+a-1 and R indices t*br..t*br+b-1.  An instance edge (i, j)
    joins the right side of block i's K completely to the left side of block
    (lsize + j)'s K.  The blocks carry no selector copies, so a non-zero
    ``params.copies_j`` raises ``PreconditionError``.  The gadget's
    adjacency cells are charged against the work budget before anything is
    built.
    """
    if params.copies_j:
        raise PreconditionError(
            f"the bis gadget builds no selector copies, got copies_j={params.copies_j}"
        )
    nverts = g_prime.lsize + g_prime.rsize
    bl = params.a + params.copies_gamma * gamma_graph.lsize
    br = params.b + params.copies_gamma * gamma_graph.rsize
    check_estimate(nverts * bl * nverts * br, "bis gadget build", "adjacency cells")
    empty = TwoColouredGraph(0, 0, [])
    block = build_kab_gamma_gadget(empty, gamma_graph, empty, params)
    rows = [row << t * br for t in range(nverts) for row in block.left_adj]
    full = (1 << params.b) - 1
    for jj, col in enumerate(g_prime.right_adj):
        # the K rows of R vertex jj's block see the K columns of each block of its neighbours
        wire = sum(full << i * br for i in iter_bits(col))
        start = (g_prime.lsize + jj) * bl
        for l in range(start, start + params.a):
            rows[l] |= wire
    return TwoColouredGraph.from_rows(nverts * bl, nverts * br, rows)


@dataclass(frozen=True)
class BisPhaseReport:
    vector_counts: dict
    good_permissible: int
    bis_count: int
    nonpermissible_good_zero: bool
    total_independent: int

    @property
    def total_actual(self) -> int:
        return sum(self.vector_counts.values())

    @property
    def exact(self) -> bool:
        return (
            self.good_permissible == self.bis_count
            and self.nonpermissible_good_zero
            and self.total_actual == self.total_independent
        )

    def to_json_dict(self) -> dict:
        return {
            "vectors": {str(k): str(v) for k, v in sorted(self.vector_counts.items())},
            "good_permissible_vectors": self.good_permissible,
            "independent_sets": str(self.bis_count),
            "nonpermissible_good_zero": self.nonpermissible_good_zero,
            "total": str(self.total_actual),
            "total_independent_route": str(self.total_independent),
            "exact": self.exact,
        }


def phase_decompose_bis(
    h: TwoColouredGraph,
    g_prime: TwoColouredGraph,
    gamma_graph: TwoColouredGraph,
    params: GadgetParams,
) -> BisPhaseReport:
    """Bucket by per-vertex phase vector and check the independent-set bijection.

    Good vectors assign an extremal phase to every instance vertex; a good
    vector is permissible unless some instance edge pairs the two opposite
    extremal phases in the blocked direction.  Permissible good vectors
    biject with independent sets of the instance, and non-permissible good
    vectors must have zero homomorphisms.
    """
    ex1, ex2 = extremal_pair(h)
    g = build_bis_gadget(g_prime, gamma_graph, params)
    a, b = params.a, params.b
    bl = a + params.copies_gamma * gamma_graph.lsize
    br = b + params.copies_gamma * gamma_graph.rsize
    nverts = g_prime.lsize + g_prime.rsize
    blocks = [(range(t * bl, t * bl + a), range(t * br, t * br + b)) for t in range(nverts)]
    buckets = count_by_images(h, g, blocks)

    ex1_pair, ex2_pair = (ex1.s_l, ex1.s_r), (ex2.s_l, ex2.s_r)
    edges = g_prime.edges

    def permissible(vec) -> bool:
        return not any(
            vec[i] == ex1_pair and vec[g_prime.lsize + jj] == ex2_pair for i, jj in edges
        )

    good_perm = 0
    nonperm_zero = True
    for vec in itertools.product((ex1_pair, ex2_pair), repeat=nverts):
        if permissible(vec):
            good_perm += 1
        elif buckets.get(vec, 0) != 0:
            nonperm_zero = False
    # each distinct phase pair is rendered once
    names = {pair: Biclique(*pair).key() for pair in set().union(*buckets)}
    return BisPhaseReport(
        vector_counts={tuple(names[pair] for pair in vec): n for vec, n in buckets.items()},
        good_permissible=good_perm,
        bis_count=count_bis(g_prime),
        nonpermissible_good_zero=nonperm_zero,
        total_independent=count_fixcol(h, g),
    )


# ---------------------------------------------------------------------------
# Two-pin plain-graph gadget
# ---------------------------------------------------------------------------

# the two pinned vertices of the plain-graph gadget
W_A, W_B = 0, 1


def build_col_gadget(
    g_prime: TwoColouredGraph,
    j: TwoColouredGraph,
    size_a: int,
    size_b: int,
    copies_j: int = 0,
) -> Graph:
    """Two pinned vertices with attached blobs, as a plain graph.

    w_a and w_b are adjacent; w_a sees an independent block of ``size_a``
    vertices, every right vertex of the instance and of each selector copy;
    w_b symmetrically sees the ``size_b`` block and the left sides.  The pins
    are vertices ``W_A`` = 0 and ``W_B`` = 1, followed by the two blocks, the
    selector copies and the instance.
    """
    if size_a < 0 or size_b < 0 or copies_j < 0:
        raise PreconditionError("sizes must be non-negative")
    nxt = 2
    edges: list[tuple[int, int]] = [(W_A, W_B)]
    for _ in range(size_a):
        edges.append((W_A, nxt))
        nxt += 1
    for _ in range(size_b):
        edges.append((W_B, nxt))
        nxt += 1
    for piece in [j] * copies_j + [g_prime]:
        l0 = nxt
        nxt += piece.lsize
        r0 = nxt
        nxt += piece.rsize
        edges += [(l0 + i, r0 + jj) for i, jj in piece.edges]
        edges += [(W_B, l0 + i) for i in range(piece.lsize)]
        edges += [(W_A, r0 + jj) for jj in range(piece.rsize)]
    return Graph(nxt, edges)


def phase_decompose_col(
    h: Graph,
    g_prime: TwoColouredGraph,
    j: TwoColouredGraph,
    size_a: int,
    size_b: int,
    copies_j: int = 0,
) -> PhaseReport:
    """Exact per-edge-pair counts for the two-pin gadget.

    For the phase (u, v) = (images of w_a, w_b) the closed form is
    deg(u)^size_a * deg(v)^size_b times the selector and instance counts
    into the cover neighbourhood subgraph of (u, v).  The phases run over
    ordered pairs on edges, a self-loop contributing the single pair (u, u);
    their sum is the full homomorphism count, re-derived independently.
    """
    if has_trivial_component(h):
        raise PreconditionError("target has a trivial component")
    g = build_col_gadget(g_prime, j, size_a, size_b, copies_j)
    buckets = count_by_images(h, g, [((W_A,), (W_B,))])
    predicted = []
    for u in range(h.n):
        for v in iter_bits(h.adj[u]):
            sub = h_uv(h, u, v)
            closed = (
                h.degree(u) ** size_a
                * h.degree(v) ** size_b
                * count_fixcol(sub, j) ** copies_j
                * count_fixcol(sub, g_prime)
            )
            # the phase is the edge (u, v) of the cover, a K(1,1)
            predicted.append((Biclique(1 << u, 1 << v), closed))
    return _phase_report(buckets, predicted, count_col(h, g))


# ---------------------------------------------------------------------------
# Scalar bounds and bracket reports
# ---------------------------------------------------------------------------

def _within_one_plus_minus(power: LogForm, num: int, den: int) -> bool:
    """Whether 1 - c <= e^power <= 1 + c, c = num/den > 0, ties inside, on certified comparisons.

    c is taken in lowest terms.  For c >= 1 the lower side holds as e^power > 0.
    An exact tie is certified by cancellation, so it counts as within the bound.
    """
    num, den = num // (g := gcd(num, den)), den // g
    if certified_compare(power, LogForm.ln(den + num, den)) == GREATER:
        return False
    return num >= den or certified_compare(power, LogForm.ln(den - num, den)) != LESS


def xz_bound_check(x, z, k_cap: int, n: int) -> bool:
    """Whether |x^z - 1| <= c for c = 2*k_cap/n, the bound inclusive, for x > 0.

    x and z are taken as exact rationals.  With c as a rational, the bound
    is two comparisons of degree-1 log forms on the certified comparator:
    z*ln x <= ln(1 + c) and, when c < 1, z*ln x >= ln(1 - c).  Raises
    ``PreconditionError`` for x <= 0, n < 1 or k_cap < 1, and
    ``ComparisonUncertain`` if a side neither ties nor separates.
    """
    x_num, x_den = (x if isinstance(x, (int, Fraction)) else Fraction(x)).as_integer_ratio()
    if x_num <= 0 or n < 1 or k_cap < 1:
        raise PreconditionError(
            f"power bound needs x > 0, n >= 1 and k_cap >= 1, got x={x}, n={n}, k_cap={k_cap}"
        )
    return _within_one_plus_minus(LogForm.ln(x_num, x_den).scale(z), 2 * k_cap, n)


@dataclass(frozen=True)
class BracketEntry:
    biclique_key: tuple
    ok: bool


@dataclass(frozen=True)
class BracketReport:
    params: GadgetParams
    entries: list[BracketEntry]
    dominant_ratio: Fraction | None  # None when every phase is a winner

    @property
    def all_ok(self) -> bool:
        return all(e.ok for e in self.entries)


def approx_bracket_report(
    h: TwoColouredGraph, gamma_graph: TwoColouredGraph, n: int
) -> BracketReport:
    """Two-sided bracket residuals for the integer-exponent approximation.

    For every maximal biclique the exact ratio between the integer-exponent
    contribution zeta^(q n^2) |S_L|^a |S_R|^b and its idealized form
    (|S_L|^alpha |S_R|^beta)^(q n^3) (zeta |S_R|^gamma)^(q n^2) equals
    |S_L|^d1 |S_R|^d2 with |d1|, |d2| <= 1/n, so it lies within 1 +- w for
    w = 3(|V_L|+|V_R|)/n (two scalar-power bounds composed).  d1 and d2 are
    exact rationals, and each bracket is decided like ``xz_bound_check``:
    d1 ln|S_L| + d2 ln|S_R| against ln(1 + w) and ln(1 - w) on the certified
    comparator, an exact tie inside.

    ``dominant_ratio`` is the exact integer-contribution quotient between the
    reweighted winner and the best other biclique, the quantity whose growth
    in n the separation argument rests on.
    """
    ctx = analyze(h, gamma_graph)
    params = params_from_scale(ctx, n)
    d1 = params.a - params.q * params.alpha * n**3
    d2 = params.b - params.q * (params.beta * n**3 + params.gamma_exp * n**2)
    entries = [
        BracketEntry(
            biclique_key=b.key(),
            ok=_within_one_plus_minus(
                LogForm.ln(b.s_l.bit_count()).scale(d1) + LogForm.ln(b.s_r.bit_count()).scale(d2),
                3 * (h.lsize + h.rsize),
                n,
            ),
        )
        for b in ctx.maximal
    ]
    dominant = _dominant_ratio(ctx, params)
    return BracketReport(params=params, entries=entries, dominant_ratio=dominant)


def _dominant_ratio(ctx: DominanceContext, params: GadgetParams) -> Fraction | None:
    """Exact contribution quotient reweighted winner / best other; None without others."""

    def contribution(b: Biclique) -> int:
        return (
            ctx.zp.zeta[b] ** (params.q * params.n**2)
            * b.s_l.bit_count() ** params.a
            * b.s_r.bit_count() ** params.b
        )

    win = max(contribution(b) for b in ctx.c_ab_gamma)
    others = [contribution(b) for b in ctx.maximal if b not in ctx.c_ab_gamma]
    if not others:
        return None
    return Fraction(win, max(others))
