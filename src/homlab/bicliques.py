"""Biclique enumeration and the dominance analysis.

For a full, non-trivial 2-coloured target the analysis fixes exponents
(alpha, beta) that equalize the two extremal bicliques' weight, computes the
argmax set of |S_L|^alpha |S_R|^beta, then reweights by a decoration graph:
each maximal biclique gets the count of the decoration into its derived
subgraph, and an exponent correction gamma re-equalizes the extremal pair.
One form, :func:`gamma_weight`, ranks the reweighted argmax, and its sign is
the classifier's strict-witness verdict (eq. 7).  All argmax decisions go
through the certified comparator, and every invariant the analysis rests on
is a named ``InvariantViolation`` check.

Only the reweighting depends on the decoration.  What every step reads of
the target itself is one :class:`TargetRecord`, built once by
:func:`target_record`: one validation, one maximal-biclique enumeration and
one certified argmax.  ``analyze``, ``classify``, ``case2_identity_check``,
the scale parameters and the bracket report all read it, and
:class:`DominanceContext` is that record plus one decoration's reweighting.

The argmax runs over the maximal bicliques only.  With positive exponents the
weight rises strictly when either side grows, and every biclique lies inside
a maximal one, so each winner over all bicliques is maximal and the two
argmax sets, in key order, are the same list.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import exactcmp
from .counting import count_fixcol
from .exactcmp import LogForm, decimal_str, log_ratio_snapshot
from .graphs import BICLIQUE_SIDE_GUARD, TwoColouredGraph, iter_bits
from .structure import (
    Biclique,
    InvariantViolation,
    PreconditionError,
    _joint,
    derived_subgraph,
    is_maximal_biclique,
    require_full_nontrivial,
)


def _require_side_guard(h: TwoColouredGraph) -> None:
    if h.lsize > BICLIQUE_SIDE_GUARD or h.rsize > BICLIQUE_SIDE_GUARD:
        raise PreconditionError(
            f"biclique enumeration limited to {BICLIQUE_SIDE_GUARD} vertices per side"
        )


def all_bicliques(h: TwoColouredGraph) -> list[Biclique]:
    """Every biclique (both sides non-empty) of h, deterministically ordered."""
    return _bicliques_within(h, h.lsize, h.rsize)


def _bicliques_within(h: TwoColouredGraph, max_l: int, max_r: int) -> list[Biclique]:
    """The bicliques of h with at most ``max_l`` left and ``max_r`` right vertices.

    In the order of ``all_bicliques``, which is the unbounded case: a left
    side over the bound is skipped before its joint neighbourhood is taken,
    and a right side over it before a ``Biclique`` is made.
    """
    _require_side_guard(h)
    full_r = (1 << h.rsize) - 1
    out = []
    for lmask in range(1, 1 << h.lsize):
        if lmask.bit_count() > max_l:
            continue
        common = _joint(h.left_adj, lmask, full_r)
        # every non-empty submask of the joint neighbourhood pairs with lmask
        r = common
        while r:
            if r.bit_count() <= max_r:
                out.append(Biclique(lmask, r))
            r = (r - 1) & common
    out.sort(key=Biclique.key)
    return out


def maximal_bicliques(h: TwoColouredGraph) -> list[Biclique]:
    """Maximal bicliques, via the closure characterization.

    The right sides of maximal bicliques are the non-empty intersections of
    left rows, closed here one row at a time; each left side is then the
    joint neighbourhood of its right side.
    """
    _require_side_guard(h)
    closed: set[int] = set()
    for row in h.left_adj:
        if row:
            closed |= {row} | {row & s for s in closed if row & s}
    full_l = (1 << h.lsize) - 1
    out = []
    for s_r in closed:
        b = Biclique(_joint(h.right_adj, s_r, full_l), s_r)
        if not is_maximal_biclique(h, b):
            raise InvariantViolation("maximal-closure", f"closed row set gives non-maximal {b!r}")
        out.append(b)
    out.sort(key=Biclique.key)
    return out


# ---------------------------------------------------------------------------
# Exponent pair
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExponentPair:
    """Exponents equalizing the two extremal bicliques, stored symbolically.

    alpha is proportional to ln(v_r/f_r) and beta to ln(v_l/f_l); only the
    ratio matters for any argmax decision (scale invariance), display values
    are normalized so max(alpha, beta) = 1/2.
    """

    v_l: int
    f_l: int
    v_r: int
    f_r: int

    def alpha_form(self) -> LogForm:
        return LogForm.ln(self.v_r, self.f_r)

    def beta_form(self) -> LogForm:
        return LogForm.ln(self.v_l, self.f_l)

    def display(self) -> tuple[Fraction, Fraction]:
        """(alpha, beta) with the larger exactly 1/2 and the other a log-ratio snapshot."""
        alpha_over_beta = log_ratio_snapshot(self.v_r, self.f_r, self.v_l, self.f_l)
        if alpha_over_beta <= 1:
            return alpha_over_beta / 2, Fraction(1, 2)
        return Fraction(1, 2), log_ratio_snapshot(self.v_l, self.f_l, self.v_r, self.f_r) / 2


def extremal_pair(h: TwoColouredGraph) -> tuple[Biclique, Biclique]:
    """The distinguished maximal bicliques (F_L, all R), (all L, F_R) of a full, non-trivial h.

    It validates h and enumerates nothing, for callers that need only these two.
    """
    prof = require_full_nontrivial(h)
    ex1 = Biclique(sum(1 << i for i in prof.f_l), (1 << h.rsize) - 1)
    ex2 = Biclique((1 << h.lsize) - 1, sum(1 << j for j in prof.f_r))
    return ex1, ex2


# ---------------------------------------------------------------------------
# Dominating sets
# ---------------------------------------------------------------------------

def _argmax_certified(
    candidates: list[Biclique],
    weight,  # Biclique -> LogForm
) -> list[Biclique]:
    best: list[Biclique] = []
    best_form: LogForm | None = None
    for b in candidates:
        f = weight(b)
        if best_form is None:
            best, best_form = [b], f
            continue
        verdict = exactcmp.certified_compare(f, best_form)
        if verdict == exactcmp.GREATER:
            best, best_form = [b], f
        elif verdict == exactcmp.EQUAL:
            best.append(b)
    return best


def dominating_set(maximal: list[Biclique], alpha: LogForm, beta: LogForm) -> list[Biclique]:
    """Argmax of alpha ln|S_L| + beta ln|S_R| over a target's maximal bicliques; ties retained.

    alpha and beta are positive, so the module docstring's argument makes
    this the argmax over all bicliques.  A target's dominating set for its
    exponent pair is ``target_record(h).c_ab``.
    """

    def weight(b: Biclique) -> LogForm:
        return alpha * LogForm.ln(b.s_l.bit_count()) + beta * LogForm.ln(b.s_r.bit_count())

    return _argmax_certified(maximal, weight)


def dominating_set_rational(
    h: TwoColouredGraph, alpha: Fraction, beta: Fraction
) -> list[Biclique]:
    """Dominating set for explicit rational exponents (exploratory use)."""
    if alpha <= 0 or beta <= 0:
        raise PreconditionError("exponents must be positive")
    return dominating_set(maximal_bicliques(h), LogForm.rational(alpha), LogForm.rational(beta))


# ---------------------------------------------------------------------------
# The per-target record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetRecord:
    """What every step of the analysis reads of one full, non-trivial target.

    The full sides are the extremal pair's: F_L is ex1's left side and F_R
    is ex2's right side.  ``c_ab`` is the dominating set for ``ep``.
    """

    target: TwoColouredGraph
    ep: ExponentPair
    extremal: tuple[Biclique, Biclique]
    maximal: list[Biclique]
    c_ab: list[Biclique]


def target_record(h: TwoColouredGraph) -> TargetRecord:
    """Validate h, fix its exponent pair, enumerate and rank its maximal bicliques once.

    Check ``exponent-proper-full``: full and non-trivial force F_L and F_R
    to be proper subsets of their sides, so both exponents are positive.
    """
    ex1, ex2 = extremal_pair(h)
    f_l, f_r = ex1.s_l.bit_count(), ex2.s_r.bit_count()
    if not (f_l < h.lsize and f_r < h.rsize):
        raise InvariantViolation(
            "exponent-proper-full", f"full sides {f_l}, {f_r} of sides {h.lsize}, {h.rsize}"
        )
    ep = ExponentPair(v_l=h.lsize, f_l=f_l, v_r=h.rsize, f_r=f_r)
    maximal = maximal_bicliques(h)
    c_ab = dominating_set(maximal, ep.alpha_form(), ep.beta_form())
    return TargetRecord(target=h, ep=ep, extremal=(ex1, ex2), maximal=maximal, c_ab=c_ab)


# ---------------------------------------------------------------------------
# Decoration reweighting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZetaProfile:
    """Per-maximal-biclique decoration counts plus the extremal closed forms."""

    zeta: dict  # Biclique -> int
    zeta_ex1: int
    zeta_ex2: int

    def __post_init__(self):
        if self.zeta_ex1 > self.zeta_ex2:
            raise InvariantViolation(
                "zeta-order", f"zeta_ex1 {self.zeta_ex1} > zeta_ex2 {self.zeta_ex2}"
            )


def zeta_ex1_closed(ex1: Biclique, gamma_graph: TwoColouredGraph) -> int:
    """zeta(ex1) in closed form: ex1 = (f_l, all R) confines a decoration to the
    complete bipartite graph on its sides, |S_L|^|gamma_L| * |S_R|^|gamma_R| maps."""
    return ex1.s_l.bit_count() ** gamma_graph.lsize * ex1.s_r.bit_count() ** gamma_graph.rsize


def zeta_profile(rec: TargetRecord, gamma_graph: TwoColouredGraph) -> ZetaProfile:
    """The decoration's count into each maximal biclique's derived subgraph.

    Checks ``zeta-closed-form`` (ex1's count is its closed form) and
    ``zeta-whole-target`` (ex2's count is the count into the target).
    """
    h = rec.target
    ex1, ex2 = rec.extremal
    # each biclique's count of the decoration into the subgraph it confines it to
    zeta = {b: count_fixcol(derived_subgraph(h, b), gamma_graph) for b in rec.maximal}
    closed_ex1 = zeta_ex1_closed(ex1, gamma_graph)
    if zeta[ex1] != closed_ex1:
        raise InvariantViolation(
            "zeta-closed-form", f"zeta({ex1!r}) = {zeta[ex1]}, the closed form {closed_ex1}"
        )
    direct_ex2 = count_fixcol(h, gamma_graph)
    if zeta[ex2] != direct_ex2:
        raise InvariantViolation(
            "zeta-whole-target", f"zeta({ex2!r}) = {zeta[ex2]}, the count into h {direct_ex2}"
        )
    return ZetaProfile(zeta=zeta, zeta_ex1=zeta[ex1], zeta_ex2=zeta[ex2])


@dataclass(frozen=True)
class GammaValue:
    """The correction exponent, as the integer 4-tuple it is defined by.

    gamma solves zeta_ex1 * v_r^gamma = zeta_ex2 * f_r^gamma, i.e.
    gamma = ln(zeta_ex2/zeta_ex1) / ln(v_r/f_r) >= 0.
    """

    zeta_ex2: int
    zeta_ex1: int
    v_r: int
    f_r: int

    def as_fraction(self) -> Fraction | None:
        return exactcmp.log_ratio_as_fraction(
            self.zeta_ex2, self.zeta_ex1, self.v_r, self.f_r
        )

    def decimal(self) -> str:
        return decimal_str(log_ratio_snapshot(*self.tuple4()))

    def tuple4(self) -> tuple[int, int, int, int]:
        return (self.zeta_ex2, self.zeta_ex1, self.v_r, self.f_r)


def gamma(zp: ZetaProfile, ep: ExponentPair) -> GammaValue:
    return GammaValue(zeta_ex2=zp.zeta_ex2, zeta_ex1=zp.zeta_ex1, v_r=ep.v_r, f_r=ep.f_r)


def gamma_weight(ep: ExponentPair, zeta: int, zeta_ex1: int, zeta_ex2: int, s_r: int) -> LogForm:
    """ln(v_r/f_r) ln(zeta/zeta_ex1) - ln(v_r/s_r) ln(zeta_ex2/zeta_ex1).

    For a biclique with decoration count zeta and |S_R| = s_r this is
    ln(zeta * s_r^gamma) over the extremal pair's ln(zeta_ex1 * v_r^gamma),
    times the positive ln(v_r/f_r): both extremal bicliques weigh the zero
    form, and the sign is the strict-witness inequality (eq. 7).
    """
    lhs = LogForm.ln(ep.v_r, ep.f_r) * LogForm.ln(zeta, zeta_ex1)
    return lhs - LogForm.ln(ep.v_r, s_r) * LogForm.ln(zeta_ex2, zeta_ex1)


def gamma_dominating_set(
    rec: TargetRecord,
    zp: ZetaProfile,
    *,
    c_ab: list[Biclique],
) -> list[Biclique]:
    """Argmax of zeta(b) * |S_R|^gamma over the candidates ``c_ab``; ties retained.

    Every caller in the library passes the record's own ``rec.c_ab``; it
    stays a keyword because ``perfbench/tracer.py`` sizes the argmax by it.
    Checks ``gamma-equation`` (zeta_ex1 v_r^gamma = zeta_ex2 f_r^gamma),
    ``gamma-extremal-tie`` (both extremal bicliques weigh zero) and
    ``gamma-winner-maximal``.
    """
    ep = rec.ep
    gv = gamma(zp, ep)
    # the defining equation times gamma's denominator, gamma's logs as gv states them
    residual = (
        LogForm.ln(zp.zeta_ex1) * LogForm.ln(gv.v_r, gv.f_r)
        + LogForm.ln(gv.zeta_ex2, gv.zeta_ex1) * LogForm.ln(ep.v_r)
        - LogForm.ln(zp.zeta_ex2) * LogForm.ln(gv.v_r, gv.f_r)
        - LogForm.ln(gv.zeta_ex2, gv.zeta_ex1) * LogForm.ln(ep.f_r)
    )
    if not residual.is_zero():
        raise InvariantViolation("gamma-equation", f"defining equation leaves {residual!r}")

    def weight(b: Biclique) -> LogForm:
        return gamma_weight(ep, zp.zeta[b], zp.zeta_ex1, zp.zeta_ex2, b.s_r.bit_count())

    for ex in rec.extremal:
        if not (w := weight(ex)).is_zero():
            raise InvariantViolation("gamma-extremal-tie", f"extremal {ex!r} weighs {w!r}, not 0")
    winners = _argmax_certified(c_ab, weight)
    for b in winners:
        if not is_maximal_biclique(rec.target, b):
            raise InvariantViolation("gamma-winner-maximal", f"winner {b!r} is not maximal")
    return winners


# ---------------------------------------------------------------------------
# One-call analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceContext(TargetRecord):
    """A target's record plus one decoration's reweighting of it."""

    gamma_graph: TwoColouredGraph
    zp: ZetaProfile
    c_ab_gamma: list[Biclique]

    @property
    def gv(self) -> GammaValue:
        return gamma(self.zp, self.ep)

    def to_json_dict(self) -> dict:
        alpha, beta = self.ep.display()
        return {
            "target": self.target.to_text(),
            "gamma_graph": self.gamma_graph.to_text(),
            "full_left": list(iter_bits(self.extremal[0].s_l)),
            "full_right": list(iter_bits(self.extremal[1].s_r)),
            "alpha": decimal_str(alpha),
            "beta": decimal_str(beta),
            "extremal": [list(map(list, b.key())) for b in self.extremal],
            "bicliques": [list(map(list, b.key())) for b in all_bicliques(self.target)],
            "maximal": [list(map(list, b.key())) for b in self.maximal],
            "dominating": [list(map(list, b.key())) for b in self.c_ab],
            "zeta": {str(b.key()): str(self.zp.zeta[b]) for b in self.maximal},
            "zeta_ex1": str(self.zp.zeta_ex1),
            "zeta_ex2": str(self.zp.zeta_ex2),
            "gamma_tuple": list(self.gv.tuple4()),
            "gamma_decimal": self.gv.decimal(),
            "gamma_dominating": [list(map(list, b.key())) for b in self.c_ab_gamma],
        }


def analyze(
    h: TwoColouredGraph, gamma_graph: TwoColouredGraph | None = None
) -> DominanceContext:
    """Full dominance analysis; with no decoration the empty graph is used."""
    if gamma_graph is None:
        gamma_graph = TwoColouredGraph(0, 0, [])
    rec = target_record(h)
    zp = zeta_profile(rec, gamma_graph)
    c_ab_gamma = gamma_dominating_set(rec, zp, c_ab=rec.c_ab)
    if not gamma_graph.total and c_ab_gamma != rec.c_ab:
        raise InvariantViolation(
            "empty-decoration-argmax",
            f"{c_ab_gamma!r} differs from the dominating set {rec.c_ab!r}",
        )
    return DominanceContext(**vars(rec), gamma_graph=gamma_graph, zp=zp, c_ab_gamma=c_ab_gamma)
