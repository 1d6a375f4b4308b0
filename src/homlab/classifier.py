"""Decision tree over dominance stages, and the plain-to-2-coloured reduction.

Given a full, non-trivial 2-coloured target the classifier decides, by
searching decorations up to a size bound, which reduction route applies:

* a strict witness makes one non-extremal biclique dominate (stage CaseI),
* one non-extremal biclique ties the extremal pair on every decoration seen
  (stage CaseII_Conjectured; a finite search can only fail to refute this),
* every non-extremal biclique is strictly dominated by the extremal pair on
  some decoration (stage CaseIII, witnessed by a disjoint union).

The remaining stages cover the degenerate shapes: the 4-path base case, a
dominating set missing the extremal pair entirely, or holding nothing else.
A decoration's verdict on a biclique is the sign of its reweighted weight,
:func:`~homlab.bicliques.gamma_weight`.  That sign depends only on the
biclique's derived class (:func:`_derived_classes`), so the search keeps one
verdict list per class, and a witness ``index`` is its class's least member.

The target's side of every stage (its extremal pair, exponent pair and
dominating set) is read from one :class:`~homlab.bicliques.TargetRecord`.
ExtremalAbsent, CaseI and the plain-graph reduction all pick the smaller
target H' through one selector step, :func:`_selector_step`.  Every
invariant the stages rest on is a named ``InvariantViolation`` check, so
``python -O`` keeps it: ``descent-target``, ``descent-smaller``,
``extremal-pair``, ``case1-extremal-absent``, ``case2-*`` and ``case3-*``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exactcmp
from .bicliques import (
    ExponentPair,
    gamma_dominating_set,
    gamma_weight,
    target_record,
    zeta_ex1_closed,
    zeta_profile,
)
from .counting import P4, count_fixcol
from .distinguisher import DistinguisherResult, build_selector
from .exactcmp import log_ratio_as_fraction
from .graphs import (
    Graph,
    TwoColouredGraph,
    canonical_form,
    canonical_side_bounded,
    colour_classes,
    disjoint_union,
    iso_colour_preserving,
)
from .structure import (
    Biclique,
    InvariantViolation,
    PreconditionError,
    degree_machinery,
    derived_subgraph,
    h_uv,
)
from .structure import fullness as fullness_profile

STAGE_REFUSED = "Refused"
STAGE_BASE_P4 = "BaseCaseP4"
STAGE_EXTREMAL_ABSENT = "ExtremalAbsent"
STAGE_EXTREMAL_ONLY = "ExtremalOnly"
STAGE_CASE_I = "CaseI"
STAGE_CASE_II = "CaseII_Conjectured"
STAGE_CASE_III = "CaseIII"
STAGE_INCONCLUSIVE = "Inconclusive"

DEFAULT_GAMMA_BOUND = 3


@dataclass(frozen=True)
class HardnessCaseReport:
    stage: str
    search_bound: int
    witnesses: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "search_bound": self.search_bound,
            "witnesses": self.witnesses,
        }


def _biclique_json(b: Biclique) -> list:
    return list(map(list, b.key()))


def _selector_step(
    subs: list[TwoColouredGraph],
) -> tuple[TwoColouredGraph, list[list[int]], DistinguisherResult]:
    """Pick H' among the colour-isomorphism classes of the candidate subgraphs.

    Two or more classes are ordered by the canonical form of their first
    member, which does not depend on the target's labels, and the selector
    runs over those members.  Returns H', the classes (indexes into ``subs``)
    in that order, and the selector, whose winner indexes the classes.
    Check ``descent-target``: H' is full and non-trivial.
    """
    classes = colour_classes(subs)
    if len(classes) > 1:
        classes.sort(key=lambda c: canonical_form(subs[c[0]]))
    sel = build_selector([subs[c[0]] for c in classes])
    hprime = subs[classes[sel.winner][0]]
    prof = fullness_profile(hprime)
    if not prof.is_full or prof.is_trivial:
        raise InvariantViolation(
            "descent-target", f"selected subgraph {hprime.to_text()!r} is not full and non-trivial"
        )
    return hprime, classes, sel


def _descend(h: TwoColouredGraph, winners: list[Biclique]) -> dict:
    """Selector step over the winners' derived subgraphs: the winners whose derived
    subgraph is H' (``selected``), H' and the selector, as printed witnesses.

    Check ``descent-smaller``: H' has fewer vertices than h.
    """
    hprime, classes, sel = _selector_step([derived_subgraph(h, b) for b in winners])
    if hprime.total >= h.total:
        raise InvariantViolation(
            "descent-smaller",
            f"selected subgraph has {hprime.total} vertices, the target {h.total}",
        )
    return {
        "selected": [_biclique_json(winners[i]) for i in classes[sel.winner]],
        "hprime": hprime.to_text(),
        "selector_j": sel.j.to_text(),
        "selector_counts": [str(c) for c in sel.counts],
    }


def _derived_classes(
    h: TwoColouredGraph, bicliques: list[Biclique]
) -> tuple[list[TwoColouredGraph], list[int]]:
    """Derived subgraphs, and for each biclique the first index of its class (the class id).

    A class is (colour-preserving isomorphism class of the derived subgraph,
    |S_R|): z_i and the eq7 verdict depend on nothing else, since
    ``count_fixcol`` is invariant under isomorphism of the target.
    """
    derived = [derived_subgraph(h, b) for b in bicliques]
    class_of = [0] * len(bicliques)
    for members in colour_classes(derived):
        first: dict[int, int] = {}
        for i in members:
            class_of[i] = first.setdefault(bicliques[i].s_r.bit_count(), i)
    return derived, class_of


def _equality_exponent(ep: ExponentPair, b: Biclique) -> Fraction | None:
    """c = ln(v_r/|S_R|) / ln(v_r/f_r), or None if irrational: b's weight
    vanishes exactly when zeta_i = zeta_ex1 * (zeta_ex2/zeta_ex1)^c."""
    return log_ratio_as_fraction(ep.v_r, b.s_r.bit_count(), ep.v_r, ep.f_r)


def _case2_sides(c: Fraction, z_i: int, z_ex1: int, z_ex2: int) -> tuple[int, int]:
    """z_i^k1 and z_ex2^k2 * z_ex1^(k1-k2) for the equality exponent c = k2/k1."""
    k2, k1 = c.numerator, c.denominator
    if not 0 < k2 < k1:
        raise InvariantViolation(
            "case2-exponent", f"equality exponent {c} must lie strictly between 0 and 1"
        )
    return z_i ** k1, z_ex2 ** k2 * z_ex1 ** (k1 - k2)


def _eq7_verdict(ep, zeta_i: int, zeta_ex1: int, zeta_ex2: int, s_r_size: int) -> int:
    """Sign of the strict-witness inequality for one biclique and decoration."""
    return gamma_weight(ep, zeta_i, zeta_ex1, zeta_ex2, s_r_size).sign()


def classify(h: TwoColouredGraph, bound: int = DEFAULT_GAMMA_BOUND) -> HardnessCaseReport:
    """Classify a full, non-trivial target; ``bound`` caps decoration sides.

    Each decoration is counted into H once, and into one derived subgraph
    per class of :func:`_derived_classes`.  The equality stage checks its
    integer identity on those same counts.
    """
    if bound < 1:
        raise PreconditionError(f"decoration bound must be at least 1, got {bound}")
    # P4 is full and non-trivial, so only a valid target stops here unranked
    if iso_colour_preserving(h, P4):
        return HardnessCaseReport(stage=STAGE_BASE_P4, search_bound=bound)

    rec = target_record(h)
    ep, c_ab = rec.ep, rec.c_ab
    ex1, ex2 = rec.extremal
    # the exponent choice equalizes the extremal pair: both are in, or neither
    if (ex1 in c_ab) != (ex2 in c_ab):
        raise InvariantViolation("extremal-pair", f"only one of {ex1!r}, {ex2!r} is in {c_ab!r}")

    if ex1 not in c_ab:
        return HardnessCaseReport(
            stage=STAGE_EXTREMAL_ABSENT,
            search_bound=bound,
            witnesses={"dominating": [_biclique_json(b) for b in c_ab], **_descend(h, c_ab)},
        )

    nonextremal = [b for b in c_ab if b not in (ex1, ex2)]
    if not nonextremal:
        return HardnessCaseReport(
            stage=STAGE_EXTREMAL_ONLY,
            search_bound=bound,
            witnesses={"dominating": [_biclique_json(b) for b in c_ab]},
        )

    derived, class_of = _derived_classes(h, nonextremal)
    gammas = [g for g in canonical_side_bounded(bound) if not g.isolated_right()]

    # per class id, in id order: one verdict per decoration searched
    verdicts: dict[int, list[int]] = {k: [] for k in class_of}
    # per decoration: (g, z_ex1, z_ex2, z_i per class), for the equality stage
    counted: list[tuple[TwoColouredGraph, int, int, dict[int, int]]] = []
    for g in gammas:
        z_ex1 = zeta_ex1_closed(ex1, g)
        z_ex2 = count_fixcol(h, g)
        z: dict[int, int] = {}
        counted.append((g, z_ex1, z_ex2, z))
        for k, ks in verdicts.items():
            z[k] = count_fixcol(derived[k], g)
            ks.append(_eq7_verdict(ep, z[k], z_ex1, z_ex2, nonextremal[k].s_r.bit_count()))
            if ks[-1] == exactcmp.GREATER:
                break
        else:
            continue
        break  # a strict witness ends the search

    strict = [k for k, ks in verdicts.items() if exactcmp.GREATER in ks]
    if strict:
        g, i = counted[-1][0], strict[0]
        c_gamma = gamma_dominating_set(rec, zeta_profile(rec, g), c_ab=c_ab)
        if ex1 in c_gamma or ex2 in c_gamma:
            raise InvariantViolation("case1-extremal-absent", f"extremal biclique in {c_gamma!r}")
        return HardnessCaseReport(
            stage=STAGE_CASE_I,
            search_bound=bound,
            witnesses={
                "gamma_graph": g.to_text(),
                "index": i,
                "biclique": _biclique_json(nonextremal[i]),
                "gamma_dominating": [_biclique_json(b) for b in c_gamma],
                **_descend(h, c_gamma),
            },
        )

    tied = [k for k, ks in verdicts.items() if all(v == exactcmp.EQUAL for v in ks)]
    if tied:
        i = tied[0]
        b = nonextremal[i]
        c = _equality_exponent(ep, b)
        if c is None:
            return HardnessCaseReport(
                stage=STAGE_INCONCLUSIVE,
                search_bound=bound,
                witnesses={
                    "reason": "equality exponent is irrational",
                    "index": i,
                    "biclique": _biclique_json(b),
                },
            )
        for g, z_ex1, z_ex2, z in counted:
            lhs, rhs = _case2_sides(c, z[i], z_ex1, z_ex2)
            if lhs != rhs:
                raise InvariantViolation(
                    "case2-identity",
                    f"certified equality failed the integer route on decoration "
                    f"{g.to_text()!r}: z_i^k1 = {lhs}, z_ex2^k2 * z_ex1^(k1-k2) = {rhs}",
                )
        return HardnessCaseReport(
            stage=STAGE_CASE_II,
            search_bound=bound,
            witnesses={
                "index": i,
                "biclique": _biclique_json(b),
                "exponent": str(c),
                "identity_checked_decorations": len(counted),
                "note": (
                    "equality held for every enumerated decoration; a finite "
                    "search cannot prove it for all of them"
                ),
                "hprime": derived[i].to_text(),
            },
        )

    # no class is tied, so each needs a LESS verdict; its first is the class's witness
    for k, ks in verdicts.items():
        if exactcmp.LESS not in ks:
            raise InvariantViolation("case3-witness", f"biclique {k} is neither tied nor dominated")
    dominated_witness = [gammas[verdicts[k].index(exactcmp.LESS)] for k in class_of]
    gamma_star = disjoint_union(dominated_witness)
    c_gamma = gamma_dominating_set(rec, zeta_profile(rec, gamma_star), c_ab=c_ab)
    if sorted(b.key() for b in c_gamma) != sorted(b.key() for b in (ex1, ex2)):
        raise InvariantViolation(
            "case3-extremal-only",
            f"the union witness leaves {c_gamma!r} dominating, not exactly the extremal pair",
        )
    return HardnessCaseReport(
        stage=STAGE_CASE_III,
        search_bound=bound,
        witnesses={
            "per_index_gamma": [g.to_text() for g in dominated_witness],
            "gamma_star": gamma_star.to_text(),
            "gamma_dominating": [_biclique_json(b) for b in c_gamma],
        },
    )


def case2_identity_check(
    h: TwoColouredGraph, i: int, gamma_graph: TwoColouredGraph
) -> tuple[int, int]:
    """Both integer sides of the equality-stage identity, denominators cleared.

    ``i`` indexes the non-extremal dominating bicliques.  With c = k2/k1
    the exact rational equality exponent, the identity reads
    zeta_i^k1 = zeta_ex2^k2 * zeta_ex1^(k1-k2); both sides are returned as
    exact integers.  This is the standalone, one-decoration form of the
    identity that :func:`classify` checks inline on its own counts.
    """
    rec = target_record(h)
    others = [b for b in rec.c_ab if b not in rec.extremal]
    if not 0 <= i < len(others):
        raise PreconditionError(f"index i must lie in [0, {len(others)}), got i={i}")
    b = others[i]
    c = _equality_exponent(rec.ep, b)
    if c is None:
        raise PreconditionError("equality exponent is irrational")
    z_i = count_fixcol(derived_subgraph(h, b), gamma_graph)
    z_ex1 = zeta_ex1_closed(rec.extremal[0], gamma_graph)
    z_ex2 = count_fixcol(h, gamma_graph)
    return _case2_sides(c, z_i, z_ex1, z_ex2)


# ---------------------------------------------------------------------------
# Plain-graph entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ColReduction:
    """Outcome of the plain-to-2-coloured reduction target selection."""

    hprime: TwoColouredGraph
    lambda_star_size: int
    class_reps: tuple[TwoColouredGraph, ...]
    selector: DistinguisherResult
    lam: tuple[tuple[int, int], ...]

    @property
    def class_count(self) -> int:
        return len(self.class_reps)

    def to_json_dict(self) -> dict:
        return {
            "hprime": self.hprime.to_text(),
            "lambda_star_size": self.lambda_star_size,
            "class_count": self.class_count,
            "selector_j": self.selector.j.to_text(),
            "selector_counts": [str(c) for c in self.selector.counts],
            "lambda": [list(p) for p in self.lam],
        }


def reduce_col_to_fixcol(h: Graph) -> ColReduction:
    """Pick the full non-trivial cover subgraph the counting problem descends to.

    Groups the edge-neighbourhood subgraphs over the top-degree edge pairs
    into colour-isomorphism classes, runs the selector over representatives,
    and reports the winner plus the number of pairs realizing it.  A target
    with a trivial component is refused by ``degree_machinery``.
    """
    lam = degree_machinery(h)
    subs = [h_uv(h, u, v) for u, v in lam]
    hprime, classes, sel = _selector_step(subs)
    return ColReduction(
        hprime=hprime,
        lambda_star_size=len(classes[sel.winner]),
        class_reps=tuple(subs[c[0]] for c in classes),
        selector=sel,
        lam=lam,
    )
