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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import exactcmp
from .bicliques import (
    dominating_set,
    exponent_pair,
    extremal_pair,
    gamma,
    gamma_dominating_set,
    zeta_profile,
)
from .counting import count_fixcol
from .distinguisher import DistinguisherResult, build_selector
from .exactcmp import LogForm, certified_compare, log_ratio_as_fraction
from .graphs import (
    Graph,
    TwoColouredGraph,
    canonical_form,
    canonical_side_bounded,
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
    has_trivial_component,
    require_full_nontrivial,
    two_coloured_is_trivial,
)
from .structure import fullness as fullness_profile

STAGE_REFUSED = "RefusedTrivialComponent"
STAGE_BASE_P4 = "BaseCaseP4"
STAGE_EXTREMAL_ABSENT = "ExtremalAbsent"
STAGE_EXTREMAL_ONLY = "ExtremalOnly"
STAGE_CASE_I = "CaseI"
STAGE_CASE_II = "CaseII_Conjectured"
STAGE_CASE_III = "CaseIII"
STAGE_INCONCLUSIVE = "Inconclusive"

DEFAULT_GAMMA_BOUND = 3

P4 = TwoColouredGraph(2, 2, [(0, 0), (1, 0), (1, 1)])


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
    return [sorted(b.s_l), sorted(b.s_r)]


def _descend(
    h: TwoColouredGraph, winners: list[Biclique]
) -> tuple[TwoColouredGraph, DistinguisherResult, list[Biclique]]:
    """Selector step: pick one derived subgraph class among the winners.

    Returns the selected subgraph, the selector result over class
    representatives, and the winners whose derived subgraph lies in the
    selected class.
    """
    classes: dict[bytes, list[Biclique]] = {}
    reps: dict[bytes, TwoColouredGraph] = {}
    for b in winners:
        sub = derived_subgraph(h, b)
        key = canonical_form(sub)
        classes.setdefault(key, []).append(b)
        reps.setdefault(key, sub)
    keys = sorted(reps)
    sel = build_selector([reps[k] for k in keys])
    chosen_key = keys[sel.winner]
    hprime = reps[chosen_key]
    prof = fullness_profile(hprime)
    assert prof.is_full and not prof.is_trivial
    assert hprime.total < h.total
    return hprime, sel, classes[chosen_key]


def _derived_classes(
    h: TwoColouredGraph, bicliques: list[Biclique]
) -> tuple[list[TwoColouredGraph], list[int]]:
    """Derived subgraphs, and for each biclique the first index of its class.

    A class is (colour-preserving isomorphism class of the derived subgraph,
    |S_R|): z_i and the eq7 verdict depend on nothing else, since
    ``count_fixcol`` is invariant under isomorphism of the target.  A
    canonical form is computed only for a derived subgraph that shares its
    sides and edge count with another one.
    """
    derived = [derived_subgraph(h, b) for b in bicliques]
    shapes = [(d.lsize, d.rsize, len(d.edges)) for d in derived]
    first: dict[tuple, int] = {}
    class_of = []
    for i, (b, d, shape) in enumerate(zip(bicliques, derived, shapes)):
        form = canonical_form(d) if shapes.count(shape) > 1 else None
        class_of.append(first.setdefault((shape, form, len(b.s_r)), i))
    return derived, class_of


def _case2_sides(c: Fraction, z_i: int, z_ex1: int, z_ex2: int) -> tuple[int, int]:
    """z_i^k1 and z_ex2^k2 * z_ex1^(k1-k2) for the equality exponent c = k2/k1."""
    k2, k1 = c.numerator, c.denominator
    if not 0 < k2 < k1:
        raise InvariantViolation(
            "case2-exponent", f"equality exponent {c} must lie strictly between 0 and 1"
        )
    return z_i ** k1, z_ex2 ** k2 * z_ex1 ** (k1 - k2)


def _eq7_verdict(
    ep, zeta_i: int, zeta_ex1: int, zeta_ex2: int, s_r_size: int,
    start_bits: int, max_bits: int,
) -> int:
    """Sign of the strict-witness inequality for one biclique and decoration.

    Compares ln(v_r/f_r) * ln(zeta_i/zeta_ex1) against
    ln(v_r/s_r) * ln(zeta_ex2/zeta_ex1).
    """
    lhs = LogForm.ln(ep.v_r, ep.f_r) * LogForm.ln(zeta_i, zeta_ex1)
    rhs = LogForm.ln(ep.v_r, s_r_size) * LogForm.ln(zeta_ex2, zeta_ex1)
    return certified_compare(lhs, rhs, start_bits, max_bits)


def classify(
    h: TwoColouredGraph,
    bound: int = DEFAULT_GAMMA_BOUND,
    start_bits: int = exactcmp.DEFAULT_START_BITS,
    max_bits: int = exactcmp.DEFAULT_MAX_BITS,
) -> HardnessCaseReport:
    """Classify a full, non-trivial target; ``bound`` caps decoration sides.

    Each decoration is counted into H once, and into one derived subgraph
    per class of :func:`_derived_classes`.  The equality stage checks its
    integer identity on those same counts.
    """
    if bound < 1:
        raise PreconditionError(f"decoration bound must be at least 1, got {bound}")
    require_full_nontrivial(h)
    if iso_colour_preserving(h, P4):
        return HardnessCaseReport(stage=STAGE_BASE_P4, search_bound=bound)

    ep = exponent_pair(h)
    prof = fullness_profile(h)
    ex1, ex2 = extremal_pair(h, prof)
    c_ab = dominating_set(h, ep, start_bits, max_bits)

    if ex1 not in c_ab:
        # the exponent choice equalizes the extremal pair, so neither is in
        assert ex2 not in c_ab
        hprime, sel, chosen = _descend(h, c_ab)
        return HardnessCaseReport(
            stage=STAGE_EXTREMAL_ABSENT,
            search_bound=bound,
            witnesses={
                "dominating": [_biclique_json(b) for b in c_ab],
                "selected": [_biclique_json(b) for b in chosen],
                "hprime": hprime.to_text(),
                "selector_j": sel.j.to_text(),
                "selector_counts": [str(c) for c in sel.counts],
            },
        )
    assert ex2 in c_ab

    nonextremal = [b for b in c_ab if b not in (ex1, ex2)]
    if not nonextremal:
        return HardnessCaseReport(
            stage=STAGE_EXTREMAL_ONLY,
            search_bound=bound,
            witnesses={"dominating": [_biclique_json(b) for b in c_ab]},
        )

    derived, class_of = _derived_classes(h, nonextremal)
    gammas = canonical_side_bounded(bound, skip_isolated_right=True)

    strict_witness: tuple[TwoColouredGraph, int] | None = None
    equal_so_far = [True] * len(nonextremal)
    dominated_witness: list[TwoColouredGraph | None] = [None] * len(nonextremal)
    # per decoration: (g, z_ex1, z_ex2, z_i per class), for the equality stage
    counted: list[tuple[TwoColouredGraph, int, int, dict[int, int]]] = []

    for g in gammas:
        z_ex1 = len(prof.f_l) ** g.lsize * h.rsize ** g.rsize
        z_ex2 = count_fixcol(h, g)
        z: dict[int, int] = {}
        verdicts: dict[int, int] = {}
        counted.append((g, z_ex1, z_ex2, z))
        for i, k in enumerate(class_of):
            if k not in verdicts:
                z[k] = count_fixcol(derived[k], g)
                verdicts[k] = _eq7_verdict(
                    ep, z[k], z_ex1, z_ex2, len(nonextremal[k].s_r),
                    start_bits, max_bits,
                )
            verdict = verdicts[k]
            if verdict == exactcmp.GREATER:
                strict_witness = (g, i)
                break
            if verdict == exactcmp.LESS:
                equal_so_far[i] = False
                if dominated_witness[i] is None:
                    dominated_witness[i] = g
        if strict_witness:
            break

    if strict_witness:
        g, i = strict_witness
        zp = zeta_profile(h, g)
        gv = gamma(zp, ep)
        c_gamma = gamma_dominating_set(h, ep, zp, gv, c_ab, start_bits, max_bits)
        assert ex1 not in c_gamma and ex2 not in c_gamma
        hprime, sel, chosen = _descend(h, c_gamma)
        return HardnessCaseReport(
            stage=STAGE_CASE_I,
            search_bound=bound,
            witnesses={
                "gamma_graph": g.to_text(),
                "index": i,
                "biclique": _biclique_json(nonextremal[i]),
                "gamma_dominating": [_biclique_json(b) for b in c_gamma],
                "selected": [_biclique_json(b) for b in chosen],
                "hprime": hprime.to_text(),
                "selector_j": sel.j.to_text(),
                "selector_counts": [str(c) for c in sel.counts],
            },
        )

    if any(equal_so_far):
        i = equal_so_far.index(True)
        b = nonextremal[i]
        c = log_ratio_as_fraction(ep.v_r, len(b.s_r), ep.v_r, ep.f_r)
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
        k = class_of[i]
        for g, z_ex1, z_ex2, z in counted:
            lhs, rhs = _case2_sides(c, z[k], z_ex1, z_ex2)
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

    assert all(w is not None for w in dominated_witness)
    gamma_star = disjoint_union([g for g in dominated_witness])
    zp = zeta_profile(h, gamma_star)
    gv = gamma(zp, ep)
    c_gamma = gamma_dominating_set(h, ep, zp, gv, c_ab, start_bits, max_bits)
    assert sorted(b.key() for b in c_gamma) == sorted(
        b.key() for b in (ex1, ex2)
    ), "the union witness must leave exactly the extremal pair dominating"
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

    With c = k2/k1 the exact rational equality exponent, the identity reads
    zeta_i^k1 = zeta_ex2^k2 * zeta_ex1^(k1-k2); both sides are returned as
    exact integers.  This is the standalone, one-decoration form of the
    identity that :func:`classify` checks inline on its own counts.
    """
    ep = exponent_pair(h)
    prof = fullness_profile(h)
    ex1, ex2 = extremal_pair(h, prof)
    c_ab = dominating_set(h, ep)
    nonextremal = [b for b in c_ab if b not in (ex1, ex2)]
    b = nonextremal[i]
    c = log_ratio_as_fraction(ep.v_r, len(b.s_r), ep.v_r, ep.f_r)
    if c is None:
        raise PreconditionError("equality exponent is irrational")
    z_i = count_fixcol(derived_subgraph(h, b), gamma_graph)
    z_ex1 = len(prof.f_l) ** gamma_graph.lsize * h.rsize ** gamma_graph.rsize
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
    class_count: int
    class_reps: tuple[TwoColouredGraph, ...]
    selector: DistinguisherResult
    lam: tuple[tuple[int, int], ...]

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
    and reports the winner plus the number of pairs realizing it.
    """
    if has_trivial_component(h):
        raise PreconditionError(
            "target has a trivial component (fully looped clique or complete "
            "bipartite); such targets are easy and the reduction refuses them"
        )
    profile = degree_machinery(h)
    classes: dict[bytes, list[tuple[int, int]]] = {}
    reps: dict[bytes, TwoColouredGraph] = {}
    for u, v in profile.lam:
        sub = h_uv(h, u, v)
        key = canonical_form(sub)
        classes.setdefault(key, []).append((u, v))
        reps.setdefault(key, sub)
    keys = sorted(reps)
    sel = build_selector([reps[k] for k in keys])
    chosen = keys[sel.winner]
    hprime = reps[chosen]
    prof = fullness_profile(hprime)
    assert prof.is_full and not two_coloured_is_trivial(hprime)
    return ColReduction(
        hprime=hprime,
        lambda_star_size=len(classes[chosen]),
        class_count=len(keys),
        class_reps=tuple(reps[k] for k in keys),
        selector=sel,
        lam=profile.lam,
    )
