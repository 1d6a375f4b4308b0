import itertools
import random
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab import gadgets, verify
from homlab.bicliques import analyze, extremal_pair
from homlab.counting import WorkBudgetExceeded, count_bis
from homlab.exactcmp import LogForm
from homlab.fixtures import fixture_bigraph, fixture_graph
from homlab.gadgets import (
    DIRICHLET_SCAN_GUARD,
    GadgetParams,
    approx_bracket_report,
    build_bis_gadget,
    build_kab_gamma_gadget,
    dirichlet,
    normalized_exponents,
    params_from_scale,
    phase_decompose_bis,
    phase_decompose_col,
    phase_decompose_kab,
    xz_bound_check,
)
from homlab.graphs import TwoColouredGraph
from homlab.structure import InvariantViolation, PreconditionError
from mpf_exact import mpf_exact
from test_kernel import _bis_cases, _kab_cases

K11 = TwoColouredGraph(1, 1, [(0, 0)])
EMPTY = TwoColouredGraph(0, 0, [])
SINGLE_L = TwoColouredGraph(1, 0, [])


def test_dirichlet_rational_hit():
    assert dirichlet([Fraction(1, 3)], 3) == (3, [1])


def test_dirichlet_sqrt2():
    # |5*sqrt(2) - 7| is about 0.071, within 1/10
    with mpmath.workprec(300):
        root2 = mpf_exact(mpmath.sqrt(2))
        q, ps = dirichlet([root2], 10)
    assert (q, ps) == (5, [7])
    assert abs(q * root2 - ps[0]) * 10 <= 1


def test_dirichlet_two_dimensional():
    with mpmath.workprec(300):
        alphas = [mpf_exact(mpmath.sqrt(2)), mpf_exact(mpmath.sqrt(3))]
    q, ps = dirichlet(alphas, 100)
    assert 1 <= q <= 100
    for v, p in zip(alphas, ps):
        assert p >= 1
        assert abs(q * v - p) ** 2 * 100 <= 1


def test_dirichlet_seeded_bounds():
    rng = random.Random(7)
    for _ in range(25):
        d = rng.choice([1, 2, 3])
        big_n = rng.randint(2, 800)
        alphas = [
            Fraction(rng.randint(1, 10**4), rng.randint(1, 10**4)) for _ in range(d)
        ]
        q, ps = dirichlet(alphas, big_n)
        assert 1 <= q <= big_n
        for v, p in zip(alphas, ps):
            assert p >= 1 and abs(q * v - p) ** d * big_n <= 1


def test_dirichlet_takes_p_one_when_nearest_is_zero():
    # round(1/3) = 0, but p = 1 is within the bound: |1/3 - 1| * 1 <= 1
    assert dirichlet([Fraction(1, 3)], 1) == (1, [1])


def test_dirichlet_refuses_when_no_positive_p_fits():
    # q/100 <= 1/20 for q <= 5, so every p >= 1 is more than 1/5 away
    with pytest.raises(PreconditionError, match="p_i >= 1"):
        dirichlet([Fraction(1, 100)], 5)


def test_dirichlet_bound_is_inclusive():
    # at q = 1 both errors are 1/2, and (1/2)^2 * 4 is exactly 1
    assert dirichlet([Fraction(1, 2), Fraction(1, 2)], 4) == (1, [1, 1])


def test_dirichlet_scans_at_the_guard():
    # the guard is inclusive: big_n equal to it still scans (q = 1 misses, q = 2 hits)
    assert dirichlet([Fraction(1, 2), Fraction(1, 2)], DIRICHLET_SCAN_GUARD) == (2, [1, 1])


@pytest.mark.parametrize("alpha", [0, Fraction(-1, 2)])
def test_dirichlet_refuses_non_positive_alphas(alpha):
    # at big_n = 1 the scan would accept alpha = 0 with q = p = 1
    with pytest.raises(ValueError, match="alphas must be positive"):
        dirichlet([alpha], 1)


def test_dirichlet_answers_one_value_above_the_scan_guard():
    # the scan refuses any big_n above its guard, so only the convergents can answer
    big_n = 10 * DIRICHLET_SCAN_GUARD
    alpha = _sqrt_220_bits(2)
    q, (p,) = dirichlet([alpha], big_n)
    assert (p, q) == (665857, 470832)  # the last convergent of sqrt(2) with q <= 10^6
    assert abs(q * alpha - p) * big_n <= 1


def _coarse_convergents(mp):
    # every input's expansion stops at 1/1, far outside the bound
    mp.setattr(gadgets, "_cf_convergents", lambda num, den: iter([(1, 1)]))


def test_dirichlet_convergent_is_a_named_check(monkeypatch, check_name_under_optimize):
    _coarse_convergents(monkeypatch)
    with pytest.raises(InvariantViolation) as info:
        dirichlet([Fraction(3, 2)], 10)
    assert info.value.check_name == "dirichlet-convergent"
    call = "t.dirichlet([t.Fraction(3, 2)], 10)"
    assert check_name_under_optimize(_coarse_convergents, call) == "dirichlet-convergent"


def _fraction_convergents(x):
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = x.numerator // x.denominator
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        yield p1, q1
        frac = x - a
        if frac == 0:
            return
        x = 1 / frac


def _dirichlet_oracle(alphas, big_n):
    """``dirichlet`` in Fraction arithmetic; None where it must refuse."""
    vals = [Fraction(a) for a in alphas]
    d = len(vals)
    if d == 1:
        best = None
        for p, q in _fraction_convergents(vals[0]):
            if q > big_n:
                break
            if p >= 1:
                best = (q, [p])
        if best is not None and abs(best[0] * vals[0] - best[1][0]) * big_n <= 1:
            return best
    for q in range(1, big_n + 1):
        ps = [max(1, int(q * v + Fraction(1, 2))) for v in vals]
        if all(abs(q * v - p) ** d * big_n <= 1 for v, p in zip(vals, ps)):
            return q, ps
    return None


def _sqrt_220_bits(k):
    with mpmath.workprec(220):
        return mpf_exact(mpmath.sqrt(k))


_ALPHAS = st.one_of(
    st.builds(Fraction, st.integers(1, 10**4), st.integers(1, 10**4)),
    st.builds(Fraction, st.integers(1, 20), st.integers(1, 6)),
    st.integers(2, 99).map(_sqrt_220_bits),
)


@st.composite
def _dirichlet_inputs(draw):
    alphas = draw(st.lists(_ALPHAS, min_size=1, max_size=3))
    # small denominators and a d-th power for big_n let the bound hold with equality
    big_n = draw(st.one_of(st.integers(1, 400), st.integers(1, 7).map(lambda m: m ** len(alphas))))
    return alphas, big_n


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_dirichlet_inputs())
def test_dirichlet_matches_fraction_oracle(inputs):
    alphas, big_n = inputs
    expected = _dirichlet_oracle(alphas, big_n)
    if expected is None:
        with pytest.raises(PreconditionError):
            dirichlet(alphas, big_n)
    else:
        assert dirichlet(alphas, big_n) == expected


def test_gadget_params_validate():
    with pytest.raises(PreconditionError):
        GadgetParams(a=0, b=1)
    with pytest.raises(PreconditionError):
        GadgetParams(a=1, b=1, copies_gamma=-1)


def test_gadget_params_scale_checks_raise_precondition():
    half = Fraction(1, 2)
    with pytest.raises(PreconditionError):
        GadgetParams(a=4, b=4, n=2, alpha=half, beta=half, gamma_exp=Fraction(0))
    with pytest.raises(PreconditionError):  # |1*(1/2)*8 - 5| = 1 > 1/2
        GadgetParams(a=5, b=4, q=1, n=2, alpha=half, beta=half, gamma_exp=Fraction(0))
    with pytest.raises(PreconditionError):  # |1*(1/2)*8 - 3| = 1 > 1/2
        GadgetParams(a=4, b=3, q=1, n=2, alpha=half, beta=half, gamma_exp=Fraction(0))
    GadgetParams(a=4, b=4, q=1, n=2, alpha=half, beta=half, gamma_exp=Fraction(0))
    # both errors exactly 1/n: q*alpha*n^3 = 9/2 and q*(beta*n^3 + gamma*n^2) = 9/2
    GadgetParams(a=4, b=5, q=1, n=2, alpha=Fraction(9, 16), beta=half, gamma_exp=Fraction(1, 8))
    GadgetParams(a=1, b=1, q=1, n=1, alpha=1, beta=1, gamma_exp=0)


@pytest.mark.parametrize("n", [0, -1])
def test_gadget_params_refuse_a_scale_below_one_by_name(n):
    # n = 0 divided by zero in the 1/n bound; n = -1 blamed a
    with pytest.raises(PreconditionError, match=f"scale n must be at least 1, got n={n}"):
        GadgetParams(a=1, b=1, q=1, n=n, alpha=1, beta=1, gamma_exp=0)


def test_params_from_scale_bounds():
    h = fixture_bigraph("coexistence")
    p = params_from_scale(analyze(h, K11), 4)
    assert p.q is not None and p.q <= 16
    assert abs(p.q * p.alpha * 64 - p.a) <= Fraction(1, 4)
    p = params_from_scale(analyze(h, K11), 1)
    assert (p.a, p.b, p.q, p.n) == (1, 1, 1, 1)


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("build", [params_from_scale, approx_bracket_report])
def test_scale_below_one_refused_by_name(build, n):
    h = fixture_bigraph("coexistence")
    # params_from_scale scales an analysis, approx_bracket_report runs its own
    args = (analyze(h, K11),) if build is params_from_scale else (h, K11)
    with pytest.raises(PreconditionError, match=f"scale n must be at least 1, got n={n}"):
        build(*args, n)


def test_normalized_exponents_max_half():
    h = fixture_bigraph("case1")
    alpha, beta, gamma_exp = normalized_exponents(analyze(h, K11))
    assert max(alpha, beta) == Fraction(1, 2)
    assert gamma_exp == Fraction(1, 2)


def test_build_kab_tiny():
    g = build_kab_gamma_gadget(K11, EMPTY, EMPTY, GadgetParams(a=1, b=1))
    assert g.total == 4
    assert len(g.edges) == 3


def test_build_kab_counts():
    g = build_kab_gamma_gadget(
        K11, K11, EMPTY, GadgetParams(a=2, b=1, copies_gamma=1)
    )
    # K(2,1) has 2 edges, two instance/decoration edges, and the cross edges
    # attach both remaining left vertices to K's right vertex
    assert (g.lsize, g.rsize) == (4, 3)
    assert len(g.edges) == 2 + 1 + 1 + 2


def test_build_kab_rejects_disconnected_instance():
    two = TwoColouredGraph(2, 2, [(0, 0), (1, 1)])
    with pytest.raises(PreconditionError):
        build_kab_gamma_gadget(two, EMPTY, EMPTY, GadgetParams(a=1, b=1))


def test_build_kab_rejects_isolated_right_decoration():
    lonely = TwoColouredGraph(0, 1, [])
    with pytest.raises(PreconditionError):
        build_kab_gamma_gadget(K11, lonely, EMPTY, GadgetParams(a=1, b=1))
    # the independent-set gadget and its phase path refuse it through the same check
    with pytest.raises(PreconditionError):
        build_bis_gadget(K11, lonely, GadgetParams(a=1, b=1))
    with pytest.raises(PreconditionError):
        phase_decompose_bis(fixture_bigraph("p4"), K11, lonely, GadgetParams(a=1, b=1))


def test_phase_kab_trivial_target():
    rep = phase_decompose_kab(K11, SINGLE_L, EMPTY, EMPTY, GadgetParams(a=1, b=1))
    assert rep.exact
    assert [(e.key, e.actual) for e in rep.entries] == [((((0,), (0,))), 1)]


def test_phase_kab_p4_phases_match():
    rep = phase_decompose_kab(
        fixture_bigraph("p4"), K11, EMPTY, EMPTY, GadgetParams(a=1, b=1)
    )
    assert rep.exact
    assert rep.total_actual == rep.total_independent


def test_phase_kab_with_decoration_and_selector():
    rep = phase_decompose_kab(
        fixture_bigraph("coexistence"),
        K11,
        K11,
        fixture_bigraph("p3"),
        GadgetParams(a=2, b=2, copies_gamma=1, copies_j=1),
    )
    assert rep.exact


def test_phase_kab_guard(monkeypatch):
    # 26 vertices: the phase table is refused only by its elimination estimate
    big = TwoColouredGraph(12, 12, [(i, j) for i in range(12) for j in range(12)])
    monkeypatch.delenv("HOMLAB_MAX_WORK", raising=False)
    rep = phase_decompose_kab(fixture_bigraph("p4"), big, EMPTY, EMPTY, GadgetParams(a=1, b=1))
    assert rep.exact
    # a budget of exactly the gadget's 13 * 13 adjacency cells admits the build
    monkeypatch.setenv("HOMLAB_MAX_WORK", "169")
    refusal = r"^homomorphism count by elimination needs ~\d+ table entries, budget is 169 "
    with pytest.raises(WorkBudgetExceeded, match=refusal):
        phase_decompose_kab(fixture_bigraph("p4"), big, EMPTY, EMPTY, GadgetParams(a=1, b=1))


def test_bis_gadget_build_shape():
    g = build_bis_gadget(K11, EMPTY, GadgetParams(a=1, b=1))
    # one block per instance vertex, plus the joining edges
    assert (g.lsize, g.rsize) == (2, 2)
    assert len(g.edges) == 3


def test_bis_phase_counts_match_independent_sets():
    p4 = fixture_bigraph("p4")
    for gp, want in (
        (SINGLE_L, 2),
        (K11, 3),
        (fixture_bigraph("p3"), 5),
        (p4, 8),
    ):
        rep = phase_decompose_bis(p4, gp, EMPTY, GadgetParams(a=1, b=1))
        assert rep.exact
        assert rep.good_permissible == count_bis(gp) == want
        assert rep.nonpermissible_good_zero


def test_bis_permissible_vectors_carry_the_count():
    # at a = b = 1 no good vector carries a homomorphism on p4, so the
    # direction of the blocked edge pair is pinned at a = b = 2, where the
    # good vectors with a non-zero count are exactly the permissible ones
    p4 = fixture_bigraph("p4")
    ex1, ex2 = (b.key() for b in extremal_pair(p4))
    for name in ("k11", "p3", "p4"):
        gp = fixture_bigraph(name)
        rep = phase_decompose_bis(p4, gp, EMPTY, GadgetParams(a=2, b=2))
        assert rep.exact
        assert rep.nonpermissible_good_zero
        edges = gp.edges
        permissible = {
            vec
            for vec in itertools.product((ex1, ex2), repeat=gp.lsize + gp.rsize)
            if not any(vec[i] == ex1 and vec[gp.lsize + j] == ex2 for i, j in edges)
        }
        assert len(permissible) == rep.good_permissible == count_bis(gp)
        carried = {vec for vec, n in rep.vector_counts.items() if n and set(vec) <= {ex1, ex2}}
        assert carried == permissible, name


def test_bis_with_decoration():
    rep = phase_decompose_bis(
        fixture_bigraph("coexistence"), K11, K11,
        GadgetParams(a=1, b=1, copies_gamma=1),
    )
    assert rep.good_permissible == 3
    assert rep.nonpermissible_good_zero
    assert rep.total_actual == rep.total_independent


def test_bis_gadget_refuses_selector_copies():
    # the bis blocks carry no selector, so copies_j would be dropped silently
    params = GadgetParams(a=1, b=1, copies_j=5)
    with pytest.raises(PreconditionError, match="copies_j=5"):
        build_bis_gadget(K11, EMPTY, params)
    with pytest.raises(PreconditionError, match="copies_j=5"):
        phase_decompose_bis(fixture_bigraph("p4"), K11, EMPTY, params)


def test_col_gadget_edge_only():
    rep = phase_decompose_col(fixture_graph("h_is"), EMPTY, EMPTY, 0, 0, 0)
    assert rep.exact
    # the gadget degenerates to one edge; each ordered target pair hosts one
    assert all(e.predicted == 1 for e in rep.entries)
    assert rep.total_actual == 3


def test_col_gadget_blocks_and_selector():
    h = fixture_graph("h_is")
    rep = phase_decompose_col(h, K11, K11, 1, 1, 0)
    assert rep.exact
    by_key = {e.key: e.actual for e in rep.entries}
    # deg(0) = 2, deg(1) = 1; the cover subgraph of (0,0) admits 3 edge
    # placements, of (0,1)/(1,0) exactly 2 each
    assert by_key[((0,), (0,))] == 2 * 2 * 3
    assert by_key[((0,), (1,))] == 2 * 1 * 2
    assert by_key[((1,), (0,))] == 1 * 2 * 2


def test_col_k3_grid():
    k3 = fixture_graph("triangle")
    for size_a in (0, 1, 2):
        for size_b in (0, 1, 2):
            rep = phase_decompose_col(k3, K11, K11, size_a, size_b, 1)
            assert rep.exact


def test_col_refuses_trivial_target():
    from homlab.graphs import Graph

    with pytest.raises(PreconditionError):
        phase_decompose_col(Graph(1, [(0, 0)]), K11, K11, 1, 1, 0)


def test_col_refuses_negative_size():
    with pytest.raises(PreconditionError):
        phase_decompose_col(fixture_graph("h_is"), K11, K11, -1, 0, 0)


def test_phase_outside_the_predicted_set_is_an_invariant_violation(monkeypatch):
    from homlab import gadgets

    monkeypatch.setattr(gadgets, "all_bicliques", lambda h: [])
    with pytest.raises(InvariantViolation) as exc:
        phase_decompose_kab(fixture_bigraph("p4"), K11, EMPTY, EMPTY, GadgetParams(a=1, b=1))
    assert exc.value.check_name == "phase-coverage"
    monkeypatch.setattr(gadgets, "iter_bits", lambda mask: iter(()))
    with pytest.raises(InvariantViolation) as exc:
        phase_decompose_col(fixture_graph("h_is"), K11, K11, 1, 1, 0)
    assert exc.value.check_name == "phase-coverage"


def test_xz_bound_examples():
    assert xz_bound_check(1, Fraction(1, 7), 5, 10)
    assert xz_bound_check(5, Fraction(1, 100), 5, 100)
    assert xz_bound_check(2, Fraction(-1, 10), 2, 10)


@pytest.mark.parametrize(
    "z, k_cap, n, want",
    [
        # 4^(1/2) - 1 = 1 = 2*1/2: an exact tie on the upper side is within the bound
        (Fraction(1, 2), 1, 2, True),
        (Fraction(1, 2) + Fraction(1, 10**6), 1, 2, False),
        (Fraction(1, 2) - Fraction(1, 10**6), 1, 2, True),
        # 1 - 4^(-1/2) = 1/2 = 2*1/4: an exact tie on the lower side, reached when c < 1
        (Fraction(-1, 2), 1, 4, True),
        (Fraction(-1, 2) - Fraction(1, 10**6), 1, 4, False),
        (Fraction(-1, 2) + Fraction(1, 10**6), 1, 4, True),
        # n = 1 is in range: c = 2, so 4^(1/2) - 1 = 1 is within and 4^(3/2) - 1 = 7 is not
        (Fraction(1, 2), 1, 1, True),
        (Fraction(3, 2), 1, 1, False),
    ],
)
def test_xz_bound_is_inclusive_at_exact_ties(z, k_cap, n, want):
    assert xz_bound_check(4, z, k_cap, n) is want


@pytest.mark.parametrize(
    "x, k_cap, n", [(-4, 1, 2), (0, 1, 2), (Fraction(-1, 3), 1, 2), (4, 1, 0), (4, 0, 2), (4, -1, 2)]
)
def test_xz_bound_refuses_out_of_range_inputs(x, k_cap, n):
    with pytest.raises(PreconditionError):
        xz_bound_check(x, Fraction(1, 2), k_cap, n)


def _as_kind(value: Fraction, kind: str):
    """value as an int, Fraction, float, Decimal or str; each is exact for the dyadic values used."""
    if kind == "int":
        return int(value) if value.denominator == 1 else value
    if kind == "float":
        return float(value)
    if kind == "Decimal":
        return Decimal(value.numerator) / Decimal(value.denominator)
    return str(value) if kind == "str" else value


KINDS = ("int", "Fraction", "float", "Decimal", "str")


@pytest.mark.parametrize("x_kind", KINDS)
@pytest.mark.parametrize("z_kind", KINDS)
@pytest.mark.parametrize(
    "x, z, k_cap, n, want",
    [
        # exact ties on the upper side (c = 1 and c = 3) and on the lower side (c = 1/2)
        (Fraction(4), Fraction(1, 2), 1, 2, True),
        (Fraction(4), Fraction(1), 3, 2, True),
        (Fraction(4), Fraction(-1, 2), 1, 4, True),
        (Fraction(1, 4), Fraction(1, 2), 1, 4, True),
        (Fraction(4), Fraction(3, 4), 1, 2, False),
        (Fraction(4), Fraction(1), 1, 1, False),
        (Fraction(5, 2), Fraction(-1, 2), 1, 4, True),
        (Fraction(5, 2), Fraction(-1, 2), 1, 8, False),
    ],
)
def test_xz_bound_takes_every_input_fraction_takes(x, z, k_cap, n, want, x_kind, z_kind):
    assert xz_bound_check(_as_kind(x, x_kind), _as_kind(z, z_kind), k_cap, n) is want


@pytest.mark.parametrize(
    "x, shown",
    [(0, "0"), (-1, "-1"), (Fraction(-1), "-1"), (-1.0, "-1.0"), (Decimal("-1"), "-1"), ("0", "0")],
)
def test_xz_bound_refusal_text_at_x_zero_and_minus_one(x, shown):
    with pytest.raises(PreconditionError) as exc:
        xz_bound_check(x, Fraction(1, 2), 1, 2)
    assert str(exc.value) == f"power bound needs x > 0, n >= 1 and k_cap >= 1, got x={shown}, n=2, k_cap=1"


def _bound_sides(monkeypatch) -> list[LogForm]:
    """The right-hand side of every certified comparison in gadgets from here on, in order."""
    sides = []
    compare = gadgets.certified_compare

    def recording(x, y):
        sides.append(y)
        return compare(x, y)

    monkeypatch.setattr(gadgets, "certified_compare", recording)
    return sides


def test_power_bound_enters_in_lowest_terms(monkeypatch):
    # c = 2/2 compares with ln 2 alone, c = 4/8 with ln(3/2) and ln(1/2), never ln(4/2) or ln(12/8)
    sides = _bound_sides(monkeypatch)
    assert xz_bound_check(4, Fraction(1, 2), 1, 2)
    assert xz_bound_check(4, Fraction(-1, 2), 2, 8)
    assert [dict(side.coeffs) for side in sides] == [{(2,): 1}, {(2,): -1, (3,): 1}, {(2,): -1}]


@pytest.mark.parametrize(
    "name, n, bounds",
    [
        # widths 54/4, 24/6 and 12/16: only c < 1 compares with ln(1 - c) as well
        ("case1", 4, [LogForm.ln(29, 2)]),
        ("coexistence", 6, [LogForm.ln(5)]),
        ("p4", 16, [LogForm.ln(7, 4), LogForm.ln(1, 4)]),
    ],
)
def test_bracket_width_enters_in_lowest_terms(monkeypatch, name, n, bounds):
    sides = _bound_sides(monkeypatch)
    assert approx_bracket_report(fixture_bigraph(name), K11, n).all_ok
    assert [dict(side.coeffs) for side in sides] == [dict(b.coeffs) for b in bounds] * (len(sides) // len(bounds))
    assert sides


def test_bracket_reports_hold():
    h = fixture_bigraph("coexistence")
    for n in (4, 6, 8):
        rep = approx_bracket_report(h, K11, n)
        assert rep.all_ok


def test_bracket_monotone_on_strict_witness_target():
    h = fixture_bigraph("case1")
    ratios = [approx_bracket_report(h, K11, n).dominant_ratio for n in (4, 6, 8)]
    assert ratios[0] < ratios[1] < ratios[2]


def test_bracket_report_enumerates_and_counts_once(monkeypatch):
    # one maximal-biclique enumeration, and one decoration count per maximal biclique
    from homlab import bicliques

    h = fixture_bigraph("case1")
    n_maximal = len(bicliques.maximal_bicliques(h))
    calls = {"maximal": 0, "derived": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(bicliques, "maximal_bicliques", counted("maximal", bicliques.maximal_bicliques))
    monkeypatch.setattr(bicliques, "derived_subgraph", counted("derived", bicliques.derived_subgraph))
    approx_bracket_report(h, K11, 4)
    assert calls == {"maximal": 1, "derived": n_maximal}


@pytest.mark.parametrize(
    "name, call",
    [
        ("case1", "analyze(h, K11)"),
        ("case1", "classify(h, bound=2)"),
        ("case3", "classify(h, bound=2)"),
        ("coexistence", "case2_identity_check(h, 0, K11)"),
        ("case1", "params_from_scale(analyze(h, K11), 3)"),
        ("case1", "approx_bracket_report(h, K11, 3)"),
    ],
)
def test_entry_points_validate_and_enumerate_the_target_once(monkeypatch, name, call):
    # every entry point reads one record: one fullness profile and one
    # maximal-biclique enumeration of the target itself
    from homlab import bicliques, classifier, structure

    h = fixture_bigraph(name)
    calls = {"fullness": 0, "maximal": 0}

    def counted(key, fn):
        def wrapper(g, *args):
            calls[key] += g == h
            return fn(g, *args)
        return wrapper

    fullness = counted("fullness", structure.fullness)
    monkeypatch.setattr(structure, "fullness", fullness)
    monkeypatch.setattr(classifier, "fullness_profile", fullness)
    monkeypatch.setattr(bicliques, "maximal_bicliques", counted("maximal", bicliques.maximal_bicliques))
    namespace = {
        "h": h, "K11": K11, "analyze": analyze, "params_from_scale": params_from_scale,
        "approx_bracket_report": approx_bracket_report, "classify": classifier.classify,
        "case2_identity_check": classifier.case2_identity_check,
    }
    eval(call, namespace)
    assert calls == {"fullness": 1, "maximal": 1}


def test_work_budget_env_override(monkeypatch):
    monkeypatch.setenv("HOMLAB_MAX_WORK", "10")
    with pytest.raises(WorkBudgetExceeded):
        phase_decompose_kab(
            fixture_bigraph("p4"), K11, EMPTY, EMPTY, GadgetParams(a=2, b=2)
        )


# ---------------------------------------------------------------------------
# The row builders against the edge-list builders they replaced
# ---------------------------------------------------------------------------

def _edge_list_kab(g_prime, gamma_graph, j, params):
    """The decorated K(a,b) gadget from edge lists alone: K(a,b) as a*b edges,
    the pieces shifted into place, then K's right side joined to every left
    vertex after K's."""
    kab = TwoColouredGraph(params.a, params.b, itertools.product(range(params.a), range(params.b)))
    pieces = [kab, g_prime] + [gamma_graph] * params.copies_gamma + [j] * params.copies_j
    edges, loff, roff = set(), 0, 0
    for piece in pieces:
        edges |= {(i + loff, r + roff) for i, r in piece.edges}
        loff += piece.lsize
        roff += piece.rsize
    edges |= {(i, r) for i in range(params.a, loff) for r in range(params.b)}
    return TwoColouredGraph(loff, roff, edges)


def _edge_list_bis(g_prime, gamma_graph, params):
    """The independent-set gadget from edge lists: one block per instance
    vertex, and a complete join of K sides per instance edge."""
    block = _edge_list_kab(EMPTY, gamma_graph, EMPTY, params)
    nverts = g_prime.lsize + g_prime.rsize
    bl, br = block.lsize, block.rsize
    edges = {(t * bl + i, t * br + r) for t in range(nverts) for i, r in block.edges}
    edges |= {
        (bl * (g_prime.lsize + jj) + l, br * i + r)
        for i, jj in g_prime.edges
        for l in range(params.a)
        for r in range(params.b)
    }
    return TwoColouredGraph(nverts * bl, nverts * br, edges)


@pytest.mark.parametrize("case", _kab_cases())
def test_kab_rows_match_edge_list_builder(case):
    _, g_prime, gamma_graph, j, params = case
    built = build_kab_gamma_gadget(g_prime, gamma_graph, j, params)
    assert built.to_text() == _edge_list_kab(g_prime, gamma_graph, j, params).to_text()


@pytest.mark.parametrize("case", _bis_cases())
def test_bis_rows_match_edge_list_builder(case):
    _, g_prime, gamma_graph, params = case
    built = build_bis_gadget(g_prime, gamma_graph, params)
    assert built.to_text() == _edge_list_bis(g_prime, gamma_graph, params).to_text()


def test_verify_paper_gadgets_match_edge_list_builders(monkeypatch):
    # every gadget the kab and bis phase checks of verify-paper build
    built = {"kab": 0, "bis": 0}
    kab, bis = gadgets.build_kab_gamma_gadget, gadgets.build_bis_gadget

    def checked_kab(g_prime, gamma_graph, j, params):
        g = kab(g_prime, gamma_graph, j, params)
        assert g.to_text() == _edge_list_kab(g_prime, gamma_graph, j, params).to_text()
        built["kab"] += 1
        return g

    def checked_bis(g_prime, gamma_graph, params):
        g = bis(g_prime, gamma_graph, params)
        assert g.to_text() == _edge_list_bis(g_prime, gamma_graph, params).to_text()
        built["bis"] += 1
        return g

    monkeypatch.setattr(gadgets, "build_kab_gamma_gadget", checked_kab)
    monkeypatch.setattr(gadgets, "build_bis_gadget", checked_bis)
    results = verify.check_kab_phases() + verify.check_bis_phases()
    assert all(r.passed for r in results)
    # six kab configs, plus one block for each of the five bis gadgets
    assert built == {"kab": 11, "bis": 5}
