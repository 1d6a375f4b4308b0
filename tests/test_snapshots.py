"""Log-ratio snapshots and decimals against an mpmath floating-point route.

homlab prints alpha, beta, gamma and the dominant ratio from exact
rationals: a log ratio is snapshot as the nearest dyadic with
``EXPONENT_BITS`` significant bits (exact when rational) and a rational is
printed to ``DECIMAL_DIGITS`` digits.  The oracle here is the route these
values were once printed by, kept in the tests: mpmath floats at 240 bits
for alpha and beta, 160 bits for gamma, 200 bits for the dominant ratio,
printed by ``mpmath.nstr``.  The strings must agree byte for byte.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from homlab.bicliques import GammaValue, analyze, gamma, target_record, zeta_profile
from homlab.exactcmp import (
    DECIMAL_DIGITS,
    EXPONENT_BITS,
    ComparisonUncertain,
    decimal_str,
    log_ratio_as_fraction,
    log_ratio_snapshot,
)
from homlab.fixtures import FIXTURES, fixture_bigraph
from homlab.gadgets import approx_bracket_report, dirichlet, params_from_scale
from homlab.graphs import TwoColouredGraph, canonical_side_bounded
from homlab.structure import PreconditionError, fullness
from mpf_exact import mpf_exact

K11 = TwoColouredGraph(1, 1, [(0, 0)])
EMPTY = TwoColouredGraph(0, 0, [])
POINT_L = TwoColouredGraph(1, 0, [])
STAR = TwoColouredGraph(1, 2, [(0, 0), (0, 1)])


def test_mpf_exact_keeps_the_sign():
    assert mpf_exact(mpmath.mpf(-3.5)) == Fraction(-7, 2)
    assert mpf_exact(mpmath.mpf(3.5)) == Fraction(7, 2)
    assert mpf_exact(mpmath.mpf(0)) == 0


# -- the mpmath route ---------------------------------------------------------

def _mp_exponents(ep):
    with mpmath.workprec(EXPONENT_BITS):
        a0 = mpmath.log(mpmath.mpf(ep.v_r) / ep.f_r)
        b0 = mpmath.log(mpmath.mpf(ep.v_l) / ep.f_l)
        s = 1 / (2 * max(a0, b0))
        return +(a0 * s), +(b0 * s)


def _mp_gamma(gv, prec):
    with mpmath.workprec(prec):
        num = mpmath.log(mpmath.mpf(gv.zeta_ex2) / gv.zeta_ex1)
        return num / mpmath.log(mpmath.mpf(gv.v_r) / gv.f_r)


def _mp_gamma_decimal(gv):
    return mpmath.nstr(_mp_gamma(gv, DECIMAL_DIGITS * 4 + 40), DECIMAL_DIGITS)


def _mp_ratio_decimal(ratio: Fraction):
    with mpmath.workprec(200):
        return mpmath.nstr(mpmath.mpf(ratio.numerator) / ratio.denominator, DECIMAL_DIGITS)


def _mp_params(h, gamma_graph, n):
    rec = target_record(h)
    ep = rec.ep
    gv = gamma(zeta_profile(rec, gamma_graph), ep)
    alpha, beta = (mpf_exact(x) for x in _mp_exponents(ep))
    gamma_exp = mpf_exact(_mp_gamma(gv, EXPONENT_BITS))
    q, (a, b) = dirichlet([alpha * n**3, beta * n**3 + gamma_exp * n**2], n**2)
    return a, b, q


# -- byte-equal strings -------------------------------------------------------

def _assert_strings_match(h, decorations):
    rec = target_record(h)
    ep = rec.ep
    alpha, beta = ep.display()
    assert [decimal_str(alpha), decimal_str(beta)] == [
        mpmath.nstr(x, DECIMAL_DIGITS) for x in _mp_exponents(ep)
    ], h
    for g in decorations:
        gv = gamma(zeta_profile(rec, g), ep)
        assert gv.decimal() == _mp_gamma_decimal(gv), (h, g)


def test_strings_match_mpmath_on_every_small_class():
    count = 0
    for h in canonical_side_bounded(4):
        prof = fullness(h)
        if prof.is_full and not prof.is_trivial:
            _assert_strings_match(h, (EMPTY, POINT_L, K11, STAR))
            count += 1
    assert count == 76


def test_strings_match_mpmath_on_the_bundled_bigraphs():
    decorations = [fixture_bigraph(n) for n in ("k11", "p3", "two_k11")] + [STAR]
    targets = 0
    for name, fx in FIXTURES.items():
        if fx.kind == "graph":
            continue
        h = fixture_bigraph(name)
        prof = fullness(h)
        if prof.is_full and not prof.is_trivial:
            _assert_strings_match(h, decorations)
            targets += 1
    assert targets == 4


GAMMA_TUPLES = [
    (29, 9, 9, 1),
    (27, 9, 9, 1),  # rational, 1/2
    (7, 7, 3, 1),  # zeta_ex2 = zeta_ex1, gamma = 0
    (10**6, 1, 10, 1),  # 6
    (5, 3, 7, 2),
    (10**12 + 1, 10**12, 3, 2),  # about 2.5e-12
    (10**15 + 7, 10**15, 5, 4),
    (2**40 + 1, 2**40, 2, 1),
    (3**30 + 2, 3**30, 1000, 999),
    (10**25, 3, 2, 1),
]


@pytest.mark.parametrize("tup", GAMMA_TUPLES)
def test_gamma_decimal_matches_mpmath(tup):
    gv = GammaValue(*tup)
    assert gv.decimal() == _mp_gamma_decimal(gv)


def test_gamma_decimal_uses_both_notations():
    text = [GammaValue(*t).decimal() for t in GAMMA_TUPLES]
    assert "0.0" in text and "0.5" in text and "6.0" in text
    assert sum("e-" in t for t in text) >= 2


def test_dominant_ratio_matches_mpmath():
    for name in ("case1", "case3"):
        for n in (2, 3, 4, 5, 6, 8):
            rep = approx_bracket_report(fixture_bigraph(name), K11, n)
            assert decimal_str(rep.dominant_ratio) == _mp_ratio_decimal(rep.dominant_ratio)


def test_params_from_scale_match_the_mpmath_route():
    # every (target, decoration, n) the tests, demos and verify-paper reach
    compared = 0
    for name in ("case1", "case3", "coexistence", "p4", "k11", "p3", "two_k11"):
        h = fixture_bigraph(name)
        for g in (K11, EMPTY, STAR):
            for n in range(1, 11):
                try:
                    want = _mp_params(h, g, n)
                except PreconditionError:
                    with pytest.raises(PreconditionError):
                        params_from_scale(analyze(h, g), n)
                    continue
                p = params_from_scale(analyze(h, g), n)
                assert (p.a, p.b, p.q) == want, (name, g, n)
                compared += 1
    assert compared == 120


# -- the renderer and the snapshot on their own --------------------------------

def test_decimal_str_matches_nstr():
    rng = random.Random(30)
    values = [Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(10**29), Fraction(10**30),
              Fraction(1, 10**9), Fraction(1, 10**10), Fraction(10**30 - 1, 10**30)]
    for _ in range(2000):
        x = Fraction(rng.randint(1, 10 ** rng.randint(1, 40)), rng.randint(1, 10 ** rng.randint(1, 40)))
        values.append(x * Fraction(10) ** rng.randint(-40, 40) * rng.choice((1, -1)))
    for x in values:
        with mpmath.workprec(400):
            want = mpmath.nstr(mpmath.mpf(x.numerator) / x.denominator, DECIMAL_DIGITS)
        assert decimal_str(x) == want, x


def test_decimal_str_rounds_half_up_on_the_first_dropped_digit():
    assert decimal_str(Fraction(10**30 + 5, 10)) == "100000000000000000000000000001.0"
    assert decimal_str(Fraction(10**30 + 4, 10)) == "100000000000000000000000000000.0"
    assert decimal_str(Fraction(2 * 10**30 - 1, 2 * 10**30)) == "1.0"
    assert decimal_str(Fraction(10**30)) == "1.0e+30"
    assert decimal_str(Fraction(-1, 3 * 10**10)) == "-3.33333333333333333333333333333e-11"


def test_snapshot_is_the_nearest_dyadic():
    rng = random.Random(240)
    for _ in range(300):
        n1, d1, n2, d2 = (rng.randint(1, 10**rng.randint(1, 30)) for _ in range(4))
        if n2 == d2 or log_ratio_as_fraction(n1, d1, n2, d2) is not None:
            continue
        x = log_ratio_snapshot(n1, d1, n2, d2)
        with mpmath.workprec(1200):
            true = mpf_exact(mpmath.log(mpmath.mpf(n1) / d1) / mpmath.log(mpmath.mpf(n2) / d2))
        e = abs(true.numerator).bit_length() - true.denominator.bit_length()
        if abs(true) < Fraction(2) ** e:
            e -= 1
        ulp = Fraction(2) ** (e + 1 - EXPONENT_BITS)
        assert (x / ulp).denominator == 1
        assert abs(x - true) <= ulp / 2


def test_snapshot_is_exact_when_rational():
    assert log_ratio_snapshot(27, 9, 9, 1) == Fraction(1, 2)
    assert log_ratio_snapshot(8, 1, 4, 1) == Fraction(3, 2)
    assert log_ratio_snapshot(5, 5, 3, 1) == 0


def test_snapshot_refuses_a_ratio_at_a_rounding_midpoint():
    # ln(2^2000 + m) / ln 2 lies within about 2^-1990 of 2000 + 2^-230, the midpoint
    # between two neighbouring 240-bit dyadics; no enclosure up to 1024 bits rounds it
    with mpmath.workprec(2200):
        m = int(mpmath.floor(mpmath.ldexp(mpmath.power(2, mpmath.ldexp(1, -230)) - 1, 2000)))
    with pytest.raises(ComparisonUncertain):
        log_ratio_snapshot(2**2000 + m, 1, 2, 1)
