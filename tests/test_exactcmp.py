import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlab.exactcmp import (
    EQUAL,
    GREATER,
    LESS,
    ComparisonUncertain,
    LogForm,
    _expand,
    _ln_bounds,
    certified_compare,
    log_ratio_as_fraction,
    log_ratio_snapshot,
)
from homlab.structure import InvariantViolation
from mpf_exact import mpf_exact


def test_equal_by_cancellation():
    assert certified_compare(LogForm.ln(4), LogForm.ln(2).scale(2)) == EQUAL
    assert certified_compare(
        LogForm.ln(3) + LogForm.ln(3).scale(Fraction(1, 2)),
        LogForm.ln(3).scale(Fraction(3, 2)),
    ) == EQUAL


def test_sixteen_root_three_beats_twenty_seven():
    lhs = LogForm.ln(16) + LogForm.ln(3).scale(Fraction(1, 2))
    assert certified_compare(lhs, LogForm.ln(27)) == GREATER
    lhs2 = LogForm.ln(15) + LogForm.ln(3).scale(Fraction(1, 2))
    assert certified_compare(lhs2, LogForm.ln(27)) == LESS


def test_product_degree_two():
    f = LogForm.ln(2) * LogForm.ln(3)
    g = LogForm.ln(3) * LogForm.ln(2)
    assert (f - g).is_zero()


def test_degree_cap():
    f = LogForm.ln(2) * LogForm.ln(3)
    with pytest.raises(ValueError):
        _ = f * LogForm.ln(5)


def _precisions_tried(monkeypatch) -> list[int]:
    """The precisions of every interval evaluation from here on, in order."""
    tried = []
    evaluate = LogForm.eval_interval

    def recording(self, prec):
        tried.append(prec)
        return evaluate(self, prec)

    monkeypatch.setattr(LogForm, "eval_interval", recording)
    return tried


def test_near_tie_needs_escalation(monkeypatch):
    # ln(2^200 + 1) exceeds 200 ln 2 by roughly 2^-200; 128 bits cannot
    # separate the two, the escalation to 256 bits certifies the verdict
    tried = _precisions_tried(monkeypatch)
    big = 2**200 + 1
    f = LogForm.ln(big)
    g = LogForm.ln(2).scale(200)
    assert certified_compare(f, g) == GREATER
    assert tried == [128, 256]


def test_gap_below_the_last_precision_is_uncertain(monkeypatch):
    # a gap of roughly 2^-2000 is out of reach of every precision tried
    tried = _precisions_tried(monkeypatch)
    f = LogForm.ln(2**2000 + 1)
    g = LogForm.ln(2).scale(2000)
    with pytest.raises(ComparisonUncertain):
        certified_compare(f, g)
    assert tried == [128, 256, 512, 1024]


@pytest.mark.parametrize(
    "endpoints, form, want",
    [
        ((Fraction(0), Fraction(1)), LogForm.ln(2) - LogForm.ln(3), LESS),
        ((Fraction(-1), Fraction(0)), LogForm.ln(3) - LogForm.ln(2), GREATER),
    ],
    ids=["lo-at-zero", "hi-at-zero"],
)
def test_an_endpoint_at_zero_does_not_settle_the_sign(monkeypatch, endpoints, form, want):
    # a first enclosure that touches zero excludes nothing: the form is reduced and enclosed again
    tried = []
    evaluate = LogForm.eval_interval

    def patched(self, prec):
        tried.append(prec)
        return endpoints if len(tried) == 1 else evaluate(self, prec)

    monkeypatch.setattr(LogForm, "eval_interval", patched)
    assert form.sign() == want
    assert tried == [128, 256]


@pytest.mark.parametrize("side", [(3,), (2,)], ids=["top", "bottom"])
def test_snapshot_skips_an_enclosure_that_touches_zero(monkeypatch, side):
    # top ln 3 or bottom ln 2 enclosed as [0, 0] at 256 bits: no quotient is taken there
    tried = []
    evaluate = LogForm.eval_interval

    def patched(self, prec):
        tried.append(prec)
        if prec == 256 and side in self.coeffs:
            return Fraction(0), Fraction(0)
        return evaluate(self, prec)

    monkeypatch.setattr(LogForm, "eval_interval", patched)
    value = log_ratio_snapshot(3, 1, 2, 1)
    monkeypatch.undo()
    assert value == log_ratio_snapshot(3, 1, 2, 1) != 0
    assert tried == [256, 256, 512, 512]


def test_sign_matches_float_evaluation():
    import random

    rng = random.Random(99)
    for _ in range(200):
        n1, d1 = rng.randint(1, 50), rng.randint(1, 50)
        n2, d2 = rng.randint(1, 50), rng.randint(1, 50)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        form = LogForm.ln(n1, d1).scale(c) + LogForm.ln(n2, d2)
        if form.is_zero():
            continue
        want = mpmath.sign(_mpf_value(form, 120))
        assert form.sign() == int(want)


def test_log_ratio_rational_cases():
    assert log_ratio_as_fraction(2, 1, 4, 1) == Fraction(1, 2)
    assert log_ratio_as_fraction(8, 1, 4, 1) == Fraction(3, 2)
    assert log_ratio_as_fraction(9, 4, 3, 2) == Fraction(2)
    assert log_ratio_as_fraction(1, 1, 2, 1) == 0
    assert log_ratio_as_fraction(3, 1, 2, 1) is None
    assert log_ratio_as_fraction(6, 1, 12, 1) is None


def test_log_ratio_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        log_ratio_as_fraction(2, 1, 1, 1)


def _mpf_value(form: LogForm, prec: int) -> mpmath.mpf:
    """The form evaluated in mpmath floats at prec bits, a route independent of homlab's."""
    with mpmath.workprec(prec):
        total = mpmath.mpf(0)
        for key, c in sorted(form.coeffs.items()):
            term = mpmath.mpf(c.numerator) / c.denominator
            for p in key:
                term *= mpmath.log(p)
            total += term
        return +total


def test_interval_evaluation_encloses():
    f = LogForm.ln(7, 3) * LogForm.ln(5) + LogForm.ln(2).scale(Fraction(-3, 7))
    lo, hi = f.eval_interval(128)
    # the endpoints are rationals over 7 * 2^256; an mpf would round them
    val = mpf_exact(_mpf_value(f, 256))
    assert isinstance(lo, Fraction) and isinstance(hi, Fraction)
    assert lo <= val <= hi
    assert hi - lo < Fraction(1, 2**120)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(2, 2**200), st.sampled_from((128, 256, 512, 1024)))
def test_ln_bounds_bracket_the_scaled_log(atom, prec):
    lo, hi = _ln_bounds(atom, prec)
    with mpmath.workprec(2 * prec + 64):
        scaled = mpf_exact(mpmath.ldexp(mpmath.log(atom), prec))
    assert lo <= scaled <= hi
    assert hi - lo <= 3


def _reductions(monkeypatch) -> list[LogForm]:
    """Every form reduced over a coprime base from here on, in order."""
    reduced = []
    reduce = LogForm._reduced

    def recording(self):
        reduced.append(self)
        return reduce(self)

    monkeypatch.setattr(LogForm, "_reduced", recording)
    return reduced


@pytest.mark.parametrize(
    "x, y",
    [
        (LogForm.ln(4), LogForm.ln(2).scale(2)),
        (LogForm.ln(36) * LogForm.ln(10), LogForm.ln(6) * LogForm.ln(100)),
        (
            LogForm.rational(Fraction(1, 3)) + LogForm.ln(6),
            LogForm.rational(Fraction(1, 3)) + LogForm.ln(2) + LogForm.ln(3),
        ),
    ],
)
def test_equal_verdict_takes_one_enclosure_and_one_cancellation(monkeypatch, x, y):
    tried = _precisions_tried(monkeypatch)
    reduced = _reductions(monkeypatch)
    assert certified_compare(x, y) == EQUAL
    assert tried == [128]
    assert len(reduced) == 1


@pytest.mark.parametrize(
    "x, y",
    [
        (LogForm.rational(Fraction(1, 3)), LogForm.rational(Fraction(1, 3))),
        (LogForm.ln(6) * LogForm.ln(5), LogForm.ln(5) * LogForm.ln(6)),
        (LogForm.zero(), LogForm.zero()),
    ],
)
def test_empty_form_is_equal_without_enclosure_or_cancellation(monkeypatch, x, y):
    # both sides carry the same coefficients, so the difference has no terms at all
    tried = _precisions_tried(monkeypatch)
    reduced = _reductions(monkeypatch)
    assert not (x - y).coeffs
    assert certified_compare(x, y) == EQUAL
    assert tried == []
    assert reduced == []


def test_strict_verdict_at_the_first_precision_never_reduces(monkeypatch):
    tried = _precisions_tried(monkeypatch)
    reduced = _reductions(monkeypatch)
    lhs = LogForm.ln(16) + LogForm.ln(3).scale(Fraction(1, 2))
    assert certified_compare(lhs, LogForm.ln(27)) == GREATER
    assert certified_compare(LogForm.ln(6) * LogForm.ln(5), LogForm.ln(2) * LogForm.ln(15)) == GREATER
    assert tried == [128, 128]
    assert reduced == []


def test_uncertain_message_prints_the_reduced_form():
    # ln 6 - ln 3 - ln 2 cancels only over the coprime base; the message shows the form after that
    big = 2**2000 + 1
    f = LogForm.ln(big) + LogForm.ln(6)
    g = LogForm.ln(2).scale(2001) + LogForm.ln(3)
    with pytest.raises(ComparisonUncertain) as exc:
        certified_compare(f, g)
    assert str(exc.value) == (
        f"form did not separate from zero at 1024 bits: LogForm(-2000*ln2 + 1*ln{big})"
    )


# -- prime-basis oracle ------------------------------------------------------
# Rewrites a form's atoms into primes by trial division and decides it the
# way a factoring comparator would: zero when the prime coefficients cancel,
# otherwise the sign of an interval that excludes zero.


def _trial_factor(n):
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _prime_coeffs(coeffs):
    """A {key: coefficient} map with every atom rewritten over its prime factors."""
    out = {}
    for key, c in coeffs.items():
        terms = [((), c)]
        for atom in key:
            terms = [
                (k + (p,), v * e)
                for k, v in terms
                for p, e in _trial_factor(atom).items()
            ]
        for k, v in terms:
            k = tuple(sorted(k))
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def _oracle_sign(form):
    coeffs = _prime_coeffs(form.coeffs)
    if not coeffs:
        return EQUAL
    iv = mpmath.iv
    old_prec = iv.prec
    try:
        for prec in (128, 256, 512, 1024):
            iv.prec = prec
            total = iv.mpf(0)
            for key, c in coeffs.items():
                term = iv.mpf(c.numerator) / c.denominator
                for p in key:
                    term = term * iv.log(p)
                total = total + term
            if total.a > 0:
                return GREATER
            if total.b < 0:
                return LESS
    finally:
        iv.prec = old_prec
    raise AssertionError(f"oracle could not separate {coeffs}")


def _oracle_log_ratio(num1, den1, num2, den2):
    def vec(num, den):
        v = _trial_factor(num)
        for p, e in _trial_factor(den).items():
            v[p] = v.get(p, 0) - e
        return {p: e for p, e in v.items() if e}

    v1, v2 = vec(num1, den1), vec(num2, den2)
    if not v1:
        return Fraction(0)
    if set(v1) != set(v2):
        return None
    ratios = {Fraction(v1[p], v2[p]) for p in v1}
    return ratios.pop() if len(ratios) == 1 else None


# atoms that share factors, so equal forms are spelled differently
SHARED_ATOMS = (2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 18, 25, 27, 30, 36, 45, 60, 1001, 143)


def _random_form(rng):
    form = LogForm.rational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    for _ in range(rng.randint(1, 4)):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        term = LogForm.ln(rng.choice(SHARED_ATOMS), rng.choice((1, 1, 2, 3, 6)))
        if rng.random() < 0.6:
            term = term * LogForm.ln(rng.choice(SHARED_ATOMS))
        form = form + term.scale(c)
    return form


def _respelled(form, rng):
    """The same value with each atom replaced by a random split of it."""
    out = LogForm.zero()
    for key, c in form.coeffs.items():
        term = LogForm.rational(c)
        for atom in key:
            d = rng.choice([d for d in range(1, atom + 1) if atom % d == 0])
            term = term * (LogForm.ln(d) + LogForm.ln(atom // d))
        out = out + term
    return out


def test_degree_two_cancellation_across_composite_atoms():
    lhs = LogForm.ln(6) * LogForm.ln(2)
    rhs = LogForm.ln(2) * LogForm.ln(2) + LogForm.ln(2) * LogForm.ln(3)
    assert lhs.coeffs != rhs.coeffs
    assert certified_compare(lhs, rhs) == EQUAL
    assert certified_compare(
        LogForm.ln(36) * LogForm.ln(10), LogForm.ln(6) * LogForm.ln(100)
    ) == EQUAL


def test_sign_matches_prime_basis_oracle():
    rng = random.Random(2005)
    zeros = 0
    for _ in range(400):
        x = _random_form(rng)
        if rng.random() < 0.4:
            y = _respelled(x, rng)
            if rng.random() < 0.5:
                y = y + LogForm.ln(rng.choice(SHARED_ATOMS)).scale(Fraction(1, 7))
        else:
            y = _random_form(rng)
        want = _oracle_sign(x - y)
        assert certified_compare(x, y) == want, (x, y)
        assert (x - y).is_zero() == (want == EQUAL)
        zeros += want == EQUAL
    assert zeros >= 50


def test_log_ratio_matches_prime_basis_oracle():
    rng = random.Random(1502)
    primes = (2, 3, 5, 7)
    rational = 0

    def number(exps):
        n = 1
        for p, e in zip(primes, exps):
            n *= p**e
        return n

    for _ in range(400):
        e_num = [rng.randint(0, 3) for _ in primes]
        e_den = [rng.randint(0, 2) for _ in primes]
        num2, den2 = number(e_num), number(e_den)
        if num2 == den2:
            continue
        if rng.random() < 0.5:
            k, m = rng.randint(0, 3), rng.randint(1, 2)
            num1 = number([k * e for e in e_num]) * number([m * e for e in e_den])
            den1 = number([k * e for e in e_den]) * number([m * e for e in e_num])
            if rng.random() < 0.5:
                num1, den1 = num1 * 2, den1 * 2
        else:
            num1 = number([rng.randint(0, 3) for _ in primes])
            den1 = number([rng.randint(0, 2) for _ in primes])
        want = _oracle_log_ratio(num1, den1, num2, den2)
        assert log_ratio_as_fraction(num1, den1, num2, den2) == want
        rational += want is not None
    assert rational >= 100


@pytest.mark.parametrize("args", [(0,), (-3,), (5, 0), (5, -2), (-4, -2)])
def test_ln_rejects_non_positive_arguments(args):
    with pytest.raises(ValueError):
        LogForm.ln(*args)


# a 50-digit semiprime: factoring it is slow, a coprime base needs only gcds
SEMIPRIME = (10**25 + 13) * (10**24 + 7)


def test_large_semiprime_compares_without_factoring():
    n = SEMIPRIME
    assert (LogForm.ln(n * n) - LogForm.ln(n).scale(2)).is_zero()
    assert certified_compare(LogForm.ln(n * n), LogForm.ln(n).scale(2)) == EQUAL
    lhs = LogForm.ln(n) * LogForm.ln(3)
    rhs = LogForm.ln(n, 2) * LogForm.ln(3)
    assert certified_compare(lhs, rhs) == GREATER
    assert log_ratio_as_fraction(n**3, 1, n * n, 1) == Fraction(3, 2)


def test_import_does_not_load_sympy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [
            sys.executable,
            "-c",
            "import homlab, sys; loaded = {'sympy', 'mpmath'} & set(sys.modules); assert not loaded, loaded",
        ],
        env=env,
        check=True,
    )


def test_expand_outside_the_base_is_an_invariant_violation():
    with pytest.raises(InvariantViolation) as exc:
        _expand(6, [2])
    assert exc.value.check_name == "coprime-base"


@st.composite
def log_forms(draw):
    """Sums of rational constants, c*ln(a/b) and c*ln(a/b)*ln(p/q) terms."""
    ratio = st.tuples(st.integers(1, 40), st.integers(1, 40))
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    form = LogForm.rational(draw(coeff))
    for _ in range(draw(st.integers(0, 4))):
        term = LogForm.ln(*draw(ratio)).scale(draw(coeff))
        if draw(st.booleans()):
            term = term * LogForm.ln(*draw(ratio))
        form = form + term
    return form


@settings(max_examples=200, deadline=None, derandomize=True)
@given(log_forms(), log_forms())
def test_certified_compare_is_antisymmetric(x, y):
    assert certified_compare(x, y) == -certified_compare(y, x)
    assert certified_compare(x, x) == EQUAL


# -- the stored representation against a plain dict-of-Fraction model -------
# Each Modelled value carries a LogForm and the {key: Fraction} map it must
# equal, built side by side by the same operations.


def _model_sum(x, y, sign):
    out = dict(x)
    for k, v in y.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


class Modelled:
    def __init__(self, form, model):
        self.form, self.model = form, model

    @staticmethod
    def ln(num, den):
        model = {}
        for n, c in ((num, 1), (den, -1)):
            if n > 1:
                model[(n,)] = model.get((n,), 0) + Fraction(c)
        return Modelled(LogForm.ln(num, den), {k: v for k, v in model.items() if v})

    @staticmethod
    def rational(c):
        return Modelled(LogForm.rational(c), {(): Fraction(c)} if c else {})

    def degree(self):
        return max(map(len, self.model), default=0)

    def scale(self, c):
        return Modelled(self.form.scale(c), {k: v * c for k, v in self.model.items() if c})

    def __neg__(self):
        return Modelled(-self.form, {k: -v for k, v in self.model.items()})

    def __add__(self, other):
        return Modelled(self.form + other.form, _model_sum(self.model, other.model, 1))

    def __sub__(self, other):
        return Modelled(self.form - other.form, _model_sum(self.model, other.model, -1))

    def __mul__(self, other):
        out = {}
        for k1, v1 in self.model.items():
            for k2, v2 in other.model.items():
                k = tuple(sorted(k1 + k2))
                out[k] = out.get(k, 0) + v1 * v2
        return Modelled(self.form * other.form, {k: v for k, v in out.items() if v})


SMALL_ATOMS = st.integers(1, 12)
SMALL_COEFFS = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def modelled_forms(draw):
    """A form built by ln, rational, scale, +, -, unary -, * and respelling, with its model.

    Each step combines the latest form with an earlier one or a new log, so
    later forms mix denominators, degrees and atoms that share factors.
    """
    pool = [Modelled.ln(draw(SMALL_ATOMS), draw(SMALL_ATOMS))]
    for _ in range(draw(st.integers(1, 8))):
        op = draw(st.sampled_from(("ln", "rational", "scale", "neg", "add", "sub", "mul", "respell")))
        x, y = pool[-1], draw(st.sampled_from(pool))
        if op == "ln":
            y = Modelled.ln(draw(SMALL_ATOMS), draw(SMALL_ATOMS))
            pool.append(x * y if x.degree() < 2 and draw(st.booleans()) else x + y)
        elif op == "rational":
            pool.append(x + Modelled.rational(draw(SMALL_COEFFS)))
        elif op == "scale":
            pool.append(x.scale(draw(SMALL_COEFFS)))
        elif op == "neg":
            pool.append(-x)
        elif op == "add":
            pool.append(x + y)
        elif op == "sub":
            pool.append(x - y)
        elif op == "mul":
            pool.append(x * y if x.degree() + y.degree() <= 2 else y - x)
        else:
            # the same value with each composite atom split into two factors, or x minus it
            same = Modelled.rational(0)
            for key, c in x.model.items():
                term = Modelled.rational(c)
                for atom in key:
                    d = draw(st.sampled_from([d for d in range(2, atom) if atom % d == 0] or [1]))
                    term = term * (Modelled.ln(d, 1) + Modelled.ln(atom // d, 1))
                same = same + term
            pool.append(x - same if draw(st.booleans()) else same)
    return pool[-1]


def _old_repr(model):
    """The repr of a form, rendered from its model."""
    if not model:
        return "LogForm(0)"
    terms = (f"{c}*{'*'.join(f'ln{p}' for p in key) or '1'}" for key, c in sorted(model.items()))
    return "LogForm(" + " + ".join(terms) + ")"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(modelled_forms())
def test_stored_form_matches_the_fraction_model(m):
    form, model = m.form, m.model
    assert dict(form.coeffs) == model
    # stored reduced: the denominator is the lcm of the reduced denominators,
    # so it shares no factor with all the numerators
    assert form._den == lcm(1, *(c.denominator for c in model.values()))
    assert gcd(form._den, *form._num.values()) == 1
    assert all(type(c) is Fraction for c in form.coeffs.values())
    assert repr(form) == _old_repr(model)
    zero = not _prime_coeffs(model)
    assert form.is_zero() == zero
    value = mpf_exact(_mpf_value(form, 400))
    slack = Fraction(1, 2**300)
    lo, hi = form.eval_interval(128)
    assert lo - slack <= value <= hi + slack
    if not zero:
        assert form.sign() == (1 if value > 0 else -1)
