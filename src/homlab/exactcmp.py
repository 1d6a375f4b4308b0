"""Certified comparison of sums of products of logarithms of rationals.

The dominance definitions compare quantities of the form
``c1*ln(a1)*ln(b1) + c2*ln(a2)*ln(b2) + ...`` with rational coefficients and
positive rational log arguments.  A form keeps its integer arguments (atoms)
as given.  Its sign is decided in the order of a filtered exact predicate:

* an interval first: each atom's log is bracketed by integers
  lo <= 2^prec * ln p <= hi, rounded outward by mpmath's directed-rounding
  ``mpf_log``, and the form is summed exactly in integers over the lcm of its
  coefficient denominators, at 128 bits.  An enclosure that excludes zero
  settles a strict order at once, on the form as given;
* only an enclosure that straddles zero pays for symbolic cancellation: the
  form is rewritten over a coprime base of the atoms it holds, pairwise
  coprime integers > 1 found from gcds alone, such that each atom is a
  product of powers of base elements.  Each base element owns primes no
  other element has, so the map from base vectors to prime-exponent vectors
  is injective, also on products ln q * ln q' of degree two.  A form
  therefore cancels over the coprime base exactly when it cancels over the
  prime-factor basis, without factoring anything;
* a form that does not cancel is evaluated again at 256, 512 and 1024 bits.

Equality is certified by cancellation alone (an enclosure of a zero form
never excludes zero), a strict order by an enclosure.  When neither succeeds
the comparison refuses to answer rather than guess.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

import mpmath
from mpmath.libmp import from_int, mpf_log, round_ceiling, round_floor

from .structure import InvariantViolation

LESS = -1
EQUAL = 0
GREATER = 1

# the interval precision schedule of every strict-order verdict
START_BITS = 128
MAX_BITS = 1024


class ComparisonUncertain(ArithmeticError):
    """Intervals never separated and symbolic cancellation failed."""


@lru_cache(maxsize=4096)
def _ln_bounds(atom: int, prec: int) -> tuple[int, int]:
    """Integers lo <= 2^prec * ln(atom) <= hi, with hi - lo <= 3, for an integer atom > 1.

    ln(atom) < atom.bit_length() <= 2^m for m = atom.bit_length().bit_length(),
    so at prec + m bits of mantissa one unit in the last place is at most
    2^-prec.  Each directed rounding then lands within one unit of the scaled
    log, and the outward floor and ceiling of the shift add less than one
    more on each side.
    """
    x = from_int(atom)
    wp = prec + atom.bit_length().bit_length()
    _, man_lo, exp_lo, _ = mpf_log(x, wp, round_floor)
    _, man_hi, exp_hi, _ = mpf_log(x, wp, round_ceiling)
    # value = man * 2^exp, so 2^prec * value = man * 2^(exp + prec)
    lo = man_lo << (exp_lo + prec) if exp_lo + prec >= 0 else man_lo >> -(exp_lo + prec)
    hi = man_hi << (exp_hi + prec) if exp_hi + prec >= 0 else -(-man_hi >> -(exp_hi + prec))
    return lo, hi


def _coprime_base(atoms) -> list[int]:
    """Pairwise coprime integers > 1 whose products of powers give every atom.

    Inserts the atoms one at a time, splitting x against a base element q
    with g = gcd(x, q) > 1 into x/g, g and q/g until nothing shares a factor.
    Each split divides the product of pending and base elements by g, so the
    loop ends.
    """
    base: list[int] = []
    for a in sorted(set(atoms)):
        pending = [a]
        while pending:
            x = pending.pop()
            for i, q in enumerate(base):
                g = gcd(x, q)
                if g > 1:
                    del base[i]
                    pending.extend(n for n in (x // g, g, q // g) if n > 1)
                    break
            else:
                base.append(x)
    return sorted(base)


def _expand(atom: int, base: list[int]) -> dict[int, int]:
    """Exponents of atom over a coprime base of which it is a product."""
    vec = {}
    for q in base:
        e = 0
        while atom % q == 0:
            atom //= q
            e += 1
        if e:
            vec[q] = e
    if atom != 1:
        raise InvariantViolation("coprime-base", f"{atom} is left over after dividing by {base}")
    return vec


def _require_positive(*ns: int) -> None:
    if min(ns) <= 0:
        raise ValueError("log arguments must be positive integers")


def _ratio_vectors(*ratios: tuple[int, int]) -> list[dict[int, int]]:
    """Exponent vectors of num/den for each ratio, over one shared coprime base."""
    _require_positive(*(n for ratio in ratios for n in ratio))
    base = _coprime_base(n for ratio in ratios for n in ratio if n > 1)
    out = []
    for num, den in ratios:
        vec = _expand(num, base)
        for q, e in _expand(den, base).items():
            vec[q] = vec.get(q, 0) - e
        out.append({q: e for q, e in vec.items() if e})
    return out


class LogForm:
    """A rational linear combination of products of at most two integer logs.

    Keys are sorted tuples of integer atoms > 1 of length 0, 1 or 2; the empty
    key is the rational constant term.  Atoms are kept as given, so ln 6 and
    ln 2 + ln 3 are different keys until :meth:`is_zero` or :meth:`sign`
    rewrites them over a coprime base.  Forms add, subtract, scale by
    rationals and multiply (as long as the total log degree stays at most 2).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, ...], Fraction] | None = None):
        self.coeffs = {k: v for k, v in (coeffs or {}).items() if v}

    @staticmethod
    def zero() -> "LogForm":
        return LogForm()

    @staticmethod
    def rational(c) -> "LogForm":
        return LogForm({(): Fraction(c)})

    @staticmethod
    def ln(num: int, den: int = 1) -> "LogForm":
        """The form ln(num/den) for positive integers num, den."""
        _require_positive(num, den)
        coeffs: dict[tuple[int, ...], Fraction] = {}
        for n, c in ((num, 1), (den, -1)):
            if n > 1:
                coeffs[(n,)] = coeffs.get((n,), Fraction(0)) + c
        return LogForm(coeffs)

    def __add__(self, other: "LogForm") -> "LogForm":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + v
        return LogForm(out)

    def __sub__(self, other: "LogForm") -> "LogForm":
        return self + (-other)

    def __neg__(self) -> "LogForm":
        return LogForm({k: -v for k, v in self.coeffs.items()})

    def scale(self, c) -> "LogForm":
        c = Fraction(c)
        return LogForm({k: v * c for k, v in self.coeffs.items()})

    def __mul__(self, other: "LogForm") -> "LogForm":
        out: dict[tuple[int, ...], Fraction] = {}
        for k1, v1 in self.coeffs.items():
            for k2, v2 in other.coeffs.items():
                key = tuple(sorted(k1 + k2))
                if len(key) > 2:
                    raise ValueError("log degree above 2 is not supported")
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return LogForm(out)

    def _reduced(self) -> "LogForm":
        """The same form with every atom expanded over a coprime base of its atoms."""
        base = _coprime_base(p for key in self.coeffs for p in key)
        vec = {p: _expand(p, base) for key in self.coeffs for p in key}
        out: dict[tuple[int, ...], Fraction] = {}
        for key, c in self.coeffs.items():
            terms = [((), c)]
            for p in key:
                terms = [(k + (q,), v * e) for k, v in terms for q, e in vec[p].items()]
            for k, v in terms:
                k = tuple(sorted(k))
                out[k] = out.get(k, Fraction(0)) + v
        return LogForm(out)

    def is_zero(self) -> bool:
        """True exactly when the form cancels over the prime-factor basis."""
        return not self._reduced().coeffs

    def eval_interval(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rational endpoints lo <= value <= hi from the atoms' logs bounded at 2^-prec.

        The coefficients are scaled to integers by the lcm of their
        denominators and every product and sum is exact, so the only
        rounding is the outward rounding of each ln p.
        """
        den = lcm(*(c.denominator for c in self.coeffs.values()))
        lo = hi = 0
        for key, c in self.coeffs.items():
            # [a, b] encloses 2^(2*prec) * (product of the key's logs); logs are positive
            a = b = 1 << (prec * (2 - len(key)))
            for p in key:
                p_lo, p_hi = _ln_bounds(p, prec)
                a *= p_lo
                b *= p_hi
            n = c.numerator * (den // c.denominator)
            if n > 0:
                lo += n * a
                hi += n * b
            else:
                lo += n * b
                hi += n * a
        scale = den << (2 * prec)
        return Fraction(lo, scale), Fraction(hi, scale)

    def eval_mpf(self, prec: int = 200) -> mpmath.mpf:
        with mpmath.workprec(prec):
            total = mpmath.mpf(0)
            for key, c in sorted(self.coeffs.items()):
                term = mpmath.mpf(c.numerator) / c.denominator
                for p in key:
                    term *= mpmath.log(p)
                total += term
            return +total

    def sign(self) -> int:
        """-1, 0 or +1; zero only via symbolic cancellation.

        The form as given is enclosed at ``START_BITS`` first; only when that
        enclosure straddles zero is the form reduced over a coprime base,
        answered EQUAL if it cancels, and otherwise enclosed again at
        doubling precision.  Raises :class:`ComparisonUncertain` if the
        coefficients do not cancel yet no enclosure up to ``MAX_BITS``
        excludes zero.
        """
        form = self
        prec = START_BITS
        while True:
            lo, hi = form.eval_interval(prec)
            if lo > 0:
                return GREATER
            if hi < 0:
                return LESS
            if form is self:
                form = self._reduced()
                if not form.coeffs:
                    return EQUAL
            if prec >= MAX_BITS:
                raise ComparisonUncertain(
                    f"form did not separate from zero at {prec} bits: {form}"
                )
            prec = min(2 * prec, MAX_BITS)

    def __repr__(self):
        if not self.coeffs:
            return "LogForm(0)"
        parts = []
        for key, c in sorted(self.coeffs.items()):
            logs = "*".join(f"ln{p}" for p in key) or "1"
            parts.append(f"{c}*{logs}")
        return "LogForm(" + " + ".join(parts) + ")"


def certified_compare(x: LogForm, y: LogForm) -> int:
    """LESS / EQUAL / GREATER verdict on two forms, never a guess."""
    return (x - y).sign()


def log_ratio_as_fraction(num1: int, den1: int, num2: int, den2: int) -> Fraction | None:
    """ln(num1/den1) / ln(num2/den2) as an exact Fraction, or None if irrational.

    The ratio of two logarithms of rationals is rational exactly when the two
    ratios are multiplicatively dependent, i.e. their prime exponent vectors
    are parallel.  Over a coprime base shared by both ratios the vectors are
    parallel exactly when their prime expansions are.
    """
    v1, v2 = _ratio_vectors((num1, den1), (num2, den2))
    if not v2:
        raise ZeroDivisionError("denominator log is zero")
    if not v1:
        return Fraction(0)
    if set(v1) != set(v2):
        return None
    items = sorted(v2)
    ratio = Fraction(v1[items[0]], v2[items[0]])
    for p in items[1:]:
        if Fraction(v1[p], v2[p]) != ratio:
            return None
    return ratio
