"""Certified comparison of sums of products of logarithms of rationals.

The dominance definitions compare quantities of the form
``c1*ln(a1)*ln(b1) + c2*ln(a2)*ln(b2) + ...`` with rational coefficients and
positive rational log arguments.  A form keeps its integer arguments (atoms)
as given, and stores its coefficients as integer numerators over one
positive common denominator, with no factor common to all of them and the
denominator; that denominator is the lcm of the coefficients' reduced
denominators.  Every operation on forms, and every enclosure, runs in
integer arithmetic; ``Fraction`` appears only where a coefficient or an
endpoint is handed out.  A form's sign is decided in the order of a
filtered exact predicate:

* a form with no terms is zero, and nothing is evaluated;
* an interval next: each atom's log is bracketed by integers
  lo <= 2^prec * ln p <= hi, summed from the atanh series in fixed-point
  integers, and the numerators are summed exactly in integers over the
  form's denominator, at 128 bits.  An enclosure that excludes zero
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

The same enclosures give every printed number.  A ratio of two logs is
snapshot as the nearest dyadic with ``EXPONENT_BITS`` significant bits (the
exact value when the ratio is rational), and a rational is printed to
``DECIMAL_DIGITS`` significant digits.  Whether a ratio is rational, and its
value when it is, is read off the same coprime-base expansion that decides
a sign, taken over the atoms of both logs.  There is no floating-point route.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import MappingProxyType

from .structure import InvariantViolation

LESS = -1
EQUAL = 0
GREATER = 1

# the interval precision schedule of every strict-order verdict
START_BITS = 128
MAX_BITS = 1024
# significant bits of a snapshot of a log ratio, and digits of every decimal
EXPONENT_BITS = 240
DECIMAL_DIGITS = 30


class ComparisonUncertain(ArithmeticError):
    """Intervals never separated and symbolic cancellation failed."""


def _atanh_fixed(a: int, b: int, w: int) -> tuple[int, int]:
    """(s, n) with s <= 2^w * atanh(a/b) < s + 2(n + 1), for integers 0 <= a <= b/3.

    With u = a/b, P_0 = floor(2^w u) and P_(j+1) = floor(P_j a^2 / b^2) until
    the first P_N = 0, s = sum over j < N of floor(P_j / (2j + 1)), and n = N.
    Each P_j <= 2^w u^(2j+1), so s never exceeds the series.  The error
    e_j = 2^w u^(2j+1) - P_j has e_0 < 1 and e_(j+1) < e_j u^2 + 1 <= e_j/9 + 1,
    so e_j < 9/8.  Term 0 is then short by less than 1 and every later term
    by less than 1 + (9/8)/3; with P_N = 0 the tail from term N on is at
    most 2^w u^(2N+1) / ((2N+1)(1 - u^2)) < (9/8)(9/8)/(2N+1), which is
    below 1/2 for N >= 1 and below 2 for N = 0.  The sum of the shortfalls
    is below 2(N + 1).
    """
    s = n = 0
    power = (a << w) // b
    a2, b2 = a * a, b * b
    while power:
        s += power // (2 * n + 1)
        n += 1
        power = power * a2 // b2
    return s, n


@lru_cache(maxsize=64)
def _ln2_fixed(w: int) -> tuple[int, int]:
    """(s, n) with 2s <= 2^w * ln 2 < 2s + 4(n + 1), from ln 2 = 2 atanh(1/3)."""
    return _atanh_fixed(1, 3, w)


@lru_cache(maxsize=4096)
def _ln_bounds(atom: int, prec: int) -> tuple[int, int]:
    """Integers lo <= 2^prec * ln(atom) <= hi, with hi - lo <= 3, for an integer atom > 1.

    Write atom = 2^k * m with k the nearest integer to log2(atom), so that
    m lies in [2^(-1/2), 2^(1/2)], and ln(atom) = k ln 2 + 2 atanh(t) with
    t = (atom - 2^k) / (atom + 2^k), |t| <= 3 - 2*sqrt(2) < 1/3; ln 2 is
    2 atanh(1/3).  Both series are summed by :func:`_atanh_fixed` at
    w = prec + g bits, with the sign of t applied to its bounds, which
    encloses 2^w ln(atom) in [L, H] with H - L = 4(k(n2 + 1) + n + 1), n2
    and n the terms each series took.  A term P_j is non-zero only while
    3^(2j+1) <= 2^w, so n, n2 <= w/(2 log2 3) + 1/2 and n2 + 1 <= w/2 once
    w >= 9; with k + 1 <= b + 1 for b = atom.bit_length(), H - L <= 2(b + 1)w.
    The guard g is the least with 2^g >= 2(b + 1)(prec + g), so H - L <= 2^g,
    and shifting L down and H up by g bits leaves hi - lo < (H - L)/2^g + 2 <= 3.
    """
    bits = atom.bit_length()
    k = bits - 1
    if atom * atom >= 1 << (2 * k + 1):
        k += 1
    g = 8
    while 1 << g < 2 * (bits + 1) * (prec + g):
        g += 1
    w = prec + g
    s2, n2 = _ln2_fixed(w)
    t = atom - (1 << k)
    s, n = _atanh_fixed(abs(t), atom + (1 << k), w)
    lo_t, hi_t = (2 * s, 2 * s + 4 * (n + 1)) if t >= 0 else (-2 * s - 4 * (n + 1), -2 * s)
    lo = k * 2 * s2 + lo_t
    hi = k * (2 * s2 + 4 * (n2 + 1)) + hi_t
    return lo >> g, -(-hi >> g)


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


def _form(num: dict[tuple[int, ...], int], den: int) -> "LogForm":
    """The form sum of num[key]/den * key, zero numerators dropped and the gcd divided out."""
    num = {k: v for k, v in num.items() if v}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            den //= g
            num = {k: v // g for k, v in num.items()}
    return LogForm(num, den)


class LogForm:
    """A rational linear combination of products of at most two integer logs.

    Keys are sorted tuples of integer atoms > 1 of length 0, 1 or 2; the empty
    key is the rational constant term.  Atoms are kept as given, so ln 6 and
    ln 2 + ln 3 are different keys until :meth:`is_zero` or :meth:`sign`
    rewrites them over a coprime base.  Forms add, subtract, scale by
    rationals and multiply (as long as the total log degree stays at most 2).

    The coefficients are stored as non-zero integer numerators over one
    positive denominator, reduced as the module docstring says;
    :attr:`coeffs` shows them as ``Fraction`` values.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict[tuple[int, ...], int], den: int):
        """The form with these numerators and denominator, taken as already reduced."""
        self._num, self._den = num, den

    @property
    def coeffs(self) -> MappingProxyType:
        """A read-only map from each key to its non-zero ``Fraction`` coefficient."""
        return MappingProxyType({k: Fraction(v, self._den) for k, v in self._num.items()})

    @staticmethod
    def zero() -> "LogForm":
        return LogForm({}, 1)

    @staticmethod
    def rational(c) -> "LogForm":
        c = Fraction(c)
        return _form({(): c.numerator}, c.denominator)

    @staticmethod
    def ln(num: int, den: int = 1) -> "LogForm":
        """The form ln(num/den) for positive integers num, den."""
        _require_positive(num, den)
        coeffs: dict[tuple[int, ...], int] = {}
        if num != den:
            if num > 1:
                coeffs[(num,)] = 1
            if den > 1:
                coeffs[(den,)] = -1
        return LogForm(coeffs, 1)

    def _combine(self, other: "LogForm", sign: int) -> "LogForm":
        """self + sign * other over the lcm of the two denominators."""
        den = lcm(self._den, other._den)
        m1, m2 = den // self._den, sign * (den // other._den)
        out = {k: v * m1 for k, v in self._num.items()}
        for k, v in other._num.items():
            out[k] = out.get(k, 0) + v * m2
        return _form(out, den)

    def __add__(self, other: "LogForm") -> "LogForm":
        return self._combine(other, 1)

    def __sub__(self, other: "LogForm") -> "LogForm":
        return self._combine(other, -1)

    def __neg__(self) -> "LogForm":
        return LogForm({k: -v for k, v in self._num.items()}, self._den)

    def scale(self, c) -> "LogForm":
        c = Fraction(c)
        return _form({k: v * c.numerator for k, v in self._num.items()}, self._den * c.denominator)

    def __mul__(self, other: "LogForm") -> "LogForm":
        out: dict[tuple[int, ...], int] = {}
        for k1, v1 in self._num.items():
            for k2, v2 in other._num.items():
                key = tuple(sorted(k1 + k2))
                if len(key) > 2:
                    raise ValueError("log degree above 2 is not supported")
                out[key] = out.get(key, 0) + v1 * v2
        return _form(out, self._den * other._den)

    def _reduced(self, base: list[int] | None = None) -> "LogForm":
        """The same form with every atom expanded over ``base``.

        ``base`` defaults to a coprime base of the form's own atoms; a given one
        must be pairwise coprime and give every atom as a product of its powers.
        """
        atoms = {p for key in self._num for p in key}
        if base is None:
            base = _coprime_base(atoms)
        vec = {p: _expand(p, base) for p in atoms}
        out: dict[tuple[int, ...], int] = {}
        for key, c in self._num.items():
            terms = [((), c)]
            for p in key:
                terms = [(k + (q,), v * e) for k, v in terms for q, e in vec[p].items()]
            for k, v in terms:
                k = tuple(sorted(k))
                out[k] = out.get(k, 0) + v
        return _form(out, self._den)

    def is_zero(self) -> bool:
        """True exactly when the form cancels over the prime-factor basis."""
        return not self._reduced()._num

    def eval_interval(self, prec: int) -> tuple[Fraction, Fraction]:
        """Rational endpoints lo <= value <= hi from the atoms' logs bounded at 2^-prec.

        The numerators are integers over the form's one denominator and
        every product and sum is exact, so the only rounding is the outward
        rounding of each ln p.
        """
        lo = hi = 0
        for key, n in self._num.items():
            # [a, b] encloses 2^(2*prec) * (product of the key's logs); logs are positive
            a = b = 1 << (prec * (2 - len(key)))
            for p in key:
                p_lo, p_hi = _ln_bounds(p, prec)
                a *= p_lo
                b *= p_hi
            if n > 0:
                lo += n * a
                hi += n * b
            else:
                lo += n * b
                hi += n * a
        scale = self._den << (2 * prec)
        return Fraction(lo, scale), Fraction(hi, scale)

    def sign(self) -> int:
        """-1, 0 or +1; zero only via symbolic cancellation.

        A form with no terms is EQUAL at once.  Any other form is enclosed at
        ``START_BITS`` first; only when that enclosure straddles zero is the
        form reduced over a coprime base, answered EQUAL if it cancels, and
        otherwise enclosed again at doubling precision.  Raises :class:`ComparisonUncertain` if the
        coefficients do not cancel yet no enclosure up to ``MAX_BITS``
        excludes zero.
        """
        if not self._num:
            return EQUAL
        form = self
        prec = START_BITS
        while True:
            lo, hi = form.eval_interval(prec)
            # a Fraction has the sign of its numerator
            if lo.numerator > 0:
                return GREATER
            if hi.numerator < 0:
                return LESS
            if form is self:
                form = self._reduced()
                if not form._num:
                    return EQUAL
            if prec >= MAX_BITS:
                raise ComparisonUncertain(
                    f"form did not separate from zero at {prec} bits: {form}"
                )
            prec = min(2 * prec, MAX_BITS)

    def __repr__(self):
        if not self._num:
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
    are parallel.  Both logs are expanded as ``LogForm.ln`` forms over one
    coprime base of their atoms, the expansion :meth:`LogForm.sign` uses, and
    over it the vectors are parallel exactly when their prime expansions are.
    """
    forms = LogForm.ln(num1, den1), LogForm.ln(num2, den2)
    base = _coprime_base(p for form in forms for (p,) in form._num)
    v1, v2 = ({q: e for (q,), e in form._reduced(base)._num.items()} for form in forms)
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


def _nearest_dyadic(x: Fraction) -> Fraction:
    """The nearest rational m * 2^e to x with |m| < 2^EXPONENT_BITS, ties to even m."""
    if not x:
        return x
    # 2^e <= |x| < 2^(e+1) for e = the bit-length difference, or one less
    e = abs(x.numerator).bit_length() - x.denominator.bit_length()
    if abs(x) < Fraction(2) ** e:
        e -= 1
    unit = Fraction(2) ** (e + 1 - EXPONENT_BITS)
    return round(x / unit) * unit


def log_ratio_snapshot(num1: int, den1: int, num2: int, den2: int) -> Fraction:
    """ln(num1/den1) / ln(num2/den2), exact when rational, else to ``EXPONENT_BITS`` bits.

    An irrational ratio is rounded to the nearest dyadic with
    ``EXPONENT_BITS`` significant bits.  Rounding is monotone, so once both
    ends of an enclosure of the ratio round to the same dyadic, so does the
    ratio; the enclosures are taken at 256, 512 and ``MAX_BITS`` bits, and
    :class:`ComparisonUncertain` is raised when none of them decides it.
    """
    exact = log_ratio_as_fraction(num1, den1, num2, den2)
    if exact is not None:
        return exact
    top, bottom = LogForm.ln(num1, den1), LogForm.ln(num2, den2)
    for prec in (2 * START_BITS, 4 * START_BITS, MAX_BITS):
        t_lo, t_hi = top.eval_interval(prec)
        b_lo, b_hi = bottom.eval_interval(prec)
        if t_lo * t_hi <= 0 or b_lo * b_hi <= 0:
            continue
        quotients = [t / b for t in (t_lo, t_hi) for b in (b_lo, b_hi)]
        lo, hi = _nearest_dyadic(min(quotients)), _nearest_dyadic(max(quotients))
        if lo == hi:
            return lo
    raise ComparisonUncertain(
        f"ln({num1}/{den1}) / ln({num2}/{den2}) did not round at {MAX_BITS} bits"
    )


_DECIMAL = Context(prec=DECIMAL_DIGITS, rounding=ROUND_HALF_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)


def decimal_str(x: Fraction) -> str:
    """x to ``DECIMAL_DIGITS`` significant digits, rounded half up, trailing zeros cut.

    Plain notation while the leading digit's exponent e has -10 < e < 30,
    otherwise d.ddd followed by e+E or e-E; zero is ``0.0``.
    """
    if not x:
        return "0.0"
    d = _DECIMAL.divide(Decimal(x.numerator), Decimal(x.denominator))
    sign = "-" if d < 0 else ""
    digits = "".join(map(str, d.as_tuple().digits))
    e = d.adjusted()
    if -10 < e < 30:
        if e < 0:
            digits, split = "0" * -e + digits, 1
        else:
            digits, split = digits.ljust(e + 1, "0"), e + 1
        exponent = ""
    else:
        split, exponent = 1, f"e{e:+d}"
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    return sign + (text + "0" if text.endswith(".") else text) + exponent
