"""Reference printers: the Fraction-based writers that expr's integer
writer replaced, kept as the oracle.

An element is printed from its num and den views, one Fraction per
coefficient, with signs from Fraction comparisons; a rational's denominator
is written bare when its text matches _BARE_DENOM_RE.  The writers in expr
must give the same text on every input.  The oracle writes numerals with
str() under no integer-string limit, so it shares no code with
expr.decimal.
"""

import random
import re
from fractions import Fraction

from prolong import Q, QT, MultiPoly, format_element, format_poly, format_rational
from prolong.poly import reduce_fraction
from prolong.series import TruncSeries

from helpers import int_str_limit


def _term_count(a):
    return sum(1 for c in a if c != 0)


def reference_upoly(a):
    if not a:
        return "0"
    parts = []
    for k in range(len(a) - 1, -1, -1):
        c = a[k]
        if c == 0:
            continue
        neg = c < 0
        mag = -c if neg else c
        if k == 0:
            body = str(mag)
        else:
            var = "t" if k == 1 else f"t^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def reference_element(e, as_factor=False):
    num = e.num
    num_s = reference_upoly(num)
    if len(e.d) == 1:
        if as_factor and _term_count(num) > 1:
            return f"({num_s})"
        return num_s
    if _term_count(num) > 1 or "/" in num_s:
        num_s = f"({num_s})"
    den = e.den
    den_s = reference_upoly(den)
    if _term_count(den) > 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def _reference_term_body(coeff, mono, names):
    vparts = []
    for i, e in enumerate(mono):
        if e == 1:
            vparts.append(names[i])
        elif e > 1:
            vparts.append(f"{names[i]}^{e}")
    if not vparts:
        return reference_element(coeff, as_factor=True)
    if coeff.is_one:
        return "*".join(vparts)
    return reference_element(coeff, as_factor=True) + "*" + "*".join(vparts)


def reference_poly(p, names):
    if p.is_zero:
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        neg = coeff.is_negative_leading
        mag = -coeff if neg else coeff
        body = _reference_term_body(mag, mono, names)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


_BARE_DENOM_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*(\^\d+)?$")


def reference_rational(num, den, names):
    if den.is_constant:
        c = den.constant_value()
        p = num if c.is_one else num * c.inverse()
        return reference_poly(p, names)
    num_s = reference_poly(num, names)
    if len(num.terms) > 1:
        num_s = f"({num_s})"
    den_s = reference_poly(den, names)
    if not _BARE_DENOM_RE.match(den_s):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def reference_series(s):
    parts = []
    for k, c in enumerate(s.coeffs):
        if c == 0:
            continue
        if k == 0:
            body = str(c)
        else:
            tk = "t" if k == 1 else f"t^{k}"
            body = tk if abs(c) == 1 else f"{abs(c)}*{tk}"
            if not parts:
                body = body if c > 0 else "-" + body
            else:
                body = ("+ " if c > 0 else "- ") + body
            parts.append(body)
            continue
        parts.append(body)
    head = " ".join(parts) if parts else "0"
    return f"{head} + O(t^{s.order + 1})"


def _reference(printer, *args):
    with int_str_limit(0):
        return printer(*args)


def _coefficient(rng, big):
    """A rational with small or, when big, sometimes 4300- to 4500-digit
    parts, of either sign, and often 0 or +-1."""
    if big and rng.random() < 0.3:
        n = rng.randrange(10**4300, 10**4500)
        d = rng.choice((1, 3, rng.randrange(10**4300, 10**4400)))
        return Fraction(rng.choice((-1, 1)) * n, d)
    return Fraction(rng.choice((0, 1, -1, rng.randint(-9, 9))), rng.choice((1, 1, 2, 3, 7)))


def _t_poly(rng, field, degree, big):
    t = field.t
    e = field.zero
    for k in range(degree + 1):
        e = e + _coefficient(rng, big) * t**k
    return e


def _element(rng, field, big=False):
    """Canonical elements whose numerators lead with either sign and whose
    denominators lead with coefficients other than 1."""
    if not field.has_t:
        c = _coefficient(rng, big)
        return field.elem(c / rng.choice((1, 2, 3, 7)))
    num = _t_poly(rng, field, rng.randint(0, 3), big)
    den = _t_poly(rng, field, rng.randint(0, 2), big)
    if den.is_zero:
        den = field.t * rng.choice((2, 3, -5)) + 1
    return num / den


def test_elements_print_as_the_fraction_printer():
    rng = random.Random(27)
    samples = [Q.zero, Q.one, -Q.one, QT.t, -QT.t, QT.t / 2, 1 / QT.t, -3 / (2 * QT.t),
               (QT.t + 1) / (-2 * QT.t + 4), (2 * QT.t**2 - 1) / (3 * QT.t)]
    samples += [_element(rng, field) for field in (Q, QT) for _ in range(300)]
    samples += [_element(rng, field, big=True) for field in (Q, QT) for _ in range(15)]
    assert any(e.n and e.n[-1] < 0 for e in samples)
    assert any(e.d[-1] != 1 for e in samples if len(e.d) > 1)
    assert any(max(map(abs, e.n + e.d)) > 10**4300 for e in samples)
    for limit in (None, 640):
        with int_str_limit(limit):
            for e in samples:
                assert format_element(e) == _reference(reference_element, e)
                assert str(e) == format_element(e)


def test_polynomials_print_as_the_fraction_printer():
    rng = random.Random(28)
    names = ("x", "y", "z")
    for field in (Q, QT):
        for k in range(200):
            terms = {}
            for _ in range(rng.randint(0, 5)):
                mono = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in names)
                # a coefficient of several terms over 1 needs parentheses
                # as a factor; one over a denominator does not
                terms[mono] = _element(rng, field, big=k < 5)
            p = MultiPoly(field, len(names), terms)
            assert format_poly(p, names) == _reference(reference_poly, p, names)


def test_rationals_print_as_the_fraction_printer():
    rng = random.Random(29)
    names = ("x", "y")
    x, y = (MultiPoly.var(QT, 2, i) for i in range(2))
    dens = [x, x**2, x**5, y**3, x * y, -x, 2 * x, x * QT.t, x + 1, x**2 - y, x * y + y**2 - 3]
    nums = [MultiPoly.const(QT, 2, 1), -x, x + y, 3 * y**2 - QT.t * x, x * y * Fraction(1, 2) - 1]
    for num in nums:
        for den in dens:
            # as given, and in the canonical form
            for pair in ((num, den), reduce_fraction(num, den)):
                assert format_rational(*pair, names) == _reference(reference_rational, *pair, names)
    for _ in range(200):
        field = rng.choice((Q, QT))
        pair = []
        for _ in range(2):
            p = MultiPoly.zero(field, 2)
            for _ in range(rng.randint(1, 3)):
                mono = (rng.randint(0, 2), rng.randint(0, 2))
                p = p + MultiPoly(field, 2, {mono: _element(rng, field)})
            pair.append(p)
        if pair[1].is_zero:
            continue
        num, den = reduce_fraction(*pair)
        assert format_rational(num, den, names) == _reference(reference_rational, num, den, names)


def test_series_print_as_the_fraction_printer():
    rng = random.Random(30)
    samples = [TruncSeries([0]), TruncSeries([0, 0, 0]), TruncSeries([1, -1, 1, -1]),
               TruncSeries([-1, 0, 1]), TruncSeries([0, -1]), TruncSeries([Fraction(-3, 2), 1])]
    for _ in range(300):
        order = rng.randint(0, 8)
        samples.append(TruncSeries([_coefficient(rng, big=False) for _ in range(order + 1)]))
    for _ in range(5):
        samples.append(TruncSeries([_coefficient(rng, big=True) for _ in range(4)]))
    for limit in (None, 640):
        with int_str_limit(limit):
            for s in samples:
                assert str(s) == _reference(reference_series, s)
