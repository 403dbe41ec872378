"""Exact arithmetic in the differential base fields Q and Q(t).

An element is a quotient n/d of polynomials in Z[t].  A polynomial is a
tuple of ints, lowest degree first, with no trailing zeros; the empty tuple
is zero.  Elements are stored in canonical form: n and d are coprime in
Z[t] (no common integer content and no common factor of positive degree),
the leading coefficient of d is positive, and zero is ((), (1,)).  The form
is unique, so equality is a tuple compare.  Over Q both parts are constant,
(p,) and (q,) standing for the Fraction p/q, and the derivation is zero;
over Q(t) the derivation is d/dt extended to quotients by the quotient rule.

Arithmetic keeps that form by cancelling only what the operands can share
(Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1), which holds in any unique
factorization domain: the elements of Q and the polynomials over Q, whose
denominators are integers, add and multiply with integer gcds alone.
Polynomial gcds run by primitive pseudo-remainder sequences (TAOCP vol. 2,
4.6.1).

The module computes and holds no text: expr reads and writes the expression
syntax.  The num and den properties give the displayed form, Fraction
coefficients over the monic denominator, to readers outside the package.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd

from .errors import DivisionByZero

_UNIT = (1,)


def _trim(cs: list) -> tuple[int, ...]:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _neg(a):
    return tuple([-c for c in a])


def _sub(a, b):
    return _add(a, _neg(b))


def _mul(a, b):
    if not a or not b:
        return ()
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        if len(b) == 1:
            return (c * b[0],)
        return b if c == 1 else tuple([c * x for x in b])
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    # Z has no zero divisors: the top coefficient is nonzero.
    return tuple(out)


def _exquo(a, b):
    """a / b, where b divides a in Z[t].

    Then each quotient coefficient is an integer: a/b = q lies in Z[t] by
    Gauss's lemma, and long division recovers q top down.
    """
    nb = len(b)
    if nb == 1:
        c = b[0]
        return a if c == 1 else tuple([x // c for x in a])
    lb = b[-1]
    r = list(a)
    q = [0] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb - 1]
        if not c:
            continue
        c //= lb
        q[k] = c
        for j in range(nb - 1):
            r[k + j] -= c * b[j]
    return tuple(q)


def _primitive(a):
    """a divided by the gcd of its coefficients."""
    c = gcd(*a)
    return a if c == 1 else [x // c for x in a]


def _prem(a, b):
    """A nonzero integer multiple of the remainder of a by b, deg b >= 1.

    Each step scales the dividend by lc(b)/g and subtracts (c/g) t^k b,
    with c its top coefficient and g = gcd(c, lc(b)): a sparse
    pseudo-remainder, kept small.
    """
    nb = len(b)
    lb = b[-1]
    r = list(a)
    while len(r) >= nb:
        c = r.pop()
        g = gcd(c, lb)
        kb, kc = lb // g, c // g
        if kb != 1:
            r = [kb * x for x in r]
        k = len(r) - nb + 1
        for j in range(nb - 1):
            r[k + j] -= kc * b[j]
        while r and not r[-1]:
            r.pop()
    return r


def _gcd(a, b):
    """gcd of nonzero a and b in Z[t], with a positive leading coefficient."""
    if len(a) == 1 or len(b) == 1:
        return (gcd(*a, *b),)
    if len(a) == 2:
        a, b = b, a
    ca, cb = gcd(*a), gcd(*b)
    c = gcd(ca, cb)
    if len(b) == 2:
        # A linear b = cb * (s*t - r), gcd(r, s) = 1, shares a factor of
        # positive degree with a only if r/s is a root of a (Gauss's
        # lemma), that is, if s^deg(a) * a(r/s) = 0: one Horner pass.
        r, s = -b[0] // cb, b[1] // cb
        v, w = a[-1], 1
        for k in range(len(a) - 2, -1, -1):
            w *= s
            v = v * r + a[k] * w
        if v:
            return (c,)
        return (-c * r, c * s) if s > 0 else (c * r, -c * s)
    if ca != 1:
        a = [x // ca for x in a]
    if cb != 1:
        b = [x // cb for x in b]
    if len(a) < len(b):
        a, b = b, a
    # Primitive PRS: the primitive parts of successive remainders share the
    # gcd of a and b, and stay as small as the gcd's height allows.
    while True:
        r = _prem(a, b)
        if not r:
            break
        if len(r) == 1:
            return (c,)
        a, b = b, _primitive(r)
    if b[-1] < 0:
        c = -c
    return tuple([c * x for x in b]) if c != 1 else tuple(b)


def _deriv(a):
    return _trim([k * a[k] for k in range(1, len(a))])


def power(x, k: int, mul=operator.mul):
    """x**k for an integer k >= 1, by square-and-multiply from the low bit.

    There is no product by one and no square after the top bit, so the cost
    is bit_length(k) - 1 squares and popcount(k) - 1 products: x**e costs
    e - 1 for e <= 3.  x is a field element, a polynomial or a series, or,
    with mul=_mul, a polynomial of Z[t] as a tuple.
    """
    out = None
    while True:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if not k:
            return out
        x = mul(x, x)


@dataclass(frozen=True)
class BaseField:
    """Tag object naming the base field: Q or Q(t)."""

    tag: str

    @property
    def has_t(self) -> bool:
        return self.tag == "Qt"

    def elem(self, value) -> "FieldElement":
        """The element value: an element of this field, or an exact rational.

        Exact rationals are int, Fraction, or a string Fraction parses, such
        as "-3/4".  Floats are refused: they would carry binary rounding.
        """
        if isinstance(value, FieldElement):
            if value.field is not self and value.field != self:
                raise ValueError(f"element of {value.field} used over {self}")
            return value
        if type(value) is int:
            return FieldElement(self, (value,), _UNIT) if value else self.zero
        if not isinstance(value, (int, Fraction, str)):
            raise TypeError(f"field elements are exact rationals, not {type(value).__name__}")
        c = value if type(value) is Fraction else Fraction(value)
        if not c:
            return self.zero
        return FieldElement(self, (c.numerator,), (c.denominator,))

    @cached_property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (), _UNIT)

    @cached_property
    def one(self) -> "FieldElement":
        return FieldElement(self, _UNIT, _UNIT)

    @property
    def t(self) -> "FieldElement":
        if not self.has_t:
            raise ValueError("Q has no element t")
        return FieldElement(self, (0, 1), _UNIT)

    def __str__(self) -> str:
        return "Q(t)" if self.has_t else "Q"


Q = BaseField("Q")
QT = BaseField("Qt")


class FieldElement:
    """Canonical rational function n/d of t over Z (constant over Q)."""

    __slots__ = ("field", "n", "d")

    def __init__(self, field: BaseField, n, d):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

    @property
    def num(self) -> tuple[Fraction, ...]:
        """Numerator over the monic denominator, as Fractions."""
        lc = self.d[-1]
        return tuple([Fraction(c, lc) for c in self.n])

    @property
    def den(self) -> tuple[Fraction, ...]:
        """The monic denominator, as Fractions."""
        lc = self.d[-1]
        return tuple([Fraction(c, lc) for c in self.d])

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError(f"mixed fields {self.field} and {other.field}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.elem(other)
        return None

    @property
    def is_zero(self) -> bool:
        return not self.n

    @property
    def is_one(self) -> bool:
        return self.n == _UNIT and self.d == _UNIT

    def __bool__(self) -> bool:
        return bool(self.n)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d1, n2, d2 = self.n, self.d, o.n, o.d
        if not n2:
            return self
        if not n1:
            return o
        field = self.field
        if len(n1) == 1 and len(n2) == 1 and len(d1) == 1 and len(d2) == 1:
            # Two constants, as for Fractions: with g = gcd(a, b) of the
            # denominators the sum is (n1*b/g + n2*a/g) / (a/g * b), and only
            # content shared with g can cancel.
            a, b = d1[0], d2[0]
            g = gcd(a, b)
            e1, e2 = a // g, b // g
            x = n1[0] * e2 + n2[0] * e1
            if not x:
                return field.zero
            h = gcd(x, g)
            return FieldElement(field, (x // h,), (e1 * (b // h),))
        # Henrici: with g = gcd(d1, d2) and di = g*ei, the sum is
        # (n1*e2 + n2*e1) / (e1*e2*g), whose only common factor lies in g.
        # With g = 1 the sum is already canonical: canonical n1/d1 = -n2/d2
        # would force d1 = d2 = 1, and then the zero sum is ((), (1,)).
        g = _gcd(d1, d2)
        if g == _UNIT:
            return FieldElement(field, _add(_mul(n1, d2), _mul(n2, d1)), _mul(d1, d2))
        e1 = _exquo(d1, g)
        num = _add(_mul(n1, _exquo(d2, g)), _mul(n2, e1))
        if not num:
            return field.zero
        den = _mul(e1, d2)
        h = _gcd(num, g)
        if h != _UNIT:
            num, den = _exquo(num, h), _exquo(den, h)
        return FieldElement(field, num, den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, _neg(self.n), self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n1, d1, n2, d2 = self.n, self.d, o.n, o.d
        if not n1 or not n2:
            return self.field.zero
        if len(d1) == 1 and len(d2) == 1:
            # Integer denominators: only the contents of n1 and n2 can cancel
            # against them.
            y1, y2 = d1[0], d2[0]
            g1, g2 = gcd(y2, *n1), gcd(y1, *n2)
            num, g = _mul(n1, n2), g1 * g2
            if g != 1:
                num = tuple([x // g for x in num])
            return FieldElement(self.field, num, (y1 // g2 * (y2 // g1),))
        # Cross-cancel: gcd(n1, d2) and gcd(n2, d1) are all that n1*n2 and
        # d1*d2 can share.  Both gcds have positive leading coefficients, so
        # the denominator keeps one.
        if d2 != _UNIT:
            g = _gcd(n1, d2)
            if g != _UNIT:
                n1, d2 = _exquo(n1, g), _exquo(d2, g)
        if d1 != _UNIT:
            g = _gcd(n2, d1)
            if g != _UNIT:
                n2, d1 = _exquo(n2, g), _exquo(d1, g)
        return FieldElement(self.field, _mul(n1, n2), _mul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        n, d = self.n, self.d
        if not n:
            raise DivisionByZero("inverse of zero")
        if n[-1] < 0:
            return FieldElement(self.field, _neg(d), _neg(n))
        return FieldElement(self.field, d, n)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise DivisionByZero("division by zero")
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        return power(self, k) if k else self.field.one

    def derive(self) -> "FieldElement":
        """Apply the field derivation: zero on Q, d/dt on Q(t)."""
        field = self.field
        if not field.has_t:
            return field.zero
        n, d = self.n, self.d
        dn = _deriv(n)
        if len(d) == 1:
            # n'/c: only the content of n' can cancel against the integer c.
            if not dn:
                return field.zero
            c = d[0]
            h = gcd(c, *dn)
            if h != 1:
                dn, c = tuple([x // h for x in dn]), c // h
            return FieldElement(field, dn, (c,))
        # With g = gcd(d, d') and e = d/g, (n/d)' = (n'e - n d'/g) / (d e).
        # An irreducible p of multiplicity k in d has multiplicity k - 1 in
        # d' (Yun 1976), so p divides e once and divides neither n nor d'/g:
        # it divides n'e but not n d'/g, hence not the numerator.  Only
        # integer content can cancel.  The numerator is nonzero, since n/d
        # is not a constant, and lc(d) and lc(e) are positive.
        dd = _deriv(d)
        g = _gcd(d, dd)
        if g == _UNIT:
            e = d
        else:
            e, dd = _exquo(d, g), _exquo(dd, g)
        num = _sub(_mul(dn, e), _mul(n, dd))
        den = _mul(d, e)
        h = gcd(*num, *den)
        if h != 1:
            num, den = tuple([x // h for x in num]), tuple([x // h for x in den])
        return FieldElement(field, num, den)

    @property
    def is_negative_leading(self) -> bool:
        """Sign of the highest-degree numerator coefficient; display only."""
        return bool(self.n) and self.n[-1] < 0

    def as_fraction(self) -> Fraction:
        n, d = self.n, self.d
        if len(n) > 1 or len(d) > 1:
            raise ValueError("element is not a rational constant")
        return Fraction(n[0], d[0]) if n else Fraction(0)

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, FieldElement) else other
        if o is None or not isinstance(o, FieldElement):
            return NotImplemented
        return (self.field is o.field or self.field == o.field) and self.n == o.n and self.d == o.d

    def __hash__(self):
        # Equal values hash alike: a constant equals its Fraction (and the
        # int it may be), so it hashes as that Fraction over Q and Q(t).
        n, d = self.n, self.d
        if len(d) == 1 and len(n) <= 1:
            if not n:
                return 0
            return hash(n[0]) if d[0] == 1 else hash(Fraction(n[0], d[0]))
        return hash((n, d))

    def __str__(self) -> str:
        from .expr import format_element

        return format_element(self)

    def __repr__(self) -> str:
        return f"FieldElement({self.field}, {self})"
