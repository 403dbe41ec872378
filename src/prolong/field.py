"""Exact arithmetic in the differential base fields Q and Q(t).

Elements are rational functions of t with Fraction coefficients, stored
in canonical form: numerator and denominator coprime, denominator monic.
Over Q both parts are constant and the derivation is zero; over Q(t) the
derivation is d/dt extended to quotients by the quotient rule.

Univariate polynomials in t are plain tuples of Fractions, lowest degree
first, with no trailing zeros; the empty tuple is the zero polynomial.

Arithmetic keeps that form by cancelling only what the operands can share
(Henrici 1956; Knuth, TAOCP vol. 2, 4.5.1), so the elements of Q and the
t-polynomials, whose denominators are 1, add and multiply with no gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import DivisionByZero

_ZERO = Fraction(0)
_ONE = Fraction(1)
_UNIT = (_ONE,)


def _trim(cs: list) -> tuple[Fraction, ...]:
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _uadd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _uneg(a):
    return tuple(-c for c in a)


def _usub(a, b):
    return _uadd(a, _uneg(b))


def _umul(a, b):
    if not a or not b:
        return ()
    if len(b) == 1:
        a, b = b, a
    if len(a) == 1:
        c = a[0]
        return b if c == 1 else tuple(c * x for x in b)
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _udivmod(a, b):
    """Quotient and remainder of a by a monic b."""
    nb = len(b)
    if len(a) < nb:
        return (), a
    r = list(a)
    q = [_ZERO] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb - 1]
        if not c:
            continue
        q[k] = c
        for j in range(nb - 1):
            r[k + j] -= c * b[j]
    return _trim(q), _trim(r[: nb - 1])


def _umonic(a):
    if not a:
        return a
    lc = a[-1]
    if lc == 1:
        return a
    return tuple(c / lc for c in a)


def _ugcd(a, b):
    """Monic gcd; a nonzero constant on either side makes it 1 at once."""
    while b:
        if len(b) == 1:
            return _UNIT
        b = _umonic(b)
        a, b = b, _udivmod(a, b)[1]
    return _umonic(a)


def _uquo(a, b):
    """Quotient of an exact division by a monic b."""
    return _udivmod(a, b)[0]


def _uderiv(a):
    return _trim([k * a[k] for k in range(1, len(a))])


def _monic_den(num, den):
    """Scale coprime num/den so that den is monic."""
    lc = den[-1]
    if lc == 1:
        return num, den
    return tuple(c / lc for c in num), tuple(c / lc for c in den)


def _term_count(a) -> int:
    return sum(1 for c in a if c != 0)


def _fmt_upoly(a) -> str:
    if not a:
        return "0"
    parts: list[str] = []
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
        if not isinstance(value, (int, Fraction, str)):
            raise TypeError(f"field elements are exact rationals, not {type(value).__name__}")
        c = value if type(value) is Fraction else Fraction(value)
        return FieldElement(self, (c,), _UNIT) if c else self.zero

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
        return FieldElement(self, (_ZERO, _ONE), _UNIT)

    def __str__(self) -> str:
        return "Q(t)" if self.has_t else "Q"


Q = BaseField("Q")
QT = BaseField("Qt")


class FieldElement:
    """Canonical rational function of t (constant over Q).

    A denominator of length one is 1, because denominators are monic.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: BaseField, num, den):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("FieldElement is immutable")

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
        return not self.num

    @property
    def is_one(self) -> bool:
        return self.num == (_ONE,) and self.den == (_ONE,)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            return self
        if not self.num:
            return o
        field = self.field
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if len(d1) == 1 and len(d2) == 1:
            num = _uadd(n1, n2)
            return FieldElement(field, num, _UNIT) if num else field.zero
        # Henrici: with g = gcd(d1, d2) and di = g*ei, the sum is
        # (n1*e2 + n2*e1) / (e1*e2*g), whose only common factor lies in g.
        # With g = 1 the sum is already canonical, and nonzero: canonical
        # n1/d1 = -n2/d2 would force d1 = d2.
        g = _ugcd(d1, d2) if len(d1) > 1 and len(d2) > 1 else _UNIT
        if len(g) == 1:
            return FieldElement(field, _uadd(_umul(n1, d2), _umul(n2, d1)), _umul(d1, d2))
        e1 = _uquo(d1, g)
        num = _uadd(_umul(n1, _uquo(d2, g)), _umul(n2, e1))
        if not num:
            return field.zero
        den = _umul(e1, d2)
        h = _ugcd(num, g)
        if len(h) > 1:
            num = _uquo(num, h)
            den = _uquo(den, h)
        return FieldElement(field, num, den)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, _uneg(self.num), self.den)

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
        field = self.field
        if not self.num or not o.num:
            return field.zero
        n1, d1, n2, d2 = self.num, self.den, o.num, o.den
        if len(d1) == 1 and len(d2) == 1:
            return FieldElement(field, _umul(n1, n2), _UNIT)
        # Cross-cancel: gcd(n1, d2) and gcd(n2, d1) are all that n1*n2
        # and d1*d2 can share, and dividing monic by monic stays monic.
        if len(n1) > 1 and len(d2) > 1:
            g = _ugcd(n1, d2)
            if len(g) > 1:
                n1, d2 = _uquo(n1, g), _uquo(d2, g)
        if len(n2) > 1 and len(d1) > 1:
            g = _ugcd(n2, d1)
            if len(g) > 1:
                n2, d1 = _uquo(n2, g), _uquo(d1, g)
        return FieldElement(field, _umul(n1, n2), _umul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        num, den = _monic_den(self.den, self.num)
        return FieldElement(self.field, num, den)

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
        if k == 0:
            return self.field.one
        # Square-and-multiply from the low bit, with no product by one and
        # no square after the top bit: self**e costs e - 1 products for e <= 3.
        out = None
        base = self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def derive(self) -> "FieldElement":
        """Apply the field derivation: zero on Q, d/dt on Q(t)."""
        field = self.field
        if not field.has_t:
            return field.zero
        n, d = self.num, self.den
        if len(d) == 1:
            dn = _uderiv(n)
            return FieldElement(field, dn, _UNIT) if dn else field.zero
        # (n/d)' = (n'd - nd')/d^2.  The numerator is nonzero, since n/d is
        # not a constant, and d^2 over the monic gcd stays monic.
        dn = _usub(_umul(_uderiv(n), d), _umul(n, _uderiv(d)))
        dd = _umul(d, d)
        g = _ugcd(dn, dd)
        if len(g) > 1:
            dn, dd = _uquo(dn, g), _uquo(dd, g)
        return FieldElement(field, dn, dd)

    @property
    def is_negative_leading(self) -> bool:
        """Sign of the highest-degree numerator coefficient; display only."""
        return bool(self.num) and self.num[-1] < 0

    def as_fraction(self) -> Fraction:
        if len(self.num) > 1 or len(self.den) > 1:
            raise ValueError("element is not a rational constant")
        return (self.num[0] if self.num else _ZERO) / self.den[0]

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, FieldElement) else other
        if o is None or not isinstance(o, FieldElement):
            return NotImplemented
        return self.field == o.field and self.num == o.num and self.den == o.den

    def __hash__(self):
        # Equal values hash alike: a constant equals its Fraction (and the
        # int it may be), so it hashes as that Fraction over Q and Q(t).
        if len(self.den) == 1 and len(self.num) <= 1:
            return hash(self.num[0] if self.num else _ZERO)
        return hash((self.num, self.den))

    def __str__(self) -> str:
        return self.format()

    def format(self, as_factor: bool = False) -> str:
        """Render in expression syntax.

        as_factor guards the string for use inside a product: multi-term
        numerators get parentheses so operator precedence is preserved.
        """
        num_s = _fmt_upoly(self.num)
        if self.den == (_ONE,):
            if as_factor and _term_count(self.num) > 1:
                return f"({num_s})"
            return num_s
        if _term_count(self.num) > 1 or "/" in num_s:
            num_s = f"({num_s})"
        den_s = _fmt_upoly(self.den)
        if _term_count(self.den) > 1:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"

    def __repr__(self) -> str:
        return f"FieldElement({self.field}, {self})"
