"""Sparse multivariate polynomials and polynomial/rational maps.

A MultiPoly is one dict from packed monomials to coefficients, the layout
(Monagan and Pearce, "Sparse polynomial division using a heap", J. Symb.
Comp. 2011) that groebner divides in as well; see _Ring.

- Keys.  A ring of nvars variables and bits bits per exponent packs the
  exponents of a monomial into one word E, a field of bits bits per
  variable, variable 0 lowest, and keys the monomial E - deg * 2^(bits *
  nvars), deg its total degree.  Ascending keys are descending monomials
  in graded reverse lexicographic order, so the leading term has the least
  key, and the constant monomial has key 0 in every ring.
- Widths.  The key of a product of monomials is the sum of their keys.
  Every exponent of a MultiPoly is below 2^(bits - 1), so the top bit of
  each field is a guard: a product of two terms sets it exactly when an
  exponent outgrows its field.  A product that sets one is redone with both
  factors widened to twice the bits; nothing wraps silently.
- Coefficients.  Over Q a polynomial is content * P: P's coefficients are
  integers with gcd 1 and content is a positive rational, an int when it is
  one.  The product of two such P is again one (Gauss's lemma), so a product
  only multiplies the contents.  Over Q(t) the coefficients are
  FieldElements and content is 1.
- terms is a read-only view of the same polynomial with exponent tuples for
  keys and FieldElements for coefficients, built on first read and kept,
  for readers outside the package; printing sorts the packed keys.

A MultiPoly is immutable: no method changes one after it is built.
Rational map components are kept in canonical form: numerator and
denominator with gcd removed and monic denominator (leading coefficient 1
in graded reverse lexicographic order).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from struct import Struct
from types import MappingProxyType
from typing import Sequence

from .errors import (
    ArityMismatch,
    DenominatorVanishes,
    DivisionByZero,
    IdenticallyZeroDenominator,
    IndexOutOfRange,
)
from .field import _UNIT, BaseField, FieldElement, _exquo, _gcd, _mul, power

Monomial = tuple[int, ...]


def grevlex_key(mono: Monomial):
    """Ascending sort key for graded reverse lexicographic order."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


@dataclass(frozen=True)
class TermOrder:
    """Monomial order: grevlex or lex, with the first variable the most
    significant.  To rank the variables otherwise, rename them (by
    MultiPoly.embed) before computing and back after."""

    kind: str = "grevlex"

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown term order {self.kind!r}")

    def key(self, mono: Monomial):
        if self.kind == "lex":
            return mono
        return grevlex_key(mono)


DEFAULT_ORDER = TermOrder()


class _Ring:
    """Monomials in nvars variables packed into one int each, for order.

    Each variable has a field of bits bits, whose top bit is a guard bit.
    The word E of a monomial holds its exponents in those fields, the least
    significant variable in the highest field for grevlex and the most
    significant for lex.  The key is
    E - deg * 2^(bits * nvars) for grevlex and -E for lex.  So
    key(a * b) = key(a) + key(b), ascending keys are descending monomials,
    a divides b when E_b - E_a has no guard bit set, and a product whose
    word has a guard bit set has an exponent too large for the fields.

    bits is a multiple of 8, so every field is whole bytes: E is read and
    written as bytes, the fields in variable order, little-endian for
    grevlex and big-endian for lex.
    """

    __slots__ = (
        "field", "nvars", "bits", "lex", "width", "mask", "guard", "digits",
        "byteorder", "size", "pack", "unpack", "integral",
    )

    def __init__(self, field: BaseField, nvars: int, order: TermOrder, bits: int):
        self.field, self.nvars, self.bits = field, nvars, bits
        self.lex = order.kind == "lex"
        self.integral = not field.has_t
        self.width = bits * nvars
        self.mask = (1 << self.width) - 1
        self.guard = sum(1 << (bits * k + bits - 1) for k in range(nvars))
        self.digits = (1 << bits) - 1
        self.byteorder = "big" if self.lex else "little"
        self.size = self.width // 8
        fields = _fields(bits // 8, nvars, self.byteorder)
        self.pack, self.unpack = fields.pack, fields.unpack

    def key(self, mono: Monomial) -> int:
        e = int.from_bytes(self.pack(*mono), self.byteorder)
        return -e if self.lex else e - (sum(mono) << self.width)

    def word(self, key: int) -> int:
        return -key if self.lex else key & self.mask

    def mono(self, key: int) -> Monomial:
        e = -key if self.lex else key & self.mask
        return self.unpack(e.to_bytes(self.size, self.byteorder))

    def degree(self, key: int) -> int:
        """The total degree of key's monomial: the digit sum of its word,
        exact while that is below 2^bits - 1."""
        return self.word(key) % self.digits


class _WideFields:
    """Struct's pack and unpack for fields wider than 8 bytes."""

    __slots__ = ("width", "byteorder")

    def __init__(self, width: int, byteorder: str):
        self.width, self.byteorder = width, byteorder

    def pack(self, *values: int) -> bytes:
        return b"".join([v.to_bytes(self.width, self.byteorder) for v in values])

    def unpack(self, data: bytes) -> tuple[int, ...]:
        w, order = self.width, self.byteorder
        return tuple([int.from_bytes(data[i : i + w], order) for i in range(0, len(data), w)])


def _fields(width: int, count: int, byteorder: str):
    """A packer of count unsigned fields of width bytes each, the first
    field most significant for byteorder "big" and least for "little"."""
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)
    if code is None:
        return _WideFields(width, byteorder)
    return Struct(f"{'>' if byteorder == 'big' else '<'}{count}{code}")


_RINGS: dict = {}


def _ring(field: BaseField, nvars: int, bits: int = 8, order: TermOrder = DEFAULT_ORDER) -> _Ring:
    """The one _Ring for these arguments in the process.  A ring never
    changes, and _pair tells two polynomials of one ring by identity."""
    key = (field.tag, nvars, bits, order.kind)
    try:
        return _RINGS[key]
    except KeyError:
        ring = _RINGS[key] = _Ring(field, nvars, order, bits)
        return ring


def _fit(top: int, bits: int = 8) -> int:
    """The least bits, from bits doubling, whose fields hold the exponent
    top below their guard bit."""
    while top >> (bits - 1):
        bits *= 2
    return bits


def _times(a, b):
    """The product of two positive contents, an int when it is one."""
    if type(a) is int and type(b) is int:
        return a * b
    c = a * b
    return c.numerator if c.denominator == 1 else c


def _quotient(n: int, d: int):
    """The content n/d, for positive n and d."""
    g = gcd(n, d)
    return n // g if d == g else Fraction(n // g, d // g)


def _common(contents):
    """The gcd of positive contents, and each of them over it, an int."""
    if all(c == contents[0] for c in contents):
        return contents[0], [1] * len(contents)
    g = gcd(*[c.numerator for c in contents])
    den = lcm(*[c.denominator for c in contents])
    return _quotient(g, den), [c.numerator // g * (den // c.denominator) for c in contents]


_new = object.__new__


def _make(ring: _Ring, coeffs: dict, content=1) -> "MultiPoly":
    """Wrap as is: coeffs maps keys of ring to nonzero coefficients, over Q
    integers of gcd 1 and content positive.  The zero polynomial has
    content 1."""
    p = _new(MultiPoly)
    p.ring = ring
    p.field = ring.field
    p.nvars = ring.nvars
    p.coeffs = coeffs
    p.content = content if coeffs else 1
    p._view = None
    return p


def _normal(ring: _Ring, coeffs: dict, content=1) -> "MultiPoly":
    """_make, with the gcd of integer coefficients moved into content."""
    if ring.integral and coeffs:
        g = gcd(*coeffs.values())
        if g != 1:
            coeffs = {k: c // g for k, c in coeffs.items()}
            content = _times(content, g)
    return _make(ring, coeffs, content)


def _packed(field: BaseField, nvars: int, terms: dict) -> "MultiPoly":
    """The polynomial with these terms: exponent tuples of length nvars to
    nonzero elements of field."""
    ring = _ring(field, nvars, _fit(max([max(m) for m in terms if m], default=0)))
    keys = map(ring.key, terms)
    values = terms.values()
    if not ring.integral:
        return _make(ring, dict(zip(keys, values)))
    # A nonzero element of Q is the integer quotient n[0] / d[0].
    den = lcm(*[c.d[0] for c in values])
    ints = [c.n[0] * (den // c.d[0]) for c in values]
    return _normal(ring, dict(zip(keys, ints)), Fraction(1, den) if den != 1 else 1)


def _widen(p: "MultiPoly", bits: int) -> "MultiPoly":
    """p in the ring of bits bits per exponent."""
    ring = p.ring
    target = _ring(p.field, p.nvars, bits)
    mono, key = ring.mono, target.key
    return _make(target, {key(mono(k)): c for k, c in p.coeffs.items()}, p.content)


def _pair(a: "MultiPoly", b: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
    """a and b in one ring, the wider of theirs."""
    if a.ring is b.ring:
        return a, b
    a._check(b)
    if a.ring.bits < b.ring.bits:
        return _widen(a, b.ring.bits), b
    return a, _widen(b, a.ring.bits)


def _scale(p: "MultiPoly", c: FieldElement) -> "MultiPoly":
    """p times the nonzero field element c."""
    ring = p.ring
    if not ring.integral:
        return _make(ring, {k: v * c for k, v in p.coeffs.items()})
    n, d = c.n[0], c.d[0]
    coeffs = p.coeffs
    if n < 0:
        coeffs = {k: -v for k, v in coeffs.items()}
        n = -n
    return _make(ring, coeffs, _times(p.content, n if d == 1 else Fraction(n, d)))


def _sum(a: "MultiPoly", b: "MultiPoly", negate: bool) -> "MultiPoly":
    """a + b, or a - b when negate: over Q, the integer parts over their
    common content."""
    a, b = _pair(a, b)
    ta, tb = a.coeffs, b.coeffs
    if not tb:
        return a
    if not ta:
        return -b if negate else b
    content = a.content
    if content == b.content:
        sa = sb = 1
    else:
        content, (sa, sb) = _common((content, b.content))
    if negate:
        sb = -sb
    out = dict(ta) if sa == 1 else {k: sa * c for k, c in ta.items()}
    for k, c in tb.items():
        if sb != 1:
            c = -c if sb == -1 else c * sb
        s = out.get(k)
        if s is None:
            out[k] = c
        else:
            s = s + c
            if s:
                out[k] = s
            else:
                del out[k]
    return _normal(a.ring, out, content)


def _product(a: "MultiPoly", b: "MultiPoly") -> "MultiPoly":
    """a * b for polynomials in one ring, widened when an exponent outgrows
    the fields."""
    ring = a.ring
    ta, tb = a.coeffs, b.coeffs
    ca, cb = a.content, b.content
    content = ca * cb if type(ca) is int and type(cb) is int else _times(ca, cb)
    if len(ta) == 1 and 0 in ta and len(tb) > 1:
        return _by_constant(ring, tb, ta[0], content)
    if len(tb) == 1 and 0 in tb and len(ta) > 1:
        return _by_constant(ring, ta, tb[0], content)
    out = {}
    get = out.get
    for k1, c1 in ta.items():
        for k2, c2 in tb.items():
            k = k1 + k2
            c = c1 * c2
            s = get(k)
            out[k] = c if s is None else s + c
    if len(out) < len(ta) * len(tb):
        out = {k: c for k, c in out.items() if c}
    if out and (-(min(ta) >> ring.width) - (min(tb) >> ring.width)) >> (ring.bits - 1):
        guard = ring.guard
        if any(k & guard for k in out):
            bits = 2 * ring.bits
            return _product(_widen(a, bits), _widen(b, bits))
    return _make(ring, out, content)


def _by_constant(ring: _Ring, coeffs: dict, k, content) -> "MultiPoly":
    """The terms coeffs times the coefficient k of a constant, term by term."""
    if not ring.integral:
        return _make(ring, {m: c * k for m, c in coeffs.items()})
    # a constant of gcd 1 is 1 or -1
    return _make(ring, coeffs if k == 1 else {m: -c for m, c in coeffs.items()}, content)


class MultiPoly:
    """Sparse polynomial in nvars variables over field, packed (see the
    module docstring)."""

    __slots__ = ("ring", "field", "nvars", "coeffs", "content", "_view")

    def __init__(self, field: BaseField, nvars: int, terms=None):
        clean: dict[Monomial, FieldElement] = {}
        if terms:
            for mono, coeff in terms.items() if isinstance(terms, Mapping) else terms:
                c = field.elem(coeff)
                if c.is_zero:
                    continue
                mono = tuple(mono)
                if len(mono) != nvars or any(type(e) is not int or e < 0 for e in mono):
                    raise ValueError(f"bad monomial {mono} for {nvars} variables")
                prev = clean.get(mono)
                c = c if prev is None else prev + c
                if c.is_zero:
                    clean.pop(mono, None)
                else:
                    clean[mono] = c
        p = _packed(field, nvars, clean)
        self.ring, self.field, self.nvars = p.ring, p.field, p.nvars
        self.coeffs, self.content, self._view = p.coeffs, p.content, None

    @classmethod
    def zero(cls, field: BaseField, nvars: int) -> "MultiPoly":
        return _make(_ring(field, nvars), {})

    @classmethod
    def const(cls, field: BaseField, nvars: int, value) -> "MultiPoly":
        ring = _ring(field, nvars)
        if type(value) is int and ring.integral:
            n, d = value, 1
        else:
            c = field.elem(value)
            if not ring.integral:
                return _make(ring, {0: c} if c else {})
            if not c:
                return _make(ring, {})
            n, d = c.n[0], c.d[0]
        if not n:
            return _make(ring, {})
        # c = n/d in lowest terms: the constant sign(n) of content |n|/d
        return _make(ring, {0: 1 if n > 0 else -1}, abs(n) if d == 1 else Fraction(abs(n), d))

    @classmethod
    def var(cls, field: BaseField, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise IndexOutOfRange(f"variable index {i} out of range for {nvars} variables")
        ring = _ring(field, nvars)
        one = 1 if ring.integral else field.one
        return _make(ring, {(1 << (ring.bits * i)) - (1 << ring.width): one})

    @property
    def terms(self):
        """The read-only view: exponent tuples to FieldElements."""
        view = self._view
        if view is None:
            mono, elem = self.ring.mono, self._elem
            view = {mono(k): elem(c) for k, c in self.coeffs.items()}
            view = self._view = MappingProxyType(view)
        return view

    def _elem(self, c) -> FieldElement:
        """The FieldElement of the coefficient c of coeffs."""
        if not self.ring.integral:
            return c
        content = self.content
        if type(content) is int:
            return FieldElement(self.field, (c * content,), _UNIT)
        n, d = content.numerator, content.denominator
        g = gcd(c, d)
        return FieldElement(self.field, (c // g * n,), (d // g,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        coeffs = self.coeffs
        if len(coeffs) != 1 or self.content != 1:
            return False
        c = coeffs.get(0)
        return c == 1 if type(c) is int else c is not None and c.is_one

    @property
    def is_constant(self) -> bool:
        coeffs = self.coeffs
        return not coeffs or (len(coeffs) == 1 and 0 in coeffs)

    def constant_value(self) -> FieldElement:
        if self.is_zero:
            return self.field.zero
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self._elem(self.coeffs[0])

    def _check(self, other: "MultiPoly"):
        if self.field != other.field:
            raise ValueError(f"mixed fields {self.field} and {other.field}")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} variables vs {other.nvars}")

    def _coerce_scalar(self, value):
        if isinstance(value, (int, Fraction, FieldElement)):
            return self.field.elem(value)
        return None

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            return _sum(self, other, False)
        scal = self._coerce_scalar(other)
        if scal is None:
            return NotImplemented
        return _sum(self, MultiPoly.const(self.field, self.nvars, scal), False)

    __radd__ = __add__

    def __neg__(self):
        return _make(self.ring, {k: -c for k, c in self.coeffs.items()}, self.content)

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            return _sum(self, other, True)
        scal = self._coerce_scalar(other)
        if scal is None:
            return NotImplemented
        return self + (-scal)

    def __rsub__(self, other):
        scal = self._coerce_scalar(other)
        if scal is None:
            return NotImplemented
        return (-self) + scal

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return _product(*_pair(self, other))
        scal = self._coerce_scalar(other)
        if scal is None:
            return NotImplemented
        if scal.is_zero:
            return MultiPoly.zero(self.field, self.nvars)
        return _scale(self, scal)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, k) if k else MultiPoly.const(self.field, self.nvars, 1)

    def partial(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable index {i} out of range for {self.nvars} variables")
        ring = self.ring
        shift, digits = ring.bits * i, ring.digits
        # x_i^e -> e x_i^(e-1): one less in field i and in the degree
        step = (1 << ring.width) - (1 << shift)
        out = {}
        for k, c in self.coeffs.items():
            e = (k >> shift) & digits
            if e:
                out[k + step] = c * e
        return _normal(ring, out, self.content)

    def coeff_derive(self) -> "MultiPoly":
        """Apply the field derivation to every coefficient."""
        out = {}
        if not self.ring.integral:
            for k, c in self.coeffs.items():
                c = c.derive()
                if c:
                    out[k] = c
        return _make(self.ring, out)

    def total_degree(self) -> int:
        # the least key is the leading term's, of the highest degree
        return -(min(self.coeffs) >> self.ring.width) if self.coeffs else -1

    def degree_in(self, i: int) -> int:
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable index {i} out of range for {self.nvars} variables")
        if self.is_zero:
            return -1
        shift, digits = self.ring.bits * i, self.ring.digits
        return max([(k >> shift) & digits for k in self.coeffs])

    def evaluate(self, point: Sequence) -> FieldElement:
        return _at_point((self,), point, self.nvars)[0]

    def substitute(self, args: Sequence["MultiPoly"]) -> "MultiPoly":
        """Substitute args[i] for variable i; args share a common ring."""
        if len(args) != self.nvars:
            raise ArityMismatch(f"{len(args)} substitutions for {self.nvars} variables")
        if not args:
            return MultiPoly.const(self.field, 0, self.constant_value())
        target = args[0]
        for a in args:
            target._check(a)
        return evaluate_at(self, args, partial(MultiPoly.const, target.field, target.nvars), {})

    def embed(self, new_nvars: int, index_map: Sequence[int]) -> "MultiPoly":
        """Rename variable i to index_map[i] inside a ring of new_nvars variables."""
        if len(index_map) != self.nvars:
            raise ArityMismatch("index map length differs from variable count")
        if index_map and (
            min(index_map) < 0 or max(index_map) >= new_nvars or len(set(index_map)) != len(index_map)
        ):
            raise IndexOutOfRange("index map is not injective into the new ring")
        ring = self.ring
        target = _ring(self.field, new_nvars, ring.bits)
        width, mask, high = ring.width, ring.mask, target.width
        first = index_map[0] if index_map else 0
        if tuple(index_map) == tuple(range(first, first + self.nvars)):
            # a block of consecutive variables: the word moves up as a whole
            shift = ring.bits * first
            out = {((k & mask) << shift) + ((k >> width) << high): c for k, c in self.coeffs.items()}
        else:
            mono, key = ring.mono, target.key
            out = {}
            for k, c in self.coeffs.items():
                m2 = [0] * new_nvars
                for j, e in zip(index_map, mono(k)):
                    m2[j] = e
                out[key(m2)] = c
        # an injective index map keeps the monomials distinct
        return _make(target, out, self.content)

    def lead(self, key=grevlex_key) -> tuple[Monomial, FieldElement]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        if key is grevlex_key:
            k = min(self.coeffs)
            return self.ring.mono(k), self._elem(self.coeffs[k])
        terms = self.terms
        mono = max(terms, key=key)
        return mono, terms[mono]

    def monic(self, key=grevlex_key) -> "MultiPoly":
        if self.is_zero:
            return self
        _, lc = self.lead(key)
        if lc.is_one:
            return self
        return self * lc.inverse()

    def sorted_terms(self, key=grevlex_key, reverse=True):
        if key is grevlex_key and reverse:
            coeffs, mono, elem = self.coeffs, self.ring.mono, self._elem
            return [(mono(k), elem(coeffs[k])) for k in sorted(coeffs)]
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]), reverse=reverse)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.ring is not other.ring:
            if self.field != other.field or self.nvars != other.nvars:
                return False
            self, other = _pair(self, other)
        return self.content == other.content and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.tag, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        from .expr import format_poly

        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"MultiPoly({self.field}, {format_poly(self, names)!r})"


def evaluate_at(p: MultiPoly, values: Sequence, lift, powers: dict):
    """p at a tuple of values in one ring: field elements, polynomials or series.

    lift carries a coefficient of p, a field element, into that ring;
    lift(zero) is the ring's zero.  A value None stands for 1: its variable
    adds no factor.  Each power of each value is computed once, the first
    time a term needs it, and kept in powers, which every call on the same
    values may share; a coefficient 1 is not multiplied in.
    """
    mono, elem = p.ring.mono, p._elem
    # over Q the coefficient c * content is 1 where c is content's denominator
    one = p.content.denominator if p.content.numerator == 1 else None
    integral = p.ring.integral
    total = None
    for k, c in p.coeffs.items():
        term = None
        if k:
            for i, e in enumerate(mono(k)):
                if e:
                    x = powers.get((i, e))
                    if x is None:
                        x = values[i]
                        if x is None:
                            continue
                        x = powers[i, e] = x if e == 1 else power(x, e)
                    term = x if term is None else term * x
        if term is None:
            term = lift(elem(c))
        elif not (c == one if integral else c.is_one):
            term = lift(elem(c)) * term
        total = term if total is None else total + term
    return lift(p.field.zero) if total is None else total


def _at_point(polys: Sequence[MultiPoly], point: Sequence, nvars: int) -> list[FieldElement]:
    """Each of polys, all in nvars variables over one ring, at one point of
    its field.

    Where every value has a constant denominator this is evaluate_at over
    field elements.  Where some value has a denominator of positive degree
    in t, each field product and sum of that loop would run a gcd in Z[t];
    polys are instead evaluated over common denominators by
    _over_common_denominator, in integers at t = 2^B for one B chosen for
    all of polys, so that they share the powers of the point.
    """
    if len(point) != nvars:
        raise ArityMismatch(f"point of length {len(point)} for {nvars} variables")
    if not polys:
        return []
    field = polys[0].field
    values = [field.elem(v) for v in point]
    if all(len(v.d) == 1 for v in values):
        powers = {}
        return [evaluate_at(q, values, field.elem, powers) for q in polys]
    return _over_common_denominator(polys, values)


def _pack(a, bits: int) -> int:
    """a in Z[t] at t = 2^bits."""
    v = 0
    for c in reversed(a):
        v = (v << bits) + c
    return v


def _unpack(v: int, bits: int) -> tuple[int, ...]:
    """The a in Z[t] with _pack(a, bits) = v, where each |a_k| < 2^(bits - 1).

    The coefficients are v's signed digits in base 2^bits, lowest first: a
    low digit of 2^(bits - 1) or more stands for itself less 2^bits, with a
    carry of 1 into the rest.  The top digit read is nonzero.
    """
    out = []
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    while v:
        c = v & mask
        v >>= bits
        if c >= half:
            c -= mask + 1
            v += 1
        out.append(c)
    return tuple(out)


def _over_common_denominator(polys: Sequence[MultiPoly], values) -> list[FieldElement]:
    """Each of polys at values x_i = n_i/d_i, as N/D with one cancellation.

    With L the lcm of p's coefficient denominators and deg_i the degree of
    p in x_i, D = L * prod d_i^deg_i over the d_i other than 1, and N is
    L*p made homogeneous as _homogeneous does: a term c*x^m contributes
    c' * prod n_i^m_i * d_i^(deg_i - m_i), with c' = c*L in Z[t].  N and D
    are computed in Z at t = 2^B, where t -> 2^B is a ring homomorphism, and
    read back as signed base-2^B digits.  As ||ab||_inf <= ||a||_1 ||b||_1,
    no coefficient of N or D exceeds max(S, ||L||_1) * prod M_i^deg_i in
    absolute value, with S the sum of the ||c'||_1 and M_i =
    max(||n_i||_1, ||d_i||_1) (at least 1, as d_i is not 0).  B, one more
    bit than the largest such bound over polys, keeps every coefficient
    below 2^(B-1), so the read-back is exact; one B lets every polynomial
    share powers[i, e], n_i^e at 2^B, and powers[~i, e], d_i^e at 2^B.

    An irreducible factor of positive degree shared by N and D divides L or
    some d_i, so unless one of those shares one with N only integer content
    can cancel, and gcd(N, D) does not run.

    evaluate_at over field elements takes a polynomial in no x_i whose d_i
    has positive degree, and one of at most two terms and degree at most 1:
    its one product and one sum over field elements cost less than the
    set-up here and the gcd of N with each d_i.
    """
    field = polys[0].field
    norms = [max(sum(map(abs, v.n)), sum(map(abs, v.d))) for v in values]
    plans = []
    top_bound = 0
    for p in polys:
        # over Q(t), where a denominator has positive degree, the
        # coefficients are field elements
        coeffs = p.coeffs
        if len(coeffs) <= 2 and p.total_degree() <= 1:
            plans.append(None)
            continue
        monos = list(map(p.ring.mono, coeffs))
        # (i, deg_i) for each variable of p, deg_i taken as 0 where d_i = 1
        live = []
        bases = set()
        bound = 1
        for i, e in enumerate(map(max, zip(*monos))):
            if e:
                bound *= norms[i] ** e
                d = values[i].d
                if d == _UNIT:
                    e = 0
                elif len(d) > 1:
                    bases.add(d)
                live.append((i, e))
        if not bases:
            plans.append(None)
            continue
        lcm = _UNIT
        for c in coeffs.values():
            d = c.d
            if d != _UNIT and d != lcm:
                lcm = _mul(lcm, _exquo(d, _gcd(lcm, d)))
        scaled = []
        total = 0
        for mono, c in zip(monos, coeffs.values()):
            n = c.n if c.d == lcm else _mul(c.n, _exquo(lcm, c.d))
            total += sum(map(abs, n))
            scaled.append((mono, n))
        bound *= max(total, sum(map(abs, lcm)))
        top_bound = max(top_bound, bound)
        plans.append((live, bases, lcm, scaled))
    bits = top_bound.bit_length() + 1
    powers = {}

    def raised(i, e):
        x = powers.get((i, e))
        if x is None:
            x = powers.get((i, 1))
            if x is None:
                x = powers[i, 1] = _pack(values[i].n if i >= 0 else values[~i].d, bits)
            if e > 1 and x != 1:
                x = powers[i, e] = power(x, e)
        return x

    out = []
    for p, plan in zip(polys, plans):
        if plan is None:
            out.append(evaluate_at(p, values, field.elem, {}))
            continue
        live, bases, lcm, scaled = plan
        acc = 0
        for mono, c in scaled:
            x = _pack(c, bits)
            for i, top in live:
                m = mono[i]
                if m:
                    x *= powers.get((i, m)) or raised(i, m)
                if top > m:
                    x *= powers.get((~i, top - m)) or raised(~i, top - m)
            acc += x
        if not acc:
            out.append(field.zero)
            continue
        num = _unpack(acc, bits)
        den = _pack(lcm, bits)
        for i, top in live:
            if top:
                den *= raised(~i, top)
        den = _unpack(den, bits)
        if len(lcm) > 1:
            bases.add(lcm)
        if any(len(_gcd(num, b)) > 1 for b in bases):
            g = _gcd(num, den)
        else:
            g = (gcd(*num, *den),)
        if g != _UNIT:
            num, den = _exquo(num, g), _exquo(den, g)
        out.append(FieldElement(field, num, den))
    return out


def exact_div(p: MultiPoly, d: MultiPoly) -> MultiPoly:
    """Quotient p/d when d divides p exactly, by division on the packed keys.

    Over Q the integer parts divide exactly in Z: if d divides p, their
    primitive parts differ by a primitive integer factor (Gauss's lemma).
    Every term of the quotient times a term of d has exponents at most p's,
    so a product key with a guard bit set shows the division inexact.
    """
    if d.is_zero:
        raise DivisionByZero("polynomial division by zero")
    p, d = _pair(p, d)
    ring = p.ring
    mask, guard = ring.mask, ring.guard
    dk = min(d.coeffs)
    dc = d.coeffs[dk]
    dw = dk & mask
    tail = [(k - dk, c) for k, c in d.coeffs.items() if k != dk]
    if not ring.integral:
        inv = dc.inverse()
    r = dict(p.coeffs)
    heap = list(r)
    heapify(heap)
    q = {}
    while heap:
        k = heappop(heap)
        c = r.pop(k, None)
        if c is None:
            continue
        if ((k & mask) - dw) & guard:
            raise ValueError("polynomial division is not exact")
        if ring.integral:
            c, rest = divmod(c, dc)
            if rest:
                raise ValueError("polynomial division is not exact")
        else:
            c = c * inv
        q[k - dk] = c
        for tk, tc in tail:
            tk += k
            s = r.get(tk)
            if s is None:
                if tk & guard:
                    raise ValueError("polynomial division is not exact")
                r[tk] = -c * tc
                heappush(heap, tk)
            else:
                s = s - c * tc
                if s:
                    r[tk] = s
                else:
                    del r[tk]
    a, b = p.content, d.content
    content = _quotient(a.numerator * b.denominator, a.denominator * b.numerator)
    return _make(ring, q, content)


def _rec_split(p: MultiPoly) -> dict[int, MultiPoly]:
    """View p as a univariate polynomial in variable 0 over the remaining ring."""
    ring = p.ring
    bits, mask, width, digits = ring.bits, ring.mask, ring.width, ring.digits
    sub = _ring(p.field, p.nvars - 1, bits)
    high = sub.width
    out: dict[int, dict] = {}
    for k, c in p.coeffs.items():
        word, deg = k & mask, -(k >> width)
        e = word & digits
        out.setdefault(e, {})[(word >> bits) - ((deg - e) << high)] = c
    return {e: _normal(sub, t, p.content) for e, t in out.items()}


def _rec_join(field: BaseField, nvars: int, rec: dict[int, MultiPoly]) -> MultiPoly:
    """The polynomial sum of x_0^e * rec[e], rec[e] in the variables after x_0."""
    bits = _fit(max(rec), max(c.ring.bits for c in rec.values()))
    ring = _ring(field, nvars, bits)
    width = ring.width
    content, scales = _common([c.content for c in rec.values()])
    terms = {}
    for (e, c), s in zip(rec.items(), scales):
        if c.ring.bits != bits:
            c = _widen(c, bits)
        sub = c.ring
        for k, v in c.coeffs.items():
            deg = -(k >> sub.width)
            terms[((k & sub.mask) << bits) + e - ((deg + e) << width)] = v if s == 1 else v * s
    return _normal(ring, terms, content)


def _rec_content(rec: dict[int, MultiPoly]) -> MultiPoly:
    """The gcd of rec's coefficients; in one variable, where they are
    constants, the leading one, so that the primitive part is monic."""
    if not next(iter(rec.values())).nvars:
        return rec[max(rec)]
    g = None
    for coeff in rec.values():
        g = coeff if g is None else poly_gcd(g, coeff)
    return g


def _rec_primitive(rec: dict[int, MultiPoly], content: MultiPoly) -> dict[int, MultiPoly]:
    return {d: exact_div(c, content) for d, c in rec.items()}


def _rec_prem(A: dict[int, MultiPoly], B: dict[int, MultiPoly]) -> dict[int, MultiPoly]:
    """Pseudo-remainder of A by B in the main variable, up to content."""
    degB = max(B)
    lb = B[degB]
    R = dict(A)
    while R:
        degR = max(R)
        if degR < degB:
            break
        lr = R[degR]
        shifted: dict[int, MultiPoly] = {}
        for d, c in R.items():
            shifted[d] = c * lb
        for d, c in B.items():
            nd = d + degR - degB
            prev = shifted.get(nd)
            val = lr * c
            shifted[nd] = (prev - val) if prev is not None else -val
        R = {d: c for d, c in shifted.items() if not c.is_zero}
    return R


def poly_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Gcd normalized to leading coefficient 1 in grevlex order.

    In one variable the coefficients are constants, so each polynomial of
    the remainder sequence is made monic (_rec_content): over Q(t) a
    pseudo-remainder sequence that divides out no content grows without
    bound.
    """
    p._check(q)
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if len(p.coeffs) == 1 or len(q.coeffs) == 1:
        # A monomial's divisors are monomials, so the gcd is the largest
        # monomial dividing every term of both: that of least exponents.
        # This covers constants and nvars == 0, where it is 1.
        p, q = _pair(p, q)
        ring = p.ring
        monos = [*map(ring.mono, p.coeffs), *map(ring.mono, q.coeffs)]
        one = 1 if ring.integral else p.field.one
        return _make(ring, {ring.key(tuple(map(min, zip(*monos)))): one})
    A = _rec_split(p)
    B = _rec_split(q)
    ca = _rec_content(A)
    cb = _rec_content(B)
    A = _rec_primitive(A, ca)
    B = _rec_primitive(B, cb)
    while B:
        R = _rec_prem(A, B)
        A = B
        if R:
            content = _rec_content(R)
            B = _rec_primitive(R, content)
        else:
            B = {}
    cont = poly_gcd(ca, cb)
    main = _rec_join(p.field, p.nvars, A)
    result = main * cont.embed(p.nvars, list(range(1, p.nvars)))
    return result.monic()


def reduce_fraction(num: MultiPoly, den: MultiPoly) -> tuple[MultiPoly, MultiPoly]:
    """Canonical form of num/den: coprime parts, monic denominator."""
    num._check(den)
    if den.is_one:
        return num, den
    if den.is_zero:
        raise IdenticallyZeroDenominator("denominator is the zero polynomial")
    if num.is_zero:
        return num, MultiPoly.const(num.field, num.nvars, 1)
    if den.is_constant:
        c = den.constant_value()
        if c.is_one:
            return num, den
        return num * c.inverse(), MultiPoly.const(num.field, num.nvars, 1)
    g = poly_gcd(num, den)
    if not g.is_one:
        num = exact_div(num, g)
        den = exact_div(den, g)
    _, lc = den.lead()
    if not lc.is_one:
        inv = lc.inverse()
        num = num * inv
        den = den * inv
    return num, den


def _homogeneous(ps: Sequence[MultiPoly], cleared: Sequence[int]) -> list[MultiPoly]:
    """ps made homogeneous to one degree vector over the variables in cleared.

    deg_k is the largest degree of ps in x_i, i = cleared[k], and a term
    c*x^m of each p gains the factor y_k^(deg_k - m_i), y_k a new variable
    after p's own.  Each p at x_i = n_i/d_i is then its value at (n, d)
    over the product of the d_i^deg_k, one denominator for all of ps.  No
    new exponent exceeds an old one, so the widest of ps's fields hold them.
    """
    monos = [list(map(p.ring.mono, p.coeffs)) for p in ps]
    top = list(map(max, zip(*[m for ms in monos for m in ms])))
    deg = [top[i] for i in cleared] if top else [0] * len(cleared)
    ring = _ring(ps[0].field, ps[0].nvars + len(cleared), max(p.ring.bits for p in ps))
    key = ring.key
    out = []
    for p, ms in zip(ps, monos):
        pads = (tuple([d - m[i] for i, d in zip(cleared, deg)]) for m in ms)
        terms = dict(zip(map(key, map(tuple.__add__, ms, pads)), p.coeffs.values()))
        out.append(_make(ring, terms, p.content))
    return out


def _substitute(pairs, inner: "RationalMap", arity: int) -> tuple:
    """Each p/q of pairs at the map inner, as the unreduced pair (N_p, N_q).

    p and q, in arity variables (given, as pairs may be empty), are made
    homogeneous to one degree vector over the variables whose inner
    denominator is not 1, so their cleared denominators are equal and
    cancel; for q = 1, N_q is that cleared denominator.  After a polynomial
    inner map the vector is empty and this is plain substitution, where a
    constant q is N_q as it is.  One power cache serves every pair, and a
    value 1 adds no factor.
    """
    if inner.out_arity != arity:
        raise ArityMismatch(f"inner map produces {inner.out_arity} values, outer expects {arity}")
    values, cleared = inner._substitution
    ring = _ring(inner.field, inner.in_arity)
    lift = partial(MultiPoly.const, inner.field, inner.in_arity)
    powers = {}

    def value(q):
        if not cleared and q.coeffs and q.is_constant:
            # the constant monomial has key 0 in every ring
            return _make(ring, q.coeffs, q.content)
        return evaluate_at(q, values, lift, powers)

    if cleared:
        pairs = (_homogeneous(pair, cleared) for pair in pairs)
    out = tuple((evaluate_at(p, values, lift, powers), value(q)) for p, q in pairs)
    if any(den.is_zero for _, den in out):
        raise IdenticallyZeroDenominator("denominator vanishes identically after composition")
    return out


def _equal_pairs(lhs, rhs) -> bool:
    """Whether the pairs (n, d) of lhs and rhs are equal fractions, place by
    place: the numerators over equal denominators, else by cross
    multiplication.  Neither side need be reduced."""
    return all(
        n1 == n2 if d1 == d2 else (n1 * d2 - n2 * d1).is_zero
        for (n1, d1), (n2, d2) in zip(lhs, rhs)
    )


@dataclass(frozen=True)
class PolyMap:
    """Polynomial map K^in_arity -> K^out_arity, one MultiPoly per output."""

    field: BaseField
    in_arity: int
    components: tuple[MultiPoly, ...]

    def __post_init__(self):
        field = self.field
        for c in self.components:
            if c.field is not field and c.field != field:
                raise ValueError("component field differs from map field")
            if c.nvars != self.in_arity:
                raise ArityMismatch(f"component in {c.nvars} variables, expected {self.in_arity}")

    @property
    def out_arity(self) -> int:
        return len(self.components)

    @classmethod
    def identity(cls, field: BaseField, n: int) -> "PolyMap":
        return cls(field, n, tuple(MultiPoly.var(field, n, i) for i in range(n)))

    def evaluate(self, point: Sequence) -> tuple[FieldElement, ...]:
        return tuple(_at_point(self.components, point, self.in_arity))

    def compose(self, inner: "PolyMap | RationalMap") -> "PolyMap | RationalMap":
        """self after inner: a PolyMap after a PolyMap, else a RationalMap."""
        if isinstance(inner, RationalMap):
            return self.as_rational().compose(inner)
        if inner.out_arity != self.in_arity:
            raise ArityMismatch(
                f"inner map produces {inner.out_arity} values, outer expects {self.in_arity}"
            )
        values = [None if c.is_one else c for c in inner.components]
        lift = partial(MultiPoly.const, inner.field, inner.in_arity)
        powers = {}
        comps = tuple(evaluate_at(c, values, lift, powers) for c in self.components)
        return PolyMap(self.field, inner.in_arity, comps)

    def jacobian(self) -> tuple[tuple[MultiPoly, ...], ...]:
        """Row i holds the partials of component i."""
        return tuple(
            tuple(c.partial(j) for j in range(self.in_arity)) for c in self.components
        )

    def coeff_derive(self) -> "PolyMap":
        return PolyMap(self.field, self.in_arity, tuple(c.coeff_derive() for c in self.components))

    def permute_inputs(self, new_index_of_old: Sequence[int]) -> "PolyMap":
        return self.embed_inputs(self.in_arity, new_index_of_old)

    def embed_inputs(self, new_arity: int, index_map: Sequence[int]) -> "PolyMap":
        """View the map as a function of a larger variable tuple."""
        comps = tuple(c.embed(new_arity, index_map) for c in self.components)
        return PolyMap(self.field, new_arity, comps)

    def as_rational(self) -> "RationalMap":
        one = MultiPoly.const(self.field, self.in_arity, 1)
        # a polynomial over 1 is canonical
        return RationalMap._of(self.field, self.in_arity, tuple((c, one) for c in self.components))


@dataclass(frozen=True)
class RationalMap:
    """Rational map with canonical (numerator, denominator) components."""

    field: BaseField
    in_arity: int
    components: tuple[tuple[MultiPoly, MultiPoly], ...]

    def __post_init__(self):
        canon = []
        field = self.field
        for num, den in self.components:
            if num.field is not field and num.field != field or den.field is not field and den.field != field:
                raise ValueError("component field differs from map field")
            if num.nvars != self.in_arity or den.nvars != self.in_arity:
                raise ArityMismatch("component arity differs from map arity")
            canon.append(reduce_fraction(num, den))
        object.__setattr__(self, "components", tuple(canon))

    @classmethod
    def _of(cls, field: BaseField, in_arity: int, components: tuple) -> "RationalMap":
        """Wrap components as is; the caller guarantees what __post_init__
        establishes: canonical pairs over field in in_arity variables."""
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "in_arity", in_arity)
        object.__setattr__(m, "components", components)
        return m

    @property
    def out_arity(self) -> int:
        return len(self.components)

    @cached_property
    def _substitution(self) -> tuple[tuple, tuple[int, ...]]:
        """What _substitute puts in for the variables of an outer map, from
        one scan of the components: the values (each numerator, None for 1,
        then each denominator that is not 1) and the indices of those
        denominators."""
        values, cleared, dens = [], [], []
        for i, (n, d) in enumerate(self.components):
            values.append(None if n.is_one else n)
            if not d.is_one:
                cleared.append(i)
                dens.append(d)
        return tuple(values + dens), tuple(cleared)

    @classmethod
    def identity(cls, field: BaseField, n: int) -> "RationalMap":
        return PolyMap.identity(field, n).as_rational()

    @classmethod
    def coerce(cls, m) -> "RationalMap":
        return m.as_rational() if isinstance(m, PolyMap) else m

    def as_rational(self) -> "RationalMap":
        return self

    def is_polynomial(self) -> bool:
        return all(den.is_constant for _, den in self.components)

    def as_polymap(self) -> PolyMap:
        """The numerators: a constant canonical denominator is 1."""
        if not self.is_polynomial():
            raise ValueError("map has nonconstant denominators")
        return PolyMap(self.field, self.in_arity, tuple(num for num, _ in self.components))

    def evaluate(self, point: Sequence) -> tuple[FieldElement, ...]:
        values = _at_point([q for pair in self.components for q in pair], point, self.in_arity)
        out = []
        for nv, dv in zip(values[::2], values[1::2]):
            if dv.is_zero:
                raise DenominatorVanishes("denominator vanishes at the point")
            out.append(nv if dv.is_one else nv / dv)
        return tuple(out)

    def compose(self, inner) -> "RationalMap":
        """self after inner, each component substituted by _substitute."""
        inner = RationalMap.coerce(inner)
        comps = _substitute(self.components, inner, self.in_arity)
        return RationalMap(self.field, inner.in_arity, comps)

    def permute_inputs(self, new_index_of_old: Sequence[int]) -> "RationalMap":
        return self.embed_inputs(self.in_arity, new_index_of_old)

    def embed_inputs(self, new_arity: int, index_map: Sequence[int]) -> "RationalMap":
        """View the map as a function of a larger variable tuple."""
        comps = tuple(
            (n.embed(new_arity, index_map), d.embed(new_arity, index_map))
            for n, d in self.components
        )
        return RationalMap(self.field, new_arity, comps)

    def equiv(self, other: "RationalMap") -> bool:
        """Equality as maps, by _equal_pairs; maps over different fields or
        of different arities are not equal."""
        other = RationalMap.coerce(other)
        if self.field != other.field or self.in_arity != other.in_arity:
            return False
        if self.out_arity != other.out_arity:
            return False
        return _equal_pairs(self.components, other.components)


def map_product(f, g):
    """Block product: (f x g)(x, y) = (f(x), g(y))."""
    fr = RationalMap.coerce(f)
    gr = RationalMap.coerce(g)
    if fr.field != gr.field:
        raise ValueError("mixed fields in product")
    n = fr.in_arity + gr.in_arity
    left = list(range(fr.in_arity))
    right = list(range(fr.in_arity, n))
    comps = [(num.embed(n, left), den.embed(n, left)) for num, den in fr.components]
    comps += [(num.embed(n, right), den.embed(n, right)) for num, den in gr.components]
    # an order-preserving embedding keeps the gcd and the grevlex lead
    out = RationalMap._of(fr.field, n, tuple(comps))
    if isinstance(f, PolyMap) and isinstance(g, PolyMap):
        return out.as_polymap()
    return out
