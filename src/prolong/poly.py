"""Sparse multivariate polynomials and polynomial/rational maps.

Monomials are exponent tuples of fixed length nvars.  Coefficients are
FieldElement values over Q or Q(t).  Rational map components are kept in
canonical form: numerator and denominator with gcd removed and monic
denominator (leading coefficient 1 in graded reverse lexicographic order).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from math import gcd
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


class MultiPoly:
    """Immutable sparse polynomial in nvars variables."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: BaseField, nvars: int, terms=None):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        clean: dict[Monomial, FieldElement] = {}
        if terms:
            for mono, coeff in terms.items() if isinstance(terms, dict) else terms:
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
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def _of(cls, field: BaseField, nvars: int, terms: dict) -> "MultiPoly":
        """Wrap a clean term dict as is; for results of arithmetic.

        The caller guarantees what the public constructor checks: each
        monomial is a tuple of nvars nonnegative exponents and each
        coefficient is a nonzero element of field.
        """
        p = object.__new__(cls)
        object.__setattr__(p, "field", field)
        object.__setattr__(p, "nvars", nvars)
        object.__setattr__(p, "terms", terms)
        return p

    @classmethod
    def zero(cls, field: BaseField, nvars: int) -> "MultiPoly":
        return cls._of(field, nvars, {})

    @classmethod
    def const(cls, field: BaseField, nvars: int, value) -> "MultiPoly":
        c = field.elem(value)
        return cls._of(field, nvars, {} if c.is_zero else {(0,) * nvars: c})

    @classmethod
    def var(cls, field: BaseField, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise IndexOutOfRange(f"variable index {i} out of range for {nvars} variables")
        mono = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._of(field, nvars, {mono: field.one})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_one(self) -> bool:
        c = self.terms.get((0,) * self.nvars)
        return c is not None and len(self.terms) == 1 and c.is_one

    @property
    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> FieldElement:
        if self.is_zero:
            return self.field.zero
        if not self.is_constant:
            raise ValueError("polynomial is not constant")
        return self.terms[(0,) * self.nvars]

    def _check(self, other: "MultiPoly"):
        if self.field != other.field:
            raise ValueError(f"mixed fields {self.field} and {other.field}")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} variables vs {other.nvars}")

    def _coerce_scalar(self, value):
        if isinstance(value, MultiPoly):
            return None
        if isinstance(value, (int, Fraction, FieldElement)):
            return self.field.elem(value)
        return None

    def __add__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            out = dict(self.terms)
            for mono, c in other.terms.items():
                s = out.get(mono)
                s = c if s is None else s + c
                if s.is_zero:
                    out.pop(mono, None)
                else:
                    out[mono] = s
            return MultiPoly._of(self.field, self.nvars, out)
        scal = self._coerce_scalar(other)
        if scal is None:
            return NotImplemented
        return self + MultiPoly.const(self.field, self.nvars, scal)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.field, self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, MultiPoly):
            return self + (-other)
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
            self._check(other)
            ta, tb = self.terms, other.terms
            if len(ta) > len(tb):
                ta, tb = tb, ta
            if len(ta) == 1 and len(tb) > 1 and not any(next(iter(ta))):
                # a constant factor scales the other term by term
                (k,) = ta.values()
                return MultiPoly._of(self.field, self.nvars, {m: c * k for m, c in tb.items()})
            out: dict[Monomial, FieldElement] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    mono = tuple(a + b for a, b in zip(m1, m2))
                    c = c1 * c2
                    s = out.get(mono)
                    s = c if s is None else s + c
                    if s.is_zero:
                        out.pop(mono, None)
                    else:
                        out[mono] = s
            return MultiPoly._of(self.field, self.nvars, out)
        scal = self._coerce_scalar(other)
        if scal is None:
            return NotImplemented
        if scal.is_zero:
            return MultiPoly.zero(self.field, self.nvars)
        return MultiPoly._of(self.field, self.nvars, {m: c * scal for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, k) if k else MultiPoly.const(self.field, self.nvars, 1)

    def partial(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable index {i} out of range for {self.nvars} variables")
        # x_i^e -> e x_i^(e-1) is one-to-one on the terms with e > 0
        out = {
            mono[:i] + (mono[i] - 1,) + mono[i + 1 :]: c * mono[i]
            for mono, c in self.terms.items()
            if mono[i]
        }
        return MultiPoly._of(self.field, self.nvars, out)

    def coeff_derive(self) -> "MultiPoly":
        """Apply the field derivation to every coefficient."""
        out = {}
        for m, c in self.terms.items():
            c = c.derive()
            if c:
                out[m] = c
        return MultiPoly._of(self.field, self.nvars, out)

    def total_degree(self) -> int:
        if self.is_zero:
            return -1
        return max(sum(m) for m in self.terms)

    def degree_in(self, i: int) -> int:
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable index {i} out of range for {self.nvars} variables")
        if self.is_zero:
            return -1
        return max(m[i] for m in self.terms)

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
        if any(not 0 <= j < new_nvars for j in index_map) or len(set(index_map)) != len(index_map):
            raise IndexOutOfRange("index map is not injective into the new ring")
        out = {}
        for mono, c in self.terms.items():
            m2 = [0] * new_nvars
            for i, e in enumerate(mono):
                m2[index_map[i]] = e
            out[tuple(m2)] = c
        # an injective index map keeps the monomials distinct
        return MultiPoly._of(self.field, new_nvars, out)

    def lead(self, key=grevlex_key) -> tuple[Monomial, FieldElement]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self.terms, key=key)
        return mono, self.terms[mono]

    def monic(self, key=grevlex_key) -> "MultiPoly":
        if self.is_zero:
            return self
        _, lc = self.lead(key)
        if lc.is_one:
            return self
        return self * lc.inverse()

    def sorted_terms(self, key=grevlex_key, reverse=True):
        return sorted(self.terms.items(), key=lambda kv: key(kv[0]), reverse=reverse)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            (self.field is other.field or self.field == other.field)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field.tag, self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        from .expr import format_poly

        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"MultiPoly({self.field}, {format_poly(self, names)!r})"


def evaluate_at(p: MultiPoly, values: Sequence, lift, powers: dict):
    """p at a tuple of values in one ring: field elements, polynomials or series.

    lift carries a coefficient of p into that ring; lift(zero) is the ring's
    zero.  A value None stands for 1: its variable adds no factor.  Each
    power of each value is computed once, the first time a term needs it,
    and kept in powers, which every call on the same values may share; a
    coefficient 1 is not multiplied in.
    """
    total = None
    for mono, c in p.terms.items():
        term = None
        for i, e in enumerate(mono):
            if e:
                x = powers.get((i, e))
                if x is None:
                    x = values[i]
                    if x is None:
                        continue
                    x = powers[i, e] = x if e == 1 else power(x, e)
                term = x if term is None else term * x
        if term is None:
            term = lift(c)
        elif not c.is_one:
            term = lift(c) * term
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
        terms = p.terms
        if len(terms) <= 2 and p.total_degree() <= 1:
            plans.append(None)
            continue
        # (i, deg_i) for each variable of p, deg_i taken as 0 where d_i = 1
        live = []
        bases = set()
        bound = 1
        for i, e in enumerate(map(max, zip(*terms))):
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
        for c in terms.values():
            d = c.d
            if d != _UNIT and d != lcm:
                lcm = _mul(lcm, _exquo(d, _gcd(lcm, d)))
        scaled = []
        total = 0
        for mono, c in terms.items():
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
    """Quotient p/d when d divides p exactly."""
    if d.is_zero:
        raise DivisionByZero("polynomial division by zero")
    p._check(d)
    q = MultiPoly.zero(p.field, p.nvars)
    r = p
    dm, dc = d.lead()
    while not r.is_zero:
        rm, rc = r.lead()
        if any(er < ed for er, ed in zip(rm, dm)):
            raise ValueError("polynomial division is not exact")
        mono = tuple(er - ed for er, ed in zip(rm, dm))
        term = MultiPoly(p.field, p.nvars, {mono: rc / dc})
        q = q + term
        r = r - term * d
    return q


def _rec_split(p: MultiPoly) -> dict[int, MultiPoly]:
    """View p as a univariate polynomial in variable 0 over the remaining ring."""
    out: dict[int, dict[Monomial, FieldElement]] = {}
    for mono, c in p.terms.items():
        out.setdefault(mono[0], {})[mono[1:]] = c
    return {d: MultiPoly(p.field, p.nvars - 1, t) for d, t in out.items()}


def _rec_join(field: BaseField, nvars: int, rec: dict[int, MultiPoly]) -> MultiPoly:
    terms = {}
    for d, coeff in rec.items():
        for mono, c in coeff.terms.items():
            terms[(d,) + mono] = c
    return MultiPoly(field, nvars, terms)


def _rec_content(rec: dict[int, MultiPoly]) -> MultiPoly:
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
    """Gcd normalized to leading coefficient 1 in grevlex order."""
    p._check(q)
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if len(p.terms) == 1 or len(q.terms) == 1:
        # A monomial's divisors are monomials, so the gcd is the largest
        # monomial dividing every term of both: that of least exponents.
        # This covers constants and nvars == 0, where it is 1.
        mono = tuple(map(min, *p.terms, *q.terms))
        return MultiPoly._of(p.field, p.nvars, {mono: p.field.one})
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
    over the product of the d_i^deg_k, one denominator for all of ps.
    """
    deg = [0] * len(cleared)
    for p in ps:
        if p.terms:
            top = tuple(map(max, zip(*p.terms)))
            deg = [max(d, top[i]) for d, i in zip(deg, cleared)]
    nvars = ps[0].nvars + len(cleared)

    def pad(mono):
        return mono + tuple([d - mono[i] for i, d in zip(cleared, deg)])

    return [MultiPoly._of(p.field, nvars, {pad(m): c for m, c in p.terms.items()}) for p in ps]


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
    lift = partial(MultiPoly.const, inner.field, inner.in_arity)
    powers = {}

    def value(q):
        if not cleared and len(q.terms) == 1:
            ((m, c),) = q.terms.items()
            if not any(m):
                return lift(c)
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
        for c in self.components:
            if c.field != self.field:
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
        for num, den in self.components:
            if num.field != self.field or den.field != self.field:
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
