"""Groebner bases over the exact base fields.

Buchberger's algorithm with the Gebauer-Moller pair criteria, a
selectable pair strategy, and a hard total-degree cap that aborts runaway
computations.  Resulting bases are reduced, monic, and sorted by leading
monomial, so equal ideals yield identical bases for a fixed term order.
Over Q the work runs fraction-free on primitive integer polynomials, and
only the output is made monic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, ge, le, sub
from typing import Sequence

from .errors import ArityMismatch, DegreeCapExceeded
from .field import BaseField
from .poly import Monomial, MultiPoly, grevlex_key


@dataclass(frozen=True)
class TermOrder:
    """Monomial order: grevlex or lex, after an optional variable priority.

    priority lists variable indices from most to least significant; when
    given, exponents are permuted into that significance order before the
    base comparison applies.
    """

    kind: str = "grevlex"
    priority: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("grevlex", "lex"):
            raise ValueError(f"unknown term order {self.kind!r}")
        if self.priority is not None:
            object.__setattr__(self, "priority", tuple(self.priority))
            if sorted(self.priority) != list(range(len(self.priority))):
                raise ValueError("priority must be a permutation of the variable indices")

    def _permuted(self, mono: Monomial) -> Monomial:
        if len(self.priority) != len(mono):
            raise ArityMismatch("priority permutation length differs from variable count")
        return tuple(mono[i] for i in self.priority)

    def key(self, mono: Monomial):
        if self.priority is not None:
            mono = self._permuted(mono)
        if self.kind == "lex":
            return mono
        return grevlex_key(mono)

    def reverse_key(self, mono: Monomial):
        """Ascending sort key for the descending order: the largest monomial first."""
        if self.priority is not None:
            mono = self._permuted(mono)
        if self.kind == "lex":
            return tuple([-e for e in mono])
        return (-sum(mono),) + mono[::-1]


DEFAULT_ORDER = TermOrder()


def _divides(a: Monomial, b: Monomial) -> bool:
    return all(map(le, a, b))


def _lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(max, a, b))


def _check_ring(gens: Sequence[MultiPoly], nvars: int) -> None:
    for g in gens:
        if g.nvars != nvars:
            raise ArityMismatch("generators live in different rings")
        if g.field != gens[0].field:
            raise ValueError(f"mixed fields {gens[0].field} and {g.field}")


@dataclass(frozen=True)
class IdealBasis:
    """A finite generating set inside a fixed polynomial ring."""

    nvars: int
    gens: tuple[MultiPoly, ...]

    @classmethod
    def make(cls, gens: Sequence[MultiPoly], nvars: int | None = None) -> "IdealBasis":
        gens = tuple(g for g in gens if not g.is_zero)
        if nvars is None:
            if not gens:
                raise ValueError("cannot infer the ambient ring from an empty basis")
            nvars = gens[0].nvars
        _check_ring(gens, nvars)
        return cls(nvars, gens)


@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced monic basis for a fixed term order."""

    order: TermOrder
    nvars: int
    gens: tuple[MultiPoly, ...]

    @cached_property
    def _basis(self) -> "_Basis":
        """gens, with division records that every normal form modulo them shares."""
        return _Basis(self.order, self.gens)


def _primitive(terms: dict) -> tuple[Fraction, dict]:
    """Content and primitive part of a nonzero polynomial over Q.

    terms maps monomials to elements of Q.  The part has integer
    coefficients with gcd 1, the content is a positive rational, and terms
    equals content * part term by term.
    """
    # A nonzero element of Q is the integer quotient n[0] / d[0].
    vals = list(terms.values())
    den = lcm(*[c.d[0] for c in vals])
    if den == 1:
        ints = [c.n[0] for c in vals]
    else:
        ints = [c.n[0] * (den // c.d[0]) for c in vals]
    cont = gcd(*ints)
    if cont != 1:
        ints = [c // cont for c in ints]
    return Fraction(cont, den), dict(zip(terms, ints))


def _from_rationals(field: BaseField, nvars: int, terms: dict) -> MultiPoly:
    """The polynomial over Q with these nonzero rational coefficients."""
    elem = field.elem
    return MultiPoly._of(field, nvars, {m: elem(c) for m, c in terms.items()})


class _PrimitivePoly(MultiPoly):
    """A basis element of buchberger over Q: integer coefficients of gcd 1,
    kept beside it in ints, so that each S-polynomial reads them instead of
    recomputing them."""

    __slots__ = ("ints",)

    @classmethod
    def of(cls, field: BaseField, nvars: int, ints: dict, terms=None) -> "_PrimitivePoly":
        """The polynomial with these integer terms; terms, if given, are
        the same as field elements."""
        p = cls._of(field, nvars, terms if terms is not None else
                    {m: field.elem(c) for m, c in ints.items()})
        object.__setattr__(p, "ints", ints)
        return p


def _integer_terms(p: MultiPoly) -> dict:
    """The primitive integer terms of a nonzero p over Q; p's own when p is
    a _PrimitivePoly, so not to be changed."""
    return p.ints if type(p) is _PrimitivePoly else _primitive(p.terms)[1]


def _divisor(g: MultiPoly, rkey) -> tuple:
    """What dividing by a nonzero g needs, in the order rkey sorts.

    The record is (lead monomial, its degree, lead coefficient, tail terms,
    top tail degree).  Over Q it describes g's primitive integer part, which
    divides as g does; over Q(t) it describes g, with the inverse lead
    coefficient in place of the lead coefficient.
    """
    integral = not g.field.has_t
    terms = _integer_terms(g) if integral else g.terms
    gm = min(terms, key=rkey)
    tail = [(m, c) for m, c in terms.items() if m != gm]
    top = max((sum(m) for m, _ in tail), default=0)
    return gm, sum(gm), terms[gm] if integral else terms[gm].inverse(), tail, top


class _Basis(list):
    """Polynomials to divide by, with the division record of each nonzero
    one made once, when reduce_full first reads it, instead of per call."""

    def __init__(self, order: TermOrder, gens: Sequence[MultiPoly] = ()):
        super().__init__(gens)
        self.order = order
        self._divisors: list[tuple] = []
        self._done = 0

    @property
    def divisors(self) -> list[tuple]:
        rkey = self.order.reverse_key
        for g in self[self._done :]:
            if not g.is_zero:
                self._divisors.append(_divisor(g, rkey))
        self._done = len(self)
        return self._divisors

    def select(self, indices: Sequence[int]) -> "_Basis":
        """The elements at indices, in that order, sharing their records.

        Only for a list with no zero element, where records and elements
        correspond one to one.
        """
        divisors = self.divisors
        out = _Basis(self.order, [self[j] for j in indices])
        out._divisors = [divisors[j] for j in indices]
        out._done = len(out)
        return out


def reduce_full(
    p: MultiPoly,
    gens: Sequence[MultiPoly],
    order: TermOrder = DEFAULT_ORDER,
    degree_cap: int | None = None,
) -> MultiPoly:
    """Full remainder of p under multivariate division by gens.

    The remainder's terms come in descending order, so its first term is
    the leading one.  Division runs in place on a term dict beside a heap
    of reverse order keys: the leading term is the top entry still in the
    dict (cancelled monomials stay in the heap and are skipped), and each
    monomial's key is computed once, when it enters.  DegreeCapExceeded is
    raised as soon as the working polynomial has total degree above
    degree_cap: on input, or after the step that adds such a term.

    Over Q the division is fraction-free.  The working polynomial h and the
    divisors are primitive integer polynomials, and p's remaining part is
    unit * h.  A step by a divisor with lead c_g x^m on a term c_h x^(m+s)
    of h computes h <- (c_g/g0) h - (c_h/g0) x^s g with g0 = gcd(c_g, c_h),
    then takes the content out of h when the step scaled it.  It is a
    nonzero multiple of the field step, so the same monomials cancel and
    the cap fires alike.  Over Q(t) a step subtracts (c_h/c_g) x^s g.
    """
    rkey = order.reverse_key
    field, nvars = p.field, p.nvars
    _check_ring((p, *gens), nvars)
    integral = not field.has_t
    if isinstance(gens, _Basis) and gens.order == order:
        divisors = gens.divisors
    else:
        divisors = [_divisor(g, rkey) for g in gens if not g.is_zero]
    if degree_cap is not None and p.terms and p.total_degree() > degree_cap:
        raise DegreeCapExceeded(f"intermediate degree {p.total_degree()} exceeds cap {degree_cap}")
    if integral and p.terms:
        unit, h = _primitive(p.terms)
    else:
        h = dict(p.terms)
    heap = [(rkey(m), m) for m in h]
    heapify(heap)
    remainder = {}
    while heap:
        hm = heappop(heap)[1]
        hc = h.pop(hm, None)
        if hc is None:
            continue
        for gm, gdeg, gc, tail, top in divisors:
            if all(map(ge, hm, gm)):
                break
        else:
            remainder[hm] = hc if not integral or unit == 1 else hc * unit
            continue
        shift = tuple(map(sub, hm, gm))
        # Only a term new to h can exceed the cap: the others were within it.
        lim = None if degree_cap is None else degree_cap - (sum(hm) - gdeg)
        check = lim is not None and top > lim
        if integral:
            g0 = gcd(gc, hc) if gc > 0 else -gcd(gc, hc)
            scale, nq = gc // g0, -(hc // g0)
            if scale != 1:
                for m in h:
                    h[m] *= scale
                unit /= scale
        else:
            scale, nq = 1, (-hc if gc.is_one else -(hc * gc))
        over = False
        for tm, tc in tail:
            mono = tuple(map(add, tm, shift))
            d = nq * tc
            old = h.get(mono)
            if old is None:
                h[mono] = d
                heappush(heap, (rkey(mono), mono))
                if check and sum(tm) > lim:
                    over = True
            else:
                d = old + d
                if d:
                    h[mono] = d
                else:
                    del h[mono]
        if over:
            degree = max(map(sum, h))
            raise DegreeCapExceeded(f"intermediate degree {degree} exceeds cap {degree_cap}")
        if scale != 1 and h:
            cont = gcd(*h.values())
            if cont != 1:
                for m in h:
                    h[m] //= cont
                unit *= cont
    if integral:
        return _from_rationals(field, nvars, remainder)
    return MultiPoly._of(field, nvars, remainder)


def _s_polynomial(f: MultiPoly, g: MultiPoly, order: TermOrder) -> MultiPoly:
    """S-polynomial of f and g, up to a nonzero constant factor.

    Over Q it is fraction-free.  With F and G the primitive integer parts of
    f and g, leads c_F x^a and c_G x^b, lcm x^l and g0 = gcd(c_F, c_G), it
    is (c_G/g0) x^(l-a) F - (c_F/g0) x^(l-b) G, with integer coefficients.
    Over Q(t) it is x^(l-a) f / c_f - x^(l-b) g / c_g.
    """
    fm, fc = f.lead(order.key)
    gm, gc = g.lead(order.key)
    both = _lcm(fm, gm)
    mf = tuple(map(sub, both, fm))
    mg = tuple(map(sub, both, gm))
    if f.field.has_t:
        tf = MultiPoly(f.field, f.nvars, {mf: fc.inverse()})
        tg = MultiPoly(g.field, g.nvars, {mg: gc.inverse()})
        return tf * f - tg * g
    fz = _integer_terms(f)
    gz = _integer_terms(g)
    g0 = gcd(fz[fm], gz[gm])
    kf, kg = gz[gm] // g0, fz[fm] // g0
    s = {tuple(map(add, m, mf)): kf * c for m, c in fz.items()}
    for m, c in gz.items():
        mono = tuple(map(add, m, mg))
        d = s.get(mono, 0) - kg * c
        if d:
            s[mono] = d
        else:
            del s[mono]
    return _from_rationals(f.field, f.nvars, s)


def _monic(g: MultiPoly, lead: Monomial) -> MultiPoly:
    lc = g.terms[lead]
    return g if lc.is_one else g * lc.inverse()


def _basis_element(g: MultiPoly, lead: Monomial) -> MultiPoly:
    """g as buchberger keeps it: a _PrimitivePoly over Q, monic over Q(t)."""
    if g.field.has_t:
        return _monic(g, lead)
    content, ints = _primitive(g.terms)
    return _PrimitivePoly.of(g.field, g.nvars, ints, g.terms if content == 1 else None)


def buchberger(
    gens,
    order: TermOrder = DEFAULT_ORDER,
    degree_cap: int = 40,
    strategy: str = "normal",
) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal generated by gens.

    strategy 'normal' picks the pair with the lowest lcm total degree
    (ties by age); 'fifo' processes pairs in creation order.  Pairs are
    installed by the Gebauer-Moller update (Becker & Weispfenning, Groebner
    Bases, 1993, section 5.5) as each generator and each new element r
    enters:

    - (B) a queued pair (i, j) is deleted when lead(r) divides lcm(i, j)
      and lcm(i, r) and lcm(j, r) both differ from lcm(i, j);
    - (M) a new pair (k, r) is dropped when another new pair's lcm
      properly divides its lcm;
    - (F) of the new pairs with equal lcm the oldest is kept, and none when
      one of them has coprime leads (Buchberger's first criterion);
    - every element whose lead lead(r) divides gets no new pairs.

    Every element stays a divisor.  The reduced basis does not depend on
    the strategy or on the pairs deleted; DegreeCapExceeded depends on the
    polynomials formed: the generators, the S-polynomials of the pairs
    kept, their intermediate remainders and the inserted elements.
    """
    if strategy not in ("normal", "fifo"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if not isinstance(gens, IdealBasis):
        gens = IdealBasis.make(gens)
    nvars = gens.nvars
    polys = [g for g in gens.gens if not g.is_zero]
    _check_ring(polys, nvars)
    if not polys:
        return GroebnerBasis(order, nvars, ())
    for g in polys:
        if g.total_degree() > degree_cap:
            raise DegreeCapExceeded(
                f"generator degree {g.total_degree()} exceeds cap {degree_cap}"
            )
    rkey = order.reverse_key
    fifo = strategy == "fifo"
    basis = _Basis(order)
    leads: list[Monomial] = []
    # Indices of the elements that still get new pairs, ascending.
    active: list[int] = []
    # normal: a heap of (lcm degree, i, j); fifo: (i, j) read from index head
    # on.  live maps each pair still to be reduced to its lcm: a queued pair
    # missing from it was deleted and is skipped when popped.
    queue: list[tuple] = []
    head = 0
    live: dict[tuple[int, int], Monomial] = {}

    def insert(g: MultiPoly, gm: Monomial) -> None:
        r = len(basis)
        basis.append(_basis_element(g, gm))
        leads.append(gm)
        for (i, j), m in list(live.items()):
            if _divides(gm, m) and _lcm(leads[i], gm) != m and _lcm(leads[j], gm) != m:
                del live[i, j]
        # lcm -> the oldest k whose pair (k, r) has that lcm, or None when
        # that pair's leads are coprime.  No older pair shares the lcm of a
        # coprime pair (k', r): lcm(k, r) = lead(k') lead(r) makes lead(k')
        # divide lead(k), so k' came first or k was retired.
        new: dict[Monomial, int | None] = {}
        rdeg = sum(gm)
        for k in active:
            m = _lcm(leads[k], gm)
            new.setdefault(m, None if sum(m) == sum(leads[k]) + rdeg else k)
        for m, k in new.items():
            if k is None or any(o != m and _divides(o, m) for o in new):
                continue
            live[k, r] = m
            if fifo:
                queue.append((k, r))
            else:
                heappush(queue, (sum(m), k, r))
        active[:] = [k for k in active if not _divides(gm, leads[k])]
        active.append(r)

    for g in polys:
        insert(g, min(g.terms, key=rkey))
    while head < len(queue):
        if fifo:
            i, j = queue[head]
            head += 1
        else:
            _, i, j = heappop(queue)
        if live.pop((i, j), None) is None:
            continue
        s = _s_polynomial(basis[i], basis[j], order)
        h = reduce_full(s, basis, order, degree_cap)
        if h.is_zero:
            continue
        if h.total_degree() > degree_cap:
            raise DegreeCapExceeded(
                f"basis element degree {h.total_degree()} exceeds cap {degree_cap}"
            )
        insert(h, next(iter(h.terms)))

    # Minimal basis: drop elements whose lead is divisible by another lead.
    keep = [
        i
        for i, gm in enumerate(leads)
        if not any(
            _divides(om, gm) and (om != gm or j < i)
            for j, om in enumerate(leads)
            if j != i
        )
    ]
    # Reduced basis: each element fully reduced against the others.  No other
    # lead divides gm, so the lead term of g stays that of the remainder, and
    # the remainder is made monic here, on output, the only place it is.  The
    # remainder is a plain MultiPoly even with no others to divide by.
    reduced: list[tuple[Monomial, MultiPoly]] = []
    for i in keep:
        gm, g = leads[i], basis[i]
        others = basis.select([j for j in keep if j != i])
        reduced.append((gm, _monic(reduce_full(g, others, order, degree_cap), gm)))
    reduced.sort(key=lambda lg: order.key(lg[0]))
    return GroebnerBasis(order, nvars, tuple(g for _, g in reduced))


def normal_form(p: MultiPoly, gb: GroebnerBasis, degree_cap: int | None = None) -> MultiPoly:
    if p.nvars != gb.nvars:
        raise ArityMismatch(f"polynomial in {p.nvars} variables, basis in {gb.nvars}")
    if not gb.gens:
        gb.order.key((0,) * gb.nvars)  # a priority of the wrong length raises ArityMismatch
        return p
    return reduce_full(p, gb._basis, gb.order, degree_cap)


def equal_mod_ideal(p: MultiPoly, q: MultiPoly, gb: GroebnerBasis) -> bool:
    return normal_form(p - q, gb).is_zero


def is_groebner(gens: Sequence[MultiPoly], order: TermOrder = DEFAULT_ORDER) -> bool:
    """Check Buchberger's criterion: every S-polynomial reduces to zero."""
    polys = [g for g in gens if not g.is_zero]
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = _s_polynomial(polys[i], polys[j], order)
            if not reduce_full(s, polys, order).is_zero:
                return False
    return True
