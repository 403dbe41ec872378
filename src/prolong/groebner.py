"""Groebner bases over the exact base fields.

Buchberger's algorithm with the Gebauer-Moller pair criteria, a
selectable pair strategy, and a hard total-degree cap that aborts runaway
computations.  Resulting bases are reduced, monic, and sorted by leading
monomial, so equal ideals yield identical bases for a fixed term order.

Division and Buchberger's loop run on one internal form, _Packed: a dict
from packed monomials, each one int (_Ring) read and written as bytes, to
coefficients, which are primitive integers over Q and field elements over
Q(t).  Every basis element, S-polynomial and remainder of buchberger stays
in that form from input to output.  MultiPolys are built only at the edges:
the output basis, and the results of reduce_full and normal_form.  Over Q
the work is fraction-free: a division takes the content of its working
polynomial only once the coefficients have grown (CONTENT_BITS), and only
the output is made monic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import le
from struct import Struct
from typing import Sequence

from .errors import ArityMismatch, DegreeCapExceeded
from .field import _UNIT, BaseField, FieldElement
from .poly import Monomial, MultiPoly, grevlex_key


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
    def _divisors(self) -> "_Divisors":
        """gens, with the packed form that every normal form modulo them shares."""
        return _Divisors(self.gens)


# _divide takes the content of its working polynomial once the scales of
# its steps have more than this many bits in all.  Chosen by measurement
# (2-core x86 VM, Python 3.11): buchberger on katsura-7 under grevlex took
# 1180, 1023, 910, 882 and 867 ms at 64, 256, 512, 1024 and 2048 bits, and
# the ideal-gb benchmark ops did not move between 64 and 4096.
CONTENT_BITS = 1024


class _Overflow(Exception):
    """An exponent outgrew its field of the packing; the call is redone at
    twice the bits."""


def _bits(degree: int) -> int:
    """Bits per variable for monomials and caps of total degree up to degree.

    An exponent below 2^(bits - 2) leaves room for the product of two, and
    three times such a degree is below 2^bits - 1, where the digit sum of
    _Ring.degree stays exact.
    """
    bits = 8
    while degree >= 1 << (bits - 2):
        bits *= 2
    return bits


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

    bits is a multiple of 8 (_bits), so every field is whole bytes: E is
    read and written as bytes, the fields in variable order, little-endian
    for grevlex and big-endian for lex.
    """

    __slots__ = (
        "field", "nvars", "bits", "lex", "width", "mask", "guard", "digits",
        "byteorder", "size", "pack", "unpack",
    )

    def __init__(self, field: BaseField, nvars: int, order: TermOrder, bits: int):
        self.field, self.nvars, self.bits = field, nvars, bits
        self.lex = order.kind == "lex"
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


class _Packed:
    """A polynomial in the internal form: terms maps keys of ring to nonzero
    coefficients, integers over Q and field elements over Q(t).

    A basis element (made by _element) also carries its lead monomial and
    its division record, made once: (lead word, lead key, lead coefficient,
    tail, reach).  The tail lists (k - lead key, c) for the other terms, so
    the term's multiple by the quotient of a monomial of key hk by the lead
    has key hk + k - lead key.  reach is how far the degree of the tail goes
    above the lead's.  Over Q(t), where divisors are monic, the lead
    coefficient in the record is None.
    """

    __slots__ = ("ring", "terms", "lead", "record")

    def __init__(self, ring: _Ring, terms: dict):
        self.ring = ring
        self.terms = terms
        self.lead = self.record = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        ring = self.ring
        if ring.lex:
            return max(map(ring.degree, self.terms))
        return -(min(self.terms) >> ring.width)

    def poly(self) -> MultiPoly:
        """The MultiPoly with these terms."""
        return _unpack(self.ring, self.terms)


def _pack(ring: _Ring, p: MultiPoly) -> tuple[dict, Fraction | None]:
    """p's terms keyed by ring.  Over Q they are the primitive integer part
    of p, given with p's content; over Q(t) they are p's own, with None."""
    key = ring.key
    if ring.field.has_t:
        return {key(m): c for m, c in p.terms.items()}, None
    # A nonzero element of Q is the integer quotient n[0] / d[0].
    vals = p.terms.values()
    den = lcm(*[c.d[0] for c in vals])
    if den == 1:
        ints = [c.n[0] for c in vals]
    else:
        ints = [c.n[0] * (den // c.d[0]) for c in vals]
    cont = gcd(*ints)
    if cont != 1:
        ints = [c // cont for c in ints]
    return dict(zip(map(key, p.terms), ints)), Fraction(cont, den)


def _unpack(ring: _Ring, terms: dict, num: int = 1, den: int = 1) -> MultiPoly:
    """The MultiPoly with these terms, times num/den over Q."""
    field, mono = ring.field, ring.mono
    if field.has_t or (num == 1 and den == 1):
        elem = field.elem
        return MultiPoly._of(field, ring.nvars, {mono(k): elem(c) for k, c in terms.items()})
    out = {}
    for k, c in terms.items():
        n, d = c * num, den
        g = gcd(n, d)
        if d < 0:
            g = -g
        if g != 1:
            n, d = n // g, d // g
        out[mono(k)] = FieldElement(field, (n,), _UNIT if d == 1 else (d,))
    return MultiPoly._of(field, ring.nvars, out)


def _element(ring: _Ring, terms: dict) -> _Packed:
    """A divisor with these terms, primitive over Q, with its lead and
    record; over Q(t) it is made monic."""
    gk = min(terms)
    gc = terms[gk]
    if ring.field.has_t:
        if not gc.is_one:
            inv = gc.inverse()
            terms = {k: c * inv for k, c in terms.items()}
        gc = None
    g = _Packed(ring, terms)
    g.lead = ring.mono(gk)
    tail = [(k - gk, c) for k, c in terms.items() if k != gk]
    # Under grevlex no term has a higher degree than the lead.
    reach = max(map(ring.degree, terms)) - ring.degree(gk) if ring.lex else 0
    g.record = (ring.word(gk), gk, gc, tail, reach)
    return g


class _Basis(list):
    """Divisors (_Packed, each made by _element), beside their records."""

    def __init__(self, elements: Sequence[_Packed] = ()):
        super().__init__(elements)
        self.records = [g.record for g in self]

    def append(self, g: _Packed) -> None:
        super().append(g)
        self.records.append(g.record)


class _Divisors(list):
    """MultiPolys to divide by, with their packing and _Basis made once per
    order and bits."""

    def __init__(self, gens: Sequence[MultiPoly]):
        super().__init__(gens)
        self.nonzero = [g for g in self if not g.is_zero]
        self.degree = max([g.total_degree() for g in self.nonzero], default=0)
        self.packed: dict[tuple[TermOrder, int], tuple[_Ring, _Basis]] = {}

    def at(self, field: BaseField, nvars: int, order: TermOrder, bits: int):
        """The ring and the _Basis of the nonzero elements in it."""
        packed = self.packed.get((order, bits))
        if packed is None:
            ring = _Ring(field, nvars, order, bits)
            basis = _Basis([_element(ring, _pack(ring, g)[0]) for g in self.nonzero])
            packed = self.packed[order, bits] = ring, basis
        return packed


def _divide(ring: _Ring, h: dict, records: list, degree_cap: int | None, unit):
    """Fully reduce the polynomial with terms h, which is consumed, by records.

    Returns the remainder's terms, in ascending key order so the leading
    one first, and a factor.  The leading term of h is the top entry of a
    heap of keys still in h (cancelled keys stay in the heap and are
    skipped).  DegreeCapExceeded is raised before a step that would give h
    a total degree above degree_cap; the working polynomial is then within
    the cap, so a step makes no exponent too large for the fields.  With
    no cap, _Overflow is raised when one does.

    Over Q the division is fraction-free.  h and the remainder r hold
    integers, and the polynomial divided is u * (h + r) minus a combination
    of the divisors, for a factor u that starts at unit.  A step by a
    divisor with lead c_g x^m on a term c_h x^(m+s) of h computes
    h <- (c_g/g0) h - (c_h/g0) x^s g with g0 = gcd(c_g, c_h), scaling r
    alike and dividing u by the scale c_g/g0.  It is a nonzero multiple of
    the field step, so the same monomials cancel and the cap fires alike.
    The content of h and r is taken out, into u, only once the scales since
    it was last taken have more than CONTENT_BITS bits in all, and r's once
    more at the end (Becker & Weispfenning, Groebner Bases, 1993, on
    fraction-free reduction).  Every scale and content is positive, so this
    changes no remainder: it is returned primitive, with the factor u, or
    with 1 when unit is None and the remainder is wanted only up to a
    constant.  Over Q(t) the divisors are monic, a step subtracts c_h x^s g,
    and the factor is None.
    """
    integral = not ring.field.has_t
    lex, mask, guard, digits = ring.lex, ring.mask, ring.guard, ring.digits
    heap = list(h)
    heapify(heap)
    r = {}
    rcont = 0  # the gcd of r's coefficients over Q
    grown = 0  # bits of the scales since the content was last taken
    taken = scaled = 1  # u = unit * taken / scaled
    while heap:
        hk = heappop(heap)
        hc = h.pop(hk, None)
        if hc is None:
            continue
        eh = -hk if lex else hk & mask
        for eg, gk, gc, tail, reach in records:
            if not (eh - eg) & guard:
                break
        else:
            r[hk] = hc
            if integral:
                rcont = gcd(rcont, hc)
            continue
        # Only the tail can go above the lead's degree: by reach.
        if reach and degree_cap is not None:
            top = eh % digits + reach
            if top > degree_cap:
                raise DegreeCapExceeded(f"intermediate degree {top} exceeds cap {degree_cap}")
        if integral:
            g0 = gcd(gc, hc) if gc > 0 else -gcd(gc, hc)
            scale, nq = gc // g0, -(hc // g0)
            if scale != 1:
                for k in h:
                    h[k] *= scale
                if r:
                    for k in r:
                        r[k] *= scale
                    rcont *= scale
                scaled *= scale
                grown += scale.bit_length()
        else:
            nq = -hc
        for k, tc in tail:
            k += hk
            d = nq * tc
            old = h.get(k)
            if old is None:
                h[k] = d
                heappush(heap, k)
                if (-k if lex else k) & guard:
                    raise _Overflow
            else:
                d = old + d
                if d:
                    h[k] = d
                else:
                    del h[k]
        if grown > CONTENT_BITS and h:
            grown = 0
            cont = gcd(*h.values())
            if rcont:
                cont = gcd(cont, rcont)
            if cont != 1:
                for k in h:
                    h[k] //= cont
                if r:
                    for k in r:
                        r[k] //= cont
                    rcont //= cont
                taken *= cont
    if not integral:
        return r, None
    if rcont > 1:
        for k in r:
            r[k] //= rcont
        taken *= rcont
    if unit is None:
        return r, 1
    return r, unit if taken == scaled else unit * Fraction(taken, scaled)


def reduce_full(
    p: MultiPoly,
    gens: Sequence[MultiPoly],
    order: TermOrder = DEFAULT_ORDER,
    degree_cap: int | None = None,
) -> MultiPoly:
    """Full remainder of p under multivariate division by gens.

    The remainder's terms come in descending order, so its first term is
    the leading one.  DegreeCapExceeded is raised as soon as the working
    polynomial would have total degree above degree_cap: on input, or at
    the step that adds such a term.  The division runs in _divide on the
    packed form, at twice the bits whenever an exponent outgrows them.

    Inside buchberger and is_groebner, p is a _Packed polynomial and gens
    their _Basis; the remainder is then _Packed too, primitive over Q.
    """
    if type(p) is _Packed:
        if degree_cap is not None and p.terms and p.degree() > degree_cap:
            raise DegreeCapExceeded(f"intermediate degree {p.degree()} exceeds cap {degree_cap}")
        return _Packed(p.ring, _divide(p.ring, dict(p.terms), gens.records, degree_cap, None)[0])
    field, nvars = p.field, p.nvars
    _check_ring((p, *gens), nvars)
    if not isinstance(gens, _Divisors):
        gens = _Divisors(gens)
    degree = p.total_degree()
    bits = _bits(max(degree, gens.degree, degree_cap or 0))
    if degree_cap is not None and p.terms and degree > degree_cap:
        raise DegreeCapExceeded(f"intermediate degree {degree} exceeds cap {degree_cap}")
    if not p.terms:
        return MultiPoly.zero(field, nvars)
    while True:
        ring, basis = gens.at(field, nvars, order, bits)
        h, unit = _pack(ring, p)
        try:
            r, unit = _divide(ring, h, basis.records, degree_cap, unit)
        except _Overflow:
            bits *= 2
            continue
        if unit is None:
            return _unpack(ring, r)
        return _unpack(ring, r, unit.numerator, unit.denominator)


def _s_polynomial(f: _Packed, g: _Packed) -> _Packed:
    """S-polynomial of two divisors, up to a nonzero constant factor.

    It is built from their records: with leads x^a and x^b and lcm x^l, a
    tail term of f with relative key k moves to key(l) + k, and the leads
    cancel.  Every divisor has degree below 2^(bits - 2) (_bits), so no
    exponent of the result reaches a guard bit.  Over Q, with lead
    coefficients c_f and c_g and g0 = gcd(c_f, c_g), it is
    (c_g/g0) x^(l-a) f - (c_f/g0) x^(l-b) g, made primitive.  Over Q(t),
    where divisors are monic, it is x^(l-a) f - x^(l-b) g.
    """
    ring = f.ring
    _, _, fc, ftail, _ = f.record
    _, _, gc, gtail, _ = g.record
    lk = ring.key(_lcm(f.lead, g.lead))
    if ring.field.has_t:
        s = {lk + k: c for k, c in ftail}
        for k, c in gtail:
            k += lk
            d = s.get(k)
            d = -c if d is None else d - c
            if d:
                s[k] = d
            else:
                del s[k]
    else:
        g0 = gcd(fc, gc)
        kf, kg = gc // g0, fc // g0
        s = {lk + k: kf * c for k, c in ftail}
        for k, c in gtail:
            k += lk
            d = s.get(k, 0) - kg * c
            if d:
                s[k] = d
            else:
                del s[k]
        cont = gcd(*s.values())
        if cont > 1:
            for k in s:
                s[k] //= cont
    return _Packed(ring, s)


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
    kept and their intermediate remainders.

    The packing has room for twice the cap in each exponent and three
    times it in a degree, so no exponent of a polynomial formed outgrows it.
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
    ring = _Ring(polys[0].field, nvars, order, _bits(degree_cap))
    fifo = strategy == "fifo"
    basis = _Basis()
    leads: list[Monomial] = []
    # Indices of the elements that still get new pairs, ascending.
    active: list[int] = []
    # normal: a heap of (lcm degree, i, j); fifo: (i, j) read from index head
    # on.  live maps each pair still to be reduced to its lcm: a queued pair
    # missing from it was deleted and is skipped when popped.
    queue: list[tuple] = []
    head = 0
    live: dict[tuple[int, int], Monomial] = {}

    def insert(g: _Packed) -> None:
        r = len(basis)
        gm = g.lead
        basis.append(g)
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
        insert(_element(ring, _pack(ring, g)[0]))
    while head < len(queue):
        if fifo:
            i, j = queue[head]
            head += 1
        else:
            _, i, j = heappop(queue)
        if live.pop((i, j), None) is None:
            continue
        s = _s_polynomial(basis[i], basis[j])
        h = reduce_full(s, basis, order, degree_cap)
        if not h.is_zero:
            insert(_element(ring, h.terms))

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
    # lead divides its lead, so the lead term stays that of the remainder,
    # which is made monic here, on output, the only place it is.
    reduced = []
    for i in keep:
        others = _Basis([basis[j] for j in keep if j != i])
        reduced.append(_element(ring, reduce_full(basis[i], others, order, degree_cap).terms))
    reduced.sort(key=lambda g: g.record[1], reverse=True)
    # Over Q the record holds the lead coefficient, and over Q(t) None.
    monic = tuple(_unpack(ring, g.terms, 1, g.record[2] or 1) for g in reduced)
    gb = GroebnerBasis(order, nvars, monic)
    # Normal forms modulo gb divide by these records: gb.gens are their
    # elements made monic.  A cached_property is set in the instance dict.
    divisors = vars(gb)["_divisors"] = _Divisors(gb.gens)
    divisors.packed[order, ring.bits] = ring, _Basis(reduced)
    return gb


def normal_form(p: MultiPoly, gb: GroebnerBasis, degree_cap: int | None = None) -> MultiPoly:
    """p's remainder modulo gb, by reduce_full.  An empty basis divides
    nothing: p is returned as it is, with no degree check, unlike reduce_full,
    which checks p against degree_cap whatever it divides by."""
    if p.nvars != gb.nvars:
        raise ArityMismatch(f"polynomial in {p.nvars} variables, basis in {gb.nvars}")
    if not gb.gens:
        return p
    return reduce_full(p, gb._divisors, gb.order, degree_cap)


def equal_mod_ideal(p: MultiPoly, q: MultiPoly, gb: GroebnerBasis) -> bool:
    return normal_form(p - q, gb).is_zero


def is_groebner(gens: Sequence[MultiPoly], order: TermOrder = DEFAULT_ORDER) -> bool:
    """Check Buchberger's criterion: every S-polynomial reduces to zero."""
    divisors = _Divisors(gens)
    polys = divisors.nonzero
    if len(polys) < 2:
        return True
    _check_ring(polys, polys[0].nvars)
    bits = _bits(divisors.degree)
    while True:
        _, basis = divisors.at(polys[0].field, polys[0].nvars, order, bits)
        try:
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = _s_polynomial(basis[i], basis[j])
                    if not reduce_full(s, basis, order).is_zero:
                        return False
            return True
        except _Overflow:
            bits *= 2
