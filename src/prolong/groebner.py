"""Groebner bases over the exact base fields.

Buchberger's algorithm with the coprime-leading-term skip, a selectable
pair strategy, and a hard total-degree cap that aborts runaway
computations.  Resulting bases are reduced, monic, and sorted by leading
monomial, so equal ideals yield identical bases for a fixed term order.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import add, ge, le, sub
from typing import Sequence

from .errors import ArityMismatch, DegreeCapExceeded
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
    """
    rkey = order.reverse_key
    field, nvars = p.field, p.nvars
    _check_ring((p, *gens), nvars)
    # (lead monomial, its degree, inverse lead coefficient, tail terms, top tail degree)
    divisors = []
    for g in gens:
        if g.is_zero:
            continue
        gm = min(g.terms, key=rkey)
        tail = [(m, c) for m, c in g.terms.items() if m != gm]
        top = max((sum(m) for m, _ in tail), default=0)
        divisors.append((gm, sum(gm), g.terms[gm].inverse(), tail, top))
    h = dict(p.terms)
    if degree_cap is not None and h and p.total_degree() > degree_cap:
        raise DegreeCapExceeded(f"intermediate degree {p.total_degree()} exceeds cap {degree_cap}")
    heap = [(rkey(m), m) for m in h]
    heapify(heap)
    remainder = {}
    while heap:
        hm = heappop(heap)[1]
        hc = h.pop(hm, None)
        if hc is None:
            continue
        for gm, gdeg, ginv, tail, top in divisors:
            if all(map(ge, hm, gm)):
                break
        else:
            remainder[hm] = hc
            continue
        shift = tuple(map(sub, hm, gm))
        # Only a term new to h can exceed the cap: the others were within it.
        lim = None if degree_cap is None else degree_cap - (sum(hm) - gdeg)
        check = lim is not None and top > lim
        nq = -hc if ginv.is_one else -(hc * ginv)
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
                if d.is_zero:
                    del h[mono]
                else:
                    h[mono] = d
        if over:
            degree = max(map(sum, h))
            raise DegreeCapExceeded(f"intermediate degree {degree} exceeds cap {degree_cap}")
    return MultiPoly._of(field, nvars, remainder)


def _s_polynomial(f: MultiPoly, g: MultiPoly, order: TermOrder) -> MultiPoly:
    fm, fc = f.lead(order.key)
    gm, gc = g.lead(order.key)
    lcm = _lcm(fm, gm)
    mf = tuple(l - e for l, e in zip(lcm, fm))
    mg = tuple(l - e for l, e in zip(lcm, gm))
    tf = MultiPoly(f.field, f.nvars, {mf: fc.inverse()})
    tg = MultiPoly(g.field, g.nvars, {mg: gc.inverse()})
    return tf * f - tg * g


def _monic(g: MultiPoly, lead: Monomial) -> MultiPoly:
    lc = g.terms[lead]
    return g if lc.is_one else g * lc.inverse()


def buchberger(
    gens,
    order: TermOrder = DEFAULT_ORDER,
    degree_cap: int = 40,
    strategy: str = "normal",
) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the ideal generated by gens.

    strategy 'normal' picks the pair with the lowest lcm total degree
    (ties by age); 'fifo' processes pairs in creation order.  Pairs whose
    leading monomials are coprime reduce to zero (Buchberger's first
    criterion) and are never queued.
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
    leads = [min(g.terms, key=rkey) for g in polys]
    basis = [_monic(g, gm) for g, gm in zip(polys, leads)]
    degrees = [sum(gm) for gm in leads]
    # normal: a heap of (lcm degree, i, j); fifo: (i, j) read from index head on
    queue: list[tuple] = []
    head = 0

    def add_pair(i: int, j: int) -> None:
        d = sum(_lcm(leads[i], leads[j]))
        if d == degrees[i] + degrees[j]:
            return
        if fifo:
            queue.append((i, j))
        else:
            heappush(queue, (d, i, j))

    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            add_pair(i, j)
    while head < len(queue):
        if fifo:
            i, j = queue[head]
            head += 1
        else:
            _, i, j = heappop(queue)
        s = _s_polynomial(basis[i], basis[j], order)
        h = reduce_full(s, basis, order, degree_cap)
        if h.is_zero:
            continue
        if h.total_degree() > degree_cap:
            raise DegreeCapExceeded(
                f"basis element degree {h.total_degree()} exceeds cap {degree_cap}"
            )
        hm = next(iter(h.terms))
        basis.append(_monic(h, hm))
        leads.append(hm)
        degrees.append(sum(hm))
        new_index = len(basis) - 1
        for k in range(new_index):
            add_pair(k, new_index)

    # Minimal basis: drop elements whose lead is divisible by another lead.
    keep: list[tuple[Monomial, MultiPoly]] = []
    for i, gm in enumerate(leads):
        if not any(
            _divides(om, gm) and (om != gm or j < i)
            for j, om in enumerate(leads)
            if j != i
        ):
            keep.append((gm, basis[i]))
    # Reduced basis: each element fully reduced against the others.  No other
    # lead divides gm, so the monic lead term of g stays that of the remainder.
    reduced: list[tuple[Monomial, MultiPoly]] = []
    for i, (gm, g) in enumerate(keep):
        others = [o for _, o in keep[:i] + keep[i + 1 :]]
        reduced.append((gm, reduce_full(g, others, order, degree_cap) if others else g))
    reduced.sort(key=lambda lg: order.key(lg[0]))
    return GroebnerBasis(order, nvars, tuple(g for _, g in reduced))


def normal_form(p: MultiPoly, gb: GroebnerBasis, degree_cap: int | None = None) -> MultiPoly:
    if p.nvars != gb.nvars:
        raise ArityMismatch(f"polynomial in {p.nvars} variables, basis in {gb.nvars}")
    if not gb.gens:
        gb.order.key((0,) * gb.nvars)  # a priority of the wrong length raises ArityMismatch
        return p
    return reduce_full(p, gb.gens, gb.order, degree_cap)


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
