"""The Groebner kernel against the plain division loop it replaced.

reference_reduce_full and reference_buchberger are the straightforward
algorithms: the leading term found with max() at every step, each
subtraction a new MultiPoly, the next pair found by scanning every pair.
The heap-ordered in-place kernel must agree with them exactly: the same
remainders, the same bases, and the same exceptions with the same messages.
Over Q the kernel is fraction-free, so its S-polynomials are nonzero
constant multiples of the reference ones: they are compared once monic.
The kernel keeps S-polynomials and divisors packed; unpacked() reads them
as MultiPolys.  reference_divide is the kernel's division as it was with
the content taken after every step that scaled: taking it by growth must
give the same remainders.
"""

import itertools
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd

import pytest

from prolong import (
    ArityMismatch,
    DegreeCapExceeded,
    GroebnerBasis,
    MultiPoly,
    Q,
    QT,
    TermOrder,
    buchberger,
    normal_form,
    parse_poly,
)
from prolong import groebner
from prolong.groebner import reduce_full

from helpers import random_element, random_nonzero_poly


def _divides(a, b):
    return all(ea <= eb for ea, eb in zip(a, b))


def _lcm(a, b):
    return tuple(max(ea, eb) for ea, eb in zip(a, b))


def _coprime(a, b):
    return all(min(ea, eb) == 0 for ea, eb in zip(a, b))


def reference_reduce_full(p, gens, order, degree_cap=None):
    key = order.key
    remainder = MultiPoly.zero(p.field, p.nvars)
    h = p
    leads = [(g.lead(key), g) for g in gens if not g.is_zero]
    while not h.is_zero:
        if degree_cap is not None and h.total_degree() > degree_cap:
            raise DegreeCapExceeded(
                f"intermediate degree {h.total_degree()} exceeds cap {degree_cap}"
            )
        hm, hc = h.lead(key)
        for (gm, gc), g in leads:
            if _divides(gm, hm):
                mono = tuple(eh - eg for eh, eg in zip(hm, gm))
                h = h - MultiPoly(h.field, h.nvars, {mono: hc / gc}) * g
                break
        else:
            term = MultiPoly(h.field, h.nvars, {hm: hc})
            remainder = remainder + term
            h = h - term
    return remainder


def reference_divide(ring, h, records, degree_cap, unit):
    """groebner._divide with the content of h and r taken out after every
    step that scaled them."""
    integral = not ring.field.has_t
    lex, mask, guard, digits = ring.lex, ring.mask, ring.guard, ring.digits
    heap = list(h)
    heapify(heap)
    r = {}
    rcont = 0
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
                    rcont *= abs(scale)
                if unit is not None:
                    unit /= scale
        else:
            scale, nq = 1, -hc
        for k, tc in tail:
            k += hk
            d = nq * tc
            old = h.get(k)
            if old is None:
                h[k] = d
                heappush(heap, k)
                if (-k if lex else k) & guard:
                    raise groebner._Overflow
            else:
                d = old + d
                if d:
                    h[k] = d
                else:
                    del h[k]
        if scale != 1 and h:
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
                if unit is not None:
                    unit *= cont
    if not integral:
        return r, None
    if unit is None:
        if rcont > 1:
            for k in r:
                r[k] //= rcont
        return r, 1
    return r, unit


def reference_s_polynomial(f, g, order):
    fm, fc = f.lead(order.key)
    gm, gc = g.lead(order.key)
    lcm = _lcm(fm, gm)
    mf = tuple(l - e for l, e in zip(lcm, fm))
    mg = tuple(l - e for l, e in zip(lcm, gm))
    tf = MultiPoly(f.field, f.nvars, {mf: fc.inverse()})
    tg = MultiPoly(g.field, g.nvars, {mg: gc.inverse()})
    return tf * f - tg * g


def reference_update(leads, active, pairs, r):
    """Gebauer and Moller's UPDATE (Becker & Weispfenning, Groebner Bases,
    1993, section 5.5) for the element r, on plain lists.

    The candidates (k, r) are taken newest first, so that of two with equal
    lcm the older one is kept; the kept ones join pairs oldest first.
    """
    h = leads[r]

    def lcm_of(p):
        return _lcm(leads[p[0]], leads[p[1]])

    def coprime(p):
        return _coprime(leads[p[0]], leads[p[1]])

    candidates = [(k, r) for k in active]
    kept = []
    while candidates:
        p = candidates.pop()
        m = lcm_of(p)
        if coprime(p) or not any(_divides(lcm_of(q), m) for q in candidates + kept):
            kept.append(p)
    new = [p for p in reversed(kept) if not coprime(p)]
    pairs[:] = [
        p
        for p in pairs
        if not _divides(h, lcm_of(p))
        or _lcm(leads[p[0]], h) == lcm_of(p)
        or _lcm(leads[p[1]], h) == lcm_of(p)
    ] + new
    active[:] = [k for k in active if not _divides(h, leads[k])] + [r]


def reference_buchberger(gens, order, degree_cap, strategy, spolys, criteria=True):
    """Buchberger's algorithm with reference_update, or, without criteria,
    with every pair of elements reduced."""
    polys = [g for g in gens if not g.is_zero]
    nvars = polys[0].nvars
    for g in polys:
        if g.total_degree() > degree_cap:
            raise DegreeCapExceeded(
                f"generator degree {g.total_degree()} exceeds cap {degree_cap}"
            )
    key = order.key
    basis, leads, active, pairs = [], [], [], []

    def insert(g):
        basis.append(g.monic(key))
        leads.append(g.lead(key)[0])
        r = len(basis) - 1
        if criteria:
            reference_update(leads, active, pairs, r)
        else:
            pairs.extend((k, r) for k in range(r))

    for g in polys:
        insert(g)

    def pick():
        if strategy == "fifo":
            return pairs.pop(0)
        best = min(
            range(len(pairs)),
            key=lambda k: (sum(_lcm(leads[pairs[k][0]], leads[pairs[k][1]])), pairs[k]),
        )
        return pairs.pop(best)

    while pairs:
        i, j = pick()
        s = reference_s_polynomial(basis[i], basis[j], order)
        spolys.append(s)
        h = reference_reduce_full(s, basis, order, degree_cap)
        if h.is_zero:
            continue
        if h.total_degree() > degree_cap:
            raise DegreeCapExceeded(
                f"basis element degree {h.total_degree()} exceeds cap {degree_cap}"
            )
        insert(h)

    keep = []
    for i, g in enumerate(basis):
        gm = g.lead(key)[0]
        redundant = False
        for j, other in enumerate(basis):
            if i == j:
                continue
            om = other.lead(key)[0]
            if _divides(om, gm) and (om != gm or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(g)
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = reference_reduce_full(g, others, order, degree_cap) if others else g
        if not r.is_zero:
            reduced.append(r.monic(key))
    reduced.sort(key=lambda g: key(g.lead(key)[0]))
    return GroebnerBasis(order, nvars, tuple(reduced))


def unpacked(p):
    """p as a MultiPoly: buchberger's S-polynomials and divisors are kept
    packed, with primitive integer coefficients over Q."""
    return p if isinstance(p, MultiPoly) else p.poly()


def outcome(fn, *args):
    """The value fn returns, or the type and message of what it raises."""
    try:
        return "value", fn(*args)
    except (DegreeCapExceeded, ArityMismatch, ValueError) as exc:
        return type(exc), str(exc)


def assert_clean(p):
    """p, built by the trusted constructor, is what the checking one builds."""
    assert all(not c.is_zero for c in p.terms.values())
    assert p == MultiPoly(p.field, p.nvars, dict(p.terms))


HARD_COEFFS = (
    Fraction(-7, 3),
    -5,
    2**64 + 13,
    -(2**70) - 1,
    Fraction(2**65 + 1, 9),
    Fraction(1, 6),
    Fraction(5, 14),
    Fraction(-3, 35),
    1,
)


def hard_poly(rng, terms, deg=3, nvars=3):
    """A nonzero polynomial over Q with HARD_COEFFS coefficients."""
    while True:
        out = {}
        for _ in range(terms):
            mono = [0] * nvars
            for _ in range(rng.randint(0, deg)):
                mono[rng.randrange(nvars)] += 1
            out[tuple(mono)] = rng.choice(HARD_COEFFS)
        p = MultiPoly(Q, nvars, out)
        if not p.is_zero:
            return p


ORDERS = (TermOrder(), TermOrder("lex"))
# Fixed ideals in 3 variables run under each order as they are and with
# their variables renamed (MultiPoly.embed index maps), which ranks the
# variables otherwise under the same kind.
RENAMINGS = tuple((order, (0, 1, 2)) for order in ORDERS) + (
    (TermOrder("lex"), (1, 2, 0)),
    (TermOrder(), (2, 0, 1)),
)


def renamed(polys, index_map):
    """polys with variable i renamed to index_map[i]."""
    return [p.embed(p.nvars, index_map) for p in polys]


CAPS = (None, 2, 3, 4, 6, 30)


def test_reduce_full_matches_reference_division():
    rng = random.Random(5150)
    fired = kept = 0
    for field, order in itertools.product((Q, QT), ORDERS):
        for _ in range(24):
            gens = [
                random_nonzero_poly(rng, field, 3, deg=3, terms=3, tdeg=1)
                for _ in range(rng.randint(1, 3))
            ]
            if rng.random() < 0.3:
                gens.append(MultiPoly.zero(field, 3))
            p = random_nonzero_poly(rng, field, 3, deg=4, terms=5, tdeg=1)
            cap = rng.choice(CAPS)
            want = outcome(reference_reduce_full, p, gens, order, cap)
            got = outcome(reduce_full, p, gens, order, cap)
            assert got == want
            assert outcome(normal_form, p, GroebnerBasis(order, 3, tuple(gens)), cap) == want
            if got[0] == "value":
                kept += 1
                assert_clean(got[1])
            else:
                fired += got[0] is DegreeCapExceeded
        zero = MultiPoly.zero(field, 3)
        assert reduce_full(zero, gens, order, 0) == zero
    assert fired >= 5 and kept >= 30

    # Over Q, coefficients the integer kernel must scale exactly: negative,
    # non-integer and above 2**64, p with mixed denominators, zero divisors.
    fired = kept = 0
    for order in ORDERS:
        for _ in range(30):
            gens = [hard_poly(rng, rng.randint(2, 3)) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.3:
                gens.insert(rng.randrange(len(gens) + 1), MultiPoly.zero(Q, 3))
            p = hard_poly(rng, 5, deg=4)
            cap = rng.choice(CAPS)
            want = outcome(reference_reduce_full, p, gens, order, cap)
            got = outcome(reduce_full, p, gens, order, cap)
            assert got == want
            basis = GroebnerBasis(order, 3, tuple(gens))
            assert outcome(normal_form, p, basis, cap) == want
            if got[0] == "value":
                kept += 1
                assert_clean(got[1])
            else:
                fired += got[0] is DegreeCapExceeded
    assert fired >= 5 and kept >= 20


def packed_division(p, gens, order, cap):
    """The packed division reduce_full makes of p by gens: the ring, p's
    terms, the divisors' records and the unit."""
    divisors = groebner._Divisors(gens)
    bits = groebner._bits(max(p.total_degree(), divisors.degree, cap or 0))
    ring, basis = divisors.at(p.field, p.nvars, order, bits)
    terms, unit = groebner._pack(ring, p)
    return ring, terms, basis.records, unit


def divided(divide, ring, terms, records, cap, unit):
    """What divide gives on a copy of terms: the remainder's terms in their
    order, over Q made primitive with their content moved into the factor
    (which a zero remainder does not have), or the type and message of what
    it raises."""
    try:
        r, factor = divide(ring, dict(terms), records, cap, unit)
    except (DegreeCapExceeded, groebner._Overflow) as exc:
        return type(exc), str(exc)
    if not r:
        return "value", [], None
    if factor is not None:
        cont = gcd(*r.values())
        r = {k: c // cont for k, c in r.items()}
        factor *= cont
    return "value", list(r.items()), factor


def assert_divisions_agree(p, gens, order, slack=None):
    """_divide and reference_divide agree on p by gens, with the unit of p's
    packing and without one, under the cap deg(p) + slack (reduce_full
    raises on a p above the cap itself); returns the kind of the outcome."""
    cap = None if slack is None else p.total_degree() + slack
    ring, terms, records, unit = packed_division(p, gens, order, cap)
    for u in {unit, None}:
        want = divided(reference_divide, ring, terms, records, cap, u)
        assert divided(groebner._divide, ring, terms, records, cap, u) == want
    return want[0]


def katsura(n):
    """Katsura-n over Q in u0, ..., u(n-1)."""
    names = tuple(f"u{i}" for i in range(n))

    def u(i):
        return names[abs(i)] if abs(i) < n else None

    texts = [" + ".join([names[0]] + [f"2*{x}" for x in names[1:]]) + " - 1"]
    for m in range(n - 1):
        pairs = [f"{u(i)}*{u(m - i)}" for i in range(1 - n, n) if u(i) and u(m - i)]
        texts.append(" + ".join(pairs) + f" - {names[m]}")
    return [parse_poly(t, names, Q) for t in texts]


def cyclic_texts(names):
    """The cyclic-n generators in the n variables names."""
    n = len(names)
    sums = [
        " + ".join("*".join(names[(i + k) % n] for k in range(d)) for i in range(n))
        for d in range(1, n)
    ]
    return tuple(sums) + ("*".join(names) + " - 1",)


SLACKS = (None, 0, 0, 1)


@pytest.mark.parametrize("content_bits", [None, 0, 16])
def test_divide_matches_per_step_content_reference(monkeypatch, content_bits):
    """Taking the content by growth changes no remainder, unit factor or
    DegreeCapExceeded message: on seeded divisions, and on normal forms
    modulo katsura-4/5 and cyclic-4 under grevlex and lex, with their
    variables as they are and renamed.  Small thresholds take the content
    in these small divisions too."""
    if content_bits is not None:
        monkeypatch.setattr(groebner, "CONTENT_BITS", content_bits)
    rng = random.Random(2602)
    kinds = []
    for order in ORDERS:
        for _ in range(30):
            gens = [hard_poly(rng, rng.randint(2, 3)) for _ in range(rng.randint(1, 3))]
            p = hard_poly(rng, 6, deg=5)
            kinds.append(assert_divisions_agree(p, gens, order, rng.choice(SLACKS)))
        for _ in range(20):
            # Under lex the tails go above the leads' degree, by 2.
            c = [rng.choice(HARD_COEFFS) for _ in range(5)]
            gens = [
                MultiPoly(Q, 3, {(1, 0, 0): c[0], (0, 2, 1): c[1], (0, 0, 0): c[2]}),
                MultiPoly(Q, 3, {(0, 1, 0): c[3], (0, 0, 3): c[4]}),
            ]
            p = hard_poly(rng, 6, deg=5)
            kinds.append(assert_divisions_agree(p, gens, order, rng.choice(SLACKS)))
        for field in (Q, QT):
            for _ in range(10):
                gens = [
                    random_nonzero_poly(rng, field, 3, deg=3, terms=3, tdeg=1) for _ in range(2)
                ]
                p = random_nonzero_poly(rng, field, 3, deg=4, terms=5, tdeg=1)
                kinds.append(assert_divisions_agree(p, gens, order, rng.choice(SLACKS)))
    assert kinds.count("value") >= 100 and kinds.count(DegreeCapExceeded) >= 8

    k4, k5 = katsura(4), katsura(5)
    assert k5 == [parse_poly(g, KATSURA5_NAMES, Q) for g in KATSURA5]
    c4 = [parse_poly(g, KATSURA5_NAMES[:4], Q) for g in cyclic_texts(KATSURA5_NAMES[:4])]
    cases = [(k4, TermOrder()), (renamed(k4, (2, 1, 3, 0)), TermOrder())]
    cases += [(k5, TermOrder()), (c4, TermOrder()), (c4, TermOrder("lex"))]
    cases += [(renamed(c4, (3, 0, 2, 1)), TermOrder("lex"))]
    bases = []
    for gens, order in cases:
        gb = buchberger(gens, order)
        bases.append(gb)
        for _ in range(6):
            p = hard_poly(rng, 8, deg=6, nvars=gens[0].nvars)
            assert assert_divisions_agree(p, gb.gens, order) == "value"
            assert_divisions_agree(p, gb.gens, order, 0)
    # Every division inside buchberger as well.
    monkeypatch.setattr(groebner, "_divide", reference_divide)
    assert [buchberger(gens, order) for gens, order in cases] == bases


# Katsura-4 under lex fails the degree cap 15.  The largest integer its
# divisions meet, read at the gcds they take, has 37179 bits with the content
# taken by growth, and 87695 bits when the content is never taken.
KATSURA4_LEX_BITS = 50000


def test_division_takes_the_content_of_grown_coefficients(monkeypatch):
    largest = [0]

    def logged_gcd(*args):
        largest[0] = max(largest[0], *(abs(a).bit_length() for a in args))
        return gcd(*args)

    monkeypatch.setattr(groebner, "gcd", logged_gcd)
    with pytest.raises(DegreeCapExceeded, match="^intermediate degree 16 exceeds cap 15$"):
        buchberger(katsura(4), TermOrder("lex"), 15)
    assert 30000 < largest[0] <= KATSURA4_LEX_BITS


XYZ = ("x", "y", "z")
# Ideals on which retiring an element changes the pairs formed (grevlex): the
# third generator's lead divides the first's, and an inserted element's lead
# divides an earlier element's.
RETIRING = (
    ("x*y + 2*x", "y*z", "5/3*x*y + 5*x*z"),
    ("5*x^2*y + 2*z", "-y*z^2 + 5/3*y*z", "-2/3*x*z - 1/2"),
)


def test_buchberger_matches_reference(monkeypatch):
    """Same bases and errors, and the same S-polynomials in the same order.

    Whenever buchberger returns, its basis is also the one that reducing
    every pair, with no criterion, gives under the default cap.
    """
    spolys = []
    s_polynomial = groebner._s_polynomial

    def logged_s_polynomial(f, g):
        s = s_polynomial(f, g)
        spolys.append(s)
        return s

    monkeypatch.setattr(groebner, "_s_polynomial", logged_s_polynomial)
    rng = random.Random(8128)
    fired = kept = 0

    def compare(gens, order, cap):
        nonlocal fired, kept
        for strategy in ("normal", "fifo"):
            want_spolys = []
            want = outcome(reference_buchberger, gens, order, cap, strategy, want_spolys)
            spolys.clear()
            got = outcome(buchberger, gens, order, cap, strategy)
            assert got == want
            assert [unpacked(s).monic(order.key) for s in spolys] == [
                s.monic(order.key) for s in want_spolys
            ]
            if got[0] == "value":
                kept += 1
                assert got[1] == reference_buchberger(
                    gens, order, 40, strategy, [], criteria=False
                )
                for g in got[1].gens:
                    assert_clean(g)
                p = random_nonzero_poly(rng, gens[0].field, 3, deg=3, terms=4, tdeg=1)
                nf = normal_form(p, got[1])
                assert nf == reference_reduce_full(p, got[1].gens, order)
                assert_clean(nf)
            else:
                fired += got[0] is DegreeCapExceeded

    for field, order in itertools.product((Q, QT), ORDERS):
        for _ in range(12):
            gens = [
                random_nonzero_poly(rng, field, 3, deg=3, terms=3, tdeg=1)
                for _ in range(rng.randint(2, 3))
            ]
            compare(gens, order, rng.choice((2, 3, 4, 6)))
    assert fired >= 6 and kept >= 30
    for texts in RETIRING:
        for order, index_map in RENAMINGS:
            compare(renamed([parse_poly(t, XYZ, Q) for t in texts], index_map), order, 40)


KATSURA5_NAMES = ("u0", "u1", "u2", "u3", "u4")
KATSURA5 = (
    "u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 - 1",
    "2*u4^2 + 2*u3^2 + 2*u2^2 + 2*u1^2 + u0^2 - u0",
    "2*u3*u4 + 2*u2*u3 + 2*u1*u2 + 2*u0*u1 - u1",
    "2*u2*u4 + 2*u1*u3 + 2*u0*u2 + u1^2 - u2",
    "2*u1*u4 + 2*u0*u3 + 2*u1*u2 - u3",
)
# The largest S-polynomial coefficient on katsura-5 (grevlex, "normal")
# has 41 bits; the bound is twice that.
SPOLY_BITS = 82


def integer_coefficients(p):
    """The coefficients of p over Q, each checked to be an integer."""
    values = [c.as_fraction() for c in p.terms.values()]
    assert all(v.denominator == 1 for v in values)
    return [v.numerator for v in values]


def test_katsura5_coefficients_stay_small_primitive_integers(monkeypatch):
    spolys, divisor_lists, useful = [], [], [0]
    s_polynomial, reduce = groebner._s_polynomial, groebner.reduce_full

    def logged_s_polynomial(f, g):
        s = s_polynomial(f, g)
        spolys.append(s)
        return s

    def logged_reduce_full(p, gens, *args):
        divisor_lists.append(list(gens))
        r = reduce(p, gens, *args)
        # The benchmark's tracer counts a useful S-polynomial by this test.
        if spolys and p is spolys[-1]:
            useful[0] += not r.is_zero
        return r

    monkeypatch.setattr(groebner, "_s_polynomial", logged_s_polynomial)
    monkeypatch.setattr(groebner, "reduce_full", logged_reduce_full)
    gens = [parse_poly(g, KATSURA5_NAMES, Q) for g in KATSURA5]
    gb = buchberger(gens)
    assert len(gb.gens) == 13 and len(spolys) == 28 and useful[0] == 10
    bits = max(abs(c).bit_length() for s in spolys for c in integer_coefficients(unpacked(s)))
    assert 0 < bits <= SPOLY_BITS
    # Each S-polynomial is made primitive before it is reduced.
    assert all(gcd(*integer_coefficients(unpacked(s))) == 1 for s in spolys if not s.is_zero)
    # Every element buchberger inserts is primitive over Z: the divisors it
    # passes are the basis so far, and in the end each kept element.
    assert divisor_lists
    for divisors in divisor_lists:
        for g in divisors:
            assert gcd(*integer_coefficients(unpacked(g))) == 1
    # The packed form, integer terms included, stays inside buchberger.
    assert all(type(g) is MultiPoly for g in gb.gens)
    x = parse_poly("2*u0 + 4", KATSURA5_NAMES, Q)
    for gens in ([x], [x, x * x]):
        (g,) = buchberger(gens).gens
        assert type(g) is MultiPoly and g == parse_poly("u0 + 2", KATSURA5_NAMES, Q)


CYCLIC5_NAMES = ("u0", "u1", "u2", "u3", "u4")
CYCLIC5 = cyclic_texts(CYCLIC5_NAMES)
# Without the chain criterion and redundant-pair deletion, 827 of cyclic-5's
# S-polynomials reduced to zero (grevlex, "normal"); the bound is a fifth.
CYCLIC5_ZERO_REDUCTIONS = 165


def test_cyclic5_pair_criteria_cut_zero_reductions(monkeypatch):
    last, zeros = [None], [0]
    s_polynomial, reduce = groebner._s_polynomial, groebner.reduce_full

    def logged_s_polynomial(f, g):
        last[0] = s_polynomial(f, g)
        return last[0]

    def logged_reduce_full(p, gens, *args):
        r = reduce(p, gens, *args)
        if p is last[0]:
            zeros[0] += r.is_zero
        return r

    monkeypatch.setattr(groebner, "_s_polynomial", logged_s_polynomial)
    monkeypatch.setattr(groebner, "reduce_full", logged_reduce_full)
    gens = [parse_poly(g, CYCLIC5_NAMES, Q) for g in CYCLIC5]
    bases = []
    for strategy in ("normal", "fifo"):
        zeros[0] = 0
        bases.append(buchberger(gens, strategy=strategy))
        assert 0 < zeros[0] <= CYCLIC5_ZERO_REDUCTIONS
    assert bases[0] == bases[1] and len(bases[0].gens) == 20


def test_arithmetic_results_are_clean():
    rng = random.Random(2718)
    for field in (Q, QT):
        for _ in range(20):
            a = random_nonzero_poly(rng, field, 2, deg=3, terms=4)
            b = random_nonzero_poly(rng, field, 2, deg=3, terms=4)
            c = random_element(rng, field)
            for r in (a + b, a - b, a - a, -a, a * b, a * c, a * field.zero):
                assert_clean(r)


def test_packed_key_reverses_key():
    """Ascending packed keys are descending monomials, keys add under
    products, and each key unpacks to its monomial, at every width: fields
    of 1, 2, 4 and 8 bytes, and wider ones, up to the largest exponent that
    _bits allows."""
    for bits in (8, 16, 32, 64, 128):
        top = (1 << (bits - 2)) - 1
        for nvars in range(1, 5):
            monos = [
                m for m in itertools.product(range(5), repeat=nvars) if sum(m) <= 4
            ]
            monos += [(top,) * nvars]
            monos += itertools.permutations([top >> i for i in range(nvars)])
            monos += [tuple(top if i == j else 1 for i in range(nvars)) for j in range(nvars)]
            for order in ORDERS:
                ring = groebner._Ring(Q, nvars, order, bits)
                assert sorted(monos, key=ring.key) == sorted(monos, key=order.key, reverse=True)
                a, b = monos[-1], monos[len(monos) // 2]
                ab = tuple(x + y for x, y in zip(a, b))
                assert ring.key(ab) == ring.key(a) + ring.key(b)
                assert not ring.word(ring.key(ab)) & ring.guard
                assert all(ring.mono(ring.key(m)) == m for m in monos)
                assert all(ring.degree(ring.key(m)) == sum(m) for m in monos)


def test_packing_at_the_degree_63_64_switch():
    """Degree 63 packs in one byte a field, 64 in two: the product of two
    exponents 63 stays below a byte's guard bit, of two exponents 64 not."""
    assert groebner._bits(63) == 8 and groebner._bits(64) == 16
    for order in ORDERS:
        ring = groebner._Ring(Q, 3, order, 8)
        # Degree 63 in each field: the monomials with their variables renamed.
        monos = {*itertools.permutations((63, 0, 0)), *itertools.permutations((0, 31, 32))}
        for m in sorted(monos | {(21, 21, 21)}):
            k = ring.key(m)
            assert ring.mono(k) == m and ring.degree(k) == 63
            assert ring.mono(2 * k) == tuple(2 * e for e in m)
            assert not ring.word(2 * k) & ring.guard
        assert ring.word(2 * ring.key((64, 0, 0))) & ring.guard
        wide = groebner._Ring(Q, 3, order, 16)
        k = wide.key((64, 0, 0))
        assert wide.mono(2 * k) == (128, 0, 0) and not wide.word(2 * k) & wide.guard
    x, y, z = (parse_poly(v, XYZ, Q) for v in XYZ)
    for n in (63, 64):
        polys = [3 * x**n + y ** (n - 1) * z - 5 * x**2 * z ** (n - 2)]
        polys += [2 * x * y - z, 3 * y * z - 1, x**2 - 7]
        for order, index_map in RENAMINGS:
            p, *gens = renamed(polys, index_map)
            want = reference_reduce_full(p, gens, order)
            assert reduce_full(p, gens, order) == want
            assert normal_form(p, GroebnerBasis(order, 3, tuple(gens))) == want


def test_exponents_that_outgrow_the_packing_redo_it_wider():
    x, y, z = (parse_poly(v, XYZ, Q) for v in XYZ)
    gens = [x - y**40, y - z**40]
    lex = TermOrder("lex")
    assert reduce_full(x**3, gens, lex) == z**4800 == reference_reduce_full(x**3, gens, lex)
    assert normal_form(x**3 + y, GroebnerBasis(lex, 3, tuple(gens))) == z**4800 + z**40
    assert groebner.is_groebner(gens, lex)
    assert not groebner.is_groebner([x**2 - y**40, x * y - z**40], lex)
    # With a cap the packing is as wide as the cap needs from the start.
    gb = buchberger(gens, lex, degree_cap=2000)
    assert gb == reference_buchberger(gens, lex, 2000, "normal", [])
    assert gb.gens == (y - z**40, x - z**1600)
    want = outcome(reference_buchberger, gens, lex, 1000, "normal", [])
    assert outcome(buchberger, gens, lex, 1000) == want
    assert want == (DegreeCapExceeded, "intermediate degree 1015 exceeds cap 1000")
    # Over Q(t) as well, and past 2^15 in one exponent.
    u, v = MultiPoly.var(QT, 2, 0), MultiPoly.var(QT, 2, 1)
    t = QT.t
    chain = [u - v**200 * t]
    assert reduce_full(u**200, chain, lex) == MultiPoly(QT, 2, {(0, 40000): t**200})


def test_lex_degree_cap_agrees_with_reference():
    lex = TermOrder("lex")
    zero = MultiPoly.zero(Q, 3)
    x, y, z = (parse_poly(v, XYZ, Q) for v in XYZ)
    # reduce_full checks p against the cap whatever it divides by; an empty
    # basis in normal_form divides nothing and checks nothing.
    for p in (zero, x * y + 1):
        for gens in ([], [zero], [x - y], [zero, x - y]):
            for cap in (None, 1):
                want = outcome(reference_reduce_full, p, gens, lex, cap)
                assert outcome(reduce_full, p, gens, lex, cap) == want
                basis = GroebnerBasis(lex, 3, tuple(gens))
                if gens:
                    assert outcome(normal_form, p, basis, cap) == want
                else:
                    assert normal_form(p, basis, cap) == p
    # Lex tails that go above the lead's degree: the cap names the degree
    # the step would reach.
    for p, gens, cap in (
        (x**2, [x - y**3], 4),
        (x**2 * z, [x - y**3], 5),
        (x * y, [x - y**2 * z, y - z**3], 6),
        (x * y, [x - y**2 * z, y - z**3], 9),
    ):
        want = outcome(reference_reduce_full, p, gens, lex, cap)
        assert outcome(reduce_full, p, gens, lex, cap) == want
        assert want[0] is DegreeCapExceeded or cap == 9
    assert outcome(reduce_full, x**2, [x - y**3], lex, 4) == (
        DegreeCapExceeded, "intermediate degree 6 exceeds cap 4")
    for cap in (2, 3, 4, 6, 9):
        gens = [x - y**2 * z, y - z**3]
        want = outcome(reference_buchberger, gens, lex, cap, "normal", [])
        assert outcome(buchberger, gens, lex, cap) == want
