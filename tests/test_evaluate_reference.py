"""Evaluation at a field point against the term-by-term loop.

reference_evaluate is how MultiPoly.evaluate used to work at every point:
one field product per variable factor and one field sum per term, each
result in canonical form.  At a point of Q(t) where some value has a
denominator of positive degree in t, evaluation now runs over one common
denominator in Z[t] and cancels once.  Canonical forms are unique, so the
two must agree exactly, numerator and denominator tuples included.  The
cases include zero and constant polynomials, values whose denominators
share factors with each other and with the coefficients, values that
cancel to 0 or to a smaller denominator, and PolyMap and RationalMap
evaluation, at points and at a pole.
"""

import random

import pytest

from prolong import (
    DenominatorVanishes,
    FieldElement,
    MultiPoly,
    PolyMap,
    Q,
    QT,
    RationalMap,
)

from helpers import (
    poly,
    random_element,
    random_fraction,
    random_point,
    random_poly,
    random_unit,
    rmap,
)

SEEDS = range(60)


def reference_evaluate(p, point):
    values = [p.field.elem(v) for v in point]
    total = p.field.zero
    for mono, c in p.terms.items():
        term = c
        for v, e in zip(values, mono):
            for _ in range(e):
                term = term * v
        total = total + term
    return total


def assert_same(got, want):
    assert isinstance(got, FieldElement)
    assert (got.n, got.d) == (want.n, want.d)


def shared_point(rng, n, base):
    """Values of every kind, several over powers of one base denominator."""
    out = []
    for _ in range(n):
        kind = rng.randrange(6)
        if kind == 0:
            value = random_element(rng, QT)
        elif kind == 1:
            value = QT.elem(random_fraction(rng))
        elif kind == 2:
            value = random_element(rng, QT) / base ** rng.randint(1, 3)
        elif kind == 3:
            value = random_element(rng, QT) / (base * random_unit(rng, QT))
        elif kind == 4:
            # integer content shared with the base: (2 + 2ct) and its powers
            value = random_element(rng, QT) / (base * 2) ** rng.randint(1, 2)
        else:
            value = random_point(rng, QT, 1)[0]
        out.append(value)
    return tuple(out)


def shared_poly(rng, n, base):
    """A polynomial whose coefficients may have the base as a denominator."""
    p = random_poly(rng, QT, n, deg=4, terms=5)
    terms = {}
    for mono, c in p.terms.items():
        if rng.random() < 0.4:
            c = c / base ** rng.randint(1, 2)
        terms[mono] = c
    return MultiPoly(QT, n, terms)


@pytest.mark.parametrize("seed", SEEDS)
def test_evaluate_matches_term_by_term(seed):
    rng = random.Random(seed)
    for _ in range(8):
        n = rng.randint(1, 4)
        base = random_unit(rng, QT)
        p = shared_poly(rng, n, base) if rng.random() < 0.5 else random_poly(rng, QT, n, deg=4)
        for point in (random_point(rng, QT, n), shared_point(rng, n, base)):
            assert_same(p.evaluate(point), reference_evaluate(p, point))
    for _ in range(4):
        n = rng.randint(1, 3)
        p = random_poly(rng, Q, n, deg=4)
        point = tuple(random_fraction(rng) for _ in range(n))
        assert_same(p.evaluate(point), reference_evaluate(p, point))


@pytest.mark.parametrize("seed", SEEDS[:20])
def test_values_that_cancel(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    base = random_unit(rng, QT)
    point = shared_point(rng, n, base)
    p = shared_poly(rng, n, base)
    # to 0: p minus its own value at the point
    shifted = p - MultiPoly.const(QT, n, reference_evaluate(p, point))
    assert shifted.evaluate(point).is_zero
    # to a smaller denominator: each value times its own denominator
    for i, x in enumerate(point):
        cleared = MultiPoly(QT, n, {tuple(int(j == i) for j in range(n)): FieldElement(QT, x.d, (1,))})
        got = cleared.evaluate(point)
        assert_same(got, reference_evaluate(cleared, point))
        assert got == FieldElement(QT, x.n, (1,))
    # a square over a denominator that the coefficient cancels in part
    x = point[0]
    q = MultiPoly(QT, n, {(2,) + (0,) * (n - 1): FieldElement(QT, x.d, (1,))})
    assert_same(q.evaluate(point), reference_evaluate(q, point))


def test_zero_and_constant_polynomials():
    point = (QT.t / (QT.t + 1), QT.one / (QT.t * QT.t + 2))
    assert_same(MultiPoly.zero(QT, 2).evaluate(point), QT.zero)
    for c in (QT.one, QT.elem(-7), QT.t / (QT.t + 3), QT.one / (QT.t + 1)):
        assert_same(MultiPoly.const(QT, 2, c).evaluate(point), c)


def test_variables_whose_values_have_denominator_one():
    # x has denominator 1 and gets no homogenising power; y has one of
    # positive degree, so the point takes the common-denominator route
    point = (QT.t * QT.t - 3, (QT.t + 2) / (QT.t - 1))
    for text in ("x^3 + x*y", "x^2", "y^2 - x*y + x^3*y", "(t + 1)*x - 1/2"):
        p = poly(text, ("x", "y"), QT)
        assert_same(p.evaluate(point), reference_evaluate(p, point))


@pytest.mark.parametrize("seed", SEEDS[:20])
def test_maps_match_term_by_term(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    base = random_unit(rng, QT)
    point = shared_point(rng, n, base)
    comps = tuple(shared_poly(rng, n, base) for _ in range(rng.randint(1, 4)))
    values = PolyMap(QT, n, comps).evaluate(point)
    for got, p in zip(values, comps):
        assert_same(got, reference_evaluate(p, point))
    dens = tuple(shared_poly(rng, n, base) for _ in comps)
    pairs = tuple((num, den) for num, den in zip(comps, dens) if not den.is_zero)
    r = RationalMap(QT, n, pairs)
    want = []
    for num, den in r.components:
        dv = reference_evaluate(den, point)
        if dv.is_zero:
            with pytest.raises(DenominatorVanishes):
                r.evaluate(point)
            return
        want.append(reference_evaluate(num, point) / dv)
    for got, w in zip(r.evaluate(point), want):
        assert_same(got, w)


def test_rational_map_at_a_pole():
    r = rmap(QT, ("x", "y"), ["x/(x*y - 1)", "y"])
    x = (QT.t + 1) / (QT.t + 2)
    with pytest.raises(DenominatorVanishes, match="denominator vanishes at the point"):
        r.evaluate((x, x.inverse()))
    y = (QT.t + 3) / (QT.t + 2)
    got = r.evaluate((x, y))
    assert_same(got[0], x / (x * y - 1))
    assert_same(got[1], y)
