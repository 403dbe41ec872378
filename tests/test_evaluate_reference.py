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

The common denominator's numerator N and denominator D are computed in
integers at t = 2^B and read back as signed base-2^B digits, so the later
cases press on that packing: a coefficient equal to the bound B is taken
from, negative digits, coefficients and values of 1000 digits, zero
values, exact cancellation to 0, and the components of one map that need
very different B.
"""

import random

import pytest

from prolong import (
    DenominatorVanishes,
    parse_element,
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
from prolong.poly import _pack, _unpack

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


def test_coefficient_equal_to_the_bound():
    # x^2 at 3t/(1 + t): S = 1, M = max(||3t||_1, ||1 + t||_1) = 3, so the
    # bound is 9, and N = 9t^2 reaches it.  Its digit 9 must read back as
    # 9, not as 9 - 2^B with a carry, so B needs a bit above 9's four.
    x = parse_element("3*t/(1 + t)", QT)
    p = poly("x^2", ("x",), QT)
    got = p.evaluate((x,))
    assert_same(got, reference_evaluate(p, (x,)))
    assert got.n == (0, 0, 9) and got.d == (1, 2, 1)
    # the same bound with a negative coefficient and two variables
    q = poly("-x*y", ("x", "y"), QT)
    point = (x, parse_element("(1 - 2*t)/(1 + t)", QT))
    assert_same(q.evaluate(point), reference_evaluate(q, point))


@pytest.mark.parametrize("bits", [2, 3, 8, 61, 64, 65, 200])
def test_signed_digits_read_back(bits):
    rng = random.Random(bits)
    top = (1 << (bits - 1)) - 1
    for _ in range(50):
        a = [rng.choice((-top, top, 0, 1, -1, rng.randint(-top, top))) for _ in range(rng.randint(1, 6))]
        a[-1] = a[-1] or top
        a = tuple(a)
        assert _unpack(_pack(a, bits), bits) == a
    assert _unpack(0, bits) == ()


def test_negative_digits_and_long_coefficients():
    big = 10**999 + 7
    names = ("x", "y", "z")
    x = parse_element(f"({big} - {3 * big}*t + t^2)/({2 * big} - t)", QT)
    y = parse_element(f"(-5 + 7*t - 3*t^2)/(1 - {big}*t)", QT)
    z = parse_element(f"-{big}*t^3 + 2", QT)
    over_t = parse_element(f"-{big}/(t + 1)", QT)
    over_quadratic = parse_element(f"({big}*t - 1)/(t^2 + {big})", QT)
    for p in (
        poly(f"-{big}*x^2*y + 3*x - 5*y^3 + {big}", names, QT),
        poly(f"x^3 - y*z + {big}*z^2 - t*x*y*z", names, QT),
        poly("-x*y^2*z^3", names, QT) + poly("y", names, QT) * over_t,
        poly("x^2*z", names, QT) * over_quadratic - poly("y^2", names, QT),
    ):
        got = p.evaluate((x, y, z))
        assert_same(got, reference_evaluate(p, (x, y, z)))
        assert any(c < 0 for c in got.n)
        assert max(map(abs, got.n)) > 10**999


def test_zero_values_and_denominators_one_beside_positive_degree():
    names = ("x", "y", "z", "w")
    point = (
        QT.zero,
        QT.t * QT.t - 3,
        (QT.t + 2) / (QT.t - 1),
        QT.elem(-4) / 7,
    )
    for text in (
        "x^2*y + x*z + y^2*z^2 - w^3",
        "x^3 + x*w + 2",
        "y^3*z - w*z^2 + t*y",
        "x*y*z*w + (t - 1)*z^2",
        "x^2 + z^2",
    ):
        p = poly(text, names, QT)
        assert_same(p.evaluate(point), reference_evaluate(p, point))
    values = PolyMap(QT, 4, (poly("x^2*z", names, QT), poly("y*z^2 + x", names, QT))).evaluate(point)
    assert_same(values[0], QT.zero)
    assert_same(values[1], reference_evaluate(poly("y*z^2 + x", names, QT), point))


def test_long_values_that_cancel_to_zero():
    n, m = "7" * 1000, "3" * 1000
    x = parse_element(f"({n}*t + t^2)/({m} + t)", QT)
    y = parse_element(f"({m} + t)/({n} + t)", QT)
    names = ("x", "y")
    for text in ("x*y - t", "x^2*y^2 - t^2", f"{m}*x*y - {m}*t + x^2*y - t*x"):
        p = poly(text, names, QT)
        assert_same(p.evaluate((x, y)), reference_evaluate(p, (x, y)))
    assert poly("x*y - t", names, QT).evaluate((x, y)).is_zero
    assert poly("x^2*y^2 - t^2", names, QT).evaluate((x, y)).is_zero
    # t -> 2^B maps an exact zero to 0 at any B; the read-back shows only
    # where the value is not zero
    off = parse_element(f"({m} + t)/({n[:-1]}8 + t)", QT)
    for text in ("x*y - t", "x^2*y^2 - t^2", f"{m}*x*y - {m}*t + x^2*y - t*x"):
        p = poly(text, names, QT)
        got = p.evaluate((x, off))
        assert not got.is_zero
        assert_same(got, reference_evaluate(p, (x, off)))


def test_map_components_that_need_very_different_bounds():
    names = ("x", "y")
    point = (parse_element("(t - 2)/(t + 1)", QT), parse_element("(3*t^2 - 1)/(t^2 + t + 5)", QT))
    small = poly("x^2 + y", names, QT)
    large = poly(f"{10**400}*x^7*y^5 - {3**900}*x*y + t", names, QT)
    for comps in ((small, large), (large, small), (small, small, large, small)):
        values = PolyMap(QT, 2, comps).evaluate(point)
        for got, p in zip(values, comps):
            assert_same(got, reference_evaluate(p, point))
    r = RationalMap(QT, 2, ((small, large), (large, small)))
    got = r.evaluate(point)
    want = reference_evaluate(small, point) / reference_evaluate(large, point)
    assert_same(got[0], want)
    assert_same(got[1], want.inverse())
