from fractions import Fraction

import pytest

from prolong import (
    ArityMismatch,
    BaseField,
    DenominatorVanishes,
    IdenticallyZeroDenominator,
    MultiPoly,
    PolyMap,
    Q,
    QT,
    RationalMap,
    grevlex_key,
    map_product,
    parse_element,
    parse_poly,
    parse_rational,
    poly_gcd,
)
import prolong.poly as poly_module
from prolong.poly import _substitute, reduce_fraction

from helpers import (
    pmap,
    poly,
    random_nonzero_poly,
    random_point,
    random_poly,
    random_polymap,
    random_unit,
    rmap,
)

XY = ("x", "y")
XYZ = ("x", "y", "z")


def test_grevlex_key_orders_by_total_degree_first():
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) or grevlex_key((2, 0)) < grevlex_key((1, 1))
    # x^2 y > x y^2 in grevlex (same total degree; smaller last exponent wins)
    assert grevlex_key((2, 1)) > grevlex_key((1, 2))
    assert grevlex_key((0, 3)) > grevlex_key((2, 0))


def test_ring_axioms(rng):
    for _ in range(30):
        a = random_poly(rng, QT, 2)
        b = random_poly(rng, QT, 2)
        c = random_poly(rng, QT, 2)
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert a - a == MultiPoly.zero(QT, 2)


def test_scalar_coercion():
    p = poly("x + y", XY, Q)
    assert p * 2 == poly("2*x + 2*y", XY, Q)
    assert p + Fraction(1, 2) == poly("x + y + 1/2", XY, Q)
    assert p * Q.elem(3) == poly("3*x + 3*y", XY, Q)


def test_power():
    p = poly("x + y", XY, Q)
    assert p ** 2 == poly("x^2 + 2*x*y + y^2", XY, Q)
    assert p ** 0 == MultiPoly.const(Q, 2, 1)


def test_power_products(monkeypatch):
    p = poly("x + 2*y - 1", XY, Q)
    products = []
    mul = MultiPoly.__mul__

    def counted(a, b):
        products.append(b)
        return mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    powers = {}
    for k, cost in ((1, 0), (2, 1), (5, 3)):
        products.clear()
        powers[k] = p**k
        assert len(products) == cost, k
    monkeypatch.undo()
    assert powers[1] == p
    assert powers[2] == p * p
    assert powers[5] == p * p * p * p * p


def test_evaluation_computes_each_power_once(monkeypatch):
    p = poly("x^3 + x^3*y - 2*y^2 + x*y^2 + x + 5", XY, QT)
    q = poly("x^3*y^2 - y", XY, QT)
    calls = []
    real = poly_module.power

    def counted(x, k, *mul):
        calls.append((x, k))
        return real(x, k, *mul)

    monkeypatch.setattr(poly_module, "power", counted)
    a = (QT.t, parse_element("1/(1 + t)", QT))
    value = p.evaluate(a)
    # over the common denominator (1 + t)^2, in integers at t = 2^B: t^3 and
    # (1 + t)^2, and no power of y's numerator 1
    made_by_p = sorted(calls)
    (packed_t, k_t), (packed_d, k_d) = made_by_p
    assert (k_t, k_d) == (3, 2)
    assert packed_t > 1 and packed_t & (packed_t - 1) == 0
    assert packed_d == packed_t + 1
    calls.clear()
    values = PolyMap(QT, 2, (p, q)).evaluate(a)
    # q's powers are the ones p made: the map shares them (p's coefficient
    # bound is the larger, so the map packs at the same 2^B)
    assert sorted(calls) == made_by_p
    calls.clear()
    at_q_point = p.evaluate((Fraction(1, 2), 3))
    assert sorted(k for _, k in calls) == [2, 3]
    calls.clear()
    image = p.substitute((poly("x + y", XY, QT), poly("x*y", XY, QT)))
    assert sorted(k for _, k in calls) == [2, 3]
    # one compose shares its powers across the outer components, and a
    # value 1 is raised to no power
    outer = pmap(QT, XYZ, ["x^3 + x*y^2*z^2 - 2*y^2", "x^3*y^2*z^3 - y*z"])
    inner = pmap(QT, XY, ["x + y", "x*y", "1"])
    calls.clear()
    composed = outer.compose(inner)
    assert sorted(k for _, k in calls) == [2, 3]
    powers_of_compose = list(calls)
    outer_r = rmap(QT, XYZ, ["(x^2*z + y)/(x*z^3 + 1)", "x^2*y^2*z/(y^2 - x)"])
    inner_r = rmap(QT, XY, ["(x + y)/(x - t)", "1", "y^2/(y + t)"])
    calls.clear()
    composed_r = outer_r.compose(inner_r)
    # (x + y)^2, (y^2)^3, (x - t)^2, (y + t)^2 and (y + t)^3
    assert sorted(k for _, k in calls) == [2, 2, 2, 3, 3]
    for made in (powers_of_compose, calls):
        assert len(set(made)) == len(made)
        assert not any(x.is_one for x, _ in made)
    monkeypatch.undo()
    substituted = tuple(c.substitute(inner.components) for c in outer.components)
    assert composed == PolyMap(QT, 2, substituted)
    assert composed_r.components == compose_by_subst_rational(outer_r, inner_r).components
    x, y = a
    assert value == x**3 + x**3 * y - 2 * y**2 + x * y**2 + x + 5
    assert values == (value, x**3 * y**2 - y)
    assert at_q_point == QT.elem(Fraction(1, 8) * 4 - 18 + Fraction(9, 2) + Fraction(1, 2) + 5)
    expected = "(x + y)^3 + (x + y)^3*x*y - 2*x^2*y^2 + (x + y)*x^2*y^2 + x + y + 5"
    assert image == poly(expected, XY, QT)


def test_zero_polynomial_evaluates_to_zero():
    zero = MultiPoly.zero(QT, 2)
    assert zero.evaluate((QT.t, QT.one)) == QT.zero
    image = zero.substitute((poly("x", XYZ, QT), poly("y*z", XYZ, QT)))
    assert image.is_zero and image.nvars == 3


def substitute_one(p, nums, dens):
    """p at nums/dens through _substitute, as the pair (p, 1); the pairs of
    the inner map are taken as they are, uncancelled."""
    inner = RationalMap._of(nums[0].field, nums[0].nvars, tuple(zip(nums, dens)))
    ((N, D),) = _substitute([(p, MultiPoly.const(p.field, p.nvars, 1))], inner, p.nvars)
    return N, D


def test_subst_rational_clears_denominators(rng):
    p = poly("x^2*y - 3*y^2 + t*x + 1", XY, QT)
    nums = (poly("x + t", XY, QT), poly("y", XY, QT))
    dens = (poly("y - 1", XY, QT), poly("x^2 + 1", XY, QT))
    N, D = substitute_one(p, nums, dens)
    # degree 2 in x and in y
    assert D == dens[0] ** 2 * dens[1] ** 2
    for _ in range(10):
        a = random_point(rng, QT, 2)
        d = tuple(q.evaluate(a) for q in dens)
        if any(v.is_zero for v in d):
            continue
        point = tuple(n.evaluate(a) / v for n, v in zip(nums, d))
        assert N.evaluate(a) / D.evaluate(a) == p.evaluate(point)


def test_partial_derivatives():
    p = poly("x^2*y + 3*y", XY, Q)
    assert p.partial(0) == poly("2*x*y", XY, Q)
    assert p.partial(1) == poly("x^2 + 3", XY, Q)


def test_coeff_derive_over_qt():
    p = poly("t^2*x + (1 + t)*y^3 - 5", XY, QT)
    assert p.coeff_derive() == poly("2*t*x + y^3", XY, QT)


def test_coeff_derive_over_q_is_zero(rng):
    for _ in range(10):
        p = random_poly(rng, Q, 2)
        assert p.coeff_derive().is_zero


def test_coeff_derive_over_qt_drops_zero_derivatives():
    p = poly("3*x^2*y - y + 1/2", XY, QT)
    d = p.coeff_derive()
    assert d.is_zero and d.terms == {}
    assert d == MultiPoly(QT, 2, [(m, c.derive()) for m, c in p.terms.items()])


def test_embed_partial_and_coeff_derive_match_the_public_constructor(rng):
    for field in (Q, QT):
        for _ in range(20):
            p = random_poly(rng, field, 3)
            index_map = rng.sample(range(5), 3)
            moved = [(tuple(m[index_map.index(j)] if j in index_map else 0 for j in range(5)), c)
                     for m, c in p.terms.items()]
            assert p.embed(5, index_map).terms == MultiPoly(field, 5, moved).terms
            for i in range(3):
                lowered = [(m[:i] + (m[i] - 1,) + m[i + 1 :], c * m[i])
                           for m, c in p.terms.items() if m[i]]
                assert p.partial(i).terms == MultiPoly(field, 3, lowered).terms
            derived = [(m, c.derive()) for m, c in p.terms.items()]
            assert p.coeff_derive().terms == MultiPoly(field, 3, derived).terms


def _double_loop(a, b):
    return MultiPoly(a.field, a.nvars, [
        (tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
        for m1, c1 in a.terms.items() for m2, c2 in b.terms.items()
    ])


def test_product_by_a_constant_equals_the_double_loop(rng):
    for field in (Q, QT):
        for _ in range(20):
            p = random_poly(rng, field, 3)
            c = MultiPoly.const(field, 3, random_point(rng, field, 1)[0])
            for a, b in ((p, c), (c, p), (c, c), (p, MultiPoly.zero(field, 3))):
                assert (a * b).terms == _double_loop(a, b).terms


def test_constructor_refuses_exponents_that_are_not_ints():
    for mono in ((1.5,), (True,), (Fraction(1),), ("1",), (-1,)):
        with pytest.raises(ValueError, match="bad monomial"):
            MultiPoly(Q, 1, {mono: 1})
    assert MultiPoly(Q, 1, {(2,): 1}).total_degree() == 2


def test_evaluate_and_substitute(rng):
    p = poly("x^2 - y", XY, QT)
    a = (QT.t, QT.t ** 2)
    assert p.evaluate(a).is_zero
    # substitution by polynomials: x -> x + y, y -> x*y
    q = p.substitute((poly("x + y", XY, QT), poly("x*y", XY, QT)))
    assert q == poly("(x + y)^2 - x*y", XY, QT)


def test_embed_keeps_values(rng):
    p = random_poly(rng, Q, 2)
    big = p.embed(4, [1, 3])
    for _ in range(5):
        a = random_point(rng, Q, 4)
        assert big.evaluate(a) == p.evaluate((a[1], a[3]))


def test_exact_division_via_gcd(rng):
    for _ in range(15):
        a = random_nonzero_poly(rng, QT, 2, deg=2, terms=3, tdeg=1)
        b = random_nonzero_poly(rng, QT, 2, deg=2, terms=3, tdeg=1)
        g = poly_gcd(a * b, a)
        # gcd contains a up to a constant: (a*b)/gcd equals b up to a constant
        num, den = reduce_fraction(a * b, a)
        assert den.is_constant
        assert num == b * den.constant_value()


def test_reduce_fraction_cancels():
    num = poly("x^2 - y^2", XY, Q)
    den = poly("x + y", XY, Q)
    rnum, rden = reduce_fraction(num, den)
    assert rnum == poly("x - y", XY, Q)
    assert rden == MultiPoly.const(Q, 2, 1)


def test_reduce_fraction_constant_denominator(rng):
    for field in (Q, QT):
        for num in [MultiPoly.zero(field, 2)] + [random_poly(rng, field, 2) for _ in range(8)]:
            c = random_unit(rng, field) * 3
            one = MultiPoly.const(field, 2, 1)
            expected = MultiPoly(field, 2, {m: a / c for m, a in num.terms.items()})
            assert reduce_fraction(num, MultiPoly.const(field, 2, c)) == (expected, one)
            assert reduce_fraction(num, one) == (num, one)


def test_const_and_var_refuse_floats():
    with pytest.raises(TypeError):
        MultiPoly.const(Q, 2, 0.5)
    assert MultiPoly.const(QT, 2, 0).is_zero
    assert MultiPoly.var(Q, 2, 1) == poly("y", XY, Q)


def count_gcd_calls(monkeypatch):
    calls = []
    real = poly_module.poly_gcd

    def counted(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(poly_module, "poly_gcd", counted)
    return calls


def test_polynomial_maps_make_no_gcd(monkeypatch, rng):
    f = random_polymap(rng, QT, 2, 3)
    g = random_polymap(rng, QT, 3, 2)
    calls = count_gcd_calls(monkeypatch)
    composed = g.as_rational().compose(f.as_rational())
    assert composed.as_polymap() == g.compose(f)
    halves = tuple((c, MultiPoly.const(QT, 2, 2)) for c in f.components)
    assert RationalMap(QT, 2, halves).is_polynomial()
    assert calls == []
    rmap(QT, XY, ["x/(x + y)"])
    assert calls


def compose_by_subst_rational(outer, inner):
    nums = [n for n, _ in inner.components]
    dens = [d for _, d in inner.components]
    comps = []
    for pnum, pden in outer.components:
        n1, d1 = subst_rational_clearing_all(pnum, nums, dens)
        n2, d2 = subst_rational_clearing_all(pden, nums, dens)
        comps.append((n1 * d2, d1 * n2))
    return RationalMap(outer.field, inner.in_arity, tuple(comps))


def test_compose_after_polynomial_map_matches_subst_rational(rng):
    composed = 0
    for field in (Q, QT):
        for _ in range(6):
            inner = random_polymap(rng, field, 2, 2, deg=2, tdeg=1).as_rational()
            fractions = tuple(
                (
                    random_poly(rng, field, 2, deg=2, tdeg=1),
                    random_nonzero_poly(rng, field, 2, deg=2, tdeg=1),
                )
                for _ in range(2)
            )
            outers = (
                RationalMap(field, 2, fractions),
                random_polymap(rng, field, 2, 2, deg=2, tdeg=1).as_rational(),
            )
            for outer in outers:
                try:
                    expected = compose_by_subst_rational(outer, inner)
                except IdenticallyZeroDenominator:
                    with pytest.raises(IdenticallyZeroDenominator):
                        outer.compose(inner)
                    continue
                assert outer.compose(inner).components == expected.components
                composed += 1
    assert composed >= 20


def test_compose_after_polynomial_map_zero_denominator():
    f = rmap(Q, XY, ["1/(x - y)"])
    with pytest.raises(IdenticallyZeroDenominator):
        f.compose(pmap(Q, XY, ["x", "x"]))


def assert_compose_matches_subst_rational(outer, inner):
    """True when the composite is defined, False when both routes find its
    denominator identically zero."""
    try:
        expected = compose_by_subst_rational(outer, inner)
    except IdenticallyZeroDenominator:
        with pytest.raises(IdenticallyZeroDenominator):
            outer.compose(inner)
        return False
    assert outer.compose(inner).components == expected.components
    return True


def random_nonconstant_poly(rng, field, deg):
    while True:
        p = random_poly(rng, field, 2, deg=deg, terms=2, tdeg=1)
        if not p.is_constant:
            return p


def test_compose_after_rational_map_matches_subst_rational(rng):
    composed = shared = 0
    for field in (Q, QT):
        one = MultiPoly.const(field, 2, 1)
        for _ in range(8):
            den, other = (random_nonconstant_poly(rng, field, deg) for deg in (2, 1))
            # a denominator 1 beside nonconstant ones, one of them twice
            dens = [one, den, rng.choice((den, other))]
            rng.shuffle(dens)
            nums = [random_poly(rng, field, 2, deg=2, terms=2, tdeg=1) for _ in dens]
            inner = RationalMap(field, 2, tuple(zip(nums, dens)))
            inner_dens = [d for _, d in inner.components]
            assert any(d.is_one for d in inner_dens)
            assert not all(d.is_constant for d in inner_dens)
            shared += any(not d.is_constant and inner_dens.count(d) > 1 for d in inner_dens)
            composed += assert_compose_matches_subst_rational(
                random_rational_map(rng, field, 3, 2), inner
            )
    assert composed >= 12 and shared >= 4
    # composites that cancel to a polynomial, beside ones that do not
    uv = ("u", "v")
    for field in (Q, QT):
        inner = rmap(field, XY, ["x*y/(x + 1)", "(x + 1)/y"])
        outer = rmap(field, uv, ["u*v", "u^2*v/(u + 1)"])
        assert assert_compose_matches_subst_rational(outer, inner)
        assert outer.compose(inner).components[0] == (poly("x", XY, field), poly("1", XY, field))
        inner = rmap(field, XY, ["x/(y + 1)", "(y + 1)^2"])
        outer = rmap(field, uv, ["u^2*v", "(u*v + 1)/(u + 2)"])
        assert assert_compose_matches_subst_rational(outer, inner)
        assert outer.compose(inner).components[0][0] == poly("x^2", XY, field)
        # a composite whose denominator is zero
        inner = rmap(field, XY, ["x/(y + 1)", "x/(y + 1)", "1"])
        outer = rmap(field, XYZ, ["z/(x - y)", "x"])
        assert not assert_compose_matches_subst_rational(outer, inner)


def test_equiv_over_equal_denominators():
    f = rmap(QT, XY, ["x/(y + t)", "x*y"])
    assert f.equiv(rmap(QT, XY, ["x/(y + t)", "y*x"]))
    assert not f.equiv(rmap(QT, XY, ["(x + 1)/(y + t)", "x*y"]))
    assert not f.equiv(rmap(QT, XY, ["x/(y + t)", "x*y + 1"]))
    assert f.equiv(rmap(QT, XY, ["x*(x + 1)/((y + t)*(x + 1))", "x*y"]))


def test_equiv_over_different_fields_is_false():
    f = rmap(Q, XY, ["x/(y + 1)", "x*y"])
    g = rmap(QT, XY, ["x/(y + 1)", "x*y"])
    assert f.equiv(rmap(Q, XY, ["x/(y + 1)", "y*x"]))
    assert not f.equiv(g)
    assert not g.equiv(f)


def test_equality_across_equal_field_objects():
    """Equality compares fields by identity first, then by value: an equal
    field object that is not the same one still compares equal."""
    q = BaseField("Q")
    assert q is not Q and q == Q
    p = poly("x + 2", XY, Q)
    assert p == MultiPoly(q, 2, {(1, 0): 1, (0, 0): 2}) == p
    assert Q.elem(Fraction(2, 3)) == q.elem(Fraction(2, 3))
    assert p != poly("x + 2", XY, QT) and Q.elem(2) != QT.elem(2)


def test_substitute_scans_an_inner_map_once(monkeypatch):
    """_substitute finds the values 1 and the denominators to clear in one
    scan of the inner map's components, made once per map."""
    inner = rmap(QT, XY, ["x/(y + t)", "1", "y"])
    x, y = poly("x", XY, QT), poly("y", XY, QT)
    assert inner._substitution == ((x, None, y, poly("y + t", XY, QT)), (0,))
    # A fresh map, so that its one scan is counted.
    inner = rmap(QT, XY, ["x/(y + t)", "1", "y"])
    parts = [q for pair in inner.components for q in pair]
    scanned = []
    is_one = MultiPoly.is_one
    monkeypatch.setattr(
        MultiPoly, "is_one", property(lambda p: scanned.append(p) or is_one.fget(p))
    )
    one = MultiPoly.const(QT, 3, 1)
    outer = [(poly("x*y + z", XYZ, QT), one), (poly("z", XYZ, QT), poly("x + 1", XYZ, QT))]
    first = _substitute(outer, inner, 3)
    assert sum(any(p is q for q in parts) for p in scanned) == len(parts)
    assert _substitute(outer, inner, 3) == first
    assert sum(any(p is q for q in parts) for p in scanned) == len(parts)


def test_reduce_fraction_zero_denominator():
    with pytest.raises(IdenticallyZeroDenominator):
        reduce_fraction(poly("x", XY, Q), MultiPoly.zero(Q, 2))


def test_polymap_compose_and_jacobian():
    f = pmap(Q, ("x",), ("x^2", "x^3"))
    h = pmap(Q, ("u", "v"), ("u*v",))
    composed = h.compose(f)
    assert composed.components[0] == poly("x^5", ("x",), Q)
    jac = f.jacobian()
    assert jac[0][0] == poly("2*x", ("x",), Q)
    assert jac[1][0] == poly("3*x^2", ("x",), Q)


def test_polymap_after_rational_map_is_the_rational_composite(rng):
    evaluated = 0
    for field in (Q, QT):
        outer = pmap(field, XY, ["x^2*y + t*x - 1" if field.has_t else "x^2*y + 3*x - 1",
                                 "x*y^2 - y"])
        inner = rmap(field, XY, ["(x + 1)/(y - 2)", "x*y/(x^2 + 1)"])
        composed = outer.compose(inner)
        assert isinstance(composed, RationalMap)
        assert composed.components == outer.as_rational().compose(inner).components
        for _ in range(5):
            a = random_point(rng, field, 2)
            try:
                inner_value = inner.evaluate(a)
            except DenominatorVanishes:
                continue
            assert composed.evaluate(a) == outer.evaluate(inner_value)
            evaluated += 1
    assert evaluated >= 8
    # a PolyMap after a PolyMap stays a PolyMap
    assert isinstance(outer.compose(pmap(QT, XY, ["x + y", "x*y"])), PolyMap)


def test_polymap_identity_and_permute():
    idmap = PolyMap.identity(Q, 3)
    assert idmap.evaluate(tuple(Q.elem(v) for v in (1, 2, 3))) == tuple(
        Q.elem(v) for v in (1, 2, 3)
    )
    swapped = idmap.permute_inputs((2, 0, 1))
    a = tuple(Q.elem(v) for v in (5, 7, 11))
    assert swapped.evaluate(a) == (a[2], a[0], a[1])


def test_rational_map_canonicalizes_components():
    f = rmap(Q, XY, ("(x^2 - y^2)/(x + y)",))
    num, den = f.components[0]
    assert num == poly("x - y", XY, Q)
    assert den.is_constant


def test_rational_map_evaluate_denominator_guard():
    f = rmap(Q, ("x",), ("1/x",))
    with pytest.raises(DenominatorVanishes):
        f.evaluate((Q.zero,))
    assert f.evaluate((Q.elem(2),)) == (Q.elem(Fraction(1, 2)),)


def test_rational_compose_mobius_involution():
    f = rmap(QT, ("x",), ("1/x",))
    assert f.compose(f).equiv(RationalMap.coerce(PolyMap.identity(QT, 1)))


def test_rational_compose_identically_zero_denominator():
    # denominator x composed with the zero map vanishes identically
    f = rmap(Q, ("x",), ("1/x",))
    zero = rmap(Q, ("x",), ("0",))
    with pytest.raises(IdenticallyZeroDenominator):
        f.compose(zero)


def test_map_product_blocks(rng):
    f = pmap(Q, ("x",), ("x^2",))
    g = pmap(Q, ("y",), ("y + 1", "2*y"))
    p = map_product(f.as_rational(), g.as_rational())
    a = random_point(rng, Q, 2)
    out = p.evaluate(a)
    assert out == (a[0] ** 2, a[1] + 1, 2 * a[1])


def random_rational_map(rng, field, n_in, n_out):
    comps = tuple(
        (
            random_poly(rng, field, n_in, deg=2, tdeg=1),
            random_nonzero_poly(rng, field, n_in, deg=2, tdeg=1),
        )
        for _ in range(n_out)
    )
    return RationalMap(field, n_in, comps)


def test_map_product_keeps_canonical_components(monkeypatch, rng):
    for field in (Q, QT):
        for _ in range(10):
            f = random_rational_map(rng, field, rng.randint(1, 3), 2)
            g = random_rational_map(rng, field, rng.randint(1, 3), 2)
            n = f.in_arity + g.in_arity
            left = list(range(f.in_arity))
            right = list(range(f.in_arity, n))
            comps = [(p.embed(n, left), q.embed(n, left)) for p, q in f.components]
            comps += [(p.embed(n, right), q.embed(n, right)) for p, q in g.components]
            calls = count_gcd_calls(monkeypatch)
            product = map_product(f, g)
            assert calls == []
            monkeypatch.undo()
            # the embedded components are already what reduce_fraction makes
            assert product.components == RationalMap(field, n, tuple(comps)).components


def test_map_product_of_polynomial_maps():
    f = pmap(Q, ("x",), ("x^2",))
    g = pmap(Q, ("y",), ("y + 1", "2*y"))
    p = map_product(f, g)
    assert isinstance(p, PolyMap)
    assert p.components == (poly("x^2", XY, Q), poly("y + 1", XY, Q), poly("2*y", XY, Q))
    assert isinstance(map_product(f, g.as_rational()), RationalMap)


def test_rational_map_as_polymap():
    f = rmap(Q, XY, ["(x^2 - y)/3", "2*x*y + 1"])
    g = f.as_polymap()
    assert isinstance(g, PolyMap)
    assert g.components == (poly("x^2 - y", XY, Q) * Fraction(1, 3), poly("2*x*y + 1", XY, Q))
    assert g.as_rational() == f
    with pytest.raises(ValueError):
        rmap(Q, XY, ["x/y", "x"]).as_polymap()


def test_compose_chain_associativity(rng):
    for _ in range(15):
        f = pmap(QT, ("x",), ("x^2 + t", "x - 1"))
        g = pmap(QT, ("u", "v"), ("u*v",))
        h = pmap(QT, ("s",), ("s^3",))
        lhs = h.compose(g.compose(f))
        rhs = h.compose(g).compose(f)
        assert lhs == rhs


def test_arity_mismatch():
    with pytest.raises(ArityMismatch):
        poly("x", ("x",), Q) + poly("x + y", XY, Q)
    f = pmap(Q, XY, ("x + y",))
    with pytest.raises(ArityMismatch):
        f.evaluate((Q.one,))


def test_maps_with_no_components_check_the_point_length():
    for f in (PolyMap(Q, 2, ()), RationalMap(Q, 2, ())):
        assert f.evaluate((Q.one, Q.one)) == ()
        with pytest.raises(ArityMismatch):
            f.evaluate((Q.one,))


def test_total_degree_and_degree_in():
    p = poly("x^2*y + y^2", XY, Q)
    assert p.total_degree() == 3
    assert p.degree_in(0) == 2
    assert p.degree_in(1) == 2


def test_substitute_rational_points_match_evaluate(rng):
    for _ in range(20):
        p = random_poly(rng, QT, 2, deg=2, tdeg=1)
        a = random_point(rng, QT, 2)
        direct = p.evaluate(a)
        # evaluate equals substituting constants
        consts = tuple(MultiPoly.const(QT, 2, v) for v in a)
        assert p.substitute(consts).constant_value() == direct


def subst_rational_clearing_all(p, nums, dens):
    """Reference for substituting nums/dens into p: every denominator
    cleared, 1 included."""
    target = nums[0]
    degs = [max(p.degree_in(i), 0) for i in range(p.nvars)]
    D = MultiPoly.const(target.field, target.nvars, 1)
    for d, dpoly in zip(degs, dens):
        if d:
            D = D * dpoly**d
    N = MultiPoly.zero(target.field, target.nvars)
    for mono, c in p.terms.items():
        term = MultiPoly.const(target.field, target.nvars, c)
        for e, d, n, q in zip(mono, degs, nums, dens):
            term = term * n**e * q ** (d - e)
        N = N + term
    return N, D


def test_subst_rational_with_mixed_denominators(rng):
    checked = 0
    for field in (Q, QT):
        one = MultiPoly.const(field, 2, 1)
        two = MultiPoly.const(field, 2, 2)
        for _ in range(12):
            p = random_poly(rng, field, 3, deg=3, terms=4, tdeg=1)
            nums = [random_poly(rng, field, 2, deg=2, terms=2, tdeg=1) for _ in range(3)]
            dens = [
                rng.choice((one, two, random_nonzero_poly(rng, field, 2, deg=1, terms=2, tdeg=1)))
                for _ in range(3)
            ]
            dens[rng.randrange(3)] = one
            N, D = substitute_one(p, nums, dens)
            assert (N, D) == subst_rational_clearing_all(p, nums, dens)
            checked += 1
    assert checked == 24
    # all denominators 1: the plain substitution over 1
    p = poly("x^2*y + t*y^2 + 3", XY, QT)
    nums = [poly("x + y", XY, QT), poly("t*x", XY, QT)]
    ones = [MultiPoly.const(QT, 2, 1)] * 2
    assert substitute_one(p, nums, ones) == (p.substitute(nums), ones[0])
    # a pair whose denominator is zero at the inner map
    inner = rmap(QT, XY, ["x/(y + t)", "x/(y + t)"])
    with pytest.raises(IdenticallyZeroDenominator, match="vanishes identically"):
        _substitute([(p, poly("x - y", XY, QT))], inner, 2)
    # the arity is checked also when there is no pair to substitute
    with pytest.raises(ArityMismatch):
        _substitute((), inner, 3)
