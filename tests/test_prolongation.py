from fractions import Fraction

import pytest

from prolong import (
    AffineVariety,
    ArityMismatch,
    IdenticallyZeroDenominator,
    MultiPoly,
    Correspondence,
    PointNotOnVariety,
    Q,
    QT,
    RationalMap,
    TransferNotFunctional,
    check_nabla_in_tau,
    correspondence_transfer,
    derive_point,
    f_del,
    fiber_names,
    fiber_solve,
    format_poly,
    format_rational,
    nabla,
    parse_element,
    parse_point,
    product_variety,
    tangent_map,
    tangent_variety,
    tau_map,
    tau_variety,
)

from prolong.prolongation import _fiber_generator

from helpers import (
    pmap,
    poly,
    random_point,
    random_poly,
    random_polymap,
    random_rational_map,
    rmap,
)

XY = ("x", "y")


def variety(name, field, names, exprs):
    return AffineVariety(name, field, tuple(names), tuple(poly(e, tuple(names), field) for e in exprs))


def qt(text):
    return parse_element(text, QT)


def test_variety_membership():
    hyp = variety("Hyp", QT, XY, ["x*y - t"])
    assert hyp.contains(parse_point("t, 1", QT))
    assert not hyp.contains(parse_point("1, 1", QT))
    with pytest.raises(PointNotOnVariety):
        hyp.require_point(parse_point("1, 1", QT))
    with pytest.raises(ArityMismatch):
        hyp.contains(parse_point("1", QT))


def test_variety_validation():
    with pytest.raises(ValueError):
        variety("bad", Q, ("x", "x"), [])
    with pytest.raises(ArityMismatch):
        AffineVariety("bad", Q, ("x",), (poly("x*y", XY, Q),))


def test_fiber_names():
    assert fiber_names(("x", "y")) == ("u_x", "u_y")


def test_nabla_iterated_derivatives():
    seq = nabla(parse_point("t^2, 1/t", QT), r=2, field=QT)
    assert seq[0] == (qt("t^2"), qt("1/t"))
    assert seq[1] == (qt("2*t"), qt("-1/t^2"))
    assert seq[2] == (qt("2"), qt("2/t^3"))
    assert nabla((qt("t"),)) == ((qt("t"),), (QT.one,))
    with pytest.raises(ValueError):
        nabla((qt("t"),), r=-1)
    with pytest.raises(ValueError):
        nabla((Fraction(1),))


def test_derive_point_over_q_is_zero():
    pt = parse_point("1/2, -3", Q)
    assert derive_point(pt) == (Q.zero, Q.zero)


def test_f_del_polynomial_map():
    f = pmap(QT, XY, ["t*x^2 + y", "x*y"])
    d = f_del(f)
    names = XY
    assert format_poly(d.components[0], names) == "x^2"
    assert format_poly(d.components[1], names).strip() == "0"


def test_f_del_rational_quotient_rule():
    # f = t/x has f_del = 1/x
    f = rmap(QT, ("x",), ["t/x"])
    d = f_del(f)
    assert format_rational(*d.components[0], ("x",)) == "1/x"


def test_f_del_over_q_vanishes():
    f = pmap(Q, XY, ["x^2 + 3*y", "x*y - 2"])
    d = f_del(f)
    assert all(c.is_zero for c in d.components)


def test_f_del_compatibility_identity(rng):
    # derive(F(a)) = J_F(a).da + f_del(F)(a) on honest rational points
    for _ in range(15):
        f = random_polymap(rng, QT, 2, 2, deg=2)
        a = random_point(rng, QT, 2)
        da = derive_point(a)
        val = f.evaluate(a)
        lhs = derive_point(val)
        jac = f.jacobian()
        dval = f_del(f).evaluate(a)
        for i in range(2):
            acc = dval[i]
            for j in range(2):
                acc = acc + jac[i][j].evaluate(a) * da[j]
            assert lhs[i] == acc


def test_tau_map_components():
    f = pmap(QT, ("x",), ["t*x"])
    names = ("x", "u_x")
    g = tau_map(f)
    assert format_poly(g.components[0], names) == "t*x"
    assert format_poly(g.components[1], names) == "x + t*u_x"
    h = tangent_map(f)
    assert format_poly(h.components[1], names) == "t*u_x"


def test_tau_equals_tangent_over_q():
    f = pmap(Q, XY, ["x^2 - y", "x*y"])
    assert tau_map(f).components == tangent_map(f).components


def test_tau_map_rational_components():
    f = rmap(QT, ("x",), ["t/x"])
    g = tau_map(f)
    names = ("x", "u_x")
    assert format_rational(*g.components[0], names) == "t/x"
    # quotient rule plus the coefficient derivative of t/x
    assert format_rational(*g.components[1], names) == "(x - t*u_x)/x^2"


def test_chain_rule(rng):
    for _ in range(10):
        f = random_polymap(rng, QT, 2, 2, deg=2)
        g = random_polymap(rng, QT, 2, 2, deg=2)
        assert tau_map(f.compose(g)) == tau_map(f).compose(tau_map(g))
        assert tangent_map(f.compose(g)) == tangent_map(f).compose(tangent_map(g))


def test_chain_rule_rational(rng):
    f = rmap(QT, XY, ["t/(x + 1)", "x*y"])
    g = rmap(QT, XY, ["x + y", "x - y + t"])
    left = tau_map(f.compose(g))
    right = tau_map(f).compose(tau_map(g))
    a = parse_point("t, t^2, 1, 2*t", QT)
    assert left.evaluate(a) == right.evaluate(a)


@pytest.mark.parametrize("prolong", [tau_map, tangent_map], ids=["tau", "tangent"])
@pytest.mark.parametrize("field, deg", [(Q, 2), (QT, 1)], ids=["Q", "Qt"])
def test_prolongation_is_a_functor_on_rational_maps(rng, field, deg, prolong):
    # The atlas, chartwise-map and group constructions check only their
    # input and rest on this: prolong(g . f) = prolong(g) . prolong(f) and
    # prolong(id) = id, as rational maps.
    for n in (1, 2, 3):
        ident = RationalMap.identity(field, n)
        assert prolong(ident).equiv(RationalMap.identity(field, 2 * n))
    checked = rational = 0
    while checked < 20:
        mid = rng.randint(1, 2)
        inner = random_rational_map(rng, field, rng.randint(1, 2), mid, deg)
        outer = random_rational_map(rng, field, mid, rng.randint(1, 2), deg)
        try:
            composed = outer.compose(inner)
        except IdenticallyZeroDenominator:
            continue
        assert prolong(composed).equiv(prolong(outer).compose(prolong(inner)))
        checked += 1
        rational += not composed.is_polynomial()
    assert rational >= 10


def test_prolonged_variety_generators():
    circle = variety("Circle", QT, XY, ["x^2 + y^2 - t"])
    tv = tau_variety(circle)
    names = tv.total.var_names
    assert names == ("x", "y", "u_x", "u_y")
    rendered = [format_poly(g, names) for g in tv.total.gens]
    assert rendered == ["x^2 + y^2 - t", "2*x*u_x + 2*y*u_y - 1"]
    tg = tangent_variety(circle)
    rendered = [format_poly(g, names) for g in tg.total.gens]
    assert rendered == ["x^2 + y^2 - t", "2*x*u_x + 2*y*u_y"]


def test_product_variety_structure():
    v = variety("V", Q, ("x",), ["x^2 - 1"])
    w = variety("W", Q, ("y", "z"), ["y*z"])
    p = product_variety(v, w)
    assert p.var_names == ("x", "y", "z")
    rendered = [format_poly(g, p.var_names) for g in p.gens]
    assert rendered == ["x^2 - 1", "y*z"]


def test_tau_of_product_is_union_of_renamed_tau_gens():
    v = variety("V", QT, ("x",), ["x^2 - t"])
    w = variety("W", QT, ("y",), ["y^3 - t"])
    prod = tau_variety(product_variety(v, w))
    sides = [tau_variety(v), tau_variety(w)]
    expected = set()
    for side in sides:
        names = prod.total.var_names
        for g in side.total.gens:
            expected.add(format_poly(g, side.total.var_names))
    got = {format_poly(g, prod.total.var_names) for g in prod.total.gens}
    assert got == expected


def test_nabla_lies_in_tau():
    hyp = variety("Hyp", QT, XY, ["x*y - t"])
    assert check_nabla_in_tau(hyp, parse_point("t, 1", QT))
    assert check_nabla_in_tau(hyp, parse_point("t^2 + t, 1/(t + 1)", QT))
    with pytest.raises(PointNotOnVariety):
        check_nabla_in_tau(hyp, parse_point("1, 1", QT))


def test_fiber_solve_tau():
    hyp = variety("Hyp", QT, XY, ["x*y - t"])
    fib = fiber_solve(hyp, parse_point("t, 1", QT), "tau")
    assert fib.particular == (QT.one, QT.zero)
    assert fib.basis == ((qt("-t"), QT.one),)
    assert fib.dim == 1
    assert fib.contains((qt("1 - t"), QT.one))
    assert not fib.contains((QT.zero, QT.zero))


def test_fiber_solve_tangent_and_translation():
    hyp = variety("Hyp", QT, XY, ["x*y - t"])
    a = parse_point("t, 1", QT)
    tan = fiber_solve(hyp, a, "tangent")
    assert tan.particular == (QT.zero, QT.zero)
    tau = fiber_solve(hyp, a, "tau")
    # the tau fibre is the tangent fibre translated by the derivative of a
    assert tau.basis == tan.basis
    assert tau.contains(derive_point(a))


def test_fiber_solve_errors():
    hyp = variety("Hyp", QT, XY, ["x*y - t"])
    with pytest.raises(PointNotOnVariety):
        fiber_solve(hyp, parse_point("1, 1", QT))
    with pytest.raises(ValueError):
        fiber_solve(hyp, parse_point("t, 1", QT), "jet")


def test_fiber_of_smooth_point_full_space():
    line = variety("L", QT, ("x",), [])
    fib = fiber_solve(line, (qt("t"),))
    assert fib.particular == (QT.zero,)
    assert fib.basis == ((QT.one,),)


def test_parabola_transfer_invertible():
    x_line = variety("X", QT, ("x",), [])
    y_line = variety("Y", QT, ("y",), [])
    corr = Correspondence.make(
        x_line, y_line, (poly("y - x^2", ("x", "y"), QT),)
    )
    tr = correspondence_transfer(corr, (qt("t"),), (qt("t^2"),))
    assert tr.forward.matrix == ((qt("2*t"),),)
    assert tr.forward.offset == (QT.zero,)
    assert tr.invertible
    both = tr.inverse.compose(tr.forward)
    assert both.matrix == ((QT.one,),)
    assert both.offset == (QT.zero,)
    # v = 2t u + offset matches differentiating y = x^2 along x = t
    assert tr.forward.apply((QT.one,)) == (qt("2*t"),)


def test_parabola_transfer_critical_point():
    x_line = variety("X", Q, ("x",), [])
    y_line = variety("Y", Q, ("y",), [])
    corr = Correspondence.make(x_line, y_line, (poly("x^2 - y", ("x", "y"), Q),))
    tr = correspondence_transfer(corr, (Fraction(0),), (Fraction(0),))
    # at the critical point every tangent u maps to v = 0
    assert tr.forward.matrix == ((Q.zero,),)
    assert not tr.invertible
    assert tr.inverse is None


def test_transfer_not_functional():
    x_line = variety("X", Q, ("x",), [])
    y_line = variety("Y", Q, ("y",), [])
    # the relation x = 0 puts no constraint on v, so one u hits many v
    corr = Correspondence.make(x_line, y_line, (poly("x", ("x", "y"), Q),))
    with pytest.raises(TransferNotFunctional):
        correspondence_transfer(corr, (Fraction(0),), (Fraction(1),))


def test_transfer_requires_points_on_graph():
    x_line = variety("X", Q, ("x",), [])
    y_line = variety("Y", Q, ("y",), [])
    corr = Correspondence.make(x_line, y_line, (poly("x^2 - y", ("x", "y"), Q),))
    with pytest.raises(PointNotOnVariety):
        correspondence_transfer(corr, (Fraction(1),), (Fraction(2),))


def test_correspondence_rejects_mixed_fields():
    x_line = variety("X", Q, ("x",), [])
    y_line = variety("Y", QT, ("y",), [])
    with pytest.raises(ValueError):
        Correspondence.make(x_line, y_line, ())


def count_products(monkeypatch, run):
    calls = []
    real = MultiPoly.__mul__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    with monkeypatch.context() as m:
        m.setattr(MultiPoly, "__mul__", counted)
        m.setattr(MultiPoly, "__rmul__", counted)
        out = run()
    return out, len(calls)


@pytest.mark.parametrize("prolong", [tau_map, tangent_map, f_del])
def test_polynomial_rational_map_takes_the_polymap_path(monkeypatch, prolong):
    r = rmap(QT, XY, ["t*x^2 + y", "x*y - t^2", "3*x + 1/2"])
    assert isinstance(r, RationalMap) and r.is_polynomial()
    out, rational_products = count_products(monkeypatch, lambda: prolong(r))
    expected, poly_products = count_products(monkeypatch, lambda: prolong(r.as_polymap()))
    assert rational_products == poly_products
    assert isinstance(out, RationalMap)
    assert out == expected.as_rational()


def reference_fiber_generator(p, with_del):
    """DP.u, optionally plus P_del, as the sum of the products partial_i * u_i."""
    n = p.nvars
    base = list(range(n))
    total = MultiPoly.zero(p.field, 2 * n)
    for i in range(n):
        partial = p.partial(i)
        if not partial.is_zero:
            total = total + partial.embed(2 * n, base) * MultiPoly.var(p.field, 2 * n, n + i)
    if with_del:
        total = total + p.coeff_derive().embed(2 * n, base)
    return total


@pytest.mark.parametrize("field", [Q, QT])
def test_fiber_generator_writes_its_terms(monkeypatch, rng, field):
    for _ in range(40):
        p = random_poly(rng, field, rng.randint(1, 4), deg=4, terms=6)
        for with_del in (False, True):
            want = reference_fiber_generator(p, with_del)
            got, products = count_products(monkeypatch, lambda: _fiber_generator(p, with_del))
            assert products == 0
            assert got == want
            # the same term order, so whatever iterates the terms runs alike
            assert list(got.terms) == list(want.terms)
