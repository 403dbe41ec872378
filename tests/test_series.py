from fractions import Fraction
from math import factorial

import pytest

from prolong import (
    AffineVariety,
    ArityMismatch,
    DenominatorVanishesAtInitialPoint,
    MultiPoly,
    NonUnitConstantTerm,
    PointNotOnVariety,
    PolyMap,
    Q,
    QT,
    RationalMap,
    SeriesPoint,
    TruncSeries,
    element_to_series,
    map_on_series,
    parse_element,
    poly_on_series,
    solve_dpoint,
    variety_residuals,
    verify_on_variety,
)

from helpers import (
    pmap,
    poly,
    random_element,
    random_fraction,
    random_nonzero_poly,
    random_poly,
    random_unit,
    rmap,
)

XY = ("x", "y")


def series(*coeffs):
    return TruncSeries([Fraction(c) for c in coeffs])


def test_constructors():
    assert TruncSeries.const(Fraction(3, 2), 2) == series("3/2", 0, 0)
    assert TruncSeries.zero(1).is_zero
    assert TruncSeries.t(3) == series(0, 1, 0, 0)
    assert series(1, 2).order == 1
    assert series(0, 5).coefficient(1) == 5


def test_constructor_takes_exact_rationals_only():
    half = Fraction(1, 2)
    s = TruncSeries([3, half, parse_element("-7/3", QT), Q.elem(0)])
    assert s.coeffs == (Fraction(3), half, Fraction(-7, 3), Fraction(0))
    assert all(type(c) is Fraction for c in s.coeffs)
    assert s.coeffs[1] is half  # a Fraction is stored, not copied
    for bad in ([0.1], [1, 0.5], ["1/2"]):
        with pytest.raises(TypeError):
            TruncSeries(bad)
    with pytest.raises(ValueError):
        TruncSeries([1, parse_element("t", QT)])


def test_arithmetic_truncates_products():
    a = series(1, 1, 0, 0)
    b = series(1, -1, 0, 0)
    assert a * b == series(1, 0, -1, 0)
    assert a + b == series(2, 0, 0, 0)
    assert a - b == series(0, 2, 0, 0)
    assert -a == series(-1, -1, 0, 0)


def test_mixed_order_aligns_to_minimum():
    a = series(1, 2, 3)
    b = series(1, 1)
    assert (a + b).order == 1
    assert a + b == series(2, 3)
    assert a.truncate(1) == series(1, 2)


def test_scalar_coercion():
    a = series(1, 2)
    assert a + 1 == series(2, 2)
    assert 1 + a == series(2, 2)
    assert 2 * a == series(2, 4)
    assert 1 - a == series(0, -2)
    assert a / 2 == series("1/2", 1)


def test_geometric_inverse():
    one_minus_t = series(1, -1, 0, 0)
    assert one_minus_t.inverse() == series(1, 1, 1, 1)
    assert 1 / one_minus_t == series(1, 1, 1, 1)
    assert (one_minus_t * one_minus_t.inverse()) == series(1, 0, 0, 0)


def test_inverse_needs_unit_constant():
    with pytest.raises(NonUnitConstantTerm):
        series(0, 1, 0).inverse()
    with pytest.raises(NonUnitConstantTerm):
        series(1, 1) / series(0, 1)


def test_powers():
    a = series(1, 1, 0, 0)
    assert a**0 == series(1, 0, 0, 0)
    assert a**3 == series(1, 3, 3, 1)
    assert a**-1 == a.inverse()
    assert series(2, 0) ** -2 == series("1/4", 0)


def test_derive_drops_order():
    exp4 = TruncSeries([Fraction(1, factorial(k)) for k in range(5)])
    d = exp4.derive()
    assert d.order == 3
    assert d == exp4.truncate(3)
    with pytest.raises(ValueError):
        series(1).derive()


def test_leibniz_rule(rng):
    for _ in range(20):
        a = TruncSeries([random_fraction(rng) for _ in range(5)])
        b = TruncSeries([random_fraction(rng) for _ in range(5)])
        lhs = (a * b).derive()
        rhs = a.derive() * b.truncate(3) + a.truncate(3) * b.derive()
        assert lhs == rhs


def test_rendering():
    assert str(series(1, -2, 0)) == "1 - 2*t + O(t^3)"
    assert str(series(0, 0)) == "0 + O(t^2)"
    assert str(series("1/2", 1)) == "1/2 + t + O(t^2)"


def test_series_point_shape():
    p = SeriesPoint.constant((Fraction(2), Fraction(0)), 3)
    assert len(p) == 2
    assert p.order == 3
    assert p.at_zero() == (Fraction(2), Fraction(0))
    assert p.derive().order == 2
    with pytest.raises(ValueError):
        SeriesPoint((series(1, 2), series(1,)))


def test_element_to_series():
    e = parse_element("1/(1 - t)", QT)
    assert element_to_series(e, 3) == series(1, 1, 1, 1)
    assert element_to_series(parse_element("t^2", QT), 4) == series(0, 0, 1, 0, 0)
    with pytest.raises(DenominatorVanishesAtInitialPoint):
        element_to_series(parse_element("1/t", QT), 3)


NEGATIVE_ORDERS = {
    "element_to_series": lambda: element_to_series(parse_element("1/(1 - t)", QT), -1),
    "element_to_series of a constant": lambda: element_to_series(Q.elem(3), -1),
    "truncate": lambda: series(1, 2, 3).truncate(-1),
    "const": lambda: TruncSeries.const(1, -1),
    "zero": lambda: TruncSeries.zero(-2),
    "SeriesPoint.constant": lambda: SeriesPoint.constant((Fraction(2), Fraction(1)), -1),
}


@pytest.mark.parametrize("entry", NEGATIVE_ORDERS)
def test_negative_order_is_refused(entry):
    with pytest.raises(ValueError, match="order must be nonnegative"):
        NEGATIVE_ORDERS[entry]()


def test_poly_on_series():
    p = poly("x^2 + y - 1", XY, Q)
    pt = SeriesPoint((series(1, 1, 0), series(0, 0, 1)))
    # (1 + t)^2 + t^2 - 1 = 2t + 2t^2
    assert poly_on_series(p, pt) == series(0, 2, 2)


def test_poly_on_series_of_zero_keeps_the_order():
    pt = SeriesPoint((series(1, 2, 3), series(0, 1, 0)))
    assert poly_on_series(MultiPoly.zero(Q, 2), pt) == series(0, 0, 0)


def test_poly_on_series_with_t_coefficients():
    p = poly("x - t", ("x",), QT)
    pt = SeriesPoint((series(0, 1, 0),))
    assert poly_on_series(p, pt).is_zero


def test_map_on_series():
    f = rmap(Q, ("x",), ["1/(1 - x)"])
    pt = SeriesPoint((series(0, 1, 0, 0),))
    assert map_on_series(f, pt)[0] == series(1, 1, 1, 1)
    with pytest.raises(DenominatorVanishesAtInitialPoint):
        map_on_series(rmap(Q, ("x",), ["1/x"]), pt)
    with pytest.raises(ArityMismatch):
        map_on_series(rmap(Q, XY, ["x", "y"]), pt)


def test_variety_residuals_and_report():
    parab = AffineVariety("P", Q, XY, (poly("y - x^2", XY, Q),))
    on = SeriesPoint((series(0, 1, 0, 0), series(0, 0, 1, 0)))
    assert all(r.is_zero for r in variety_residuals(parab, on))
    assert verify_on_variety(parab, on).ok
    off = SeriesPoint((series(0, 1, 0, 0), series(0, 1, 0, 0)))
    report = verify_on_variety(parab, off)
    assert not report.ok
    assert report.entries[0].name == "generator 0"
    assert report.entries[0].witness == "t - t^2 + O(t^4)"
    with pytest.raises(ArityMismatch):
        variety_residuals(parab, SeriesPoint((series(1, 0),)))


def test_solve_exponential_flow():
    line = AffineVariety("A1", Q, ("x",), ())
    sol = solve_dpoint(line, rmap(Q, ("x",), ["x"]), (Fraction(1),), 20)
    assert sol[0].coeffs == tuple(Fraction(1, factorial(k)) for k in range(21))


def test_solve_constant_flow():
    line = AffineVariety("A1", Q, ("x",), ())
    sol = solve_dpoint(line, rmap(Q, ("x",), ["3"]), (Fraction(5),), 4)
    assert sol[0] == series(5, 3, 0, 0, 0)


def test_solve_triangular_flow():
    names = ("x", "y", "w")
    bv = AffineVariety("BV", Q, names, (poly("x*w - 1", names, Q),))
    sigma = rmap(Q, names, ["0", "1 - x", "0"])
    sol = solve_dpoint(bv, sigma, (Fraction(2), Fraction(0), Fraction(1, 2)), 10)
    assert sol[0] == TruncSeries.const(Fraction(2), 10)
    assert sol[1] == TruncSeries([Fraction(0), Fraction(-1)] + [Fraction(0)] * 9)
    assert sol[2] == TruncSeries.const(Fraction(1, 2), 10)
    assert verify_on_variety(bv, sol).ok


def test_solve_respects_variety_over_qt():
    hyp = AffineVariety("Hyp", QT, XY, (poly("x*y - t", XY, QT),))
    sigma = rmap(QT, XY, ["0", "1/x"])
    sol = solve_dpoint(hyp, sigma, (Fraction(2), Fraction(0)), 6)
    assert sol[1] == TruncSeries([Fraction(0), Fraction(1, 2)] + [Fraction(0)] * 5)
    assert all(r.is_zero for r in variety_residuals(hyp, sol))


def test_solve_truncation_coherence():
    line = AffineVariety("A1", Q, ("x",), ())
    sigma = rmap(Q, ("x",), ["x^2 + 1"])
    long = solve_dpoint(line, sigma, (Fraction(0),), 8)
    short = solve_dpoint(line, sigma, (Fraction(0),), 5)
    assert long.truncate(5)[0] == short[0]


def test_solve_flow_respects_group_law():
    # additive flows starting at p and q sum to the flow starting at p + q
    line = AffineVariety("A1", Q, ("x",), ())
    sigma = rmap(Q, ("x",), ["-2*x"])
    a = solve_dpoint(line, sigma, (Fraction(3),), 8)[0]
    b = solve_dpoint(line, sigma, (Fraction(-1),), 8)[0]
    c = solve_dpoint(line, sigma, (Fraction(2),), 8)[0]
    assert a + b == c


def test_solve_flow_respects_triangular_law():
    names = ("x", "y", "w")
    bv = AffineVariety("BV", Q, names, (poly("x*w - 1", names, Q),))
    sigma = rmap(Q, names, ["0", "1 - x", "0"])
    p = solve_dpoint(bv, sigma, (Fraction(2), Fraction(1), Fraction(1, 2)), 8)
    q = solve_dpoint(bv, sigma, (Fraction(3), Fraction(-2), Fraction(1, 3)), 8)
    # group law (x1, y1, w1).(x2, y2, w2) = (x1 x2, x1 y2 + y1, w1 w2)
    prod_init = (Fraction(6), Fraction(2 * -2 + 1), Fraction(1, 6))
    direct = solve_dpoint(bv, sigma, prod_init, 8)
    assert p[0] * q[0] == direct[0]
    assert p[0] * q[1] + p[1] == direct[1]
    assert p[2] * q[2] == direct[2]


def test_solve_errors():
    hyp = AffineVariety("Hyp", QT, XY, (poly("x*y - t", XY, QT),))
    sigma = rmap(QT, XY, ["0", "1/x"])
    with pytest.raises(PointNotOnVariety):
        solve_dpoint(hyp, sigma, (Fraction(2), Fraction(1)), 4)
    with pytest.raises(DenominatorVanishesAtInitialPoint):
        solve_dpoint(hyp, sigma, (Fraction(0), Fraction(0)), 4)
    with pytest.raises(ArityMismatch):
        solve_dpoint(hyp, sigma, (Fraction(2),), 4)
    with pytest.raises(ArityMismatch):
        solve_dpoint(hyp, rmap(QT, ("x",), ["x"]), (Fraction(2), Fraction(0)), 4)
    with pytest.raises(ValueError):
        solve_dpoint(hyp, sigma, (Fraction(2), Fraction(0)), -1)


def test_solve_initial_point_must_be_constant():
    line = AffineVariety("A1", QT, ("x",), ())
    with pytest.raises((TypeError, ValueError)):
        solve_dpoint(line, rmap(QT, ("x",), ["x"]), (parse_element("t", QT),), 4)


def _reference_solve(variety, sigma, initial, order):
    """The solver before it went online: every step re-evaluates sigma on the
    whole truncated series, O(order^3).  Slow reference for the tests."""
    sigma = sigma.as_rational()
    a0 = tuple(Fraction(v) for v in initial)
    start = SeriesPoint.constant(a0, order)
    for gen in variety.gens:
        if poly_on_series(gen, start).coefficient(0) != 0:
            raise PointNotOnVariety("initial point off the variety")
    for _, den in sigma.components:
        if poly_on_series(den, start).coefficient(0) == 0:
            raise DenominatorVanishesAtInitialPoint("denominator vanishes")
    coeffs = [[v] + [Fraction(0)] * order for v in a0]
    for k in range(order):
        current = SeriesPoint(tuple(TruncSeries(c) for c in coeffs))
        velocity = map_on_series(sigma, current)
        for i, c in enumerate(coeffs):
            c[k + 1] = velocity[i].coefficient(k) / (k + 1)
    return tuple(tuple(c) for c in coeffs)


def _outcome(solve, *args):
    try:
        point = solve(*args)
    except Exception as exc:  # the exception type is part of the outcome
        return type(exc)
    return point if isinstance(point, tuple) else tuple(s.coeffs for s in point)


def _random_section(rng, field, n):
    """Polynomial or rational map K^n -> K^n; over Q(t) some coefficients are
    rational functions of t, with denominators that do not vanish at 0."""
    nums = []
    for _ in range(n):
        num = random_poly(rng, field, n, deg=2, terms=3, tdeg=1)
        if field.has_t and rng.random() < 0.5:
            num = num * (random_element(rng, field, 1) / random_unit(rng, field))
        nums.append(num)
    if rng.random() < 0.5:
        return PolyMap(field, n, tuple(nums))
    dens = tuple(random_nonzero_poly(rng, field, n, deg=2, terms=2, tdeg=1) for _ in range(n))
    return RationalMap(field, n, tuple(zip(nums, dens)))


def _random_variety(rng, field, n, a0):
    """Affine space, or a hypersurface through a0."""
    names = ("x", "y", "z")[:n]
    if rng.random() < 0.5:
        return AffineVariety("A", field, names, ())
    g = random_nonzero_poly(rng, field, n, deg=2, terms=3, tdeg=1)
    g = g - MultiPoly.const(field, n, g.evaluate([field.elem(v) for v in a0]))
    return AffineVariety("H", field, names, (g,))


def test_online_solver_matches_full_reevaluation(rng):
    cases = []
    for _ in range(60):
        field = rng.choice((Q, QT))
        n = rng.randint(1, 3)
        a0 = tuple(random_fraction(rng) for _ in range(n))
        variety = _random_variety(rng, field, n, a0)
        if rng.random() < 0.1:
            a0 = a0[:-1] + (a0[-1] + 1,)  # usually off the variety now
        cases.append((variety, _random_section(rng, field, n), a0, rng.randint(0, 12)))
    # a numerator coefficient 1/t is expanded only from order 1 on
    line = AffineVariety("A1", QT, ("x",), ())
    over_t = rmap(QT, ("x",), ["x/t + 1"])
    cases += [(line, over_t, (Fraction(1),), 0), (line, over_t, (Fraction(1),), 3)]
    outcomes = set()
    for case in cases:
        got = _outcome(solve_dpoint, *case)
        assert got == _outcome(_reference_solve, *case)
        if isinstance(got, tuple):
            assert all(type(c) is Fraction for cs in got for c in cs)
            outcomes.add("solved")
        else:
            outcomes.add(got)
    assert outcomes == {"solved", PointNotOnVariety, DenominatorVanishesAtInitialPoint}
    assert _outcome(solve_dpoint, line, over_t, (Fraction(1),), 0) == ((Fraction(1),),)


def test_solve_order_80_closed_forms():
    # the online solver makes order 80 cheap; re-evaluating sigma on the
    # whole series at every step took about 11 s (2-core x86 VM, Python 3.11)
    line = AffineVariety("GaV", Q, ("x",), ())
    sol = solve_dpoint(line, pmap(Q, ("x",), ["-2*x"]), (Fraction(3),), 80)
    assert sol[0].coeffs == tuple(3 * Fraction(-2) ** k / factorial(k) for k in range(81))
    names = ("x", "y", "w")
    bv = AffineVariety("BV", Q, names, (poly("x*w - 1", names, Q),))
    sigma = pmap(Q, names, ["0", "2*y + (1/2)*(1 - x)", "0"])
    sol = solve_dpoint(bv, sigma, (Fraction(2), Fraction(0), Fraction(1, 2)), 80)
    # y' = 2y - 1/2 with y(0) = 0, so y = (1 - e^(2t))/4
    assert sol[1].coeffs == (Fraction(0),) + tuple(
        Fraction(-(2**k), 4 * factorial(k)) for k in range(1, 81)
    )
    assert sol[0] == TruncSeries.const(2, 80)
    assert sol[2] == TruncSeries.const(Fraction(1, 2), 80)
    assert verify_on_variety(bv, sol).ok
