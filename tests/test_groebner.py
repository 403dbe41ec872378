from fractions import Fraction

import pytest

from prolong import (
    ArityMismatch,
    DegreeCapExceeded,
    IdealBasis,
    MultiPoly,
    Q,
    QT,
    TermOrder,
    buchberger,
    equal_mod_ideal,
    format_poly,
    is_groebner,
    normal_form,
    parse_poly,
)

from helpers import poly, random_nonzero_poly

XY = ("x", "y")
XYZ = ("x", "y", "z")


def gb_strings(basis, names):
    return [format_poly(g, names) for g in basis.gens]


def test_grevlex_orders_by_degree_then_reversed_last_variable():
    order = TermOrder()
    # degree dominates
    assert order.key((2, 0)) > order.key((0, 1))
    # same degree: smaller exponent on the last variable wins
    assert order.key((2, 0)) > order.key((1, 1)) > order.key((0, 2))


def test_lex_order_ignores_degree():
    order = TermOrder("lex")
    assert order.key((1, 0)) > order.key((0, 5))


def test_term_order_validation():
    with pytest.raises(ValueError):
        TermOrder("degrevlex")


def test_twisted_cubic_basis():
    gens = [poly("y - x^2", XYZ, Q), poly("z - x^3", XYZ, Q)]
    gb = buchberger(gens)
    assert gb_strings(gb, XYZ) == ["y^2 - x*z", "x*y - z", "x^2 - y"]
    assert is_groebner(gb.gens)
    # the input generators do not satisfy Buchberger's criterion on their own
    assert not is_groebner([g.monic(gb.order.key) for g in gens])


def test_twisted_cubic_membership():
    gb = buchberger([poly("y - x^2", XYZ, Q), poly("z - x^3", XYZ, Q)])
    assert normal_form(poly("z^2 - y^3", XYZ, Q), gb).is_zero
    assert not normal_form(poly("z^2 - y^2", XYZ, Q), gb).is_zero
    assert equal_mod_ideal(poly("x^2", XYZ, Q), poly("y", XYZ, Q), gb)


def test_lex_elimination():
    gb = buchberger(
        [poly("x - y", XY, Q), poly("x^2 + y^2 - 1", XY, Q)],
        order=TermOrder("lex"),
    )
    assert gb_strings(gb, XY) == ["y^2 - 1/2", "x - y"]


def test_unit_ideal_collapses():
    gb = buchberger([poly("x", XY, Q), poly("x + 1", XY, Q)])
    assert gb_strings(gb, XY) == ["1"]


def test_principal_ideal_is_monic_generator():
    gb = buchberger([poly("3*x^2 - 6*y", XY, Q)])
    assert gb_strings(gb, XY) == ["x^2 - 2*y"]


def test_zero_generators_are_dropped():
    zero = MultiPoly.zero(Q, 2)
    gb = buchberger([zero, poly("x", XY, Q), zero])
    assert gb_strings(gb, XY) == ["x"]


def test_empty_input_needs_explicit_ring():
    with pytest.raises(ValueError):
        buchberger([])
    gb = buchberger(IdealBasis(2, ()))
    assert gb.gens == ()
    p = poly("x*y + 1", XY, Q)
    assert normal_form(p, gb) == p


def test_mixed_rings_rejected():
    with pytest.raises(ArityMismatch):
        buchberger([poly("x", ("x",), Q), poly("x*y", XY, Q)])
    gb = buchberger([poly("x", XY, Q)])
    with pytest.raises(ArityMismatch):
        normal_form(poly("x", ("x",), Q), gb)


def test_is_groebner_rejects_generators_of_different_rings():
    with pytest.raises(ArityMismatch, match="different rings"):
        is_groebner([poly("x + 1", XYZ, Q), poly("y + 2", XY, Q)])


def test_is_groebner_rejects_mixed_fields():
    with pytest.raises(ValueError, match="mixed fields"):
        is_groebner([poly("x + 1", XYZ, Q), poly("y + 1", XYZ, QT)])


def test_mixed_fields_rejected():
    x_q = poly("x", XY, Q)
    y_qt = poly("y", XY, QT)
    with pytest.raises(ValueError, match="mixed fields"):
        buchberger([x_q, y_qt])
    with pytest.raises(ValueError, match="mixed fields"):
        IdealBasis.make([x_q, y_qt])
    with pytest.raises(ValueError, match="mixed fields"):
        buchberger(IdealBasis(2, (x_q, y_qt)))
    # no lead of the Q basis divides t*y, so no coefficient arithmetic runs
    with pytest.raises(ValueError, match="mixed fields"):
        normal_form(poly("t*y", XY, QT), buchberger([x_q]))


def test_degree_cap_aborts():
    with pytest.raises(DegreeCapExceeded):
        buchberger([poly("x^5 - y", XY, Q)], degree_cap=4)


def test_basis_over_function_field():
    gens = [poly("x*y - t", XY, QT), poly("x^2 - t*y", XY, QT)]
    gb = buchberger(gens)
    assert is_groebner(gb.gens)
    for g in gens:
        assert normal_form(g, gb).is_zero


def test_normal_form_idempotent_and_linear(rng):
    for _ in range(25):
        gens = [random_nonzero_poly(rng, Q, 2, deg=2, terms=3) for _ in range(2)]
        gb = buchberger(gens, degree_cap=30)
        p = random_nonzero_poly(rng, Q, 2, deg=3, terms=4)
        q = random_nonzero_poly(rng, Q, 2, deg=3, terms=4)
        np_, nq = normal_form(p, gb), normal_form(q, gb)
        assert normal_form(np_, gb) == np_
        assert normal_form(p + q, gb) == np_ + nq
        c = MultiPoly.const(Q, 2, Fraction(3, 2))
        assert normal_form(c * p, gb) == c * np_


def test_strategies_agree(rng):
    for _ in range(20):
        gens = [random_nonzero_poly(rng, Q, 2, deg=2, terms=3) for _ in range(2)]
        a = buchberger(gens, strategy="normal", degree_cap=30)
        b = buchberger(gens, strategy="fifo", degree_cap=30)
        assert a.gens == b.gens


def test_unknown_strategy():
    with pytest.raises(ValueError):
        buchberger([poly("x", XY, Q)], strategy="sugar")


def test_generator_reduction_to_zero(rng):
    # every input generator lies in the ideal of its own basis
    for _ in range(10):
        gens = [random_nonzero_poly(rng, Q, 3, deg=2, terms=3) for _ in range(2)]
        gb = buchberger(gens, degree_cap=30)
        for g in gens:
            assert normal_form(g, gb).is_zero
