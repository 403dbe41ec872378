from fractions import Fraction

import pytest

from prolong import (
    AffineAlgGroup,
    AffineVariety,
    ArityMismatch,
    DegreeCapExceeded,
    DGroup,
    DGroupSection,
    GroupAxiomViolation,
    IndeterminateOnVariety,
    Q,
    QT,
    TermOrder,
    check_dgroup,
    check_group_axioms,
    dpoint_check,
    format_poly,
    format_rational,
    nabla_hom_check,
    parse_point,
    stacked_names,
    tau_group,
    zero_section_T,
)

from helpers import poly, rmap


def additive_group(field):
    v = AffineVariety("GaV", field, ("x",), ())
    mult = rmap(field, ("x1", "x2"), ["x1 + x2"])
    inv = rmap(field, ("x",), ["-x"])
    return AffineAlgGroup("Ga", v, mult, inv, parse_point("0", field))


def multiplicative_group(field):
    names = ("x", "w")
    v = AffineVariety("GmV", field, names, (poly("x*w - 1", names, field),))
    mult = rmap(field, ("x1", "w1", "x2", "w2"), ["x1*x2", "w1*w2"])
    inv = rmap(field, names, ["w", "x"])
    return AffineAlgGroup("Gm", v, mult, inv, parse_point("1, 1", field))


def triangular_group(field):
    names = ("x", "y", "w")
    v = AffineVariety("BV", field, names, (poly("x*w - 1", names, field),))
    mult = rmap(
        field,
        ("x1", "y1", "w1", "x2", "y2", "w2"),
        ["x1*x2", "x1*y2 + y1", "w1*w2"],
    )
    inv = rmap(field, names, ["w", "-w*y", "x"])
    return AffineAlgGroup("B", v, mult, inv, parse_point("1, 0, 1", field))


def section(group, exprs):
    return DGroupSection(rmap(group.variety.field, group.variety.var_names, exprs))


def test_stacked_names():
    assert stacked_names(("x", "y"), 2) == ("x1", "y1", "x2", "y2")
    assert stacked_names(("x",), 3) == ("x1", "x2", "x3")


def test_group_axioms_hold():
    for g in (additive_group(Q), multiplicative_group(QT), triangular_group(Q)):
        report = check_group_axioms(g)
        assert report.ok
        names = [e.name for e in report.entries]
        assert "identity point on variety" in names
        assert any(n.startswith("associativity") for n in names)


def test_axiom_check_follows_a_changed_law():
    g = triangular_group(Q)
    assert check_group_axioms(g).ok
    # (1, 0, 1) is no longer a unit of the law
    g.mult = rmap(Q, ("x1", "y1", "w1", "x2", "y2", "w2"), ["x1*x2", "y1 + y2 + 1", "w1*w2"])
    fresh = AffineAlgGroup("B", g.variety, g.mult, g.inv, g.identity)
    report = check_group_axioms(g)
    assert not report.ok
    assert report.as_dict() == check_group_axioms(fresh).as_dict()
    sigma = section(g, ["0", "1 - x", "0"])
    for check in (lambda: tau_group(g), lambda: check_dgroup(g, sigma)):
        with pytest.raises(GroupAxiomViolation) as info:
            check()
        assert isinstance(info.value, ValueError)
        assert info.value.report.as_dict() == report.as_dict()


def test_axiom_check_honours_cap_and_order():
    g = multiplicative_group(Q)
    assert check_group_axioms(g).ok
    # x*w - 1 has degree 2, so a cap of 1 fails after a passing check too
    with pytest.raises(DegreeCapExceeded):
        check_group_axioms(g, degree_cap=1)
    lex = check_group_axioms(g, order=TermOrder("lex"))
    assert lex.ok
    assert lex.as_dict() == check_group_axioms(g).as_dict()


def test_broken_group_law_detected():
    v = AffineVariety("GaV", Q, ("x",), ())
    mult = rmap(Q, ("x1", "x2"), ["x1 + 2*x2"])
    inv = rmap(Q, ("x",), ["-x"])
    g = AffineAlgGroup("Bad", v, mult, inv, parse_point("0", Q))
    report = check_group_axioms(g)
    assert not report.ok
    failing = {e.name for e in report.entries if not e.ok}
    assert "left identity: component 0" in failing or "right identity: component 0" in failing


def test_rational_law_compares_cross_multiplied_components():
    """Components with a nonconstant denominator are compared as rn*ld - ln*rd;
    the rational law (x1 + x2)/(1 + x1*x2) passes, and x1 + x2/(1 + x2) fails
    with the cross-multiplied witnesses."""
    v = AffineVariety("GaV", Q, ("x",), ())
    inv = rmap(Q, ("x",), ["-x"])
    good = rmap(Q, ("x1", "x2"), ["(x1 + x2)/(1 + x1*x2)"])
    assert check_group_axioms(AffineAlgGroup("T", v, good, inv, parse_point("0", Q))).ok
    bad = rmap(Q, ("x1", "x2"), ["x1 + x2/(1 + x2)"])
    report = check_group_axioms(AffineAlgGroup("Bad", v, bad, inv, parse_point("0", Q)))
    witnesses = {e.name: e.witness for e in report.entries if not e.ok}
    assert witnesses == {
        "left identity: component 0": "x^2",
        "inverse: component 0": "-x^2",
        "associativity: component 0": "-x2^2*x3^2 - x2^2*x3 - 3*x2*x3^2 - 2*x2*x3 - x3^2",
    }


def test_group_shape_validation():
    v = AffineVariety("GaV", Q, ("x",), ())
    inv = rmap(Q, ("x",), ["-x"])
    with pytest.raises(ArityMismatch):
        AffineAlgGroup("Bad", v, rmap(Q, ("x",), ["x"]), inv, (Fraction(0),))
    with pytest.raises(ArityMismatch):
        AffineAlgGroup(
            "Bad", v, rmap(Q, ("x1", "x2"), ["x1 + x2"]), rmap(Q, ("x1", "x2"), ["x1"]), (Fraction(0),)
        )


def test_identity_off_variety_reported():
    names = ("x", "w")
    v = AffineVariety("GmV", Q, names, (poly("x*w - 1", names, Q),))
    mult = rmap(Q, ("x1", "w1", "x2", "w2"), ["x1*x2", "w1*w2"])
    inv = rmap(Q, names, ["w", "x"])
    g = AffineAlgGroup("Gm", v, mult, inv, parse_point("1, 2", Q))
    report = check_group_axioms(g)
    entry = next(e for e in report.entries if e.name == "identity point on variety")
    assert not entry.ok


def test_tau_group_structure():
    tg = tau_group(multiplicative_group(QT))
    total = tg.group.variety
    assert total.var_names == ("x", "w", "u_x", "u_w")
    assert [format_poly(g, total.var_names) for g in total.gens] == [
        "x*w - 1",
        "w*u_x + x*u_w",
    ]
    assert tg.group.identity == parse_point("1, 1, 0, 0", QT)
    names2 = stacked_names(total.var_names, 2)
    rendered = [format_rational(n, d, names2) for n, d in tg.group.mult.components]
    assert rendered == [
        "x1*x2",
        "w1*w2",
        "u_x1*x2 + x1*u_x2",
        "u_w1*w2 + w1*u_w2",
    ]
    # the prolonged group passes the axioms again (tau_group re-verifies)
    assert check_group_axioms(tg.group).ok


def test_tau_group_rejects_broken_law():
    v = AffineVariety("GaV", Q, ("x",), ())
    mult = rmap(Q, ("x1", "x2"), ["x1 + 2*x2"])
    inv = rmap(Q, ("x",), ["-x"])
    g = AffineAlgGroup("Bad", v, mult, inv, parse_point("0", Q))
    with pytest.raises(ValueError):
        tau_group(g)


def test_additive_sections_pass():
    g = additive_group(QT)
    for sigma in (["0"], ["x"], ["-2*x"], ["t*x"]):
        report = check_dgroup(g, section(g, sigma))
        assert report.ok, sigma


def test_multiplicative_twist_fails_homomorphism():
    g = multiplicative_group(QT)
    report = check_dgroup(g, section(g, ["x", "-w"]))
    entries = {e.name: e for e in report.entries}
    assert entries["section: generator 0"].ok
    assert not entries["homomorphism: component 0"].ok
    assert entries["homomorphism: component 0"].witness == "x1*x2"
    assert entries["homomorphism: component 1"].witness == "-w1*w2"


def test_multiplicative_zero_twist_passes():
    g = multiplicative_group(QT)
    assert check_dgroup(g, section(g, ["0", "0"])).ok


def test_triangular_sections_pass():
    g = triangular_group(Q)
    for alpha, beta in ((0, 1), (1, 0), (2, -3)):
        sigma = ["0", f"{alpha}*y + ({beta})*(1 - x)", "0"]
        assert check_dgroup(g, section(g, sigma)).ok, (alpha, beta)


def test_zero_section_over_constants():
    for g in (additive_group(Q), multiplicative_group(Q), triangular_group(Q)):
        assert check_dgroup(g, zero_section_T(g)).ok


def test_check_dgroup_requires_axioms():
    v = AffineVariety("GaV", Q, ("x",), ())
    mult = rmap(Q, ("x1", "x2"), ["x1 + 2*x2"])
    inv = rmap(Q, ("x",), ["-x"])
    g = AffineAlgGroup("Bad", v, mult, inv, parse_point("0", Q))
    with pytest.raises(ValueError):
        check_dgroup(g, section(g, ["0"]))


def test_check_dgroup_sigma_arity():
    g = additive_group(Q)
    with pytest.raises(ArityMismatch):
        check_dgroup(g, DGroupSection(rmap(Q, ("x", "y"), ["x", "y"])))


def test_sigma_indeterminate_on_variety():
    g = multiplicative_group(Q)
    with pytest.raises(IndeterminateOnVariety):
        check_dgroup(g, section(g, ["1/(x*w - 1)", "0"]))


def test_sigma_undefined_at_identity_reported():
    g = multiplicative_group(Q)
    report = check_dgroup(g, section(g, ["1/(x - 1)", "0"]))
    entry = next(e for e in report.entries if e.name == "sigma defined at identity")
    assert not entry.ok


def test_nabla_hom_check():
    g = multiplicative_group(QT)
    a = parse_point("t, 1/t", QT)
    b = parse_point("t^2 + 1, 1/(t^2 + 1)", QT)
    assert nabla_hom_check(g, a, b)
    ga = additive_group(QT)
    assert nabla_hom_check(ga, parse_point("t^3", QT), parse_point("1/t", QT))


def test_dpoint_check():
    g = additive_group(QT)
    # sigma(x) = 1 matches the derivative exactly along x = t
    d = DGroup(g, section(g, ["1"]))
    assert dpoint_check(d, parse_point("t", QT))
    assert not dpoint_check(d, parse_point("t^2", QT))
    # over the constants the zero section marks every point as sharp
    gq = additive_group(Q)
    dq = DGroup(gq, zero_section_T(gq))
    assert dpoint_check(dq, parse_point("7", Q))


def test_section_check_clears_denominators_before_reducing():
    # sigma(x) = (x, -w)/(x*w - 1) has denominators that vanish on Gm.  Its
    # reduced composite with tau(GmV) is (x*w - 1, 0) over 1, which would pass
    # the section entries; the cleared denominator is what exposes it.
    g = multiplicative_group(Q)
    with pytest.raises(IndeterminateOnVariety) as err:
        check_dgroup(g, section(g, ["x/(x*w - 1)", "-w/(x*w - 1)"]))
    assert str(err.value) == (
        "section check: a cleared denominator vanishes identically on the variety"
    )


def test_rational_section_keeps_its_witnesses():
    g = multiplicative_group(Q)
    report = check_dgroup(g, section(g, ["1/(x + 1)", "1/(x + 1)"]))
    assert [(e.name, e.ok, e.witness) for e in report.entries] == [
        ("sigma defined at identity", True, None),
        ("section: generator 0", True, None),
        ("section: generator 1", False, "x^2 + x + w + 1"),
        (
            "homomorphism: component 0",
            False,
            "x1^3*x2 + x1*x2^3 + x1^2*x2 + x1*x2^2 + x1^2 - x1*x2 + x2^2 - 1",
        ),
        ("homomorphism: component 1", False, "x1*x2 + w1 + w2 + 1"),
    ]


@pytest.mark.parametrize(
    "sigma, witnesses, max_gcds",
    [
        (
            ["1/(x + 1)", "1/(x + 1)"],
            [
                None,
                None,
                "x^2 + x + w + 1",
                "x1^3*x2 + x1*x2^3 + x1^2*x2 + x1*x2^2 + x1^2 - x1*x2 + x2^2 - 1",
                "x1*x2 + w1 + w2 + 1",
            ],
            40,
        ),
        (
            ["x^2/(x + 2)", "w/(w + 3)"],
            [
                None,
                None,
                "4*x + 3",
                "x1^3*x2^3 + 4*x1^2*x2 + 4*x1*x2^2",
                "w1^3*w2^2 + w1^2*w2^3 + 5*w1^2*w2^2 + 9*w1*w2",
            ],
            65,
        ),
    ],
)
def test_canonical_components_are_not_reduced_again(monkeypatch, sigma, witnesses, max_gcds):
    """The fan-outs and the product sigma x sigma reuse sigma's canonical
    components; reducing them again made 50 and 108 gcds on these sections."""
    import prolong.poly as poly_module

    g = multiplicative_group(Q)
    s = section(g, sigma)
    calls = []
    real = poly_module.poly_gcd

    def counted(p, q):
        calls.append(1)
        return real(p, q)

    monkeypatch.setattr(poly_module, "poly_gcd", counted)
    report = check_dgroup(g, s)
    assert [e.witness for e in report.entries] == witnesses
    assert [e.ok for e in report.entries] == [w is None for w in witnesses]
    assert len(calls) <= max_gcds
