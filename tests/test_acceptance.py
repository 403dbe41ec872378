"""Acceptance gate: the ten mandatory end-to-end criteria.

Every check is exact; there are no tolerances anywhere.  Each criterion
prints one PASS/FAIL line, repeated in the terminal summary.
"""

import functools
import random
from fractions import Fraction
from math import factorial

import conftest

from prolong import (
    AffineVariety,
    Correspondence,
    DGroupSection,
    Q,
    QT,
    TermOrder,
    buchberger,
    check_cocycle,
    check_dgroup,
    check_nabla_in_tau,
    correspondence_transfer,
    derive_point,
    f_del,
    format_poly,
    normal_form,
    parse_element,
    product_variety,
    solve_dpoint,
    tangent_atlas,
    tangent_map,
    tau_atlas,
    tau_map,
    tau_variety,
    variety_residuals,
    verify_on_variety,
)
from prolong.atlas import AtlasManifold, check_sigma_compatibility, sample_point

from helpers import (
    pmap,
    poly,
    random_element,
    random_nonzero_poly,
    random_point,
    random_polymap,
    random_unit,
    rmap,
)


def criterion(number, summary):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                line = f"ACCEPTANCE {number}: FAIL - {summary}"
                print(line)
                conftest.ACCEPTANCE_RESULTS.append(line)
                raise
            line = f"ACCEPTANCE {number}: PASS - {summary}"
            print(line)
            conftest.ACCEPTANCE_RESULTS.append(line)

        return run

    return wrap


@criterion(1, "compatibility identity on randomized maps and points")
def test_criterion_1_compatibility_identity():
    rng = random.Random(101)
    for _ in range(200):
        arity = rng.randint(1, 3)
        out_arity = rng.randint(1, 3)
        f = random_polymap(rng, QT, arity, out_arity, deg=3, tdeg=2)
        a = random_point(rng, QT, arity)
        da = derive_point(a)
        jac = f.jacobian()
        correction = f_del(f).evaluate(a)
        lhs = derive_point(f.evaluate(a))
        for i in range(out_arity):
            rhs = correction[i]
            for j in range(arity):
                rhs = rhs + jac[i][j].evaluate(a) * da[j]
            assert lhs[i] == rhs


@criterion(2, "chain rules for the twisted and tangent prolongations")
def test_criterion_2_chain_rules():
    rng = random.Random(202)
    for _ in range(100):
        mid = rng.randint(1, 2)
        inner = random_polymap(rng, QT, rng.randint(1, 2), mid, deg=2, tdeg=2)
        outer = random_polymap(rng, QT, mid, rng.randint(1, 2), deg=2, tdeg=2)
        composed = outer.compose(inner)
        assert tau_map(composed) == tau_map(outer).compose(tau_map(inner))
        assert tangent_map(composed) == tangent_map(outer).compose(tangent_map(inner))


@criterion(3, "twisted prolongation preserves products structurally")
def test_criterion_3_product_preservation():
    rng = random.Random(303)
    for _ in range(20):
        nv = rng.randint(1, 2)
        nw = rng.randint(1, 2)
        v_names = tuple(f"x{k}" for k in range(1, nv + 1))
        w_names = tuple(f"y{k}" for k in range(1, nw + 1))
        v = AffineVariety(
            "V", QT, v_names,
            tuple(random_nonzero_poly(rng, QT, nv, deg=2) for _ in range(rng.randint(1, 2))),
        )
        w = AffineVariety(
            "W", QT, w_names,
            tuple(random_nonzero_poly(rng, QT, nw, deg=2) for _ in range(rng.randint(1, 2))),
        )
        prod = tau_variety(product_variety(v, w)).total
        united = []
        for side in (tau_variety(v).total, tau_variety(w).total):
            united.extend(format_poly(g, side.var_names) for g in side.gens)
        rendered = [format_poly(g, prod.var_names) for g in prod.gens]
        assert sorted(rendered) == sorted(united)


@criterion(4, "nabla naturality on on-variety point families")
def test_criterion_4_nabla_naturality():
    rng = random.Random(404)
    hyp = AffineVariety("Hyp", QT, ("x", "y"), (poly("x*y - t", ("x", "y"), QT),))
    parab = AffineVariety("ParabT", QT, ("x", "y"), (poly("y - x^2 - t", ("x", "y"), QT),))
    t = parse_element("t", QT)

    instances = []
    for _ in range(20):
        p = random_unit(rng, QT)
        instances.append((hyp, (p, t / p)))
    for _ in range(20):
        p = random_element(rng, QT)
        instances.append((parab, (p, p * p + t)))
    plane = AffineVariety("A2", QT, ("x", "y"), ())
    for _ in range(15):
        instances.append((plane, random_point(rng, QT, 2)))

    assert len(instances) >= 50
    for v, a in instances:
        a = v.require_point(a)
        f = random_polymap(rng, QT, 2, 2, deg=2, tdeg=2)
        image = f.evaluate(a)
        lhs = tau_map(f).evaluate(a + derive_point(a))
        assert lhs == image + derive_point(image)


def _gm_group():
    names = ("x", "w")
    v = AffineVariety("GmV", QT, names, (poly("x*w - 1", names, QT),))
    mult = rmap(QT, ("x1", "w1", "x2", "w2"), ["x1*x2", "w1*w2"])
    inv = rmap(QT, names, ["w", "x"])
    from prolong import AffineAlgGroup, parse_point

    return AffineAlgGroup("Gm", v, mult, inv, parse_point("1, 1", QT))


@criterion(5, "golden D-group ledger for Ga, Gm, and the triangular group")
def test_criterion_5_dgroup_ledger():
    from prolong import AffineAlgGroup, parse_point

    ga_v = AffineVariety("GaV", QT, ("x",), ())
    ga = AffineAlgGroup(
        "Ga", ga_v,
        rmap(QT, ("x1", "x2"), ["x1 + x2"]),
        rmap(QT, ("x",), ["-x"]),
        parse_point("0", QT),
    )
    for c in ("0", "1", "-2", "t"):
        report = check_dgroup(ga, DGroupSection(rmap(QT, ("x",), [f"({c})*x"])))
        assert report.ok, f"Ga with sigma = {c}*x"

    gm = _gm_group()
    zero = check_dgroup(gm, DGroupSection(rmap(QT, ("x", "w"), ["0", "0"])))
    assert zero.ok
    for c in ("1", "-2", "t"):
        sigma = DGroupSection(rmap(QT, ("x", "w"), [f"({c})*x", f"-({c})*w"]))
        report = check_dgroup(gm, sigma)
        entries = {e.name: e for e in report.entries}
        assert entries["section: generator 0"].ok, f"Gm section for c = {c}"
        hom = entries["homomorphism: component 0"]
        assert not hom.ok, f"Gm homomorphism should fail for c = {c}"
        names2 = ("x1", "w1", "x2", "w2")
        expected = poly(f"({c})*x1*x2", names2, QT)
        assert hom.witness == format_poly(expected, names2)

    b_names = ("x", "y", "w")
    bv = AffineVariety("BV", QT, b_names, (poly("x*w - 1", b_names, QT),))
    b = AffineAlgGroup(
        "B", bv,
        rmap(QT, ("x1", "y1", "w1", "x2", "y2", "w2"),
             ["x1*x2", "x1*y2 + y1", "w1*w2"]),
        rmap(QT, b_names, ["w", "-w*y", "x"]),
        parse_point("1, 0, 1", QT),
    )
    for alpha, beta in ((0, 1), (1, 0), (2, -3)):
        sigma = DGroupSection(
            rmap(QT, b_names, ["0", f"({alpha})*y + ({beta})*(1 - x)", "0"])
        )
        assert check_dgroup(b, sigma).ok, f"triangular ({alpha},{beta})"


@criterion(6, "tau of the circle emits the exact fiber generator")
def test_criterion_6_circle_fiber_generator():
    names = ("x", "y")
    circle = AffineVariety("Circle", QT, names, (poly("x^2 + y^2 - t", names, QT),))
    prolonged = tau_variety(circle).total
    rendered = [format_poly(g, prolonged.var_names) for g in prolonged.gens]
    assert rendered[1] == "2*x*u_x + 2*y*u_y - 1"

    # the circle has no rational-function points, so nabla membership is
    # spot-checked on companion curves that do carry honest points
    rng = random.Random(606)
    t = parse_element("t", QT)
    hyp = AffineVariety("Hyp", QT, names, (poly("x*y - t", names, QT),))
    parab = AffineVariety("ParabT", QT, names, (poly("y - x^2 - t", names, QT),))
    for _ in range(10):
        p = random_unit(rng, QT)
        assert check_nabla_in_tau(hyp, (p, t / p))
        q = random_element(rng, QT)
        assert check_nabla_in_tau(parab, (q, q * q + t))


@criterion(7, "series solver matches the factorial and triangular oracles")
def test_criterion_7_series_oracles():
    line = AffineVariety("A1", Q, ("x",), ())
    sol = solve_dpoint(line, rmap(Q, ("x",), ["x"]), (Fraction(1),), 20)
    assert sol[0].coeffs == tuple(Fraction(1, factorial(k)) for k in range(21))

    b_names = ("x", "y", "w")
    bv = AffineVariety("BV", Q, b_names, (poly("x*w - 1", b_names, Q),))
    sigma = rmap(Q, b_names, ["0", "1 - x", "0"])
    flow = solve_dpoint(bv, sigma, (Fraction(2), Fraction(0), Fraction(1, 2)), 10)
    assert flow[0].coeffs == (Fraction(2),) + (Fraction(0),) * 10
    assert flow[1].coeffs == (Fraction(0), Fraction(-1)) + (Fraction(0),) * 9
    assert flow[2].coeffs == (Fraction(1, 2),) + (Fraction(0),) * 10
    assert verify_on_variety(bv, flow).ok
    assert all(r.is_zero for r in variety_residuals(bv, flow))


@criterion(8, "parabola correspondence transfer is v = 2t*u and invertible")
def test_criterion_8_parabola_transfer():
    x_line = AffineVariety("X", QT, ("x",), ())
    y_line = AffineVariety("Y", QT, ("y",), ())
    corr = Correspondence.make(
        x_line, y_line, (poly("y - x^2", ("x", "y"), QT),)
    )
    t = parse_element("t", QT)
    transfer = correspondence_transfer(corr, (t,), (t * t,))
    two_t = parse_element("2*t", QT)
    assert transfer.forward.matrix == ((two_t,),)
    assert transfer.forward.offset == (QT.zero,)
    assert transfer.invertible and transfer.inverse is not None
    round_trip = transfer.inverse.compose(transfer.forward)
    assert round_trip.matrix == ((QT.one,),)
    assert round_trip.offset == (QT.zero,)
    other_way = transfer.forward.compose(transfer.inverse)
    assert other_way.matrix == ((QT.one,),)
    assert other_way.offset == (QT.zero,)


@criterion(9, "Groebner bases are strategy-independent and certify membership")
def test_criterion_9_groebner_engine():
    rng = random.Random(909)
    for _ in range(20):
        nvars = rng.randint(1, 3)
        gens = [
            random_nonzero_poly(rng, Q, nvars, deg=3, terms=3)
            for _ in range(rng.randint(1, 2))
        ]
        normal = buchberger(gens, strategy="normal", degree_cap=30)
        fifo = buchberger(gens, strategy="fifo", degree_cap=30)
        assert normal.gens == fifo.gens

        p = random_nonzero_poly(rng, Q, nvars, deg=3, terms=4)
        q = random_nonzero_poly(rng, Q, nvars, deg=3, terms=4)
        np_ = normal_form(p, normal)
        nq = normal_form(q, normal)
        assert normal_form(np_, normal) == np_
        assert normal_form(p + q, normal) == np_ + nq

    names = ("x", "y", "z")
    twisted = buchberger(
        [poly("y - x^2", names, Q), poly("z - x^3", names, Q)]
    )
    assert normal_form(poly("z^2 - y^3", names, Q), twisted).is_zero


@criterion(10, "two-chart 1/x atlas passes cocycle, prolongation, and sigma checks")
def test_criterion_10_atlas_suite():
    inv = rmap(QT, ("x",), ["1/x"])
    p1 = AtlasManifold("P1", QT, 1, (1, 2), ("x",), {(1, 2): inv, (2, 1): inv})
    assert check_cocycle(p1).ok
    tangent = tangent_atlas(p1)
    twisted = tau_atlas(p1)
    assert check_cocycle(tangent).ok
    assert check_cocycle(twisted).ok

    rng = random.Random(1010)
    checked = 0
    while checked < 20:
        (a,) = sample_point(QT, rng, 1)
        if a.is_zero:
            continue
        (u,) = sample_point(QT, rng, 1)
        assert check_sigma_compatibility(p1, 1, 2, (a,), (u,))
        assert check_sigma_compatibility(p1, 2, 1, (a,), (u,))
        checked += 1
