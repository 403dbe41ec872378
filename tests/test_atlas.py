import json
import random
from pathlib import Path

import pytest

import prolong.atlas as atlas_module
import prolong.cli as cli_module
import prolong.prolongation as prolongation_module
from prolong import (
    ArityMismatch,
    AtlasManifold,
    ChartIncompatibility,
    ChartwiseMap,
    CheckReport,
    CocycleViolation,
    DenominatorVanishes,
    MultiPoly,
    Q,
    QT,
    RationalMap,
    check_cocycle,
    check_sigma_compatibility,
    format_rational,
    load_model_file,
    parse_element,
    parse_point,
    prolong_map_between_atlases,
    sample_point,
    sigma_pointwise,
    tangent_atlas,
    tangent_map,
    tau_atlas,
    tau_map,
    verify_chartwise_map,
)

from helpers import random_nonzero_poly, random_poly, rmap


def one_over_x(field):
    return rmap(field, ("x",), ["1/x"])


def projective_line(field):
    inv = one_over_x(field)
    return AtlasManifold("P1", field, 1, (1, 2), ("x",), {(1, 2): inv, (2, 1): inv})


def test_atlas_validation():
    with pytest.raises(ArityMismatch):
        AtlasManifold("M", Q, 2, (1,), ("x",), {})
    with pytest.raises(ValueError):
        AtlasManifold("M", Q, 1, (1, 1), ("x",), {})
    with pytest.raises(ValueError):
        AtlasManifold("M", Q, 1, (1, 2), ("x",), {(1, 3): one_over_x(Q)})
    with pytest.raises(ValueError):
        AtlasManifold("M", Q, 1, (1, 2), ("x",), {(1, 1): one_over_x(Q)})
    with pytest.raises(ArityMismatch):
        AtlasManifold("M", Q, 2, (1, 2), ("x", "y"), {(1, 2): one_over_x(Q)})
    with pytest.raises(ValueError):
        AtlasManifold("M", Q, 1, (1, 2), ("x",), {(1, 2): one_over_x(QT)})


def test_transition_lookup():
    m = projective_line(Q)
    ident = RationalMap.identity(Q, 1)
    assert m.transition(1, 1) == ident
    assert m.transition(1, 2) == one_over_x(Q)
    assert m.has_transition(2, 2) and m.has_transition(1, 2)
    assert not m.has_transition(3, 1)
    with pytest.raises(KeyError):
        m.transition(2, 3)


def test_cocycle_projective_line():
    report = check_cocycle(projective_line(QT))
    assert report.ok
    assert [e.name for e in report.entries] == ["inverse (1,2)"]


def test_cocycle_inverse_failure():
    bad = AtlasManifold(
        "M",
        Q,
        1,
        (1, 2),
        ("x",),
        {(1, 2): one_over_x(Q), (2, 1): rmap(Q, ("x",), ["2/x"])},
    )
    report = check_cocycle(bad)
    assert not report.ok
    entry = report.entries[0]
    assert entry.name == "inverse (1,2)"
    assert entry.witness == "(2*x)"


def test_cocycle_triple():
    inv = one_over_x(Q)
    ident = rmap(Q, ("x",), ["x"])
    good = AtlasManifold(
        "M", Q, 1, (1, 2, 3), ("x",), {(1, 2): ident, (2, 3): inv, (1, 3): inv}
    )
    report = check_cocycle(good)
    assert report.ok
    assert "triple (1,2,3)" in [e.name for e in report.entries]
    bad = AtlasManifold(
        "M",
        Q,
        1,
        (1, 2, 3),
        ("x",),
        {(1, 2): ident, (2, 3): inv, (1, 3): rmap(Q, ("x",), ["2/x"])},
    )
    assert not check_cocycle(bad).ok



def test_cocycle_zero_denominator():
    # 1/x after the zero map: the triple fails with the composition's message
    m = AtlasManifold(
        "M",
        Q,
        1,
        (1, 2, 3),
        ("x",),
        {(1, 2): rmap(Q, ("x",), ["0"]), (2, 3): one_over_x(Q), (1, 3): rmap(Q, ("x",), ["x"])},
    )
    report = check_cocycle(m)
    assert [e.as_dict() for e in report.entries] == [
        {
            "name": "triple (1,2,3)",
            "ok": False,
            "witness": "denominator vanishes identically after composition",
        }
    ]

def test_tau_atlas_of_projective_line():
    atlas = tau_atlas(projective_line(QT))
    assert atlas.dim == 2
    assert atlas.coord_names == ("x", "u_x")
    assert sorted(atlas.transitions) == [(1, 2), (2, 1)]
    piece = atlas.transition(1, 2)
    rendered = [format_rational(n, d, atlas.coord_names) for n, d in piece.components]
    assert rendered == ["1/x", "-u_x/x^2"]
    # the prolonged transitions satisfy the cocycle conditions again
    assert check_cocycle(atlas).ok


def test_tau_differs_from_tangent_for_t_transitions():
    t_inv = rmap(QT, ("x",), ["t/x"])
    m = AtlasManifold("M", QT, 1, (1, 2), ("x",), {(1, 2): t_inv, (2, 1): t_inv})
    assert check_cocycle(m).ok
    tau_piece = tau_atlas(m).transition(1, 2)
    tan_piece = tangent_atlas(m).transition(1, 2)
    names = ("x", "u_x")
    assert format_rational(*tau_piece.components[1], names) == "(x - t*u_x)/x^2"
    assert format_rational(*tan_piece.components[1], names) == "-t*u_x/x^2"


def test_prolong_rejects_broken_base():
    bad = AtlasManifold(
        "M",
        Q,
        1,
        (1, 2),
        ("x",),
        {(1, 2): one_over_x(Q), (2, 1): rmap(Q, ("x",), ["2/x"])},
    )
    with pytest.raises(CocycleViolation):
        tau_atlas(bad)


def test_sigma_compatibility_on_samples():
    m = projective_line(QT)
    rng = random.Random(7)
    checked = 0
    while checked < 10:
        (a,) = sample_point(QT, rng, 1)
        if a.is_zero:
            continue
        (u,) = sample_point(QT, rng, 1)
        assert check_sigma_compatibility(m, 1, 2, (a,), (u,))
        checked += 1


def test_tau_atlas_prolongs_each_transition_once(monkeypatch, capsys):
    calls = []
    for name in ("tangent_map", "tau_map"):
        real = getattr(prolongation_module, name)

        def counted(f, _name=name, _real=real):
            calls.append(_name)
            return _real(f)

        for module in (atlas_module, cli_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    model = str(Path(__file__).parent / "data" / "model_qt.json")
    assert cli_module.main(["tau-atlas", "-i", model, "-a", "P1"]) == 0
    entries = json.loads(capsys.readouterr().out)["details"]["sigma_compatibility"]
    assert [e["samples"] for e in entries] == [20, 20]
    assert calls.count("tangent_map") <= len(entries)
    assert calls.count("tau_map") <= len(entries)


def test_sigma_pointwise_shear():
    m = projective_line(QT)
    a = parse_point("t^2", QT)
    u = parse_point("1", QT)
    fp = sigma_pointwise(m, 1, a, u, other_chart=2)
    assert fp.base == a
    assert fp.fiber == (parse_element("1 + 2*t", QT),)
    # same chart skips the cross-chart comparison
    same = sigma_pointwise(m, 1, a, u, other_chart=1)
    assert same.fiber == fp.fiber


def test_sigma_pointwise_errors():
    m = projective_line(QT)
    with pytest.raises(ValueError):
        sigma_pointwise(m, 3, (QT.one,), (QT.one,))
    with pytest.raises(ArityMismatch):
        sigma_pointwise(m, 1, (QT.one, QT.one), (QT.one,))
    # the cross-chart check needs the transition to be defined at the point
    with pytest.raises(DenominatorVanishes):
        sigma_pointwise(m, 1, (QT.zero,), (QT.one,), other_chart=2)


def square_map(field):
    m = projective_line(field)
    sq = rmap(field, ("x",), ["x^2"])
    return ChartwiseMap(m, m, {(1, 1): sq, (2, 2): sq})


def test_chartwise_map_validation():
    m = projective_line(Q)
    with pytest.raises(ValueError):
        ChartwiseMap(m, m, {(1, 3): one_over_x(Q)})
    with pytest.raises(ArityMismatch):
        ChartwiseMap(m, m, {(1, 1): rmap(Q, ("x", "y"), ["x", "y"])})


def test_verify_chartwise_map():
    for field in (Q, QT):
        report = verify_chartwise_map(square_map(field))
        assert report.ok
        assert len(report.entries) == 2


def test_verify_chartwise_map_mismatch():
    m = projective_line(Q)
    bad = ChartwiseMap(
        m, m, {(1, 1): rmap(Q, ("x",), ["x^2"]), (2, 2): rmap(Q, ("x",), ["x^3"])}
    )
    report = verify_chartwise_map(bad)
    assert not report.ok
    # the witness is the conjugated representative, as check_cocycle shows composites
    witnesses = {e.name: e.witness for e in report.entries}
    assert witnesses == {
        "conjugation (1,1) vs (2,2)": "(x^2)",
        "conjugation (2,2) vs (1,1)": "(x^3)",
    }


def test_verify_chartwise_map_zero_denominator():
    m = projective_line(Q)
    zero = rmap(Q, ("x",), ["0"])
    report = verify_chartwise_map(ChartwiseMap(m, m, {(1, 1): zero, (2, 2): zero}))
    assert not report.ok
    # 1/x after the zero map has the zero polynomial as denominator
    assert [e.witness for e in report.entries] == [
        "denominator vanishes identically after composition"
    ] * 2



def test_verify_chartwise_map_zero_denominator_inside():
    # psi . (f . phi) with phi = 0, f = psi = 1/x: f . phi has a zero
    # denominator.  Composed the other way round, (psi . f) . phi = x . 0
    # would equal the piece 0 at (2,2) and pass.
    zero = rmap(Q, ("x",), ["0"])
    source = AtlasManifold("S", Q, 1, (1, 2), ("x",), {(2, 1): zero})
    target = AtlasManifold("T", Q, 1, (1, 2), ("x",), {(1, 2): one_over_x(Q)})
    f = ChartwiseMap(source, target, {(1, 1): one_over_x(Q), (2, 2): zero})
    report = verify_chartwise_map(f)
    assert [e.as_dict() for e in report.entries] == [
        {
            "name": "conjugation (1,1) vs (2,2)",
            "ok": False,
            "witness": "denominator vanishes identically after composition",
        }
    ]

def test_prolong_map_between_atlases():
    out = prolong_map_between_atlases(square_map(QT), kind="tau")
    assert out.source.dim == 2
    piece = out.pieces[(1, 1)]
    names = ("x", "u_x")
    assert format_rational(*piece.components[0], names) == "x^2"
    assert format_rational(*piece.components[1], names) == "2*x*u_x"
    # only the input is verified; functoriality makes the output well defined
    assert verify_chartwise_map(out).ok


def test_prolong_map_rejects_ill_defined():
    m = projective_line(Q)
    bad = ChartwiseMap(
        m, m, {(1, 1): rmap(Q, ("x",), ["x^2"]), (2, 2): rmap(Q, ("x",), ["x^3"])}
    )
    with pytest.raises(ChartIncompatibility):
        prolong_map_between_atlases(bad)
    with pytest.raises(ValueError):
        prolong_map_between_atlases(square_map(Q), kind="jet")


def test_sample_point_determinism():
    a = sample_point(QT, random.Random(11), 3)
    b = sample_point(QT, random.Random(11), 3)
    assert a == b
    assert len(a) == 3
    c = sample_point(Q, random.Random(11), 2)
    assert all(e.derive().is_zero for e in c)


def test_failed_checks_are_named_in_the_rejection():
    bad = AtlasManifold(
        "M", Q, 1, (1, 2), ("x",), {(1, 2): one_over_x(Q), (2, 1): rmap(Q, ("x",), ["2/x"])}
    )
    with pytest.raises(CocycleViolation) as err:
        tau_atlas(bad)
    assert str(err.value) == "base atlas fails cocycle checks: inverse (1,2)"
    m = projective_line(Q)
    ill = ChartwiseMap(
        m, m, {(1, 1): rmap(Q, ("x",), ["x^2"]), (2, 2): rmap(Q, ("x",), ["x^3"])}
    )
    with pytest.raises(ChartIncompatibility) as err:
        prolong_map_between_atlases(ill)
    assert str(err.value) == (
        "chartwise map is not well defined: conjugation (1,1) vs (2,2), "
        "conjugation (2,2) vs (1,1)"
    )


def test_report_require():
    report = CheckReport()
    report.add("a", True)
    report.require(ValueError, "never raised")
    report.add("b", False, "x")
    report.add("c", True)
    report.add("d", False)
    with pytest.raises(KeyError) as err:
        report.require(KeyError, "checks fail")
    assert err.value.args == ("checks fail: b, d",)


def reference_prolong(f, with_del):
    """tau(F) (or T(F) without the del term) by the per-partial quotient rule:
    fibre component sum_i (p_i.q - p.q_i) u_i + (p_del.q - p.q_del), over q^2."""
    n = f.in_arity
    ring = 2 * n
    base = list(range(n))
    head, fiber = [], []
    for p, q in f.components:
        head.append((p.embed(ring, base), q.embed(ring, base)))
        num = MultiPoly.zero(f.field, ring)
        for i in range(n):
            d = p.partial(i) * q - p * q.partial(i)
            num = num + d.embed(ring, base) * MultiPoly.var(f.field, ring, n + i)
        if with_del:
            num = num + (p.coeff_derive() * q - p * q.coeff_derive()).embed(ring, base)
        fiber.append((num, (q * q).embed(ring, base)))
    return RationalMap(f.field, ring, tuple(head + fiber))


def projective_space(n):
    return load_model_file(Path(__file__).parent / "data" / f"atlas_p{n}.json").atlas(f"P{n}")


@pytest.mark.parametrize("n", [2, 3])
def test_projective_space_atlas(n):
    m = projective_space(n)
    assert m.dim == n and len(m.charts) == n + 1
    assert len(m.transitions) == (n + 1) * n
    assert check_cocycle(m).ok
    for kind, prolong in (("tau", tau_atlas), ("tangent", tangent_atlas)):
        out = prolong(m)
        assert out.dim == 2 * n
        for key, phi in m.transitions.items():
            assert out.transitions[key] == reference_prolong(phi, kind == "tau")
        assert check_cocycle(out).ok


def test_passing_check_cocycle_reduces_no_composite(monkeypatch):
    """check_cocycle compares each composite with the stored transition
    unreduced: on P^3 and its tau atlas nothing is brought to canonical
    form."""
    import prolong.poly as poly_module

    m = projective_space(3)
    prolonged = tau_atlas(m)
    calls = []
    real = poly_module.reduce_fraction

    def counted(num, den):
        calls.append((num, den))
        return real(num, den)

    monkeypatch.setattr(poly_module, "reduce_fraction", counted)
    for atlas in (m, prolonged):
        assert check_cocycle(atlas).ok
    assert calls == []


def test_projective_space_chart_coordinates():
    # chart 1 has x1 = X1/X0, x2 = X2/X0; chart 3 has X0/X2, X1/X2
    m = projective_space(2)
    names = m.coord_names
    assert names == ("x1", "x2")
    assert [format_rational(*c, names) for c in m.transition(1, 3).components] == [
        "1/x2", "x1/x2"
    ]


def test_prolongation_matches_reference_quotient_rule(rng):
    names = ("x", "y")
    for _ in range(8):
        comps = []
        for _ in range(2):
            num = random_poly(rng, QT, 2, deg=2, terms=3, tdeg=1)
            den = random_nonzero_poly(rng, QT, 2, deg=2, terms=2, tdeg=1)
            comps.append((num, den))
        f = RationalMap(QT, 2, tuple(comps))
        for with_del, prolong in ((True, tau_map), (False, tangent_map)):
            assert prolong(f) == reference_prolong(f, with_del)
    f = rmap(QT, names, ["t*x/(x + y)", "1/(t*y + 1)"])
    assert tau_map(f) == reference_prolong(f, True)
