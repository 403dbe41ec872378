"""The cocycle and conjugation checks against a reference that reduces every
composite.

reference_check_composite composes each step of a chain to canonical form
and compares the result with RationalMap.equiv.  atlas._check_composite
compares the last substitution unreduced and reduces only a failing
composite, for its witness.  Both must give the same entries: names,
verdicts and witness strings.
"""

import random

import pytest

import prolong.atlas as atlas_module
from prolong import (
    AtlasManifold,
    ChartwiseMap,
    IdenticallyZeroDenominator,
    Q,
    QT,
    check_cocycle,
    format_rational,
    verify_chartwise_map,
)

from helpers import rmap


def reference_check_composite(report, name, maps, want, names):
    try:
        got = maps[-1]
        for outer in reversed(maps[:-1]):
            got = outer.compose(got)
        ok = got.equiv(want)
        witness = None if ok else atlas_module._map_str(got, names)
    except IdenticallyZeroDenominator as err:
        ok, witness = False, str(err)
    report.add(name, ok, witness)


def entries_both_ways(monkeypatch, check, arg):
    got = check(arg).entries
    with monkeypatch.context() as patch:
        patch.setattr(atlas_module, "_check_composite", reference_check_composite)
        want = check(arg).entries
    assert got == want
    return got


def coords(n):
    return tuple(f"x{k}" for k in range(1, n + 1))


def projective_exprs(n):
    """The transitions of the standard atlas of P^n as expressions, by the
    rule that writes tests/data/atlas_p3.json."""

    def x(a, k):
        return "1" if k == a else f"x{k + 1 if k < a else k}"

    return {
        (a + 1, b + 1): [f"{x(a, k)}/{x(a, b)}" for k in range(n + 1) if k != b]
        for a in range(n + 1)
        for b in range(n + 1)
        if a != b
    }


def perturbed(rng, field, exprs, n):
    """exprs with one seeded change: a shifted, scaled or zero component, two
    components swapped, or one divided by a new factor."""
    exprs = list(exprs)
    k = rng.randrange(len(exprs))
    c = rng.choice(("2", "3", "-1", "t" if field is QT else "5"))
    kind = rng.randrange(5)
    if kind == 0:
        exprs[k] = f"({exprs[k]}) + ({c})"
    elif kind == 1:
        exprs[k] = f"({c})*({exprs[k]})"
    elif kind == 2:
        j = (k + 1) % len(exprs)
        exprs[k], exprs[j] = exprs[j], exprs[k]
    elif kind == 3:
        exprs[k] = "0"
    else:
        exprs[k] = f"({exprs[k]})/(x{rng.randrange(n) + 1} + ({c}))"
    return exprs


def broken_projective_space(rng, field, n):
    names = coords(n)
    exprs = projective_exprs(n)
    keys = sorted(exprs)
    for _ in range(rng.randint(1, 2)):
        key = rng.choice(keys)
        exprs[key] = perturbed(rng, field, exprs[key], n)
    transitions = {key: rmap(field, names, e) for key, e in exprs.items()}
    return AtlasManifold(f"P{n}", field, n, tuple(range(1, n + 2)), names, transitions)


def tally(entries, seen):
    for e in entries:
        if e.ok:
            seen["pass"] += 1
        elif e.witness.startswith("denominator vanishes"):
            seen["zero"] += 1
        else:
            seen["witness"] += 1


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("field", [Q, QT], ids=["Q", "QT"])
def test_broken_atlases_match_the_reference(monkeypatch, field, n):
    rng = random.Random(1000 * n + (field is QT))
    seen = {"pass": 0, "witness": 0, "zero": 0}
    for _ in range(6):
        m = broken_projective_space(rng, field, n)
        entries = entries_both_ways(monkeypatch, check_cocycle, m)
        assert not all(e.ok for e in entries)
        tally(entries, seen)
    assert seen["pass"] and seen["witness"]


def test_zero_denominators_in_cocycle_checks_match_the_reference(monkeypatch):
    # chart 1's x1 is sent to 0, and the transitions out of chart 2 divide by it
    for field in (Q, QT):
        exprs = projective_exprs(3)
        exprs[1, 2] = ["0", "x2/x1", "x3/x1"]
        names = coords(3)
        transitions = {key: rmap(field, names, e) for key, e in exprs.items()}
        m = AtlasManifold("P3", field, 3, (1, 2, 3, 4), names, transitions)
        seen = {"pass": 0, "witness": 0, "zero": 0}
        tally(entries_both_ways(monkeypatch, check_cocycle, m), seen)
        assert seen["zero"] and seen["witness"] and seen["pass"]


def squaring_map(field, m, rng=None):
    """[X0 : ... : Xn] -> [X0^2 : ... : Xn^2] by one piece per chart pair:
    squaring in chart i, then the transition to chart j.  With rng, some
    pieces are perturbed."""
    n = m.dim
    names = m.coord_names
    square = rmap(field, names, [f"{x}^2" for x in names])
    pieces = {}
    for i in m.charts:
        for j in m.charts:
            piece = m.transition(i, j).compose(square)
            if rng is not None and rng.random() < 0.2:
                exprs = [format_rational(p, q, names) for p, q in piece.components]
                piece = rmap(field, names, perturbed(rng, field, exprs, n))
            pieces[i, j] = piece
    return ChartwiseMap(m, m, pieces)


@pytest.mark.parametrize("field", [Q, QT], ids=["Q", "QT"])
def test_conjugation_chains_match_the_reference(monkeypatch, field):
    names = coords(2)
    m = AtlasManifold(
        "P2", field, 2, (1, 2, 3), names,
        {key: rmap(field, names, e) for key, e in projective_exprs(2).items()},
    )
    entries = entries_both_ways(monkeypatch, verify_chartwise_map, squaring_map(field, m))
    assert len(entries) == 72 and all(e.ok for e in entries)
    rng = random.Random(7 + (field is QT))
    seen = {"pass": 0, "witness": 0, "zero": 0}
    for _ in range(4):
        f = squaring_map(field, m, rng)
        tally(entries_both_ways(monkeypatch, verify_chartwise_map, f), seen)
    assert seen["pass"] and seen["witness"] and seen["zero"]


def test_zero_denominator_inside_a_chain_matches_the_reference(monkeypatch):
    # f . phi has a zero denominator before the last substitution
    zero = rmap(Q, ("x",), ["0"])
    inv = rmap(Q, ("x",), ["1/x"])
    source = AtlasManifold("S", Q, 1, (1, 2), ("x",), {(2, 1): zero})
    target = AtlasManifold("T", Q, 1, (1, 2), ("x",), {(1, 2): inv})
    f = ChartwiseMap(source, target, {(1, 1): inv, (2, 2): zero})
    entries = entries_both_ways(monkeypatch, verify_chartwise_map, f)
    assert [e.witness for e in entries] == ["denominator vanishes identically after composition"]
