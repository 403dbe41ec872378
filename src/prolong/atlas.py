"""Chart-based manifolds as gluing data with rational transitions.

Chart domains are not represented: every identity is an identity of
rational maps (numerators over equal denominators, else by cross
multiplication), and evaluation at a
point where a denominator vanishes raises DenominatorVanishes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import (
    ArityMismatch,
    ChartIncompatibility,
    CocycleViolation,
    IdenticallyZeroDenominator,
)
from .field import BaseField, FieldElement, _trim
from .poly import RationalMap, _equal_pairs, _substitute
from .prolongation import FiberPoint, derive_point, fiber_names, tangent_map, tau_map
from .reporting import CheckReport


@dataclass
class AtlasManifold:
    """Gluing data: chart ids and rational transitions phi_(i,j): chart i to chart j."""

    name: str
    field: BaseField
    dim: int
    charts: tuple[int, ...]
    coord_names: tuple[str, ...]
    transitions: dict[tuple[int, int], RationalMap] = dataclass_field(default_factory=dict)

    def __post_init__(self):
        self.charts = tuple(self.charts)
        self.coord_names = tuple(self.coord_names)
        if len(self.coord_names) != self.dim:
            raise ArityMismatch(f"{len(self.coord_names)} coordinate names for dimension {self.dim}")
        if len(set(self.charts)) != len(self.charts):
            raise ValueError("duplicate chart ids")
        known = set(self.charts)
        for (i, j), m in self.transitions.items():
            if i not in known or j not in known:
                raise ValueError(f"transition ({i},{j}) references an unknown chart")
            if i == j:
                raise ValueError("the identity transition (i,i) is implicit; do not store it")
            if m.in_arity != self.dim or m.out_arity != self.dim:
                raise ArityMismatch(f"transition ({i},{j}) is not an endomap of dimension {self.dim}")
            if m.field != self.field:
                raise ValueError("transition field differs from atlas field")

    def transition(self, i: int, j: int) -> RationalMap:
        if i == j:
            return RationalMap.identity(self.field, self.dim)
        got = self.transitions.get((i, j))
        if got is None:
            raise KeyError(f"no transition from chart {i} to chart {j}")
        return got

    def has_transition(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.transitions


def check_cocycle(m: AtlasManifold) -> CheckReport:
    """Verify inverse and triple-composition closure on all stored transitions."""
    report = CheckReport()
    ident = RationalMap.identity(m.field, m.dim)
    for (i, j) in sorted(m.transitions):
        if (j, i) not in m.transitions:
            continue
        if i > j:
            continue
        pair = (m.transition(j, i), m.transition(i, j))
        _check_composite(report, f"inverse ({i},{j})", pair, ident, m.coord_names)
    for (i, j) in sorted(m.transitions):
        for k in m.charts:
            if k == i or k == j:
                continue
            if (j, k) not in m.transitions or (i, k) not in m.transitions:
                continue
            pair = (m.transition(j, k), m.transition(i, j))
            _check_composite(report, f"triple ({i},{j},{k})", pair, m.transition(i, k), m.coord_names)
    return report


def _check_composite(report: CheckReport, name: str, maps, want: RationalMap, names) -> None:
    """Add the check maps[0] . maps[1] . ... = want; a composite whose
    denominator vanishes identically fails with that message as witness.

    The last substitution, maps[0] into the rest, is compared with want
    unreduced; only a failing composite is reduced, for its witness.
    """
    outer, *rest = maps
    try:
        got = rest[-1]
        for m in reversed(rest[:-1]):
            got = m.compose(got)
        pairs = _substitute(outer.components, got, outer.in_arity)
        ok = _equal_pairs(pairs, want.components)
        witness = None if ok else _map_str(RationalMap(outer.field, got.in_arity, pairs), names)
    except IdenticallyZeroDenominator as err:
        ok, witness = False, str(err)
    report.add(name, ok, witness)


def _map_str(m: RationalMap, names: Sequence[str]) -> str:
    from .expr import format_rational

    return "(" + ", ".join(format_rational(n, d, names) for n, d in m.components) + ")"


def _prolong_atlas(m: AtlasManifold, kind: str) -> AtlasManifold:
    """The tangent or tau atlas of m, whose cocycle is checked first.

    The prolonged atlas is not checked again: prolongation is a functor,
    tau(g . f) = tau(g) . tau(f) and tau(id) = id, so every inverse and
    triple identity of the base transitions holds for their prolongations.
    """
    check_cocycle(m).require(CocycleViolation, "base atlas fails cocycle checks")
    prolong = tangent_map if kind == "tangent" else tau_map
    transitions = {key: prolong(phi) for key, phi in m.transitions.items()}
    names = m.coord_names + fiber_names(m.coord_names)
    return AtlasManifold(f"{kind}({m.name})", m.field, 2 * m.dim, m.charts, names, transitions)


def tangent_atlas(m: AtlasManifold) -> AtlasManifold:
    return _prolong_atlas(m, "tangent")


def tau_atlas(m: AtlasManifold) -> AtlasManifold:
    return _prolong_atlas(m, "tau")


def check_sigma_compatibility(
    m: AtlasManifold, i: int, j: int, a: Sequence, u: Sequence
) -> bool:
    """Transport (a, u) by D(phi_ij) and (a, u+da) by tau(phi_ij); compare shears.

    True when the tau-image equals the D-image shifted by the derivative
    of the transported base point.
    """
    phi = m.transition(i, j)
    pa = tuple(m.field.elem(v) for v in a)
    pu = tuple(m.field.elem(v) for v in u)
    if len(pa) != m.dim or len(pu) != m.dim:
        raise ArityMismatch(f"point and vector must have length {m.dim}")
    return _sigma_compatible(phi, tangent_map(phi), tau_map(phi), pa, pu)


def _sigma_compatible(
    phi: RationalMap, tangent: RationalMap, tau: RationalMap, pa: tuple, pu: tuple
) -> bool:
    """check_sigma_compatibility with D(phi) and tau(phi) built by the caller,
    once per transition; pa and pu are field elements of the right length.

    The base halves of D(phi)(a, u) and tau(phi)(a, u + da) are both
    phi(a), the image computed first, so only the fibre halves are
    evaluated and compared.  Their denominators divide the squares of
    phi's, so a point where one vanishes has already raised at phi(a).
    """
    n = len(pa)
    image = phi.evaluate(pa)
    v = RationalMap._of(tangent.field, 2 * n, tangent.components[n:]).evaluate(pa + pu)
    sheared = tuple(x + dx for x, dx in zip(pu, derive_point(pa)))
    tau_fibre = RationalMap._of(tau.field, 2 * n, tau.components[n:]).evaluate(pa + sheared)
    return tau_fibre == tuple(x + dx for x, dx in zip(v, derive_point(image)))


def sigma_pointwise(
    m: AtlasManifold, chart: int, a: Sequence, u: Sequence, other_chart: int | None = None
) -> FiberPoint:
    """The fibre shear (a, u) -> (a, u + da) in the given chart.

    When other_chart is supplied, the cross-chart compatibility of the
    shear is verified through the two prolonged transitions; failure
    raises ChartIncompatibility.
    """
    if chart not in m.charts:
        raise ValueError(f"unknown chart {chart}")
    pa = tuple(m.field.elem(v) for v in a)
    pu = tuple(m.field.elem(v) for v in u)
    if len(pa) != m.dim or len(pu) != m.dim:
        raise ArityMismatch(f"point and vector must have length {m.dim}")
    if other_chart is not None and other_chart != chart:
        if not check_sigma_compatibility(m, chart, other_chart, pa, pu):
            raise ChartIncompatibility(
                f"sigma images disagree across charts {chart} and {other_chart}"
            )
    return FiberPoint(pa, tuple(x + dx for x, dx in zip(pu, derive_point(pa))))


@dataclass
class ChartwiseMap:
    """A map between atlases given by one rational representative per chart pair.

    pieces[(i, j)] is the representative carrying source chart i into
    target chart j.
    """

    source: AtlasManifold
    target: AtlasManifold
    pieces: dict[tuple[int, int], RationalMap]

    def __post_init__(self):
        for (i, j), f in self.pieces.items():
            if i not in self.source.charts or j not in self.target.charts:
                raise ValueError(f"piece ({i},{j}) references an unknown chart")
            if f.in_arity != self.source.dim or f.out_arity != self.target.dim:
                raise ArityMismatch(f"piece ({i},{j}) has the wrong arity")


def sample_point(field: BaseField, rng: random.Random, dim: int) -> tuple[FieldElement, ...]:
    out = []
    for _ in range(dim):
        if field.has_t:
            # c0 + c1*t + c2*t^2 over the lcm of the denominators, in lowest terms
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3)]
            den = lcm(*[c.denominator for c in cs])
            num = [c.numerator * (den // c.denominator) for c in cs]
            g = gcd(den, *num)
            e = FieldElement(field, _trim([x // g for x in num]), (den // g,))
        else:
            e = field.elem(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        out.append(e)
    return tuple(out)


def verify_chartwise_map(f: ChartwiseMap) -> CheckReport:
    """Certify well-definedness: conjugating one representative by transitions
    must give the other, psi . f_(i,j) . phi = f_(i2,j2) as rational maps."""
    report = CheckReport()
    keys = sorted(f.pieces)
    for src_key in keys:
        for dst_key in keys:
            if src_key == dst_key:
                continue
            i, j = src_key
            i2, j2 = dst_key
            if not f.source.has_transition(i2, i) or not f.target.has_transition(j, j2):
                continue
            chain = (f.target.transition(j, j2), f.pieces[src_key], f.source.transition(i2, i))
            name = f"conjugation ({i},{j}) vs ({i2},{j2})"
            _check_composite(report, name, chain, f.pieces[dst_key], f.source.coord_names)
    return report


def prolong_map_between_atlases(f: ChartwiseMap, kind: str = "tau") -> ChartwiseMap:
    """Chartwise tangent/tau prolongation of a map certified well defined.

    Only f is verified: psi . f_(i,j) . phi = f_(i2,j2) gives
    tau(psi) . tau(f_(i,j)) . tau(phi) = tau(f_(i2,j2)) by functoriality,
    so the prolonged map is well defined too.
    """
    if kind not in ("tau", "tangent"):
        raise ValueError(f"unknown prolongation kind {kind!r}")
    verify_chartwise_map(f).require(ChartIncompatibility, "chartwise map is not well defined")
    prolong = tangent_map if kind == "tangent" else tau_map
    src = _prolong_atlas(f.source, kind)
    dst = _prolong_atlas(f.target, kind)
    return ChartwiseMap(src, dst, {key: prolong(piece) for key, piece in f.pieces.items()})
