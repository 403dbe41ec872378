"""Affine algebraic groups, their tau prolongations, and D-group checks.

Groups are presented as affine varieties with rational multiplication
and inverse; all identities are certified modulo Groebner bases of the
(stacked) defining ideals.  Identities between rational expressions are
compared after cross multiplication, and a cleared denominator that
vanishes identically on the variety raises IndeterminateOnVariety.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ArityMismatch,
    DenominatorVanishes,
    IndeterminateOnVariety,
    ProlongError,
)
from .field import FieldElement
from .groebner import DEFAULT_ORDER, GroebnerBasis, TermOrder, buchberger, normal_form
from .poly import MultiPoly, RationalMap, _equal_pairs, _substitute, map_product
from .prolongation import (
    AffineVariety,
    derive_point,
    tau_map,
    tau_variety,
)
from .reporting import CheckReport


def stacked_names(names: Sequence[str], copies: int) -> tuple[str, ...]:
    """x, y -> x1, y1, x2, y2, ... for identity witnesses in product rings."""
    out = []
    for k in range(1, copies + 1):
        out.extend(f"{n}{k}" for n in names)
    return tuple(out)


def _stacked_gb(
    v: AffineVariety, copies: int, order: TermOrder, degree_cap: int
) -> GroebnerBasis:
    n = v.nvars
    total = copies * n
    gens = []
    for k in range(copies):
        offset = k * n
        gens.extend(g.embed(total, list(range(offset, offset + n))) for g in v.gens)
    if not gens:
        return GroebnerBasis(order, total, ())
    return buchberger(gens, order, degree_cap)


@dataclass(eq=False)
class AffineAlgGroup:
    """Group law on an affine variety: mult is 2n -> n, inv is n -> n."""

    name: str
    variety: AffineVariety
    mult: RationalMap
    inv: RationalMap
    identity: tuple[FieldElement, ...]

    def __post_init__(self):
        self.mult = RationalMap.coerce(self.mult)
        self.inv = RationalMap.coerce(self.inv)
        n = self.variety.nvars
        if self.mult.in_arity != 2 * n or self.mult.out_arity != n:
            raise ArityMismatch(f"mult must map 2*{n} variables to {n}")
        if self.inv.in_arity != n or self.inv.out_arity != n:
            raise ArityMismatch(f"inv must map {n} variables to {n}")
        self.identity = self.variety.coerce_point(self.identity)

    @property
    def nvars(self) -> int:
        return self.variety.nvars


def _const_map(v: AffineVariety, values: Sequence[FieldElement]) -> RationalMap:
    n = v.nvars
    one = MultiPoly.const(v.field, n, 1)
    return RationalMap(
        v.field, n, tuple((MultiPoly.const(v.field, n, c), one) for c in values)
    )


def _fan_out(*maps: RationalMap) -> RationalMap:
    """x -> (f1(x), f2(x), ...) for maps f1, f2, ... of the same inputs; their
    components are canonical already."""
    comps = tuple(c for f in maps for c in f.components)
    return RationalMap._of(maps[0].field, maps[0].in_arity, comps)


def _compare_components(
    report: CheckReport,
    label: str,
    lhs: RationalMap,
    rhs: RationalMap,
    gb: GroebnerBasis,
    names: Sequence[str],
    degree_cap: int,
) -> None:
    from .expr import format_poly

    for k, ((ln, ld), (rn, rd)) in enumerate(zip(lhs.components, rhs.components)):
        for den in (ld, rd):
            if not den.is_constant and normal_form(den, gb, degree_cap).is_zero:
                raise IndeterminateOnVariety(
                    f"{label}: a cleared denominator vanishes identically on the variety"
                )
        # a canonical constant denominator is 1: compare the numerators
        if ld.is_constant and rd.is_constant:
            diff = rn - ln
        else:
            diff = rn * ld - ln * rd
        witness = normal_form(diff, gb, degree_cap)
        ok = witness.is_zero
        report.add(
            f"{label}: component {k}",
            ok,
            None if ok else format_poly(witness, names),
        )


def _axioms(
    g: AffineAlgGroup, degree_cap: int, order: TermOrder
) -> tuple[CheckReport, GroebnerBasis]:
    """The report of check_group_axioms, and the basis of the variety it built."""
    v = g.variety
    n = v.nvars
    report = CheckReport()
    report.add("identity point on variety", v.contains(g.identity))
    gb1 = _stacked_gb(v, 1, order, degree_cap)
    ident = RationalMap.identity(v.field, n)
    e_map = _const_map(v, g.identity)
    left = g.mult.compose(_fan_out(e_map, ident))
    _compare_components(report, "left identity", left, ident, gb1, v.var_names, degree_cap)
    right = g.mult.compose(_fan_out(ident, e_map))
    _compare_components(report, "right identity", right, ident, gb1, v.var_names, degree_cap)
    inverse = g.mult.compose(_fan_out(ident, g.inv))
    _compare_components(report, "inverse", inverse, e_map, gb1, v.var_names, degree_cap)
    gb3 = _stacked_gb(v, 3, order, degree_cap)
    names3 = stacked_names(v.var_names, 3)
    left_assoc = g.mult.compose(map_product(g.mult, ident))
    right_assoc = g.mult.compose(map_product(ident, g.mult))
    _compare_components(
        report, "associativity", left_assoc, right_assoc, gb3, names3, degree_cap
    )
    return report, gb1


def check_group_axioms(
    g: AffineAlgGroup, degree_cap: int = 40, order: TermOrder = DEFAULT_ORDER
) -> CheckReport:
    """Identity, inverse, and associativity modulo the stacked variety ideals."""
    return _axioms(g, degree_cap, order)[0]


class GroupAxiomViolation(ValueError):
    """The group axioms fail on a group; ``report`` is their CheckReport."""

    def __init__(self, g: AffineAlgGroup, report: CheckReport):
        bad = [e.name for e in report.entries if not e.ok]
        super().__init__(f"group axioms fail for {g.name}: {', '.join(bad)}")
        self.report = report


def _require_axioms(g: AffineAlgGroup, degree_cap: int, order: TermOrder) -> GroebnerBasis:
    """The basis of g's variety; GroupAxiomViolation when the axioms fail."""
    report, gb1 = _axioms(g, degree_cap, order)
    if not report.ok:
        raise GroupAxiomViolation(g, report)
    return gb1


@dataclass(eq=False)
class TauGroup:
    """The prolonged group on tau(V) with multiplication tau(m)."""

    base: AffineAlgGroup
    group: AffineAlgGroup

    @property
    def variety(self) -> AffineVariety:
        return self.group.variety

    @property
    def mult(self) -> RationalMap:
        return self.group.mult

    @property
    def identity(self) -> tuple[FieldElement, ...]:
        return self.group.identity


def _interleave_permutation(n: int) -> list[int]:
    """Input reorder of tau(m): (x, y, u, v) blocks to ((x, u), (y, v))."""
    perm = [0] * (4 * n)
    for k in range(n):
        perm[k] = k
        perm[n + k] = 2 * n + k
        perm[2 * n + k] = n + k
        perm[3 * n + k] = 3 * n + k
    return perm


def tau_group(
    g: AffineAlgGroup, degree_cap: int = 40, order: TermOrder = DEFAULT_ORDER
) -> TauGroup:
    """Prolong the group law; re-verifies the axioms on the output.

    Raises GroupAxiomViolation when the axioms fail on g.
    """
    _require_axioms(g, degree_cap, order)
    n = g.nvars
    total = tau_variety(g.variety).total
    tmult = tau_map(g.mult).permute_inputs(_interleave_permutation(n))
    tinv = tau_map(g.inv)
    tidentity = g.identity + derive_point(g.identity)
    out = AffineAlgGroup(f"tau({g.name})", total, tmult, tinv, tidentity)
    base_on_xy = g.mult.embed_inputs(4 * n, list(range(n)) + list(range(2 * n, 3 * n)))
    if not _equal_pairs(tmult.components[:n], base_on_xy.components):
        raise ProlongError("projection of the prolonged multiplication differs from the base law")
    check_group_axioms(out, degree_cap, order).require(
        ProlongError, "prolonged group fails re-verification"
    )
    return TauGroup(g, out)


@dataclass(frozen=True)
class DGroupSection:
    """Fibre half of a candidate section s(g) = (g, sigma(g))."""

    sigma: RationalMap


@dataclass
class DGroup:
    """A group with a candidate D-group section."""

    group: AffineAlgGroup
    section: DGroupSection


def zero_section_T(g: AffineAlgGroup) -> DGroupSection:
    """sigma = 0: the canonical section of T(G) over a constant field."""
    return DGroupSection(_const_map(g.variety, (g.variety.field.zero,) * g.nvars))


def check_dgroup(
    g: AffineAlgGroup,
    s: DGroupSection,
    degree_cap: int = 40,
    order: TermOrder = DEFAULT_ORDER,
) -> CheckReport:
    """Section condition into tau(V) and the homomorphism condition for sigma.

    Checks the group axioms first and raises GroupAxiomViolation when they
    fail.
    """
    from .expr import format_poly

    gb1 = _require_axioms(g, degree_cap, order)
    v = g.variety
    n = v.nvars
    sigma = RationalMap.coerce(s.sigma)
    if sigma.in_arity != n or sigma.out_arity != n:
        raise ArityMismatch(f"sigma must map {n} variables to {n}")
    report = CheckReport()
    try:
        sigma.evaluate(g.identity)
        report.add("sigma defined at identity", True)
    except DenominatorVanishes:
        report.add("sigma defined at identity", False, "denominator vanishes at e")
    # s = (x, sigma(x)) into tau(V), with its denominators cleared: reducing
    # the fractions first could cancel one that vanishes on the variety.
    graph = _fan_out(RationalMap.identity(v.field, n), sigma)
    tau_total = tau_variety(v).total
    one = MultiPoly.const(v.field, tau_total.nvars, 1)
    pairs = _substitute([(gen, one) for gen in tau_total.gens], graph, tau_total.nvars)
    for idx, (num, den) in enumerate(pairs):
        if not den.is_constant and normal_form(den, gb1, degree_cap).is_zero:
            raise IndeterminateOnVariety(
                "section check: a cleared denominator vanishes identically on the variety"
            )
        witness = normal_form(num, gb1, degree_cap)
        ok = witness.is_zero
        report.add(
            f"section: generator {idx}",
            ok,
            None if ok else format_poly(witness, v.var_names),
        )
    gb2 = _stacked_gb(v, 2, order, degree_cap)
    names2 = stacked_names(v.var_names, 2)
    lhs = sigma.compose(g.mult)
    # (x, y) -> (x, y, sigma(x), sigma(y)), the input layout of tau(m)
    send = _fan_out(RationalMap.identity(v.field, 2 * n), map_product(sigma, sigma))
    # only the fibre half of tau(m) is compared, so only it meets send
    tmult = tau_map(g.mult)
    rhs = RationalMap._of(v.field, 4 * n, tmult.components[n:]).compose(send)
    _compare_components(report, "homomorphism", lhs, rhs, gb2, names2, degree_cap)
    return report


def nabla_hom_check(g: AffineAlgGroup, a: Sequence, b: Sequence) -> bool:
    """nabla(m(a,b)) = tau(m)(nabla a, nabla b) at the given points."""
    pa = g.variety.require_point(a)
    pb = g.variety.require_point(b)
    c = g.mult.evaluate(pa + pb)
    expected = c + derive_point(c)
    got = tau_map(g.mult).evaluate(pa + pb + derive_point(pa) + derive_point(pb))
    return got == expected


def dpoint_check(d: DGroup, point: Sequence) -> bool:
    """Whether sigma(g) = dg, the sharp-point condition."""
    pg = d.group.variety.require_point(point)
    sigma = RationalMap.coerce(d.section.sigma)
    return sigma.evaluate(pg) == derive_point(pg)
