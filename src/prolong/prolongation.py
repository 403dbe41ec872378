"""Prolongation calculus on affine varieties, maps, and correspondences.

For a map F over a differential field: f_del applies the derivation to
the coefficients, tangent_map doubles variables to (x, u) with linear
fibre DF.u, tau_map adds the inhomogeneous coefficient term F_del(x) so
that the compatibility identity d(F(a)) = DF_a.da + F_del(a) holds.
tangent_variety and tau_variety build the corresponding first
prolongations of a variety; correspondence_transfer moves tau fibres
along the graph of a correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ArityMismatch, PointNotOnVariety, TransferNotFunctional
from .field import BaseField, FieldElement
from .linalg import (
    AffineMap,
    Vector,
    in_span,
    mat_vec,
    rank,
    rref,
    solve_affine,
)
from .poly import MultiPoly, PolyMap, RationalMap


@dataclass(frozen=True)
class AffineVariety:
    """Zero set of gens inside affine space with named coordinates."""

    name: str
    field: BaseField
    var_names: tuple[str, ...]
    gens: tuple[MultiPoly, ...]

    def __post_init__(self):
        object.__setattr__(self, "var_names", tuple(self.var_names))
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError(f"duplicate variable names in {self.name}")
        gens = tuple(g for g in self.gens if not g.is_zero)
        object.__setattr__(self, "gens", gens)
        for g in gens:
            if g.nvars != self.nvars:
                raise ArityMismatch(
                    f"generator in {g.nvars} variables, variety has {self.nvars}"
                )
            if g.field != self.field:
                raise ValueError("generator field differs from variety field")

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def coerce_point(self, point: Sequence) -> tuple[FieldElement, ...]:
        if len(point) != self.nvars:
            raise ArityMismatch(f"point of length {len(point)}, expected {self.nvars}")
        return tuple(self.field.elem(v) for v in point)

    def contains(self, point: Sequence) -> bool:
        pt = self.coerce_point(point)
        return not any(PolyMap(self.field, self.nvars, self.gens).evaluate(pt))

    def require_point(self, point: Sequence) -> tuple[FieldElement, ...]:
        pt = self.coerce_point(point)
        if any(PolyMap(self.field, self.nvars, self.gens).evaluate(pt)):
            raise PointNotOnVariety(f"point fails a defining equation of {self.name}")
        return pt


def fiber_names(var_names: Sequence[str]) -> tuple[str, ...]:
    return tuple(f"u_{name}" for name in var_names)


@dataclass(frozen=True)
class ProlongedVariety:
    """First prolongation: base variety plus its total space in doubled variables."""

    kind: str  # "tangent" or "tau"
    base: AffineVariety
    total: AffineVariety


def derive_point(point: Sequence[FieldElement]) -> tuple[FieldElement, ...]:
    return tuple(v.derive() for v in point)


@dataclass(frozen=True)
class FiberPoint:
    """A point of a prolonged space: base point a and fibre vector u."""

    base: tuple[FieldElement, ...]
    fiber: tuple[FieldElement, ...]

    def __post_init__(self):
        if len(self.base) != len(self.fiber):
            raise ArityMismatch("base point and fibre vector lengths differ")


def nabla(
    point: Sequence, r: int = 1, field: BaseField | None = None
) -> tuple[tuple[FieldElement, ...], ...]:
    """The sequence (a, da, ..., d^r a) of iterated derivatives of a point."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if field is not None:
        current = tuple(field.elem(v) for v in point)
    else:
        current = tuple(point)
        if not all(isinstance(v, FieldElement) for v in current):
            raise ValueError("point entries must be field elements when no field is given")
    out = [current]
    for _ in range(r):
        current = derive_point(current)
        out.append(current)
    return tuple(out)


def _embed_base(p: MultiPoly, total: int) -> MultiPoly:
    return p.embed(total, list(range(p.nvars)))


def _fiber_generator(p: MultiPoly, with_del: bool) -> MultiPoly:
    """DP.u, optionally plus P_del, inside the doubled ring.

    A term c.x^m gives c.m_i.x^(m - e_i).u_i for each m_i > 0, and c_del.x^m;
    these monomials are all distinct, so the terms are written, not summed.
    """
    n = p.nvars
    zeros = (0,) * n
    terms = {}
    for i in range(n):
        unit = zeros[:i] + (1,) + zeros[i + 1 :]
        for mono, c in p.terms.items():
            e = mono[i]
            if e:
                terms[mono[:i] + (e - 1,) + mono[i + 1 :] + unit] = c * e
    if with_del:
        for mono, c in p.terms.items():
            d = c.derive()
            if not d.is_zero:
                terms[mono + zeros] = d
    return MultiPoly._of(p.field, 2 * n, terms)


def _prolong_variety(v: AffineVariety, kind: str) -> ProlongedVariety:
    names = v.var_names + fiber_names(v.var_names)
    gens = [_embed_base(g, 2 * v.nvars) for g in v.gens]
    gens += [_fiber_generator(g, with_del=(kind == "tau")) for g in v.gens]
    total = AffineVariety(f"{kind}({v.name})", v.field, names, tuple(gens))
    return ProlongedVariety(kind, v, total)


def tangent_variety(v: AffineVariety) -> ProlongedVariety:
    """T(V): pairs (x, u) with P(x) = 0 and DP_x.u = 0."""
    return _prolong_variety(v, "tangent")


def tau_variety(v: AffineVariety) -> ProlongedVariety:
    """tau(V): pairs (x, u) with P(x) = 0 and DP_x.u + P_del(x) = 0."""
    return _prolong_variety(v, "tau")


def product_variety(v: AffineVariety, w: AffineVariety, name: str | None = None) -> AffineVariety:
    if v.field != w.field:
        raise ValueError("mixed fields in product")
    names = v.var_names + w.var_names
    n = len(names)
    gens = [g.embed(n, list(range(v.nvars))) for g in v.gens]
    gens += [g.embed(n, list(range(v.nvars, n))) for g in w.gens]
    return AffineVariety(name or f"{v.name}x{w.name}", v.field, names, tuple(gens))


def f_del(f):
    """Coefficientwise derivation of a map: for rational p/q, (p_del.q - p.q_del)/q^2."""
    if isinstance(f, PolyMap):
        return f.coeff_derive()
    if f.is_polynomial():
        return f.as_polymap().coeff_derive().as_rational()
    comps = []
    for p, q in f.components:
        num = p.coeff_derive() * q - p * q.coeff_derive()
        comps.append((num, q * q))
    return RationalMap(f.field, f.in_arity, tuple(comps))


def _prolong_map(f, with_del: bool):
    """(F(x), F'(x, u)) with F' = _fiber_generator of each component; for p/q
    the fibre is the quotient rule (F'(p).q - p.F'(q))/q^2."""
    n = f.in_arity
    if isinstance(f, PolyMap):
        head = [_embed_base(c, 2 * n) for c in f.components]
        fiber = [_fiber_generator(c, with_del) for c in f.components]
        return PolyMap(f.field, 2 * n, tuple(head + fiber))
    if f.is_polynomial():
        return _prolong_map(f.as_polymap(), with_del).as_rational()
    head = []
    fiber = []
    for p, q in f.components:
        p2 = _embed_base(p, 2 * n)
        q2 = _embed_base(q, 2 * n)
        head.append((p2, q2))
        num = _fiber_generator(p, with_del) * q2 - p2 * _fiber_generator(q, with_del)
        fiber.append((num, q2 * q2))
    return RationalMap(f.field, 2 * n, tuple(head + fiber))


def tangent_map(f):
    """T(F)(x, u) = (F(x), DF_x.u)."""
    return _prolong_map(f, with_del=False)


def tau_map(f):
    """tau(F)(x, u) = (F(x), DF_x.u + F_del(x))."""
    return _prolong_map(f, with_del=True)


def check_nabla_in_tau(v: AffineVariety, point: Sequence) -> bool:
    """Whether (a, da) satisfies the equations of tau(V) for a on V."""
    a = v.require_point(point)
    prolonged = tau_variety(v)
    return prolonged.total.contains(a + derive_point(a))


@dataclass(frozen=True)
class AffineFiberDescription:
    """Affine subspace particular + span(basis), as a solution set."""

    field: BaseField
    particular: Vector
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.particular)

    def contains(self, u: Sequence) -> bool:
        vec = tuple(self.field.elem(x) for x in u)
        if len(vec) != self.ambient_dim:
            raise ArityMismatch("vector length differs from ambient dimension")
        diff = [a - b for a, b in zip(vec, self.particular)]
        return in_span(diff, self.basis, self.field)


def _fiber_system(
    gens: Sequence[MultiPoly], point: Sequence[FieldElement], kind: str
) -> tuple[list, list]:
    """Rows DP(a) and right-hand sides -P_del(a) (0 for T) of the fibre
    equations, from one evaluation of all partials at the point."""
    if not gens:
        return [], []
    field, n = gens[0].field, gens[0].nvars
    polys = [g.partial(i) for g in gens for i in range(n)]
    if kind == "tau":
        polys += [g.coeff_derive() for g in gens]
    values = PolyMap(field, n, tuple(polys)).evaluate(point)
    rows = [list(values[k * n : (k + 1) * n]) for k in range(len(gens))]
    if kind == "tau":
        return rows, [-v for v in values[len(gens) * n :]]
    return rows, [field.zero] * len(gens)


def fiber_solve(v: AffineVariety, point: Sequence, kind: str = "tau") -> AffineFiberDescription:
    """Solve the fibre of tau(V) (or T(V)) over a point of V."""
    if kind not in ("tau", "tangent"):
        raise ValueError(f"unknown prolongation kind {kind!r}")
    a = v.require_point(point)
    rows, rhs = _fiber_system(v.gens, a, kind)
    particular, kernel = solve_affine(rows, rhs, v.field, ncols=v.nvars)
    return AffineFiberDescription(v.field, particular, kernel)


@dataclass(frozen=True)
class Correspondence:
    """A subvariety of left x right regarded as a relation."""

    left: AffineVariety
    right: AffineVariety
    graph: AffineVariety

    @classmethod
    def make(
        cls, left: AffineVariety, right: AffineVariety, graph_gens: Sequence[MultiPoly]
    ) -> "Correspondence":
        if left.field != right.field:
            raise ValueError("mixed fields in correspondence")
        ambient = product_variety(left, right, name="ambient")
        graph = AffineVariety(
            f"graph({left.name},{right.name})",
            left.field,
            ambient.var_names,
            tuple(ambient.gens) + tuple(graph_gens),
        )
        return cls(left, right, graph)


@dataclass(frozen=True)
class FiberTransfer:
    """Affine transfer of tau fibres along a correspondence at a point pair."""

    field: BaseField
    source: AffineFiberDescription
    target: AffineFiberDescription
    forward: AffineMap
    invertible: bool
    inverse: AffineMap | None


def _linear_part(
    inputs: Sequence[Vector], outputs: Sequence[Vector], in_dim: int, out_dim: int, field: BaseField
):
    """Matrix M with M.inputs[r] = outputs[r] and free entries zero, from one
    rref of the rows (inputs[r] | outputs[r]); None when a pivot falls in the
    output block, i.e. a combination of the rows kills the inputs and not the
    outputs."""
    reduced, pivots = rref([tuple(a) + tuple(b) for a, b in zip(inputs, outputs)], field)
    if pivots and pivots[-1] >= in_dim:
        return None
    matrix = [[field.zero] * in_dim for _ in range(out_dim)]
    for row, col in zip(reduced, pivots):
        for j in range(out_dim):
            matrix[j][col] = row[in_dim + j]
    return tuple(tuple(r) for r in matrix)


def correspondence_transfer(
    corr: Correspondence, a: Sequence, b: Sequence
) -> FiberTransfer:
    """Transfer of the tau fibre at a to the tau fibre at b along the graph.

    The tau prolongation of the graph, over the point (a, b), is an affine
    relation between fibre coordinates u and v.  When it is the graph of a
    map the forward affine map is returned; it is marked invertible when
    the relation is a bijection between the two full fibres.
    """
    field = corr.left.field
    n1 = corr.left.nvars
    n2 = corr.right.nvars
    source = fiber_solve(corr.left, a, "tau")
    target = fiber_solve(corr.right, b, "tau")
    pair = corr.graph.require_point(tuple(a) + tuple(b))
    # The graph's fibre with the v columns first: on a graph y - F(x) the
    # pivots are the unit entries of v, and (ku | kv) comes out reduced.
    rows, rhs = _fiber_system(corr.graph.gens, pair, "tau")
    solution, kernel = solve_affine(
        [row[n1:] + row[:n1] for row in rows], rhs, field, ncols=n1 + n2
    )
    v0, u0 = solution[:n2], solution[n2:]
    kv = [k[:n2] for k in kernel]
    ku = [k[n2:] for k in kernel]
    matrix = _linear_part(ku, kv, n1, n2, field)
    if matrix is None:
        raise TransferNotFunctional("relation sends one source fibre point to several targets")
    offset = tuple(x - y for x, y in zip(v0, mat_vec(matrix, u0, field)))
    forward = AffineMap(field, matrix, offset)
    inverse = None
    # A bijection of the full fibres needs equal dimensions; only then does
    # the reverse elimination run.  Both directions functional: the ku are
    # independent, and so are the kv.  da (db) lies in u0 + span(ku) and in
    # the source (target) fibre, so one rank per side compares the spans
    # (README "Fibres and transfer").
    if len(ku) == source.dim == target.dim:
        inv_matrix = _linear_part(kv, ku, n2, n1, field)
        if (
            inv_matrix is not None
            and rank([*ku, *source.basis], field) == source.dim
            and rank([*kv, *target.basis], field) == target.dim
        ):
            inv_offset = tuple(x - y for x, y in zip(u0, mat_vec(inv_matrix, v0, field)))
            inverse = AffineMap(field, inv_matrix, inv_offset)
    return FiberTransfer(field, source, target, forward, inverse is not None, inverse)
