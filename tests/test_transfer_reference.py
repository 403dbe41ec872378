"""Fibre transfer against the per-coordinate eliminations it replaced.

reference_transfer is correspondence_transfer as it was built from
reference_matrix_through (one solve_affine per output coordinate),
reference_combination_respects (a null-space solve per direction) and
reference_affine_subspace_equal (five ranks).  The one-elimination
transfer must agree with it exactly on seeded correspondences over Q and
Q(t): the same matrices and offsets, the same verdict, the same inverse
and dimensions, and the same exceptions with the same messages.
"""

import random
from fractions import Fraction

import pytest

from prolong import (
    AffineVariety,
    Correspondence,
    MultiPoly,
    NoSolution,
    PolyMap,
    Q,
    QT,
    TransferNotFunctional,
    affine_subspace_equal,
    correspondence_transfer,
    derive_point,
    f_del,
    fiber_solve,
    in_span,
    rank,
    solve_affine,
)
from prolong.linalg import AffineMap, mat_mul, mat_vec
from prolong.prolongation import FiberTransfer, _fiber_system

from helpers import random_element, random_point, random_poly


def reference_matrix_through(inputs, outputs, in_dim, out_dim, field):
    rows = []
    for j in range(out_dim):
        system = [list(u) for u in inputs]
        rhs = [outputs[r][j] for r in range(len(inputs))]
        particular, _ = solve_affine(system, rhs, field, ncols=in_dim)
        rows.append(particular)
    return tuple(rows)


def reference_combination_respects(inputs, outputs, n_comb, field):
    if not inputs:
        return True
    cols = [[inputs[r][i] for r in range(n_comb)] for i in range(len(inputs[0]))]
    _, lam_basis = solve_affine(cols, [field.zero] * len(cols), field, ncols=n_comb)
    for lam in lam_basis:
        for j in range(len(outputs[0])):
            s = field.zero
            for r in range(n_comb):
                s = s + lam[r] * outputs[r][j]
            if not s.is_zero:
                return False
    return True


def reference_affine_subspace_equal(p1, basis1, p2, basis2, field):
    b1 = [list(b) for b in basis1]
    b2 = [list(b) for b in basis2]
    r1 = rank(b1, field)
    r2 = rank(b2, field)
    if r1 != r2:
        return False
    if r1 != rank(b1 + b2, field):
        return False
    diff = [a - b for a, b in zip(p1, p2)]
    return in_span(diff, b1, field) if any(not d.is_zero for d in diff) else True


def reference_transfer(corr, a, b):
    field = corr.left.field
    pa = corr.left.require_point(a)
    pb = corr.right.require_point(b)
    pair = pa + pb
    corr.graph.require_point(pair)
    n1 = corr.left.nvars
    n2 = corr.right.nvars
    source = fiber_solve(corr.left, pa, "tau")
    target = fiber_solve(corr.right, pb, "tau")
    rows, rhs = _fiber_system(corr.graph.gens, pair, "tau")
    try:
        s0, kernel = solve_affine(rows, rhs, field, ncols=n1 + n2)
    except NoSolution:
        raise NoSolution("tau equations of the graph are inconsistent at the point")
    u0, v0 = s0[:n1], s0[n1:]
    ku = [k[:n1] for k in kernel]
    kv = [k[n1:] for k in kernel]
    if kernel and not reference_combination_respects(ku, kv, len(kernel), field):
        raise TransferNotFunctional("relation sends one source fibre point to several targets")
    try:
        matrix = reference_matrix_through(ku, kv, n1, n2, field) if kernel else tuple(
            (field.zero,) * n1 for _ in range(n2)
        )
    except NoSolution:
        raise TransferNotFunctional("relation sends one source fibre point to several targets")
    offset = tuple(x - y for x, y in zip(v0, mat_vec(matrix, u0, field)))
    forward = AffineMap(field, matrix, offset)
    reverse_ok = reference_combination_respects(kv, ku, len(kernel), field) if kernel else True
    onto_source = reference_affine_subspace_equal(u0, ku, source.particular, source.basis, field)
    onto_target = reference_affine_subspace_equal(v0, kv, target.particular, target.basis, field)
    invertible = reverse_ok and onto_source and onto_target
    inverse = None
    if invertible:
        try:
            inv_matrix = reference_matrix_through(kv, ku, n2, n1, field) if kernel else tuple(
                (field.zero,) * n2 for _ in range(n1)
            )
        except NoSolution:
            raise TransferNotFunctional("reverse relation is not a map")
        inv_offset = tuple(x - y for x, y in zip(u0, mat_vec(inv_matrix, v0, field)))
        inverse = AffineMap(field, inv_matrix, inv_offset)
    return FiberTransfer(field, source, target, forward, invertible, inverse)


def _through(rng, field, nvars, point, deg=2):
    """A random polynomial that vanishes at point."""
    p = random_poly(rng, field, nvars, deg=deg, terms=3, tdeg=1)
    return p - p.evaluate(point)


def _singular(rng, field, nvars, point):
    """A product of two polynomials through point: its gradient vanishes there."""
    return _through(rng, field, nvars, point, deg=1) * _through(rng, field, nvars, point, deg=1)


def _point(rng, field, n):
    if rng.random() < 0.3:
        return tuple(field.elem(rng.choice((0, 0, 1, -1))) for _ in range(n))
    return random_point(rng, field, n, tdeg=1)


def _generator(rng, field, nvars, point):
    kind = rng.random()
    if kind < 0.2:
        return _singular(rng, field, nvars, point)
    return _through(rng, field, nvars, point)


def random_case(rng):
    """(correspondence, a, b): a graph of a map, a graph with its
    generators repeated or singular, or generic generators; through the
    point pair, or now and then off it."""
    field = rng.choice((Q, QT))
    style = rng.choice(("map", "map", "generic", "dependent"))
    n1 = rng.randint(1, 3)
    n2 = n1 if style == "map" and rng.random() < 0.5 else rng.randint(1, 3)
    n = n1 + n2
    a = _point(rng, field, n1)
    xs = [MultiPoly.var(field, n, i) for i in range(n)]
    if style == "map":
        fs = [random_poly(rng, field, n1, deg=2, terms=3, tdeg=1) for _ in range(n2)]
        b = tuple(f.evaluate(a) for f in fs)
        graph = [xs[n1 + j] - f.embed(n, list(range(n1))) for j, f in enumerate(fs)]
        if rng.random() < 0.3:
            del graph[rng.randint(0, n2) :]
    else:
        b = _point(rng, field, n2)
        graph = [_generator(rng, field, n, a + b) for _ in range(rng.randint(0, n))]
        if style == "dependent" and graph:
            g = rng.choice(graph)
            graph.append(g * random_element(rng, field, tdeg=1))
            graph.append(g * g)
    left_names = tuple(f"x{i}" for i in range(n1))
    right_names = tuple(f"y{j}" for j in range(n2))
    left = AffineVariety(
        "L", field, left_names,
        tuple(_generator(rng, field, n1, a) for _ in range(rng.randint(0, n1 - 1))),
    )
    right = AffineVariety(
        "R", field, right_names,
        tuple(_generator(rng, field, n2, b) for _ in range(rng.randint(0, n2 - 1))),
    )
    graph = graph[: n]
    if rng.random() < 0.7:
        corr = Correspondence.make(left, right, graph)
    else:
        ambient = AffineVariety("G", field, left_names + right_names, tuple(graph))
        corr = Correspondence(left, right, ambient)
    if rng.random() < 0.05:
        b = tuple(v + field.one for v in b)
    return corr, a, b


def outcome(transfer, corr, a, b):
    try:
        tr = transfer(corr, a, b)
    except Exception as exc:  # compared by class and message
        return ("error", type(exc).__name__, str(exc))
    inverse = None if tr.inverse is None else (tr.inverse.matrix, tr.inverse.offset)
    return (
        tr.forward.matrix,
        tr.forward.offset,
        tr.invertible,
        inverse,
        tr.source.dim,
        tr.target.dim,
        tr.source.ambient_dim,
        tr.target.ambient_dim,
    )


def test_transfer_matches_reference():
    rng = random.Random(20261019)
    kinds = {}
    for _ in range(1200):
        corr, a, b = random_case(rng)
        want = outcome(reference_transfer, corr, a, b)
        assert outcome(correspondence_transfer, corr, a, b) == want
        key = want[:2] if want[0] == "error" else ("invertible" if want[2] else "not invertible",)
        kinds[key] = kinds.get(key, 0) + 1
    # every verdict is exercised
    assert set(kinds) == {
        ("invertible",),
        ("not invertible",),
        ("error", "TransferNotFunctional"),
        ("error", "PointNotOnVariety"),
    }, kinds
    assert min(kinds.values()) >= 20, kinds


def test_derivative_lies_in_every_fibre():
    # (a, b) on the graph makes (da, db) a solution of the graph's tau
    # equations, and da, db lie in the fibres at a and at b: the transfer
    # needs no inconsistency branch, and each onto check compares spans.
    rng = random.Random(20261019)
    on_graph = 0
    for _ in range(1200):
        corr, a, b = random_case(rng)
        if not corr.graph.contains(a + b):
            continue
        on_graph += 1
        da, db = derive_point(a), derive_point(b)
        assert fiber_solve(corr.graph, a + b).contains(da + db)
        assert fiber_solve(corr.left, a).contains(da)
        if corr.right.contains(b):
            assert fiber_solve(corr.right, b).contains(db)
    assert on_graph >= 1000


def test_affine_subspace_equal_matches_reference(rng):
    for field in (Q, QT):
        for _ in range(300):
            dim = rng.randint(1, 3)

            def vec():
                if rng.random() < 0.3:
                    return tuple(field.zero for _ in range(dim))
                return random_point(rng, field, dim, tdeg=1)

            b1 = [vec() for _ in range(rng.randint(0, 3))]
            # often the same span, written another way
            if rng.random() < 0.5:
                b2 = [tuple(x * rng.choice((1, -2, 3)) for x in v) for v in reversed(b1)]
            else:
                b2 = [vec() for _ in range(rng.randint(0, 3))]
            p1 = vec()
            p2 = p1 if rng.random() < 0.5 else vec()
            assert affine_subspace_equal(p1, b1, p2, b2, field) == (
                reference_affine_subspace_equal(p1, b1, p2, b2, field)
            )


@pytest.mark.parametrize("field", [Q, QT])
def test_transfer_makes_one_elimination_per_direction(monkeypatch, field):
    from prolong import linalg

    x_line = AffineVariety("X", field, ("x",), ())
    y_line = AffineVariety("Y", field, ("y",), ())
    graph = MultiPoly(field, 2, {(0, 1): 1, (2, 0): -1})
    corr = Correspondence.make(x_line, y_line, (graph,))
    calls = []
    real = linalg.rref

    def counted(rows, f):
        calls.append(len(rows))
        return real(rows, f)

    monkeypatch.setattr(linalg, "rref", counted)
    monkeypatch.setattr("prolong.prolongation.rref", counted)
    tr = correspondence_transfer(corr, (field.elem(1),), (field.elem(1),))
    assert tr.invertible
    # the lines' fibres need no elimination; the graph y = x^2 needs one,
    # each direction one, and each of the two onto checks one rank
    assert len(calls) == 1 + 2 + 2 * 1


def _quotient_point(rng, field, n):
    """A point (a + b t)/(c + t) over Q(t), a/c over Q, a, b, c small integers."""
    out = []
    for _ in range(n):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        if field.has_t:
            out.append((field.elem(a) + field.elem(b) * field.t) / (field.elem(c) + field.t))
        else:
            out.append(field.elem(Fraction(a, c)))
    return tuple(out)


def _graph_case(rng, field, n, m):
    """(F, correspondence graph(F) inside A^n x A^m, a, F(a)); with n == m,
    now and then a last component that repeats the first up to a constant,
    so that J(a) is singular."""
    comps = [random_poly(rng, field, n, deg=2, terms=3, tdeg=1) for _ in range(m)]
    if n == m > 1 and rng.random() < 0.3:
        comps[-1] = comps[0] * rng.choice((1, -2, 3)) + random_element(rng, field, tdeg=1)
    fmap = PolyMap(field, n, tuple(comps))
    ys = [MultiPoly.var(field, n + m, n + j) for j in range(m)]
    graph = [y - f.embed(n + m, list(range(n))) for y, f in zip(ys, comps)]
    left = AffineVariety("L", field, tuple(f"x{i}" for i in range(n)), ())
    right = AffineVariety("R", field, tuple(f"y{j}" for j in range(m)), ())
    a = _quotient_point(rng, field, n)
    return fmap, Correspondence.make(left, right, graph), a, fmap.evaluate(a)


@pytest.mark.parametrize("field", [Q, QT])
def test_transfer_along_a_map_is_its_jacobian(field):
    # On graph(F) the tau fibres are all of K^n and K^m, and the transfer is
    # u -> J(a).u + f_del(F)(a); it is invertible iff n == m and J(a) is.
    rng = random.Random(5150)
    verdicts = set()
    for _ in range(120):
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        if rng.random() < 0.4:
            m = n
        fmap, corr, a, b = _graph_case(rng, field, n, m)
        tr = correspondence_transfer(corr, a, b)
        jac = tuple(tuple(p.evaluate(a) for p in row) for row in fmap.jacobian())
        assert tr.forward.matrix == jac
        assert tr.forward.offset == f_del(fmap).evaluate(a)
        regular = n == m and rank(jac, field) == n
        assert tr.invertible == regular
        if regular:
            identity = tuple(
                tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)
            )
            assert mat_mul(tr.inverse.matrix, jac, field) == identity
        else:
            assert tr.inverse is None
        assert outcome(correspondence_transfer, corr, a, b) == outcome(
            reference_transfer, corr, a, b
        )
        verdicts.add((n == m, tr.invertible))
    assert verdicts == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("field", [Q, QT])
@pytest.mark.parametrize("n,m", [(2, 1), (1, 2)])
def test_transfer_between_dimensions_makes_two_eliminations(monkeypatch, field, n, m):
    from prolong import linalg
    from prolong.field import FieldElement

    rng = random.Random(20261019)
    _, corr, a, b = _graph_case(rng, field, n, m)
    calls, inverses = [], []
    real_rref, real_inverse = linalg.rref, FieldElement.inverse

    def counted(rows, f):
        calls.append(len(rows))
        return real_rref(rows, f)

    def counted_inverse(x):
        inverses.append(x)
        return real_inverse(x)

    monkeypatch.setattr(linalg, "rref", counted)
    monkeypatch.setattr("prolong.prolongation.rref", counted)
    monkeypatch.setattr(FieldElement, "inverse", counted_inverse)
    tr = correspondence_transfer(corr, a, b)
    assert not tr.invertible
    # one elimination of the graph's fibre, whose pivots are the unit
    # entries of the target coordinates, and one forward; the reverse and
    # the ranks do not run between fibres of different dimensions
    assert len(calls) == 2
    assert inverses == []
