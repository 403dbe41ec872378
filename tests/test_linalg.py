from fractions import Fraction

import pytest

from prolong import (
    AffineMap,
    ArityMismatch,
    NoSolution,
    Q,
    QT,
    affine_subspace_equal,
    in_span,
    parse_element,
    rank,
    rref,
    solve_affine,
)

from helpers import random_element


def vec(field, *vals):
    return tuple(field.elem(Fraction(v)) for v in vals)


def mat(field, rows):
    return tuple(vec(field, *row) for row in rows)


def test_rref_identity_block():
    m = mat(Q, [[2, 0], [0, 3]])
    reduced, pivots = rref(m, Q)
    assert reduced == mat(Q, [[1, 0], [0, 1]])
    assert pivots == (0, 1)


def test_rref_dependent_rows():
    m = mat(Q, [[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    reduced, pivots = rref(m, Q)
    assert pivots == (0, 1)
    assert reduced[2] == vec(Q, 0, 0, 0)
    assert reduced[0] == vec(Q, 1, 0, -1)
    assert reduced[1] == vec(Q, 0, 1, 2)


def test_rref_empty():
    assert rref((), Q) == ((), ())


def reference_rref(rows, field):
    """Plain Gauss-Jordan: scale every pivot row, eliminate every column."""
    m = [list(r) for r in rows]
    if not m:
        return (), ()
    pivots = []
    r = 0
    for col in range(len(m[0])):
        pivot_row = next((i for i in range(r, len(m)) if not m[i][col].is_zero), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = m[r][col].inverse()
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and not m[i][col].is_zero:
                factor = m[i][col]
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m), tuple(pivots)


def _random_matrix(rng, field):
    """Entries zero, one, or random; now and then a zero row or column, a
    row repeating a combination of others, or more rows than columns."""
    nrows, ncols = rng.randint(1, 5), rng.randint(1, 4)

    def entry():
        kind = rng.random()
        if kind < 0.3:
            return field.zero
        if kind < 0.45:
            return field.one
        return random_element(rng, field, tdeg=1)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [field.zero] * ncols
    if rng.random() < 0.3:
        col = rng.randrange(ncols)
        for row in rows:
            row[col] = field.zero
    if nrows > 1 and rng.random() < 0.4:
        c = random_element(rng, field, tdeg=1)
        rows[-1] = [x * c + y for x, y in zip(rows[0], rows[1 % (nrows - 1)])]
    return [tuple(row) for row in rows]


@pytest.mark.parametrize("field", [Q, QT])
def test_rref_matches_plain_gauss_jordan(monkeypatch, rng, field):
    from prolong.field import FieldElement

    real_mul = FieldElement.__mul__
    unit_products = []

    def mul(x, y):
        if x.is_one or (isinstance(y, FieldElement) and y.is_one):
            unit_products.append((x, y))
        return real_mul(x, y)

    shapes = set()
    for _ in range(300):
        m = _random_matrix(rng, field)
        want = reference_rref(m, field)
        monkeypatch.setattr(FieldElement, "__mul__", mul)
        got = rref(m, field)
        monkeypatch.setattr(FieldElement, "__mul__", real_mul)
        assert got == want
        # the pivot 1 is not divided out, and no product has a factor 1
        assert unit_products == []
        shapes.add((len(want[1]) < min(len(m), len(m[0])), len(m) > len(m[0])))
    # rank-deficient and full, taller and not
    assert shapes == {(True, True), (True, False), (False, True), (False, False)}


def test_solve_unique():
    # x + y = 3, x - y = 1
    sol, kernel = solve_affine(mat(Q, [[1, 1], [1, -1]]), vec(Q, 3, 1), Q)
    assert sol == vec(Q, 2, 1)
    assert kernel == ()


def test_solve_underdetermined():
    # x + y + z = 1: free variables get zero in the particular solution
    sol, kernel = solve_affine(mat(Q, [[1, 1, 1]]), vec(Q, 1), Q)
    assert sol == vec(Q, 1, 0, 0)
    assert len(kernel) == 2
    for k in kernel:
        assert sum(k, Q.zero).is_zero


def test_solve_inconsistent():
    with pytest.raises(NoSolution):
        solve_affine(mat(Q, [[1, 1], [2, 2]]), vec(Q, 1, 3), Q)


def test_solve_empty_system():
    sol, kernel = solve_affine((), (), Q, ncols=2)
    assert sol == vec(Q, 0, 0)
    assert kernel == (vec(Q, 1, 0), vec(Q, 0, 1))
    with pytest.raises(ValueError):
        solve_affine((), (), Q)


def test_solve_shape_errors():
    with pytest.raises(ArityMismatch):
        solve_affine(mat(Q, [[1, 1], [1]]), vec(Q, 1, 1), Q, ncols=2)
    with pytest.raises(ArityMismatch):
        solve_affine(mat(Q, [[1, 1]]), vec(Q, 1, 2), Q)


def test_solve_over_function_field():
    # t*x = 1 has the exact solution x = 1/t
    tt = parse_element("t", QT)
    sol, kernel = solve_affine(((tt,),), (QT.one,), QT)
    assert sol == (parse_element("1/t", QT),)
    assert kernel == ()


def test_rank():
    assert rank((), Q) == 0
    assert rank(mat(Q, [[1, 2], [2, 4]]), Q) == 1
    assert rank(mat(Q, [[1, 0], [0, 1]]), Q) == 2


def test_in_span():
    basis = mat(Q, [[1, 0, 1], [0, 1, 1]])
    assert in_span(vec(Q, 2, 3, 5), basis, Q)
    assert not in_span(vec(Q, 1, 0, 0), basis, Q)
    assert in_span(vec(Q, 0, 0, 0), (), Q)
    assert not in_span(vec(Q, 1, 0, 0), (), Q)


def test_affine_subspace_equal():
    # the line (1,0) + span{(1,1)} equals (0,-1) + span{(2,2)}
    assert affine_subspace_equal(
        vec(Q, 1, 0), (vec(Q, 1, 1),), vec(Q, 0, -1), (vec(Q, 2, 2),), Q
    )
    # parallel but distinct lines
    assert not affine_subspace_equal(
        vec(Q, 1, 0), (vec(Q, 1, 1),), vec(Q, 0, 0), (vec(Q, 1, 1),), Q
    )
    # different directions through the same point
    assert not affine_subspace_equal(
        vec(Q, 0, 0), (vec(Q, 1, 1),), vec(Q, 0, 0), (vec(Q, 1, 0),), Q
    )
    # dimension mismatch
    assert not affine_subspace_equal(
        vec(Q, 0, 0), (vec(Q, 1, 0), vec(Q, 0, 1)), vec(Q, 0, 0), (vec(Q, 1, 0),), Q
    )


def test_affine_map_apply_and_compose():
    f = AffineMap(Q, mat(Q, [[2, 0], [0, 3]]), vec(Q, 1, -1))
    g = AffineMap(Q, mat(Q, [[1, 1]]), vec(Q, 5))
    x = vec(Q, 1, 2)
    assert f.apply(x) == vec(Q, 3, 5)
    assert g.compose(f).apply(x) == g.apply(f.apply(x))
    assert f.in_dim == 2 and f.out_dim == 2
    assert g.compose(f).out_dim == 1


def test_affine_map_shape_guard():
    with pytest.raises(ArityMismatch):
        AffineMap(Q, mat(Q, [[1, 0]]), vec(Q, 1, 2))
    f = AffineMap(Q, mat(Q, [[1, 0]]), vec(Q, 0))
    with pytest.raises(ArityMismatch):
        f.apply(vec(Q, 1, 2, 3))
