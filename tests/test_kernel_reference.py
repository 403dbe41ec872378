"""The packed MultiPoly kernel against tuple-keyed reference arithmetic.

The reference_* functions hold a polynomial as a dict from exponent tuples
to nonzero FieldElements, the form MultiPoly kept before its terms were
packed, and do each operation term by term.  The kernel must agree with
them, read through MultiPoly.terms (its tuple-keyed view), on seeded inputs
over Q and Q(t), and where an exponent reaches the guard bit of its field
and forces the polynomial into wider fields.
"""

from fractions import Fraction
from math import gcd

import pytest

from prolong import QT, MultiPoly, Q
from prolong.poly import exact_div

from helpers import random_element, random_point, random_poly


def _clean(terms):
    return {m: c for m, c in terms.items() if not c.is_zero}


def reference_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out[m] + c if m in out else c
    return _clean(out)


def reference_neg(a):
    return {m: -c for m, c in a.items()}


def reference_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return _clean(out)


def reference_partial(a, i):
    return {m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in a.items() if m[i]}


def reference_embed(a, nvars, index_map):
    out = {}
    for m, c in a.items():
        m2 = [0] * nvars
        for i, e in enumerate(m):
            m2[index_map[i]] = e
        out[tuple(m2)] = c
    return out


def reference_evaluate(a, point, field):
    total = field.zero
    for m, c in a.items():
        term = c
        for x, e in zip(point, m):
            for _ in range(e):
                term = term * x
        total = total + term
    return total


def reference_compose(a, values, nvars):
    """a with the tuple-keyed polynomials values, in nvars variables, put in
    for its variables."""
    total = {}
    for m, c in a.items():
        term = {(0,) * nvars: c}
        for v, e in zip(values, m):
            for _ in range(e):
                term = reference_mul(term, v)
        total = reference_add(total, term)
    return total


def assert_canonical(p):
    """Over Q: integer coefficients of gcd 1 and a positive content, an int
    when it is one; over Q(t): field elements and content 1."""
    values = list(p.coeffs.values())
    if p.field.has_t:
        assert p.content == 1 and all(not c.is_zero for c in values)
        return
    assert all(type(c) is int and c for c in values)
    assert p.content > 0
    assert type(p.content) is int or p.content.denominator != 1
    if values:
        assert gcd(*values) == 1
    else:
        assert p.content == 1


def _injective_map(rng, nvars, new_nvars):
    if rng.random() < 0.5:
        first = rng.randint(0, new_nvars - nvars)
        return list(range(first, first + nvars))
    return rng.sample(range(new_nvars), nvars)


@pytest.mark.parametrize("field", [Q, QT])
def test_arithmetic_matches_the_reference(rng, field):
    for _ in range(60):
        nvars = rng.randint(1, 4)
        p = random_poly(rng, field, nvars, deg=4, terms=5)
        q = random_poly(rng, field, nvars, deg=4, terms=5)
        a, b = dict(p.terms), dict(q.terms)
        for got, want in (
            (p + q, reference_add(a, b)),
            (p - q, reference_add(a, reference_neg(b))),
            (-p, reference_neg(a)),
            (p * q, reference_mul(a, b)),
            (p * p * q, reference_mul(reference_mul(a, a), b)),
            (p - p, {}),
        ):
            assert dict(got.terms) == want
            assert_canonical(got)
        k = random_element(rng, field)
        assert dict((p * k).terms) == (_clean({m: c * k for m, c in a.items()}))
        for i in range(nvars):
            got = p.partial(i)
            assert dict(got.terms) == reference_partial(a, i)
            assert_canonical(got)
        new_nvars = nvars + rng.randint(0, 3)
        index_map = _injective_map(rng, nvars, new_nvars)
        got = p.embed(new_nvars, index_map)
        assert dict(got.terms) == reference_embed(a, new_nvars, index_map)
        assert got.total_degree() == p.total_degree()
        if not q.is_zero:
            assert exact_div(p * q, q) == p


@pytest.mark.parametrize("field", [Q, QT])
def test_evaluation_and_composition_match_the_reference(rng, field):
    for _ in range(40):
        nvars = rng.randint(1, 3)
        p = random_poly(rng, field, nvars, deg=3, terms=4)
        point = random_point(rng, field, nvars)
        assert p.evaluate(point) == reference_evaluate(p.terms, point, field)
        inner = rng.randint(1, 3)
        args = [random_poly(rng, field, inner, deg=2, terms=3) for _ in range(nvars)]
        want = reference_compose(p.terms, [dict(a.terms) for a in args], inner)
        got = p.substitute(args)
        assert dict(got.terms) == want
        assert_canonical(got)


@pytest.mark.parametrize("field", [Q, QT])
def test_an_exponent_at_the_guard_bit_widens_the_polynomial(field):
    """Eight bits a field hold exponents up to 127 below the guard bit.
    x^64 * x^63 stays in them, x^64 * x^64 does not, and a total degree
    above 127 spread over two variables needs no widening.  Squaring
    x^90 + c*y twice reaches x^360, which eight bits would wrap into y."""
    c = field.elem(Fraction(-3, 2)) if not field.has_t else field.t + 1
    x = MultiPoly.var(field, 2, 0)
    y = MultiPoly.var(field, 2, 1)
    p = x**90 + c * y
    a = dict(p.terms)
    q = p * p
    r = q * q
    assert dict(q.terms) == reference_mul(a, a)
    assert dict(r.terms) == reference_mul(reference_mul(a, a), reference_mul(a, a))
    assert (360, 0) in r.terms and r.total_degree() == 360 and r.degree_in(0) == 360
    wide = x**64 * x**64
    assert wide.terms == {(128, 0): field.one} and wide.ring.bits == 16
    assert (x**64 * x**63).ring.bits == 8
    assert (x**100 * y**100).terms == {(100, 100): field.one}
    assert (x**100 * y**100).ring.bits == 8
    # the wider ring serves every operation, and mixes with the narrower
    assert r.ring.bits == 16
    assert exact_div(r, q) == q and exact_div(r, p) == q * p
    assert dict(r.partial(0).terms) == reference_partial(dict(r.terms), 0)
    assert r + y == y + r and dict((r - r * 1).terms) == {}
    assert MultiPoly(field, 2, dict(r.terms)) == r
    assert hash(MultiPoly(field, 2, dict(r.terms))) == hash(r)
    built = MultiPoly(field, 1, {(200,): 1})
    assert built.ring.bits == 16 and built.terms == {(200,): field.one}
    # equal polynomials in fields of different widths are equal
    narrow = MultiPoly.var(field, 2, 0)
    widened = (x**64 * x**64 + narrow) - x**128
    assert widened.ring.bits == 16 and widened == narrow and hash(widened) == hash(narrow)


def test_contents_are_canonical_over_q(rng):
    x = MultiPoly.var(Q, 2, 0)
    y = MultiPoly.var(Q, 2, 1)
    p = x * Fraction(2, 3) + y * Fraction(4, 9)
    assert p.content == Fraction(2, 9) and sorted(p.coeffs.values()) == [2, 3]
    assert (p * Fraction(9, 2)).content == 1
    assert -p == p * -1 and (-p).content == p.content
    assert (p - p).content == 1 and (p * 0).content == 1
    for _ in range(40):
        q = random_poly(rng, Q, 3, deg=3, terms=5)
        k = random_element(rng, Q)
        for got in (q * k, q + q, q * q, q.partial(0), q - q * 2):
            assert_canonical(got)
        if not k.is_zero:
            assert q * k * k.inverse() == q


def test_a_coefficient_one_is_not_multiplied_in(monkeypatch):
    """x + y/2 holds the integers 2 and 1 over the content 1/2, so the
    coefficient 1 of x is the integer 2: substitution still makes no
    product by it."""
    x, y, z = (MultiPoly.var(Q, 3, i) for i in range(3))
    p = x + y * Fraction(1, 2)
    assert sorted(p.coeffs.values()) == [1, 2] and p.content == Fraction(1, 2)
    by_one = []
    real = MultiPoly.__mul__

    def counted(a, b):
        if a.is_one or (b.is_one if isinstance(b, MultiPoly) else b == 1):
            by_one.append((a, b))
        return real(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    monkeypatch.setattr(MultiPoly, "__rmul__", counted)
    got = p.substitute([z + 1, z * z, x])
    assert not by_one
    assert got == z + 1 + z * z * Fraction(1, 2)
