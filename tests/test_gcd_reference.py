"""poly_gcd against the primitive PRS it runs when neither operand is a monomial.

reference_gcd is the recursive primitive pseudo-remainder sequence with no
shortcut but the constant case: the oracle for poly_gcd's rule that a gcd
with a one-term operand is the monomial of least exponents over the terms
of both.
"""

import random
from fractions import Fraction

from prolong import MultiPoly, Q, QT
from prolong.poly import _rec_join, _rec_prem, _rec_split, exact_div, poly_gcd

from helpers import random_element, random_nonzero_poly


def _content(rec):
    g = None
    for c in rec.values():
        g = c if g is None else reference_gcd(g, c)
    return g


def _primitive(rec, content):
    return {d: exact_div(c, content) for d, c in rec.items()}


def reference_gcd(p, q):
    if p.is_zero:
        return q.monic()
    if q.is_zero:
        return p.monic()
    if p.nvars == 0 or p.is_constant or q.is_constant:
        return MultiPoly.const(p.field, p.nvars, 1)
    A, B = _rec_split(p), _rec_split(q)
    ca, cb = _content(A), _content(B)
    A, B = _primitive(A, ca), _primitive(B, cb)
    while B:
        R = _rec_prem(A, B)
        A = B
        B = _primitive(R, _content(R)) if R else {}
    main = _rec_join(p.field, p.nvars, A)
    cont = reference_gcd(ca, cb).embed(p.nvars, list(range(1, p.nvars)))
    return (main * cont).monic()


def _monomial(rng, field, nvars, deg=4):
    mono = tuple(rng.randint(0, deg) for _ in range(nvars))
    c = random_element(rng, field)
    while c.is_zero:
        c = random_element(rng, field)
    return MultiPoly(field, nvars, {mono: c})


def _operand(rng, field, nvars, kind):
    if kind == "zero":
        return MultiPoly.zero(field, nvars)
    if kind == "constant":
        return MultiPoly.const(field, nvars, rng.choice((Fraction(-3, 2), 1, 7)))
    if kind == "monomial":
        return _monomial(rng, field, nvars)
    return random_nonzero_poly(rng, field, nvars, deg=3, terms=4, tdeg=1)


def test_gcd_matches_the_prs_on_seeded_pairs():
    rng = random.Random(4242)
    kinds = ("zero", "constant", "monomial", "poly")
    shortcut = 0
    for field in (Q, QT):
        for nvars in (1, 2, 3):
            for a in kinds:
                for b in kinds:
                    for _ in range(4):
                        p = _operand(rng, field, nvars, a)
                        q = _operand(rng, field, nvars, b)
                        # A common factor, so that the gcd is not 1.
                        if a == b == "poly" and rng.random() < 0.5:
                            f = random_nonzero_poly(rng, field, nvars, deg=2, terms=2, tdeg=1)
                            p, q = p * f, q * f
                        elif "monomial" in (a, b) and "zero" not in (a, b):
                            m = _monomial(rng, field, nvars, deg=2)
                            p, q = p * m, q * m
                        want = reference_gcd(p, q)
                        got = poly_gcd(p, q)
                        assert got == want
                        assert list(got.terms) == list(want.terms)
                        shortcut += len(p.terms) == 1 or len(q.terms) == 1
    assert shortcut >= 100


def test_gcd_of_coprime_pairs_and_monomials():
    x, y, z = (MultiPoly.var(Q, 3, i) for i in range(3))
    cases = [
        (x * y + 1, x - y),  # coprime
        (x**2 * y**3 * 5, x**3 * y * z),  # two monomials
        (x**2 * y, x**3 * z + x * y * z),  # a monomial and a sum
        (MultiPoly.const(Q, 3, 4), x**2 + y),  # a constant
    ]
    for p, q in cases:
        assert poly_gcd(p, q) == reference_gcd(p, q) == poly_gcd(q, p)
    assert poly_gcd(x**2 * y * 5, x**3 * z + x * y * z) == x
    assert poly_gcd(x**2 * y**3 * 5, x**3 * y * z) == x**2 * y
    t = QT.t
    u, v = (MultiPoly.var(QT, 2, i) for i in range(2))
    p, q = u**2 * v * t, u * v**3 * (t + 1) + u**2 * v
    assert poly_gcd(p, q) == reference_gcd(p, q) == u * v
    none = MultiPoly.const(Q, 0, 3)
    assert poly_gcd(none, MultiPoly.const(Q, 0, Fraction(1, 2))) == MultiPoly.const(Q, 0, 1)
