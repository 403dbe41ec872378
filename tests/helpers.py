"""Seeded random generators shared by the property-test suites."""

import sys
from contextlib import contextmanager
from fractions import Fraction

from prolong import MultiPoly, PolyMap, RationalMap, parse_poly, parse_rational


def random_fraction(rng, lo=-5, hi=5, max_den=3):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def random_element(rng, field, tdeg=2):
    """Field element: a rational over Q, a t-polynomial over Q(t)."""
    if not field.has_t:
        return field.elem(random_fraction(rng))
    e = field.zero
    tpow = field.one
    for _ in range(tdeg + 1):
        e = e + tpow * random_fraction(rng)
        tpow = tpow * field.t
    return e


def random_unit(rng, field, tdeg=1):
    """A nonzero element, denominator material for random points."""
    if not field.has_t:
        return field.elem(Fraction(rng.randint(1, 4)))
    e = field.one
    tpow = field.t
    for _ in range(tdeg):
        e = e + tpow * random_fraction(rng)
        tpow = tpow * field.t
    if e.is_zero:
        return field.one
    return e


def random_point(rng, field, n, tdeg=2):
    """Tuple of field elements; over Q(t) genuine rational functions."""
    out = []
    for _ in range(n):
        value = random_element(rng, field, tdeg)
        if field.has_t:
            value = value / random_unit(rng, field)
        out.append(value)
    return tuple(out)


def random_poly(rng, field, nvars, deg=3, terms=4, tdeg=2):
    p = MultiPoly.zero(field, nvars)
    for _ in range(rng.randint(1, terms)):
        mono = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            mono[rng.randrange(nvars)] += 1
        p = p + MultiPoly(field, nvars, {tuple(mono): random_element(rng, field, tdeg)})
    return p


def random_nonzero_poly(rng, field, nvars, deg=3, terms=4, tdeg=2):
    while True:
        p = random_poly(rng, field, nvars, deg, terms, tdeg)
        if not p.is_zero:
            return p


def random_polymap(rng, field, n_in, n_out, deg=3, tdeg=2):
    return PolyMap(
        field,
        n_in,
        tuple(random_poly(rng, field, n_in, deg, 3, tdeg) for _ in range(n_out)),
    )


def random_rational_map(rng, field, n_in, n_out, deg=2, tdeg=1):
    """Components p/q: p of degree at most deg, q nonzero of degree at most 1
    with rational coefficients, so that composites over Q(t) stay small
    enough for poly_gcd."""
    comps = []
    for _ in range(n_out):
        num = random_poly(rng, field, n_in, deg, 3, tdeg)
        den = random_nonzero_poly(rng, field, n_in, 1, 2, 0)
        comps.append((num, den))
    return RationalMap(field, n_in, tuple(comps))


def poly(text, names, field):
    return parse_poly(text, names, field)


def rmap(field, names, exprs):
    comps = tuple(parse_rational(e, names, field) for e in exprs)
    return RationalMap(field, len(names), comps)


def pmap(field, names, exprs):
    comps = tuple(parse_poly(e, names, field) for e in exprs)
    return PolyMap(field, len(names), comps)


@contextmanager
def int_str_limit(limit):
    """Python's integer-string limit set to limit for the block (None: leave
    it).  Pythons before 3.10.7 have no limit, and the block runs as is."""
    if limit is None or not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)
