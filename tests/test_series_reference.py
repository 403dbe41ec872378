"""Series products against the Fraction double loop.

reference_product is how TruncSeries.__mul__ used to work: one Fraction
product and one Fraction sum per pair of nonzero coefficients whose indices
sum to at most the order.  The product now convolves integers over runs of
coefficients that share one denominator and adds each run pair's outputs
once.  Canonical Fractions are unique, so the two must agree exactly,
coefficient by coefficient.  The operands include the solver's outputs
(denominators near k!), integers, random denominators of 1 to 200 digits,
interior zeros, constants and monomials, operands of different orders, and
order 0; powers and variety residuals are checked through the same oracle.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from prolong import SeriesPoint, TruncSeries, solve_dpoint, variety_residuals
from prolong.model import load_model_file
from prolong.series import RUN_BITS

from helpers import random_fraction

MODEL_Q = Path(__file__).parent / "data" / "model_q.json"
SEEDS = range(25)


def reference_product(a, b):
    n = min(a.order, b.order)
    out = [Fraction(0)] * (n + 1)
    for i, x in enumerate(a.coeffs[: n + 1]):
        if not x:
            continue
        for j, y in enumerate(b.coeffs[: n + 1 - i]):
            if y:
                out[i + j] += x * y
    return out


def assert_product(a, b):
    want = reference_product(a, b)
    for got in (a * b, b * a):
        assert list(got.coeffs) == want
        assert all(type(c) is Fraction for c in got.coeffs)


def random_digits(rng, digits):
    return rng.randrange(10 ** (digits - 1), 10**digits)


def random_series(rng, order, kind):
    if kind == "integer":
        cs = [rng.randint(-(10**30), 10**30) for _ in range(order + 1)]
    elif kind == "wide":
        # numerator and denominator of 1 to 200 digits
        cs = [
            Fraction(rng.choice((-1, 1)) * random_digits(rng, rng.randint(1, 200)),
                     random_digits(rng, rng.randint(1, 200)))
            for _ in range(order + 1)
        ]
    else:
        cs = [random_fraction(rng, -9, 9, 12) for _ in range(order + 1)]
    return TruncSeries(cs)


def with_zeros(rng, s):
    cs = list(s.coeffs)
    for k in rng.sample(range(len(cs)), len(cs) // 2):
        cs[k] = 0
    return TruncSeries(cs)


@pytest.fixture(scope="module")
def model():
    return load_model_file(MODEL_Q)


def solutions(model, rng, order):
    """Solver outputs of Ga, Gm and B from random rational initial points."""
    out = []
    for group, section in (("Ga", "ga_cm2"), ("Gm", "gm_twist1"), ("Gm", "gm_twistm2"),
                           ("B", "b_s2m3"), ("B", "b_s10")):
        g = model.group(group)
        x0 = random_fraction(rng, 1, 9, 7)
        init = {"Ga": (x0,), "Gm": (x0, 1 / x0), "B": (x0, random_fraction(rng), 1 / x0)}[group]
        sigma = model.section(section).section.sigma
        out.append((g.variety, solve_dpoint(g.variety, sigma, init, order)))
    return out


@pytest.mark.parametrize("seed", SEEDS)
def test_products_of_solver_outputs(model, seed):
    rng = random.Random(seed)
    order = rng.choice((5, 40, 100))
    comps = [c for _, point in solutions(model, rng, order) for c in point]
    for _ in range(6):
        assert_product(rng.choice(comps), rng.choice(comps))


def test_products_over_many_runs(model):
    g = model.group("Gm")
    sigma = model.section("gm_twist1").section.sigma
    x, w = solve_dpoint(g.variety, sigma, (Fraction(3), Fraction(1, 3)), 250)
    # the denominators near k! span several runs
    assert x.coeffs[-1].denominator.bit_length() > 6 * RUN_BITS
    assert_product(x, w)


@pytest.mark.parametrize("seed", SEEDS)
def test_products_of_random_series(seed):
    rng = random.Random(seed)
    order = rng.choice((1, 2, 7, 30, 48))
    kinds = ("integer", "wide", "small")
    a = random_series(rng, order, rng.choice(kinds))
    b = random_series(rng, order, rng.choice(kinds))
    assert_product(a, b)
    assert_product(with_zeros(rng, a), b)
    assert_product(with_zeros(rng, a), with_zeros(rng, b))
    assert_product(a, a)


@pytest.mark.parametrize("seed", range(10))
def test_products_with_constants_and_monomials(seed):
    rng = random.Random(seed)
    order = rng.randint(1, 30)
    a = random_series(rng, order, rng.choice(("integer", "wide", "small")))
    c = random_fraction(rng, -9, 9, 12) or Fraction(1)
    k = rng.randint(0, order)
    monomial = TruncSeries([0] * k + [c] + [0] * (order - k))
    for other in (TruncSeries.const(c, order), monomial, TruncSeries.zero(order),
                  TruncSeries.t(order)):
        assert_product(a, other)
    assert list((a * c).coeffs) == reference_product(a, TruncSeries.const(c, order))
    assert list((c * a).coeffs) == reference_product(a, TruncSeries.const(c, order))


@pytest.mark.parametrize("seed", range(10))
def test_products_of_different_orders(seed):
    rng = random.Random(seed)
    a = random_series(rng, rng.randint(0, 40), "wide")
    b = random_series(rng, rng.randint(0, 40), "small")
    got = a * b
    assert got.order == min(a.order, b.order)
    assert_product(a, b)


def test_products_at_order_zero():
    rng = random.Random(7)
    for kind in ("integer", "wide", "small"):
        a = random_series(rng, 0, kind)
        b = random_series(rng, 0, kind)
        assert_product(a, b)
        assert (a * b).coeffs == (a.coeffs[0] * b.coeffs[0],)


@pytest.mark.parametrize("seed", range(10))
def test_powers(seed):
    rng = random.Random(seed)
    a = random_series(rng, rng.randint(0, 25), rng.choice(("integer", "wide", "small")))
    want = TruncSeries.const(1, a.order)
    for e in range(6):
        assert a**e == want
        assert all(type(c) is Fraction for c in (a**e).coeffs)
        want = TruncSeries(reference_product(want, a))


def reference_residuals(variety, point):
    order = point.order
    out = []
    for gen in variety.gens:
        total = [Fraction(0)] * (order + 1)
        for mono, c in gen.terms.items():
            term = TruncSeries.const(Fraction(c.n[0], c.d[0]) if c.n else 0, order)
            for comp, e in zip(point, mono):
                for _ in range(e):
                    term = TruncSeries(reference_product(term, comp))
            total = [x + y for x, y in zip(total, term.coeffs)]
        out.append(total)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_variety_residuals(model, seed):
    rng = random.Random(seed)
    order = rng.choice((3, 30, 60))
    cases = solutions(model, rng, order)
    twisted = model.variety("Twisted")
    cases.append((twisted, SeriesPoint(tuple(random_series(rng, order, "small") for _ in range(3)))))
    gm = model.variety("GmV")
    cases.append((gm, SeriesPoint(tuple(random_series(rng, order, "wide") for _ in range(2)))))
    for variety, point in cases:
        got = variety_residuals(variety, point)
        assert [list(r.coeffs) for r in got] == reference_residuals(variety, point)
