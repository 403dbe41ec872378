"""Series products and the online solver's recurrences against Fraction loops.

reference_product is how TruncSeries.__mul__ used to work: one Fraction
product and one Fraction sum per pair of nonzero coefficients whose indices
sum to at most the order.  The product now convolves integers over runs of
coefficients that share one denominator and adds each run pair's outputs
once.  Canonical Fractions are unique, so the two must agree exactly,
coefficient by coefficient.  The operands include the solver's outputs
(denominators near k!), integers, random denominators of 1 to 200 digits,
interior zeros, constants and monomials, operands of different orders, and
order 0; powers and variety residuals are checked through the same oracle.

The solver (solve_dpoint), the online quotient behind TruncSeries.inverse
and the sums skip Fraction arithmetic too: they add integer products over a
running lcm denominator and reduce each stored coefficient once.  Each is
checked against its recurrence written out in plain Fraction arithmetic.

Every division in Q[[t]] (a / b, c / a, inverse, negative powers,
element_to_series, map_on_series) now runs the online quotient at each
coefficient.  reference_divide and the reference_* functions after it are
how division used to work: the divisor inverted by a loop of its own (here
the Fraction loop), then multiplied by the dividend, and a Q(t) element n/d
expanded as the series n times the inverse of the series d.  The two must agree exactly, and raise
the same faults with the same messages.
"""

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from prolong import (
    QT,
    AffineVariety,
    DenominatorVanishesAtInitialPoint,
    MultiPoly,
    NonUnitConstantTerm,
    Q,
    RationalMap,
    SeriesPoint,
    TruncSeries,
    element_to_series,
    map_on_series,
    parse_poly,
    parse_rational,
    solve_dpoint,
    variety_residuals,
)
from prolong.model import load_model_file
from prolong.poly import evaluate_at
from prolong.series import RUN_BITS, _fractions

from helpers import random_element, random_fraction, random_poly, random_unit

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


def assert_canonical(coeffs):
    for c in coeffs:
        assert type(c) is Fraction
        assert c.denominator > 0 and gcd(c.numerator, c.denominator) == 1


def reference_quotient(n, d):
    """q with q*d = n through len(n) coefficients, by the Fraction loop."""
    q = []
    for k in range(len(n)):
        acc = n[k]
        for j in range(1, k + 1):
            if d[j]:
                acc -= d[j] * q[k - j]
        q.append(acc / d[0])
    return q


def reference_expansion(elem, order):
    """A base-field element expanded at t = 0, by long division in Fraction."""
    def padded(cs):
        cs = [Fraction(c) for c in cs[: order + 1]]
        return cs + [Fraction(0)] * (order + 1 - len(cs))
    return reference_quotient(padded(elem.n), padded(elem.d))


def reference_solve(sigma, initial, order):
    """solve_dpoint's recurrences in plain Fraction arithmetic.

    a_{k+1} = coeff_k(sigma(a)) / (k+1).  Coefficient k of a monomial is a
    Cauchy product of the monomial with one variable peeled off and that
    variable; of a term, a Cauchy product of the coefficient's expansion and
    the monomial; of a quotient, the online division
    q_k = (n_k - sum_{j>=1} d_j q_{k-j}) / d_0.
    """
    a = [[Fraction(v)] for v in initial]
    monomials = {}
    expansions = {}

    def monomial(mono, k):
        cs = monomials.setdefault(mono, [])
        while len(cs) <= k:
            j = len(cs)
            i = next(i for i, e in enumerate(mono) if e)
            if sum(mono) == 1:
                cs.append(a[i][j])
                continue
            rest = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            cs.append(sum((monomial(rest, m) * a[i][j - m] for m in range(j + 1)), Fraction(0)))
        return cs[k]

    def polynomial(p, k):
        total = Fraction(0)
        for mono, c in p.terms.items():
            if c not in expansions:
                expansions[c] = reference_expansion(c, order)
            e = expansions[c]
            if any(mono):
                total += sum((e[m] * monomial(mono, k - m) for m in range(k + 1)), Fraction(0))
            else:
                total += e[k]
        return total

    fractions = sigma.as_rational().components
    quotients = [([], []) for _ in fractions]
    for k in range(order):
        velocity = []
        for (num, den), (ds, qs) in zip(fractions, quotients):
            ds.append(polynomial(den, k))
            acc = polynomial(num, k)
            for j in range(1, k + 1):
                acc -= ds[j] * qs[k - j]
            qs.append(acc / ds[0])
            velocity.append(qs[k])
        for cs, v in zip(a, velocity):
            cs.append(v / (k + 1))
    return a


def wide_fraction(rng, digits=300):
    return Fraction(rng.choice((-1, 1)) * random_digits(rng, digits), random_digits(rng, digits))


def true_series_coefficient(rng, field):
    """Over Q(t), a coefficient such as (1 + 2t)/(1 - t/3): a true series in t."""
    if not field.has_t:
        return field.elem(random_fraction(rng, -9, 9, 12) or 1)
    return random_element(rng, field) / random_unit(rng, field, rng.randint(1, 2))


def random_component(rng, field, n, kind):
    """A numerator and denominator for one component of a random sigma.

    A "product" is a polynomial of degree 2 or 3.  A "quotient" has a
    denominator whose constant term is a nonzero rational, and a "quotient
    by a series" one whose constant term is a true series in t over Q(t).
    """
    if kind == "product":
        p = MultiPoly.zero(field, n)
        while p.is_zero or p.total_degree() < 2:
            p = p + random_poly(rng, field, n, deg=3, terms=3)
        return p, MultiPoly.const(field, n, 1)
    num = random_poly(rng, field, n, deg=2, terms=3)
    den = random_poly(rng, field, n, deg=2, terms=2)
    if kind == "quotient by a series" and field.has_t:
        den = den + MultiPoly.const(field, n, true_series_coefficient(rng, field))
    else:
        den = den + MultiPoly.const(field, n, random_fraction(rng, 1, 9, 5))
    return num, den


def random_solve_case(rng, digits):
    field = rng.choice((Q, QT))
    n = rng.randint(1, 3)
    names = tuple("xyz"[:n])
    comps = []
    for _ in range(n):
        kind = rng.choice(("product", "product", "quotient", "quotient by a series",
                           "series coefficient"))
        if kind == "series coefficient":
            num, den = random_component(rng, field, n, "product")
            mono = tuple(rng.randint(0, 1) for _ in range(n))
            num = num + MultiPoly(field, n, {mono: true_series_coefficient(rng, field)})
        else:
            num, den = random_component(rng, field, n, kind)
        comps.append((num, den))
    sigma = RationalMap(field, n, tuple(comps))
    if digits:
        initial = tuple(wide_fraction(rng, digits) for _ in range(n))
    else:
        initial = tuple(random_fraction(rng, -9, 9, 7) for _ in range(n))
    return AffineVariety("A", field, names, ()), sigma, initial


def assert_solve(variety, sigma, initial, order):
    try:
        got = solve_dpoint(variety, sigma, initial, order)
    except DenominatorVanishesAtInitialPoint:
        return False
    want = reference_solve(sigma, initial, order)
    assert [list(c.coeffs) for c in got] == want
    for c in got:
        assert_canonical(c.coeffs)
    return True


@pytest.mark.parametrize("seed", range(30))
def test_solver_against_fraction_recurrences(seed):
    rng = random.Random(seed)
    order = (0, 1, 40)[seed] if seed < 3 else rng.randint(0, 40)
    solved = 0
    for _ in range(3):
        solved += assert_solve(*random_solve_case(rng, 0), order)
    assert solved


def test_solver_from_300_digit_initial_values():
    rng = random.Random(1000)
    solved = 0
    for _ in range(10):
        # a quotient of 300-digit values passes 4300 digits near t^7
        order = rng.randint(0, 6)
        solved += assert_solve(*random_solve_case(rng, 300), order)
    assert solved >= 8


def test_solver_product_nodes_and_quotients():
    names = ("x", "y")
    plane = AffineVariety("A2", QT, names, ())
    one = MultiPoly.const(QT, 2, 1)

    def rational(num, den):
        return parse_rational(f"({num})/({den})", names, QT)

    sigma = RationalMap(QT, 2, (
        (parse_poly("x^2*y - y^3 + t*x*y", names, QT), one),
        rational("x + (1/(1 - t))*y^2", "(1 + t)*x - 2*y + 3"),
    ))
    for order in (0, 1, 2, 7, 40):
        assert assert_solve(plane, sigma, (Fraction(1, 3), Fraction(-2)), order)
    sigma = RationalMap(Q, 1, ((parse_poly("x", ("x",), Q), parse_poly("1 + x", ("x",), Q)),))
    line = AffineVariety("A1", Q, ("x",), ())
    assert assert_solve(line, sigma, (Fraction(2, 7),), 40)
    assert assert_solve(line, sigma, (wide_fraction(random.Random(5)),), 10)


@pytest.mark.parametrize("seed", range(20))
def test_inverse_against_fraction_loop(seed):
    rng = random.Random(seed)
    kind = rng.choice(("integer", "wide", "small"))
    # the inverse of 200-digit coefficients has about 200*k digits at t^k
    order = rng.randint(0, 12 if kind == "wide" else 40)
    a = random_series(rng, order, kind)
    if rng.random() < 0.5:
        a = with_zeros(rng, a)
    if not a.coeffs[0]:
        a = a + 1
    one = [Fraction(1)] + [Fraction(0)] * order
    got = a.inverse()
    assert list(got.coeffs) == reference_quotient(one, list(a.coeffs))
    assert_canonical(got.coeffs)


@pytest.mark.parametrize("seed", range(20))
def test_sums_against_fraction_loop(seed):
    rng = random.Random(seed)
    order = rng.randint(0, 40)
    kinds = ("integer", "wide", "small")
    a = with_zeros(rng, random_series(rng, order, rng.choice(kinds)))
    b = with_zeros(rng, random_series(rng, rng.randint(0, 40), rng.choice(kinds)))
    n = min(a.order, b.order)
    pairs = list(zip(a.coeffs[: n + 1], b.coeffs[: n + 1]))
    c = random_fraction(rng, -9, 9, 12)
    for got, want in (
        (a + b, [x + y for x, y in pairs]),
        (a - b, [x - y for x, y in pairs]),
        (b - a, [y - x for x, y in pairs]),
        (a + c, [a.coeffs[0] + c] + list(a.coeffs[1:])),
        (c - a, [c - a.coeffs[0]] + [-x for x in a.coeffs[1:]]),
        (a - a, [Fraction(0)] * (a.order + 1)),
    ):
        assert list(got.coeffs) == want
        assert_canonical(got.coeffs)


def reference_inverse(s):
    """TruncSeries.inverse as it was: a quotient with numerator 1 in a loop of
    its own, written here in Fraction arithmetic."""
    if not s.coeffs[0]:
        raise NonUnitConstantTerm("series has zero constant term")
    one = [Fraction(1)] + [Fraction(0)] * s.order
    return TruncSeries(reference_quotient(one, list(s.coeffs)))


def reference_divide(a, b):
    """a / b as it was, for a series a: a times the inverse of b."""
    if not isinstance(b, TruncSeries):
        b = TruncSeries.const(b, a.order)
    return a * reference_inverse(b)


def reference_element_to_series(elem, order):
    """element_to_series as it was: n/d as the series n times the inverse of
    the series d, with a constant d divided term by term."""
    n, d = elem.n, elem.d
    pad = (Fraction(0),) * (order + 1 - len(n))
    if len(d) == 1:
        return TruncSeries([Fraction(x, d[0]) for x in n[: order + 1]] + list(pad))
    if d[0] == 0:
        raise DenominatorVanishesAtInitialPoint(
            "coefficient denominator vanishes at t = 0"
        )
    num = [Fraction(x) for x in n[: order + 1]] + list(pad)
    den = [Fraction(x) for x in d[: order + 1]] + [Fraction(0)] * (order + 1 - len(d))
    return TruncSeries(num) * reference_inverse(TruncSeries(den))


def reference_map_on_series(f, point):
    """map_on_series as it was: each numerator times the inverse of its
    denominator."""
    order = point.order

    def on_series(p):
        return evaluate_at(p, point.components,
                           lambda c: reference_element_to_series(c, order), {})

    out = []
    for num, den in _fractions(f):
        n = on_series(num)
        if den is None:
            out.append(n)
            continue
        d = on_series(den)
        if d.coefficient(0) == 0:
            raise DenominatorVanishesAtInitialPoint(
                "map denominator vanishes at the series base point"
            )
        out.append(n * reference_inverse(d))
    return SeriesPoint(tuple(out))


def outcome(run):
    """What run() gives: its coefficients, or its fault's type and message."""
    try:
        value = run()
    except (NonUnitConstantTerm, DenominatorVanishesAtInitialPoint) as exc:
        return type(exc), str(exc)
    series = value.components if isinstance(value, SeriesPoint) else (value,)
    for c in series:
        assert_canonical(c.coeffs)
    return [c.coeffs for c in series]


def assert_same(run, reference):
    got = outcome(run)
    assert got == outcome(reference)
    return got


def random_divisor(rng, order, kind):
    b = random_series(rng, order, kind)
    if rng.random() < 0.5:
        b = with_zeros(rng, b)
    if rng.random() < 0.15:
        return b - b.coeffs[0]  # no unit: both raise NonUnitConstantTerm
    return b if b.coeffs[0] else b + 1


def division_order(rng, kinds):
    # quotients of 200-digit coefficients have about 200*k digits at t^k
    return rng.randint(0, 12 if "wide" in kinds else 60)


@pytest.mark.parametrize("seed", range(30))
def test_division_against_invert_then_multiply(seed):
    rng = random.Random(seed)
    kinds = (rng.choice(("integer", "wide", "small")), rng.choice(("integer", "small")))
    order = (0, 1, 60)[seed] if seed < 3 else division_order(rng, kinds)
    a = random_series(rng, order, kinds[1])
    if rng.random() < 0.3:
        a = with_zeros(rng, a)
    b = random_divisor(rng, rng.choice((order, rng.randint(0, order))), kinds[0])
    c = random_fraction(rng, -9, 9, 12)
    assert_same(lambda: a / b, lambda: reference_divide(a, b))
    assert_same(lambda: b / a, lambda: reference_divide(b, a))
    assert_same(lambda: c / b, lambda: reference_inverse(b) * c)
    assert_same(lambda: a / c, lambda: reference_divide(a, c))
    assert_same(b.inverse, lambda: reference_inverse(b))
    assert_same(lambda: 1 / b, lambda: reference_inverse(b))
    for k in (1, 2, 3):
        assert_same(lambda: b**-k, lambda: reference_inverse(b) ** k)


def test_division_faults():
    a = TruncSeries([1, 2, 3])
    zero_constant = TruncSeries([0, 1, 5])
    cases = [
        (lambda: a / zero_constant, lambda: reference_divide(a, zero_constant)),
        (lambda: a / 0, lambda: reference_divide(a, 0)),
        (lambda: 3 / zero_constant, lambda: reference_inverse(zero_constant) * 3),
        (zero_constant.inverse, lambda: reference_inverse(zero_constant)),
        (lambda: TruncSeries.zero(4) ** -2, lambda: reference_inverse(TruncSeries.zero(4)) ** 2),
    ]
    for run, reference in cases:
        assert assert_same(run, reference) == (NonUnitConstantTerm, "series has zero constant term")


def integer_poly(rng, degree, constant=True):
    """A random polynomial in t over Z, of the given degree, nonzero at t = 0
    when constant is set."""
    cs = [rng.randint(-9, 9) for _ in range(degree + 1)]
    cs[-1] = cs[-1] or 1
    if constant:
        cs[0] = cs[0] or rng.choice((-3, 2, 5))
    e = QT.zero
    for c in reversed(cs):
        e = e * QT.t + c
    return e


def random_qt_element(rng):
    """n/d over Q(t) with d a product of non-monic factors, some repeated."""
    n = integer_poly(rng, rng.randint(0, 4), constant=False)
    d = QT.elem(rng.randint(1, 7))
    for _ in range(rng.randint(0, 3)):
        d = d * integer_poly(rng, rng.randint(1, 2)) ** rng.randint(1, 3)
    if rng.random() < 0.1:
        d = d * QT.t  # vanishes at t = 0
    return n / d if not n.is_zero else QT.zero


@pytest.mark.parametrize("seed", range(20))
def test_element_to_series_against_invert_then_multiply(seed):
    rng = random.Random(seed)
    for _ in range(6):
        e = random_qt_element(rng)
        order = rng.randint(0, 60)
        assert_same(lambda: element_to_series(e, order),
                    lambda: reference_element_to_series(e, order))
    elements = [Q.elem(random_fraction(rng, -9, 9, 12)), Q.zero, QT.t ** 3,
                QT.elem(Fraction(5, 3)) * QT.t]
    for e in elements:
        assert_same(lambda: element_to_series(e, 2), lambda: reference_element_to_series(e, 2))


def test_element_to_series_of_repeated_non_monic_factors():
    d = (QT.t * 2 - 3) ** 3 * (QT.t ** 2 * 5 + QT.t + 7) ** 2
    e = (QT.t ** 4 - QT.t * 6 + 1) / d
    assert e.d[0] != 0 and e.d[-1] not in (1, -1)
    for order in (0, 1, 7, 60):
        assert_same(lambda: element_to_series(e, order),
                    lambda: reference_element_to_series(e, order))
    assert_same(lambda: element_to_series(1 / (QT.t * d), 5),
                lambda: reference_element_to_series(1 / (QT.t * d), 5))


def random_rational_map(rng, field, n):
    comps = []
    for _ in range(n):
        num = random_poly(rng, field, n, deg=2, terms=3)
        den = random_poly(rng, field, n, deg=2, terms=2)
        if rng.random() < 0.8:
            den = den + MultiPoly.const(field, n, true_series_coefficient(rng, field))
        comps.append((num, den if not den.is_zero else MultiPoly.const(field, n, 1)))
    return RationalMap(field, n, tuple(comps))


@pytest.mark.parametrize("seed", range(20))
def test_map_on_series_against_invert_then_multiply(seed):
    rng = random.Random(seed)
    field = (Q, QT)[seed % 2]
    n = rng.randint(1, 3)
    f = random_rational_map(rng, field, n)
    order = rng.randint(0, 60 if n == 1 else 30)
    point = SeriesPoint(tuple(random_series(rng, order, "small") for _ in range(n)))
    assert_same(lambda: map_on_series(f, point), lambda: reference_map_on_series(f, point))


def test_map_on_series_faults():
    names = ("x",)
    at_zero = SeriesPoint((TruncSeries([0, 1, 2, 0]),))
    for text, message in (
        ("1/x", "map denominator vanishes at the series base point"),
        ("x/(x^2 + t*x)", "map denominator vanishes at the series base point"),
        ("(1/t)*x + 1", "coefficient denominator vanishes at t = 0"),
    ):
        f = RationalMap(QT, 1, (parse_rational(text, names, QT),))
        got = assert_same(lambda: map_on_series(f, at_zero),
                          lambda: reference_map_on_series(f, at_zero))
        assert got == (DenominatorVanishesAtInitialPoint, message)
