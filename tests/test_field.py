import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from prolong import Q, QT, DivisionByZero, MultiPoly, format_element, parse_element
from prolong.expr import decimal, read_int
from prolong.field import _gcd, _mul, power

from helpers import int_str_limit, random_element, random_fraction, random_point, random_unit


def qt(text):
    return parse_element(text, QT)


def test_constants_over_q():
    a = Q.elem(Fraction(3, 4))
    b = Q.elem(2)
    assert (a + b).as_fraction() == Fraction(11, 4)
    assert (a * b).as_fraction() == Fraction(3, 2)
    assert (a - b).as_fraction() == Fraction(-5, 4)
    assert (a / b).as_fraction() == Fraction(3, 8)
    assert (-a).as_fraction() == Fraction(-3, 4)


def test_q_has_no_t():
    with pytest.raises(ValueError):
        _ = Q.t


def test_canonical_form_reduces_and_monicizes():
    # (2t + 2) / (4t + 4) reduces to the constant 1/2
    e = qt("(2*t + 2) / (4*t + 4)")
    assert e == QT.elem(Fraction(1, 2))
    # denominator is made monic: 1 / (2t) carries the 1/2 into the numerator
    f = qt("1 / (2*t)")
    assert f.den == (Fraction(0), Fraction(1))
    assert f.num == (Fraction(1, 2),)


def test_zero_normalization():
    z = qt("t - t")
    assert z.is_zero
    assert z == QT.zero
    assert hash(z) == hash(QT.zero)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        QT.one / QT.zero
    with pytest.raises(DivisionByZero):
        QT.zero.inverse()


def test_pow_including_negative():
    e = qt("1 + t")
    assert e ** 3 == qt("(1 + t)^3")
    assert e ** 0 == QT.one
    assert e ** -2 == QT.one / qt("(1 + t)^2")


def test_power_squares_and_multiplies_without_waste():
    class Counted:
        products = 0

        def __init__(self, e):
            self.e = e

        def __mul__(self, other):
            Counted.products += 1
            return Counted(self.e + other.e)

    for k in range(1, 70):
        Counted.products = 0
        assert power(Counted(1), k).e == k
        # bit_length - 1 squares, popcount - 1 products into the result
        assert Counted.products == k.bit_length() + bin(k).count("1") - 2, k


def test_derive_on_q_is_zero():
    assert Q.elem(Fraction(7, 2)).derive() == Q.zero


def test_derive_quotient_rule_example():
    # d/dt [ t^2 / (1 + t) ] = (t^2 + 2t) / (1 + t)^2
    e = qt("t^2 / (1 + t)")
    assert e.derive() == qt("(t^2 + 2*t) / (1 + 2*t + t^2)")


def test_derive_is_additive_and_leibniz(rng):
    for _ in range(60):
        a, b = random_point(rng, QT, 2)
        assert (a + b).derive() == a.derive() + b.derive()
        assert (a * b).derive() == a.derive() * b + a * b.derive()


def test_derive_of_quotient(rng):
    for _ in range(40):
        a, b = random_point(rng, QT, 2)
        if b.is_zero:
            continue
        q = a / b
        assert q.derive() == (a.derive() * b - a * b.derive()) / (b * b)


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        Q.elem(QT.one)


def test_scalar_coercion():
    e = qt("t")
    assert e + 1 == qt("t + 1")
    assert 2 * e == qt("2*t")
    assert 1 - e == qt("1 - t")
    assert e / 2 == qt("t/2") or e / 2 == qt("(1/2)*t")


def test_format_parse_round_trip(rng):
    for _ in range(60):
        (e,) = random_point(rng, QT, 1)
        assert parse_element(format_element(e), QT) == e
    for _ in range(20):
        (e,) = random_point(rng, Q, 1)
        assert parse_element(format_element(e), Q) == e


def test_as_fraction_rejects_nonconstant():
    with pytest.raises(ValueError):
        qt("t").as_fraction()


def test_is_negative_leading():
    assert qt("-t + 1").is_negative_leading
    assert not qt("t - 1").is_negative_leading
    assert not QT.zero.is_negative_leading


def test_repr_mentions_field():
    assert "Q(t)" in repr(QT.one) or "Qt" in repr(QT.one)


def test_element_hash_consistency(rng):
    for _ in range(30):
        (e,) = random_point(rng, QT, 1)
        same = parse_element(format_element(e), QT)
        assert hash(e) == hash(same)


def test_constant_hash_is_its_value():
    for c in (0, 1, -3, 2**70, Fraction(-7, 3), Fraction(5, 2**65)):
        for value in (c, Fraction(c)):
            assert hash(Q.elem(value)) == hash(QT.elem(value)) == hash(value)
            assert {Q.elem(value): "q"}.get(c) == "q"
            assert {QT.elem(value): "qt"}.get(c) == "qt"
            assert {value: "c"}.get(Q.elem(c)) == "c"
    assert {Q.one: "a"}.get(1) == "a"


def test_random_field_axioms(rng):
    for _ in range(40):
        a, b, c = random_point(rng, QT, 3)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero:
            assert a * a.inverse() == QT.one


def test_elem_rejects_floats():
    for field in (Q, QT):
        with pytest.raises(TypeError):
            field.elem(0.1)
    with pytest.raises(TypeError):
        MultiPoly.const(Q, 1, 0.5)
    with pytest.raises(TypeError):
        MultiPoly.var(Q, 1, 0).evaluate((0.5,))
    assert Q.elem(True) == Q.one
    assert Q.elem("-3/4") == Q.elem(Fraction(-3, 4))


# Reference canonical form, kept apart from the kernel: polynomials are
# lists of Fractions, lowest degree first; num/den are reduced by a full
# Euclidean gcd and then scaled to a monic denominator.


def _ptrim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b):
    n = max(len(a), len(b))
    return _ptrim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _pneg(a):
    return [-c for c in a]


def _pmul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ptrim(out)


def _pdivmod(a, b):
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    r = list(a)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] / b[-1]
        q[k] = c
        r = _padd(r, _pmul([Fraction(0)] * k + [-c], b))
    return _ptrim(q), r


def _pgcd(a, b):
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return [c / a[-1] for c in a]


def _pderiv(a):
    return _ptrim(k * a[k] for k in range(1, len(a)))


def _canon(num, den):
    num, den = _ptrim(num), _ptrim(den)
    if not num:
        return (), (Fraction(1),)
    g = _pgcd(num, den)
    num, den = _pdivmod(num, g)[0], _pdivmod(den, g)[0]
    lc = den[-1]
    return tuple(c / lc for c in num), tuple(c / lc for c in den)


def _ref(e):
    return list(e.num), list(e.den)


def _ref_derive(n, d):
    return _canon(_padd(_pmul(_pderiv(n), d), _pneg(_pmul(n, _pderiv(d)))), _pmul(d, d))


def _ref_binary(op, a, b):
    (n1, d1), (n2, d2) = _ref(a), _ref(b)
    if op == "+":
        return _canon(_padd(_pmul(n1, d2), _pmul(n2, d1)), _pmul(d1, d2))
    if op == "-":
        return _canon(_padd(_pmul(n1, d2), _pneg(_pmul(n2, d1))), _pmul(d1, d2))
    if op == "*":
        return _canon(_pmul(n1, n2), _pmul(d1, d2))
    return _canon(_pmul(n1, d2), _pmul(d1, n2))


def _operands(rng, field):
    """Zero, one, a constant and, over Q(t), t-polynomials and true
    rational functions, including pairs of denominators with a common
    factor and a factor that cancels against a numerator, denominators
    with repeated linear and quadratic factors or with integer content,
    and linear factors whose leading coefficient is not +-1."""
    out = [field.zero, field.one, field.elem(random_fraction(rng)), -field.one]
    if field.has_t:
        u, v = random_unit(rng, field, 2), random_unit(rng, field)
        w = field.t**2 * random_fraction(rng, 1, 5) + random_unit(rng, field)
        s = field.t * 2 + 3
        out += [
            u**3 / v**2,
            random_element(rng, field) / (u * w) ** 2,
            (field.t + 1) / (field.t * 4 + 6),
            field.one / ((field.t + 1) ** 2 * 2),
            random_element(rng, field) / (s**3 * 5),
            (s * w + 1) / (s**2 * v),
            field.t,
            random_element(rng, field),
            random_point(rng, field, 1)[0],
            random_element(rng, field) / u,
            random_element(rng, field) / (u * v),
            v / u,
            (u - v) / u,
            u / (v * v),
            (u * field.elem(random_fraction(rng, 1, 5))) / v,
        ]
    return out


def _assert_stored(e, expected):
    assert (e.num, e.den) == expected
    assert all(type(c) is Fraction for c in e.num + e.den)


def test_fast_paths_match_reference_canonical_form(rng):
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b}
    for field in (Q, QT):
        for _ in range(3):
            pool = _operands(rng, field)
            for a in pool:
                n, d = _ref(a)
                _assert_stored(a, _canon(n, d))
                _assert_stored(a.derive(), _ref_derive(n, d))
                if not a.is_zero:
                    _assert_stored(a.inverse(), _canon(d, n))
                for k in range(-3 if not a.is_zero else 0, 4):
                    num, den = [Fraction(1)], [Fraction(1)]
                    for _ in range(abs(k)):
                        num, den = _pmul(num, n), _pmul(den, d)
                    _assert_stored(a ** k, _canon(num, den) if k >= 0 else _canon(den, num))
                for b in pool:
                    for name, op in ops.items():
                        if name == "/" and b.is_zero:
                            continue
                        _assert_stored(op(a, b), _ref_binary(name, a, b))


def _coprime(a, b, p=2**61 - 1):
    """Whether a and b in Z[t] share no factor of positive degree, by their
    Euclidean gcd mod the prime p: a common factor divides both leading
    coefficients, so if p divides neither it keeps its degree mod p."""
    assert a[-1] % p and b[-1] % p
    a, b = [c % p for c in a], [c % p for c in b]
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            c, k = a[-1] * inv % p, len(a) - len(b)
            a = _ptrim((x - c * b[j - k] if j >= k else x) % p for j, x in enumerate(a))
        a, b = b, a
    return len(a) == 1


def test_iterated_derive_matches_reference(rng):
    # The canonical form is unique, so a derivative is the reference's when
    # it has the reference's value and is canonical.  _ref_derive checks the
    # first steps whole; past them its gcds in Q[t] take seconds, so each
    # step is checked against the quotient rule of the step before by cross
    # multiplication, and for coprime parts by _coprime.
    for a in _operands(rng, QT):
        n, d = _ref(a)
        for k in range(12):
            b = a.derive()
            if k < 3:
                n, d = _ref_derive(n, d)
                _assert_stored(b, (n, d))
            dn, dd = _ref(b)
            n0, d0 = _ref(a)
            rule = _padd(_pmul(_pderiv(n0), d0), _pneg(_pmul(n0, _pderiv(d0))))
            assert _pmul(dn, _pmul(d0, d0)) == _pmul(rule, dd)
            assert b.d[-1] > 0 and gcd(*b.n, *b.d) == 1
            assert _coprime(b.n, b.d) if b.n else b.d == (1,)
            a = b


def _ref_zgcd(a, b):
    """The gcd in Z[t]: the gcd of the contents times the primitive part of
    the monic gcd over Q."""
    g = _pgcd([Fraction(c) for c in a], [Fraction(c) for c in b])
    g = [c * lcm(*(x.denominator for x in g)) for c in g]
    h = gcd(*(int(c) for c in g))
    return tuple(gcd(*a, *b) * int(c) // h for c in g)


def test_gcd_with_a_linear_operand_matches_reference(rng):
    # 6 (2t + 3)(t^2 + t + 1) and -3 (2t + 3): the root -3/2 is shared
    a = _mul((6,), _mul((3, 2), (1, 1, 1)))
    assert _gcd(a, (-9, -6)) == _gcd((-9, -6), a) == (9, 6)
    # t^2 + 1 has no rational root
    assert _gcd((1, 0, 1), (6, 4)) == (1,)
    assert _gcd((2, 0, 2), (6, 4)) == (2,)
    # the root 0, with a negative leading coefficient
    assert _gcd((0, 4, -2), (0, -6)) == (0, 2)
    contents = (1, -1, 2, 6, -4, 9)
    for _ in range(400):
        r, s = rng.randint(-9, 9), rng.choice((-6, -3, -2, -1, 1, 2, 5))
        b = _mul((rng.choice(contents),), (-r, s))
        a = tuple(rng.randint(-9, 9) for _ in range(rng.randint(1, 5))) + (rng.choice(contents),)
        for _ in range(rng.randint(0, 3)):
            a = _mul(a, (-r, s))
        a = _mul(a, (rng.choice(contents),))
        assert _gcd(a, b) == _gcd(b, a) == _ref_zgcd(a, b), (a, b)


# The stored form: n and d in Z[t], coprime (no common integer content and
# no common factor of positive degree), lc(d) > 0, zero as ((), (1,)).


def _assert_canonical(e):
    n, d = e.n, e.d
    assert all(type(c) is int for c in n + d)
    assert d and d[-1] > 0 and (not n or n[-1])
    if not n:
        assert d == (1,)
        return
    assert gcd(*n, *d) == 1
    assert len(_pgcd([Fraction(c) for c in n], [Fraction(c) for c in d])) == 1


def test_stored_form_is_canonical_in_z_t(rng):
    for field in (Q, QT):
        pool = _operands(rng, field)
        for a in pool:
            _assert_canonical(a)
            _assert_canonical(a.derive())
            if not a.is_zero:
                _assert_canonical(a.inverse())
            for b in pool:
                for r in (a + b, a - b, a * b) + ((a / b,) if not b.is_zero else ()):
                    _assert_canonical(r)


def test_shared_integer_content_cancels():
    e = qt("(2*t + 2) / (4*t + 6)")
    assert e == qt("(t + 1) / (2*t + 3)")
    assert (e.n, e.d) == ((1, 1), (3, 2))
    assert e.num == (Fraction(1, 2), Fraction(1, 2))
    assert e.den == (Fraction(3, 2), Fraction(1))
    assert str(e) == "(1/2*t + 1/2)/(t + 3/2)"
    h = qt("(6*t + 4) / 10")
    assert (h.n, h.d) == ((2, 3), (5,))
    assert (Q.elem(Fraction(-6, 4)).n, Q.elem(Fraction(-6, 4)).d) == ((-3,), (2,))
    # Henrici's sums: the content left over g = gcd(d1, d2) cancels
    s = Q.elem(Fraction(1, 6)) + Q.elem(Fraction(1, 3))
    assert (s.n, s.d) == ((1,), (2,))
    s = qt("t/6 + 1/6") + qt("t/3 + 1/3")
    assert (s.n, s.d) == ((1, 1), (2,))
    s = qt("1/(2*t + 2)") + qt("t/(2*t + 2)")
    assert (s.n, s.d) == ((1,), (2,))
    # and products cross-cancel
    for x, y in ((Fraction(1, 2), Fraction(-2, 3)), (Fraction(-2, 3), Fraction(1, 2))):
        s = Q.elem(x) * Q.elem(y)
        assert (s.n, s.d) == ((-1,), (3,))
    s = qt("t/6 + 1/6") * qt("3/(t + 1)")
    assert (s.n, s.d) == ((1,), (2,))


def test_negative_leading_denominator_moves_its_sign_up():
    e = qt("(t + 1) / (3 - 2*t)")
    assert (e.n, e.d) == ((-1, -1), (-3, 2))
    assert e.is_negative_leading
    inv = e.inverse()
    assert (inv.n, inv.d) == ((3, -2), (1, 1))
    assert inv.inverse() == e and e * inv == QT.one
    f = qt("(1 - t) / (t + 2)")
    assert (f.inverse().n, f.inverse().d) == ((-2, -1), (-1, 1))
    q = Q.elem(Fraction(-3, 4))
    assert (q.inverse().n, q.inverse().d) == ((-4,), (3,))
    assert qt("1 / (-t)") == -qt("1/t")
    assert qt("1 / (-t)").d == (0, 1)


def test_derive_cancels_content_against_an_integer_denominator():
    e = qt("t^2 / 2")
    assert (e.n, e.d) == ((0, 0, 1), (2,))
    assert e.derive() == qt("t")
    assert (e.derive().n, e.derive().d) == ((0, 1), (1,))
    assert qt("(3*t^2 + 1) / 6").derive() == qt("t")
    assert qt("t^3 / 6").derive() == qt("t^2 / 2")
    assert qt("5 / 7").derive() == QT.zero


def test_coefficients_above_two_to_the_64():
    big, huge = 2**64 + 13, 2**70 + 1
    a = QT.t + big
    b = QT.t * 3 - huge
    c = QT.t + 1
    e = (a * c) / (a * b)
    assert (e.n, e.d) == ((1, 1), (-huge, 3))
    assert e == c / b
    assert e + (-c / b) == QT.zero
    g = (a * a) / (a * QT.elem(Fraction(huge, big)))
    assert (g.n, g.d) == ((big * big, big), (huge,))
    assert (e * b).derive() == QT.one
    # randomized against the reference canonical form
    rng = random.Random(2**64)
    pool = []
    for _ in range(4):
        n = [Fraction(rng.randint(-(2**72), 2**72), rng.randint(1, 2**65)) for _ in range(3)]
        d = [Fraction(rng.randint(-(2**72), 2**72), rng.randint(1, 2**65)) for _ in range(2)]
        num = sum((QT.t**k * c for k, c in enumerate(n)), QT.zero)
        den = sum((QT.t**k * c for k, c in enumerate(d)), QT.zero)
        pool.append(num / den)
        _assert_stored(pool[-1], _canon(n, d))
    for x in pool:
        for y in pool:
            for name, op in (("+", x.__add__), ("*", x.__mul__), ("/", x.__truediv__)):
                r = op(y)
                _assert_stored(r, _ref_binary(name, x, y))
                _assert_canonical(r)


def test_same_value_by_different_routes_is_stored_alike():
    routes = [
        qt("t + 1"),
        qt("(t^2 - 1) / (t - 1)"),
        QT.t + 1,
        (QT.t**2 + QT.t * 2 + 1) / (QT.t + 1),
        (qt("2*t + 2") / 6) * 3,
        qt("1/(t - 1)").inverse() + 2,
        (qt("(t + 1)^2 / 2")).derive(),
        qt("t^2/2 + t").derive(),
    ]
    for e in routes:
        assert (e.n, e.d) == ((1, 1), (1,))
        assert hash(e) == hash(routes[0])
    quotients = [qt("t / (2*t + 1)"), qt("(3*t) / (6*t + 3)"), (qt("2 + 1/t")).inverse(),
                 QT.one - qt("(t + 1) / (2*t + 1)")]
    for e in quotients:
        assert (e.n, e.d) == ((0, 1), (1, 2))
        assert hash(e) == hash(quotients[0])


def test_constant_hash_is_fraction_hash_by_any_route():
    routes = {
        Fraction(1, 2): [qt("(2*t + 2) / (4*t + 4)"), Q.elem(3) / 6, QT.elem(Fraction(2, 4))],
        Fraction(-7, 3): [qt("(7*t^2 - 7) / (3 - 3*t^2)"), Q.elem(-14) / Q.elem(6)],
        Fraction(2**70 + 1, 2**65): [QT.elem(Fraction(2**70 + 1, 2**65)) * qt("t / t"),
                                     Q.elem(2**70 + 1) / 2**65],
        Fraction(1): [qt("t / t"), Q.one * Q.one],
        Fraction(0): [qt("t - t"), Q.elem(5) - 5],
    }
    for value, elems in routes.items():
        for e in elems:
            assert e == value and e.as_fraction() == value
            assert hash(e) == hash(value)
            assert {value: "v"}.get(e) == "v"


def test_decimal_and_read_int_pass_any_int_string_limit():
    rng = random.Random(5)
    lengths = [1, 2, 639, 640, 641, 1920, 1921, 4300, 4301, 6000, 12917]
    values = [0, 10**640, 10**4300 - 1, -(10**6000)]
    for digits in lengths:
        values.append(rng.randrange(10 ** (digits - 1), 10**digits))
        # a long run of zeros inside, where a piece would lose them
        values.append(10 ** (digits - 1) + rng.randrange(10))
    with int_str_limit(0):
        want = {n: str(n) for n in values} | {-n: str(-n) for n in values}
        fractions = {Fraction(n, 7**900): str(Fraction(n, 7**900)) for n in want}
    for limit in (None, 640, 641, 4300, 0):
        with int_str_limit(limit):
            for n, text in want.items():
                assert decimal(n) == text
                assert read_int(text) == n
                assert read_int("000" + text.lstrip("-")) == abs(n)
            for q, text in fractions.items():
                assert decimal(q) == text
