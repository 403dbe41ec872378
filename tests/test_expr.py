import sys
import time
from fractions import Fraction

import pytest

from prolong import (
    ExprSyntaxError,
    IdenticallyZeroDenominator,
    ProlongError,
    Q,
    QT,
    TInQField,
    UnknownVariable,
    format_poly,
    format_rational,
    parse_element,
    parse_point,
    parse_poly,
    parse_rational,
)

from prolong.expr import (
    _TOKEN_RE,
    MAX_DEGREE,
    MAX_LITERAL_DIGITS,
    MAX_NESTING,
    _read,
    check_poly,
    check_rational,
    is_name,
    read_int,
    read_rational,
)

import prolong.expr as expr_module

from helpers import poly, random_poly
from test_expr_reference import reference_read

XY = ("x", "y")


def test_precedence_power_binds_tighter_than_product():
    assert poly("2*x^3", ("x",), Q) == poly("2*(x^3)", ("x",), Q)
    assert poly("x*y^2", XY, Q) != poly("(x*y)^2", XY, Q)


def test_product_binds_tighter_than_sum():
    assert poly("x + y*x", XY, Q) == poly("x + (y*x)", XY, Q)


def test_unary_minus_only_at_expression_head():
    assert poly("-x + y", XY, Q) == poly("y - x", XY, Q)
    with pytest.raises(ExprSyntaxError):
        parse_poly("x + -y", XY, Q)
    with pytest.raises(ExprSyntaxError):
        parse_poly("x * -y", XY, Q)
    # a parenthesized expression admits its own head minus
    assert poly("x + (-y)", XY, Q) == poly("x - y", XY, Q)


def test_rational_literal_power_binds_whole():
    # '^' after a rational literal applies to the whole literal
    p = parse_poly("1/2^2*x", ("x",), Q)
    assert p == poly("1/4*x", ("x",), Q)


def test_rational_literal_greedy():
    # 1/2 is one literal, not 1 divided by the polynomial 2
    assert parse_element("1/2", Q).as_fraction() == Fraction(1, 2)
    assert poly("3/4*x", ("x",), Q) == poly("(3/4)*x", ("x",), Q)


def test_strict_mode_rejects_division():
    with pytest.raises(ExprSyntaxError):
        parse_poly("1/x", ("x",), Q)
    with pytest.raises(ExprSyntaxError):
        parse_poly("x/2", ("x",), Q)


def test_rational_mode_allows_division():
    num, den = parse_rational("1/x", ("x",), Q)
    assert format_rational(num, den, ("x",)) == "1/x"
    num, den = parse_rational("x/2", ("x",), Q)
    assert den.is_constant


def test_t_allowed_only_over_qt():
    assert parse_poly("t*x", ("x",), QT) is not None
    with pytest.raises(TInQField):
        parse_poly("t*x", ("x",), Q)


def test_t_as_variable_name_shadowing_rejected():
    # over Q(t) the symbol t is the field element, never a ring variable
    with pytest.raises(TInQField):
        parse_poly("x", ("x",), Q) and parse_poly("t", (), Q)
    for field in (Q, QT):
        with pytest.raises(ValueError, match="'t' names the base field element"):
            parse_poly("t*y - 1", ("t", "y"), field)


def test_unknown_variable_reports_name_and_offset():
    with pytest.raises(UnknownVariable) as info:
        parse_poly("x + zebra", XY, Q)
    assert info.value.name == "zebra"
    assert "offset 4" in str(info.value)


def test_syntax_errors_report_offset():
    with pytest.raises(ExprSyntaxError) as info:
        parse_poly("x + ", XY, Q)
    assert info.value.pos == 4
    with pytest.raises(ExprSyntaxError):
        parse_poly("(x + y", XY, Q)
    with pytest.raises(ExprSyntaxError):
        parse_poly("x ^ y", XY, Q)
    with pytest.raises(ExprSyntaxError):
        parse_poly("x $ y", XY, Q)
    with pytest.raises(ExprSyntaxError):
        parse_poly("", XY, Q)


def test_division_by_zero_in_source():
    # term-level division by a zero expression
    with pytest.raises(IdenticallyZeroDenominator):
        parse_rational("x/0", ("x",), Q)
    with pytest.raises(IdenticallyZeroDenominator):
        parse_rational("x/(y - y)", XY, Q)
    # zero denominator inside a rational literal is a syntax-level error
    with pytest.raises(ExprSyntaxError):
        parse_element("1/0", Q)


def test_parse_element_rejects_variables():
    with pytest.raises(UnknownVariable):
        parse_element("x + 1", Q)


def test_parse_point():
    pt = parse_point("1, -2/3, t^2", QT)
    assert pt[0] == QT.one
    assert pt[1] == QT.elem(Fraction(-2, 3))
    assert pt[2] == QT.t ** 2


def test_parse_point_bad_entry():
    with pytest.raises(ExprSyntaxError):
        parse_point("1, ", Q)
    # each entry is read in place: an offset indexes the whole text
    with pytest.raises(UnknownVariable) as info:
        parse_point("t,1 + y", QT)
    assert info.value.pos == 6
    for src, message, pos in [
        ("1,,2", "unexpected end of input", 2),
        ("1, 2 $", "unexpected character '$'", 5),
        ("1/2,3/0", "zero denominator in rational literal", 6),
        ("1,(2", "expected ')'", 4),
    ]:
        with pytest.raises(ExprSyntaxError) as info:
            parse_point(src, Q)
        assert str(info.value) == f"{message} (offset {pos})"


def test_format_poly_descending_grevlex_with_signs():
    p = poly("y^2 - x^2 - 1 + 2*x*y", XY, QT)
    assert format_poly(p, XY) == "-x^2 + 2*x*y + y^2 - 1"


def test_format_zero():
    assert format_poly(poly("x - x", XY, Q), XY) == "0"


def test_format_rational_bare_denominator():
    num, den = parse_rational("y/x^2", XY, Q)
    assert format_rational(num, den, XY) == "y/x^2"
    num, den = parse_rational("y/(x + 1)", XY, Q)
    assert format_rational(num, den, XY) == "y/(x + 1)"


def test_poly_format_round_trip(rng):
    names = ("x", "y", "z")
    for _ in range(120):
        p = random_poly(rng, QT, 3)
        assert parse_poly(format_poly(p, names), names, QT) == p
    for _ in range(40):
        p = random_poly(rng, Q, 3)
        assert parse_poly(format_poly(p, names), names, Q) == p


def test_rational_format_round_trip(rng):
    names = XY
    for _ in range(60):
        num = random_poly(rng, QT, 2, deg=2)
        den = random_poly(rng, QT, 2, deg=2)
        if den.is_zero:
            continue
        cnum, cden = parse_rational(
            f"({format_poly(num, names)}) / ({format_poly(den, names)})", names, QT
        )
        text = format_rational(cnum, cden, names)
        rnum, rden = parse_rational(text, names, QT)
        assert (rnum, rden) == (cnum, cden)


def test_whitespace_insensitive():
    assert poly(" x +y* x ", XY, Q) == poly("x + y*x", XY, Q)


def test_caret_requires_nonnegative_integer():
    with pytest.raises(ExprSyntaxError):
        parse_poly("x^-2", ("x",), Q)
    with pytest.raises(ExprSyntaxError):
        parse_poly("x^(2)", ("x",), Q)


def test_parse_caps():
    x = parse_poly("x", ("x",), Q)
    assert parse_poly("(" * MAX_NESTING + "x" + ")" * MAX_NESTING, ("x",), Q) == x
    with pytest.raises(ExprSyntaxError, match="nested deeper"):
        parse_poly("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1), ("x",), Q)
    assert parse_poly(f"x^{MAX_DEGREE}", ("x",), Q).total_degree() == MAX_DEGREE
    with pytest.raises(ExprSyntaxError, match="exponent above"):
        parse_element(f"(1 + t)^{MAX_DEGREE + 1}", QT)
    with pytest.raises(ExprSyntaxError, match="power of degree above"):
        parse_poly(f"(x*y)^{MAX_DEGREE // 2 + 1}", XY, Q)
    with pytest.raises(ExprSyntaxError, match="degree above"):
        parse_rational(f"1/x^{MAX_DEGREE} + 1/y", XY, Q)
    # the degree does not bound the number of terms; the work budget does
    with pytest.raises(ExprSyntaxError, match="coefficient products"):
        parse_poly(f"(x + y + z + w)^{MAX_DEGREE}", ("x", "y", "z", "w"), Q)
    with pytest.raises(ValueError, match="duplicate variable names"):
        parse_poly("x", ("x", "x"), Q)


def _fault(parse, *args):
    """(class, message) of what a parse raises, or None."""
    try:
        parse(*args)
    except (ProlongError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _outcome(read, *args):
    """(class, message) of what a read raises, or ("value", num, den)."""
    try:
        num, den = read(*args)
    except (ProlongError, ValueError) as exc:
        return type(exc), str(exc)
    return "value", num, den


def _depends_on_values(fault):
    cls, message = fault
    return cls is IdenticallyZeroDenominator or any(
        words in message for words in ("degree above", "coefficient products")
    )


SEEDS = ("x^2*y - 3/4", "(x + 1)/(y - t)", "1/(x - x) + y", f"(x + 1)^{MAX_DEGREE}*x",
         f"((x*y)^{MAX_DEGREE // 2})^3", "2/3*t^2 - (x)", f"(x*y + 1)^{MAX_DEGREE // 2 + 1} - 1/0",
         "((x))^2/(1 - 1)", f"x^{MAX_DEGREE} + 1/y", f"x^{MAX_DEGREE}*x/2")


def _agrees(src, field):
    """Assert that a parse raises the reference descent's fault or returns
    its (num, den), and that a check raises the same fault unless that fault
    depends on the expanded values, and then no fault or a syntax fault the
    descent did not reach.  Returns the kinds of the descent's outcomes."""
    kinds = set()
    reads = ((check_poly, XY, False), (check_rational, XY, True), (check_rational, (), True))
    for check, names, allow_div in reads:
        want = _outcome(reference_read, src, names, field, allow_div)
        assert _outcome(_read, src, names, field, allow_div, True) == want, (src, names)
        checked = _fault(check, src, names, field)
        if want[0] == "value":
            assert checked is None, (src, names)
        elif not _depends_on_values(want):
            assert checked == want, (src, names)
        else:
            assert checked is None or not _depends_on_values(checked), (src, names)
        kinds.add("none" if want[0] == "value" else
                  "value" if _depends_on_values(want) else "syntax")
    return kinds


def test_check_raises_what_the_parser_raises(rng):
    """The check and the parse are one loop, and the recursive descent of
    test_expr_reference is their reference: on seeded mutations of a few
    expressions and on seeded strings of tokens, a parse raises the
    descent's fault or returns its value, and a check raises exactly the
    descent's fault unless that fault depends on the expanded values."""
    seen = set()
    for _ in range(600):
        src = list(rng.choice(SEEDS))
        for _ in range(rng.randint(0, 3)):
            k = rng.randrange(len(src) + 1)
            op = rng.randrange(3)
            if op == 0:
                src.insert(k, rng.choice("xyt0123/^*+-() "))
            elif src and k < len(src):
                if op == 1:
                    del src[k]
                else:
                    src[k] = rng.choice("xyt0/^*+-()")
        src = "".join(src)
        for field in (Q, QT):
            seen |= _agrees(src, field)
    tokens = ("x", "y", "t", "z", "0", "7", "12", "007", "/", "/", "^", "^", "*", "+", "-",
              "-", "(", "(", ")", ")", " ", "$")
    for _ in range(1500):
        src = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 12)))
        for field in (Q, QT):
            seen |= _agrees(src, field)
    assert seen == {"none", "value", "syntax"}


@pytest.mark.parametrize("depth", [MAX_NESTING - 1, MAX_NESTING, MAX_NESTING + 1])
@pytest.mark.parametrize("opener", ["(", "-("])
def test_check_agrees_at_the_nesting_cap(depth, opener):
    for tail in ("x", "x)", "x^2^3", "x +", "", "x é"):
        src = opener * depth + tail + ")" * depth
        assert _agrees(src, Q) <= {"none", "syntax"}


@pytest.mark.parametrize("src, message, pos", [
    # the whole text is tokenized first: a bad character wins over an
    # earlier grammar fault
    ("x + + é", "unexpected character 'é'", 6),
    (") $", "unexpected character '$'", 2),
    # '^' binds to one atom: after a power only an operator or ')' may come
    ("x^2^3", "unexpected token '^'", 3),
    ("(x^2^3)", "expected ')'", 4),
    ("(x)^2^3", "unexpected token '^'", 5),
    ("((x)^2)^3", None, None),
    ("x^y", "exponent must be a nonnegative integer", 2),
    ("x^", "exponent must be a nonnegative integer", 2),
    (f"x^0{MAX_DEGREE + 1}", f"exponent above {MAX_DEGREE}", 2),
    ("--x", "expected a value, found '-'", 1),
    ("x + -y", "expected a value, found '-'", 4),
    ("(x", "expected ')'", 2),
    ("x)", "unexpected token ')'", 1),
    ("x y", "unexpected token 'y'", 2),
    ("2/00 + x", "zero denominator in rational literal", 2),
    ("x/2", "'/' is only valid inside a rational literal", 1),
    ("-(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
     f"parentheses nested deeper than {MAX_NESTING}", 2 * MAX_NESTING + 1),
])
def test_check_raises_the_parsers_first_fault(src, message, pos):
    assert _agrees(src, Q) <= {"none", "syntax"}
    if message is None:
        check_poly(src, XY, Q)
        return
    with pytest.raises(ExprSyntaxError) as info:
        check_poly(src, XY, Q)
    assert str(info.value) == f"{message} (offset {pos})"


@pytest.mark.parametrize("names, message", [
    (("x", "x"), "duplicate variable names"),
    (("x", "t"), "'t' names the base field element"),
    (("x", "1a"), "must be identifiers of ASCII letters"),
])
def test_check_raises_the_parsers_name_faults(names, message):
    # before any fault of the text
    for src in ("x", "x +", "é"):
        for parse, check in ((parse_poly, check_poly), (parse_rational, check_rational)):
            assert _fault(check, src, names, Q) == _fault(parse, src, names, Q)
            with pytest.raises(ValueError, match=message):
                check(src, names, Q)


def test_each_coordinate_list_is_checked_once(monkeypatch):
    """A model entry parses all its expressions under one list of names:
    the list is checked on its first parse, a list or a tuple alike, and
    its index is kept."""
    checked = []
    real = expr_module.is_name

    def counted(text):
        checked.append(text)
        return real(text)

    monkeypatch.setattr(expr_module, "is_name", counted)
    expr_module._checked_index.cache_clear()
    names = ("u", "v", "w_1")
    for src in ("u + v", "u*w_1 - 1", "v^2"):
        assert parse_poly(src, list(names), Q) == parse_poly(src, names, Q)
        check_rational(src, names, Q)
    assert checked == list(names)


@pytest.mark.parametrize("src, pos", [("x + \u0661\u0662", 4), ("x^\u0663", 2),
                                      ("x + \uff17", 4), ("1/\u0662", 2)])
def test_integer_literals_are_ascii_digits(src, pos):
    # Other digits are what str.isdigit calls digits, but no literal
    for check, parse in ((check_poly, parse_poly), (check_rational, parse_rational)):
        for run in (check, parse):
            with pytest.raises(ExprSyntaxError, match="unexpected character") as info:
                run(src, XY, Q)
            assert info.value.pos == pos


def test_integer_literal_length_is_capped():
    longest = "7" * MAX_LITERAL_DIGITS
    assert parse_poly(longest, XY, Q).constant_value() == Q.elem(read_int(longest))
    check_poly(f"x + {longest}", XY, Q)
    cases = [
        (f"x + {longest}1", 4),
        (f"x + 1/{longest}1", 6),
        (f"x^{longest}1", 2),
        # the first lexical fault in the text
        (f"x + {longest}1 + é", 4),
        (f"(x + {longest}1", 5),
    ]

    def refused():
        for src, pos in cases:
            for run in (check_poly, check_rational, parse_poly, parse_rational):
                with pytest.raises(ExprSyntaxError) as info:
                    run(src, XY, Q)
                assert str(info.value) == (
                    f"integer literal of more than {MAX_LITERAL_DIGITS} digits (offset {pos})"
                )

    refused()
    # The bound is the program's own: it holds with Python's integer-string
    # limit switched off (Pythons before 3.10.7 have no limit to switch off).
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            refused()
        finally:
            sys.set_int_max_str_digits(limit)
    with pytest.raises(ExprSyntaxError, match="unexpected character 'é'"):
        check_poly(f"é + {longest}1", XY, Q)


def test_rational_numerals_are_read_within_the_literal_cap():
    longest = "7" * MAX_LITERAL_DIGITS
    assert read_rational("-3/4") == Fraction(-3, 4)
    assert read_rational("0") == 0
    assert read_rational(f"-{longest}/{longest[1:]}3") == Fraction(
        -read_int(longest), read_int(longest[1:] + "3"))
    for text in ("", "-", "3/", "/4", "3/-4", "+3", " 3", "3 ", "1.5", "1e3", "1_000",
                 "١", f"{longest}1", f"1/{longest}1", "1e10000000"):
        assert read_rational(text) is None, text
    with pytest.raises(ZeroDivisionError):
        read_rational("1/0")


def test_tokenizing_is_linear_in_long_whitespace():
    # A tokenizer that searches for each next token, rather than matching
    # where the last one ended, takes time quadratic in a run of whitespace
    # after the last token: about 20 s for each of these.
    gap = " " * 20_000
    cases = [
        (f"x{gap}", None),
        (f"{gap}x{gap}+{gap}y{gap}", None),
        (f"x ${gap}", 2),
        (f"x{gap}$", len(gap) + 1),
        (f"x{gap}$ {gap}", len(gap) + 1),
    ]
    for src, pos in cases:
        for run in (check_poly, parse_poly):
            start = time.perf_counter()
            if pos is None:
                run(src, XY, Q)
            else:
                with pytest.raises(ExprSyntaxError, match="unexpected character '\\$'") as info:
                    run(src, XY, Q)
                assert info.value.pos == pos
            assert time.perf_counter() - start < 1.0


def test_check_leaves_value_faults_to_the_parse():
    for src in ("x/(y - y)", f"(x + 1)^{MAX_DEGREE}*x", f"(x*y)^{MAX_DEGREE // 2 + 1}"):
        check_rational(src, XY, Q)
    check_poly(f"(x + y + z + w)^{MAX_DEGREE}", ("x", "y", "z", "w"), Q)
    # a syntax fault is found even after a value fault the parse would stop at
    with pytest.raises(ExprSyntaxError, match="unexpected end of input"):
        check_poly(f"(x + 1)^{MAX_DEGREE}*x +", XY, Q)


def test_names_are_what_the_tokenizer_reads():
    chars = [chr(c) for c in range(32, 127)] + ["é", "ß", "ｘ", "١", "\u00b2", "\u212a"]
    texts = chars + [a + b for a in chars for b in chars]
    for text in texts:
        m = _TOKEN_RE.match(text)
        whole_name = m is not None and m.group(2) == text
        assert is_name(text) == whole_name, text
