"""Expression text: parsing and deterministic formatting.

Grammar (whitespace insignificant):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*            (plus '/' in rational mode)
    factor := atom ('^' uint)?
    atom   := rationalLiteral | 't' | identifier | '(' expr ')'
    rationalLiteral := int ('/' uint)?

A '/' directly between two integer literals is always consumed as one
rational literal, so the literal is the atom and '^' binds to it as a
whole.  In rational mode '/' is additionally an operator at term level,
which admits map components such as 1/x.  Element mode is rational mode
with no variables (only t is allowed, and only over Q(t)).  An int or
uint is a run of the ASCII digits 0-9.

Parsing is bounded: an integer literal has at most MAX_LITERAL_DIGITS
digits, parentheses nest at most MAX_NESTING deep, exponents
are at most MAX_DEGREE, no power or product is expanded when its total
degree in the variables would exceed MAX_DEGREE, and the products one parse
expands cost at most MAX_WORK coefficient products in all.  Each bound
raises ExprSyntaxError before the work that would break it is done.

The grammar is read in one place, _read: one pass over the tokens, which
builds the value as it goes (parse_poly, parse_rational, parse_element) or
builds nothing (check_poly and check_rational, for a caller that wants an
expression's faults now and its polynomial later).  Both modes raise the
same first fault, except that a check leaves out the faults of the expanded
values.  parse_point reads each element in place, so a fault's offset
indexes the whole text.

The module is also the one writer of the syntax.  A field element n/d is
displayed over the monic denominator, each coefficient c as c/lc(d) in
lowest terms by one integer gcd.  Every sum is joined by _join, and every
numeral is read by read_int and written by _int_decimal, at any length;
read_rational reads a rational numeral outside an expression.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import partial
from math import gcd
from typing import Sequence

from .errors import (
    ExprSyntaxError,
    IdenticallyZeroDenominator,
    TInQField,
    UnknownVariable,
)
from .field import BaseField, FieldElement, power
from .poly import MultiPoly, reduce_fraction

# A variable name as the tokenizer reads it; is_name tests the same rule for
# the names --vars and a model's vars declare.  Integer literals are ASCII
# digits only: any other digit is an unexpected character.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(rf"\s*(?:([0-9]+)|({_NAME_RE.pattern})|([-+*/^()]))")

_INT, _NAME, _OP, _END = "int", "name", "op", "end"
# token kind by the number of the _TOKEN_RE group that matched
_KINDS = (None, _INT, _NAME, _OP)

# The reader keeps one frame per open parenthesis on a list, not on the
# interpreter's stack; the cap is part of the grammar's documented contract.
MAX_NESTING = 100
# Exponent and total-degree cap, equal to the CLI's default Groebner degree
# cap.
MAX_DEGREE = 40
# The degree does not bound the number of terms ((x + y + z + w)^40 has
# 12341), so one parse may expand products of at most this many coefficient
# products, counting one per pair of t-coefficients: about a second of work.
MAX_WORK = 500_000
# Most digits of one integer literal: int() takes time quadratic in the
# digits, and this is Python's default limit on reading one (read_int reads
# it under a lower limit too).  The CLI puts the same bound on the integers
# of a series file.
MAX_LITERAL_DIGITS = 4300

# Python refuses int() of a numeral, and str() of an int, with more digits
# than sys.get_int_max_str_digits() (4300 by default, 0 for no limit, and
# at least 640 otherwise).  read_int and decimal convert a longer numeral in
# pieces within the limit; the process-wide setting is never changed.
_int_str_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


def read_int(text: str) -> int:
    """int(text) for an optional '-' and ASCII digits, of any length."""
    limit = _int_str_limit()
    if not limit or len(text) <= limit:
        return int(text)
    if text[0] == "-":
        return -read_int(text[1:])
    k = len(text) // 2
    return read_int(text[:-k]) * 10**k + read_int(text[-k:])


def _int_decimal(n: int) -> str:
    bits = n.bit_length()
    limit = _int_str_limit()
    # 2^(3 * limit) < 10^limit
    if not limit or bits <= 3 * limit:
        return str(n)
    if n < 0:
        return "-" + _int_decimal(-n)
    # n has more than 2k digits, so the high part is not zero
    k = ((bits - 1) * 1233 >> 12) // 2
    hi, lo = divmod(n, 10**k)
    return _int_decimal(hi) + _int_decimal(lo).zfill(k)


def _quotient(n: int, d: int) -> str:
    """n/d for d > 0, or n when d is 1, of any length."""
    return _int_decimal(n) if d == 1 else f"{_int_decimal(n)}/{_int_decimal(d)}"


def decimal(q) -> str:
    """str(q) for an int or a Fraction q, of any length."""
    return _quotient(q.numerator, q.denominator)


# A rational numeral: an integer, or a quotient of integers, each of at most
# MAX_LITERAL_DIGITS digits.  This is what solve-series writes (at order
# 1000 the denominators near 1000! have 2568 digits), what a series file
# holds and what BaseField.elem reads from a string.
_DIGITS = "[0-9]{1,%d}" % MAX_LITERAL_DIGITS
_RATIONAL = re.compile(f"-?{_DIGITS}(/{_DIGITS})?")


def read_rational(text: str) -> Fraction | None:
    """The value of a rational numeral, or None for any other text.  A zero
    denominator raises ZeroDivisionError."""
    if not _RATIONAL.fullmatch(text):
        return None
    num, _, den = text.partition("/")
    return Fraction(read_int(num), read_int(den) if den else 1)


def _size(p: MultiPoly) -> int:
    return sum(len(c.n) + len(c.d) for c in p.terms.values())


def _tokenize(src: str, start: int, stop: int) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token of src[start:stop], then one _END
    token; the offsets index the whole of src.

    The lexical faults come in the order of the text: an unexpected
    character, or an integer literal of more than MAX_LITERAL_DIGITS.

    Each match is anchored where the last one ended, so the time is linear
    in the text: a search (finditer) would, after the last token, try the
    leading \\s* of _TOKEN_RE at every position of trailing whitespace.
    """
    tokens = []
    match = _TOKEN_RE.match
    end = start
    m = match(src, start, stop)
    while m:
        g = m.lastindex
        tokens.append((_KINDS[g], m.group(g), m.start(g)))
        end = m.end()
        m = match(src, end, stop)
    # only a text this long can hold a literal this long
    if end - start > MAX_LITERAL_DIGITS:
        for kind, text, pos in tokens:
            if kind is _INT and len(text) > MAX_LITERAL_DIGITS:
                raise ExprSyntaxError(
                    f"integer literal of more than {MAX_LITERAL_DIGITS} digits", pos
                )
    rest = src[end:stop]
    if rest and not rest.isspace():
        j = stop - len(rest.lstrip())
        raise ExprSyntaxError(f"unexpected character {src[j]!r}", j)
    tokens.append((_END, "", stop))
    return tokens


def is_name(text: str) -> bool:
    """Whether text can name a variable: the tokenizer reads it as one name.

    The ASCII identifiers are exactly the matches of _NAME_RE, and two
    string methods test that faster than the pattern.
    """
    return text.isascii() and text.isidentifier()


def _var_index(var_names: Sequence[str]) -> dict[str, int]:
    """Each variable name's index; a ValueError if the names cannot be read."""
    index = {name: i for i, name in enumerate(var_names)}
    if len(index) != len(var_names):
        raise ValueError(f"duplicate variable names in {list(var_names)}")
    if "t" in index:
        raise ValueError("'t' names the base field element and cannot be a variable")
    bad = [name for name in var_names if not is_name(name)]
    if bad:
        raise ValueError(
            f"variable names must be identifiers of ASCII letters, digits and _, not {bad}"
        )
    return index


def _read(
    src: str,
    var_names: Sequence[str],
    field: BaseField,
    allow_div: bool,
    build: bool,
    start: int = 0,
    stop: int | None = None,
) -> tuple[MultiPoly, MultiPoly] | None:
    """Read src[start:stop] in one pass over its tokens and raise its first
    fault.  With build on, return its value as a (numerator, denominator)
    pair of polynomials; with build off, return None and leave out the three
    faults of the expanded values: a divisor that is identically zero, a
    product or power of degree above MAX_DEGREE, and MAX_WORK.

    The grammar is LL(1) and only parentheses nest, so the place in it is
    one of four states, each a place in the loop below (an expression's
    head, which may take a unary '-'; an operand; after an atom, which may
    take '^'; after a factor), plus a stack of the open parentheses, each
    frame holding the unfinished sum and product around its parenthesis.  A
    factor joins its product, and a product its sum, as soon as the next
    token shows that it is complete, so the value faults come in the order
    of a recursive descent, each at its operator's offset.  An integer
    followed by '/' and an integer is one literal.
    """
    names = _var_index(var_names)
    tokens = _tokenize(src, start, len(src) if stop is None else stop)
    has_t = field.has_t
    if build:
        nvars = len(var_names)
        one = MultiPoly.const(field, nvars, 1)
        work = 0

        def mul(a: MultiPoly, b: MultiPoly, pos: int) -> MultiPoly:
            nonlocal work
            # most products are by the denominator 1: they cost nothing
            if b.is_one:
                return a
            if a.is_one:
                return b
            if a.total_degree() + b.total_degree() > MAX_DEGREE:
                raise ExprSyntaxError(f"product of degree above {MAX_DEGREE}", pos)
            work += _size(a) * _size(b)
            if work > MAX_WORK:
                raise ExprSyntaxError(
                    f"expression expands beyond {MAX_WORK} coefficient products", pos
                )
            return a * b

    # The open parentheses, innermost last.  Around the operand being read:
    # the sum so far, and whether its term is subtracted, at the offset of
    # its operator; the product so far, and whether its factor divides, at
    # the offset of its operator.  A sum or product is None until its first
    # term or factor is complete.
    stack = []
    total = prod = add_pos = div = mul_pos = None
    # the head of an expression; an operator's text is the operator, which
    # no other token's text is
    neg = tokens[0][1] == "-"
    i = 1 if neg else 0
    while True:
        # an operand
        kind, text, pos = tokens[i]
        i += 1
        if kind is _INT:
            if tokens[i][1] == "/" and tokens[i + 1][0] is _INT:
                _, dtext, dpos = tokens[i + 1]
                d = read_int(dtext)
                if d == 0:
                    raise ExprSyntaxError("zero denominator in rational literal", dpos)
                i += 2
                if build:
                    value = MultiPoly.const(field, nvars, Fraction(read_int(text), d)), one
            elif build:
                value = MultiPoly.const(field, nvars, read_int(text)), one
        elif kind is _NAME:
            if text == "t":
                if not has_t:
                    raise TInQField(pos)
                if build:
                    value = MultiPoly.const(field, nvars, field.t), one
            elif text not in names:
                raise UnknownVariable(text, pos)
            elif build:
                value = MultiPoly.var(field, nvars, names[text]), one
        elif text == "(":
            if len(stack) == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            stack.append((total, neg, add_pos, prod, div, mul_pos))
            total = prod = None
            # the head of an expression
            neg = tokens[i][1] == "-"
            if neg:
                i += 1
            continue
        else:
            raise ExprSyntaxError(
                f"expected a value, found {text!r}" if kind is not _END else "unexpected end of input",
                pos,
            )
        while True:
            # after an atom; a closing parenthesis ends one, so '^' may follow it
            kind, text, pos = tokens[i]
            i += 1
            if text == "^":
                kind, text, pos = tokens[i]
                if kind is not _INT:
                    raise ExprSyntaxError("exponent must be a nonnegative integer", pos)
                e = read_int(text)
                if e > MAX_DEGREE:
                    raise ExprSyntaxError(f"exponent above {MAX_DEGREE}", pos)
                if build:
                    num, den = value
                    if e * max(num.total_degree(), den.total_degree()) > MAX_DEGREE:
                        raise ExprSyntaxError(f"power of degree above {MAX_DEGREE}", pos)
                    # square-and-multiply through mul, so the budget sees it
                    step = partial(mul, pos=pos)
                    value = (power(num, e, step), power(den, e, step)) if e else (one, one)
                kind, text, pos = tokens[i + 1]
                i += 2
            # after a factor
            if build:
                if prod is None:
                    prod = value
                else:
                    num, den = prod
                    n2, d2 = value
                    if not div:
                        prod = mul(num, n2, mul_pos), mul(den, d2, mul_pos)
                    elif n2.is_zero:
                        raise IdenticallyZeroDenominator(
                            f"division by an identically zero expression (offset {mul_pos})"
                        )
                    else:
                        prod = mul(num, d2, mul_pos), mul(den, n2, mul_pos)
            if text == "*" or text == "/":
                div = text == "/"
                if div and not allow_div:
                    raise ExprSyntaxError("'/' is only valid inside a rational literal", pos)
                mul_pos = pos
                break
            # after a term
            if build:
                n2, d2 = prod
                if neg:
                    n2 = -n2
                if total is None:
                    total = n2, d2
                else:
                    num, den = total
                    total = (
                        mul(num, d2, add_pos) + mul(n2, den, add_pos),
                        mul(den, d2, add_pos),
                    )
                prod = None
            if text == "+" or text == "-":
                neg = text == "-"
                add_pos = pos
                break
            if text != ")" or not stack:
                if stack:
                    raise ExprSyntaxError("expected ')'", pos)
                if kind is not _END:
                    raise ExprSyntaxError(f"unexpected token {text!r}", pos)
                return total
            # the parenthesis' sum is an atom of the expression around it
            value = total
            total, neg, add_pos, prod, div, mul_pos = stack.pop()


def check_poly(src: str, var_names: Sequence[str], field: BaseField) -> None:
    """Raise what parse_poly would, except a fault of the expanded values
    (see _read), and build nothing."""
    _read(src, var_names, field, allow_div=False, build=False)


def check_rational(src: str, var_names: Sequence[str], field: BaseField) -> None:
    """check_poly for parse_rational, and with no variables for parse_element."""
    _read(src, var_names, field, allow_div=True, build=False)


def parse_poly(src: str, var_names: Sequence[str], field: BaseField) -> MultiPoly:
    """Parse a polynomial under the strict grammar (no '/' operator)."""
    num, den = _read(src, var_names, field, allow_div=False, build=True)
    c = den.constant_value()
    return num if c.is_one else num * c.inverse()


def parse_rational(
    src: str, var_names: Sequence[str], field: BaseField
) -> tuple[MultiPoly, MultiPoly]:
    """Parse a rational expression; returns canonical (num, den)."""
    num, den = _read(src, var_names, field, allow_div=True, build=True)
    return reduce_fraction(num, den)


def _element(src: str, field: BaseField, start: int, stop: int) -> FieldElement:
    num, den = _read(src, (), field, allow_div=True, build=True, start=start, stop=stop)
    return num.constant_value() / den.constant_value()


def parse_element(src: str, field: BaseField) -> FieldElement:
    """Parse a base field element: rationals over Q, rational functions of t over Q(t)."""
    return _element(src, field, 0, len(src))


def parse_point(src: str, field: BaseField) -> tuple[FieldElement, ...]:
    """Parse a comma-separated tuple of base field elements.  Each is read
    in place, so a fault's offset indexes the whole text."""
    point = []
    start = 0
    for part in src.split(","):
        stop = start + len(part)
        point.append(_element(src, field, start, stop))
        start = stop + 1
    return tuple(point)


def _join(terms) -> str:
    """The sum of signed terms (negative, text): a '-' before a negative
    first term, ' + ' or ' - ' before each later one, and 0 for no terms."""
    out = []
    for neg, body in terms:
        out.append((" - " if neg else " + ") if out else ("-" if neg else ""))
        out.append(body)
    return "".join(out) or "0"


def _t_term(k: int, mag: str) -> str:
    """The term mag*t^k, from the text of a positive coefficient."""
    if not k:
        return mag
    tk = "t" if k == 1 else f"t^{k}"
    return tk if mag == "1" else f"{mag}*{tk}"


def _ratio(c: int, lc: int) -> str:
    """|c|/lc in lowest terms, for lc > 0."""
    g = gcd(c, lc)
    return _quotient(abs(c) // g, lc // g)


def _upoly(a, lc: int) -> str:
    """a/lc in t, highest degree first, for a tuple a lowest degree first."""
    terms = [(c < 0, _t_term(k, _ratio(c, lc))) for k, c in enumerate(a) if c]
    return _join(reversed(terms))


def _term_count(a) -> int:
    """The nonzero entries of a tuple: terms in t, or a monomial's variables."""
    return sum(1 for c in a if c)


def _element_text(e: FieldElement, as_factor: bool) -> str:
    """e over its monic denominator; as_factor puts a numerator of several
    terms and no denominator in parentheses, for use inside a product."""
    n, d = e.n, e.d
    lc = d[-1]
    num = _upoly(n, lc)
    several = _term_count(n) > 1
    if len(d) == 1:
        return f"({num})" if as_factor and several else num
    # a numerator of one term is bare unless its coefficient has a denominator
    if several or n[-1] % lc:
        num = f"({num})"
    den = _upoly(d, lc)
    if _term_count(d) > 1:
        den = f"({den})"
    return f"{num}/{den}"


def format_poly(p: MultiPoly, names: Sequence[str]) -> str:
    """Deterministic rendering: grevlex-descending terms, signs extracted."""
    if len(names) != p.nvars:
        raise ValueError(f"{len(names)} names for {p.nvars} variables")
    terms = []
    for mono, coeff in p.sorted_terms():
        neg = coeff.is_negative_leading
        mag = -coeff if neg else coeff
        factors = [names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(mono) if e]
        if not (factors and mag.is_one):
            factors.insert(0, _element_text(mag, as_factor=True))
        terms.append((neg, "*".join(factors)))
    return _join(terms)


def format_rational(num: MultiPoly, den: MultiPoly, names: Sequence[str]) -> str:
    """Render num/den; assumes the canonical form from reduce_fraction.

    The denominator is written bare when it is one monic term in one
    variable, such as x or x^3, and in parentheses otherwise."""
    if den.is_constant:
        c = den.constant_value()
        p = num if c.is_one else num * c.inverse()
        return format_poly(p, names)
    num_s = format_poly(num, names)
    if len(num.terms) > 1:
        num_s = f"({num_s})"
    den_s = format_poly(den, names)
    (mono, c), *rest = den.terms.items()
    if rest or not c.is_one or _term_count(mono) != 1:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def format_element(e: FieldElement) -> str:
    return _element_text(e, as_factor=False)


def format_series(s) -> str:
    """A TruncSeries as c0 + c1*t + ... + O(t^(order + 1))."""
    terms = ((c < 0, _t_term(k, decimal(abs(c)))) for k, c in enumerate(s.coeffs) if c)
    return f"{_join(terms)} + O(t^{s.order + 1})"
