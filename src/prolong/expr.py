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

check_poly and check_rational build nothing, for a caller that wants an
expression's faults now and its polynomial later.  They read the tokens
once, in a loop that keeps its place in the grammar and the number of open
parentheses, and raise the fault the parser would raise first, except a
fault of the expanded values.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Sequence

from .errors import (
    ExprSyntaxError,
    IdenticallyZeroDenominator,
    TInQField,
    UnknownVariable,
)
from .field import BaseField, FieldElement, read_int
from .poly import MultiPoly, reduce_fraction

# A variable name as the tokenizer reads it; is_name tests the same rule for
# the names --vars and a model's vars declare.  Integer literals are ASCII
# digits only: any other digit is an unexpected character.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(rf"\s*(?:([0-9]+)|({_NAME_RE.pattern})|([-+*/^()]))")

_INT, _NAME, _OP, _END = "int", "name", "op", "end"
# token kind by the number of the _TOKEN_RE group that matched
_KINDS = (None, _INT, _NAME, _OP)

# Each level of parentheses costs four stack frames of the descent, so this
# stays far below the interpreter's recursion limit.
MAX_NESTING = 100
# Exponent and total-degree cap, equal to the CLI's default Groebner degree
# cap.
MAX_DEGREE = 40
# The degree does not bound the number of terms ((x + y + z + w)^40 has
# 12341), so one parse may expand products of at most this many coefficient
# products, counting one per pair of t-coefficients: about a second of work.
MAX_WORK = 500_000
# Most digits of one integer literal: int() takes time quadratic in the
# digits, and this is Python's default limit on reading one (field.read_int
# reads it under a lower limit too).  The CLI puts the same bound on the
# integers of a series file.
MAX_LITERAL_DIGITS = 4300


def _size(p: MultiPoly) -> int:
    return sum(len(c.n) + len(c.d) for c in p.terms.values())


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) of each token of src, then one _END token.

    The lexical faults come in the order of the text: an unexpected
    character, or an integer literal of more than MAX_LITERAL_DIGITS.

    Each match is anchored where the last one ended, so the time is linear
    in the text: a search (finditer) would, after the last token, try the
    leading \\s* of _TOKEN_RE at every position of trailing whitespace.
    """
    tokens = []
    match = _TOKEN_RE.match
    end = 0
    m = match(src)
    while m:
        g = m.lastindex
        tokens.append((_KINDS[g], m.group(g), m.start(g)))
        end = m.end()
        m = match(src, end)
    # only a text this long can hold a literal this long
    if end > MAX_LITERAL_DIGITS:
        for kind, text, pos in tokens:
            if kind is _INT and len(text) > MAX_LITERAL_DIGITS:
                raise ExprSyntaxError(
                    f"integer literal of more than {MAX_LITERAL_DIGITS} digits", pos
                )
    rest = src[end:]
    if rest and not rest.isspace():
        j = len(src) - len(rest.lstrip())
        raise ExprSyntaxError(f"unexpected character {src[j]!r}", j)
    tokens.append((_END, "", len(src)))
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


class _Parser:
    """Recursive descent over (numerator, denominator) polynomial pairs."""

    def __init__(self, src: str, field: BaseField, var_names: Sequence[str], allow_div: bool):
        self.field = field
        self.vars = _var_index(var_names)
        self.nvars = len(var_names)
        self.one = MultiPoly.const(field, self.nvars, 1)
        self.allow_div = allow_div
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.work = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _const(self, value) -> MultiPoly:
        return MultiPoly.const(self.field, self.nvars, value)

    def _mul(self, a: MultiPoly, b: MultiPoly, pos: int) -> MultiPoly:
        # most products are by the denominator 1: they cost nothing
        if b.is_one:
            return a
        if a.is_one:
            return b
        if a.total_degree() + b.total_degree() > MAX_DEGREE:
            raise ExprSyntaxError(f"product of degree above {MAX_DEGREE}", pos)
        self.work += _size(a) * _size(b)
        if self.work > MAX_WORK:
            raise ExprSyntaxError(f"expression expands beyond {MAX_WORK} coefficient products", pos)
        return a * b

    def _power(self, num: MultiPoly, den: MultiPoly, e: int, pos: int):
        if e * max(num.total_degree(), den.total_degree()) > MAX_DEGREE:
            raise ExprSyntaxError(f"power of degree above {MAX_DEGREE}", pos)
        return self._pow(num, e, pos), self._pow(den, e, pos)

    def _pow(self, base: MultiPoly, e: int, pos: int) -> MultiPoly:
        """base**e by square-and-multiply through _mul, so the budget sees it."""
        out = self.one
        while e:
            if e & 1:
                out = self._mul(out, base, pos)
            e >>= 1
            if e:
                base = self._mul(base, base, pos)
        return out

    def parse(self) -> tuple[MultiPoly, MultiPoly]:
        num, den = self.expr()
        kind, text, pos = self.peek()
        if kind is not _END:
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return num, den

    def expr(self) -> tuple[MultiPoly, MultiPoly]:
        # an operator's text is the operator, which no other token's text is
        negate = self.peek()[1] == "-"
        if negate:
            self.i += 1
        num, den = self.term()
        if negate:
            num = -num
        while True:
            _, text, pos = self.peek()
            if text != "+" and text != "-":
                return num, den
            self.i += 1
            n2, d2 = self.term()
            if text == "-":
                n2 = -n2
            num = self._mul(num, d2, pos) + self._mul(n2, den, pos)
            den = self._mul(den, d2, pos)

    def term(self) -> tuple[MultiPoly, MultiPoly]:
        num, den = self.factor()
        while True:
            _, text, pos = self.peek()
            if text != "*" and text != "/":
                return num, den
            if text == "/" and not self.allow_div:
                raise ExprSyntaxError("'/' is only valid inside a rational literal", pos)
            self.i += 1
            n2, d2 = self.factor()
            if text == "*":
                num, den = self._mul(num, n2, pos), self._mul(den, d2, pos)
            else:
                if n2.is_zero:
                    raise IdenticallyZeroDenominator(
                        f"division by an identically zero expression (offset {pos})"
                    )
                num, den = self._mul(num, d2, pos), self._mul(den, n2, pos)

    def factor(self) -> tuple[MultiPoly, MultiPoly]:
        num, den = self.atom()
        if self.peek()[1] == "^":
            self.i += 1
            kind, text, pos = self.next()
            if kind is not _INT:
                raise ExprSyntaxError("exponent must be a nonnegative integer", pos)
            e = read_int(text)
            if e > MAX_DEGREE:
                raise ExprSyntaxError(f"exponent above {MAX_DEGREE}", pos)
            num, den = self._power(num, den, e, pos)
        return num, den

    def atom(self) -> tuple[MultiPoly, MultiPoly]:
        kind, text, pos = self.next()
        if kind is _INT:
            value = read_int(text)
            if self.peek()[1] == "/" and self.tokens[self.i + 1][0] is _INT:
                _, dtext, dpos = self.tokens[self.i + 1]
                self.i += 2
                d = read_int(dtext)
                if d == 0:
                    raise ExprSyntaxError("zero denominator in rational literal", dpos)
                value = Fraction(value, d)
            return self._const(value), self.one
        if kind is _NAME:
            if text == "t":
                if not self.field.has_t:
                    raise TInQField(pos)
                return self._const(self.field.t), self.one
            idx = self.vars.get(text)
            if idx is None:
                raise UnknownVariable(text, pos)
            return MultiPoly.var(self.field, self.nvars, idx), self.one
        if text == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            self.depth += 1
            num, den = self.expr()
            self.depth -= 1
            _, text, pos = self.next()
            if text != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return num, den
        raise ExprSyntaxError(
            f"expected a value, found {text!r}" if kind is not _END else "unexpected end of input",
            pos,
        )


def _check(src: str, var_names: Sequence[str], field: BaseField, allow_div: bool) -> None:
    """Raise the first fault _Parser would raise on src, in one pass over its
    tokens, except the three that depend on the expanded polynomials: a
    divisor that is identically zero, a product or power of degree above
    MAX_DEGREE, and MAX_WORK.

    The grammar is LL(1) and only parentheses nest, so the position in the
    descent is one of four states, each a place in the loop below (an
    expression's head, which may take a unary '-'; an operand; after an
    atom, which may take '^'; after a factor), plus the number of open
    parentheses.  An integer followed by '/' and an integer is one literal,
    as in _Parser.atom.
    """
    names = _var_index(var_names)
    tokens = _tokenize(src)
    has_t = field.has_t
    depth = 0
    i = 1 if tokens[0][1] == "-" else 0
    while True:
        # an operand
        kind, text, pos = tokens[i]
        i += 1
        if kind is _INT:
            if tokens[i][1] == "/" and tokens[i + 1][0] is _INT:
                _, dtext, dpos = tokens[i + 1]
                if read_int(dtext) == 0:
                    raise ExprSyntaxError("zero denominator in rational literal", dpos)
                i += 2
        elif kind is _NAME:
            if text == "t":
                if not has_t:
                    raise TInQField(pos)
            elif text not in names:
                raise UnknownVariable(text, pos)
        elif text == "(":
            if depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", pos)
            depth += 1
            # the head of an expression
            if tokens[i][1] == "-":
                i += 1
            continue
        else:
            raise ExprSyntaxError(
                f"expected a value, found {text!r}" if kind is not _END else "unexpected end of input",
                pos,
            )
        # after an atom; a closing parenthesis ends one, so '^' may follow it
        while True:
            kind, text, pos = tokens[i]
            i += 1
            if text == "^":
                kind, text, pos = tokens[i]
                if kind is not _INT:
                    raise ExprSyntaxError("exponent must be a nonnegative integer", pos)
                if read_int(text) > MAX_DEGREE:
                    raise ExprSyntaxError(f"exponent above {MAX_DEGREE}", pos)
                kind, text, pos = tokens[i + 1]
                i += 2
            if text != ")" or not depth:
                break
            depth -= 1
        # after a factor
        if text == "+" or text == "-" or text == "*":
            continue
        if text == "/":
            if not allow_div:
                raise ExprSyntaxError("'/' is only valid inside a rational literal", pos)
            continue
        if depth:
            raise ExprSyntaxError("expected ')'", pos)
        if kind is not _END:
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return


def check_poly(src: str, var_names: Sequence[str], field: BaseField) -> None:
    """Raise what parse_poly would, except a fault of the expanded values
    (see _check), and build nothing."""
    _check(src, var_names, field, allow_div=False)


def check_rational(src: str, var_names: Sequence[str], field: BaseField) -> None:
    """check_poly for parse_rational, and with no variables for parse_element."""
    _check(src, var_names, field, allow_div=True)


def parse_poly(src: str, var_names: Sequence[str], field: BaseField) -> MultiPoly:
    """Parse a polynomial under the strict grammar (no '/' operator)."""
    num, den = _Parser(src, field, var_names, allow_div=False).parse()
    c = den.constant_value()
    return num if c.is_one else num * c.inverse()


def parse_rational(
    src: str, var_names: Sequence[str], field: BaseField
) -> tuple[MultiPoly, MultiPoly]:
    """Parse a rational expression; returns canonical (num, den)."""
    num, den = _Parser(src, field, var_names, allow_div=True).parse()
    return reduce_fraction(num, den)


def parse_element(src: str, field: BaseField) -> FieldElement:
    """Parse a base field element: rationals over Q, rational functions of t over Q(t)."""
    num, den = _Parser(src, field, (), allow_div=True).parse()
    nv = num.constant_value()
    dv = den.constant_value()
    return nv / dv


def parse_point(src: str, field: BaseField) -> tuple[FieldElement, ...]:
    """Parse a comma-separated tuple of base field elements."""
    parts = src.split(",")
    return tuple(parse_element(part, field) for part in parts)


_BARE_DENOM_RE = re.compile(r"^[A-Za-z_][A-Za-z_0-9]*(\^\d+)?$")


def _term_body(coeff: FieldElement, mono, names: Sequence[str]) -> str:
    vparts = []
    for i, e in enumerate(mono):
        if e == 1:
            vparts.append(names[i])
        elif e > 1:
            vparts.append(f"{names[i]}^{e}")
    if not vparts:
        return coeff.format(as_factor=True)
    if coeff.is_one:
        return "*".join(vparts)
    return coeff.format(as_factor=True) + "*" + "*".join(vparts)


def format_poly(p: MultiPoly, names: Sequence[str]) -> str:
    """Deterministic rendering: grevlex-descending terms, signs extracted."""
    if len(names) != p.nvars:
        raise ValueError(f"{len(names)} names for {p.nvars} variables")
    if p.is_zero:
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        neg = coeff.is_negative_leading
        mag = -coeff if neg else coeff
        body = _term_body(mag, mono, names)
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append(("- " if neg else "+ ") + body)
    return " ".join(pieces)


def format_rational(num: MultiPoly, den: MultiPoly, names: Sequence[str]) -> str:
    """Render num/den; assumes the canonical form from reduce_fraction."""
    if den.is_constant:
        c = den.constant_value()
        p = num if c.is_one else num * c.inverse()
        return format_poly(p, names)
    num_s = format_poly(num, names)
    if len(num.terms) > 1:
        num_s = f"({num_s})"
    den_s = format_poly(den, names)
    if not _BARE_DENOM_RE.match(den_s):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def format_element(e: FieldElement) -> str:
    return e.format()
