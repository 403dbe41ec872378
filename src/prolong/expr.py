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
with no variables (only t is allowed, and only over Q(t)).

Parsing is bounded: parentheses nest at most MAX_NESTING deep, exponents
are at most MAX_DEGREE, no power or product is expanded when its total
degree in the variables would exceed MAX_DEGREE, and the products one parse
expands cost at most MAX_WORK coefficient products in all.  Each bound
raises ExprSyntaxError before the work that would break it is done.

check_poly and check_rational run the same descent and build nothing, for a
caller that wants an expression's faults now and its polynomial later.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import (
    ExprSyntaxError,
    IdenticallyZeroDenominator,
    TInQField,
    UnknownVariable,
)
from .field import BaseField, FieldElement
from .poly import MultiPoly, reduce_fraction

# A variable name as the tokenizer reads it; is_name tests the same rule for
# the names --vars and a model's vars declare.
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(rf"\s*(?:(\d+)|({_NAME_RE.pattern})|([-+*/^()]))")

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


def _size(p: MultiPoly) -> int:
    return sum(len(c.n) + len(c.d) for c in p.terms.values())


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        m = _TOKEN_RE.match(src, i)
        if m is None or m.end() == m.start():
            j = i
            while j < n and src[j].isspace():
                j += 1
            if j >= n:
                break
            raise ExprSyntaxError(f"unexpected character {src[j]!r}", j)
        g = m.lastindex
        tokens.append(_Token(_KINDS[g], m.group(g), m.start(g)))
        i = m.end()
    tokens.append(_Token(_END, "", n))
    return tokens


def is_name(text: str) -> bool:
    """Whether text can name a variable: the tokenizer reads it as one name.

    The ASCII identifiers are exactly the matches of _NAME_RE, and two
    string methods test that faster than the pattern.
    """
    return text.isascii() and text.isidentifier()


class _Parser:
    """Recursive descent over (numerator, denominator) polynomial pairs."""

    def __init__(self, src: str, field: BaseField, var_names: Sequence[str], allow_div: bool):
        self.src = src
        self.field = field
        self.vars = {name: i for i, name in enumerate(var_names)}
        if len(self.vars) != len(var_names):
            raise ValueError(f"duplicate variable names in {list(var_names)}")
        if "t" in self.vars:
            raise ValueError("'t' names the base field element and cannot be a variable")
        bad = [name for name in var_names if not is_name(name)]
        if bad:
            raise ValueError(
                f"variable names must be identifiers of ASCII letters, digits and _, not {bad}"
            )
        self.nvars = len(var_names)
        self.allow_div = allow_div
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0
        self.work = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _const(self, value) -> MultiPoly:
        return MultiPoly.const(self.field, self.nvars, value)

    def _one(self) -> MultiPoly:
        return self._const(1)

    def _var(self, idx: int) -> MultiPoly:
        return MultiPoly.var(self.field, self.nvars, idx)

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
        out = self._one()
        while e:
            if e & 1:
                out = self._mul(out, base, pos)
            e >>= 1
            if e:
                base = self._mul(base, base, pos)
        return out

    def parse(self) -> tuple[MultiPoly, MultiPoly]:
        num, den = self.expr()
        tok = self.peek()
        if tok.kind != _END:
            raise ExprSyntaxError(f"unexpected token {tok.text!r}", tok.pos)
        return num, den

    def expr(self) -> tuple[MultiPoly, MultiPoly]:
        tok = self.peek()
        negate = False
        if tok.kind == _OP and tok.text == "-":
            self.next()
            negate = True
        num, den = self.term()
        if negate:
            num = -num
        while True:
            tok = self.peek()
            if tok.kind != _OP or tok.text not in "+-":
                return num, den
            self.next()
            n2, d2 = self.term()
            if tok.text == "-":
                n2 = -n2
            num = self._mul(num, d2, tok.pos) + self._mul(n2, den, tok.pos)
            den = self._mul(den, d2, tok.pos)

    def term(self) -> tuple[MultiPoly, MultiPoly]:
        num, den = self.factor()
        while True:
            tok = self.peek()
            if tok.kind != _OP or tok.text not in "*/":
                return num, den
            if tok.text == "/" and not self.allow_div:
                raise ExprSyntaxError("'/' is only valid inside a rational literal", tok.pos)
            self.next()
            n2, d2 = self.factor()
            if tok.text == "*":
                num, den = self._mul(num, n2, tok.pos), self._mul(den, d2, tok.pos)
            else:
                if n2.is_zero:
                    raise IdenticallyZeroDenominator(
                        f"division by an identically zero expression (offset {tok.pos})"
                    )
                num, den = self._mul(num, d2, tok.pos), self._mul(den, n2, tok.pos)

    def factor(self) -> tuple[MultiPoly, MultiPoly]:
        num, den = self.atom()
        tok = self.peek()
        if tok.kind == _OP and tok.text == "^":
            self.next()
            etok = self.next()
            if etok.kind != _INT:
                raise ExprSyntaxError("exponent must be a nonnegative integer", etok.pos)
            e = int(etok.text)
            if e > MAX_DEGREE:
                raise ExprSyntaxError(f"exponent above {MAX_DEGREE}", etok.pos)
            num, den = self._power(num, den, e, etok.pos)
        return num, den

    def atom(self) -> tuple[MultiPoly, MultiPoly]:
        tok = self.next()
        if tok.kind == _INT:
            value = Fraction(int(tok.text))
            nxt = self.peek()
            if (
                nxt.kind == _OP
                and nxt.text == "/"
                and self.tokens[self.i + 1].kind == _INT
            ):
                self.next()
                dtok = self.next()
                d = int(dtok.text)
                if d == 0:
                    raise ExprSyntaxError("zero denominator in rational literal", dtok.pos)
                value = Fraction(int(tok.text), d)
            return self._const(value), self._one()
        if tok.kind == _NAME:
            if tok.text == "t":
                if not self.field.has_t:
                    raise TInQField(tok.pos)
                return self._const(self.field.t), self._one()
            idx = self.vars.get(tok.text)
            if idx is None:
                raise UnknownVariable(tok.text, tok.pos)
            return self._var(idx), self._one()
        if tok.kind == _OP and tok.text == "(":
            if self.depth == MAX_NESTING:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING}", tok.pos)
            self.depth += 1
            num, den = self.expr()
            self.depth -= 1
            closing = self.next()
            if closing.kind != _OP or closing.text != ")":
                raise ExprSyntaxError("expected ')'", closing.pos)
            return num, den
        raise ExprSyntaxError(
            f"expected a value, found {tok.text!r}" if tok.kind != _END else "unexpected end of input",
            tok.pos,
        )


class _Blank:
    """What the recogniser builds in place of a polynomial: nothing."""

    is_zero = False

    def __neg__(self):
        return self

    def __add__(self, other):
        return self


_BLANK = _Blank()


class _Recogniser(_Parser):
    """The parser's descent with every value left unbuilt.

    It raises each fault the parser raises, except the three that depend on
    the expanded polynomials: a divisor that is identically zero, a product
    or power of degree above MAX_DEGREE, and MAX_WORK.
    """

    def _const(self, value):
        return _BLANK

    def _var(self, idx):
        return _BLANK

    def _mul(self, a, b, pos):
        return _BLANK

    def _power(self, num, den, e, pos):
        return _BLANK, _BLANK


def check_poly(src: str, var_names: Sequence[str], field: BaseField) -> None:
    """Raise what parse_poly would, except a fault of the expanded values
    (see _Recogniser), and build nothing."""
    _Recogniser(src, field, var_names, allow_div=False).parse()


def check_rational(src: str, var_names: Sequence[str], field: BaseField) -> None:
    """check_poly for parse_rational, and with no variables for parse_element."""
    _Recogniser(src, field, var_names, allow_div=True).parse()


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
