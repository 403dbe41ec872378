"""The expression grammar written as a recursive descent, against the one pass.

reference_read is how prolong.expr used to parse: one method per rule of
the grammar in the module docstring of prolong.expr, over (numerator,
denominator) polynomial pairs, with the same caps.  prolong.expr now reads
the tokens in one flat loop that both checks (check_poly, check_rational)
and parses (parse_poly, parse_rational, parse_element).  The agreement
tests in test_expr.py hold that loop to this reference: the same fault
(class, message and offset) in both modes, except that a check leaves out
the faults of the expanded values, and the same raw (num, den) when a parse
succeeds.  The work budget counts the descent's products, so equal pairs
and equal budget faults mean the loop multiplies what the descent did, in
its order.
"""

from fractions import Fraction

from prolong import (
    ExprSyntaxError,
    IdenticallyZeroDenominator,
    MultiPoly,
    TInQField,
    UnknownVariable,
)
from prolong.expr import (
    _END,
    _INT,
    _NAME,
    MAX_DEGREE,
    MAX_NESTING,
    MAX_WORK,
    _size,
    _tokenize,
    _var_index,
    read_int,
)


class _Descent:
    """Recursive descent over (numerator, denominator) polynomial pairs."""

    def __init__(self, src, field, var_names, allow_div):
        self.field = field
        self.vars = _var_index(var_names)
        self.nvars = len(var_names)
        self.one = MultiPoly.const(field, self.nvars, 1)
        self.allow_div = allow_div
        self.tokens = _tokenize(src, 0, len(src))
        self.i = 0
        self.depth = 0
        self.work = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _const(self, value):
        return MultiPoly.const(self.field, self.nvars, value)

    def _mul(self, a, b, pos):
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

    def _power(self, num, den, e, pos):
        if e * max(num.total_degree(), den.total_degree()) > MAX_DEGREE:
            raise ExprSyntaxError(f"power of degree above {MAX_DEGREE}", pos)
        return self._pow(num, e, pos), self._pow(den, e, pos)

    def _pow(self, base, e, pos):
        out = self.one
        while e:
            if e & 1:
                out = self._mul(out, base, pos)
            e >>= 1
            if e:
                base = self._mul(base, base, pos)
        return out

    def parse(self):
        num, den = self.expr()
        kind, text, pos = self.peek()
        if kind is not _END:
            raise ExprSyntaxError(f"unexpected token {text!r}", pos)
        return num, den

    def expr(self):
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

    def term(self):
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

    def factor(self):
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

    def atom(self):
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


def reference_read(src, var_names, field, allow_div):
    """The raw (num, den) of src by recursive descent, or its first fault."""
    return _Descent(src, field, var_names, allow_div).parse()

