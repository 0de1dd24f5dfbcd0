"""Minimal arithmetic expression grammar for scenario files.

Grammar (operator precedence low to high):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' unary)?          right associative, binds above unary minus
    atom   := NUMBER | NAME '(' expr (',' expr)* ')' | NAME | '(' expr ')'

Only the listed functions and the caller-declared variable names are legal;
there is no way to reach host-language code from an expression. Parsed
expressions compile to nested closures over a positional value list, so
evaluation in inner loops does not build dictionaries. A math-function
domain or range error (log of a negative number, exp overflow) raises
EvaluationError. Division by zero and a negative base raised to a fractional
power raise it only for Python-float inputs; numpy scalars give inf or NaN
with a RuntimeWarning instead.
"""

import math
import re

from .errors import EvaluationError, ParseError, ValidationError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "cosh": math.cosh,
    "sinh": math.sinh,
    "abs": abs,
}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            col = len(text) - len(stripped) + 1
            raise ParseError(f"unexpected character {stripped[0]!r} in expression", line=1, column=col)
        if m.group("num") is not None:
            tokens.append(("num", float(m.group("num")), m.start("num") + 1))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name") + 1))
        else:
            tokens.append(("op", m.group("op"), m.start("op") + 1))
        pos = m.end()
    tokens.append(("end", "", len(text) + 1))
    return tokens


def _real_power(base, exponent):
    out = base ** exponent
    if isinstance(out, complex):
        raise ValueError("complex result")
    return out


class Expression:
    """A parsed expression over a fixed, ordered tuple of variable names."""

    def __init__(self, source, variables, fn, used):
        self.source = source
        self.variables = tuple(variables)
        self.used = frozenset(used)
        self._fn = fn

    def __call__(self, *values):
        try:
            return self._fn(values)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            point = {name: float(v) for name, v in zip(self.variables, values)}
            raise EvaluationError(self.source, point, exc) from None

    def __repr__(self):
        return f"Expression({self.source!r}, variables={self.variables})"


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.variables = list(variables)
        self.used = set()

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect_op(self, op):
        kind, value, col = self.advance()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}, found {value!r}", line=1, column=col)

    def parse(self):
        fn = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {value!r}", line=1, column=col)
        return fn

    def expr(self):
        fn = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                rhs = self.term()
                lhs = fn
                if value == "+":
                    fn = lambda v, a=lhs, b=rhs: a(v) + b(v)
                else:
                    fn = lambda v, a=lhs, b=rhs: a(v) - b(v)
            else:
                return fn

    def term(self):
        fn = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                rhs = self.unary()
                lhs = fn
                if value == "*":
                    fn = lambda v, a=lhs, b=rhs: a(v) * b(v)
                else:
                    fn = lambda v, a=lhs, b=rhs: a(v) / b(v)
            else:
                return fn

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.unary()
            if value == "-":
                return lambda v, a=inner: -a(v)
            return inner
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent = self.unary()
            return lambda v, a=base, b=exponent: _real_power(a(v), b(v))
        return base

    def atom(self):
        kind, value, col = self.advance()
        if kind == "num":
            return lambda v, c=value: c
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", line=1, column=col)
                self.advance()
                args = [self.expr()]
                while True:
                    pkind, pvalue, pcol = self.advance()
                    if pkind == "op" and pvalue == ")":
                        break
                    if pkind == "op" and pvalue == ",":
                        args.append(self.expr())
                    else:
                        raise ParseError(f"expected ')' or ',', found {pvalue!r}", line=1, column=pcol)
                func = FUNCTIONS[value]
                if len(args) == 1:
                    arg = args[0]
                    return lambda v, f=func, a=arg: f(a(v))
                raise ParseError(f"function {value!r} takes one argument", line=1, column=col)
            if value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", line=1, column=col)
            self.used.add(value)
            index = self.variables.index(value)
            return lambda v, i=index: v[i]
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {value!r}", line=1, column=col)


def parse_expression(text, variables):
    """Parse text into an Expression over the ordered variable names.

    Raises ParseError on malformed input and on any name outside the declared
    variables or the function table.
    """
    if not isinstance(text, str):
        raise ValidationError(f"expression must be a string, got {type(text).__name__}")
    parser = _Parser(text, variables)
    fn = parser.parse()
    return Expression(text, variables, fn, parser.used)
