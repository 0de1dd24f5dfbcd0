"""Minimal arithmetic expression grammar for scenario files.

Grammar (operator precedence low to high):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := ('-' | '+') unary | power
    power  := atom ('^' unary)?          right associative, binds above unary minus
    atom   := NUMBER | NAME '(' expr (',' expr)* ')' | NAME | '(' expr ')'

Only the listed functions and the caller-declared variable names are legal;
there is no way to reach host-language code from an expression. Parsing
builds a small tree of tuples and compiles nothing. On its first call an
Expression compiles its tree into one Python function from generated source
that holds only generated names (_v0.. for the variables, _c0.. for the
constants), operators, and the whitelisted function names; the values are
bound in the function's namespace, never spliced in as text, so expressions
that differ only in their constants share one cached code object. The
function evaluates in the parser's order, and every '^' goes through the
checked _real_power, so values are those of a direct walk of the tree.

on_arrays(*arrays) is a second compiled form of the same tree for numpy
arrays that broadcast together: numpy ufuncs in the namespace, '/' through a
checked division, compiled on its first use and cached by source like the
scalar form. Where the scalar call would raise, the element is NaN: a zero
divisor; a power that overflows from finite arguments, meets 0 with a
negative exponent or has a negative base and a fractional exponent; an exp,
log, sinh or cosh that is infinite at a finite argument. A NaN argument of
'^' gives NaN even where x^0 or 1^y would hide it, so a failed intermediate
cannot vanish from the result. Nothing raises or warns. numpy's exp, log,
sinh, cosh and '^' can differ from Python's in the last bit, so the array
form agrees with the scalar one to rounding, not bit for bit.

derivative(name) gives the exact partial derivative as another Expression,
built by the sum, product, quotient, power and chain rules (abs
differentiates to the sign) with constants folded, and compiled the same way
on its first call.

A math-function domain or range error (log of a negative number, exp
overflow) raises EvaluationError. Division by zero and a negative base raised
to a fractional power raise it only for Python-float inputs; numpy scalars
give inf or NaN with a RuntimeWarning instead.
"""

import functools
import math
import re

import numpy as np

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


def _sign(x):
    """Derivative of abs: 1.0, -1.0, 0.0 at zero, NaN for NaN."""
    if x > 0:
        return 1.0
    if x < 0:
        return -1.0
    return x * 0.0


# ---------------------------------------------------------------- trees
#
# ("num", value) | ("var", index) | ("neg", a) | (op, a, b) for op in "+-*/^"
# | ("call", name, a) with name in FUNCTIONS, or "sign" in derivatives only

_ZERO = ("num", 0.0)
_ONE = ("num", 1.0)

# precedence of the generated Python text; calls, names and _pow(...) are atoms
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}
_ATOM = 4

_NAMESPACE = dict(FUNCTIONS, sign=_sign, _pow=_real_power)


def _nan_where_overflow(ufunc):
    """ufunc with NaN where a finite argument gives an infinite value, where math raises."""
    def fn(a):
        out = ufunc(a)
        return np.where(np.isinf(out) & np.isfinite(a), np.nan, out)
    return fn


def _array_power(base, exponent):
    out = np.power(base, exponent)
    bad = (np.isnan(base) | np.isnan(exponent)
           | (np.isinf(out) & np.isfinite(base) & np.isfinite(exponent)))
    return np.where(bad, np.nan, out)


def _array_divide(a, b):
    return np.where(b == 0.0, np.nan, np.divide(a, b))


_ARRAY_NAMESPACE = {
    "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "abs": np.abs, "sign": np.sign,
    "exp": _nan_where_overflow(np.exp), "log": _nan_where_overflow(np.log),
    "sinh": _nan_where_overflow(np.sinh), "cosh": _nan_where_overflow(np.cosh),
    "_pow": _array_power, "_div": _array_divide,
}


def _emit(node, consts, array=False):
    """Python source of node and its precedence; constants are appended to consts.

    The array form writes each division as a call of the checked _div.
    """
    kind = node[0]
    if kind == "num":
        consts.append(node[1])
        return f"_c{len(consts) - 1}", _ATOM
    if kind == "var":
        return f"_v{node[1]}", _ATOM
    if kind == "neg":
        text, prec = _emit(node[1], consts, array)
        return "-" + (text if prec >= _PREC["neg"] else f"({text})"), _PREC["neg"]
    if kind == "call":
        return f"{node[1]}({_emit(node[2], consts, array)[0]})", _ATOM
    left, lprec = _emit(node[1], consts, array)
    right, rprec = _emit(node[2], consts, array)
    if kind == "^":
        return f"_pow({left}, {right})", _ATOM
    if kind == "/" and array:
        return f"_div({left}, {right})", _ATOM
    prec = _PREC[kind]
    # the grammar's binary operators associate to the left, like Python's
    if lprec < prec:
        left = f"({left})"
    if rprec <= prec:
        right = f"({right})"
    return f"{left} {kind} {right}", prec


@functools.lru_cache(maxsize=1024)
def _code(source):
    return compile(source, "<expression>", "exec")


def _compile(tree, arity, array=False):
    """One Python function of arity positional values evaluating tree.

    array selects the form for numpy arrays (see the module docstring).
    """
    consts = []
    body, _ = _emit(tree, consts, array)
    params = ", ".join(f"_v{i}" for i in range(arity))
    namespace = dict(_ARRAY_NAMESPACE if array else _NAMESPACE)
    namespace.update((f"_c{i}", c) for i, c in enumerate(consts))
    exec(_code(f"def _f({params}):\n    return {body}\n"), namespace)
    return namespace["_f"]


def _variables_in(node, out):
    if node[0] == "var":
        out.add(node[1])
    elif node[0] != "num":
        for child in node[1:]:
            if isinstance(child, tuple):
                _variables_in(child, out)
    return out


# constructors that fold constants and drop neutral elements; used only for
# derivatives, so the values of parsed expressions are never refolded

def _is_num(*nodes):
    return all(n[0] == "num" for n in nodes)


def _neg(a):
    if _is_num(a):
        return ("num", -a[1])
    if a[0] == "neg":
        return a[1]
    return ("neg", a)


def _add(a, b):
    if a == _ZERO:
        return b
    if b == _ZERO:
        return a
    if _is_num(a, b):
        return ("num", a[1] + b[1])
    return ("+", a, b)


def _sub(a, b):
    if b == _ZERO:
        return a
    if a == _ZERO:
        return _neg(b)
    if _is_num(a, b):
        return ("num", a[1] - b[1])
    return ("-", a, b)


def _mul(a, b):
    if a == _ZERO or b == _ZERO:
        return _ZERO
    if a == _ONE:
        return b
    if b == _ONE:
        return a
    if _is_num(a, b):
        return ("num", a[1] * b[1])
    return ("*", a, b)


def _div(a, b):
    # 0/b is 0 only where b is defined and nonzero, which a constant shows
    if a == _ZERO and _is_num(b) and b[1] != 0.0:
        return _ZERO
    if b == _ONE:
        return a
    if _is_num(a, b) and b[1] != 0.0:
        return ("num", a[1] / b[1])
    return ("/", a, b)


def _pow(a, b):
    if b == _ZERO:
        return _ONE
    if b == _ONE:
        return a
    if _is_num(a, b):
        try:
            return ("num", _real_power(a[1], b[1]))
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    return ("^", a, b)


def _call(name, a):
    if _is_num(a):
        try:
            return ("num", _NAMESPACE[name](a[1]))
        except (ValueError, OverflowError):
            pass
    return ("call", name, a)


def _fold(node):
    """node rebuilt through the folding constructors."""
    kind = node[0]
    if kind in ("num", "var"):
        return node
    if kind == "neg":
        return _neg(_fold(node[1]))
    if kind == "call":
        return _call(node[1], _fold(node[2]))
    build = {"+": _add, "-": _sub, "*": _mul, "/": _div, "^": _pow}[kind]
    return build(_fold(node[1]), _fold(node[2]))


def _outer_derivative(name, a, node):
    """d name(a) / da for node = name(a)."""
    if name == "sin":
        return _call("cos", a)
    if name == "cos":
        return _neg(_call("sin", a))
    if name == "exp":
        return node
    if name == "log":
        return _div(_ONE, a)
    if name == "sqrt":
        return _div(_ONE, _mul(("num", 2.0), node))
    if name == "sinh":
        return _call("cosh", a)
    if name == "cosh":
        return _call("sinh", a)
    if name == "abs":
        return _call("sign", a)
    return _ZERO   # sign, piecewise constant


def _diff(node, i):
    """Partial derivative of a folded tree in variable index i, folded."""
    kind = node[0]
    if kind == "num":
        return _ZERO
    if kind == "var":
        return _ONE if node[1] == i else _ZERO
    if kind == "neg":
        return _neg(_diff(node[1], i))
    if kind == "call":
        da = _diff(node[2], i)
        return _mul(_outer_derivative(node[1], node[2], node), da) if da != _ZERO else _ZERO
    a, b = node[1], node[2]
    da, db = _diff(a, i), _diff(b, i)
    if kind == "+":
        return _add(da, db)
    if kind == "-":
        return _sub(da, db)
    if kind == "*":
        return _add(_mul(da, b), _mul(a, db))
    if kind == "/":
        # (a/b)' = (a' - (a/b) b') / b
        return _div(_sub(da, _mul(node, db)), b)
    if db == _ZERO:
        # constant exponent: b a^(b-1) a'
        return _mul(_mul(b, _pow(a, _sub(b, _ONE))), da)
    # a^b (b' log a + b a'/a)
    return _mul(node, _add(_mul(db, _call("log", a)), _div(_mul(b, da), a)))


class Expression:
    """A parsed expression over a fixed, ordered tuple of variable names.

    tree is the expression's tree (a derivative builds its own on first
    use); the Python function evaluating it is compiled on the first call,
    and its array form on the first on_arrays call. derivative(name) returns
    the partial derivative in one of the variables as an Expression over the
    same variables.
    """

    def __init__(self, source, variables, tree):
        self.source = source
        self.variables = tuple(variables)
        self._tree = tree
        self._fn = None
        self._array_fn = None
        self._derivatives = {}

    @property
    def tree(self):
        if callable(self._tree):
            self._tree = self._tree()
        return self._tree

    @property
    def used(self):
        """The variable names the expression depends on."""
        return frozenset(self.variables[i] for i in _variables_in(self.tree, set()))

    def __call__(self, *values):
        fn = self._fn
        if fn is None:
            fn = self._fn = _compile(self.tree, len(self.variables))
        try:
            return fn(*values)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            point = {name: float(v) for name, v in zip(self.variables, values)}
            raise EvaluationError(self.source, point, exc) from None

    def on_arrays(self, *values):
        """The expression over arrays, elementwise, as a float array of their broadcast shape.

        An element where the scalar call would raise EvaluationError is NaN;
        nothing raises or warns.
        """
        fn = self._array_fn
        if fn is None:
            fn = self._array_fn = _compile(self.tree, len(self.variables), array=True)
        values = [np.asarray(v, dtype=float) for v in values]
        with np.errstate(all="ignore"):
            out = fn(*values)
        shapes = {v.shape for v in values}
        shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
        if type(out) is np.ndarray and out.shape == shape:
            return out
        return np.broadcast_to(out, shape)

    def derivative(self, name):
        """Exact partial derivative in the variable name, built on first call."""
        if name not in self.variables:
            raise ValueError(f"{name!r} is not a variable of {self!r}")
        d = self._derivatives.get(name)
        if d is None:
            index = self.variables.index(name)
            d = Expression(f"d({self.source})/d{name}", self.variables,
                           lambda: _diff(_fold(self.tree), index))
            self._derivatives[name] = d
        return d

    def __repr__(self):
        return f"Expression({self.source!r}, variables={self.variables})"


def coordinates(x):
    """The chart coordinates of points on the last axis of x, one array per coordinate."""
    return np.moveaxis(np.asarray(x, dtype=float), -1, 0)


def array_form(fn):
    """fn.on_arrays when fn is an Expression, else None: other callables have no array form."""
    return fn.on_arrays if isinstance(fn, Expression) else None


class _Parser:
    def __init__(self, text, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.variables = list(variables)

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
        tree = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {value!r}", line=1, column=col)
        return tree

    def expr(self):
        tree = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                tree = (value, tree, self.term())
            else:
                return tree

    def term(self):
        tree = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                tree = (value, tree, self.unary())
            else:
                return tree

    def unary(self):
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner = self.unary()
            return ("neg", inner) if value == "-" else inner
        return self.power()

    def power(self):
        base = self.atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return ("^", base, self.unary())
        return base

    def atom(self):
        kind, value, col = self.advance()
        if kind == "num":
            return ("num", value)
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
                if len(args) == 1:
                    return ("call", value, args[0])
                raise ParseError(f"function {value!r} takes one argument", line=1, column=col)
            if value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", line=1, column=col)
            return ("var", self.variables.index(value))
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
    return Expression(text, variables, _Parser(text, variables).parse())
