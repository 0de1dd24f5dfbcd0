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
that differ only in their constants (a minus sign on a number is part of
the number) share one cached code object. The
function evaluates in the parser's order, and every '^' goes through the
checked _real_power, so values are those of a direct walk of the tree. An
expression nested deeper than MAX_DEPTH is a ParseError at the token that
passes the cap.

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

Any source callable (a potential, a wave coefficient, a bound, a comparison
function) carries its array form the same way, as its own on_arrays
attribute, and array_form(fn) is the one place that reads it; a callable
without one has none, so replacing a source can never leave a stale array
form behind. with_array_form attaches one to a hand-written callable, and
at_chart_point gives an Expression, or a list of them, the chart-point call
f(x, s) of force and wave sources together with its array form. fused(exprs)
compiles a list of Expressions over the same variables into one generated
function returning the tuple of their values, each with its own operations,
so one call serves a gradient, a metric's entries or its partials. on_rows is
the rule every consumer follows: the array form serves when all its values
are finite, else the scalar source is called once per row.

derivative(name) gives the exact partial derivative as another Expression,
built by the sum, product, quotient, power and chain rules (abs
differentiates to the sign) with constants folded, and compiled the same way
on its first call.

A math-function domain or range error (log of a negative number, exp
overflow), a division by zero, a negative base raised to a fractional power
and a power that overflows raise EvaluationError. That holds for the
Python-float inputs every caller in the package passes (numpy scalars would
give inf or NaN with a RuntimeWarning instead), so sources are called on
chart points as lists of Python floats.
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
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        # the group that matched is the token's kind: num, name or op
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, float(value) if kind == "num" else value, m.start(kind) + 1))
        pos = m.end()
    stripped = text[pos:].lstrip()
    if stripped:
        col = len(text) - len(stripped) + 1
        raise ParseError(f"unexpected character {stripped[0]!r} in expression", line=1, column=col)
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

    A list of trees gives one function returning the tuple of their values,
    with the constants of all of them in one namespace. array selects the
    form for numpy arrays (see the module docstring).
    """
    consts = []
    if isinstance(tree, list):
        body = "(" + "".join(_emit(t, consts, array)[0] + ", " for t in tree) + ")"
    else:
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


def fused(exprs):
    """One call f(*values) giving the tuple of the values of Expressions over the same variables.

    The expressions are compiled on the first call into one generated
    function with their constants in one namespace. Each value keeps its own
    expression's operations, so the tuple holds exactly the values of the
    expressions' own calls. Where the fused call raises, the expressions are
    called one at a time, so the EvaluationError names the first expression
    that fails and the point, as the calls in turn would.
    """
    exprs = tuple(exprs)
    variables = exprs[0].variables
    if any(e.variables != variables for e in exprs):
        raise ValueError("fused expressions must share their variables")
    fn = None

    def call(*values):
        nonlocal fn
        if fn is None:
            fn = _compile([e.tree for e in exprs], len(variables))
        try:
            return fn(*values)
        except (ValueError, ZeroDivisionError, OverflowError):
            for e in exprs:
                e(*values)
            raise

    return call


def coordinates(x):
    """The chart coordinates of points on the last axis of x, one array per coordinate."""
    return np.moveaxis(np.asarray(x, dtype=float), -1, 0)


def array_form(fn):
    """fn's array form, its on_arrays attribute, or None when it has none."""
    return getattr(fn, "on_arrays", None)


def with_array_form(fn, on_arrays):
    """fn with on_arrays attached as its array form; returns fn."""
    fn.on_arrays = on_arrays
    return fn


def at_chart_point(expr, params=()):
    """The call f(x, s) = expr(*x, s, *params) of an Expression over the chart coordinates and s.

    x is a chart point as a list of Python floats and s a Python float;
    params are the values of any variables after s, such as a catalog
    template's parameters. Its array form takes chart points on the last
    axis of x, broadcast against s. A list of such Expressions (a gradient)
    gives the tuple of their values from one fused call, and over arrays
    their values on a new last axis.
    """
    if isinstance(expr, Expression):
        return with_array_form(lambda x, s: expr(*x, s, *params),
                               lambda x, s: expr.on_arrays(*coordinates(x), s, *params))
    exprs = tuple(expr)
    values = fused(exprs)
    return with_array_form(
        lambda x, s: values(*x, s, *params),
        lambda x, s: np.stack([e.on_arrays(*coordinates(x), s, *params) for e in exprs], axis=-1))


def on_rows(source, scalar, *args):
    """source at each row of args (rows run along the first axis), as an array.

    source's array form, called on args, serves when every value it gives is
    finite; otherwise scalar is called once per row, in order, and raises
    where the source cannot be evaluated.
    """
    form = array_form(source)
    if form is not None:
        with np.errstate(all="ignore"):
            out = form(*args)
        if np.isfinite(out).all():
            return out
    return np.array([scalar(*row) for row in zip(*args)])


#: The deepest expression the parser builds. Depth counts each operator,
#: function call, sign and pair of parentheses from the root down, so it
#: bounds the parser's own recursion and the height of the tree that compiling
#: and differentiating walk (nested quotients 201 deep overflow the 200 nested
#: parentheses compile() takes). Every catalog template at MAX_DIMENSION
#: (depth 105) fits.
MAX_DEPTH = 128


class _Parser:
    """Recursive descent over the grammar; each rule returns (tree, depth)."""

    def __init__(self, text, variables):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.variables = list(variables)
        # constructs (parentheses, calls, signs, exponents) around the current token
        self.level = 0

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

    def too_deep(self, col):
        return ParseError(f"expression nests deeper than {MAX_DEPTH} levels", line=1, column=col)

    def inside(self, rule, col):
        """rule() inside the construct at col, which adds a level above what rule() parses."""
        self.level += 1
        if self.level >= MAX_DEPTH:   # the levels around, and a leaf below
            raise self.too_deep(col)
        result = rule()
        self.level -= 1
        return result

    def node(self, tree, depth, col):
        """(tree, depth) of the operator at col, where the tree so far fits under MAX_DEPTH."""
        if self.level + depth > MAX_DEPTH:
            raise self.too_deep(col)
        return tree, depth

    def parse(self):
        tree, _ = self.expr()
        kind, value, col = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing token {value!r}", line=1, column=col)
        return tree

    def expr(self):
        tree, depth = self.term()
        while True:
            kind, value, col = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                right, right_depth = self.term()
                tree, depth = self.node((value, tree, right), 1 + max(depth, right_depth), col)
            else:
                return tree, depth

    def term(self):
        tree, depth = self.unary()
        while True:
            kind, value, col = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                right, right_depth = self.unary()
                tree, depth = self.node((value, tree, right), 1 + max(depth, right_depth), col)
            else:
                return tree, depth

    def unary(self):
        kind, value, col = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            inner, depth = self.inside(self.unary, col)
            if value == "+":
                return inner, depth + 1
            # a negated number is a number: texts that differ only in their
            # constants, signs included, share one code object
            return ("num", -inner[1]) if inner[0] == "num" else ("neg", inner), depth + 1
        return self.power()

    def power(self):
        base, depth = self.atom()
        kind, value, col = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            exponent, exponent_depth = self.inside(self.unary, col)
            return self.node(("^", base, exponent), 1 + max(depth, exponent_depth), col)
        return base, depth

    def atom(self):
        kind, value, col = self.advance()
        if kind == "num":
            return ("num", value), 1
        if kind == "name":
            nkind, nvalue, _ = self.peek()
            if nkind == "op" and nvalue == "(":
                if value not in FUNCTIONS:
                    raise ParseError(f"unknown function {value!r}", line=1, column=col)
                self.advance()
                args = [self.inside(self.expr, col)]
                while True:
                    pkind, pvalue, pcol = self.advance()
                    if pkind == "op" and pvalue == ")":
                        break
                    if pkind == "op" and pvalue == ",":
                        args.append(self.inside(self.expr, pcol))
                    else:
                        raise ParseError(f"expected ')' or ',', found {pvalue!r}", line=1, column=pcol)
                if len(args) == 1:
                    arg, depth = args[0]
                    return ("call", value, arg), depth + 1
                raise ParseError(f"function {value!r} takes one argument", line=1, column=col)
            if value not in self.variables:
                raise ParseError(f"unknown variable {value!r}", line=1, column=col)
            return ("var", self.variables.index(value)), 1
        if kind == "op" and value == "(":
            inner, depth = self.inside(self.expr, col)
            self.expect_op(")")
            return inner, depth + 1
        raise ParseError(f"unexpected token {value!r}", line=1, column=col)


def parse_expression(text, variables):
    """Parse text into an Expression over the ordered variable names.

    Raises ParseError on malformed input, on any name outside the declared
    variables or the function table, and past MAX_DEPTH.
    """
    if not isinstance(text, str):
        raise ValidationError(f"expression must be a string, got {type(text).__name__}")
    return Expression(text, variables, _Parser(text, variables).parse())
