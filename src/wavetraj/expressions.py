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
constants, _t0.. for shared subexpressions), operators, and the whitelisted
function names; the values are bound in the function's namespace, never
spliced in as text. A '^' whose exponent is a constant whole number is an
inline '**' (a real number to a whole power is never complex, so the float
is the same operation's); every other '^' goes through the checked
_real_power. A subtree that repeats is computed once, at its first
occurrence, into a local _tK. So expressions that differ only in their
constants (a minus sign on a number is part of the number) share one cached
code object when their exponents are alike, all whole or all not whole, and
the same subtrees repeat. The function evaluates in the parser's order, so
values, and the first error, are those of a direct walk of the tree. An
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
form behind. with_array_form attaches one to a hand-written callable.
chart_function compiles an Expression, a list of them or a list of rows of
them into one generated function of the points that carry their variables,
such as f(x, s), f(x) (a chart's metric rows, or its guard, > 0 inside the
chart) or f(x, v) for a chart point x: it unpacks x itself,
binds a template's parameters as constants, shares subexpressions across
all the trees, and raises the EvaluationError of the first expression that
fails. at_chart_point gives force and wave sources the call f(x, s) this way
together with its array form. A consumer reaches a source one way: on
arrays by on_rows(source, *args), where the array form serves when all its
values are finite, else the source is called once per row on Python floats
(on_window applies it to a sample window); in generated code by
Inliner.values, which writes a chart function's trees in and calls any
other source, its value unpacked in Python floats.

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

import collections
import functools
import math
import re
import sys
import types

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

# precedence of the generated Python text; calls, names and _pow(...) are
# atoms. '**' binds above unary minus, and its base is an atom
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "**": 4}
_ATOM = 5

_NAMESPACE = dict(FUNCTIONS, sign=_sign, _pow=_real_power)

#: what a scalar function raises where its expression cannot be evaluated
_ERRORS = (ValueError, ZeroDivisionError, OverflowError)


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


def _whole(node):
    """node is a constant whose value is a whole number."""
    return node[0] == "num" and isinstance(node[1], float) and node[1].is_integer()


class _Emitter:
    """Python source of the trees of one generated function.

    A subtree that the function would evaluate more than once, within one
    tree or across several, is computed at its first occurrence into a
    local _tK by an assignment expression and read from _tK after that. The
    text keeps the parser's order of evaluation, so every value, and the
    first error, is that of a direct walk of the trees. Constants are
    appended to consts and named _c0.. in order. The scalar form writes a
    constant whole exponent as an inline '**', which is never complex; the
    array form (array=True) calls _pow for every '^' and the checked _div
    for every division.
    """

    def __init__(self, trees, array=False):
        self.array = array
        self.consts = []
        # id(node) -> an int naming its structure, which equal subtrees
        # share; a subtree object shared by several trees is walked once
        self.keys = {}
        self.shapes = {}
        # per structure, how often the function evaluates it: once per root,
        # and once per place it takes in a distinct structure above it,
        # since each structure is evaluated once
        self.evaluations = []
        for tree in trees:
            key = self._key(tree)
            if type(key) is int:
                self.evaluations[key] += 1
        self.temps = {}

    def _key(self, node):
        """A hashable name of node's structure: an int for an operation."""
        kind = node[0]
        if kind == "num":
            # 0.0 == -0.0, so a zero's key carries its sign; a NaN equals no other
            return node if node[1] else (node, math.copysign(1.0, node[1]))
        if kind == "var":
            return node
        key = self.keys.get(id(node))
        if key is not None:
            return key
        if kind == "call":
            shape = kind, node[1], self._key(node[2])
        elif kind == "neg":
            shape = kind, self._key(node[1])
        else:
            shape = kind, self._key(node[1]), self._key(node[2])
        key = self.shapes.get(shape)
        if key is None:
            key = self.shapes[shape] = len(self.evaluations)
            self.evaluations.append(0)
            for child in shape[1:]:
                if type(child) is int:
                    self.evaluations[child] += 1
        self.keys[id(node)] = key
        return key

    def text(self, node, arg=False):
        """Python source of node and its precedence.

        arg marks a call's argument or a tuple's item, where an assignment
        expression needs no parentheses of its own, so a generated function
        nests its parentheses about as deep as its tree (compile() takes
        200 levels; MAX_DEPTH is 128).
        """
        kind = node[0]
        if kind == "num":
            self.consts.append(node[1])
            return f"_c{len(self.consts) - 1}", _ATOM
        if kind == "var":
            return f"_v{node[1]}", _ATOM
        key = self.keys[id(node)]
        name = self.temps.get(key)
        if name is not None:
            return name, _ATOM
        text, prec = self._operation(kind, node)
        if self.evaluations[key] == 1:
            return text, prec
        name = self.temps[key] = f"_t{len(self.temps)}"
        return (f"{name} := {text}", 0) if arg else (f"({name} := {text})", _ATOM)

    def _operation(self, kind, node):
        if kind == "neg":
            text, prec = self.text(node[1])
            return "-" + (text if prec >= _PREC["neg"] else f"({text})"), _PREC["neg"]
        if kind == "call":
            return f"{node[1]}({self.text(node[2], arg=True)[0]})", _ATOM
        if kind == "^" and not self.array and _whole(node[2]):
            base, prec = self.text(node[1])
            if prec < _ATOM:
                base = f"({base})"
            return f"{base} ** {self.text(node[2])[0]}", _PREC["**"]
        if kind == "^" or (kind == "/" and self.array):
            left = self.text(node[1], arg=True)[0]
            right = self.text(node[2], arg=True)[0]
            return f"{'_pow' if kind == '^' else '_div'}({left}, {right})", _ATOM
        left, lprec = self.text(node[1])
        right, rprec = self.text(node[2])
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
    emitter = _Emitter([tree], array)
    body, _ = emitter.text(tree)
    params = ", ".join(f"_v{i}" for i in range(arity))
    namespace = {"__builtins__": _ARRAY_NAMESPACE if array else _SCALAR_BUILTINS}
    namespace.update(_named("_c", emitter.consts))
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
        except _ERRORS as exc:
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


def _leaves(item):
    """The Expressions of an Expression, a list of them or a list of rows of them, in order."""
    if isinstance(item, Expression):
        return [item]
    return [e for sub in item for e in _leaves(sub)]


def _chart_source(exprs, groups, params):
    """(source, bindings) of chart_function(exprs, groups, params): source defines _f."""
    flat = _leaves(exprs)
    variables = flat[0].variables
    if any(e.variables != variables for e in flat):
        raise ValueError("the expressions of one function must share their variables")
    if sum(1 if k is None else k for k in groups) + len(params) != len(variables):
        raise ValueError("the arguments and params must carry every variable once")

    def fallback(*args):
        values = []
        for arg, count in zip(args, groups):
            if count is None:
                values.append(arg)
            else:
                values.extend(arg)
        for e in flat:
            e(*values, *params)

    emitter = _Emitter([e.tree for e in flat])

    def text(item):
        if isinstance(item, Expression):
            return emitter.text(item.tree, arg=True)[0]
        return "(" + "".join(text(e) + ", " for e in item) + ")"

    body = text(exprs)
    names, unpack, index = [], [], 0
    for i, count in enumerate(groups):
        if count is None:
            names.append(f"_v{index}")
            index += 1
            continue
        names.append(f"_x{i}")
        unpack.append("".join(f"_v{index + j}, " for j in range(count)) + f"= _x{i}")
        index += count
    args = ", ".join(names)
    lines = ([f"def _f({args}):"] + [f"    {line}" for line in unpack]
             + ["    try:", f"        return {body}", "    except _ERRORS:",
                f"        _fallback({args})", "        raise"])
    bindings = {"_fallback": fallback}
    bindings.update(_named("_c", emitter.consts))
    bindings.update(_named("_v", params, index))
    return "\n".join(lines) + "\n", bindings


def _named(prefix, values, start=0):
    """(name, value) pairs prefix<start>, prefix<start + 1>, ...; the names interned, as the
    code's own names are, so namespaces share them and a lookup finds them by identity."""
    return ((sys.intern(f"{prefix}{start + i}"), v) for i, v in enumerate(values))


def _first_call(fn, args):
    """The first call of a chart_function: compile it, take on its code, then run it.

    The source reads its bindings and _SCALAR_BUILTINS as its globals, fn's
    own namespace. So every later call runs the generated code in one frame.
    """
    namespace = fn.__globals__
    source, bindings = _chart_source(*chart_parts(fn))
    namespace.update(bindings)
    exec(_code(source), namespace)
    fn.__code__ = namespace.pop("_f").__code__
    return fn(*args)


#: what every generated scalar function reads besides its own constants,
#: shared by all of them as their builtins: the whitelisted functions, the
#: checked power, the errors a call can raise and the first-call hook
_SCALAR_BUILTINS = dict(_NAMESPACE, _ERRORS=_ERRORS, _first_call=_first_call)

# the code of a function before its first call
_FIRST_CALL = next(c for c in compile("def _f(*args):\n    return _first_call(_f, args)\n",
                                      "<expression>", "exec").co_consts
                   if isinstance(c, types.CodeType))


def chart_function(exprs, groups, params=()):
    """One generated function of the points that carry the variables of exprs.

    exprs is an Expression, a list of them or a list of rows of them, all
    over the same variables, or a function of no arguments that gives them
    on the first call; the function gives its value, the tuple of their
    values or the tuple of rows of their values. groups has one entry per
    argument of the function, in the order of the variables: a count k for a
    sequence of k values (a chart point), which the function unpacks itself,
    or None for one value. The variables after those take the values params
    (a catalog template's parameters), bound as constants.

    The function is compiled on its first call (_first_call; _Emitter: shared
    subexpressions once, inline whole powers), which raises ValueError where
    the expressions' variables differ or the arguments and params do not
    carry each of them once. Each value keeps its own expression's
    operations, so it holds exactly the values of the expressions' own
    calls. Where the generated code raises, the expressions are called one
    at a time, so the EvaluationError names the first that fails and the
    point, as the calls in turn would.
    """
    # the function's own namespace, where its first call compiles it
    namespace = {"__builtins__": _SCALAR_BUILTINS}
    fn = namespace["_f"] = types.FunctionType(_FIRST_CALL, namespace)
    fn.chart = (exprs, groups, tuple(params))
    return fn


def chart_parts(fn):
    """(exprs, groups, params) of a chart_function, its Expressions built; None for any other callable.

    A callable that gives exactly a chart function's values may carry that
    function's chart attribute as its own.
    """
    parts = getattr(fn, "chart", None)
    if parts is not None and not isinstance(parts[0], (Expression, list, tuple)):
        parts = fn.chart = (parts[0](),) + parts[1:]
    return parts


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
    template's parameters. f is one generated function (chart_function). Its
    array form takes chart points on the last axis of x, broadcast against s.
    A list of such Expressions (a gradient) gives the tuple of their values,
    and over arrays their values on a new last axis; a list of rows of them
    (a tensor) the tuple of rows, and over arrays the matrices on two new
    last axes.
    """
    first = expr
    while not isinstance(first, Expression):
        first = first[0]
    n = len(first.variables) - 1 - len(params)

    def on_arrays(x, s):
        coords = coordinates(x)

        def stacked(item):
            if isinstance(item, Expression):
                return item.on_arrays(*coords, s, *params)
            # a row's values on the last axis, the rows of a matrix before it
            return np.stack([stacked(e) for e in item],
                            axis=-1 if isinstance(item[0], Expression) else -2)

        return stacked(expr)

    return with_array_form(chart_function(expr, (n, None), params), on_arrays)


def substituted(tree, nodes, memo):
    """tree with each variable i replaced by the tree nodes[i], built raw, without folding.

    memo maps id(node) to its result, so a subtree shared within or across
    the trees substituted with one memo stays one object.
    """
    kind = tree[0]
    if kind == "num":
        return tree
    if kind == "var":
        return nodes[tree[1]]
    out = memo.get(id(tree))
    if out is None:
        if kind == "call":
            out = kind, tree[1], substituted(tree[2], nodes, memo)
        else:
            out = (kind,) + tuple(substituted(child, nodes, memo) for child in tree[1:])
        memo[id(tree)] = out
    return out


class Inliner:
    """Sources written out inline, or called, in one generated function of a state.

    The generated function holds the chart point x in its locals _v0..,
    the velocity v in the n after them and the time t in _v(2n). add(fn,
    slots, shape) takes a source of the slots, each "x", "v" or "t", whose
    value has shape: () one value, (n,) n values, (n, n) n rows of n. Where
    fn is a chart_function of those arguments and that shape, its trees are
    recorded over those locals, a template's parameters as globals after t.
    Once every source is added, values(source, prefix) gives its lines and
    value texts, in the order the function evaluates the sources: the trees
    written as chart_function writes them, each subtree the added trees
    evaluate more than once computed once, at its first occurrence; any
    other source one call, its value unpacked in Python floats (_floats).
    bind(value) names any other value the text reads, and function(source)
    compiles the text through the code cache every expression shares.
    """

    def __init__(self, n):
        self.n = n
        self.trees = []
        self.params = []
        self.emitter = None
        self.bound = {}

    def bind(self, value):
        """The global name under which the generated function reads value."""
        name = self.bound.get(id(value), (None,))[0]
        if name is None:
            name = sys.intern(f"_b{len(self.bound)}")
            self.bound[id(value)] = name, value
        return name

    def add(self, fn, slots, shape=()):
        """The Source of fn called on the slots, with its trees where fn is a chart function."""
        n = self.n
        texts = {"x": point_text(0, n), "v": point_text(n, n), "t": f"_v{2 * n}"}
        return Source(fn, ", ".join(map(texts.get, slots)), shape, self._trees(fn, slots, shape))

    def _trees(self, fn, slots, shape):
        parts = chart_parts(fn)
        if parts is None or len(parts[1]) != len(slots) or not _has_shape(parts[0], shape):
            return None
        exprs, groups, params = parts
        index = []
        for slot, count in zip(slots, groups):
            if (count is None) != (slot == "t") or count not in (None, self.n):
                return None
            start = {"x": 0, "v": self.n, "t": 2 * self.n}[slot]
            index.extend(range(start, start + (count or 1)))
        first = 2 * self.n + 1 + len(self.params)
        index.extend(range(first, first + len(params)))
        if any(len(e.variables) != len(index) for e in _leaves(exprs)):
            return None
        self.params.extend(params)
        variables, memo = [("var", i) for i in index], {}

        def structure(item):
            if isinstance(item, Expression):
                self.trees.append(substituted(item.tree, variables, memo))
                return self.trees[-1]
            return [structure(e) for e in item]

        return structure(exprs)

    def values(self, source, prefix):
        """(lines, texts) that evaluate source (from add) into locals named after prefix.

        texts has the source's shape. Trees are written as a try statement
        whose except clause calls the source, so a domain error raises the
        EvaluationError of the first expression that fails; a tree's text is
        its local, or the name of its number or variable. A source without
        trees is called, its value unpacked into prefix, prefix<i> or
        prefix<i>_<j>.
        """
        if source.trees is None:
            floats = self.bind(_floats)
            names = _names(prefix, source.shape)
            return [f"{_target(names)} = {floats}({self.bind(source.fn)}({source.args}))"], names
        fallback = f"{self.bind(source.fn)}({source.args})"
        if self.emitter is None:
            self.emitter = _Emitter(self.trees)
        lines = []

        def walk(item, name):
            if isinstance(item, list):
                return [walk(e, f"{name}_{i}") for i, e in enumerate(item)]
            if item[0] in ("num", "var"):
                return self.emitter.text(item)[0]
            lines.append(f"    {name} = {self.emitter.text(item)[0]}")
            return name

        texts = walk(source.trees, prefix)
        if not lines:
            return [], texts
        return ["try:"] + lines + ["except _ERRORS:", f"    {fallback}", "    raise"], texts

    def function(self, source):
        """The function _f that source defines, reading the bound values, constants and parameters."""
        namespace = {"__builtins__": _SCALAR_BUILTINS, "_inf": math.inf}
        namespace.update(self.bound.values())
        if self.emitter is not None:
            namespace.update(_named("_c", self.emitter.consts))
        namespace.update(_named("_v", self.params, 2 * self.n + 1))
        exec(_code(source), namespace)
        return namespace["_f"]


#: a source added to an Inliner: the callable, its arguments' text, the
#: shape of its value and its trees in that shape, None where it is called
Source = collections.namedtuple("Source", "fn args shape trees")


def _has_shape(item, shape):
    """Whether item, an Expression or (nested) lists of them, has shape; () is one Expression."""
    if not shape:
        return isinstance(item, Expression)
    return (isinstance(item, (list, tuple)) and len(item) == shape[0]
            and all(_has_shape(e, shape[1:]) for e in item))


def _names(prefix, shape):
    """The locals prefix, prefix<i> or prefix<i>_<j> that hold a called source's value of shape."""
    if len(shape) == 2:
        return [_names(f"{prefix}{i}_", shape[1:]) for i in range(shape[0])]
    return [f"{prefix}{i}" for i in range(shape[0])] if shape else prefix


def _target(names):
    """The assignment target that unpacks a value into names, a name or (nested) lists of them."""
    if isinstance(names, str):
        return names
    return ", ".join(e if isinstance(e, str) else f"({_target(e)})" for e in names) + ","


def _floats(value):
    """value in Python floats; a float or a flat list or tuple of them passes as it is."""
    if type(value) is float or (type(value) in (list, tuple)
                                and all(type(e) is float for e in value)):
        return value
    return np.asarray(value, dtype=float).tolist()


def point_text(start, n):
    """The list of the n locals _v<start>.. of a generated function, as text."""
    return "[" + ", ".join(f"_v{start + i}" for i in range(n)) + "]"


def function_text(args, n, body):
    """Source of def _f(args): that unpacks the state _y into _v0.._v(2n - 1), then runs body."""
    lines = [f"{', '.join(f'_v{i}' for i in range(2 * n))}, = _y"] + body
    return f"def _f({args}):\n" + "".join(f"    {line}\n" for line in lines)


def on_rows(source, *args):
    """source at each row of args (rows run along the first axis), as a float array.

    source's array form, called on args, serves when every value it gives is
    finite. Otherwise source is called once per row, in order, on the row's
    values as Python floats (a list of them for a chart point, one for a
    time), and raises where it cannot be evaluated.
    """
    form = array_form(source)
    if form is not None:
        with np.errstate(all="ignore"):
            out = form(*args)
        if np.isfinite(out).all():
            return out
    rows = zip(*(np.asarray(arg, dtype=float).tolist() for arg in args))
    return np.array([source(*row) for row in rows], dtype=float)


def on_window(source, points, times):
    """source at every (time, point) pair, t-major, by one on_rows call.

    points holds one chart point per row and times is one time or a 1-d
    array of them. The rows are the points repeated for each time in turn,
    so a fallback to source's own calls raises at the first failing pair in
    that order. The value has the shape times.shape + (len(points),),
    followed by the shape of one value.
    """
    times = np.asarray(times, dtype=float)
    k = len(points)
    out = on_rows(source, np.tile(points, (times.size, 1)), np.repeat(times, k))
    return out.reshape(times.shape + (k,) + out.shape[1:])


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
