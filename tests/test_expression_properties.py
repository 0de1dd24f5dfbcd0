"""Property tests over generated grammar expressions in one to three variables.

sympy is the independent oracle for values and exact derivatives; it parses
the same text on its own (with '^' read as '**', whose precedence and
associativity match the grammar's). Central differences check the exact
derivatives once more. The scalar form is the reference for the array form,
and a premise's window scan with one scalar call per sample for the scan of
its array form.
sympy is a test-only dependency.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from wavetraj.errors import EvaluationError, ParseError, WavetrajError
from wavetraj.expressions import FUNCTIONS, _compile, fused, on_window, parse_expression, with_array_form
from wavetraj.hypotheses import BoundData, _worst
from wavetraj.numdiff import fd_step

sympy = pytest.importorskip("sympy")
from sympy.parsing.sympy_parser import parse_expr  # noqa: E402

NAMES = ("x1", "x2", "x3")
SYMBOLS = sympy.symbols(NAMES, real=True)
SYMPY_FUNCTIONS = {"sin": sympy.sin, "cos": sympy.cos, "exp": sympy.exp, "log": sympy.log,
                   "sqrt": sympy.sqrt, "cosh": sympy.cosh, "sinh": sympy.sinh, "abs": sympy.Abs}
EPS = 2.0 ** -52
TINY = 2.0 ** -1074   # the absolute rounding error of a result that underflows

PROFILE = settings(max_examples=150, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])

numbers = st.one_of(st.sampled_from(["0", "1", "2", "3", "0.5", "1.5", ".25", "1e-2", "10"]),
                    st.floats(0.0, 10.0, allow_subnormal=False).map(repr))


def _render(node, nvars):
    """Grammar text of a generated tree, with the parentheses the grammar needs."""
    kind = node[0]
    if kind == "num":
        return node[1], 4
    if kind == "var":
        return NAMES[node[1] % nvars], 4
    if kind == "call":
        return f"{node[1]}({_render(node[2], nvars)[0]})", 4
    if kind == "neg":
        text, prec = _render(node[1], nvars)
        return "-" + (text if prec >= 3 else f"({text})"), 3
    left, lprec = _render(node[1], nvars)
    right, rprec = _render(node[2], nvars)
    if kind == "^":
        # the base is an atom, the exponent a unary: right associative
        return (left if lprec == 4 else f"({left})") + "^" + (right if rprec >= 3 else f"({right})"), 3.5
    prec = 1 if kind in "+-" else 2
    left = left if lprec >= prec else f"({left})"
    right = right if rprec > prec else f"({right})"
    return f"{left} {kind} {right}", prec


trees = st.recursive(
    st.one_of(numbers.map(lambda s: ("num", s)), st.integers(0, 2).map(lambda i: ("var", i))),
    lambda kids: st.one_of(
        st.tuples(st.just("neg"), kids),
        st.tuples(st.sampled_from("+-*/"), kids, kids),
        st.tuples(st.just("^"), kids,
                  st.one_of(st.sampled_from(["2", "3", "0.5", "1.5"]).map(lambda s: ("num", s)), kids)),
        st.tuples(st.just("call"), st.sampled_from(sorted(FUNCTIONS)), kids)),
    max_leaves=8)


@st.composite
def cases(draw):
    """(text, variables, point): an expression in 1-3 variables and a point."""
    nvars = draw(st.integers(1, 3))
    text = _render(draw(trees), nvars)[0]
    point = tuple(draw(st.lists(st.floats(-3.0, 3.0), min_size=nvars, max_size=nvars)))
    return text, NAMES[:nvars], point


def _sympy(text, variables):
    local = dict(SYMPY_FUNCTIONS)
    local.update(zip(variables, SYMBOLS))
    return parse_expr(text.replace("^", "**"), local_dict=local)


def _reference(sym, variables, point):
    """Value of a sympy expression at point to 30 digits, or None when not a finite real."""
    # substituting before evalf keeps an exact cancellation exactly zero
    values = {s: sympy.Float(v, 30) for s, v in zip(SYMBOLS, point)}
    try:
        val = complex(sym.xreplace(values).evalf(30))
    except (TypeError, ValueError, ArithmeticError):
        return None
    if not (math.isfinite(val.real) and math.isfinite(val.imag)) or val.imag != 0.0:
        return None
    return val.real


_SLOPES = {"sin": math.cos, "cos": lambda a: -math.sin(a), "exp": math.exp,
           "log": lambda a: 1.0 / a, "sqrt": lambda a: 0.5 / math.sqrt(a) if a else math.inf,
           "sinh": math.cosh, "cosh": math.sinh, "abs": lambda a: 1.0, "sign": lambda a: 0.0}
_CALLS = dict(FUNCTIONS, sign=lambda a: math.copysign(1.0, a) if a else 0.0)


def _rounding_bound(node, point):
    """(value, first-order bound on its accumulated rounding error) of a package tree."""
    kind = node[0]
    if kind == "num":
        # a constant may differ from its decimal text, or from an exact fold, by half an ulp
        return node[1], EPS * abs(node[1])
    if kind == "var":
        return point[node[1]], 0.0
    if kind == "neg":
        v, e = _rounding_bound(node[1], point)
        return -v, e
    if kind == "call":
        a, ea = _rounding_bound(node[2], point)
        v = _CALLS[node[1]](a)
        return v, abs(_SLOPES[node[1]](a)) * ea + 4.0 * EPS * abs(v) + TINY
    a, ea = _rounding_bound(node[1], point)
    b, eb = _rounding_bound(node[2], point)
    if kind in "+-":
        v = a + b if kind == "+" else a - b
        e = ea + eb
    elif kind == "*":
        v = a * b
        e = abs(b) * ea + abs(a) * eb
    elif kind == "/":
        v = a / b
        e = (ea + abs(v) * eb) / abs(b)
    else:
        v = a ** b
        # a zero base with an inexact base or exponent raises here: no bound
        e = (abs(b * v / a) * ea if ea else 0.0) + (abs(v * math.log(abs(a))) * eb if eb else 0.0)
    return v, e + 4.0 * EPS * abs(v) + TINY


def _tolerance(rel, expr, point, reference):
    """rel relative to the reference, or the rounding bound where the evaluation is ill-conditioned."""
    try:
        with np.errstate(all="ignore"):
            bound = _rounding_bound(expr.tree, point)[1]
    except (ArithmeticError, ValueError):
        bound = math.inf
    return max(rel * abs(reference), 16.0 * bound if not math.isnan(bound) else math.inf)


def _evaluate(expr, point):
    """expr at point, or None when it raises its typed error or is not finite."""
    try:
        val = expr(*point)
    except WavetrajError:
        return None
    return val if math.isfinite(val) else None


@PROFILE
@given(st.one_of(cases().map(lambda c: c[0]),
                 st.lists(st.sampled_from(list("x123+-*/^()., 0123456789e") + ["sin", "abs", "y"]),
                          max_size=24).map("".join)),
       st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3))
def test_every_input_evaluates_or_raises_a_typed_error(text, point):
    try:
        expr = parse_expression(text, NAMES)
    except ParseError:
        return
    exprs = [expr] + [expr.derivative(name) for name in NAMES]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for e in exprs:
            for values in (point, [np.float64(v) for v in point]):
                try:
                    val = e(*values)
                except WavetrajError:
                    continue
                assert isinstance(float(val), float)


@PROFILE
@given(cases())
def test_finite_values_match_sympy(case):
    text, variables, point = case
    expr = parse_expression(text, variables)
    val = _evaluate(expr, point)
    assume(val is not None)
    ref = _reference(_sympy(text, variables), variables, point)
    # an underflow can make a float value finite where the exact one is not
    # ((-(x*x))^0.5 is 0.0 once x*x underflows), and sympy leaves 0^0 undefined
    assume(ref is not None)
    assert abs(val - ref) <= _tolerance(1e-12, expr, point, ref), (text, point, val, ref)


@PROFILE
@given(cases(), st.integers(0, 2))
def test_finite_derivatives_match_sympy_diff(case, which):
    text, variables, point = case
    name = variables[which % len(variables)]
    expr = parse_expression(text, variables)
    assume(_evaluate(expr, point) is not None)
    d = expr.derivative(name)
    val = _evaluate(d, point)
    assume(val is not None)
    sym = sympy.diff(_sympy(text, variables), SYMBOLS[variables.index(name)])
    ref = _reference(sym, variables, point)
    # sympy's own form can be 0/0 where ours is finite: d(x^1.5)/dx = 1.5 x^1.5 / x at 0
    assume(ref is not None)
    assert abs(val - ref) <= _tolerance(1e-9, d, point, ref), (text, name, point, val, ref)


@PROFILE
@given(cases(), st.integers(0, 2))
def test_finite_derivatives_match_central_differences(case, which):
    text, variables, point = case
    i = which % len(variables)
    expr = parse_expression(text, variables)
    assume(_evaluate(expr, point) is not None)
    d = _evaluate(expr.derivative(variables[i]), point)
    assume(d is not None)
    h = fd_step(point[i])

    def shifted(k):
        p = list(point)
        p[i] += k * h
        return _evaluate(expr, p)

    f = [shifted(k) for k in (-2, -1, 0, 1, 2)]
    assume(all(v is not None for v in f))
    fd_h = (f[3] - f[1]) / (2.0 * h)
    fd_2h = (f[4] - f[0]) / (4.0 * h)
    scale = max(1.0, abs(f[2]), abs(fd_h))
    # central differences reach about 1e-10 of the scale where the function is
    # smooth on the stencil: the second difference is small against the first,
    # and doubling the step moves the estimate by no more than that
    assume(abs(f[3] - 2.0 * f[2] + f[1]) <= 1e-3 * (abs(f[3] - f[1]) + 1e-9 * scale))
    assume(abs(fd_h - fd_2h) <= 1e-7 * scale)
    assert abs(d - fd_h) <= 1e-6 * scale, (text, variables[i], point, d, fd_h)



def _walk(node, values):
    """The tree evaluated node by node, in the parser's order."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return values[node[1]]
    if kind == "neg":
        return -_walk(node[1], values)
    if kind == "call":
        return FUNCTIONS[node[1]](_walk(node[2], values))
    a = _walk(node[1], values)
    b = _walk(node[2], values)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    out = a ** b
    if isinstance(out, complex):
        raise ValueError("complex result")
    return out


def _outcome(fn, values):
    """repr of fn(*values), or the name of the exception it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return repr(fn(*values))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__


@PROFILE
@given(cases())
def test_compiled_function_equals_a_walk_of_the_tree(case):
    # values are bit-identical to a node-by-node evaluation, for Python
    # floats and for the numpy scalars the integrator passes
    text, variables, point = case
    expr = parse_expression(text, variables)
    compiled = _compile(expr.tree, len(variables))
    for values in (point, tuple(np.float64(v) for v in point)):
        assert _outcome(compiled, values) == _outcome(lambda *v: _walk(expr.tree, v), values), text


# ---------------------------------------------------------------- array form

@st.composite
def batches(draw, values=st.floats(-3.0, 3.0)):
    """(text, variables, points): an expression in 1-3 variables and 1-8 points."""
    nvars = draw(st.integers(1, 3))
    text = _render(draw(trees), nvars)[0]
    points = draw(st.lists(st.tuples(*[values] * nvars), min_size=1, max_size=8))
    return text, NAMES[:nvars], points


def _on_points(expr, points):
    """The array form at each point, one array per variable."""
    return expr.on_arrays(*np.array(points, dtype=float).T)


@PROFILE
@given(batches())
def test_array_form_agrees_with_the_scalar_form(batch):
    text, variables, points = batch
    expr = parse_expression(text, variables)
    for e in [expr] + [expr.derivative(name) for name in variables]:
        out = _on_points(e, points)
        for point, a in zip(points, out):
            val = _evaluate(e, point)
            if val is not None and math.isfinite(a):
                # numpy's exp, log, sinh, cosh and ^ round differently from
                # Python's, within the rounding bound of either evaluation
                assert abs(a - val) <= _tolerance(0.0, e, point, val), (e.source, point, a, val)


@PROFILE
@given(batches(st.floats(allow_nan=True, allow_infinity=True)))
def test_a_finite_array_value_means_the_scalar_form_succeeds(batch):
    text, variables, points = batch
    expr = parse_expression(text, variables)
    for e in [expr] + [expr.derivative(name) for name in variables]:
        out = _on_points(e, points)
        for point, a in zip(points, out):
            if math.isfinite(a):
                val = e(*point)   # raises nothing
                assert math.isfinite(val), (e.source, point, a, val)


@PROFILE
@given(st.one_of(cases().map(lambda c: c[0]),
                 st.lists(st.sampled_from(list("x123+-*/^()., 0123456789e") + ["sin", "log", "y"]),
                          max_size=24).map("".join)),
       st.lists(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=3, max_size=3),
                min_size=1, max_size=6))
def test_array_evaluation_emits_no_warning(text, points):
    try:
        expr = parse_expression(text, NAMES)
    except ParseError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in [expr] + [expr.derivative(name) for name in NAMES]:
            assert _on_points(e, points).shape == (len(points),)


# ---------------------------------------------------------------- premise scans

_LEVELS = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def scans(draw):
    """(text, grid, t_grid): an expression in x1, x2 and t (as x3) on a small grid with ties."""
    text = _render(draw(trees), 3)[0]
    grid = draw(st.lists(st.lists(_LEVELS, min_size=2, max_size=2), min_size=1, max_size=6))
    t_grid = draw(st.lists(_LEVELS, min_size=1, max_size=4))
    poison = draw(st.one_of(st.none(), st.integers(0, len(grid) - 1)))
    if poison is not None:
        grid[poison][draw(st.integers(0, 1))] = math.nan
    return text, grid, t_grid


def _scan_outcome(bd, source, quantity):
    """(verdict, worst point, worst t) and the margin, or the error the window scan raises."""
    try:
        margin, point, t = _worst(bd, on_window(source, quantity, bd.grid, bd.t_grid))
    except WavetrajError as exc:
        return repr(exc), None
    return repr((margin >= 0.0, point, t)), margin


@PROFILE
@given(scans())
def test_array_scan_equals_the_scalar_loop(scan):
    text, grid, t_grid = scan
    expr = parse_expression(text, NAMES)
    bd = BoundData(alpha0=lambda t: 0.0, beta0=lambda t: 0.0, grid=grid, t_grid=t_grid)
    # Python floats, so a failed evaluation raises instead of warning
    quantity = lambda p, t: expr(float(p[0]), float(p[1]), float(t))
    on_grid = with_array_form(lambda p, t: quantity(p, t),
                              lambda x, t: expr.on_arrays(x[..., 0], x[..., 1], t))
    looped, loop_margin = _scan_outcome(bd, quantity, quantity)
    batched, margin = _scan_outcome(bd, on_grid, quantity)
    assert batched == looped, text
    if margin is not None and math.isfinite(loop_margin):
        _, point, t = _worst(bd, on_window(quantity, quantity, bd.grid, bd.t_grid))
        assert abs(margin - loop_margin) <= _tolerance(0.0, expr, (*point, t), loop_margin), text


# ---------------------------------------------------------------- fused lists

@st.composite
def expression_lists(draw):
    """(texts, variables, point): one to four expressions over the same 1-3 variables."""
    nvars = draw(st.integers(1, 3))
    texts = draw(st.lists(trees.map(lambda tree: _render(tree, nvars)[0]), min_size=1, max_size=4))
    point = tuple(draw(st.lists(st.one_of(st.floats(-3.0, 3.0),
                                          st.sampled_from([0.0, -1.0, math.nan, math.inf])),
                                min_size=nvars, max_size=nvars)))
    return texts, NAMES[:nvars], point


def _values_or_error(call, values):
    """repr of each value (NaN as nan), or the source and point of the EvaluationError."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return [repr(float(v)) for v in call(*values)]
    except EvaluationError as exc:
        return exc.source, repr(exc.point)


@PROFILE
@given(expression_lists())
def test_fused_call_equals_the_expressions_called_in_turn(case):
    texts, variables, point = case
    exprs = [parse_expression(text, variables) for text in texts]
    exprs += [e.derivative(name) for e in exprs[:2] for name in variables]
    call = fused(exprs)
    for values in (point, tuple(np.float64(v) for v in point)):
        assert (_values_or_error(call, values)
                == _values_or_error(lambda *v: [e(*v) for e in exprs], values)), texts
