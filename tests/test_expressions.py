import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavetraj.catalog import (MAX_DIMENSION, POTENTIALS, build_potential, expression_potential,
                              metric_rows)
from wavetraj.errors import EvaluationError, ParseError, ValidationError, WavetrajError
from wavetraj.expressions import MAX_DEPTH, parse_expression


def ev(text, variables=(), *values):
    return parse_expression(text, variables)(*values)


def test_numbers_and_arithmetic():
    assert ev("2 + 3 * 4") == 14.0
    assert ev("(2 + 3) * 4") == 20.0
    assert ev("7 / 2") == 3.5
    assert ev("1.5e2 + .5") == 150.5


def test_power_precedence():
    assert ev("2 + 3 * 4 ^ 2") == 50.0
    assert ev("-2^2") == -4.0          # unary minus binds below the power
    assert ev("2^-1") == 0.5
    assert ev("2^3^2") == 512.0        # right associative


def test_whole_number_exponents_of_negative_bases():
    assert ev("(-2)^3") == -8.0
    assert ev("(-2)^2.0") == 4.0
    assert ev("2^3*4") == 32.0
    assert ev("x^2^0.5", ("x",), 4.0) == 4.0 ** 2.0 ** 0.5


def test_functions():
    assert ev("sin(0)") == 0.0
    assert ev("cos(0) + exp(0)") == 2.0
    assert ev("sqrt(16)") == 4.0
    assert ev("log(exp(2))") == pytest.approx(2.0)
    assert ev("cosh(1) - sinh(1)") == pytest.approx(math.exp(-1.0))
    assert ev("abs(-3.5)") == 3.5


def test_variables():
    expr = parse_expression("x1^2 - x2 + 2*t", ("x1", "x2", "t"))
    assert expr(3.0, 1.0, 0.5) == 9.0
    assert expr.used == {"x1", "x2", "t"}
    assert "t" in parse_expression("t", ("t",)).used
    assert parse_expression("1 + 1", ("t",)).used == frozenset()


def test_unknown_variable_rejected():
    with pytest.raises(ParseError, match="unknown variable 'x3'"):
        parse_expression("x1 + x3", ("x1", "x2"))


def test_unknown_function_rejected():
    with pytest.raises(ParseError, match="unknown function 'tan'"):
        parse_expression("tan(1)", ())


def test_malformed_expressions():
    with pytest.raises(ParseError):
        parse_expression("2 +", ())
    with pytest.raises(ParseError):
        parse_expression("(1 + 2", ())
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("1 2", ())
    with pytest.raises(ParseError):
        parse_expression(")", ())
    with pytest.raises(ParseError):
        parse_expression("x^", ("x",))
    with pytest.raises(ParseError):
        parse_expression("2^", ())


def test_error_carries_position():
    with pytest.raises(ParseError) as excinfo:
        parse_expression("1 + $", ())
    assert excinfo.value.column == 5


def test_non_string_rejected():
    with pytest.raises(ValidationError):
        parse_expression(12, ())


@pytest.mark.parametrize("text,values,reason", [
    ("log(x)", (-1.0,), "domain"),
    ("1 / x", (0.0,), "division by zero"),
    ("exp(x)", (1e5,), "range"),
    ("x^0.5", (-4.0,), "complex"),
    ("abs((x)^0.5)", (-4.0,), "complex"),   # a complex intermediate, not only the result
])
def test_evaluation_errors_are_typed(text, values, reason):
    expr = parse_expression(text, ("x",))
    with pytest.raises(EvaluationError, match=reason) as excinfo:
        expr(*values)
    err = excinfo.value
    assert isinstance(err, WavetrajError) and isinstance(err, ValueError)
    assert err.source == text
    assert err.point == {"x": values[0]}


def test_nothing_compiles_at_parse_time():
    expr = parse_expression("x^2 + 1", ("x",))
    assert expr._fn is None
    assert expr(3.0) == 10.0
    assert expr._fn is not None


def test_expressions_differing_in_constants_share_code():
    a = parse_expression("2.5*x + sin(x)^3", ("x",))
    b = parse_expression("7*x + sin(x)^0.5", ("x",))
    # a minus sign on a number is part of the constant
    c = parse_expression("-7*x + sin(x)^(-0.5)", ("x",))
    assert a(1.0) == 2.5 + math.sin(1.0) ** 3
    assert b(1.0) == 7.0 + math.sin(1.0) ** 0.5
    assert c(1.0) == -7.0 + math.sin(1.0) ** -0.5
    assert a._fn.__code__ is b._fn.__code__ is c._fn.__code__


@pytest.mark.parametrize("text,name,point,expected", [
    ("3*x^2 - 2*x + 7", "x", (2.0,), 10.0),
    ("x*y", "y", (3.0, 5.0), 3.0),
    ("x/y", "y", (3.0, 2.0), -0.75),
    ("sin(x)*cos(x)", "x", (0.3, 0.0), math.cos(0.6)),
    ("exp(2*x)", "x", (0.5, 0.0), 2.0 * math.e),
    ("log(x^2 + 1)", "x", (1.0, 0.0), 1.0),
    ("sqrt(x)", "x", (4.0, 0.0), 0.25),
    ("cosh(x) + sinh(x)", "x", (0.7, 0.0), math.exp(0.7)),
    ("abs(x - y)", "x", (1.0, 3.0), -1.0),
    ("abs(x - y)", "y", (1.0, 3.0), 1.0),
    ("2^x", "x", (3.0, 0.0), 8.0 * math.log(2.0)),
    ("x^y", "y", (2.0, 3.0), 8.0 * math.log(2.0)),
    ("x^-1", "x", (2.0, 0.0), -0.25),
    ("-x^3", "x", (-2.0, 0.0), -12.0),
    ("y^2", "x", (1.0, 4.0), 0.0),
])
def test_derivative_rules(text, name, point, expected):
    variables = ("x",) if len(point) == 1 else ("x", "y")
    d = parse_expression(text, variables).derivative(name)
    assert d(*point) == pytest.approx(expected, rel=1e-14, abs=1e-15)


def test_derivative_is_cached_folded_and_lazy():
    expr = parse_expression("x^2 + 3*y", ("x", "y"))
    dx = expr.derivative("x")
    assert expr.derivative("x") is dx
    assert dx._fn is None
    assert expr.derivative("y").tree == ("num", 3.0)
    assert dx.used == {"x"}
    assert dx.derivative("x")(5.0, 1.0) == 2.0


def test_derivative_of_unknown_variable_rejected():
    with pytest.raises(ValueError, match="not a variable"):
        parse_expression("x", ("x",)).derivative("t")


def test_derivative_evaluation_errors_are_typed():
    d = parse_expression("x^0.5", ("x",)).derivative("x")
    with pytest.raises(EvaluationError, match="complex") as excinfo:
        d(-4.0)
    assert excinfo.value.source == "d(x^0.5)/dx"
    with pytest.raises(EvaluationError):
        parse_expression("log(x)", ("x",)).derivative("x")(0.0)


def test_derivative_of_an_undefined_quotient_is_undefined():
    # 0/b folds to 0 only where b is a nonzero constant
    d = parse_expression("0.5/0.0", ("x",)).derivative("x")
    with pytest.raises(EvaluationError, match="division by zero"):
        d(1.0)
    assert parse_expression("0.5/2", ("x",)).derivative("x").tree == ("num", 0.0)
    assert parse_expression("1/x", ("x", "y")).derivative("y")(2.0, 1.0) == 0.0
    with pytest.raises(EvaluationError, match="division by zero"):
        parse_expression("1/x", ("x", "y")).derivative("y")(0.0, 1.0)


@pytest.mark.parametrize("text,values,expected", [
    ("exp(-exp(1000))", [0.0], [math.nan]),       # a failed intermediate cannot hide
    ("(1/0)^0", [0.0], [math.nan]),
    ("x^0.5", [-4.0, 4.0], [math.nan, 2.0]),
    ("x^-1", [0.0, 2.0], [math.nan, 0.5]),
    ("10^x", [400.0, 2.0], [math.nan, 100.0]),
    ("1/x", [0.0, -0.0, 4.0], [math.nan, math.nan, 0.25]),
    ("log(x)", [0.0, -1.0, 1.0], [math.nan, math.nan, 0.0]),
    ("sqrt(x)", [-1.0, 9.0], [math.nan, 3.0]),
    ("sinh(x) + cosh(x)", [1000.0, 0.0], [math.nan, 1.0]),
    ("exp(x)", [1e5, -math.inf, math.inf], [math.nan, 0.0, math.inf]),
    ("x^0", [math.nan, 3.0], [math.nan, 1.0]),
])
def test_array_form_gives_nan_where_the_scalar_form_raises(text, values, expected):
    expr = parse_expression(text, ("x",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = expr.on_arrays(np.array(values))
    np.testing.assert_array_equal(out, expected)
    for v, e in zip(values, expected):
        if math.isnan(e) and not math.isnan(v):
            with pytest.raises(EvaluationError):
                expr(v)


def test_array_form_broadcasts_and_compiles_lazily():
    expr = parse_expression("2*x + t", ("x", "t"))
    assert expr._array_fn is None
    out = expr.on_arrays(np.array([[1.0, 2.0, 3.0]]), np.array([[0.0], [10.0]]))
    np.testing.assert_array_equal(out, [[2.0, 4.0, 6.0], [12.0, 14.0, 16.0]])
    assert expr._array_fn is not None and expr._fn is None
    # a constant, or a variable left out, still fills the broadcast shape
    assert parse_expression("3", ("x", "t")).on_arrays(np.zeros((1, 3)), np.zeros((2, 1))).shape == (2, 3)
    assert parse_expression("t", ("x", "t")).on_arrays(np.zeros(4), 1.5).tolist() == [1.5] * 4
    a = parse_expression("2.5/x + sin(x)^3", ("x",))
    b = parse_expression("7/x + sin(x)^0.5", ("x",))
    a.on_arrays(np.ones(2))
    b.on_arrays(np.ones(2))
    assert a._array_fn.__code__ is b._array_fn.__code__


# depth counts each operator, call, sign and pair of parentheses from the root
# down; each shape below sits at MAX_DEPTH (nested quotients, two levels each,
# one below it), and two more levels of it are a parse error
DEEPEST = {
    "parentheses": lambda k: "(" * (k - 1) + "x1" + ")" * (k - 1),
    "signs": lambda k: "-" * (k - 1) + "x1",
    "calls": lambda k: "sin(" * (k - 1) + "x1" + ")" * (k - 1),
    "calls-of-products": lambda k: "sin(" * (k - 2) + "x1*x2" + ")" * (k - 2),
    "nested-quotients": lambda k: "x1/(" * ((k - 1) // 2) + "x1" + ")" * ((k - 1) // 2),
    "power-tower": lambda k: "^".join(["x1"] * k),
    "quotient-chain": lambda k: "/".join(["x1"] * k),
    "sum-of-products": lambda k: "+".join(["x1*x2"] * (k - 1)),
    "product-of-calls": lambda k: "*".join(["sin(x1)"] * (k - 1)),
}


@pytest.mark.parametrize("shape", sorted(DEEPEST))
def test_the_deepest_expressions_run_through_every_pass(shape):
    text = DEEPEST[shape](MAX_DEPTH)
    e = parse_expression(text, ("x1", "x2", "t"))
    d = e.derivative("x1")
    point = (1.1, 0.9, 0.3)
    assert math.isfinite(e(*point)) and math.isfinite(d(*point))
    assert_allclose(e.on_arrays(np.array([1.1]), 0.9, 0.3), [e(*point)], rtol=1e-12)
    assert_allclose(d.on_arrays(np.array([1.1]), 0.9, 0.3), [d(*point)], rtol=1e-12)
    assert np.all(np.isfinite(expression_potential(text, 2).potential_dx([1.1, 0.9], 0.3)))
    chart = metric_rows([[text, "0.1*x1"], ["0.1*x1", text]])
    assert all(map(math.isfinite, chart.geodesic_term([1.1, 0.9], [0.3, -0.2])))
    with pytest.raises(ParseError, match=f"deeper than {MAX_DEPTH} levels"):
        parse_expression(DEEPEST[shape](MAX_DEPTH + 2), ("x1", "x2", "t"))


def test_an_expression_too_deep_is_rejected_at_the_token_that_passes_the_cap():
    # the chain's depth passes the cap at its MAX_DEPTH-th '+', column 2 * MAX_DEPTH
    with pytest.raises(ParseError) as info:
        parse_expression("+".join(["x"] * 3000), ("x",))
    assert info.value.column == 2 * MAX_DEPTH
    # nesting is caught on the way down, at the opening parenthesis past the cap
    with pytest.raises(ParseError) as info:
        parse_expression("(" * 2000 + "x" + ")" * 2000, ("x",))
    assert info.value.column == MAX_DEPTH


def test_every_catalog_potential_parses_at_the_largest_dimension():
    for name in POTENTIALS:
        fs = build_potential(name, {}, MAX_DIMENSION)
        assert np.all(np.isfinite(fs.potential_dx([0.01] * MAX_DIMENSION, 0.0)))
