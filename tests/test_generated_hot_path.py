"""The generated DP5 attempt and the generated expression sources against plain references.

The DP5 attempt is generated per state length with every stage sum, check
and error term written out per component. The list-comprehension attempt it
replaced is kept here as its reference: the two must agree bit for bit in the
new state, the FSAL derivative, the error norm, the sequence of stage calls
and the count of field calls, on fields that are finite, that give a
non-finite stage, that raise EvaluationError, whose finite stages sum past
DBL_MAX, and that raise OutOfChart at a stage past their chart guard.

The expression sources are generated with repeated subtrees computed once
and constant whole exponents as an inline '**'. A walk of the tree node by
node, kept here, is their reference: the scalar form, chart_function with
one argument per variable and the chart-point form must give its values bit
for bit, and raise where it raises.
"""

import importlib.util
import math
import pathlib
import struct
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wavetraj import expressions
from wavetraj.catalog import build_manifold, build_potential, expression_potential
from wavetraj.dynamics import rhs_E
from wavetraj.errors import EvaluationError, OutOfChart
from wavetraj.expressions import (FUNCTIONS, MAX_DEPTH, Expression, at_chart_point, chart_function,
                                  parse_expression)
from wavetraj.integrate import (_A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61,
                                _A62, _A63, _A64, _A65, _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5,
                                _E1, _E3, _E4, _E5, _E6, _E7, IntegratorConfig, _Core)
from wavetraj.runner import run_scenario
from wavetraj.scenario import parse_scenario

PROFILE = settings(max_examples=200, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


def _bits(values):
    """The bytes of a sequence of floats, so -0.0, 0.0 and each NaN's sign stay apart."""
    return struct.pack(f"{len(values)}d", *values)


# ---------------------------------------------------------------- the DP5 attempt

def _finite(v):
    """Every entry of the list v is finite; a finite sum says so at once."""
    return math.isfinite(sum(v)) or all(map(math.isfinite, v))


def _list_attempt(f, cfg, t, y, h, k1):
    """The DP5 attempt as list comprehensions over zipped stages, the generated one's reference."""
    try:
        y2 = [a + h * (_A21 * p) for a, p in zip(y, k1)]
        if not _finite(y2):
            return y, k1, math.inf
        k2 = f(t + _C2 * h, y2)
        y3 = [a + h * (_A31 * p + _A32 * q) for a, p, q in zip(y, k1, k2)]
        if not _finite(y3):
            return y, k1, math.inf
        k3 = f(t + _C3 * h, y3)
        y4 = [a + h * (_A41 * p + _A42 * q + _A43 * r) for a, p, q, r in zip(y, k1, k2, k3)]
        if not _finite(y4):
            return y, k1, math.inf
        k4 = f(t + _C4 * h, y4)
        y5 = [a + h * (_A51 * p + _A52 * q + _A53 * r + _A54 * u)
              for a, p, q, r, u in zip(y, k1, k2, k3, k4)]
        if not _finite(y5):
            return y, k1, math.inf
        k5 = f(t + _C5 * h, y5)
        y6 = [a + h * (_A61 * p + _A62 * q + _A63 * r + _A64 * u + _A65 * v)
              for a, p, q, r, u, v in zip(y, k1, k2, k3, k4, k5)]
        if not _finite(y6):
            return y, k1, math.inf
        k6 = f(t + h, y6)
        y_new = [a + h * (_B1 * p + _B3 * r + _B4 * u + _B5 * v + _B6 * w)
                 for a, p, r, u, v, w in zip(y, k1, k3, k4, k5, k6)]
        if not _finite(y_new):
            return y, k1, math.inf
        k7 = f(t + h, y_new)
    except EvaluationError:
        return y, k1, math.inf
    atol, rtol = cfg.abs_tol, cfg.rel_tol
    total = 0.0
    for a, b, p, r, u, v, w, z in zip(y, y_new, k1, k3, k4, k5, k6, k7):
        a, b = abs(a), abs(b)
        q = h * (_E1 * p + _E3 * r + _E4 * u + _E5 * v + _E6 * w + _E7 * z) / (
            atol + rtol * (a if a >= b else b))
        total += q * q
    return y_new, k7, math.sqrt(total / len(y))


FIELD_KINDS = ("finite", "non-finite", "raises", "overflow")


def _field(kind, matrix, drift, edge, guard_edge):
    """A linear field y' = M y + drift t as a list; past y[0] > edge it fails as kind says.

    Like the force kernel, it first checks its chart guard, y[-1] < guard_edge,
    and raises OutOfChart at a point outside it.
    """
    def f(t, y):
        if not y[-1] < guard_edge:
            raise OutOfChart(list(y))
        k = [sum(m * a for m, a in zip(row, y)) + c * t for row, c in zip(matrix, drift)]
        if y[0] > edge:
            if kind == "non-finite":
                k[-1] = math.nan if k[-1] > 0 else -math.inf
            elif kind == "raises":
                raise EvaluationError("log(edge - x1)", {"x1": y[0]},
                                      ValueError("math domain error"))
        return k
    return f


moderate = st.floats(-10.0, 10.0)
special = st.sampled_from([0.0, -0.0, 1e-300, -1e300, 5e-324])


@st.composite
def attempts(draw):
    """(field kind, m, field, t, y, h, cfg) of one DP5 attempt."""
    m = draw(st.sampled_from([2, 4, 6, 8]))
    kind = draw(st.sampled_from(FIELD_KINDS))
    matrix = draw(st.lists(st.lists(moderate, min_size=m, max_size=m), min_size=m, max_size=m))
    drift = draw(st.lists(moderate, min_size=m, max_size=m))
    if kind == "overflow":
        # finite entries whose sums pass DBL_MAX, and a field small beside
        # them, or large enough that a stage entry passes it too
        y = [draw(st.sampled_from([1.5e308, -1.5e308, 1e308])) for _ in range(m)]
        matrix = [[0.0] * m for _ in range(m)]
        drift = [draw(st.sampled_from([0.0, 1.0, -1.0, 1e307, -1e307])) for _ in range(m)]
    else:
        y = draw(st.lists(st.one_of(moderate, special), min_size=m, max_size=m))
    edge = draw(st.one_of(st.just(math.inf), st.floats(-1.0, 12.0)))
    guard_edge = draw(st.one_of(st.just(math.inf), st.floats(-12.0, 12.0)))
    t = draw(st.one_of(st.just(0.0), moderate))
    h = draw(st.sampled_from([1e-6, 0.01, 0.3, 2.0, 40.0])) * draw(st.sampled_from([1.0, -1.0]))
    cfg = IntegratorConfig(rel_tol=draw(st.sampled_from([1e-9, 1e-6, 1e-12])),
                           abs_tol=draw(st.sampled_from([1e-12, 1e-9, 1e-14])))
    f = _field(kind, matrix, drift, edge, guard_edge)
    return kind, m, f, t, y, h, cfg


def _recorded(f):
    """f, and the list of (t, y) bits it appends each call to."""
    calls = []

    def field(t, y):
        calls.append(_bits([t] + list(y)))
        return f(t, y)

    return field, calls


def _outcome(attempt):
    """The bits of (y_new, k7, err), or the type and message of the exception raised."""
    try:
        y_new, k7, err = attempt()
    except OutOfChart as exc:
        return "OutOfChart", str(exc)
    return _bits(y_new), _bits(k7), _bits([err])


@PROFILE
@given(attempts())
def test_generated_attempt_is_the_list_attempt_bit_for_bit(case):
    kind, m, f, t, y, h, cfg = case
    try:
        k1 = f(t, y)
    except (EvaluationError, OutOfChart):
        k1 = [0.5] * m
    field, calls = _recorded(f)
    core = _Core(field, y, cfg, lambda y: 0.0, t, math.copysign(1.0, h))
    generated = _outcome(lambda: core._attempt(t, list(y), h, k1))
    reference_field, reference_calls = _recorded(f)
    reference = _outcome(lambda: _list_attempt(reference_field, cfg, t, list(y), h, k1))
    assert generated == reference, kind
    assert calls == reference_calls
    assert core.n_rhs == len(reference_calls)


def test_the_attempt_kinds_all_occur():
    # the strategy above reaches every path: each kind, a rejected stage, a
    # stage outside the guard, and a full attempt, for each state length
    seen = set()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(attempts())
    def collect(case):
        kind, m, f, t, y, h, cfg = case
        try:
            k1 = f(t, y)
        except (EvaluationError, OutOfChart):
            k1 = [0.5] * m
        try:
            _, _, err = _list_attempt(f, cfg, t, list(y), h, k1)
            seen.add((kind, m, "rejected" if err == math.inf else "full"))
        except OutOfChart:
            seen.add((kind, m, "guard"))

    collect()
    assert {m for _, m, _ in seen} == {2, 4, 6, 8}
    assert {(kind, outcome) for kind, _, outcome in seen} >= {
        ("finite", "full"), ("finite", "guard"), ("non-finite", "rejected"),
        ("raises", "rejected"), ("overflow", "rejected"), ("overflow", "full")}


def test_one_attempt_is_generated_per_state_length():
    cfg = IntegratorConfig()
    f = lambda t, y: [0.0] * len(y)
    a = _Core(f, [1.0, 2.0], cfg, lambda y: 0.0, 0.0, 1.0)
    b = _Core(f, [3.0, 4.0], cfg, lambda y: 0.0, 0.0, 1.0)
    c = _Core(f, [1.0] * 8, cfg, lambda y: 0.0, 0.0, 1.0)
    assert a._attempt.__code__ is b._attempt.__code__ is not c._attempt.__code__


# ---------------------------------------------------------------- the flat force equation

@pytest.mark.parametrize("potential", [
    build_potential("zero", {}, 2), build_potential("harmonic", {"k": 2.0}, 2),
    expression_potential("x1^2*sin(t) - x2", 2)], ids=["zero", "harmonic", "expression"])
def test_the_flat_identity_rhs_is_its_two_steps_in_one_pass(potential):
    # -0.0 * v * v, then minus dV where any entry of dV is nonzero: -0.0 - 0.0
    # is -0.0, and a zero dV leaves -0.0, never the +0.0 of -0.0 - (-0.0)
    m = build_manifold("euclidean", {"n": 2})
    for x, v, t in [([0.0, 0.0], [0.3, -0.4], 0.0), ([0.0, 0.5], [-0.0, 1e200], 1.0),
                    ([1.5, -0.0], [math.inf, 0.0], 0.0), ([0.25, 2.0], [0.1, math.nan], 0.5)]:
        acc = [-0.0 * a * a for a in v]
        dv = list(potential.potential_dx(x, t))
        if any(dv):
            acc = [a - d for a, d in zip(acc, dv)]
        assert _bits(rhs_E(m, potential, (x, v, t))) == _bits(v + acc)


# ---------------------------------------------------------------- the emitter

def _walk(node, values):
    """The tree evaluated node by node, in the parser's order; '^' checked for complex results."""
    kind = node[0]
    if kind == "num":
        return node[1]
    if kind == "var":
        return values[node[1]]
    if kind == "neg":
        return -_walk(node[1], values)
    if kind == "call":
        return dict(FUNCTIONS, sign=expressions._sign)[node[1]](_walk(node[2], values))
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


def _walked(trees, values):
    """bits of each tree's walk in turn, or the index of the first that raises and its reason."""
    out = []
    for i, tree in enumerate(trees):
        try:
            out.append(_walk(tree, values))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            return i, str(exc)
    return _bits(out)


def _called(call, exprs, values):
    """bits of call's values, or the index of the expression its EvaluationError names and why."""
    try:
        out = call()
    except EvaluationError as exc:
        index = [e.source for e in exprs].index(exc.source)
        assert exc.point == dict(zip(exprs[index].variables, values))
        return index, str(exc).rsplit(": ", 1)[1]
    return _bits(out if isinstance(out, tuple) else [out])


EXPONENTS = [2.0, 3.0, 4.0, 1.0, 0.0, -1.0, -2.0, -3.0, 0.5, 1.5, -0.5, 2.5, 1e300]
VARIABLES = ("x1", "x2", "s", "k")   # a chart point, s, and a template parameter k

leaves = st.one_of(st.integers(0, 3).map(lambda i: ("var", i)),
                   st.sampled_from([0.0, -0.0, 1.0, 2.0, 0.5, -3.0, 1e308])
                   .map(lambda c: ("num", c)))


def _grow(kids):
    return st.one_of(
        st.tuples(st.just("neg"), kids),
        st.tuples(st.sampled_from("+-*/"), kids, kids),
        st.tuples(st.just("^"), kids, st.sampled_from(EXPONENTS).map(lambda c: ("num", c))),
        st.tuples(st.just("^"), kids, kids),
        st.tuples(st.just("call"), st.sampled_from(sorted(FUNCTIONS) + ["sign"]), kids))


@st.composite
def shared_trees(draw):
    """One to three trees built from a few common subtrees, which repeat within and across them."""
    common = draw(st.lists(st.recursive(leaves, _grow, max_leaves=5), min_size=1, max_size=3))
    parts = st.one_of(st.sampled_from(common), leaves)
    return draw(st.lists(st.recursive(parts, _grow, max_leaves=6), min_size=1, max_size=3))


points = st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e200])),
                  min_size=4, max_size=4)


@PROFILE
@given(shared_trees(), points)
def test_generated_sources_are_a_walk_of_the_tree(trees, point):
    exprs = [Expression(f"tree {i}", VARIABLES, tree) for i, tree in enumerate(trees)]
    x, s, k = point[:2], point[2], point[3]
    # the scalar form, one tree at a time
    for i, (expr, tree) in enumerate(zip(exprs, trees)):
        walked = _walked([tree], point)
        called = _called(lambda: expr(*point), [expr], point)
        assert called == walked, tree
    walked = _walked(trees, point)
    # one argument per variable, and the chart-point form with k a bound parameter
    assert _called(lambda: chart_function(exprs, (None,) * 4)(*point), exprs, point) == walked
    assert _called(lambda: at_chart_point(exprs, (k,))(x, s), exprs, point) == walked
    assert _called(lambda: at_chart_point(exprs[0], (k,))(x, s), exprs, point) == _walked(
        trees[:1], point)


def test_repeated_subtrees_are_computed_once():
    h = parse_expression("c*(x1^2 + x2^2)^2", ("x1", "x2", "u", "c"))
    gradient = [h.derivative("x1"), h.derivative("x2")]
    emitter = expressions._Emitter([d.tree for d in gradient])
    first, second = (emitter.text(d.tree, arg=True)[0] for d in gradient)
    # 2*(x1^2 + x2^2) once, inline squares, no checked power
    assert first.count(":=") == 1 and "_t0" in second and ":=" not in second
    assert "**" in first and "_pow" not in first + second


def test_subtrees_differing_in_the_sign_of_a_zero_are_not_shared():
    # 0.0 == -0.0, yet -0.0 + 0.0 is 0.0 and -0.0 + -0.0 is -0.0
    plus, minus = ("+", ("var", 0), ("num", 0.0)), ("+", ("var", 0), ("num", -0.0))
    exprs = [Expression("x + 0", ("x",), ("*", plus, plus)),
             Expression("x - 0", ("x",), ("*", minus, ("num", -1.0)))]
    for x in (-0.0, 0.0, 1.5):
        walked = _walked([e.tree for e in exprs], (x,))
        assert _called(lambda: chart_function(exprs, (None,))(x), exprs, (x,)) == walked


def test_a_chain_of_whole_powers_at_max_depth_compiles():
    # one parenthesis level per '**': compile() stops at 200 nested levels
    tree = ("var", 0)
    for _ in range(MAX_DEPTH - 1):
        tree = ("^", tree, ("num", 2.0))
    expr = Expression("a chain of squares", ("x",), tree)
    for x in (1.0, -1.0, 0.0, 1.0000000001):
        assert _called(lambda: expr(x), [expr], (x,)) == _walked([tree], (x,))
    # the deepest such chain the parser takes: each level is a '^' and a pair of parentheses
    text = "x"
    while True:
        try:
            parse_expression(f"({text})^2", ("x",))
        except expressions.ParseError:
            break
        text = f"({text})^2"
    expr = parse_expression(text, ("x",))
    assert text.count("^") >= MAX_DEPTH // 2 - 1
    for x in (1.0, -1.0, 1.0 + 2.0 ** -52):
        assert _called(lambda: expr(x), [expr], (x,)) == _walked([expr.tree], (x,))


def test_a_failing_second_gradient_entry_names_itself_and_the_point():
    h = parse_expression("x1^2 + u*log(x2)", ("x1", "x2", "u"))
    gradient = at_chart_point([h.derivative("x1"), h.derivative("x2")])
    assert gradient([3.0, 2.0], 1.0) == (6.0, 0.5)
    with pytest.raises(EvaluationError) as info:
        gradient([3.0, 0.0], 1.0)
    assert info.value.source == h.derivative("x2").source
    assert info.value.point == {"x1": 3.0, "x2": 0.0, "u": 1.0}


def _perfbench_workloads():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_seed_7_gpw_map_run_makes_no_checked_power_call(tmp_path):
    workloads = _perfbench_workloads()
    task = next(t for t in workloads.generate("gpw_certify", 7) if t.family == "gpw-map")
    sc = parse_scenario(task.raw)
    code = expressions._real_power.__code__
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(1)

    sys.setprofile(profile)
    try:
        report = run_scenario(sc, tmp_path)
    finally:
        sys.setprofile(None)
    assert report is not None
    assert calls == []
    # the checked power still serves an exponent that is not whole
    sys.setprofile(profile)
    try:
        parse_expression("x^0.5", ("x",))(4.0)
    finally:
        sys.setprofile(None)
    assert len(calls) == 1
