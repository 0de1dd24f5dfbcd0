"""The generated force-equation kernel against the force equation it replaced.

make_rhs writes the whole force equation of a chart and a force system into
one generated function. The list-based rhs_E it replaced, with the metric
check it called, is kept here as the reference: on every chart kind (an
identity or constant metric, diagonal rows, general rows whose off-diagonal
entries vanish at some points, and plain callable sources) and every force
kind (template and expression potentials, wave force systems, tensors that
are None, constant, in t alone or callable), the kernel must give its value
bit for bit, or raise its exception: the same type and message, and for a
domain error the same expression and point. The points include non-finite
velocities, guard exits, domain errors and metrics that are not positive
definite. The generated norm g_x(v, v) is held the same way against the
list-based norm it replaced.
"""

import dataclasses
import math
import struct
from operator import mul

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wavetraj import expressions
from wavetraj.catalog import (build_manifold, build_potential, build_tensor, build_wave,
                              expression_potential, expression_tensor, metric_rows)
from wavetraj.dynamics import FREE, make_rhs
from wavetraj.errors import EvaluationError, OutOfChart
from wavetraj.geometry import ChartManifold, _checked_metrics, chart_point, norm_function
from wavetraj.gpw import GpwSpacetime, wave_force_system

PROFILE = settings(max_examples=400, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------- the reference

def _metric_diagonal(manifold, x):
    g = manifold.metric if manifold.flat else manifold.metric(x)
    if type(g) is np.ndarray:
        g = g.tolist()
    n = len(x)
    diagonal = []
    for j, row in enumerate(g):
        if len(row) != n:
            break
        d = row[j]
        if not 0.0 < d + d < math.inf or any(row[:j]) or any(row[j + 1:]):
            break
        diagonal.append(d)
    if len(diagonal) == n == len(g):
        return diagonal, None
    return None, _checked_metrics([g], manifold.dim, [np.asarray(x, dtype=float)])[0]


def _floats(v):
    return v if type(v) in (list, tuple) else np.asarray(v, dtype=float).tolist()


def _dot(a, b):
    return sum(map(mul, a, b))


def _raised(diagonal, g, v):
    if diagonal is not None:
        return [a / d for a, d in zip(v, diagonal)]
    return np.linalg.solve(g, v).tolist()


def _tensor(fs, x, t):
    return None if fs.tensor_F is None else _floats(fs.tensor_F(x, t))


def reference_squared_norm(manifold, x, w):
    """g_x(w, w) as it was taken before the generated norm."""
    if manifold.identity_metric:
        return sum([v * v for v in w])
    diagonal, g = _metric_diagonal(manifold, x)
    if diagonal is not None:
        return sum([v * d * v for v, d in zip(w, diagonal)])
    w = np.array(w)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(w @ g @ w)


def reference_rhs(manifold, fs, state):
    """The force equation as a sequence of list operations, as it was before the kernel."""
    x, xdot, t = state
    if type(x) is not list or type(xdot) is not list:
        x, xdot = chart_point(x), chart_point(xdot)
    if manifold.domain_guard is not None and not manifold.domain_guard(x):
        raise OutOfChart(np.array(x))
    if manifold.flat:
        fmat = _tensor(fs, x, t)
        dv = _floats(fs.potential_dx(x, t))
        if fmat is None and manifold.identity_metric and any(dv):
            return xdot + [-0.0 * v * v - d for v, d in zip(xdot, dv)]
        acc = [-0.0 * v * v for v in xdot]
        if fmat is not None:
            acc = [a + _dot(row, xdot) for a, row in zip(acc, fmat)]
        if any(dv):
            if manifold.identity_metric:
                acc = [a - d for a, d in zip(acc, dv)]
            else:
                acc = [a - d for a, d in zip(acc, _raised(*_metric_diagonal(manifold, x), dv))]
        return xdot + acc
    diagonal, g = _metric_diagonal(manifold, x)
    lowered = [a + d for a, d in zip(_floats(manifold.geodesic_term(x, xdot)),
                                     _floats(fs.potential_dx(x, t)))]
    acc = [-a for a in _raised(diagonal, g, lowered)]
    fmat = _tensor(fs, x, t)
    if fmat is not None:
        acc = [a + _dot(row, xdot) for a, row in zip(acc, fmat)]
    return xdot + acc


# ---------------------------------------------------------------- cases

def _callable_chart():
    # the half-plane written by hand, guard and all
    def metric(x):
        w = 1.0 / (x[1] * x[1])
        return ((w, 0.0), (0.0, w))

    def term(x, v):
        dw = -2.0 / (x[1] * x[1] * x[1])
        return (dw * v[0] * v[1], 0.5 * dw * (v[1] * v[1] - v[0] * v[0]))

    return ChartManifold(dim=2, metric=metric, geodesic_term=term, domain_guard=lambda x: x[1] > 0.0)


CHARTS = {
    "identity": lambda: build_manifold("euclidean", {"n": 2}),
    "identity-guarded": lambda: ChartManifold(dim=2, metric=np.eye(2),
                                              domain_guard=lambda x: x[0] < 1.5),
    "constant-diagonal": lambda: ChartManifold(dim=2, metric=np.diag([2.0, 0.5])),
    "constant-general": lambda: ChartManifold(dim=2, metric=np.array([[2.0, 0.3], [0.3, 1.0]])),
    "half-plane": lambda: build_manifold("hyperbolic_half_plane", {}),
    "diagonal-rows": lambda: build_manifold(
        "diagonal_conformal", {"entries": ["1 + 0.3*(x1^2 + x2^2)", "exp(0.2*x1)"]}),
    # the off-diagonal entries vanish where x1 or x2 is 0
    "general-rows": lambda: metric_rows([["2 + x1^2", "0.3*x1*x2"], ["0.3*x2*x1", "1 + x2^2"]]),
    # not positive definite where x1 <= 0; a domain error where x2 <= 0
    "degenerate-rows": lambda: metric_rows([["x1", "0"], ["0", "1 + log(x2)^2"]], guard="x2 + 3"),
    "callable": _callable_chart,
}


def _with_tensor(fs, tensor):
    return dataclasses.replace(fs, tensor_F=tensor)


def _wave(h, u0, delta):
    st_ = GpwSpacetime(base=build_manifold("euclidean", {"n": 2}),
                       wave=build_wave("expression", {"H": h, "n": 2}),
                       nonzero_witness=(np.array([1.0, 1.0]), 0.5))
    return wave_force_system(st_, u0, delta)


FORCES = {
    "free": lambda: FREE,
    "zero": lambda: build_potential("zero", {}, 2),
    "harmonic": lambda: build_potential("harmonic", {"k": 1.7}, 2),
    "quartic": lambda: build_potential("negative_quartic", {"c": 0.8}, 2),
    "expression": lambda: expression_potential("0.5*x1^2 + x1*x2^3 + sin(t)*x2", 2),
    "constant-gradient": lambda: expression_potential("3*x1 - 0*x2", 2),
    "domain-error": lambda: expression_potential("x2*log(x1) + t", 2),
    "wave-quartic": lambda: _wave("0.7*(x1^2 + x2^2)^2", 0.3, -1.4),
    "wave-plane": lambda: _wave("cos(u)*x1^2 - u*x2^2 + 2*sin(u)*x1*x2", -0.2, 0.9),
    "wave-domain-error": lambda: _wave("u*sqrt(x1) + x2^2", 0.1, 1.2),
    "skew": lambda: _with_tensor(build_potential("zero", {}, 2),
                                 build_tensor("skew_rotation", {"omega": 0.6}, 2)),
    "time-scalar": lambda: _with_tensor(build_potential("harmonic", {"k": 0.4}, 2),
                                        build_tensor("time_scalar", {"expr": "cos(t)", "n": 2}, 2)),
    "tensor-in-x": lambda: _with_tensor(expression_potential("x1*x2", 2),
                                        expression_tensor([["sin(t)", "x1"], ["-x1", "log(x2)"]])),
    "tensor-callable": lambda: _with_tensor(FREE, lambda x, t: np.array([[0.0, t], [-t, x[0]]])),
}

coordinates = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 1.6, 1e-3]))
# signed zeros often, both at once too: a sum's zero takes its sign from the order of the terms
velocities = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]),
                       st.sampled_from([math.inf, -math.inf, math.nan, 1e200]))


def _outcome(call):
    """The bits of call()'s floats, or its exception: type, message, and a domain error's source and point.

    A NaN compares as NaN: which NaN a sum of two gives depends on the order
    in which the C code that adds puts them, and CPython's specializing
    interpreter runs a warm addition through other C code than a cold one,
    so not even one function gives the same NaN bits every time.
    """
    try:
        value = call()
    except EvaluationError as exc:
        return "EvaluationError", exc.source, exc.point, str(exc)
    except Exception as exc:   # OutOfChart, NotPositiveDefinite, a warning raised as an error
        return type(exc).__name__, str(exc)
    assert type(value) is list and all(type(v) is float for v in value)
    return b"".join(b"NaN" if v != v else struct.pack("d", v) for v in value)


@PROFILE
@given(chart=st.sampled_from(sorted(CHARTS)), force=st.sampled_from(sorted(FORCES)),
       x=st.lists(coordinates, min_size=2, max_size=2),
       v=st.lists(velocities, min_size=2, max_size=2), t=st.floats(-1.0, 1.0))
# F xd is 0.0 + (-0.0) + (-0.0) here, as sum() adds it: the sign of that zero shows
@example(chart="identity", force="skew", x=[0.3, 1.0], v=[-0.0, -0.0], t=0.0)
@example(chart="half-plane", force="skew", x=[0.3, 1.0], v=[-0.0, -0.0], t=0.0)
# the metric's check fails before the gradient's domain error is reached
@example(chart="degenerate-rows", force="domain-error", x=[-1.0, 0.5], v=[0.2, 0.1], t=0.0)
def test_the_kernel_is_the_list_force_equation_bit_for_bit(chart, force, x, v, t):
    manifold, fs = CHARTS[chart](), FORCES[force]()
    kernel = make_rhs(manifold, fs)
    assert _outcome(lambda: kernel(t, x + v)) == _outcome(lambda: reference_rhs(manifold, fs,
                                                                                (x, v, t)))


def test_the_cases_reach_every_outcome():
    # the strategy above meets values, guard exits, domain errors and
    # metrics that fail their check, on inlined and on callable sources
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(chart=st.sampled_from(sorted(CHARTS)), force=st.sampled_from(sorted(FORCES)),
           x=st.lists(coordinates, min_size=2, max_size=2),
           v=st.lists(velocities, min_size=2, max_size=2), t=st.floats(-1.0, 1.0))
    def collect(chart, force, x, v, t):
        outcome = _outcome(lambda: reference_rhs(CHARTS[chart](), FORCES[force](), (x, v, t)))
        seen.add("value" if type(outcome) is bytes else outcome[0])
        if type(outcome) is bytes and not all(map(math.isfinite, v)):
            seen.add("non-finite velocity")

    collect()
    assert seen >= {"value", "non-finite velocity", "OutOfChart", "EvaluationError",
                    "NotPositiveDefinite"}


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_the_generated_norm_is_the_list_norm_bit_for_bit(chart):
    manifold = CHARTS[chart]()
    norm = norm_function(manifold)
    rng = np.random.default_rng(4)
    points = rng.uniform(-2.0, 2.0, (60, 2)).tolist() + [[0.0, 1.0], [1.0, -0.0], [-0.5, -1.0]]
    for x in points:
        for w in ([0.3, -0.4], [math.inf, 0.0], [1e200, 1e200], [math.nan, 1.0]):
            def reference():
                return [reference_squared_norm(manifold, x, w)]

            assert _outcome(lambda: [norm(x + w)]) == _outcome(reference)


def test_a_force_system_keeps_the_kernel_of_its_last_manifold():
    manifold = build_manifold("hyperbolic_half_plane", {})
    fs = build_potential("harmonic", {"k": 1.0}, 2)
    kernel = make_rhs(manifold, fs)
    assert make_rhs(manifold, fs) is kernel
    assert make_rhs(manifold, FREE) is not kernel
    plane = build_manifold("euclidean", {"n": 2})
    make_rhs(plane, fs)
    assert fs.generated["rhs"][0] is plane
    # a force system built for one run takes its kernel with it
    assert make_rhs(manifold, _wave("0.7*(x1^2 + x2^2)^2", 0.3, -1.4)) is not None
    assert manifold.generated.keys() <= {"norm"}


def test_the_wave_gradient_keeps_the_partials_error():
    fs = _wave("u*sqrt(x1) + x2^2", 0.1, 1.2)
    kernel = make_rhs(build_manifold("euclidean", {"n": 2}), fs)
    with pytest.raises(EvaluationError) as info:
        kernel(0.5, [-1.0, 0.5, 0.0, 0.0])
    assert info.value.source == "d(u*sqrt(x1) + x2^2)/dx1"
    assert info.value.point == {"x1": -1.0, "x2": 0.5, "u": 0.1 + 1.2 * 0.5}


def test_runs_on_one_wave_share_one_kernel_text():
    codes = []
    code = expressions._code

    def recording(source):
        codes.append(code(source))
        return codes[-1]

    def kernel_codes():
        return [c for c in codes if "_y" in c.co_names
                or any("_y" in getattr(k, "co_varnames", ()) for k in c.co_consts)]

    manifold = build_manifold("euclidean", {"n": 2})
    st_ = GpwSpacetime(base=build_manifold("euclidean", {"n": 2}),
                       wave=build_wave("expression", {"H": "0.7*(x1^2 + x2^2)^2", "n": 2}),
                       nonzero_witness=(np.array([1.0, 1.0]), 0.5))
    runs = ((0.3, -1.4), (0.0, 2.0))
    try:
        expressions._code = recording
        # a kernel generated for each run's force system on another chart: the same text
        for u0, delta in runs:
            make_rhs(manifold, wave_force_system(st_, u0, delta))(0.1, [0.2, 0.3, 0.0, 1.0])
        generated = kernel_codes()
        assert len(generated) == 3 and generated[0] is generated[1] is generated[2]
        # on the spacetime's own base every run binds the one kernel generated for it
        codes.clear()
        bound = [make_rhs(st_.base, wave_force_system(st_, u0, delta)) for u0, delta in runs]
    finally:
        expressions._code = code
    assert kernel_codes() == []
    assert bound[0].__code__ is bound[1].__code__
    assert bound[0].__code__ in generated[0].co_consts


# ---------------------------------------------------------------- setup and memory

def _perfbench_workloads():
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def generated_sources(monkeypatch):
    """The sources of the functions generated from chart sources (kernels, norms, guards)."""
    sources = []
    function = expressions.Inliner.function

    def recording(self, source):
        sources.append(source)
        return function(self, source)

    monkeypatch.setattr(expressions.Inliner, "function", recording)
    return sources


def test_parsing_generates_no_kernel(generated_sources):
    from wavetraj.scenario import bundled_scenarios, load_scenario, parse_scenario
    for path in bundled_scenarios().values():
        load_scenario(path)
    for task in _perfbench_workloads().generate("gpw_certify", 7):
        parse_scenario(task.raw)
    assert generated_sources == []


@pytest.mark.parametrize("family", ["harmonic", "hyperbolic", "conformal", "blowup", "gpw-map",
                                    "gpw-geodesic"])
def test_a_second_run_emits_no_new_kernel_source(generated_sources, tmp_path, family):
    from wavetraj.runner import run_scenario
    from wavetraj.scenario import parse_scenario
    workload = "gpw_certify" if family.startswith("gpw") else "integrate"
    task = next(t for t in _perfbench_workloads().generate(workload, 7) if t.family == family)
    sc = parse_scenario(task.raw)
    run_scenario(sc, tmp_path / "first")
    assert generated_sources
    misses = expressions._code.cache_info().misses
    generated_sources.clear()
    run_scenario(sc, tmp_path / "second")
    assert expressions._code.cache_info().misses == misses
    # a wave's force system is built per run, but binds the kernel its spacetime keeps
    assert generated_sources == []
