"""The wave path's generated kernels, and the S-bound scan on an identity metric.

A spacetime generates two functions once each and keeps them: the oracle's
field, the full geodesic equation with its (n+2)x(n+2) solve written out as
Gaussian elimination with partial pivoting, and the base run's force-equation
kernel, which every run on the wave binds to its own u0 and delta.
full_acceleration, one np.linalg.solve against the full metric, stays the
reference the oracle's field is held to here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wavetraj import dynamics, gpw
from wavetraj.catalog import build_manifold, build_wave, metric_rows
from wavetraj.dynamics import ForceSystem, FREE, make_rhs, operator_eigen_range
from wavetraj.errors import EvaluationError
from wavetraj.expressions import with_array_form
from wavetraj.geometry import ChartManifold
from wavetraj.gpw import (GeodesicInitialData, GpwSpacetime, WaveCoefficient, full_acceleration,
                          full_geodesic_oracle, reduce_geodesic, wave_force_system)
from wavetraj.integrate import HORIZON_REACHED, IntegratorConfig
from wavetraj.runner import run_scenario
from wavetraj.scenario import parse_scenario

PROFILE = settings(max_examples=300, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])

BASES = {
    "euclidean": lambda: build_manifold("euclidean", {"n": 2}),
    "diagonal_conformal": lambda: build_manifold(
        "diagonal_conformal", {"entries": ["1 + 0.3*(x1^2 + x2^2)", "exp(0.2*x1)"]}),
    # the off-diagonal entries vanish where x1 or x2 is 0, so both branches of the check run
    "metric_rows": lambda: metric_rows([["2 + x1^2", "0.3*x1*x2"], ["0.3*x2*x1", "1 + x2^2"]]),
}

WAVES = {
    "plane": ("plane_wave", {"f1": "1 + 0.5*sin(u)", "f2": "cos(u)", "f": "0.3*u"}),
    "quartic": ("expression", {"H": "0.7*(x1^2 + x2^2)^2 - u", "n": 2}),
    "domain-error": ("expression", {"H": "u*sqrt(x1) + x2^2", "n": 2}),
}

#: the oracle's field against full_acceleration: the two eliminations order
#: their roundings differently, and G's condition number, at most about
#: max(1, |H|)^2 times that of g0 here, scales each rounding
ORACLE_RTOL = 1e-10


def _spacetime(base, wave):
    name, params = WAVES[wave]
    return GpwSpacetime(base=BASES[base](), wave=build_wave(name, params),
                        nonzero_witness=(np.array([1.0, 1.0]), 0.5))


def _outcome(call):
    """call()'s list of floats, or its exception: type, message, and a domain error's source and point."""
    try:
        value = call()
    except EvaluationError as exc:
        return "EvaluationError", exc.source, exc.point, str(exc)
    except Exception as exc:   # OutOfChart, NotPositiveDefinite
        return type(exc).__name__, str(exc)
    assert type(value) is list
    return [float(v) for v in value]


coordinates = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
velocities = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0]),
                       st.sampled_from([math.inf, -math.inf, math.nan]))


@PROFILE
@given(base=st.sampled_from(sorted(BASES)), wave=st.sampled_from(sorted(WAVES)),
       q=st.lists(coordinates, min_size=4, max_size=4),
       qd=st.lists(velocities, min_size=4, max_size=4))
@example(base="metric_rows", wave="plane", q=[0.0, 1.0, 0.3, 0.0], qd=[0.5, -0.2, 0.8, 0.1])
@example(base="euclidean", wave="domain-error", q=[-1.0, 0.5, 0.2, 0.0], qd=[0.1, 0.1, 1.0, 0.0])
def test_the_oracle_field_is_full_acceleration_within_rounding(base, wave, q, qd):
    st_ = _spacetime(base, wave)
    field = gpw._oracle_field(st_)
    got = _outcome(lambda: field(0.0, q + qd))
    want = _outcome(lambda: qd + full_acceleration(st_, np.array(q), np.array(qd)).tolist())
    if type(want) is tuple:
        assert got == want
        return
    assert type(got) is list and got[:4] == qd
    got, want = np.array(got[4:]), np.array(want[4:])
    # NaN wherever the reference gives NaN; an infinite entry is not finite here either
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    scale = max(1.0, float(np.abs(want[finite]).max(initial=0.0)))
    assert np.abs(got[finite] - want[finite]).max(initial=0.0) <= ORACLE_RTOL * scale


def _callable_wave(h):
    """A wave whose sources are plain callables, H = h(x, u), with zero partials."""
    return WaveCoefficient(h=h, h_dx=lambda x, u: [0.0, 0.0], h_du=lambda x, u: 0.0)


@pytest.mark.parametrize("base", sorted(BASES))
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_non_finite_h_gives_a_non_finite_stage_not_a_zero_division(base, value):
    # an infinite H is a zero pivot: the stage is all NaN, which the attempt rejects
    st_ = GpwSpacetime(base=BASES[base](), nonzero_witness=(np.array([1.0, 1.0]), 0.5),
                       wave=_callable_wave(lambda x, u: 1.0 if u == 0.5 else value))
    field = gpw._oracle_field(st_)
    y = [0.3, 0.4, 0.2, 0.0, 0.1, -0.2, 1.0, 0.3]
    out = field(0.0, y)
    assert out[:4] == y[4:]
    assert all(math.isnan(a) for a in out[4:])


def _wave_in(number):
    """H = inf where x1 > 0.5, else x1^2 + u x2, with its partials there, each value number(...)."""
    return WaveCoefficient(h=lambda x, u: number(math.inf if x[0] > 0.5 else x[0] * x[0] + u * x[1]),
                           h_dx=lambda x, u: [number(2.0 * x[0]), number(u)],
                           h_du=lambda x, u: number(x[1]))


@pytest.mark.parametrize("base", sorted(BASES))
def test_numpy_scalar_sources_give_the_python_float_values(base):
    # the field takes every called value in Python floats, so a numpy scalar
    # H = inf is the same zero pivot, NaN with no RuntimeWarning
    witness = (np.array([0.2, 1.0]), 0.5)
    fields = [gpw._oracle_field(GpwSpacetime(base=BASES[base](), nonzero_witness=witness,
                                             wave=_wave_in(number)))
              for number in (float, np.float64)]
    rng = np.random.default_rng(2)
    states = [[1.0, 0.0, 0.0, 0.0, 0.1, 0.0, 1.0, 0.0]]
    states += np.column_stack([rng.uniform(-0.5, 0.5, (20, 2)),
                               rng.uniform(-1.0, 1.0, (20, 6))]).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        python, numpy = ([[v.hex() for v in field(0.0, y)] for y in states] for field in fields)
    assert numpy == python
    assert all(math.isnan(float.fromhex(v)) for v in python[0][4:])
    assert all(type(v) is float for y in states for v in fields[1](0.0, y))


def test_an_expression_h_that_overflows_rejects_the_step():
    # H = 1e300 x1^2 overflows to inf at x1 = 1e5 without an EvaluationError
    st_ = _spacetime("euclidean", "plane")
    st_ = GpwSpacetime(base=st_.base, nonzero_witness=(np.array([1.0, 1.0]), 0.5),
                       wave=build_wave("expression", {"H": "1e300*x1*x1 + u", "n": 2}))
    out = gpw._oracle_field(st_)(0.0, [1e5, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert all(math.isnan(a) for a in out[4:])


@pytest.mark.parametrize("base", sorted(BASES))
def test_an_oracle_run_makes_no_lapack_solve(base, monkeypatch):
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    st_ = _spacetime(base, "plane")
    init = GeodesicInitialData(x0=np.array([0.4, 0.7]), xdot0=np.array([0.3, -0.1]),
                               u0=0.1, udot0=0.8, v0=0.0, vdot0=0.2)
    traj = full_geodesic_oracle(st_, init, IntegratorConfig(horizon=1.0))
    assert traj.outcome.kind == HORIZON_REACHED and traj.stats.n_rhs > 0
    assert solves == []


@pytest.fixture
def builds(monkeypatch):
    """Counts of the oracle fields and force-equation kernels generated."""
    counts = {"oracle": 0, "kernel": 0}
    oracle_field, kernel = gpw._oracle_field, dynamics._kernel

    def counted_oracle(st_):
        counts["oracle"] += 1
        return oracle_field(st_)

    def counted_kernel(manifold, fs):
        counts["kernel"] += 1
        return kernel(manifold, fs)

    monkeypatch.setattr(gpw, "_oracle_field", counted_oracle)
    monkeypatch.setattr(dynamics, "_kernel", counted_kernel)
    return counts


@pytest.mark.parametrize("base", sorted(BASES))
def test_two_runs_on_one_spacetime_build_one_oracle_field_and_one_base_kernel(base, builds):
    st_ = _spacetime(base, "plane")
    cfg = IntegratorConfig(horizon=1.0)
    for u0, delta in ((0.1, 0.8), (-0.3, -1.2)):
        init = GeodesicInitialData(x0=np.array([0.4, 0.7]), xdot0=np.array([0.3, -0.1]),
                                   u0=u0, udot0=delta, v0=0.0, vdot0=0.2)
        reduce_geodesic(st_, init, cfg)
        full_geodesic_oracle(st_, init, cfg)
    assert builds == {"oracle": 1, "kernel": 1}


def _map_task(deltas):
    return {"name": "map", "task": "gpw-map", "manifold": {"catalog": "euclidean", "params": {"n": 2}},
            "gpw": {"wave": {"catalog": "expression", "params": {"H": "1.2*(x1^2 + x2^2)^2", "n": 2}},
                    "witness": {"x": [1.0, 0.0], "u": 0.0}},
            "map": {"x0_grid": {"min": [0.9, 0.1], "max": [1.4, 0.5], "shape": [2, 2]},
                    "xdot0": [0.0, 0.0], "deltas": deltas},
            "integrator": {"horizon": 3.0}}


def test_a_gpw_map_task_builds_one_base_kernel(builds, tmp_path):
    sc = parse_scenario(_map_task([0.9, 1.1]))
    assert builds == {"oracle": 0, "kernel": 0}
    run_scenario(sc, tmp_path / "first")
    assert builds == {"oracle": 0, "kernel": 1}
    run_scenario(sc, tmp_path / "second")
    assert builds == {"oracle": 0, "kernel": 1}


def test_a_gpw_map_task_run_again_after_another_generates_no_kernel(builds, tmp_path):
    # the delta = 0 runs take a free force system kept on their spacetime,
    # whose kernel stays on its base while another task runs
    first, second = (parse_scenario(_map_task([0.0, 1.1])) for _ in range(2))
    run_scenario(first, tmp_path / "first")
    run_scenario(second, tmp_path / "second")
    assert builds == {"oracle": 0, "kernel": 4}
    run_scenario(first, tmp_path / "again")
    assert builds == {"oracle": 0, "kernel": 4}
    assert first.spacetime.generated["free"] is not FREE


@pytest.mark.parametrize("base", ["euclidean", "metric_rows"])
@pytest.mark.parametrize("wave", sorted(WAVES))
def test_a_bound_base_kernel_is_the_kernel_generated_for_its_run(base, wave):
    # each run's kernel is the spacetime's one kernel over the run's values,
    # the partial's domain error included; a kernel generated for the run's
    # own force system is the reference
    st_ = _spacetime(base, wave)
    rng = np.random.default_rng(5)
    for u0, delta in ((0.3, -1.4), (-0.2, 0.9), (0.1, 1.2)):
        fs = wave_force_system(st_, u0, delta)
        bound = make_rhs(st_.base, fs)
        fresh = dynamics._kernel(st_.base, fs)
        assert bound.__code__ is fresh.__code__ and bound is not fresh
        for y in rng.uniform(-1.5, 1.5, (40, 4)).tolist() + [[-1.0, 0.5, 0.0, 0.0]]:
            t = float(rng.uniform(-1.0, 1.0))
            assert _outcome(lambda: bound(t, y)) == _outcome(lambda: fresh(t, y))


def test_a_bound_base_kernel_names_the_partial_that_fails():
    st_ = _spacetime("euclidean", "domain-error")
    kernel = make_rhs(st_.base, wave_force_system(st_, 0.1, 1.2))
    with pytest.raises(EvaluationError) as info:
        kernel(0.5, [-1.0, 0.5, 0.0, 0.0])
    assert info.value.source == "d(u*sqrt(x1) + x2^2)/dx1"
    assert info.value.point == {"x1": -1.0, "x2": 0.5, "u": 0.1 + 1.2 * 0.5}


# ---------------------------------------------------------------- the S-bound scan

def _stack_force(stack):
    """A force system whose tensor's array form gives stack at every call."""
    def scalar(x, t):
        raise AssertionError("the array form serves a finite stack")

    return ForceSystem(potential=FREE.potential, potential_dx=FREE.potential_dx,
                       potential_dt=FREE.potential_dt,
                       tensor_F=with_array_form(scalar, lambda x, t: stack))


def _pencil(g, fmat):
    """The pencil's eigenvalues as the scan takes them on any metric but the identity."""
    a = 0.5 * (g @ fmat + np.swapaxes(fmat, -1, -2) @ g)
    low = np.linalg.cholesky(g)
    w = np.linalg.eigvalsh(np.linalg.solve(low, np.swapaxes(np.linalg.solve(low, a), -1, -2)))
    return w[..., 0], w[..., -1]


entries = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 1.0, 1e-300]))


@PROFILE
@given(st.integers(1, 6).flatmap(
    lambda k: st.lists(st.lists(entries, min_size=4, max_size=4), min_size=k, max_size=k)))
def test_the_identity_metric_skips_the_pencil_bit_for_bit(rows):
    stack = np.array(rows).reshape(-1, 2, 2)
    points = np.zeros((len(stack), 2))
    manifold = BASES["euclidean"]()
    lo, hi = operator_eigen_range(manifold, _stack_force(stack), points, 0.3)
    ref_lo, ref_hi = _pencil(np.broadcast_to(np.eye(2), stack.shape), stack)
    assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()


def test_a_constant_metric_other_than_the_identity_still_factors(monkeypatch):
    factored = []
    cholesky = np.linalg.cholesky

    def counted(g):
        factored.append(np.shape(g))
        return cholesky(g)

    manifold = ChartManifold(dim=2, metric=np.array([[2.0, 0.3], [0.3, 1.0]]))
    euclidean = BASES["euclidean"]()
    stack = np.array([[[0.5, 1.0], [-2.0, 0.25]], [[0.0, 3.0], [1.0, -1.0]]])
    monkeypatch.setattr(np.linalg, "cholesky", counted)
    lo, hi = operator_eigen_range(manifold, _stack_force(stack), np.zeros((2, 2)), 0.0)
    assert factored == [(2, 2, 2)]
    ref_lo, ref_hi = _pencil(np.broadcast_to(manifold.metric, stack.shape), stack)
    assert lo.tobytes() == ref_lo.tobytes() and hi.tobytes() == ref_hi.tobytes()
    # the identity takes no factor at all
    factored.clear()
    operator_eigen_range(euclidean, _stack_force(stack), np.zeros((2, 2)), 0.0)
    assert factored == []


@pytest.mark.parametrize("flat", [True, False])
@pytest.mark.parametrize("n", [1, 3])
def test_the_oracle_field_on_other_dimensions(n, flat):
    # one unpacked metric entry, and a solve larger than 4 x 4
    base = (build_manifold("euclidean", {"n": n}) if flat else build_manifold(
        "diagonal_conformal", {"entries": [f"1 + 0.1*x{i + 1}^2" for i in range(n)]}))
    h = " + ".join(f"{0.3 * (i + 1)}*x{i + 1}^2" for i in range(n)) + " + sin(u)*x1"
    st_ = GpwSpacetime(base=base, wave=build_wave("expression", {"H": h, "n": n}),
                       nonzero_witness=(np.ones(n), 0.5))
    field = gpw._oracle_field(st_)
    rng = np.random.default_rng(n)
    for q, qd in zip(rng.uniform(-2.0, 2.0, (30, n + 2)), rng.uniform(-2.0, 2.0, (30, n + 2))):
        want = full_acceleration(st_, q, qd)
        got = np.array(field(0.0, q.tolist() + qd.tolist())[n + 2:])
        assert np.abs(got - want).max() <= ORACLE_RTOL * max(1.0, float(np.abs(want).max()))
