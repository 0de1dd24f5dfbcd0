"""The integrator's hot path gives the floats of its plain-numpy form.

A reference DP5 attempt written with the plain operations (np.all over
np.isfinite, np.sqrt of np.mean) is the oracle for the stepper's attempt, and
the general Cholesky check and np.linalg.solve are the oracles for the
elementwise treatment of diagonal metrics. Step counts on the rejection and
chart-exit paths are pinned to the values the plain form gave.
"""

import math
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wavetraj
from wavetraj import dynamics
from wavetraj.catalog import build_manifold, build_potential
from wavetraj.dynamics import solve_metric
from wavetraj.errors import EvaluationError, NotPositiveDefinite, OutOfChart
from wavetraj.expressions import parse_expression
from wavetraj.geometry import ChartManifold, _checked_metric, metric_at
from wavetraj.integrate import (_A, _B, _C, _E, BACKWARD, BLOW_UP_SUSPECTED, CHART_EXIT, FORWARD,
                                IntegratorConfig, _Core, _internal_problem, _rms_norm, integrate,
                                integrate_ode, refine_blowup)
from wavetraj.scenario import parse_scenario

PROFILE = settings(max_examples=300, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])
DBL_MAX = float(np.finfo(float).max)


def test_import_loads_neither_scipy_linalg_nor_scipy_integrate():
    # scipy.linalg serves the operator eigen range and scipy.integrate the
    # v-quadrature of a split geodesic; importing the package and running a
    # trajectory loads neither
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import wavetraj\n"
        "from wavetraj.catalog import build_manifold, build_potential\n"
        "from wavetraj.integrate import IntegratorConfig, integrate\n"
        "integrate(build_manifold('hyperbolic_half_plane', {}), build_potential('harmonic', {}),\n"
        "          (np.array([0.1, 1.0]), np.array([0.3, 0.2])), IntegratorConfig(horizon=1.0))\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.integrate') if m in sys.modules))\n"
    )
    src = str(pathlib.Path(wavetraj.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""}, check=True)
    assert out.stdout.strip() == "[]"


# ---------------------------------------------------------------- diagonal metrics

def _cholesky_checked(g, dim, x):
    """The general check: finite entries, symmetry, then Cholesky on the average."""
    g = np.asarray(g, dtype=float)
    largest = float(np.abs(g).max())
    if not np.isfinite(largest):
        raise NotPositiveDefinite(x, problem="finite")
    if np.abs(g - g.T).max() > 1e-12 * max(1.0, largest):
        raise ValueError("metric not symmetric")
    g = 0.5 * (g + g.T)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(x, float(np.linalg.eigvalsh(g)[0])) from None
    return g


def _check_outcome(check, g):
    """The checked matrix's bytes, or the type and message of the error; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = check(g, len(g), np.array([0.5, 1.5])).tobytes()
        except (NotPositiveDefinite, ValueError) as exc:
            outcome = type(exc).__name__, str(exc)
    return outcome, {str(w.message) for w in caught}


SPECIAL_ENTRIES = [0.0, -0.0, -1.0, -5e-324, 5e-324, 2.2250738585072014e-308, 1.0,
                   DBL_MAX / 2, math.nextafter(DBL_MAX / 2, math.inf), 1e308, DBL_MAX,
                   math.nan, math.inf, -math.inf]
entries = st.one_of(st.sampled_from(SPECIAL_ENTRIES),
                    st.floats(allow_nan=True, allow_infinity=True),
                    st.floats(1e-3, 1e3))


@st.composite
def diagonals(draw):
    """An n x n diagonal matrix, its off-diagonal zeros of either sign."""
    n = draw(st.integers(1, 3))
    g = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n * n, max_size=n * n)))
    g = g.reshape(n, n)
    g[np.diag_indices(n)] = draw(st.lists(entries, min_size=n, max_size=n))
    return g


@PROFILE
@given(diagonals())
def test_diagonal_metric_is_checked_as_cholesky_would(g):
    assert _check_outcome(_checked_metric, g) == _check_outcome(_cholesky_checked, g)


def test_general_metrics_still_take_the_cholesky_path():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        a = rng.normal(size=(n, n))
        g = a @ a.T + rng.choice([0.0, 0.1, 1.0]) * np.eye(n)
        g[0, 1] += 1e-15   # asymmetric within the tolerance
        assert _check_outcome(_checked_metric, g) == _check_outcome(_cholesky_checked, g)
    g = np.array([[1.0, math.nan], [math.nan, 1.0]])
    assert _check_outcome(_checked_metric, g) == (("NotPositiveDefinite",
                                                   "metric not finite at [0.5 1.5]"), set())


# A finite v / d equals np.linalg.solve(diag(d), v) because the LAPACK build
# numpy uses here factors a diagonal matrix into itself and divides in its
# triangular solve; no standard promises that. These tests are there to catch
# a build that breaks it (a product with 1/d, say, rounds differently).

positive = st.one_of(st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, DBL_MAX / 2, DBL_MAX]),
                     st.floats(5e-324, DBL_MAX), st.floats(1e-3, 1e3))
rhs_values = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e3, 1e3))


@st.composite
def diagonal_systems(draw):
    n = draw(st.integers(1, 3))
    d = np.array(draw(st.lists(positive, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(rhs_values, min_size=n, max_size=n)))
    return d, v


@PROFILE
@given(diagonal_systems())
def test_quotient_equals_the_lapack_solve(system):
    d, v = system
    g = np.diag(d)
    reference = np.linalg.solve(g, v)
    with np.errstate(over="ignore"):
        quotient = v / d
    if np.isfinite(quotient).all():
        assert quotient.tobytes() == reference.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solve_metric(g, v).tobytes() == reference.tobytes()


def test_quotient_equals_the_lapack_solve_on_random_systems():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        d = np.exp(rng.uniform(-30.0, 30.0, size=(4000, n)))
        v = rng.normal(size=(4000, n)) * np.exp(rng.uniform(-30.0, 30.0, size=(4000, n)))
        for di, vi in zip(d, v):
            assert (vi / di).tobytes() == np.linalg.solve(np.diag(di), vi).tobytes()


def test_non_finite_right_hand_sides_are_solved_by_lapack():
    # LAPACK spreads a NaN over the components, the quotients would not
    g = np.diag([1.0, 2.0])
    for v in ([math.inf, 1.0], [1.0, math.nan], [-math.inf, math.inf]):
        v = np.array(v)
        assert solve_metric(g, v).tobytes() == np.linalg.solve(g, v).tobytes()
    # an overflowing quotient: the solve gives NaN for the 0 next to it
    g, v = np.diag([5e-324, 5e-324]), np.array([0.0, 1.0])
    assert solve_metric(g, v).tobytes() == np.linalg.solve(g, v).tobytes()
    general = np.array([[2.0, 0.5], [0.5, 1.0]])
    v = np.array([0.3, -0.7])
    assert solve_metric(general, v).tobytes() == np.linalg.solve(general, v).tobytes()


# ---------------------------------------------------------------- the DP5 attempt

def _reference_attempt(f, cfg, guard_ok, t, y, h, k1):
    """One DP5 attempt in plain numpy operations: (y_new, k at y_new, error norm)."""
    kmat = np.empty((y.size, 7))
    kmat[:, 0] = k1
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, 7):
            yi = y + h * (kmat[:, :i] @ _A[i])
            if not np.all(np.isfinite(yi)):
                return y, k1, np.inf
            k_last = f(t + _C[i] * h, yi)
            kmat[:, i] = k_last
        y_new = y + h * (kmat @ _B)
        err_vec = h * (kmat @ _E)
        scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean(np.square(err_vec / scale))))
    if not guard_ok(y_new):
        raise OutOfChart(y_new)
    return y_new, k_last, err


def _attempt_outcome(attempt):
    try:
        y_new, k, err = attempt()
    except OutOfChart:
        return "OutOfChart"
    return y_new.tobytes(), np.asarray(k).tobytes(), repr(err)


def _conformal_system():
    sc = parse_scenario({
        "name": "c", "task": "integrate",
        "manifold": {"catalog": "diagonal_conformal",
                     "params": {"entries": ["1 + 0.3*(x1^2 + x2^2)", "1 + 0.3*(x1^2 + x2^2)"]}},
        "force": {"potential": {"expr": "0.7*(x1^2 + x2^2)"},
                  "tensor": {"catalog": "skew_rotation", "params": {"omega": 0.5}}},
        "integrator": {"horizon": 1.0},
        "initial": {"position": [0.3, -0.4], "velocity": [0.5, 0.2]}})
    return sc.manifold, sc.force, sc.initial


PROBLEMS = {
    "flat": lambda: (build_manifold("euclidean", {"n": 2}), build_potential("harmonic", {"k": 2.0}),
                     (np.array([0.4, -0.2]), np.array([0.3, 0.9]))),
    "hyperbolic": lambda: (build_manifold("hyperbolic_half_plane", {}), build_potential("zero", {}),
                           (np.array([0.1, 1.2]), np.array([0.6, -0.4]))),
    "conformal": _conformal_system,
}


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_attempt_equals_the_plain_reference(problem, direction):
    manifold, fs, (p, v) = PROBLEMS[problem]()
    cfg = IntegratorConfig(horizon=2.0)
    f, speed_of, guard_ok = _internal_problem(manifold, fs, direction)
    y0 = np.concatenate([p, v if direction == FORWARD else -v])
    run = integrate_ode(f, y0, cfg, speed_of=speed_of, guard_ok=guard_ok, dim=manifold.dim)
    # the run's records in internal time, as the stepper saw them
    states = run.states.copy()
    if direction == BACKWARD:
        states[:, manifold.dim:] *= -1.0
    times = np.abs(run.times)
    compared = 0
    for t, y in list(zip(times, states))[::3]:
        core = _Core(f, y, cfg, speed_of, guard_ok, t)
        k1 = f(t, y)
        for h in (1e-4, 0.03, 0.4, 3.0):
            with np.errstate(over="ignore", invalid="ignore"):
                lean = _attempt_outcome(lambda: core._attempt(t, y, h, k1))
            plain = _attempt_outcome(lambda: _reference_attempt(f, cfg, guard_ok, t, y, h, k1))
            assert lean == plain, (problem, direction, t, h)
            compared += 1
    assert compared >= 40


def test_finite_stages_whose_sum_overflows_are_evaluated():
    # the entries sum to inf, yet each is finite, so every stage is evaluated
    calls = []

    def f(t, y):
        calls.append(1)
        return np.array([0.0, -1.0])

    y = np.array([1.5e308, 1.5e308])
    cfg = IntegratorConfig(horizon=1.0)
    core = _Core(f, y, cfg, lambda y: 0.0, lambda y: True, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        lean = _attempt_outcome(lambda: core._attempt(0.0, y, 0.5, f(0.0, y)))
    assert core.n_rhs == len(calls) - 1 == 6
    plain = _attempt_outcome(lambda: _reference_attempt(f, cfg, lambda y: True, 0.0, y, 0.5,
                                                        f(0.0, y)))
    assert lean == plain


def test_rms_norm_equals_sqrt_of_mean():
    rng = np.random.default_rng(5)
    for _ in range(20000):
        v = rng.normal(size=int(rng.integers(2, 13))) * 10.0 ** rng.uniform(-200, 150)
        assert _rms_norm(v) == float(np.sqrt(np.mean(np.square(v))))


def test_non_finite_stages_keep_their_counts():
    # a stage past x = 0.5 has an infinite derivative, so the steps reaching
    # it are rejected until the step collapses
    def f(t, y):
        return np.array([y[1], np.inf if y[0] > 0.5 else 1.0])

    traj = integrate_ode(f, [0.0, 0.1], IntegratorConfig(horizon=3.0))
    assert traj.outcome.kind == BLOW_UP_SUSPECTED
    assert traj.outcome.t_star_estimate == 0.9049875621120317
    assert (traj.stats.n_accepted, traj.stats.n_rejected, traj.stats.n_rhs) == (30, 54, 287)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_chart_exit_keeps_its_counts(direction):
    m = ChartManifold(dim=2, metric=np.eye(2), domain_guard=lambda x: x[0] < 1.0)
    v = np.array([1.0 if direction == FORWARD else -1.0, 0.5])
    traj = integrate(m, build_potential("zero", {}), (np.zeros(2), v),
                     IntegratorConfig(horizon=3.0), direction)
    assert traj.outcome.kind == CHART_EXIT
    assert abs(traj.outcome.t_exit) == 0.9999999999999991
    assert (traj.stats.n_accepted, traj.stats.n_rejected, traj.stats.n_rhs) == (21, 0, 303)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_rhs_is_called_once_per_counted_evaluation(monkeypatch, problem, direction):
    manifold, fs, init = PROBLEMS[problem]()
    calls = []
    rhs = dynamics.rhs_E

    def counted(*args):
        calls.append(1)
        return rhs(*args)

    monkeypatch.setattr(dynamics, "rhs_E", counted)
    traj = integrate(manifold, fs, init, IntegratorConfig(horizon=2.0), direction)
    assert len(calls) == traj.stats.n_rhs > 0


def test_rhs_calls_of_a_refined_blowup_are_counted(monkeypatch):
    manifold, fs = build_manifold("euclidean", {"n": 1}), build_potential("negative_quartic", {})
    cfg = IntegratorConfig(horizon=2.0)
    coarse = integrate(manifold, fs, (np.array([1.0]), np.array([1.0])), cfg)
    calls = []
    rhs = dynamics.rhs_E
    monkeypatch.setattr(dynamics, "rhs_E", lambda *args: calls.append(1) or rhs(*args))
    bracket = refine_blowup(manifold, fs, cfg, coarse)
    assert len(calls) == bracket.n_rhs > 0


# ---------------------------------------------------------------- fused metric sources

def test_diagonal_conformal_sources_equal_their_entries_called_in_turn():
    entries = ["1 + 0.1*x1^2 + 0.2*x2^2", "2 + sin(x1)*x2^3"]
    m = build_manifold("diagonal_conformal", {"entries": entries})
    fns = [parse_expression(e, ("x1", "x2")) for e in entries]
    rng = np.random.default_rng(2)
    for x in rng.uniform(-2.0, 2.0, size=(50, 2)):
        assert m.metric(x).tobytes() == np.diag([fn(*x) for fn in fns]).tobytes()
        dg = np.zeros((2, 2, 2))
        for i, name in enumerate(("x1", "x2")):
            for k, fn in enumerate(fns):
                dg[i, k, k] = fn.derivative(name)(*x)
        assert m.metric_dx(x).tobytes() == dg.tobytes()


def test_a_failing_metric_entry_is_named_as_before():
    m = build_manifold("diagonal_conformal", {"entries": ["1 + x1^2", "log(x2)", "log(x1)"]})
    with pytest.raises(EvaluationError) as info:
        metric_at(m, np.array([-1.0, -2.0, 1.0]))
    assert info.value.source == "log(x2)"
    assert info.value.point == {"x1": -1.0, "x2": -2.0, "x3": 1.0}
    sc = parse_scenario({"name": "rows", "task": "integrate",
                         "manifold": {"metric": [["1 + x1^2", "0"], ["0", "log(x1 + x2)"]]},
                         "integrator": {"horizon": 1.0},
                         "initial": {"position": [0.0, 0.5], "velocity": [0.0, 0.0]}})
    with pytest.raises(EvaluationError) as info:
        metric_at(sc.manifold, np.array([-1.0, 0.5]))
    assert info.value.source == "log(x1 + x2)"
    assert info.value.point == {"x1": -1.0, "x2": 0.5}
