"""The integrator's Python-float hot path against its plain-numpy form.

A reference DP5 attempt written with the plain numpy operations (the stage
sums as BLAS products kmat[:, :i] @ A_i, np.sqrt of np.mean) and the numpy
formula of the force equation are the oracles for the stepper's attempt and
for rhs_E. Neither is bit for bit: a sum written out term by term rounds
differently from gemv, which may fuse multiply-adds. Each comparison holds
within the a-priori rounding bound of an m-term sum, |computed - exact| <=
gamma_m * sum |terms| with gamma_m = m u / (1 - m u) and u = 2^-53 (Higham,
Accuracy and Stability of Numerical Algorithms, §3.1), taken twice because
both sides round. The general Cholesky check and np.linalg.solve are the
oracles for the float treatment of diagonal metrics. Step counts on the
rejection and chart-exit paths are pinned.
"""

import functools
import importlib
import math
import warnings
from operator import mul

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from wavetraj import dynamics
from wavetraj.catalog import (build_manifold, build_potential, build_tensor, expression_potential,
                              expression_tensor, metric_rows)
from wavetraj.dynamics import rhs_E
from wavetraj.errors import EvaluationError, InvalidInit, NotPositiveDefinite, OutOfChart
from wavetraj.expressions import Inliner, function_text, parse_expression
from wavetraj.geometry import ChartManifold, _checked_metrics, metric_at, metric_lines
from wavetraj.integrate import (BACKWARD, BLOW_UP_SUSPECTED, CHART_EXIT, FORWARD,
                                IntegratorConfig, _Core, _problem, _rms, integrate,
                                integrate_ode, refine_blowup)
from wavetraj.numdiff import christoffel_lower
from wavetraj.scenario import parse_scenario

# wavetraj.integrate is the re-exported function; make_rhs is bound in the module
integrate_module = importlib.import_module("wavetraj.integrate")

PROFILE = settings(max_examples=300, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])
DBL_MAX = float(np.finfo(float).max)
UNIT_ROUNDOFF = 2.0 ** -53


def gamma(m):
    """Higham's gamma_m, the relative rounding bound of an m-term sum or product."""
    return m * UNIT_ROUNDOFF / (1.0 - m * UNIT_ROUNDOFF)


# ---------------------------------------------------------------- diagonal metrics

def _cholesky_checked(g, dim, x):
    """The general check: finite entries, symmetry, a finite average, then Cholesky on it."""
    g = np.asarray(g, dtype=float)
    largest = float(np.abs(g).max())
    if not np.isfinite(largest):
        raise NotPositiveDefinite(x, problem="finite")
    with np.errstate(over="ignore"):
        if np.abs(g - g.T).max() > 1e-12 * max(1.0, largest):
            raise NotPositiveDefinite(x, problem="symmetric")
        g = 0.5 * (g + g.T)
    if not np.isfinite(g).all():
        raise NotPositiveDefinite(x, problem="finite")
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


def _outcome(fn):
    """fn()'s value, or the type and message of its error; and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn()
        except (NotPositiveDefinite, ValueError) as exc:
            value = type(exc).__name__, str(exc)
    return value, {str(w.message) for w in caught}


@functools.cache
def _diagonal_check(n, negative_zeros):
    """metric_lines' check of the chart diag(x1, .., xn) as a function of the state, giving
    (_G, the diagonal's values); the off-diagonal zeros at negative_zeros are -0."""
    rows = [[f"x{j + 1}" if j == k else "-0" if (j, k) in negative_zeros else "0"
             for k in range(n)] for j in range(n)]
    manifold = metric_rows(rows)
    inliner = Inliner(n)
    lines, diagonal = metric_lines(manifold, inliner, inliner.add(manifold.metric, ("x",), (n, n)))
    return inliner.function(function_text("_y", n, lines + [f"return _G, [{', '.join(diagonal)}]"]))


@PROFILE
@given(diagonals())
def test_diagonal_metric_is_checked_as_cholesky_would(g):
    # the generated check takes a diagonal value elementwise in floats; the
    # chart point is the diagonal, so the chart's metric at it is g
    n = len(g)
    x = g.diagonal()
    negative_zeros = frozenset((j, k) for j in range(n) for k in range(n)
                               if j != k and math.copysign(1.0, g[j, k]) < 0.0)
    value, warned = _outcome(lambda: _diagonal_check(n, negative_zeros)(x.tolist() + [0.0] * n))
    checked, checked_warned = _outcome(lambda: _cholesky_checked(g, n, x))
    assert warned == checked_warned
    if isinstance(checked, tuple):
        # not a positive finite diagonal, and not a checked matrix either: its error
        assert value == checked
        return
    matrix, diagonal = value
    if matrix is not None:
        # not a positive finite diagonal: the checked matrix
        assert matrix.tobytes() == checked.tobytes()
        return
    # a diagonal in floats: exactly the checked matrix's diagonal, and that matrix is diagonal
    assert all(type(d) is float for d in diagonal)
    assert np.array(diagonal).tobytes() == checked.diagonal().tobytes()
    assert np.count_nonzero(checked) == np.count_nonzero(checked.diagonal()) == n


def _checked_one(g, dim, x):
    """_checked_metrics' matrix of g at x, as a stack of one."""
    return _checked_metrics([g], dim, [x])[0][0]


def test_general_metrics_still_take_the_cholesky_path():
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        a = rng.normal(size=(n, n))
        g = a @ a.T + rng.choice([0.0, 0.1, 1.0]) * np.eye(n)
        g[0, 1] += 1e-15   # asymmetric within the tolerance
        assert _check_outcome(_checked_one, g) == _check_outcome(_cholesky_checked, g)
    g = np.array([[1.0, math.nan], [math.nan, 1.0]])
    assert _check_outcome(_checked_one, g) == (("NotPositiveDefinite",
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
# LAPACK gives [-0.0, 0.0] here: a zero quotient may differ from it in its sign
@example((np.array([1.0, 1.0]), np.array([-0.0, -0.0])))
@example((np.array([5e-324, 5e-324]), np.array([-0.0, -0.0])))
def test_quotient_equals_the_lapack_solve(system):
    d, v = system
    reference = np.linalg.solve(np.diag(d), v)
    quotients = np.array([a / b for a, b in zip(v.tolist(), d.tolist())])
    if np.isfinite(quotients).all():
        nonzero = reference != 0.0
        assert quotients[nonzero].tobytes() == reference[nonzero].tobytes()
        assert np.array_equal(quotients[~nonzero], reference[~nonzero])


def test_quotient_equals_the_lapack_solve_on_random_systems():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        d = np.exp(rng.uniform(-30.0, 30.0, size=(4000, n)))
        v = rng.normal(size=(4000, n)) * np.exp(rng.uniform(-30.0, 30.0, size=(4000, n)))
        for di, vi in zip(d, v):
            assert (vi / di).tobytes() == np.linalg.solve(np.diag(di), vi).tobytes()


# ---------------------------------------------------------------- the DP5 attempt

# the Dormand-Prince 5(4) tableau as numpy arrays, the reference's own copy
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _recorded(f):
    """f, and the list of (t, y, k) it appends each call to."""
    calls = []

    def field(t, y):
        k = f(t, y)
        calls.append((t, list(y), np.asarray(k, dtype=float).tolist()))
        return k

    return field, calls


def _check_against_reference(attempt, calls, cfg, t, y, h, k1):
    """The attempt's stages, new state and error norm against the plain numpy form.

    The reference forms each stage input y + h * (kmat[:, :i] @ A_i) from
    the stage derivatives the attempt itself recorded, so the comparison
    sees one stage's rounding at a time. Each input of i terms lies within
    2 gamma_(i+3) (|y| + |h| |kmat[:, :i]| @ |A_i|) of the reference; the
    error norm within the root mean square of the componentwise bounds of
    h * (kmat @ E) / scale plus the rounding of the norm itself.
    """
    y_new, k_new, err = attempt
    y, k1 = np.array(y), np.array(k1)
    kmat = np.column_stack([k1] + [np.array(k) for _, _, k in calls])
    for i, (ti, yi, _) in enumerate(calls, start=1):
        assert ti == t + _C[i] * h
        reference = y + h * (kmat[:, :i] @ _A[i])
        bound = 2 * gamma(i + 3) * (np.abs(y) + abs(h) * (np.abs(kmat[:, :i]) @ np.abs(_A[i])))
        assert np.all(np.abs(np.array(yi) - reference) <= bound), (i, yi, reference)
    if not math.isfinite(err):
        # a stage was not finite, or raised: the reference's next input is not finite either
        i = len(calls) + 1
        if i <= 6 and len(calls) == kmat.shape[1] - 1:
            with np.errstate(over="ignore", invalid="ignore"):
                nxt = y + h * (kmat[:, :i] @ _A[i])
            assert not np.all(np.isfinite(nxt)) or not np.all(np.isfinite(kmat))
        return False
    assert len(calls) == 6
    assert calls[-1][1] == y_new and calls[-1][2] == k_new   # FSAL
    reference = y + h * (kmat @ _B)
    bound = 2 * gamma(10) * (np.abs(y) + abs(h) * (np.abs(kmat) @ np.abs(_B)))
    assert np.all(np.abs(np.array(y_new) - reference) <= bound)
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
    reference_err = float(np.sqrt(np.mean(np.square(h * (kmat @ _E) / scale))))
    component = 2 * gamma(12) * abs(h) * (np.abs(kmat) @ np.abs(_E)) / scale
    bound = (float(np.sqrt(np.mean(np.square(component))))
             + gamma(2 * y.size + 4) * (err + reference_err))
    assert abs(err - reference_err) <= bound, (err, reference_err, bound)
    return True


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
    "flat": lambda: (build_manifold("euclidean", {"n": 2}), build_potential("harmonic", {"k": 2.0}, 2),
                     (np.array([0.4, -0.2]), np.array([0.3, 0.9]))),
    "hyperbolic": lambda: (build_manifold("hyperbolic_half_plane", {}), build_potential("zero", {}, 2),
                           (np.array([0.1, 1.2]), np.array([0.6, -0.4]))),
    "conformal": _conformal_system,
}


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_attempt_is_the_plain_reference_within_rounding(problem, direction):
    manifold, fs, init = PROBLEMS[problem]()
    cfg = IntegratorConfig(horizon=2.0)
    f, speed_of = _problem(manifold, fs)
    run = integrate(manifold, fs, init, cfg, direction)
    sign = 1.0 if direction == FORWARD else -1.0
    compared = 0
    for t, y in list(zip(run.times.tolist(), run.states.tolist()))[::3]:
        k1 = f(t, y)
        for h in (1e-4, 0.03, 0.4, 3.0):
            field, calls = _recorded(f)
            core = _Core(field, y, cfg, speed_of, t, sign)
            try:
                attempt = core._attempt(t, y, sign * h, k1)
            except OutOfChart:
                continue
            compared += _check_against_reference(attempt, calls, cfg, t, y, sign * h, k1)
    assert compared >= 40


def test_finite_stages_whose_sum_overflows_are_evaluated():
    # the entries sum to inf, yet each is finite, so every stage is evaluated
    def f(t, y):
        return [0.0, -1.0]

    y = [1.5e308, 1.5e308]
    cfg = IntegratorConfig(horizon=1.0)
    field, calls = _recorded(f)
    core = _Core(field, y, cfg, lambda y: 0.0, 0.0, 1.0)
    attempt = core._attempt(0.0, y, 0.5, f(0.0, y))
    assert core.n_rhs == len(calls) == 6
    assert _check_against_reference(attempt, calls, cfg, 0.0, y, 0.5, f(0.0, y))


def test_rms_is_sqrt_of_mean_within_rounding():
    rng = np.random.default_rng(5)
    for _ in range(20000):
        size = int(rng.integers(2, 13))
        v = rng.normal(size=size) * 10.0 ** rng.uniform(-200, 140)
        scale = rng.uniform(0.5, 2.0, size=size) * 10.0 ** rng.uniform(-5, 5)
        reference = float(np.sqrt(np.mean(np.square(v / scale))))
        assert abs(_rms(v.tolist(), scale.tolist()) - reference) <= 2 * gamma(size + 4) * reference


def test_non_finite_stages_keep_their_counts():
    # a stage past x = 0.5 has an infinite derivative, so the steps reaching
    # it are rejected until the step collapses. On this field (x'' = 1 before
    # x = 0.5) every error estimate is rounding noise, so the counts follow the
    # stage sums' last bits: the BLAS stage sums gave t* = 0.9049875621120317
    # and (30, 54, 287)
    def f(t, y):
        return np.array([y[1], np.inf if y[0] > 0.5 else 1.0])

    traj = integrate_ode(f, [0.0, 0.1], IntegratorConfig(horizon=3.0))
    assert traj.outcome.kind == BLOW_UP_SUSPECTED
    assert traj.outcome.t_star_estimate == 0.9049875621120572
    assert (traj.stats.n_accepted, traj.stats.n_rejected, traj.stats.n_rhs) == (39, 65, 369)


# ---------------------------------------------------------------- the stage rule

def _nan_beyond(edge):
    return lambda t, y: [y[1], math.nan if y[0] > edge else 1.0]


def _raising_beyond(edge):
    def f(t, y):
        if y[0] > edge:
            raise EvaluationError("(0.5 - x)^0.5", {"x": y[0]}, ValueError("complex result"))
        return [y[1], 1.0]
    return f


def test_an_evaluation_error_in_a_stage_is_rejected_and_shrunk_like_nan():
    cfg = IntegratorConfig(horizon=3.0)
    nan_run = integrate_ode(_nan_beyond(0.5), [0.0, 0.1], cfg)
    raising_run = integrate_ode(_raising_beyond(0.5), [0.0, 0.1], cfg)
    assert raising_run.outcome == nan_run.outcome
    assert raising_run.stats == nan_run.stats
    assert raising_run.stats.n_rejected > 0
    assert raising_run.times.tobytes() == nan_run.times.tobytes()
    assert raising_run.states.tobytes() == nan_run.states.tobytes()
    assert float(raising_run.states[:, 0].max()) <= 0.5


def test_a_domain_error_of_a_scenario_source_only_rejects_steps():
    # (1 - x1)^2.5 pushes x1 toward 1, where its gradient stops being real:
    # every stage past x1 = 1 raises, and the run ends at the edge, classified
    sc = parse_scenario({"name": "edge", "task": "integrate",
                         "manifold": {"catalog": "euclidean", "params": {"n": 1}},
                         "force": {"potential": {"expr": "(1 - x1)^2.5"}},
                         "integrator": {"horizon": 5.0},
                         "initial": {"position": [0.0], "velocity": [1.0]}})
    traj = integrate(sc.manifold, sc.force, sc.initial, sc.config)
    assert traj.stats.n_rejected > 0
    assert traj.outcome.kind != "HorizonReached"
    assert float(traj.states[:, 0].max()) <= 1.0


def test_an_evaluation_error_at_the_initial_state_is_invalid_init():
    with pytest.raises(InvalidInit, match="undefined at the initial state"):
        integrate_ode(_raising_beyond(0.5), [0.7, 0.1], IntegratorConfig(horizon=1.0))
    # 400 x1^399 overflows at x1 = 10, which a Python-float power raises
    sc = parse_scenario({"name": "steep", "task": "integrate",
                         "manifold": {"catalog": "euclidean", "params": {"n": 1}},
                         "force": {"potential": {"expr": "x1^400"}},
                         "integrator": {"horizon": 1.0},
                         "initial": {"position": [10.0], "velocity": [0.0]}})
    with pytest.raises(InvalidInit, match=r"x1\^400"):
        integrate(sc.manifold, sc.force, sc.initial, sc.config)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_chart_exit_keeps_its_counts(direction):
    m = ChartManifold(dim=2, metric=np.eye(2), domain_guard=lambda x: x[0] < 1.0)
    v = np.array([1.0 if direction == FORWARD else -1.0, 0.5])
    traj = integrate(m, build_potential("zero", {}, 2), (np.zeros(2), v),
                     IntegratorConfig(horizon=3.0), direction)
    assert traj.outcome.kind == CHART_EXIT
    assert abs(traj.outcome.t_exit) == 0.9999999999999991
    assert (traj.stats.n_accepted, traj.stats.n_rejected, traj.stats.n_rhs) == (21, 0, 303)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_the_field_is_the_one_guard_check_of_a_run(direction):
    # the kernel asks a plain-callable guard once per call, and the step loop
    # asks it nothing more: not at the initial state, not at an accepted endpoint
    calls = []

    def guard(x):
        calls.append(x)
        return abs(x[0]) < 2.0

    m = ChartManifold(dim=2, metric=np.eye(2), domain_guard=guard)
    v = np.array([1.0 if direction == FORWARD else -1.0, 0.5])
    traj = integrate(m, build_potential("zero", {}, 2), (np.zeros(2), v),
                     IntegratorConfig(horizon=3.0), direction)
    assert traj.outcome.kind == CHART_EXIT
    assert abs(traj.outcome.t_exit) == 1.9999999999999694
    assert (traj.stats.n_accepted, traj.stats.n_rejected, traj.stats.n_rhs) == (24, 0, 342)
    assert len(calls) == traj.stats.n_rhs


def test_an_initial_state_outside_the_chart_is_invalid_init():
    m = ChartManifold(dim=2, metric=np.eye(2), domain_guard=lambda x: x[0] < 1.0)
    with pytest.raises(InvalidInit, match="vector field undefined at the initial state: point "
                                          r"\[1\.5 0\. \] is outside the chart domain"):
        integrate(m, build_potential("zero", {}, 2), (np.array([1.5, 0.0]), np.zeros(2)),
                  IntegratorConfig(horizon=1.0))


def _counted_kernels(monkeypatch):
    """The list that gets one entry per call of a kernel make_rhs returns to the integrator."""
    calls = []
    make_rhs = dynamics.make_rhs

    def counting_make_rhs(manifold, fs):
        kernel = make_rhs(manifold, fs)

        def counted(t, y):
            calls.append(1)
            return kernel(t, y)

        return counted

    monkeypatch.setattr(integrate_module, "make_rhs", counting_make_rhs)
    return calls


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_rhs_is_called_once_per_counted_evaluation(monkeypatch, problem, direction):
    manifold, fs, init = PROBLEMS[problem]()
    calls = _counted_kernels(monkeypatch)
    traj = integrate(manifold, fs, init, IntegratorConfig(horizon=2.0), direction)
    assert len(calls) == traj.stats.n_rhs > 0


def test_rhs_calls_of_a_refined_blowup_are_counted(monkeypatch):
    manifold, fs = build_manifold("euclidean", {"n": 1}), build_potential("negative_quartic", {}, 1)
    cfg = IntegratorConfig(horizon=2.0)
    coarse = integrate(manifold, fs, (np.array([1.0]), np.array([1.0])), cfg)
    calls = _counted_kernels(monkeypatch)
    bracket = refine_blowup(manifold, fs, cfg, coarse)
    assert len(calls) == bracket.n_rhs > 0


# ---------------------------------------------------------------- the force equation in floats

# the metric rows of the expression charts below
CHART_ROWS = {
    "diagonal_conformal": [["1 + 0.3*(x1^2 + x2^2)", "0"], ["0", "exp(0.2*x1)"]],
    "diagonal_rows": [["2 + sin(x1)", "0"], ["0", "1 + x1^2*x2^2"]],
    # the off-diagonal texts differ, so the partials are symmetrized
    "general_rows": [["2 + x1^2", "0.3*x1*x2"], ["0.3*x2*x1", "1 + x2^2"]],
}

CHARTS = {
    "euclidean": lambda: build_manifold("euclidean", {"n": 2}),
    "hyperbolic": lambda: build_manifold("hyperbolic_half_plane", {}),
    "diagonal_conformal": lambda: build_manifold(
        "diagonal_conformal", {"entries": [CHART_ROWS["diagonal_conformal"][j][j] for j in range(2)]}),
    "diagonal_rows": lambda: metric_rows(CHART_ROWS["diagonal_rows"]),
    "general_rows": lambda: metric_rows(CHART_ROWS["general_rows"]),
}


def _partials(chart, x):
    """dg[i] = ∂_i G at x, None on the flat chart: each entry's derivative called in turn,
    symmetrized as metric_at symmetrizes G, or the half-plane's in closed form."""
    if chart == "euclidean":
        return None
    if chart == "hyperbolic":
        dw = -2.0 / x[1] ** 3
        return np.array([np.zeros((2, 2)), np.diag([dw, dw])])
    dg = np.array([[[parse_expression(e, ("x1", "x2")).derivative(name)(*x) for e in row]
                    for row in CHART_ROWS[chart]] for name in ("x1", "x2")])
    return 0.5 * (dg + dg.transpose(0, 2, 1))


def _with_tensor(fs, tensor):
    return dynamics.ForceSystem(potential=fs.potential, potential_dx=fs.potential_dx,
                                potential_dt=fs.potential_dt, tensor_F=tensor,
                                time_independent=fs.time_independent)


FORCES = {
    "free": lambda: build_potential("zero", {}, 2),
    "potential": lambda: expression_potential("0.5*x1^2 + x1*x2^3 + sin(t)*x2", 2),
    "tensor": lambda: _with_tensor(build_potential("zero", {}, 2),
                                   build_tensor("skew_rotation", {"omega": 0.6}, 2)),
    "both": lambda: _with_tensor(build_potential("harmonic", {"k": 1.7}, 2),
                                 expression_tensor([["sin(t)", "x1"], ["-x1", "0.5*x2"]])),
}


def _dv(fs, x, t):
    """∂V at (x, t) as an array."""
    return np.asarray(fs.potential_dx(np.asarray(x, dtype=float).tolist(), float(t)), dtype=float)


def _tensor(fs, x, t):
    """F at (x, t) as an array, None without a tensor force."""
    if fs.tensor_F is None:
        return None
    return np.asarray(fs.tensor_F(np.asarray(x, dtype=float).tolist(), float(t)), dtype=float)


def _numpy_rhs(manifold, dg, fs, x, v, t):
    """The force equation in numpy arrays, from the metric partials dg (None on a flat chart)."""
    if dg is not None:
        lowered = christoffel_lower(dg) @ v @ v + _dv(fs, x, t)
        acc = -np.linalg.solve(metric_at(manifold, x), lowered)
    else:
        acc = -0.0 * v * v
    fmat = _tensor(fs, x, t)
    if fmat is not None:
        acc = acc + fmat @ v
    if dg is None:
        dv = _dv(fs, x, t)
        if np.count_nonzero(dv):
            acc = acc - np.linalg.solve(metric_at(manifold, x), dv)
    return np.concatenate([v, acc])


def _rounding_bound(manifold, dg, fs, x, v, t):
    """Per component, how far two roundings of _numpy_rhs's formula may lie apart.

    Every term is a product of at most four factors, summed over at most
    K = 4n^2 + 16 terms, so each rounding lies within gamma_K times the same
    formula over absolute values (the magnitudes below) of the exact value.
    A diagonal G divides the magnitudes; a general G passes its
    right-hand side's error through G^-1 and, with np.linalg.solve's
    backward error, adds kappa(G) |acc|.
    """
    n = len(x)
    k = gamma(4 * n * n + 16)
    av = np.abs(v)
    g = metric_at(manifold, x)
    diagonal = np.count_nonzero(g) == n

    def raised(magnitude, solved):
        if diagonal:
            return magnitude / np.diag(g)
        inv = np.linalg.inv(g)
        return np.full(n, np.linalg.norm(inv, 2) * np.linalg.norm(magnitude)
                       + np.linalg.cond(g) * np.linalg.norm(solved))

    if dg is not None:
        adg = np.abs(dg)
        low = 0.5 * (adg.transpose(2, 0, 1) + adg.transpose(2, 1, 0) + adg) @ av @ av
        lowered = christoffel_lower(dg) @ v @ v
        magnitude = raised(low + np.abs(_dv(fs, x, t)), np.linalg.solve(g, lowered + _dv(fs, x, t)))
    else:
        magnitude = np.zeros(n)
    fmat = _tensor(fs, x, t)
    if fmat is not None:
        magnitude = magnitude + np.abs(fmat) @ av
    if dg is None:
        dv = _dv(fs, x, t)
        magnitude = magnitude + raised(np.abs(dv), np.linalg.solve(g, dv))
    return 2 * k * magnitude


@PROFILE
@given(chart=st.sampled_from(sorted(CHARTS)), force=st.sampled_from(sorted(FORCES)),
       x=st.tuples(st.floats(-1.5, 1.5), st.floats(0.3, 2.0)),
       v=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)), t=st.floats(-1.0, 1.0))
def test_float_rhs_is_the_numpy_formula_within_rounding(chart, force, x, v, t):
    manifold, fs = CHARTS[chart](), FORCES[force]()
    x, v = np.array(x), np.array(v)
    out = rhs_E(manifold, fs, (x.tolist(), v.tolist(), t))
    dg = _partials(chart, x)
    reference = _numpy_rhs(manifold, dg, fs, x, v, t)
    assert out[:2] == v.tolist()
    bound = _rounding_bound(manifold, dg, fs, x, v, t)
    assert np.all(np.abs(np.array(out[2:]) - reference[2:]) <= bound), (out, reference, bound)


@pytest.mark.parametrize("chart", ["euclidean", "hyperbolic", "diagonal_conformal",
                                   "diagonal_rows"])
def test_rhs_on_a_diagonal_chart_gives_python_floats(chart):
    for force in sorted(FORCES):
        out = rhs_E(CHARTS[chart](), FORCES[force](), ([0.4, 1.1], [0.7, -0.2], 0.3))
        assert type(out) is list and len(out) == 4
        assert all(type(c) is float for c in out), (force, out)


# ---------------------------------------------------------------- fused metric sources

def test_diagonal_conformal_sources_equal_their_entries_called_in_turn():
    entries = ["1 + 0.1*x1^2 + 0.2*x2^2", "2 + sin(x1)*x2^3"]
    m = build_manifold("diagonal_conformal", {"entries": entries})
    fns = [parse_expression(e, ("x1", "x2")) for e in entries]
    rng = np.random.default_rng(2)
    for x, v in zip(rng.uniform(-2.0, 2.0, size=(50, 2)).tolist(),
                    rng.uniform(-2.0, 2.0, size=(50, 2)).tolist()):
        assert np.array(m.metric(x)).tobytes() == np.diag([fn(*x) for fn in fns]).tobytes()
        # the geodesic term keeps the floats of the contraction of the partials
        # in floats: dg_v[i][j] = Σ_k ∂_i g_jk v_k, then Σ_i v_i dg_v[i][l] − 0.5 Σ_j v_j dg_v[l][j]
        dg = [[[fns[j].derivative(name)(*x) if j == k else 0.0 for k in range(2)] for j in range(2)]
              for name in ("x1", "x2")]
        dg_v = [[sum(map(mul, row, v)) for row in d] for d in dg]
        expected = [sum(map(mul, v, [d[l] for d in dg_v])) - 0.5 * sum(map(mul, v, dg_v[l]))
                    for l in range(2)]
        assert list(m.geodesic_term(x, v)) == expected


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
