import io

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavetraj.catalog import build_manifold, build_potential
from wavetraj.dynamics import ForceSystem, make_rhs
from wavetraj.errors import InvalidInit, NotABlowup, OutOfChart, OutOfRange
from wavetraj.geometry import ChartManifold, metric_at
from wavetraj.integrate import (BACKWARD, BLOW_UP_SUSPECTED, CHART_EXIT, FORWARD,
                                HORIZON_REACHED, TOLERANCE_FAILURE, IntegratorConfig,
                                integrate, integrate_ode, refine_blowup, sample,
                                trajectory_to_csv)

SQRT2 = np.sqrt(2.0)
# int_1^inf dx / sqrt(2 (1 + x^4)), frozen from an independent quadrature oracle
T_STAR_E1 = 0.6555143885730299


def quartic_blowup_setup():
    m = build_manifold("euclidean", {"n": 1})
    fs = build_potential("negative_quartic", {})
    return m, fs


def test_harmonic_tracks_cosine(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=20.0)
    traj = integrate(euclidean2, harmonic, (np.array([1.0, 0.0]), np.zeros(2)), cfg)
    assert traj.outcome.kind == HORIZON_REACHED
    node_err = np.abs(traj.positions[:, 0] - np.cos(traj.times)).max()
    assert node_err < 1e-6
    dense_err = max(abs(sample(traj, t)[0][0] - np.cos(t)) for t in np.linspace(0, 20, 500))
    assert dense_err < 1e-6


def test_free_motion_is_straight_line(euclidean2, free):
    cfg = IntegratorConfig(horizon=5.0)
    p, v = np.array([0.5, -1.0]), np.array([0.3, 0.7])
    traj = integrate(euclidean2, free, (p, v), cfg)
    assert traj.outcome.kind == HORIZON_REACHED
    for t, y in zip(traj.times, traj.states):
        assert_allclose(y[:2], p + t * v, atol=1e-9)
        assert_allclose(y[2:], v, atol=1e-12)


def test_quartic_blowup_detected():
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0)
    traj = integrate(m, fs, (np.array([1.0]), np.array([SQRT2])), cfg)
    assert traj.outcome.kind == BLOW_UP_SUSPECTED
    # exact solution x(t) = 1/(1 - sqrt(2) t): within 1% of the singular time
    assert traj.outcome.t_star_estimate == pytest.approx(1.0 / SQRT2, rel=1e-2)
    # speed at the last accepted step exceeds the ceiling
    last = traj.states[-1]
    assert abs(last[1]) > cfg.speed_ceiling


def test_backward_blowup_sign_convention():
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0)
    # x(t) = 1/(1 + sqrt(2) t) is forward complete and blows up at t = -1/sqrt(2)
    traj = integrate(m, fs, (np.array([1.0]), np.array([-SQRT2])), cfg, BACKWARD)
    assert traj.outcome.kind == BLOW_UP_SUSPECTED
    assert traj.outcome.t_star_estimate == pytest.approx(-1.0 / SQRT2, rel=1e-2)
    assert np.all(np.diff(traj.times) < 0)


def test_step_collapse_with_growing_speed_is_blowup():
    # ceiling far above overflow territory: classification must come from the
    # collapse-with-growing-speed branch instead
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0, speed_ceiling=1e200)
    traj = integrate(m, fs, (np.array([1.0]), np.array([SQRT2])), cfg)
    assert traj.outcome.kind == BLOW_UP_SUSPECTED
    assert traj.outcome.t_star_estimate == pytest.approx(1.0 / SQRT2, rel=1e-2)


def test_step_collapse_without_growth_is_tolerance_failure():
    # infinitely oscillating derivative near t = 0.5 starves the controller
    # while the speed component stays flat: must not be called a blow-up
    def f(t, y):
        return np.array([np.cos(1.0 / (0.5 - t)) / (0.5 - t) ** 2, 0.0])

    cfg = IntegratorConfig(horizon=1.0, min_step_fraction=1e-6)
    traj = integrate_ode(f, np.array([0.0, 0.0]), cfg)
    assert traj.outcome.kind == TOLERANCE_FAILURE


def test_chart_exit_reported(free):
    strip = ChartManifold(dim=2, metric=lambda x: np.eye(2),
                          domain_guard=lambda x: x[0] < 2.0)
    cfg = IntegratorConfig(horizon=5.0)
    traj = integrate(strip, free, (np.array([1.0, 0.0]), np.array([1.0, 0.0])), cfg)
    assert traj.outcome.kind == CHART_EXIT
    assert 0.9 <= traj.outcome.t_exit <= 1.0
    assert all(strip.contains(y[:2]) for y in traj.states)


def test_metric_blowup_without_coordinate_escape(hyperbolic):
    # V = -1/y on the half-plane: the exact solution touches y = 0
    # tangentially at finite time while the metric speed |ydot|/y diverges.
    # The classifier must flag the blow-up even though the chart coordinates
    # stay bounded and inside the guard.
    pull = ForceSystem(potential=lambda x, t: -1.0 / x[1],
                       potential_dx=lambda x, t: np.array([0.0, 1.0 / x[1] ** 2]),
                       potential_dt=lambda x, t: 0.0, time_independent=True)
    cfg = IntegratorConfig(horizon=10.0)
    traj = integrate(hyperbolic, pull, (np.array([0.0, 0.5]), np.array([0.0, -0.2])), cfg)
    assert traj.outcome.kind == BLOW_UP_SUSPECTED
    assert traj.outcome.t_star_estimate < 10.0
    assert all(y[1] > 0 for y in traj.positions)
    assert np.abs(traj.positions).max() < 1.0  # coordinates never escape


def test_chart_exit_on_curved_manifold(free):
    # a guard strictly inside the half-plane: a geodesic crossing it exits in
    # finite time with bounded speed, so the verdict is ChartExit
    m = ChartManifold(dim=2, metric=lambda x: np.diag([1.0 / x[1] ** 2] * 2),
                      domain_guard=lambda x: x[1] > 1.0)
    cfg = IntegratorConfig(horizon=10.0)
    traj = integrate(m, free, (np.array([0.0, 2.0]), np.array([1.0, 0.0])), cfg)
    assert traj.outcome.kind == CHART_EXIT
    assert all(m.contains(y[:2]) for y in traj.states)
    assert traj.outcome.t_exit < 10.0


def test_lost_positive_definiteness_is_hard_error(free):
    # no guard declared: the metric silently degenerates at x1 = 1 and the
    # geometry layer must fail loudly instead of classifying an outcome
    from wavetraj.errors import NotPositiveDefinite

    m = ChartManifold(dim=2, metric=lambda x: np.diag([1.0 - x[0] ** 2, 1.0]))
    cfg = IntegratorConfig(horizon=5.0)
    with pytest.raises(NotPositiveDefinite):
        integrate(m, free, (np.array([0.0, 0.0]), np.array([0.5, 0.0])), cfg)


def test_invalid_init(euclidean2, free, hyperbolic):
    cfg = IntegratorConfig(horizon=1.0)
    with pytest.raises(InvalidInit):
        integrate(hyperbolic, free, (np.array([0.0, -1.0]), np.zeros(2)), cfg)
    with pytest.raises(InvalidInit):
        integrate(euclidean2, free, (np.array([np.nan, 0.0]), np.zeros(2)), cfg)


def test_sample_at_nodes_exact(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=3.0)
    traj = integrate(euclidean2, harmonic, (np.array([1.0, 0.0]), np.zeros(2)), cfg)
    k = len(traj.times) // 2
    x, xd = sample(traj, traj.times[k])
    assert_allclose(np.concatenate([x, xd]), traj.states[k], atol=0)


def test_sample_harmonic_at_pi(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=4.0)
    traj = integrate(euclidean2, harmonic, (np.array([1.0, 0.0]), np.zeros(2)), cfg)
    x, _ = sample(traj, np.pi)
    assert x[0] == pytest.approx(-1.0, abs=1e-6)


def test_sample_out_of_range(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=1.0)
    traj = integrate(euclidean2, harmonic, (np.array([1.0, 0.0]), np.zeros(2)), cfg)
    with pytest.raises(OutOfRange):
        sample(traj, 1.5)
    with pytest.raises(OutOfRange):
        sample(traj, -0.1)


def test_time_reversal_round_trip(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=5.0)
    p0, v0 = np.array([1.0, 0.3]), np.array([0.0, -0.2])
    fwd = integrate(euclidean2, harmonic, (p0, v0), cfg)
    end = fwd.states[-1]
    back = integrate(euclidean2, harmonic, (end[:2], end[2:]), cfg, BACKWARD)
    assert back.outcome.kind == HORIZON_REACHED
    returned = back.states[-1]
    assert np.abs(returned - np.concatenate([p0, v0])).max() < 1e-6


def test_geodesic_norm_conserved_on_curved_base(hyperbolic, free):
    cfg = IntegratorConfig(horizon=10.0)
    traj = integrate(hyperbolic, free, (np.array([0.0, 1.0]), np.array([1.0, 0.0])), cfg)
    assert traj.outcome.kind == HORIZON_REACHED
    norms = []
    for y in traj.states:
        g = metric_at(hyperbolic, y[:2])
        norms.append(float(y[2:] @ g @ y[2:]))
    norms = np.array(norms)
    drift_per_time = np.abs(norms - norms[0]).max() / (abs(norms[0]) * 10.0)
    assert drift_per_time < 1e-8


def test_geodesic_norm_conserved_with_fd_christoffels(free):
    # expression-style metric without an analytic connection: the whole rhs
    # runs through the finite-difference Christoffel path
    m = ChartManifold(dim=2, metric=lambda x: np.diag([np.exp(2.0 * x[1]), 1.0]))
    cfg = IntegratorConfig(horizon=5.0)
    traj = integrate(m, free, (np.array([0.0, 0.2]), np.array([0.4, 0.3])), cfg)
    assert traj.outcome.kind == HORIZON_REACHED
    norms = []
    for y in traj.states:
        g = metric_at(m, y[:2])
        norms.append(float(y[2:] @ g @ y[2:]))
    norms = np.array(norms)
    drift_per_time = np.abs(norms - norms[0]).max() / (abs(norms[0]) * 5.0)
    assert drift_per_time < 1e-8


def test_convergence_order_at_least_four(euclidean2, harmonic):
    # endpoint error against mean accepted step: slope near the method order
    errs, steps = [], []
    for k in range(4, 9):
        cfg = IntegratorConfig(rel_tol=10.0 ** (-k), abs_tol=10.0 ** (-k - 3), horizon=10.0)
        traj = integrate(euclidean2, harmonic, (np.array([1.0, 0.0]), np.zeros(2)), cfg)
        errs.append(abs(traj.positions[-1, 0] - np.cos(10.0)))
        steps.append(np.mean(np.diff(traj.times)))
    slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert slope >= 4.0


def test_tighter_tolerance_reduces_error(euclidean2, harmonic):
    errors = []
    for rtol in (1e-6, 5e-7):
        cfg = IntegratorConfig(rel_tol=rtol, abs_tol=rtol * 1e-3, horizon=10.0)
        traj = integrate(euclidean2, harmonic, (np.array([1.0, 0.0]), np.zeros(2)), cfg)
        errors.append(abs(traj.positions[-1, 0] - np.cos(10.0)))
    assert errors[1] < errors[0]


def test_refine_blowup_brackets_true_singularity():
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0)
    init = (np.array([1.0]), np.array([SQRT2]))
    coarse = integrate(m, fs, init, cfg)
    result = refine_blowup(m, fs, init, cfg, coarse)
    assert result.t_lo <= 1.0 / SQRT2 <= result.t_hi
    assert result.width <= 1e-3 * result.t_hi
    # running intersections never grow
    lo, hi = -np.inf, np.inf
    for level_lo, level_hi in result.levels:
        new_lo, new_hi = max(lo, level_lo), min(hi, level_hi)
        assert (new_hi - new_lo) <= (hi - lo)
        lo, hi = new_lo, new_hi


def test_refine_blowup_quadrature_energy_case():
    # v = 2 gives conserved energy 1 and singular time int_1^inf dx/sqrt(2(1+x^4))
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0)
    init = (np.array([1.0]), np.array([2.0]))
    coarse = integrate(m, fs, init, cfg)
    assert coarse.outcome.kind == BLOW_UP_SUSPECTED
    result = refine_blowup(m, fs, init, cfg, coarse)
    assert result.t_lo <= T_STAR_E1 <= result.t_hi
    assert result.width <= 1e-3 * result.t_hi


def test_refine_blowup_backward_direction():
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0)
    init = (np.array([1.0]), np.array([-SQRT2]))
    coarse = integrate(m, fs, init, cfg, BACKWARD)
    result = refine_blowup(m, fs, init, cfg, coarse)
    assert result.t_lo <= -1.0 / SQRT2 <= result.t_hi
    assert result.width <= 1e-3 * abs(result.t_lo)


def test_refine_blowup_rejects_complete_trajectory(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=5.0)
    init = (np.array([1.0, 0.0]), np.zeros(2))
    traj = integrate(euclidean2, harmonic, init, cfg)
    with pytest.raises(NotABlowup):
        refine_blowup(euclidean2, harmonic, init, cfg, traj)


def test_csv_export_round_trips(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=2.0)
    traj = integrate(euclidean2, harmonic, (np.array([1.0, 0.0]), np.zeros(2)), cfg)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x1,x2,xdot1,xdot2"
    assert len(lines) == len(traj.times) + 1
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert_allclose(parsed[:, 0], traj.times, rtol=0, atol=0)
    assert_allclose(parsed[:, 1:], traj.states, rtol=0, atol=0)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(horizon=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(horizon=1.0, rel_tol=0.0)


def callable_euclidean(n, domain_guard=None):
    """The euclidean chart as a metric function with an analytic zero connection."""
    eye = np.eye(n)
    zeros = np.zeros((n, n, n))
    return ChartManifold(dim=n, metric=lambda x: eye, christoffel=lambda x: zeros,
                         domain_guard=domain_guard)


def assert_same_run(a, b):
    assert a.outcome == b.outcome
    assert a.stats == b.stats
    assert a.direction == b.direction
    for field in ("times", "states", "derivs"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_flat_chart_matches_callable_metric(harmonic, direction):
    cfg = IntegratorConfig(horizon=7.0)
    init = (np.array([1.0, -0.5]), np.array([0.2, 0.9]))
    flat = integrate(build_manifold("euclidean", {"n": 2}), harmonic, init, cfg, direction)
    reference = integrate(callable_euclidean(2), harmonic, init, cfg, direction)
    assert flat.stats.n_rhs > 0
    assert_same_run(flat, reference)


def test_flat_chart_blowup_refinement_matches_callable_metric():
    fs = build_potential("negative_quartic", {})
    cfg = IntegratorConfig(horizon=2.0)
    p = np.array([0.6, 0.8])
    init = (p, SQRT2 * p)
    runs = []
    for m in (build_manifold("euclidean", {"n": 2}), callable_euclidean(2)):
        coarse = integrate(m, fs, init, cfg)
        runs.append((coarse, refine_blowup(m, fs, init, cfg, coarse)))
    (flat, flat_bracket), (reference, reference_bracket) = runs
    assert flat.outcome.kind == BLOW_UP_SUSPECTED
    assert_same_run(flat, reference)
    assert flat_bracket == reference_bracket
    assert flat_bracket.t_lo <= 1.0 / SQRT2 <= flat_bracket.t_hi


def test_flat_chart_exit_matches_callable_metric(harmonic):
    # stages leave the strip before the accepted states do: the constant
    # metric must still guard every stage point
    guard = lambda x: x[0] < 1.5
    strip = ChartManifold(dim=2, metric=np.eye(2), domain_guard=guard)
    cfg = IntegratorConfig(horizon=5.0)
    init = (np.array([1.0, 0.0]), np.array([1.5, 0.0]))   # amplitude 1.8
    flat = integrate(strip, harmonic, init, cfg)
    reference = integrate(callable_euclidean(2, guard), harmonic, init, cfg)
    assert flat.outcome.kind == CHART_EXIT
    assert flat.outcome.t_exit == reference.outcome.t_exit
    assert_same_run(flat, reference)
    with pytest.raises(OutOfChart):
        make_rhs(strip, harmonic)(0.0, np.array([1.6, 0.0, 1.0, 0.0]))
