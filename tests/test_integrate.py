import io
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavetraj.catalog import build_manifold, build_potential, expression_potential, metric_rows
from wavetraj.dynamics import ForceSystem, make_rhs
from wavetraj.errors import InvalidInit, NotABlowup, NotPositiveDefinite, OutOfChart, OutOfRange
from wavetraj.geometry import ChartManifold, metric_at
from wavetraj.integrate import (BACKWARD, BLOW_UP_SUSPECTED, CHART_EXIT, FORWARD,
                                HORIZON_REACHED, TOLERANCE_FAILURE, IntegratorConfig,
                                integrate, integrate_ode, refine_blowup, sample,
                                trajectory_to_csv)
from wavetraj.scenario import parse_scenario

SQRT2 = np.sqrt(2.0)
# int_1^inf dx / sqrt(2 (1 + x^4)), frozen from an independent quadrature oracle
T_STAR_E1 = 0.6555143885730299


def quartic_blowup_setup():
    m = build_manifold("euclidean", {"n": 1})
    fs = build_potential("negative_quartic", {}, 1)
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
    strip = metric_rows([["1", "0"], ["0", "1"]], guard="2 - x1")
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
    m = metric_rows([["1/x2^2", "0"], ["0", "1/x2^2"]], guard="x2 - 1")
    cfg = IntegratorConfig(horizon=10.0)
    traj = integrate(m, free, (np.array([0.0, 2.0]), np.array([1.0, 0.0])), cfg)
    assert traj.outcome.kind == CHART_EXIT
    assert all(m.contains(y[:2]) for y in traj.states)
    assert traj.outcome.t_exit < 10.0


def test_lost_positive_definiteness_is_hard_error(free):
    # no guard declared: the metric silently degenerates at x1 = 1, which the
    # geodesic along x1 crosses at t = 2, and the geometry layer must fail
    # loudly instead of classifying an outcome
    from wavetraj.errors import NotPositiveDefinite

    m = metric_rows([["1", "0"], ["0", "1 - x1^2"]])
    cfg = IntegratorConfig(horizon=5.0)
    with pytest.raises(NotPositiveDefinite):
        integrate(m, free, (np.array([0.0, 0.0]), np.array([0.5, 0.0])), cfg)


def test_overflowing_metric_stops_the_run():
    # the metric overflows for x1 >= 1: a stage there ends the run with the
    # same hard error as lost positive definiteness; it is constant where
    # finite, so its geodesic term is 0
    m = ChartManifold(dim=1, metric=lambda x: np.array([[1.0 if x[0] < 1.0 else np.inf]]),
                      geodesic_term=lambda x, v: [0.0])
    cfg = IntegratorConfig(horizon=5.0)
    with pytest.raises(NotPositiveDefinite, match="not finite"):
        integrate(m, build_potential("zero", {}, 1), (np.array([0.0]), np.array([1.0])), cfg)


def test_invalid_init(euclidean2, free, hyperbolic):
    cfg = IntegratorConfig(horizon=1.0)
    with pytest.raises(InvalidInit):
        integrate(hyperbolic, free, (np.array([0.0, -1.0]), np.zeros(2)), cfg)
    with pytest.raises(InvalidInit):
        integrate(euclidean2, free, (np.array([np.nan, 0.0]), np.zeros(2)), cfg)


def test_an_infinite_vector_field_at_the_initial_state_is_invalid_init(euclidean1):
    # the initial step size cannot be probed from an infinite derivative
    steep = ForceSystem(potential=lambda x, t: 0.0, potential_dx=lambda x, t: np.array([np.inf]),
                        potential_dt=lambda x, t: 0.0, time_independent=True)
    with pytest.raises(InvalidInit, match="not finite"):
        integrate(euclidean1, steep, (np.array([1.0]), np.zeros(1)), IntegratorConfig(horizon=1.0))


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


def test_geodesic_norm_conserved_on_exponential_metric_rows(free):
    # metric rows diag(e^{2 x2}, 1): the rhs runs on the exact geodesic term
    m = metric_rows([["exp(2*x2)", "0"], ["0", "1"]])
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
    result = refine_blowup(m, fs, cfg, coarse)
    assert result.t_lo <= 1.0 / SQRT2 <= result.t_hi
    assert result.width <= 1e-3 * result.t_hi


def test_refine_blowup_quadrature_energy_case():
    # v = 2 gives conserved energy 1 and singular time int_1^inf dx/sqrt(2(1+x^4))
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0)
    init = (np.array([1.0]), np.array([2.0]))
    coarse = integrate(m, fs, init, cfg)
    assert coarse.outcome.kind == BLOW_UP_SUSPECTED
    result = refine_blowup(m, fs, cfg, coarse)
    assert result.t_lo <= T_STAR_E1 <= result.t_hi
    assert result.width <= 1e-3 * result.t_hi


def test_refine_blowup_backward_direction():
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0)
    init = (np.array([1.0]), np.array([-SQRT2]))
    coarse = integrate(m, fs, init, cfg, BACKWARD)
    result = refine_blowup(m, fs, cfg, coarse)
    assert result.t_lo <= -1.0 / SQRT2 <= result.t_hi
    assert result.width <= 1e-3 * abs(result.t_lo)


def test_refine_blowup_rejects_complete_trajectory(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=5.0)
    init = (np.array([1.0, 0.0]), np.zeros(2))
    traj = integrate(euclidean2, harmonic, init, cfg)
    with pytest.raises(NotABlowup):
        refine_blowup(euclidean2, harmonic, cfg, traj)


@pytest.mark.parametrize("direction,speed", [(FORWARD, SQRT2), (BACKWARD, -SQRT2)])
def test_refine_blowup_time_dependent_potential(direction, speed):
    # V = -(1 + t) x^4 changes with t: a continuation that evaluated the
    # force at its own elapsed time instead of the true time would bracket
    # a later blow-up
    m = build_manifold("euclidean", {"n": 1})
    fs = expression_potential("-(1 + t)*(x1^2)^2", 1)
    cfg = IntegratorConfig(horizon=2.0)
    init = (np.array([1.0]), np.array([speed]))
    coarse = integrate(m, fs, init, cfg, direction)
    result = refine_blowup(m, fs, cfg, coarse)
    reference = integrate(m, fs, init, replace(cfg, rel_tol=1e-13, abs_tol=1e-14), direction)
    assert reference.outcome.kind == BLOW_UP_SUSPECTED
    crossed = reference.outcome.t_star_estimate    # first record past the ceiling
    assert result.t_lo <= crossed <= result.t_hi
    crossing_end = result.t_lo if direction == FORWARD else result.t_hi
    assert abs(crossing_end - crossed) < 1e-8
    assert result.width <= 1e-4
    assert 0 < result.n_rhs < coarse.stats.n_rhs


def test_refine_blowup_from_a_first_record_above_the_ceiling():
    m, fs = quartic_blowup_setup()
    cfg = IntegratorConfig(horizon=2.0, speed_ceiling=1.0)
    init = (np.array([1.0]), np.array([2.0]))
    coarse = integrate(m, fs, init, cfg)
    assert coarse.outcome.kind == BLOW_UP_SUSPECTED
    assert coarse.times.size == 1
    result = refine_blowup(m, fs, cfg, coarse)
    assert result.t_lo == 0.0
    assert result.t_lo <= T_STAR_E1 <= result.t_hi
    assert result.n_rhs > 0


def test_refine_blowup_continuation_reaching_horizon(euclidean2, harmonic):
    # a low ceiling makes the bounded harmonic run look like a blow-up; the
    # continuation to a thousandfold ceiling runs into the horizon instead
    cfg = IntegratorConfig(horizon=5.0, speed_ceiling=0.9)
    init = (np.array([1.0, 0.0]), np.zeros(2))
    coarse = integrate(euclidean2, harmonic, init, cfg)
    assert coarse.outcome.kind == BLOW_UP_SUSPECTED
    with pytest.raises(NotABlowup, match="horizon"):
        refine_blowup(euclidean2, harmonic, cfg, coarse)


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


@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "max_step", "horizon", "speed_ceiling",
                                   "min_step_fraction"])
def test_config_rejects_nan_in_every_field(field):
    # NaN fails every comparison, so a test for <= 0 lets it through
    with pytest.raises(ValueError, match=field):
        IntegratorConfig(**{field: np.nan})


def test_config_rejects_an_infinite_horizon_but_not_an_infinite_max_step():
    # min_step is a fraction of the horizon: an infinite one would never
    # collapse a step, and a run whose attempts are all non-finite would hang
    with pytest.raises(ValueError, match="horizon must be finite"):
        IntegratorConfig(horizon=np.inf)
    assert IntegratorConfig().max_step == np.inf


def test_an_unknown_direction_is_rejected(euclidean2, harmonic):
    cfg = IntegratorConfig(horizon=1.0)
    with pytest.raises(ValueError, match="direction must be"):
        integrate_ode(lambda t, y: [y[1], -y[0]], [1.0, 0.0], cfg, direction="sideways")
    with pytest.raises(ValueError, match="direction must be"):
        integrate(euclidean2, harmonic, (np.zeros(2), np.zeros(2)), cfg, "sideways")


def _non_autonomous_conformal():
    return parse_scenario({
        "name": "back", "task": "integrate",
        "manifold": {"catalog": "diagonal_conformal",
                     "params": {"entries": ["1 + 0.1*x1^2 + 0.2*x2^2", "2 + sin(x1)*x2"]}},
        "force": {"potential": {"expr": "exp(t)*(0.5*x1^2 + 0.3*x2^2) + 0.2*sin(t)*x1*x2"},
                  "tensor": {"catalog": "skew_rotation", "params": {"omega": 0.6}}},
        "integrator": {"horizon": 2.0},
        "initial": {"position": [0.1, 0.2], "velocity": [0.3, -0.1]}})


def test_backward_non_autonomous_run_keeps_its_bits():
    # pinned bits of a backward run whose potential and tensor force both
    # see the time: each stage is evaluated at its true time t + c * (-h)
    sc = _non_autonomous_conformal()
    traj = integrate(sc.manifold, sc.force, sc.initial, sc.config, BACKWARD)
    assert traj.outcome.kind == HORIZON_REACHED
    assert [float(v).hex() for v in traj.states[-1]] == [
        "-0x1.6a0fbdc890befp-2", "-0x1.05a79d3707bd9p-6", "0x1.8879cd789628dp-5",
        "0x1.002037951f96ap-2"]
    assert traj.t_span == (-2.0, 0.0)
    assert (traj.stats.n_accepted, traj.stats.n_rejected, traj.stats.n_rhs) == (52, 0, 314)


@pytest.mark.parametrize("system", ["conformal", "quartic"])
def test_backward_run_mirrors_the_forward_run_with_reversed_velocity(system):
    # with no tensor force and no time in V, x(-t) solves the force equation
    # from (p, -v); the negative steps round as the exact negations of the
    # positive ones, so the two runs agree bit for bit
    if system == "conformal":
        m = build_manifold("diagonal_conformal",
                           {"entries": ["1 + 0.1*x1^2 + 0.2*x2^2", "2 + sin(x1)*x2"]})
        fs = expression_potential("0.5*x1^2 + x1*x2^3", 2)
        p, v, cfg = np.array([0.1, 0.2]), np.array([0.3, -0.1]), IntegratorConfig(horizon=3.0)
    else:
        (m, fs), cfg = quartic_blowup_setup(), IntegratorConfig(horizon=2.0)
        p, v = np.array([1.0]), np.array([-SQRT2])
    back = integrate(m, fs, (p, v), cfg, BACKWARD)
    fwd = integrate(m, fs, (p, -v), cfg)
    n = m.dim
    assert back.stats == fwd.stats and back.stats.n_accepted > 10
    assert np.array_equal(back.times, -fwd.times)
    assert np.array_equal(back.states, np.concatenate([fwd.states[:, :n], -fwd.states[:, n:]], 1))
    assert np.array_equal(back.derivs, np.concatenate([-fwd.derivs[:, :n], fwd.derivs[:, n:]], 1))
    assert back.outcome.kind == fwd.outcome.kind
    if system == "quartic":
        assert back.outcome.t_star_estimate == -fwd.outcome.t_star_estimate


def test_backward_outcome_at_the_start_record_has_the_sign_of_its_time():
    # the speed is over the ceiling at t = 0, and a guard just past the start
    # turns back every step: both outcomes fall on the start record
    m, fs = quartic_blowup_setup()
    over = integrate(m, fs, (np.array([1.0]), np.array([-2e12])), IntegratorConfig(horizon=2.0),
                     BACKWARD)
    strip = ChartManifold(dim=1, metric=np.eye(1), domain_guard=lambda x: x[0] < 1.0)
    exit_ = integrate(strip, build_potential("zero", {}, 1),
                      (np.array([np.nextafter(1.0, 0.0)]), np.array([-1.0])),
                      IntegratorConfig(horizon=1.0), BACKWARD)
    assert over.outcome.kind == BLOW_UP_SUSPECTED and exit_.outcome.kind == CHART_EXIT
    for traj, t in ((over, over.outcome.t_star_estimate), (exit_, exit_.outcome.t_exit)):
        assert traj.times.size == 1
        assert t == traj.times[0] == 0.0
        assert math.copysign(1.0, t) == math.copysign(1.0, traj.times[0])


def callable_euclidean(n, domain_guard=None):
    """The euclidean chart as a metric function with an analytic zero geodesic term."""
    eye = np.eye(n)
    return ChartManifold(dim=n, metric=lambda x: eye, geodesic_term=lambda x, v: [0.0] * n,
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
    fs = build_potential("negative_quartic", {}, 2)
    cfg = IntegratorConfig(horizon=2.0)
    p = np.array([0.6, 0.8])
    init = (p, SQRT2 * p)
    runs = []
    for m in (build_manifold("euclidean", {"n": 2}), callable_euclidean(2)):
        coarse = integrate(m, fs, init, cfg)
        runs.append((coarse, refine_blowup(m, fs, cfg, coarse)))
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


def test_refine_blowup_rejects_a_bracket_past_the_horizon():
    # the speed grows only exponentially here (in arc length the potential is
    # quadratic), so each thousandfold ceiling is crossed about 0.55 later and
    # the bracket [t_cross, t_deep + 4 gap] runs past the horizon
    m = build_manifold("diagonal_conformal", {"entries": ["1 + 0.1*x1^2", "1 + 0.1*x2^2"]})
    fs = build_potential("negative_quartic", {"c": 1.0}, 2)
    cfg = IntegratorConfig(horizon=5.0)
    init = (np.array([0.8, 0.1]), np.array([0.2, -0.3]))
    coarse = integrate(m, fs, init, cfg)
    assert coarse.outcome.kind == BLOW_UP_SUSPECTED
    with pytest.raises(NotABlowup, match="past the horizon"):
        refine_blowup(m, fs, cfg, coarse)
