import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetraj.comparison import (CONVERGES, DIVERGES, INCONCLUSIVE, DominatingSolution,
                                 PhiFunction, adaptive_quad, check_divergence,
                                 solve_dominating, verify_envelope)
from wavetraj.errors import HypothesisViolated


def test_adaptive_quad_smooth():
    val = adaptive_quad(np.exp, 0.0, 2.0)
    assert val == pytest.approx(np.exp(2.0) - 1.0, rel=1e-13)


def test_phi_positive_enforced():
    with pytest.raises(HypothesisViolated, match="not positive"):
        PhiFunction(a=1.0, fn=lambda s: s - 5.0)


def test_phi_monotone_enforced():
    with pytest.raises(HypothesisViolated, match="decreases"):
        PhiFunction(a=1.0, fn=lambda s: 1.0 / s)


def test_phi_nondecreasing_accepted():
    phi = PhiFunction(a=2.0, fn=lambda s: 1.0)
    assert phi.certified_to == 12.0
    phi.extend_certificate(40.0)
    assert phi.certified_to == 40.0


def test_divergence_linear():
    report = check_divergence(PhiFunction(a=1.0, fn=lambda s: s))
    assert report.verdict == DIVERGES


def test_divergence_quadratic_converges_to_one():
    report = check_divergence(PhiFunction(a=1.0, fn=lambda s: s * s))
    assert report.verdict == CONVERGES
    assert report.estimate == pytest.approx(1.0, abs=1e-6)


def test_divergence_s_log_s():
    report = check_divergence(PhiFunction(a=1.0, fn=lambda s: s * np.log(s + 1.0)))
    assert report.verdict == DIVERGES


def test_divergence_borderline_is_inconclusive_not_diverges():
    # s log^2(s+1) has a convergent tail that decays too slowly to saturate;
    # the honest verdict at this resolution is Inconclusive
    report = check_divergence(PhiFunction(a=1.0, fn=lambda s: s * np.log(s + 1.0) ** 2))
    assert report.verdict == INCONCLUSIVE


def test_dominating_exponential():
    v0 = solve_dominating(PhiFunction(a=1.0, fn=lambda s: s), 1.0, 10.0)
    worst = max(abs(v0(t) - np.exp(t)) for t in np.linspace(0.0, 10.0, 101))
    assert worst < 1e-8


def test_dominating_constant_phi():
    v0 = solve_dominating(PhiFunction(a=1.0, fn=lambda s: 1.0), 2.0, 10.0)
    for t in (0.0, 1.0, 5.5, 10.0):
        assert v0(t) == pytest.approx(2.0 + t, abs=1e-12)


def test_dominating_sqrt():
    v0 = solve_dominating(PhiFunction(a=1.0, fn=lambda s: 2.0 * np.sqrt(s)), 1.0, 10.0)
    worst = max(abs(v0(t) - (1.0 + t) ** 2) for t in np.linspace(0.0, 10.0, 101))
    assert worst < 1e-8


def test_dominating_requires_divergence():
    with pytest.raises(HypothesisViolated, match="Converges"):
        solve_dominating(PhiFunction(a=1.0, fn=lambda s: s * s), 1.0, 5.0)


def test_dominating_rejects_bad_init():
    with pytest.raises(ValueError, match="below the left endpoint"):
        solve_dominating(PhiFunction(a=1.0, fn=lambda s: s), 0.5, 5.0)


def test_time_of_round_trip():
    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = solve_dominating(phi, 1.0, 10.0)
    for t in np.linspace(0.1, 10.0, 23):
        assert abs(v0.time_of(v0(t)) - t) < 1e-9


def test_dominating_ode_residual():
    # |v0' - phi(v0)| under 1e-8 relative, derivative by centered differences
    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = solve_dominating(phi, 1.0, 10.0)
    worst = 0.0
    for t in np.linspace(0.5, 9.5, 19):
        h = 1e-5 * max(1.0, t)  # near-optimal: truncation h^2/6 vs roundoff eps/h
        deriv = (v0(t + h) - v0(t - h)) / (2.0 * h)
        target = phi(v0(t))
        worst = max(worst, abs(deriv - target) / max(1.0, abs(target)))
    assert worst < 1e-8


def test_dominating_strictly_increasing():
    v0 = solve_dominating(PhiFunction(a=1.0, fn=lambda s: 1.0 + 0.3 * s), 1.5, 8.0)
    ts = np.linspace(0.0, 8.0, 200)
    vals = np.array([v0(t) for t in ts])
    assert np.all(np.diff(vals) > 0)


def test_envelope_equality_case():
    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = solve_dominating(phi, 1.0, 5.0)
    ts = np.linspace(0.0, 5.0, 400)
    vs = np.array([v0(t) for t in ts])
    report = verify_envelope(ts, vs, phi, v0)
    assert report.passed
    assert report.hypothesis_ok
    assert abs(report.margin) <= report.quadrature_slack


def test_envelope_constant_under_exponential():
    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = solve_dominating(phi, 1.0, 5.0)
    ts = np.linspace(0.0, 5.0, 200)
    vs = np.ones_like(ts)
    report = verify_envelope(ts, vs, phi, v0)
    assert report.passed
    assert report.margin == pytest.approx(0.0, abs=1e-9)  # worst margin at t = 0
    # margin grows like e^t - 1 toward the end
    assert v0(5.0) - 1.0 == pytest.approx(np.exp(5.0) - 1.0, rel=1e-8)


def test_envelope_detects_violation():
    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = solve_dominating(phi, 1.0, 3.0)
    ts = np.linspace(0.0, 3.0, 100)
    vs = np.exp(2.0 * ts)  # grows faster than the dominating solution allows
    report = verify_envelope(ts, vs, phi, v0)
    assert not report.passed
    assert report.margin < 0
    # the integral hypothesis itself fails for this v
    assert not report.hypothesis_ok


def test_envelope_on_independent_fine_integration():
    # the shifted energy of the time-dependent oscillator, produced by a
    # fixed-step classical RK4 written here (independent of the adaptive
    # production integrator), stays under the linear-rate dominating solution
    def rhs(t, y):
        x, w = y[:2], y[2:]
        return np.concatenate([w, -2.0 * np.exp(t) * x])

    h = 2.5e-4
    steps = int(3.0 / h)
    y = np.array([0.5, -0.3, 1.0, 0.2])
    t = 0.0
    ts, vs = [], []

    def energy(t, y):
        x, w = y[:2], y[2:]
        return 0.5 * float(w @ w) + np.exp(t) * (1.0 + float(x @ x)) + 1.0

    for k in range(steps + 1):
        if k % 20 == 0:
            ts.append(t)
            vs.append(energy(t, y))
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + h / 2 * k1)
        k3 = rhs(t + h / 2, y + h / 2 * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    ts = np.array(ts)
    vs = np.array(vs)

    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = solve_dominating(phi, float(vs[0]), 3.1)
    rep = verify_envelope(ts, vs, phi, v0)
    assert rep.passed
    assert rep.margin >= -rep.quadrature_slack
    # strictly positive separation away from the shared starting point
    later = ts > 1.0
    margins = np.array([v0(t) - v for t, v in zip(ts[later], vs[later])])
    assert margins.min() > 0.1

    # the production trajectory agrees with the independent integration
    from wavetraj.catalog import build_manifold, build_potential
    from wavetraj.dynamics import build_energy_frame, energy_v
    from wavetraj.integrate import IntegratorConfig, integrate, sample

    m = build_manifold("euclidean", {"n": 2})
    fs = build_potential("exp_time_quadratic", {}, 2)
    from conftest import window

    frame = build_energy_frame(window(lambda t: 1.0, lambda t: 0.0, 3.0), 0.0)
    traj = integrate(m, fs, (np.array([0.5, -0.3]), np.array([1.0, 0.2])),
                     IntegratorConfig(horizon=3.0))
    x, xd = sample(traj, ts)
    assert np.abs(energy_v(m, fs, frame, (x, xd, ts)) - vs).max() < 1e-6


@settings(max_examples=20, deadline=None)
@given(
    c0=st.floats(min_value=0.1, max_value=3.0),
    c1=st.floats(min_value=0.0, max_value=2.0),
    frac=st.floats(min_value=0.0, max_value=1.0),
    v_init=st.floats(min_value=0.2, max_value=4.0),
)
def test_envelope_soundness_on_constructed_v(c0, c1, frac, v_init):
    # v built as v(0) + int phi(w) for a minorant w <= v satisfies the integral
    # hypothesis by monotonicity, so the envelope check must pass
    phi = PhiFunction(a=0.0, fn=lambda s: c0 + c1 * s)
    alpha = frac * phi(v_init)  # w(t) = v_init + alpha t stays below v
    ts = np.linspace(0.0, 4.0, 600)
    ws = v_init + alpha * ts
    phiw = c0 + c1 * ws
    vs = v_init + np.concatenate([[0.0], np.cumsum(0.5 * (phiw[1:] + phiw[:-1]) * np.diff(ts))])
    v0 = solve_dominating(phi, v_init, 4.0)
    report = verify_envelope(ts, vs, phi, v0)
    assert report.passed, report


def test_dominating_solution_direct_construction():
    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = DominatingSolution(phi, 2.0, 5.0)
    assert v0(0.0) == 2.0
    assert v0(1.0) == pytest.approx(2.0 * np.e, rel=1e-10)
