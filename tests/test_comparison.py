import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavetraj.comparison import (CONVERGES, DIVERGES, INCONCLUSIVE, DominatingSolution,
                                 PhiFunction, adaptive_quad, check_divergence,
                                 solve_dominating, verify_envelope)
from wavetraj.errors import HypothesisViolated
from wavetraj.expressions import with_array_form
from wavetraj.runner import run_scenario
from wavetraj.scenario import bundled_scenarios, load_scenario


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


def test_dominating_ode_residual():
    # |v0' - phi(v0)| under 1e-8 relative, derivative by centered differences
    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = solve_dominating(phi, 1.0, 10.0)
    worst = 0.0
    for t in np.linspace(0.5, 9.5, 19):
        h = 1e-5 * max(1.0, t)  # near-optimal: truncation h^2/6 vs roundoff eps/h
        deriv = (v0(t + h) - v0(t - h)) / (2.0 * h)
        target = phi.fn(v0(t))
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
    alpha = frac * phi.fn(v_init)  # w(t) = v_init + alpha t stays below v
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


def _reference_query(phi, v0_init, t):
    """v0(t) by the per-query algorithm that DominatingSolution.values replaced.

    t(w) on doubling nodes, one adaptive quadrature per segment; then 8
    bisection steps on the segment holding t and Newton with dt/dw = 1/phi(w),
    each step a fresh adaptive quadrature from the segment's start.
    """
    nodes_w, nodes_t = [v0_init], [0.0]
    width = max(1.0, abs(v0_init))
    while nodes_t[-1] < t:
        w_next = nodes_w[-1] + width
        width *= 2.0
        phi.extend_certificate(w_next)
        nodes_t.append(nodes_t[-1] + adaptive_quad(phi.reciprocal, nodes_w[-1], w_next))
        nodes_w.append(w_next)
    if t == 0.0:
        return v0_init
    i = min(bisect.bisect_right(nodes_t, t) - 1, len(nodes_t) - 2)
    w_lo, w_hi, t_lo = nodes_w[i], nodes_w[i + 1], nodes_t[i]

    def elapsed(w):
        return t_lo + adaptive_quad(phi.reciprocal, nodes_w[i], w)

    for _ in range(8):
        w_mid = 0.5 * (w_lo + w_hi)
        if elapsed(w_mid) > t:
            w_hi = w_mid
        else:
            w_lo = w_mid
    w = 0.5 * (w_lo + w_hi)
    for _ in range(60):
        w_new = min(max(w - (elapsed(w) - t) * phi.fn(w), w_lo), w_hi)
        settled = abs(w_new - w) <= 1e-15 * max(1.0, abs(w))
        w = w_new
        if settled:
            break
    return w


_PHI_FAMILIES = {
    "c*s": lambda c, b: lambda s: c * s,
    "c*(s+b)": lambda c, b: lambda s: c * (s + b),
    "c*sqrt(s)": lambda c, b: lambda s: c * np.sqrt(s),
}


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(sorted(_PHI_FAMILIES)),
    c=st.floats(min_value=0.1, max_value=3.0),
    b=st.floats(min_value=0.0, max_value=3.0),
    v_init=st.floats(min_value=1.0, max_value=5.0),
    t_max=st.floats(min_value=0.5, max_value=8.0),
    fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
)
def test_batch_values_equal_single_queries_of_the_per_query_algorithm(
        family, c, b, v_init, t_max, fractions):
    fn = _PHI_FAMILIES[family](c, b)
    phi = PhiFunction(a=1.0, fn=with_array_form(fn, fn))
    ts = t_max * np.array(fractions)
    got = DominatingSolution(phi, v_init, t_max).values(ts)
    want = np.array([_reference_query(phi, v_init, float(t)) for t in ts])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (got, want)


def test_values_take_zero_among_other_times_and_any_order():
    phi = PhiFunction(a=1.0, fn=lambda s: s)
    v0 = DominatingSolution(phi, 2.0, 5.0)
    ts = np.array([3.0, 0.0, 1.0, 4.5, 0.0, 0.25])
    got = v0.values(ts)
    assert got[1] == got[4] == 2.0
    np.testing.assert_allclose(got, 2.0 * np.exp(ts), rtol=1e-13)
    # each time's value does not depend on the others in the batch
    assert [v0(t) for t in ts] == got.tolist()
    assert v0.values(np.sort(ts)).tolist() == np.sort(got).tolist()


def test_values_of_no_times_is_empty():
    v0 = DominatingSolution(PhiFunction(a=1.0, fn=lambda s: s), 2.0, 5.0)
    assert v0.values(np.array([])).shape == (0,)


def test_values_past_t_max_extend_the_table():
    v0 = DominatingSolution(PhiFunction(a=1.0, fn=lambda s: s), 1.0, 2.0)
    np.testing.assert_allclose(v0.values(np.array([1.0, 12.0])), np.exp([1.0, 12.0]), rtol=1e-12)


@pytest.mark.parametrize("t", [-1e-300, -1.0, float("nan")])
def test_values_before_zero_raise(t):
    v0 = DominatingSolution(PhiFunction(a=1.0, fn=lambda s: s), 1.0, 2.0)
    with pytest.raises(ValueError, match="t >= 0"):
        v0.values(np.array([1.0, t]))
    with pytest.raises(ValueError, match="t >= 0"):
        v0(t)


def test_a_jump_in_phi_is_an_unconverged_panel():
    # phi = 1 below 2.3 and 2 above: no panel around the jump meets the
    # tolerance before the bisection depth cap
    phi = PhiFunction(a=1.0, fn=lambda s: 1.0 if s < 2.3 else 2.0)
    v0 = DominatingSolution(phi, 1.0, 3.0)
    assert v0.unconverged_panels == 1
    ts = np.linspace(0.0, 3.0, 31)
    exact = np.where(ts < 1.3, 1.0 + ts, 2.3 + 2.0 * (ts - 1.3))
    np.testing.assert_allclose(v0.values(ts), exact, rtol=1e-12)


def test_a_divergence_check_across_a_jump_is_inconclusive():
    # 1/phi on [1, inf) diverges like the linear case, but the panel that
    # straddles the jump at 2.3 is accepted unconverged, so no verdict rests on it
    phi = PhiFunction(a=1.0, fn=lambda s: 1.0 if s < 2.3 else 2.0)
    report = check_divergence(phi)
    assert report.unconverged_panels == 1
    assert report.verdict == INCONCLUSIVE and report.estimate is None
    smooth = check_divergence(PhiFunction(a=1.0, fn=lambda s: 2.0))
    assert smooth.verdict == DIVERGES and smooth.unconverged_panels == 0
    # the partial integral keeps adaptive_quad's floats, window by window
    total, right = adaptive_quad(phi.reciprocal, 1.0, 2.0, rel_tol=1e-13), 2.0
    for _ in range(report.doublings):
        new_right = 1.0 + (right - 1.0) * 2.0
        total += adaptive_quad(phi.reciprocal, right, new_right, rel_tol=1e-13)
        right = new_right
    assert (report.partial_integral, report.reached) == (total, right)


def test_a_compare_lemma_report_counts_unconverged_divergence_panels(tmp_path):
    sc = load_scenario(bundled_scenarios()["compare-linear"])
    report = run_scenario(sc, tmp_path / "smooth").comparison
    assert report["divergence_verdict"] == DIVERGES
    assert report["divergence_unconverged_panels"] == 0
    # phi = s with a jump to 2s at 2.3: no dominating solution rests on the jump
    sc.compare["phi"] = lambda s: s if s < 2.3 else 2.0 * s
    report = run_scenario(sc, tmp_path / "jump").comparison
    assert report["divergence_verdict"] == INCONCLUSIVE
    assert report["divergence_unconverged_panels"] == 1
    assert "v0_at_t_max" not in report and "tail_estimate" not in report


def test_a_smooth_phi_has_no_unconverged_panel():
    v0 = DominatingSolution(PhiFunction(a=1.0, fn=lambda s: 0.5 * np.sqrt(s) + 1.0), 1.0, 20.0)
    assert v0.unconverged_panels == 0


@pytest.mark.parametrize("scenario", ["compare-linear", "exp-envelope"])
def test_a_bundled_comparison_evaluates_phi_at_most_250_times(scenario, monkeypatch, tmp_path):
    # one table and batched Newton: the per-query inversion made 1253 and 3174 calls
    calls = []
    values = PhiFunction.values

    def counting(self, ss):
        calls.append(np.size(ss))
        return values(self, ss)

    monkeypatch.setattr(PhiFunction, "values", counting)
    run_scenario(load_scenario(bundled_scenarios()[scenario]), tmp_path)
    assert 0 < len(calls) <= 250
