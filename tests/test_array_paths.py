"""Each array path against the one-call-per-sample path it stands in for.

Premise scans, the linear-growth slices, the dense output of a trajectory,
the v-quadrature of a split geodesic and the comparison quadrature each make
one array call where they made one call per sample. The per-sample path is
the reference: the same sources with their array forms removed.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wavetraj import comparison
from wavetraj.catalog import build_manifold, build_potential, build_wave
from wavetraj.comparison import DominatingSolution, PhiFunction, adaptive_quad, check_divergence
from wavetraj.errors import EvaluationError, HypothesisViolated, OutOfRange
from wavetraj.expressions import parse_expression
from wavetraj.gpw import GeodesicInitialData, GpwSpacetime, _conserved_vdot, reduce_geodesic
from wavetraj.hypotheses import (BoundData, check_bounded_below, check_dVdt_bound,
                                 check_linear_growth_gradH, check_wave_bounded_above,
                                 check_wave_du_bound)
from wavetraj.integrate import BACKWARD, FORWARD, IntegratorConfig, integrate, sample
from wavetraj.scenario import parse_scenario

from conftest import box_grid


def time_bounds(alpha, beta, reach=2.0, side=9, T=3.0, dim=2):
    """BoundData with expression bounds in t, and their array forms."""
    a = parse_expression(alpha, ("t",))
    b = parse_expression(beta, ("t",))
    return BoundData(alpha0=a, beta0=b, alpha0_array=a.on_arrays, beta0_array=b.on_arrays,
                     grid=box_grid([-reach] * dim, [reach] * dim, [side] * dim),
                     t_grid=np.linspace(-T, T, 41))


def scalar_only(bd):
    return replace(bd, alpha0_array=None, beta0_array=None)


def expression_potential(text, reach=2.0):
    raw = {"name": "p", "task": "certify",
           "manifold": {"catalog": "euclidean", "params": {"n": 2}},
           "force": {"potential": {"expr": text}},
           "bounds": {"alpha0": "1", "beta0": "0", "T": 2.0,
                      "grid": {"min": [-reach, -reach], "max": [reach, reach], "shape": [7, 7]}}}
    sc = parse_scenario(raw)
    return sc.force, sc.bounds


def _fail(*args):
    raise AssertionError("the per-sample source was called")


@pytest.mark.parametrize("name", ["harmonic", "exp_time_quadratic", "negative_quartic", "zero"])
def test_catalog_potential_scans_equal_the_loop_bit_for_bit(name):
    fs = build_potential(name, {})
    bd = time_bounds("1 + 0.1*t^2", "-1 - cos(t)")
    looped = (replace(fs, potential_array=None, potential_dt_array=None), scalar_only(bd))
    assert check_bounded_below(fs, bd) == check_bounded_below(*looped)
    for signed in ("two_sided", "forward", "backward"):
        assert check_dVdt_bound(fs, bd, signed) == check_dVdt_bound(*looped, signed)


def test_a_finite_scan_makes_no_per_sample_call():
    fs = replace(build_potential("harmonic", {}), potential=_fail, potential_dt=_fail)
    bd = replace(time_bounds("1", "0"), alpha0=_fail, beta0=_fail)
    check = check_bounded_below(fs, bd)
    assert check.passed and check.margin == 0.0
    assert check.worst_point == (0.0, 0.0) and check.worst_t == -3.0
    assert check_dVdt_bound(fs, bd).margin == 0.0


def test_expression_potential_scans_equal_the_loop():
    fs, bd = expression_potential("exp(-t)*(1 + x1^2 + x2^2)^1.5 - sin(x1*x2)")
    looped = (replace(fs, potential_array=None, potential_dt_array=None), scalar_only(bd))
    for check in (check_bounded_below, check_dVdt_bound):
        a, b = check(fs, bd), check(*looped)
        assert (a.passed, a.worst_point, a.worst_t) == (b.passed, b.worst_point, b.worst_t)
        assert a.margin == pytest.approx(b.margin, rel=1e-14, abs=1e-14)


def test_a_scan_with_a_failed_sample_leaves_the_error_to_the_loop():
    # log(x1 + 1) cannot be evaluated on the grid's x1 <= -1 column: the
    # array value there is NaN, and the loop raises at the first such sample
    fs, bd = expression_potential("log(x1 + 1)")
    with pytest.raises(EvaluationError) as batched:
        check_bounded_below(fs, bd)
    with pytest.raises(EvaluationError) as looped:
        check_bounded_below(replace(fs, potential_array=None), scalar_only(bd))
    assert str(batched.value) == str(looped.value)


def _without_arrays(wave):
    return replace(wave, h_array=None, h_dx_array=None, h_du_array=None)


WAVES = [
    ("plane_wave", {"f1": "1 + 0.5*u^2", "f2": "2", "f": "0.3*u"}),
    ("plane_wave", {"f1": "exp(-u^2)", "f2": "cos(u)", "f": "sinh(u)/3"}),
    ("expression", {"H": "-(x1^2 + x2^2)^2 + x1*sin(u)", "n": 2}),
    ("expression", {"H": "x1^3 - x2 + u", "n": 2}),
]


@pytest.mark.parametrize("name,params", WAVES)
def test_wave_scans_equal_the_loop(name, params):
    wave = build_wave(name, params)
    bd = time_bounds("1", "0", reach=4.0, side=11)
    looped = (_without_arrays(wave), scalar_only(bd))
    for a, b in ((check_wave_bounded_above(wave, bd), check_wave_bounded_above(*looped)),
                 (check_wave_du_bound(wave, bd), check_wave_du_bound(*looped))):
        assert (a.passed, a.worst_point, a.worst_t) == (b.passed, b.worst_point, b.worst_t)
        assert a.margin == pytest.approx(b.margin, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("name,params", WAVES)
@pytest.mark.parametrize("manifold", [
    ("euclidean", {"n": 2}),
    ("diagonal_conformal", {"entries": ["1 + 0.2*x1^2", "2 + sin(x2)"]}),
])
def test_linear_growth_slices_equal_the_pointwise_path(name, params, manifold):
    wave = build_wave(name, params)
    m = build_manifold(*manifold)
    grid = box_grid([-4, -4], [4, 4], [9, 9])
    args = (grid, np.array([0.5, -0.5]), np.linspace(-2.0, 2.0, 9))
    a = check_linear_growth_gradH(m, wave, *args)
    b = check_linear_growth_gradH(m, _without_arrays(wave), *args)
    assert (a.passed, a.worst_t) == (b.passed, b.worst_t)
    assert a.margin == pytest.approx(b.margin, rel=1e-12, abs=1e-12)
    assert a.values["max_ratio"] == pytest.approx(b.values["max_ratio"], rel=1e-13)


def test_linear_growth_leaves_a_failed_slice_to_the_pointwise_path(euclidean2):
    wave = build_wave("expression", {"H": "sqrt(x1 + 1)*u", "n": 2})
    grid = box_grid([-4, -4], [4, 4], [9, 9])
    args = (grid, np.zeros(2), np.linspace(-1.0, 1.0, 3))
    with pytest.raises(EvaluationError) as batched:
        check_linear_growth_gradH(euclidean2, wave, *args)
    with pytest.raises(EvaluationError) as pointwise:
        check_linear_growth_gradH(euclidean2, _without_arrays(wave), *args)
    assert str(batched.value) == str(pointwise.value)


@pytest.mark.parametrize("direction", [FORWARD, BACKWARD])
def test_sample_on_an_array_of_times(euclidean2, harmonic, direction):
    traj = integrate(euclidean2, harmonic, (np.array([1.0, 0.3]), np.array([0.0, 0.7])),
                     IntegratorConfig(horizon=6.0), direction)
    lo, hi = traj.t_span
    ts = np.concatenate([np.linspace(lo, hi, 501), traj.times])
    x, xdot = sample(traj, ts)
    rows = [sample(traj, t) for t in ts]
    assert x.shape == xdot.shape == (ts.size, 2)
    # a scalar time squares through pow, an array by multiplication
    assert_allclose(x, [r[0] for r in rows], rtol=4e-16, atol=4e-16)
    assert_allclose(xdot, [r[1] for r in rows], rtol=4e-16, atol=4e-16)
    # at the nodes the weights are exactly 0 and 1
    n = traj.times.size
    assert_array_equal(np.hstack([x[-n:], xdot[-n:]]), traj.states)
    with pytest.raises(OutOfRange, match="outside covered interval"):
        sample(traj, np.array([lo, hi + 1.0, hi]))


@pytest.mark.parametrize("name,params", WAVES[:3])
def test_v_quadrature_equals_one_state_at_a_time(name, params):
    st = GpwSpacetime(base=build_manifold("euclidean", {"n": 2}), wave=build_wave(name, params),
                      nonzero_witness=(np.array([1.0, 0.5]), 0.3))
    init = GeodesicInitialData(x0=np.array([0.3, -0.2]), xdot0=np.array([0.1, 0.4]),
                               u0=0.2, udot0=0.8, vdot0=0.5)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=1.0), v_sample_count=129)
    one_by_one = []
    for t in sg.v_times:
        x, xdot = sample(sg.base_trajectory, t)
        h = st.wave.value(x, init.u0 + sg.delta * t)
        one_by_one.append((sg.energy - float(xdot @ xdot) - h * sg.delta * sg.delta)
                          / (2.0 * sg.delta))
    assert_allclose(sg.v_dots, one_by_one, rtol=1e-14, atol=1e-14)


def test_vdot_of_a_state_where_h_fails_raises():
    st = GpwSpacetime(base=build_manifold("euclidean", {"n": 2}),
                      wave=build_wave("expression", {"H": "log(x1)", "n": 2}),
                      nonzero_witness=(np.array([2.0, 0.0]), 0.0))
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    with pytest.raises(EvaluationError, match="log"):
        _conserved_vdot(st, 0.0, 1.0, x, np.zeros((2, 2)), np.zeros(2))


def test_quadrature_calls_the_integrand_once_per_panel():
    calls = []

    def integrand(s):
        calls.append(s.size)
        return np.exp(s)

    assert adaptive_quad(integrand, 0.0, 2.0) == pytest.approx(np.expm1(2.0), rel=1e-13)
    assert set(calls) == {48}
    coarse, fine = comparison._gl_apply(integrand, 0.0, 2.0)
    assert fine == pytest.approx(np.expm1(2.0), rel=1e-15) and calls[-1] == 48


@pytest.mark.parametrize("text", ["0.7*sqrt(s)", "0.4*(s + 1.3)", "0.6*s", "s*log(s + 1)"])
def test_dominating_solution_equals_the_per_node_quadrature(text):
    expr = parse_expression(text, ("s",))
    batched = PhiFunction(a=1.0, fn=expr, fn_array=expr.on_arrays)
    per_node = PhiFunction(a=1.0, fn=expr)
    assert check_divergence(batched) == check_divergence(per_node)
    v_a = DominatingSolution(batched, 2.0, 3.0)
    v_b = DominatingSolution(per_node, 2.0, 3.0)
    ts = np.linspace(0.0, 3.0, 25)
    got, want = [v_a(t) for t in ts], [v_b(t) for t in ts]
    if text == "s*log(s + 1)":
        # numpy's log differs from Python's in the last bit now and then
        assert_allclose(got, want, rtol=1e-13)
    else:
        assert got == want


def test_phi_values_leave_a_failed_point_to_fn():
    expr = parse_expression("sqrt(s - 2) + 1", ("s",))
    with pytest.raises(EvaluationError, match="sqrt"):
        PhiFunction(a=1.0, fn=expr, fn_array=expr.on_arrays)


def test_quadrature_node_where_phi_is_not_positive_raises():
    phi = PhiFunction(a=1.0, fn=lambda s: s, fn_array=lambda s: s)
    with pytest.raises(HypothesisViolated, match="not positive"):
        adaptive_quad(phi.reciprocal, -1.0, 1.0)
