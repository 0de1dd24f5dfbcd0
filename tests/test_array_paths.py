"""Each array path against the one-call-per-sample path it stands in for.

Premise scans, the linear-growth slices, the dense output of a trajectory,
the v-quadrature of a split geodesic and the comparison quadrature each make
one array call where they made one call per sample. The per-sample path is
the reference: the same sources wrapped in plain functions, which have no
array form. A source's array form belongs to the callable, so replacing the
source replaces its array form too.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wavetraj import comparison, gpw, hypotheses, runner
from wavetraj.catalog import build_manifold, build_potential, build_wave
from wavetraj.comparison import DominatingSolution, PhiFunction, adaptive_quad, check_divergence
from wavetraj.errors import EvaluationError, HypothesisViolated, OutOfRange
from wavetraj.expressions import array_form, on_rows, parse_expression, with_array_form
from wavetraj.gpw import GeodesicInitialData, GpwSpacetime, _conserved_vdot, reduce_geodesic
from wavetraj.hypotheses import (BoundData, check_bounded_below, check_dVdt_bound,
                                 check_linear_growth_gradH, check_wave_bounded_above,
                                 check_wave_du_bound)
from wavetraj.integrate import BACKWARD, FORWARD, IntegratorConfig, integrate, sample
from wavetraj.runner import run_scenario
from wavetraj.scenario import bundled_scenarios, load_scenario, parse_scenario

from conftest import box_grid

CATALOG_POTENTIALS = ["harmonic", "exp_time_quadratic", "negative_quartic", "zero"]


def _fail(*args):
    raise AssertionError("the per-sample source was called")


def plain(fn):
    """fn wrapped in a plain function, which has no array form."""
    return lambda *args: fn(*args)


def array_only(fn):
    """A source with fn's array form whose scalar call fails the test."""
    return with_array_form(lambda *args: _fail(), array_form(fn))


def swap(holder, wrap, *names):
    """holder with each named source replaced by wrap(source)."""
    return replace(holder, **{name: wrap(getattr(holder, name)) for name in names})


def time_bounds(alpha, beta, reach=2.0, side=9, T=3.0, dim=2):
    """BoundData with expression bounds in t, which carry their array forms."""
    return BoundData(alpha0=parse_expression(alpha, ("t",)), beta0=parse_expression(beta, ("t",)),
                     grid=box_grid([-reach] * dim, [reach] * dim, [side] * dim),
                     t_grid=np.linspace(-T, T, 41))


def expression_potential(text, reach=2.0, alpha="1", beta="0"):
    """The force and the expression bounds of a certify scenario with potential text."""
    raw = {"name": "p", "task": "certify",
           "manifold": {"catalog": "euclidean", "params": {"n": 2}},
           "force": {"potential": {"expr": text}},
           "bounds": {"alpha0": alpha, "beta0": beta, "T": 2.0,
                      "grid": {"min": [-reach, -reach], "max": [reach, reach], "shape": [7, 7]}}}
    sc = parse_scenario(raw)
    return sc.force, sc.bounds


@pytest.mark.parametrize("name", CATALOG_POTENTIALS)
def test_catalog_potential_scans_equal_the_loop_bit_for_bit(name):
    fs = build_potential(name, {}, 2)
    bd = time_bounds("1 + 0.1*t^2", "-1 - cos(t)")
    looped = (swap(fs, plain, "potential", "potential_dt"), swap(bd, plain, "alpha0", "beta0"))
    assert check_bounded_below(fs, bd) == check_bounded_below(*looped)
    for signed in ("two_sided", "forward", "backward"):
        assert check_dVdt_bound(fs, bd, signed) == check_dVdt_bound(*looped, signed)


def test_a_finite_scan_makes_no_per_sample_call():
    expression, bd = expression_potential("exp(-t)*(1 + x1^2 + x2^2)^1.5 - sin(x1*x2)",
                                          alpha="1 + 0.1*u^2", beta="-1 - cos(t)")
    strict_bd = swap(bd, array_only, "alpha0", "beta0")
    for fs in [build_potential(name, {}, 2) for name in CATALOG_POTENTIALS] + [expression]:
        strict = swap(fs, array_only, "potential", "potential_dt")
        assert check_bounded_below(strict, strict_bd) == check_bounded_below(fs, bd)
        for signed in ("two_sided", "forward", "backward"):
            assert check_dVdt_bound(strict, strict_bd, signed) == check_dVdt_bound(fs, bd, signed)


def test_expression_potential_scans_equal_the_loop():
    fs, bd = expression_potential("exp(-t)*(1 + x1^2 + x2^2)^1.5 - sin(x1*x2)")
    looped = (swap(fs, plain, "potential", "potential_dt"), swap(bd, plain, "alpha0", "beta0"))
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
        check_bounded_below(swap(fs, plain, "potential"), swap(bd, plain, "beta0"))
    assert str(batched.value) == str(looped.value)


WAVE_SOURCES = ("h", "h_dx", "h_du")

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
    looped = (swap(wave, plain, *WAVE_SOURCES), swap(bd, plain, "alpha0", "beta0"))
    for a, b in ((check_wave_bounded_above(wave, bd), check_wave_bounded_above(*looped)),
                 (check_wave_du_bound(wave, bd), check_wave_du_bound(*looped))):
        assert (a.passed, a.worst_point, a.worst_t) == (b.passed, b.worst_point, b.worst_t)
        assert a.margin == pytest.approx(b.margin, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("name,params", WAVES)
def test_a_finite_wave_scan_makes_no_per_sample_call(name, params, euclidean2):
    wave = build_wave(name, params)
    _, bd = expression_potential("0", reach=4.0, alpha="1 + 0.1*u^2", beta="2 - cos(t)")
    strict = (swap(wave, array_only, *WAVE_SOURCES), swap(bd, array_only, "alpha0", "beta0"))
    assert check_wave_bounded_above(*strict) == check_wave_bounded_above(wave, bd)
    assert check_wave_du_bound(*strict) == check_wave_du_bound(wave, bd)
    args = (bd.grid, np.zeros(2), bd.t_grid)
    assert (check_linear_growth_gradH(euclidean2, strict[0], *args)
            == check_linear_growth_gradH(euclidean2, wave, *args))
    x, u = bd.grid, np.linspace(-1.0, 1.0, bd.grid.shape[0])
    assert_array_equal(strict[0].value_rows(x, u), wave.value_rows(x, u))


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
    b = check_linear_growth_gradH(m, swap(wave, plain, *WAVE_SOURCES), *args)
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
        check_linear_growth_gradH(euclidean2, swap(wave, plain, *WAVE_SOURCES), *args)
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
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=1.0))
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
    batched = PhiFunction(a=1.0, fn=expr)
    per_node = PhiFunction(a=1.0, fn=plain(expr))
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
        PhiFunction(a=1.0, fn=expr)


def test_phi_and_the_envelope_bounds_are_called_on_python_floats(tmp_path):
    # a division by zero in numpy scalars would give inf and a RuntimeWarning
    phi = PhiFunction(a=1.0, fn=parse_expression("s + 1/(s - 20)^2", ("s",)))
    envelope = load_scenario(bundled_scenarios()["exp-envelope"], ["bounds.alpha0=1/t"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (phi.values, phi.reciprocal):
            with pytest.raises(EvaluationError) as exc:
                call(np.array([19.0, 20.0]))
            assert (exc.value.source, exc.value.point) == ("s + 1/(s - 20)^2", {"s": 20.0})
        # the energy frame takes A_T at every time of t_grid, which holds t = 0
        with pytest.raises(EvaluationError) as exc:
            run_scenario(envelope, tmp_path)
        assert (exc.value.source, exc.value.point) == ("1/t", {"t": 0.0, "u": 0.0})


def test_quadrature_node_where_phi_is_not_positive_raises():
    phi = PhiFunction(a=1.0, fn=with_array_form(lambda s: s, lambda s: s))
    with pytest.raises(HypothesisViolated, match="not positive"):
        adaptive_quad(phi.reciprocal, -1.0, 1.0)


def _phis_of(scenario, monkeypatch, tmp_path):
    """Run a bundled scenario; the comparison functions the runner built for it."""
    made = []

    def recording(**kwargs):
        made.append(PhiFunction(**kwargs))
        return made[-1]

    monkeypatch.setattr(runner, "PhiFunction", recording)
    run_scenario(load_scenario(bundled_scenarios()[scenario]), tmp_path)
    assert made
    return made


@pytest.mark.parametrize("scenario", ["compare-linear", "exp-envelope", "gpw-well-certify",
                                      "plane-wave-certify"])
def test_runs_evaluate_phi_and_waves_on_arrays(scenario, monkeypatch, tmp_path):
    # every values, value_rows and linear-growth call is served by an array form
    def strict(source, scalar, *args):
        return on_rows(source, _fail, *args)

    for module in (comparison, gpw, hypotheses):
        monkeypatch.setattr(module, "on_rows", strict)
    run_scenario(load_scenario(bundled_scenarios()[scenario]), tmp_path)


# A source replaced in its holder takes its array form with it: the scans and
# values calls evaluate the new source, never the old one's array form.

def test_a_replaced_potential_is_the_one_scanned():
    fs = replace(build_potential("harmonic", {}, 2), potential=lambda x, t: -1e9)
    bd = time_bounds("1", "0")
    check = check_bounded_below(fs, bd)
    assert not check.passed and check.margin == -1e9
    fs = replace(fs, potential=lambda x, t: 1.0, potential_dt=lambda x, t: 3.0)
    assert check_dVdt_bound(fs, bd).margin == -2.0


def test_a_replaced_wave_source_is_the_one_scanned(euclidean2):
    wave = build_wave("expression", {"H": "(x1^2 + x2^2)^2 + u", "n": 2})
    other = replace(wave, h=lambda x, u: 1e9, h_du=lambda x, u: 0.0)
    bd = time_bounds("1", "0", reach=4.0, side=11)
    assert check_wave_bounded_above(other, bd).margin == -1e9
    assert check_wave_du_bound(other, bd).margin == 1.0 * (0.0 - 1e9)
    x, u = bd.grid, np.zeros(bd.grid.shape[0])
    assert_array_equal(other.value_rows(x, u), np.full(u.size, 1e9))
    # a gradient of constant norm passes the growth check; a cubic one does not
    args = (bd.grid, np.zeros(2), bd.t_grid)
    assert not check_linear_growth_gradH(euclidean2, wave, *args).passed
    flat = replace(wave, h_dx=lambda x, u: np.array([1.0, 0.0]))
    assert check_linear_growth_gradH(euclidean2, flat, *args).passed


def test_a_replaced_bound_is_the_one_scanned():
    fs, bd = expression_potential("x1^2 + x2^2")
    assert check_bounded_below(fs, bd).margin == 0.0
    assert check_bounded_below(fs, replace(bd, beta0=lambda t: 5.0)).margin == -5.0
    assert check_dVdt_bound(fs, replace(bd, alpha0=lambda t: -1.0)).margin == -8.0


@pytest.mark.parametrize("scenario", ["compare-linear", "exp-envelope"])
def test_a_replaced_phi_is_the_one_evaluated(scenario, monkeypatch, tmp_path):
    ss = np.linspace(1.0, 4.0, 7)
    for phi in _phis_of(scenario, monkeypatch, tmp_path):
        other = replace(phi, fn=lambda s: 2.0 * s + 1.0)
        assert_array_equal(other.values(ss), 2.0 * ss + 1.0)


def test_phi_with_a_nan_sample_is_rejected():
    with pytest.raises(HypothesisViolated, match="nan is not positive"):
        PhiFunction(a=1.0, fn=lambda s: float("nan"))
    with pytest.raises(HypothesisViolated, match="not positive"):
        PhiFunction(a=1.0, fn=lambda s: float("nan") if s > 5.0 else s)
    with pytest.raises(HypothesisViolated, match="not finite"):
        PhiFunction(a=1.0, fn=lambda s: float("inf") if s > 5.0 else s)
