"""The geodesic term Γ_lij v^i v^j of curved charts and the force equation built on it.

Each chart is checked three ways: against closed-form Christoffel symbols,
against the finite-difference reference (christoffel_at, with a forced step h
or the default one, and numdiff.gradient_fd of V), and for the hard errors
the checked metric evaluation raises.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import wavetraj
from wavetraj import catalog, geometry
from wavetraj.catalog import build_manifold
from wavetraj.dynamics import ForceSystem, energy_derivative_identity, operator_eigen_range, rhs_E
from wavetraj.errors import EvaluationError, NotPositiveDefinite
from wavetraj.expressions import array_form, parse_expression, with_array_form
from wavetraj.geometry import ChartManifold, christoffel_at, metric_at
from wavetraj.integrate import IntegratorConfig, integrate
from wavetraj.numdiff import gradient_fd
from wavetraj.scenario import parse_scenario

from conftest import tensor_force

# inside the hyperbolic chart, x2 > 0
POINTS = [np.array([0.3, 0.7]), np.array([-1.2, 0.4]), np.array([0.9, 1.1])]
VELOCITY = np.array([0.8, -0.5])


def _scenario(manifold, potential="0.5*x1^2 + x1*x2^3 + sin(t)*x2", tensor=True):
    force = {"potential": {"expr": potential}}
    if tensor:
        force["tensor"] = {"catalog": "skew_rotation", "params": {"omega": 0.6}}
    return parse_scenario({"name": "fused", "task": "integrate", "manifold": manifold,
                           "force": force, "integrator": {"horizon": 1.0},
                           "initial": {"position": [0.1, 0.2], "velocity": [0.3, -0.1]}})


def _conformal():
    return _scenario({"catalog": "diagonal_conformal",
                      "params": {"entries": ["1 + 0.1*x1^2 + 0.2*x2^2", "2 + sin(x1)*x2"]}})


def _rows():
    return _scenario({"metric": [["1 + x1^2", "0.5*x1*x2"], ["0.5*x2*x1", "2 + x2^2"]]})


def _conformal_partials(x):
    """dg[i] = ∂_i G of the _conformal chart, by hand."""
    x1, x2 = x
    return np.array([np.diag([0.2 * x1, np.cos(x1) * x2]), np.diag([0.4 * x2, np.sin(x1)])])


def _rows_partials(x):
    x1, x2 = x
    return np.array([[[2 * x1, 0.5 * x2], [0.5 * x2, 0.0]], [[0.0, 0.5 * x1], [0.5 * x1, 2 * x2]]])


def _hyperbolic():
    return _scenario({"catalog": "hyperbolic_half_plane"})


def _hyperbolic_partials(x):
    dw = -2.0 / x[1] ** 3
    return np.array([np.zeros((2, 2)), np.diag([dw, dw])])


def _closed_form_lower(dg):
    """Γ_lij = 1/2 (∂_i g_jl + ∂_j g_il − ∂_l g_ij), written out index by index."""
    n = dg.shape[0]
    lower = np.zeros((n, n, n))
    for l in range(n):
        for i in range(n):
            for j in range(n):
                lower[l, i, j] = 0.5 * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
    return lower


def _closed_form_gamma(g, dg):
    """Γ^k_ij = g^kl Γ_lij."""
    return np.einsum("kl,lij->kij", np.linalg.inv(g), _closed_form_lower(dg))


def _closed_form_term(dg, v):
    return np.einsum("lij,i,j->l", _closed_form_lower(dg), v, v)


def _potential_gradient(x, t):
    x1, x2 = x
    return np.array([x1 + x2 ** 3, 3 * x1 * x2 ** 2 + np.sin(t)])


# the hyperbolic entry's term is hand-written; the rows of _rows read differently transposed
CHARTS = [(_conformal, _conformal_partials), (_rows, _rows_partials),
          (_hyperbolic, _hyperbolic_partials)]
CHART_IDS = ["diagonal_conformal", "metric_rows", "hyperbolic"]


@pytest.mark.parametrize("build,partials", CHARTS, ids=CHART_IDS)
def test_geodesic_term_matches_closed_form_and_finite_differences(build, partials):
    m = build().manifold
    for x in POINTS:
        for v in (VELOCITY, np.array([-1.7, 0.25]), np.array([0.0, 3.0])):
            term = m.geodesic_term(x.tolist(), v.tolist())
            closed = _closed_form_term(partials(x), v)
            assert_allclose(term, closed, rtol=1e-13, atol=1e-14)
            # the finite-difference reference, lowered by G
            reference = metric_at(m, x) @ np.einsum("kij,i,j->k", christoffel_at(m, x, h=1e-5), v, v)
            assert_allclose(term, reference, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("build,partials", CHARTS, ids=CHART_IDS)
def test_fused_rhs_matches_closed_form_and_finite_difference_path(build, partials):
    sc = build()
    m, fs = sc.manifold, sc.force
    for x in POINTS:
        t = 0.4
        g = metric_at(m, x)
        gamma = _closed_form_gamma(g, partials(x))
        expected = (-np.einsum("kij,i,j->k", gamma, VELOCITY, VELOCITY)
                    + np.array(fs.tensor_F(x.tolist(), t)) @ VELOCITY
                    - np.linalg.solve(g, _potential_gradient(x, t)))
        fused = rhs_E(m, fs, (x, VELOCITY, t))
        assert_allclose(fused[:2], VELOCITY, rtol=0, atol=0)
        assert_allclose(fused[2:], expected, rtol=1e-13, atol=1e-13)
        # the finite-difference reference: christoffel_at and central differences of V
        reference = (-np.einsum("kij,i,j->k", christoffel_at(m, x), VELOCITY, VELOCITY)
                     + np.array(fs.tensor_F(x.tolist(), t)) @ VELOCITY
                     - np.linalg.solve(g, gradient_fd(lambda p: fs.potential(p.tolist(), t), x)))
        assert_allclose(np.concatenate([VELOCITY, reference]), fused, rtol=1e-8, atol=1e-9)


@pytest.mark.parametrize("build", [_conformal, _rows, _hyperbolic], ids=CHART_IDS)
def test_fused_rhs_makes_one_metric_call_and_no_christoffel_call(monkeypatch, build):
    sc = build()
    calls = []

    def counting(x):
        calls.append(x)
        return sc.manifold.metric(x)

    def unexpected(*args, **kwargs):
        raise AssertionError("the force equation must build neither the metric array "
                             "nor the Christoffel tensor")

    m = ChartManifold(dim=2, metric=counting, geodesic_term=sc.manifold.geodesic_term,
                      domain_guard=sc.manifold.domain_guard)
    monkeypatch.setattr(geometry, "metric_at", unexpected)
    monkeypatch.setattr(geometry, "christoffel_at", unexpected)
    monkeypatch.setattr(wavetraj, "christoffel_at", unexpected)
    rhs_E(m, sc.force, (POINTS[0], VELOCITY, 0.0))
    assert len(calls) == 1
    # nor does a whole run, with the scenario's own chart
    traj = integrate(sc.manifold, sc.force, (POINTS[0], VELOCITY), IntegratorConfig(horizon=1.0))
    assert traj.stats.n_rhs > 0


@pytest.mark.parametrize("manifold", [
    {"catalog": "diagonal_conformal", "params": {"entries": ["1", "1 - x1^2"]}},
    {"metric": [["1", "0"], ["0", "1 - x1^2"]]},
], ids=["diagonal_conformal", "metric_rows"])
def test_expression_metric_losing_definiteness_is_hard_error(manifold):
    # no guard: g_22 changes sign at x1 = 1, which the geodesic along x1
    # crosses at speed 0.5; the first stage past it must fail loudly
    sc = _scenario(manifold, potential="0", tensor=False)
    with pytest.raises(NotPositiveDefinite):
        integrate(sc.manifold, sc.force, (np.array([0.0, 0.0]), np.array([0.5, 0.0])),
                  IntegratorConfig(horizon=5.0))


def test_constant_metric_takes_no_geodesic_term():
    with pytest.raises(ValueError, match="geodesic_term must be None"):
        ChartManifold(dim=2, metric=np.eye(2), geodesic_term=lambda x, v: [0.0, 0.0])


def test_conformal_run_keeps_its_bits():
    # pinned bits: the fused geodesic term has the floats of the exact
    # partials contracted term by term, left to right, in Python floats
    sc = _conformal()
    traj = integrate(sc.manifold, sc.force, (np.array([0.1, 0.2]), np.array([0.3, -0.1])),
                     IntegratorConfig(horizon=3.0))
    assert [float(v).hex() for v in traj.states[-1]] == [
        "-0x1.9ee055d703266p-2", "-0x1.32c0771c68a36p+0", "0x1.bde55313c9c4ep-4",
        "-0x1.28463c98a6ce0p-2"]
    assert (traj.stats.n_accepted, traj.stats.n_rejected, traj.stats.n_rhs) == (97, 1, 590)


def test_conformal_geodesic_conserves_speed_on_the_exact_path():
    m = build_manifold("diagonal_conformal", {"entries": ["exp(x2)", "exp(x2)"]})
    free = ForceSystem(potential=lambda x, t: 0.0, potential_dx=lambda x, t: np.zeros(2),
                       potential_dt=lambda x, t: 0.0, time_independent=True)
    x0, v0 = np.array([0.0, 0.2]), np.array([1.0, 0.5])
    traj = integrate(m, free, (x0, v0), IntegratorConfig(horizon=4.0))
    speeds = [float(s[2:] @ metric_at(m, s[:2]) @ s[2:]) for s in traj.states]
    assert_allclose(speeds, speeds[0], rtol=1e-8)


def _counting_entries(monkeypatch):
    """The list of chart points at which expression_tensor's fused entries run.

    The counting call carries the entries' own array form, which it does not count.
    """
    runs = []
    at_chart_point = catalog.at_chart_point

    def counting(exprs, params=()):
        entries = at_chart_point(exprs, params)

        def call(x, s):
            runs.append(x)
            return entries(x, s)

        return with_array_form(call, array_form(entries))

    monkeypatch.setattr(catalog, "at_chart_point", counting)
    return runs


@pytest.mark.parametrize("rows", [
    [["0", "-(0.1 + 0.2)"], ["sqrt(2)/3", "-0"]],
    [["0", "1"], ["-1", "sin(t)"]],
    [["0", "x2"], ["-x1", "0"]],
], ids=["constant", "in-t", "in-x"])
def test_a_called_tensor_runs_once_per_rhs_and_gives_the_written_in_values(monkeypatch, rows):
    written = tensor_force(catalog.expression_tensor(rows))
    runs = _counting_entries(monkeypatch)
    # the counting call carries no chart, so the kernel calls it, a constant matrix too
    tensor = catalog.expression_tensor(rows)
    m = build_manifold("euclidean", {"n": 2})
    fs = tensor_force(tensor)
    states = [([0.1 * k, 0.2], [0.3, -0.4], 0.01 * k) for k in range(50)]
    for state in states:
        assert ([v.hex() for v in rhs_E(m, fs, state)]
                == [v.hex() for v in rhs_E(m, written, state)])
    assert len(runs) == len(states)
    # the rows returned are those of the entries called one at a time, bit for bit
    exprs = [[parse_expression(e, ("x1", "x2", "t")) for e in row] for row in rows]
    for x, _, t in states:
        per_call = [[e(*x, t).hex() for e in row] for row in exprs]
        assert [[v.hex() for v in row] for row in tensor(x, t)] == per_call


def test_a_constant_tensor_with_a_domain_error_raises_at_every_call(monkeypatch):
    runs = _counting_entries(monkeypatch)
    tensor = catalog.expression_tensor([["log(-1)"]])
    for _ in range(3):
        with pytest.raises(EvaluationError, match="log"):
            tensor([0.0], 0.0)
    assert len(runs) == 3


@pytest.mark.parametrize("rows", [
    [["0", "-(0.1 + 0.2)"], ["sqrt(2)/3", "-0"]],
    [["x1*x2 - t", "0.5"], ["sqrt(2)/3", "t*x1 + x2/3"]],
    [["1 + t/2", "0"], ["0", "1 + t/2"]],
], ids=["constant", "in-x-and-t", "in-t"])
def test_a_tensor_on_arrays_equals_its_rows_bit_for_bit(rows):
    tensor = catalog.expression_tensor(rows)
    rng = np.random.default_rng(3)
    x, t = rng.uniform(-2.0, 2.0, (40, 2)), rng.uniform(-3.0, 3.0, 40)
    per_row = np.array([tensor(p.tolist(), float(s)) for p, s in zip(x, t)])
    assert tensor.on_arrays(x, t).tobytes() == per_row.tobytes()
    # one time broadcasts against every point, and a grid of points keeps its shape
    assert tensor.on_arrays(x, 0.5).tobytes() == np.array([tensor(p.tolist(), 0.5) for p in x]).tobytes()
    assert tensor.on_arrays(x.reshape(4, 10, 2), t.reshape(4, 10)).shape == (4, 10, 2, 2)


def test_the_eigen_scan_makes_no_scalar_call_of_a_time_scalar_tensor(monkeypatch):
    runs = _counting_entries(monkeypatch)
    tensor = catalog.build_tensor("time_scalar", {"expr": "cos(t)", "n": 2}, 2)
    m, fs = build_manifold("euclidean", {"n": 2}), tensor_force(tensor)
    points = np.stack(np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5)), -1).reshape(-1, 2)
    lo, hi = operator_eigen_range(m, fs, points, 0.7)
    assert_allclose(lo, np.cos(0.7)) and assert_allclose(hi, np.cos(0.7))
    ts = np.linspace(-1.0, 1.0, len(points))
    energy_derivative_identity(m, fs, (points, points[::-1], ts))
    assert runs == []
