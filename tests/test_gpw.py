import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from numpy.testing import assert_allclose, assert_array_equal

from wavetraj.catalog import build_manifold, build_wave
from wavetraj.cli import main
from wavetraj.expressions import array_form, parse_expression
from wavetraj.geometry import ChartManifold
from wavetraj.gpw import (GeodesicInitialData, GpwSpacetime, WaveCoefficient, cumulative_simpson,
                          energy_of, full_acceleration,
                          full_christoffel, full_geodesic_oracle, full_metric, full_quadratic_form,
                          reduce_geodesic, split_geodesic_to_csv, split_state)
from wavetraj.hypotheses import (COMPLETE_LINEAR_GRADIENT, COMPLETE_WAVE_BOUNDS, INCONCLUSIVE,
                                 BoundData, CertificationTask, certify)
from wavetraj.integrate import BLOW_UP_SUSPECTED, HORIZON_REACHED, IntegratorConfig, sample
from wavetraj.runner import run_scenario
from wavetraj.scenario import bundled_scenarios, load_scenario

from conftest import box_grid
from test_array_paths import WAVES as ARRAY_PATH_WAVES

COSH1 = 1.5430806348152437


def euclid2():
    return build_manifold("euclidean", {"n": 2})


def plane_wave(f1, f2, f):
    return build_wave("plane_wave", {"f1": f1, "f2": f2, "f": f})


def gravitational_spacetime():
    wave = plane_wave("1", "1", "0")
    return GpwSpacetime(base=euclid2(), wave=wave, nonzero_witness=(np.array([1.0, 0.0]), 0.0))


def wave_bounds(alpha, beta, reach=5.0, side=11, T=3.0):
    return BoundData(alpha0=alpha, beta0=beta,
                     grid=box_grid([-reach, -reach], [reach, reach], [side, side]),
                     t_grid=np.linspace(-T, T, 41))


def test_plane_wave_values():
    wave = plane_wave("1", "1", "0")
    assert wave.h([1.0, 1.0], 0.3) == 0.0
    wave2 = plane_wave("1", "0", "0")
    assert wave2.h([2.0, 5.0], -1.0) == 4.0
    wave3 = plane_wave("0", "0", "1")
    assert wave3.h([1.0, 2.0], 7.0) == 4.0


def _wave_entries():
    """(catalog name, params) of every bundled wave and of the array-path waves, each once."""
    entries = list(ARRAY_PATH_WAVES)
    for path in bundled_scenarios().values():
        wave = json.loads(path.read_text()).get("gpw", {}).get("wave")
        if wave and (wave["catalog"], wave["params"]) not in entries:
            entries.append((wave["catalog"], wave["params"]))
    return entries


def test_plane_wave_is_the_expression_wave_of_its_composed_H(tmp_path):
    rng = np.random.default_rng(3)
    X, U = rng.uniform(-4.0, 4.0, (200, 2)), rng.uniform(-3.0, 3.0, 200)
    sets = [params for name, params in _wave_entries() if name == "plane_wave"]
    assert len(sets) == 4
    for params in sets:
        texts = {key: params.get(key, "0") for key in ("f1", "f2", "f")}
        plane = build_wave("plane_wave", params)
        composed = build_wave("expression", {
            "H": "({f1})*x1^2 - ({f2})*x2^2 + 2*({f})*x1*x2".format(**texts), "n": 2})
        f1, f2, f = (parse_expression(texts[key], ("u",)) for key in ("f1", "f2", "f"))
        d1, d2, d = (p.derivative("u") for p in (f1, f2, f))
        for x, u in zip(X, U):
            h = f1(u) * x[0] ** 2 - f2(u) * x[1] ** 2 + 2.0 * f(u) * x[0] * x[1]
            h_dx = [2.0 * f1(u) * x[0] + 2.0 * f(u) * x[1], -2.0 * f2(u) * x[1] + 2.0 * f(u) * x[0]]
            h_du = d1(u) * x[0] ** 2 - d2(u) * x[1] ** 2 + 2.0 * d(u) * x[0] * x[1]
            for wave in (plane, composed):
                assert wave.h(x.tolist(), float(u)) == h
                assert list(wave.h_dx(x.tolist(), float(u))) == h_dx
                assert wave.h_du(x.tolist(), float(u)) == h_du
        for source in ("h", "h_dx", "h_du"):
            on_arrays = array_form(getattr(plane, source))(X, U)
            assert np.array_equal(on_arrays, array_form(getattr(composed, source))(X, U))
    # H is a form in two coordinates
    for n in (1, 3):
        raw = {"name": "plane", "task": "gpw-geodesic",
               "manifold": {"catalog": "euclidean", "params": {"n": n}},
               "gpw": {"wave": {"catalog": "plane_wave", "params": {"f1": "1"}},
                       "witness": {"x": [1.0] * n, "u": 0.0},
                       "initial": {"x": [0.5] * n, "xdot": [0.0] * n}},
               "integrator": {"horizon": 1.0}}
        path = tmp_path / f"plane-{n}.scn"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--output-dir", str(tmp_path)]) == 2


def test_nonzero_witness_enforced():
    wave = plane_wave("1", "1", "0")
    with pytest.raises(ValueError, match="vanishes"):
        GpwSpacetime(base=euclid2(), wave=wave, nonzero_witness=(np.array([1.0, 1.0]), 0.0))


INFINITE_WAVE = WaveCoefficient(h=lambda x, u: np.inf, h_dx=lambda x, u: [0.0, 0.0],
                                h_du=lambda x, u: 0.0)


@pytest.mark.parametrize("wave,witness", [
    (plane_wave("u", "1", "0"), (np.array([1.0, 0.0]), np.nan)),   # H = NaN
    (plane_wave("1", "1", "0"), (np.array([np.inf, 0.0]), 0.0)),
    (INFINITE_WAVE, (np.array([1.0, 0.0]), 0.0)),
])
def test_a_witness_where_h_is_not_finite_is_refused(wave, witness):
    with pytest.raises(ValueError, match="not finite"):
        GpwSpacetime(base=euclid2(), wave=wave, nonzero_witness=witness)


def test_full_christoffel_closed_form_over_flat_base():
    # g = dx^2 + dy^2 + 2 du dv + H du^2: the only nonzero symbols are
    # Γ^x_uu = -H_x/2, Γ^v_ux = Γ^v_xu = H_x/2 and Γ^v_uu = H_u/2
    wave = plane_wave("1 + 0.5*sin(u)", "cos(u)", "0.3*u")
    st = GpwSpacetime(base=euclid2(), wave=wave, nonzero_witness=(np.array([1.0, 0.0]), 0.0))
    rng = np.random.default_rng(11)
    for q in rng.uniform(-3.0, 3.0, size=(20, 4)):
        x, u = q[:2], q[2]
        h_x, h_u = wave.h_dx(x.tolist(), float(u)), wave.h_du(x.tolist(), float(u))
        exact = np.zeros((4, 4, 4))
        for a in range(2):
            exact[a, 2, 2] = -0.5 * h_x[a]
            exact[3, 2, a] = exact[3, a, 2] = 0.5 * h_x[a]
        exact[3, 2, 2] = 0.5 * h_u
        scale = max(1.0, float(np.abs(exact).max()))
        assert_allclose(full_christoffel(st, q), exact, rtol=1e-7, atol=1e-7 * scale)


@pytest.mark.parametrize("base_name", ["euclidean", "hyperbolic_half_plane"])
@pytest.mark.parametrize("name,params", _wave_entries())
@settings(max_examples=25, deadline=None)
@given(strategies.lists(strategies.floats(-2.0, 2.0), min_size=8, max_size=8))
def test_full_acceleration_matches_the_finite_difference_christoffel_symbols(base_name, name,
                                                                             params, coords):
    # the exact partials against central differences of full_metric: -Γ^k_ij q̇^i q̇^j
    base = build_manifold(base_name, {"n": 2} if base_name == "euclidean" else {})
    st = GpwSpacetime(base=base, wave=build_wave(name, params),
                      nonzero_witness=(np.array([1.0, 0.0]), 0.0))
    q, qd = np.array(coords[:4]), np.array(coords[4:])
    q[1] = 1.25 + 0.375 * q[1]   # inside the half-plane's guard x2 > 0
    reference = -np.einsum("kij,i,j->k", full_christoffel(st, q), qd, qd)
    scale = max(1.0, float(np.abs(reference).max()))
    assert_allclose(full_acceleration(st, q, qd), reference, rtol=1e-6, atol=1e-6 * scale)


@pytest.mark.parametrize("base_name", ["euclidean", "hyperbolic_half_plane"])
def test_an_oracle_run_evaluates_the_metric_once_per_rhs(base_name, monkeypatch):
    # no finite differences and no LAPACK solve: the oracle's field calls each
    # source it cannot write in once per RHS, a curved base's metric and
    # geodesic term included (a flat base's metric was checked when it was
    # built); the speed at each record evaluates the metric once more
    import wavetraj.gpw as gpw_module

    calls = {"metric": 0, "geodesic_term": 0, "h": 0, "h_dx": 0, "h_du": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def refused(*args):
        raise AssertionError("the oracle took a finite-difference or LAPACK path")

    monkeypatch.setattr(gpw_module, "full_metric", refused)
    monkeypatch.setattr(gpw_module, "full_christoffel", refused)
    monkeypatch.setattr(gpw_module, "full_acceleration", refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    base = build_manifold(base_name, {"n": 2} if base_name == "euclidean" else {})
    if not base.flat:
        base = ChartManifold(dim=2, metric=counted("metric", base.metric),
                             geodesic_term=counted("geodesic_term", base.geodesic_term),
                             domain_guard=base.domain_guard)
    wave = plane_wave("1 + 0.5*sin(u)", "cos(u)", "0.3*u")
    counting = WaveCoefficient(**{k: counted(k, getattr(wave, k)) for k in ("h", "h_dx", "h_du")})
    st = GpwSpacetime(base=base, wave=counting, nonzero_witness=(np.array([1.0, 0.0]), 0.0))
    calls["h"] = 0
    init = GeodesicInitialData(x0=np.array([0.2, 1.5]), xdot0=np.array([0.3, -0.1]),
                               u0=0.1, udot0=0.8, v0=0.0, vdot0=0.2)
    traj = full_geodesic_oracle(st, init, IntegratorConfig(horizon=0.5))
    assert traj.outcome.kind == HORIZON_REACHED
    n_rhs = traj.stats.n_rhs
    each = n_rhs if base_name != "euclidean" else 0
    speeds = len(traj.times) if base_name != "euclidean" else 0
    assert n_rhs > 0 and calls == {"metric": each + speeds, "geodesic_term": each, "h": n_rhs,
                                   "h_dx": n_rhs, "h_du": n_rhs}


def test_reduce_cosh_growth():
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([1.0, 0.0]), xdot0=np.zeros(2), udot0=1.0)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=1.0))
    assert sg.outcome.kind == HORIZON_REACHED
    x, _ = sample(sg.base_trajectory, 1.0)
    assert x[0] == pytest.approx(COSH1, abs=1e-8)
    assert x[1] == 0.0


def test_reduce_cosine_oscillation():
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([0.0, 1.0]), xdot0=np.zeros(2), udot0=1.0)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=3.5))
    x, _ = sample(sg.base_trajectory, np.pi)
    assert x[1] == pytest.approx(-1.0, abs=1e-8)


def test_reduce_delta_zero_branch():
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([0.3, -0.2]), xdot0=np.array([0.5, 1.0]),
                               u0=2.0, udot0=0.0, v0=1.0, vdot0=-0.5)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=2.0))
    pos, vel = split_state(sg, st, [1.7])
    assert pos[0, 2] == 2.0
    assert pos[0, 3] == pytest.approx(1.0 - 0.5 * 1.7, abs=1e-12)
    assert_array_equal(vel[0, 2:], [0.0, -0.5])
    x, xd = sample(sg.base_trajectory, 2.0)
    assert_allclose(x, [0.3 + 1.0, -0.2 + 2.0], atol=1e-9)
    assert_allclose(xd, [0.5, 1.0], atol=1e-12)


def test_u_is_exactly_affine():
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([1.0, 0.0]), xdot0=np.zeros(2), u0=0.25, udot0=2.0)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=1.0))
    ts = np.array([0.0, 0.3, 1.0])
    pos, vel = split_state(sg, st, ts)
    assert_array_equal(pos[:, 2], [0.25 + 2.0 * t for t in ts.tolist()])
    assert_array_equal(vel[:, 2], 2.0)


def test_energy_constant_reproduced_along_split():
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([1.0, 0.5]), xdot0=np.array([0.2, -0.1]),
                               udot0=1.0, vdot0=0.3)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=1.0))
    pos, vel = split_state(sg, st, np.linspace(0.0, 1.0, 21))
    assert pos.shape == vel.shape == (21, 4)
    energies = np.array([w @ full_metric(st, q) @ w for q, w in zip(pos, vel)])
    assert_allclose(energies, sg.energy, rtol=1e-6, atol=1e-6)
    # the row form of the full quadratic form is the full metric's, row by row
    assert_allclose(full_quadratic_form(st, pos, vel), energies, rtol=1e-14, atol=1e-14)


def test_oracle_conserved_quantities():
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([1.0, 0.5]), xdot0=np.array([0.2, -0.1]),
                               udot0=1.3, vdot0=0.4)
    traj = full_geodesic_oracle(st, init, IntegratorConfig(horizon=1.0))
    assert traj.outcome.kind == HORIZON_REACHED
    udots = traj.states[:, 4 + 2]
    assert np.abs(udots - 1.3).max() < 1e-9 * max(1.0, 1.3)
    energies = full_quadratic_form(st, traj.states[:, :4], traj.states[:, 4:])
    drift = np.abs(energies - energies[0]).max()
    assert drift < 1e-8 * max(1.0, abs(energies[0]))


def test_oracle_null_initial_data_stays_null():
    st = gravitational_spacetime()
    x0 = np.array([1.0, 0.0])
    xdot0 = np.array([0.5, 0.2])
    delta = 1.0
    g0 = np.eye(2)
    h_val = st.wave.h(x0.tolist(), 0.0)
    vdot0 = -(float(xdot0 @ g0 @ xdot0) + h_val * delta**2) / (2.0 * delta)
    init = GeodesicInitialData(x0=x0, xdot0=xdot0, udot0=delta, vdot0=vdot0)
    assert energy_of(st, init) == pytest.approx(0.0, abs=1e-15)
    traj = full_geodesic_oracle(st, init, IntegratorConfig(horizon=1.0))
    worst = np.abs(full_quadratic_form(st, traj.states[:, :4], traj.states[:, 4:])).max()
    assert worst < 1e-8


def test_reduction_matches_oracle():
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([1.0, 0.5]), xdot0=np.array([0.2, -0.1]),
                               u0=0.1, udot0=1.3, v0=-0.2, vdot0=0.4)
    cfg = IntegratorConfig(horizon=1.0)
    sg = reduce_geodesic(st, init, cfg)
    oracle = full_geodesic_oracle(st, init, cfg)
    ts = np.linspace(0.0, 1.0, 101)
    pos_split, _ = split_state(sg, st, ts)
    pos_oracle, _ = sample(oracle, ts)
    assert np.abs(pos_split - pos_oracle).max() < 1e-5


def test_reduction_matches_oracle_on_curved_base():
    # hyperbolic base exercises the off-flat blocks of the full metric
    base = build_manifold("hyperbolic_half_plane", {})
    wave = WaveCoefficient(h=lambda x, u: x[0] ** 2 - 0.5 * x[1] + 0.3 * np.sin(u),
                           h_dx=lambda x, u: np.array([2.0 * x[0], -0.5]),
                           h_du=lambda x, u: 0.3 * np.cos(u))
    st = GpwSpacetime(base=base, wave=wave, nonzero_witness=(np.array([1.0, 1.0]), 0.0))
    init = GeodesicInitialData(x0=np.array([0.2, 1.5]), xdot0=np.array([0.3, -0.1]),
                               u0=0.1, udot0=0.8, v0=0.0, vdot0=0.2)
    cfg = IntegratorConfig(horizon=0.5)
    sg = reduce_geodesic(st, init, cfg)
    oracle = full_geodesic_oracle(st, init, cfg)
    assert sg.outcome.kind == HORIZON_REACHED and oracle.outcome.kind == HORIZON_REACHED
    ts = np.linspace(0.0, 0.5, 51)
    pos_s, _ = split_state(sg, st, ts)
    pos_o, _ = sample(oracle, ts)
    assert np.abs(pos_s - pos_o).max() < 1e-5
    energies = full_quadratic_form(st, oracle.states[:, :4], oracle.states[:, 4:])
    drift = np.abs(energies - energies[0]).max()
    assert drift < 1e-8 * max(1.0, abs(energies[0]))


def test_delta_scaling_covariance():
    # (delta, horizon, xdot0) -> (2 delta, horizon/2, 2 xdot0) retraces the
    # same base path under the affine reparametrization t -> 2t
    st = gravitational_spacetime()
    xdot = np.array([0.3, -0.2])
    init_a = GeodesicInitialData(x0=np.array([1.0, 0.4]), xdot0=xdot, udot0=1.0)
    init_b = GeodesicInitialData(x0=np.array([1.0, 0.4]), xdot0=2.0 * xdot, udot0=2.0)
    sg_a = reduce_geodesic(st, init_a, IntegratorConfig(horizon=1.0))
    sg_b = reduce_geodesic(st, init_b, IntegratorConfig(horizon=0.5))
    assert split_state(sg_a, st, [1.0])[0][0, 2] == split_state(sg_b, st, [0.5])[0][0, 2]
    worst = 0.0
    for t in np.linspace(0.0, 0.5, 51):
        xa, _ = sample(sg_a.base_trajectory, 2.0 * t)
        xb, _ = sample(sg_b.base_trajectory, t)
        worst = max(worst, float(np.abs(xa - xb).max()))
    assert worst < 1e-5


def test_v_quadrature_against_closed_form():
    # H = -y^2, delta = 1, start (0, 1) at rest: y(t) = cos t and the
    # conservation law gives vdot = -sin^2 t, so v(t) = -t/2 + sin(2t)/4
    wave = plane_wave("0", "1", "0")
    st = GpwSpacetime(base=euclid2(), wave=wave, nonzero_witness=(np.array([0.0, 1.0]), 0.0))
    init = GeodesicInitialData(x0=np.array([0.0, 1.0]), xdot0=np.zeros(2),
                               u0=0.0, udot0=1.0, v0=0.0, vdot0=0.0)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=3.0))
    assert sg.energy == pytest.approx(-1.0)  # timelike
    ts = np.linspace(0.0, 3.0, 61)
    pos, _ = split_state(sg, st, ts)
    # limited by the dense-output accuracy of the base trajectory
    assert np.abs(pos[:, 3] - (-0.5 * ts + 0.25 * np.sin(2.0 * ts))).max() < 1e-7


@settings(max_examples=100, deadline=None)
@given(strategies.floats(-50.0, 50.0), strategies.floats(1e-3, 100.0),
       strategies.lists(strategies.floats(-1e3, 1e3), min_size=3, max_size=3),
       strategies.floats(0.0, 20.0), strategies.integers(0, 2**32 - 1))
def test_cumulative_simpson_equals_scipy_bit_for_bit(lo, width, coeffs, freq, seed):
    # smooth and rough integrands on the nodes of a split geodesic's v-table
    from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

    ts = np.linspace(lo, lo + width, 2049)
    a, b, c = coeffs
    noise = np.random.default_rng(seed).normal(size=ts.size)
    for y in (a + b * np.cos(freq * ts) + c * ts * ts, a * noise):
        assert_array_equal(cumulative_simpson(y, ts),
                           scipy_cumulative_simpson(y, x=ts, initial=0.0), strict=True)


def test_base_blowup_propagates():
    wave = WaveCoefficient(h=lambda x, u: float(np.dot(x, x)) ** 2,
                           h_dx=lambda x, u: 4.0 * float(np.dot(x, x)) * np.asarray(x),
                           h_du=lambda x, u: 0.0)
    st = GpwSpacetime(base=euclid2(), wave=wave, nonzero_witness=(np.array([1.0, 0.0]), 0.0))
    init = GeodesicInitialData(x0=np.array([1.0, 0.0]), xdot0=np.zeros(2), udot0=1.0)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=5.0))
    assert sg.outcome.kind == BLOW_UP_SUSPECTED


def test_a_base_run_that_stops_at_its_first_record_gives_v0(tmp_path):
    # the speed 10 is over the ceiling at t = 0, so the base run has one
    # record; v is v0 there, and no quadrature runs over equal times
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([1.0, 0.0]), xdot0=np.array([10.0, 0.0]), udot0=1.0,
                               v0=0.25)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=1.0, speed_ceiling=1.0))
    assert sg.outcome.kind == BLOW_UP_SUSPECTED
    assert len(sg.base_trajectory.times) == 1
    pos, _ = split_state(sg, st, [0.0])
    assert pos[0].tolist() == [1.0, 0.0, 0.0, 0.25]
    # the bundled scenario at that ceiling writes v and the oracle's discrepancy as numbers
    scn = bundled_scenarios()["plane-wave-geodesic"]
    assert main(["run", str(scn), "gpw.initial.xdot=[10,0]", "integrator.speed_ceiling=1",
                 "--output-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "plane-wave-geodesic.csv").read_text().splitlines()
    assert lines[1:] == ["0.0,0.0,0.0,1.0,0.0,10.0,0.0"]
    report = json.loads((tmp_path / "plane-wave-geodesic.report.json").read_text())
    assert report["outcome"]["oracle"]["max_coordinate_discrepancy"] == 0.0


def certify_wave(st, bd):
    """certify's certificate for st's wave on its base, on bd's window."""
    return certify(CertificationTask(manifold=st.base, bounds=bd, wave=st.wave))


def test_certify_plane_wave_linear_gradient():
    cert = certify_wave(gravitational_spacetime(), wave_bounds(lambda u: 1.0, lambda u: 0.0))
    assert cert.verdict == COMPLETE_LINEAR_GRADIENT


def test_certify_bounded_wave_coefficient():
    wave = WaveCoefficient(h=lambda x, u: -float(np.dot(x, x)) ** 2,
                           h_dx=lambda x, u: -4.0 * float(np.dot(x, x)) * np.asarray(x),
                           h_du=lambda x, u: 0.0)
    st = GpwSpacetime(base=euclid2(), wave=wave, nonzero_witness=(np.array([1.0, 0.0]), 0.0))
    cert = certify_wave(st, wave_bounds(lambda u: 0.0, lambda u: 0.0))
    assert cert.verdict == COMPLETE_WAVE_BOUNDS


def test_certify_unbounded_wave_inconclusive():
    wave = WaveCoefficient(h=lambda x, u: float(np.dot(x, x)) ** 2,
                           h_dx=lambda x, u: 4.0 * float(np.dot(x, x)) * np.asarray(x),
                           h_du=lambda x, u: 0.0)
    st = GpwSpacetime(base=euclid2(), wave=wave, nonzero_witness=(np.array([1.0, 0.0]), 0.0))
    cert = certify_wave(st, wave_bounds(lambda u: 0.0, lambda u: 0.0))
    assert cert.verdict == INCONCLUSIVE
    assert not any(r.passed for r in cert.routes)


def test_an_oracle_check_reads_each_run_once(tmp_path, monkeypatch):
    # one v-grid, one split_state call on the check times and one dense-output
    # call on the oracle: no per-time reads
    import wavetraj.gpw as gpw_module
    import wavetraj.runner as runner_module

    calls = {"split_state": 0, "sample": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(runner_module, "split_state", counted("split_state", gpw_module.split_state))
    counted_sample = counted("sample", gpw_module.sample)
    monkeypatch.setattr(gpw_module, "sample", counted_sample)
    monkeypatch.setattr(runner_module, "sample", counted_sample)
    sc = load_scenario(bundled_scenarios()["plane-wave-geodesic"])
    assert sc.gpw_oracle_check
    run_scenario(sc, tmp_path)
    assert calls == {"split_state": 1, "sample": 3}


def test_split_geodesic_csv(tmp_path):
    st = gravitational_spacetime()
    init = GeodesicInitialData(x0=np.array([1.0, 0.0]), xdot0=np.zeros(2), udot0=1.0)
    sg = reduce_geodesic(st, init, IntegratorConfig(horizon=1.0))
    path = tmp_path / "split.csv"
    with open(path, "w") as fh:
        split_geodesic_to_csv(sg, st, fh)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,u,v,x1,x2,xdot1,xdot2"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    # every row is the split state at an accepted step of the base run
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    pos, vel = split_state(sg, st, sg.base_trajectory.times)
    assert_array_equal(rows[:, 0], sg.base_trajectory.times)
    assert_array_equal(rows[:, 1:3], pos[:, 2:])
    assert_array_equal(rows[:, 3:5], pos[:, :2])
    assert_array_equal(rows[:, 5:], vel[:, :2])
