import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavetraj.catalog import build_manifold, build_potential, build_wave, expression_potential
from wavetraj.dynamics import ForceSystem
from wavetraj.expressions import parse_expression
from wavetraj.gpw import WaveCoefficient
from wavetraj.hypotheses import (BACKWARD_COMPLETE, COMPLETE_POTENTIAL_BOUNDS,
                                 COMPLETE_WAVE_BOUNDS, FORWARD_COMPLETE, INCONCLUSIVE,
                                 BoundData, CertificationTask, certify, check_S_bounds,
                                 check_linear_growth_gradH)
from wavetraj.runner import run_scenario
from wavetraj.scenario import bundled_scenarios, load_scenario

from conftest import box_grid, evidence, tensor_force, window


# the operator-bound scans sample [-2, 2] x a 3 x 3 box
S_WINDOW = window(lambda t: 0.0, lambda t: 0.0, 2.0, grid=box_grid([-1, -1], [1, 1], [3, 3]))


def bounds_1d(alpha, beta, lo=-2.0, hi=2.0, points=9, T=3.0, t_points=41):
    return BoundData(alpha0=alpha, beta0=beta,
                     grid=np.linspace(lo, hi, points).reshape(-1, 1),
                     t_grid=np.linspace(-T, T, t_points))


def bounds_2d(alpha, beta, reach=2.0, side=9, T=3.0, t_points=41):
    return BoundData(alpha0=alpha, beta0=beta,
                     grid=box_grid([-reach, -reach], [reach, reach], [side, side]),
                     t_grid=np.linspace(-T, T, t_points))


def potential_premises(fs, bd):
    """certify's evidence for fs on bd's window, on the Euclidean space of bd's grid."""
    return evidence(build_manifold("euclidean", {"n": bd.grid.shape[1]}), bd, force=fs)


def bounded_below(fs, bd):
    return potential_premises(fs, bd)["potential_bounded_below"]


def dvdt_bound(fs, bd, signed):
    return potential_premises(fs, bd)[f"potential_dt_{signed}"]


def test_bounded_below_harmonic():
    check = bounded_below(build_potential("harmonic", {}, 2),
                          bounds_2d(lambda t: 0.0, lambda t: 0.0))
    assert check.passed
    assert check.margin == pytest.approx(0.0)
    assert_allclose(check.worst_point, [0.0, 0.0])


def test_bounded_below_negative_quartic_fails():
    check = bounded_below(build_potential("negative_quartic", {}, 1),
                          bounds_1d(lambda t: 0.0, lambda t: 0.0))
    assert not check.passed
    assert check.margin == pytest.approx(-16.0)


def test_bounded_below_exp_potential():
    check = bounded_below(build_potential("exp_time_quadratic", {}, 2),
                          bounds_2d(lambda t: 0.0, lambda t: np.exp(t)))
    assert check.passed
    assert check.margin == pytest.approx(0.0, abs=1e-12)
    assert_allclose(check.worst_point, [0.0, 0.0])


def test_s_bounds_zero_force(euclidean2):
    checks = check_S_bounds(euclidean2, build_potential("harmonic", {}, 2), S_WINDOW)
    # in route order: two-sided, upper (forward), lower (backward)
    assert [c.name for c in checks] == ["operator_bound_two_sided", "operator_bound_upper",
                                        "operator_bound_lower"]
    assert [c.values["N_T"] for c in checks] == [0.0, 0.0, 0.0]


def test_s_bounds_skew_rotation(euclidean2):
    fs = tensor_force(lambda x, t: np.array([[0.0, 2.0], [-2.0, 0.0]]))
    two_sided, _, _ = check_S_bounds(euclidean2, fs, S_WINDOW)
    assert two_sided.values["N_T"] == pytest.approx(0.0, abs=1e-12)


def test_s_bounds_time_dependent_scalar(euclidean2):
    # F = -(1 + t^2) I on [-2, 2]: two-sided bound 5, frozen by arithmetic
    fs = tensor_force(lambda x, t: -(1.0 + t * t) * np.eye(2))
    two_sided, upper, lower = check_S_bounds(euclidean2, fs, S_WINDOW)
    assert two_sided.values["N_T"] == pytest.approx(5.0)
    assert upper.values["N_T"] == pytest.approx(-1.0)
    assert lower.values["N_T"] == pytest.approx(5.0)


def test_dvdt_autonomous_zero_alpha():
    check = dvdt_bound(build_potential("harmonic", {}, 2),
                       bounds_2d(lambda t: 0.0, lambda t: 0.0), "two_sided")
    assert check.passed
    assert check.margin == pytest.approx(0.0)


def test_dvdt_exp_potential_identity():
    # |dV/dt| = V = 1 * (V - 0) exactly, margin 0 on every grid point
    check = dvdt_bound(build_potential("exp_time_quadratic", {}, 2),
                       bounds_2d(lambda t: 1.0, lambda t: 0.0), "two_sided")
    assert check.passed
    assert check.margin == pytest.approx(0.0, abs=1e-12)


def test_dvdt_fails_at_t_zero_plane():
    fs = ForceSystem(potential=lambda x, t: t * float(np.dot(x, x)),
                     potential_dx=lambda x, t: 2.0 * t * np.asarray(x),
                     potential_dt=lambda x, t: float(np.dot(x, x)))
    bd = BoundData(alpha0=lambda t: 1.0, beta0=lambda t: 0.0,
                   grid=np.linspace(-2.0, 2.0, 9).reshape(-1, 1),
                   t_grid=np.linspace(0.0, 3.0, 31))
    check = dvdt_bound(fs, bd, "two_sided")
    assert not check.passed
    assert check.margin == pytest.approx(-4.0)
    assert check.worst_t == 0.0


def test_dvdt_one_sided_variants():
    # dV/dt = -V <= 0 = alpha0 (V - beta0) holds forward but not backward
    fs = ForceSystem(potential=lambda x, t: np.exp(-t) * (1.0 + float(np.dot(x, x))),
                     potential_dx=lambda x, t: 2.0 * np.exp(-t) * np.asarray(x),
                     potential_dt=lambda x, t: -np.exp(-t) * (1.0 + float(np.dot(x, x))))
    checks = potential_premises(fs, bounds_2d(lambda t: 0.0, lambda t: 0.0))
    assert checks["potential_dt_forward"].passed
    assert not checks["potential_dt_backward"].passed
    assert not checks["potential_dt_two_sided"].passed


def test_dvdt_dependent_failure_stamp():
    # V = -x^4 is not bounded below; dV/dt = 0 = alpha0 (V - beta0) would pass on its margin
    checks = potential_premises(build_potential("negative_quartic", {}, 1),
                                bounds_1d(lambda t: 0.0, lambda t: 0.0))
    assert not checks["potential_bounded_below"].passed
    assert not checks["potential_bounded_below"].dependent_failure
    for signed in ("two_sided", "forward", "backward"):
        check = checks[f"potential_dt_{signed}"]
        assert check.margin == 0.0
        assert check.dependent_failure
        assert not check.passed
    passing = potential_premises(build_potential("harmonic", {}, 2),
                                 bounds_2d(lambda t: 0.0, lambda t: 0.0))
    assert passing["potential_dt_two_sided"].passed
    assert not passing["potential_dt_two_sided"].dependent_failure


def test_wave_du_dependent_failure_stamp(euclidean2):
    # H = |x|^4 is not bounded above; dH/du = 0 keeps alpha0 (beta0 - H) - |dH/du| >= 0
    wave = make_wave(lambda x, u: float(np.dot(x, x)) ** 2,
                     dx=lambda x, u: 4.0 * float(np.dot(x, x)) * np.asarray(x),
                     du=lambda x, u: 0.0)
    checks = evidence(euclidean2, bounds_2d(lambda u: 0.0, lambda u: 0.0), wave=wave)
    assert not checks["wave_bounded_above"].passed
    du_check = checks["wave_du_bound"]
    assert du_check.margin == 0.0
    assert du_check.dependent_failure and not du_check.passed


def make_wave(h, dx, du):
    return WaveCoefficient(h=h, h_dx=dx, h_du=du)


def test_linear_growth_plane_wave(euclidean2):
    wave = make_wave(lambda x, u: x[0] ** 2 - x[1] ** 2,
                     dx=lambda x, u: np.array([2.0 * x[0], -2.0 * x[1]]),
                     du=lambda x, u: 0.0)
    check = check_linear_growth_gradH(euclidean2, wave, box_grid([-4, -4], [4, 4], [9, 9]),
                                      np.linspace(-1, 1, 5))
    assert check.passed


def test_linear_growth_quartic_fails(euclidean2):
    wave = make_wave(lambda x, u: x[0] ** 4,
                     dx=lambda x, u: np.array([4.0 * x[0] ** 3, 0.0]),
                     du=lambda x, u: 0.0)
    check = check_linear_growth_gradH(euclidean2, wave, box_grid([-4, -4], [4, 4], [9, 9]),
                                      np.linspace(-1, 1, 3))
    assert not check.passed


def test_linear_growth_constant_passes(euclidean2):
    wave = make_wave(lambda x, u: 3.0, dx=lambda x, u: np.zeros(2), du=lambda x, u: 0.0)
    check = check_linear_growth_gradH(euclidean2, wave, box_grid([-4, -4], [4, 4], [9, 9]),
                                      np.linspace(-1, 1, 3))
    assert check.passed


def test_linear_growth_needs_enough_points(euclidean2):
    wave = make_wave(lambda x, u: 0.0, dx=lambda x, u: np.zeros(2), du=lambda x, u: 0.0)
    with pytest.raises(ValueError, match="at least 20"):
        check_linear_growth_gradH(euclidean2, wave, box_grid([-1, -1], [1, 1], [2, 2]),
                                  [0.0])


def quartic_well():
    return make_wave(lambda x, u: -float(np.dot(x, x)) ** 2,
                     dx=lambda x, u: -4.0 * float(np.dot(x, x)) * np.asarray(x),
                     du=lambda x, u: 0.0)


def test_linear_growth_needs_a_u_sample(euclidean2):
    # any one u sample fails this wave, so no sample is no evidence, not a pass
    grid = box_grid([-4, -4], [4, 4], [9, 9])
    assert not check_linear_growth_gradH(euclidean2, quartic_well(), grid, [0.0]).passed
    with pytest.raises(ValueError, match="at least one u sample"):
        check_linear_growth_gradH(euclidean2, quartic_well(), grid, [])


@pytest.mark.parametrize("u_grid", [0.5, [[0.0, 0.5]]], ids=["scalar", "2-d"])
def test_linear_growth_u_grid_is_1d(euclidean2, u_grid):
    with pytest.raises(ValueError, match="in 1-d"):
        check_linear_growth_gradH(euclidean2, quartic_well(), box_grid([-4, -4], [4, 4], [9, 9]),
                                  u_grid)


def test_certify_harmonic_strongest_verdict(euclidean2):
    cert = certify(CertificationTask(manifold=euclidean2,
                                     bounds=bounds_2d(lambda t: 0.0, lambda t: 0.0),
                                     force=build_potential("harmonic", {}, 2)))
    assert cert.verdict == COMPLETE_POTENTIAL_BOUNDS
    assert cert.caveat == "premises verified on sampled domain only"
    # one-sided routes also pass and stay listed in the evidence
    assert {r.route for r in cert.routes if r.passed} == {"two_sided", "forward", "backward"}


def test_certify_negative_quartic_inconclusive(euclidean1):
    cert = certify(CertificationTask(manifold=euclidean1,
                                     bounds=bounds_1d(lambda t: 0.0, lambda t: 0.0),
                                     force=build_potential("negative_quartic", {}, 1)))
    assert cert.verdict == INCONCLUSIVE
    below = [e for e in cert.evidence if e.name == "potential_bounded_below"][0]
    assert below.margin == pytest.approx(-16.0)


def test_certify_one_sided_only(euclidean2):
    fs = ForceSystem(potential=lambda x, t: np.exp(-t) * (1.0 + float(np.dot(x, x))),
                     potential_dx=lambda x, t: 2.0 * np.exp(-t) * np.asarray(x),
                     potential_dt=lambda x, t: -np.exp(-t) * (1.0 + float(np.dot(x, x))))
    cert = certify(CertificationTask(manifold=euclidean2,
                                     bounds=bounds_2d(lambda t: 0.0, lambda t: 0.0),
                                     force=fs))
    assert cert.verdict == FORWARD_COMPLETE


def test_certify_backward_only(euclidean2):
    # dV/dt = +V > 0 breaks the forward bound with alpha0 = 0 while the
    # backward one (-dV/dt <= 0) holds everywhere
    fs = ForceSystem(potential=lambda x, t: np.exp(t) * (1.0 + float(np.dot(x, x))),
                     potential_dx=lambda x, t: 2.0 * np.exp(t) * np.asarray(x),
                     potential_dt=lambda x, t: np.exp(t) * (1.0 + float(np.dot(x, x))))
    cert = certify(CertificationTask(manifold=euclidean2,
                                     bounds=bounds_2d(lambda t: 0.0, lambda t: 0.0),
                                     force=fs))
    assert cert.verdict == BACKWARD_COMPLETE


def test_certify_requires_complete_flag():
    from wavetraj.geometry import ChartManifold

    incomplete = ChartManifold(dim=2, metric=np.eye(2), complete_flag=False)
    cert = certify(CertificationTask(manifold=incomplete,
                                     bounds=bounds_2d(lambda t: 0.0, lambda t: 0.0),
                                     force=build_potential("harmonic", {}, 2)))
    assert cert.verdict == INCONCLUSIVE
    flag = [e for e in cert.evidence if e.name == "manifold_complete_flag"][0]
    assert not flag.passed


def test_certify_wave_routes(euclidean2):
    wave = make_wave(lambda x, u: -float(np.dot(x, x)) ** 2,
                     dx=lambda x, u: -4.0 * float(np.dot(x, x)) * np.asarray(x),
                     du=lambda x, u: 0.0)
    bd = bounds_2d(lambda u: 0.0, lambda u: 0.0, reach=5.0, side=11)
    cert = certify(CertificationTask(manifold=euclidean2, bounds=bd, wave=wave))
    assert cert.verdict == COMPLETE_WAVE_BOUNDS
    routes = {r.route: r.passed for r in cert.routes}
    assert routes == {"wave_bounds": True, "linear_growth": False}


def test_monotone_evidence_under_grid_growth(euclidean1):
    fs = build_potential("negative_quartic", {}, 1)
    coarse = bounds_1d(lambda t: 0.0, lambda t: 0.0, lo=-1.0, hi=1.0, points=5)
    fine = bounds_1d(lambda t: 0.0, lambda t: 0.0, lo=-2.0, hi=2.0, points=17)
    margin_coarse = bounded_below(fs, coarse).margin
    margin_fine = bounded_below(fs, fine).margin
    assert margin_fine <= margin_coarse


# H and beta0 in u, and the V = -H/2 and beta0_V = -beta0/2 built from their
# text: V's derivative is exactly -1/2 times H's, and halving is exact, so
# every potential-form margin is exactly half the wave-form one
@pytest.mark.parametrize("beta", ["2", "0.5 + 0.1*u"], ids=["passing", "failing"])
def test_wave_and_potential_route_equivalence(euclidean2, beta):
    h = "-(x1^2 + x2^2)^2 - sin(u)"
    alpha = "2 + cos(u)"
    grid, t_grid = box_grid([-2, -2], [2, 2], [9, 9]), np.linspace(-3.0, 3.0, 41)
    in_t = lambda text: text.replace("u", "t")
    wave = evidence(euclidean2, BoundData(alpha0=parse_expression(alpha, ("u",)),
                                          beta0=parse_expression(beta, ("u",)),
                                          grid=grid, t_grid=t_grid),
                    wave=build_wave("expression", {"H": h, "n": 2}))
    potential = evidence(euclidean2, BoundData(alpha0=parse_expression(in_t(alpha), ("t",)),
                                               beta0=parse_expression(f"-0.5*({in_t(beta)})", ("t",)),
                                               grid=grid, t_grid=t_grid),
                         force=expression_potential(f"-0.5*({in_t(h)})", 2))
    for w, p in (("wave_bounded_above", "potential_bounded_below"),
                 ("wave_du_bound", "potential_dt_two_sided")):
        a, b = wave[w], potential[p]
        assert b.margin == 0.5 * a.margin
        assert (b.passed, b.worst_point, b.worst_t, b.dependent_failure) == (
            a.passed, a.worst_point, a.worst_t, a.dependent_failure)
    assert wave["wave_bounded_above"].passed == (beta == "2")


def test_bound_data_window_half_width():
    # T is derived from the time grid: exactly the T of np.linspace(-T, T, n)
    for T, n in [(3.0, 41), (2.7, 3), (0.1, 2), (1e3, 1001)]:
        assert bounds_1d(lambda t: 0.0, lambda t: 0.0, T=T, t_points=n).T == T


def test_bound_data_validation():
    with pytest.raises(ValueError, match="nonempty"):
        BoundData(alpha0=lambda t: 0.0, beta0=lambda t: 0.0,
                  grid=np.empty((0, 2)), t_grid=np.array([0.0]))


@pytest.mark.parametrize("t_grid", [0.5, [[-1.0, 0.0, 1.0]]], ids=["scalar", "2-d"])
def test_bound_data_t_grid_is_1d(t_grid):
    with pytest.raises(ValueError, match="t_grid must be 1-d"):
        BoundData(alpha0=lambda t: 0.0, beta0=lambda t: 0.0, grid=[[0.0, 0.0]], t_grid=t_grid)


def test_certificates_reproducible(euclidean2):
    task = CertificationTask(manifold=euclidean2,
                             bounds=bounds_2d(lambda t: 1.0, lambda t: 0.0),
                             force=build_potential("exp_time_quadratic", {}, 2))
    assert certify(task).to_dict() == certify(task).to_dict()


def _poisoned(x, bad_x, bad_value, otherwise):
    return bad_value if x[0] == bad_x else otherwise


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_potential_fails_bounded_below(bad):
    # V = x^2 >= 0 everywhere except one sample: that sample is the evidence
    fs = ForceSystem(potential=lambda x, t: _poisoned(x, 1.5, bad, float(np.dot(x, x))),
                     potential_dx=lambda x, t: [2.0 * c for c in x],
                     potential_dt=lambda x, t: 0.0)
    bd = bounds_1d(lambda t: 1.0, lambda t: 0.0)
    check = bounded_below(fs, bd)
    assert not check.passed
    assert check.margin == -np.inf
    assert check.worst_point == (1.5,)
    assert check.worst_t == float(bd.t_grid[0])


def test_nan_everywhere_fails_bounded_below():
    fs = ForceSystem(potential=lambda x, t: float("nan"),
                     potential_dx=lambda x, t: [float("nan")] * len(x),
                     potential_dt=lambda x, t: float("nan"))
    check = bounded_below(fs, bounds_1d(lambda t: 0.0, lambda t: 0.0))
    assert not check.passed
    assert check.worst_point == (-2.0,)
    assert check.worst_t == -3.0


@pytest.mark.parametrize("signed", ["two_sided", "forward", "backward"])
def test_nan_time_derivative_fails_dvdt_bound(signed):
    fs = ForceSystem(potential=lambda x, t: 1.0 + float(np.dot(x, x)),
                     potential_dx=lambda x, t: [2.0 * c for c in x],
                     potential_dt=lambda x, t: _poisoned(x, -1.0, float("nan"), 0.0))
    bd = bounds_1d(lambda t: 1.0, lambda t: 0.0)
    check = dvdt_bound(fs, bd, signed)
    assert not check.passed
    assert check.margin == -np.inf
    assert check.worst_point == (-1.0,)
    assert check.worst_t == float(bd.t_grid[0])


def test_nan_gradient_fails_linear_growth(euclidean2):
    wave = make_wave(lambda x, u: 0.0,
                     dx=lambda x, u: np.full(2, np.nan) if u > 0.5 else np.zeros(2),
                     du=lambda x, u: 0.0)
    check = check_linear_growth_gradH(euclidean2, wave, box_grid([-4, -4], [4, 4], [9, 9]),
                                      np.linspace(-1, 1, 5))
    assert not check.passed
    assert check.margin == -np.inf
    assert check.worst_t == 1.0


FORCE_EVIDENCE = [
    ("manifold_complete_flag",
     "unverified scenario assertion that the base manifold is geodesically complete"),
    ("operator_bound_lower", "N_T is the sampled supremum of -S_inf"),
    ("operator_bound_two_sided", "N_T is the sampled supremum of the operator norm"),
    ("operator_bound_upper", "N_T is the sampled supremum of S_sup"),
    ("potential_bounded_below", "min of V - beta0 over the sample grid"),
    ("potential_dt_backward", "min of alpha0*(V - beta0) - signed dV/dt over the sample grid"),
    ("potential_dt_forward", "min of alpha0*(V - beta0) - signed dV/dt over the sample grid"),
    ("potential_dt_two_sided", "min of alpha0*(V - beta0) - signed dV/dt over the sample grid"),
]
WAVE_EVIDENCE = [
    ("manifold_complete_flag",
     "unverified scenario assertion that the base manifold is geodesically complete"),
    ("wave_bounded_above", "min of beta0 - H over the sample grid"),
    ("wave_du_bound", "min of alpha0*(beta0 - H) - |dH/du| over the sample grid"),
    ("wave_gradient_linear_growth",
     "2 * median-decile ratio - farthest-decile ratio of |grad H|_g / (1 + distance)"),
]


def force_routes(two_sided, forward, backward):
    return [
        ("two_sided", "complete-by-potential-bounds", two_sided,
         ["manifold_complete_flag", "potential_bounded_below", "operator_bound_two_sided",
          "potential_dt_two_sided"]),
        ("forward", "forward-complete-by-potential-bounds", forward,
         ["manifold_complete_flag", "potential_bounded_below", "operator_bound_upper",
          "potential_dt_forward"]),
        ("backward", "backward-complete-by-potential-bounds", backward,
         ["manifold_complete_flag", "potential_bounded_below", "operator_bound_lower",
          "potential_dt_backward"]),
    ]


def wave_routes(bounds, growth):
    return [
        ("wave_bounds", "complete-by-wave-coefficient-bounds", bounds,
         ["manifold_complete_flag", "wave_bounded_above", "wave_du_bound"]),
        ("linear_growth", "complete-by-linear-gradient-growth", growth,
         ["manifold_complete_flag", "wave_gradient_linear_growth"]),
    ]


# each bundled certify scenario: its verdict, (route, verdict, passed,
# premises) in route order, and its evidence names with their notes
BUNDLED_CERTIFICATES = {
    "exp-certify": ("complete-by-potential-bounds", force_routes(True, True, True),
                    FORCE_EVIDENCE),
    "harmonic-certify": ("complete-by-potential-bounds", force_routes(True, True, True),
                         FORCE_EVIDENCE),
    "quartic-certify": ("inconclusive", force_routes(False, False, False), FORCE_EVIDENCE),
    "gpw-well-certify": ("complete-by-wave-coefficient-bounds", wave_routes(True, False),
                         WAVE_EVIDENCE),
    "plane-wave-certify": ("complete-by-linear-gradient-growth", wave_routes(False, True),
                           WAVE_EVIDENCE),
}


@pytest.mark.parametrize("name", sorted(BUNDLED_CERTIFICATES))
def test_bundled_certificates_keep_their_routes_and_evidence(name, tmp_path):
    cert = run_scenario(load_scenario(bundled_scenarios()[name]), tmp_path).certificate
    verdict, routes, notes = BUNDLED_CERTIFICATES[name]
    assert cert["verdict"] == verdict
    assert [(r["route"], r["verdict"], r["passed"], r["premises"]) for r in cert["routes"]] == routes
    assert [(e["name"], e["note"]) for e in cert["evidence"]] == notes
