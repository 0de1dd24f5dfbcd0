import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavetraj.catalog import build_potential
from wavetraj.dynamics import ForceSystem
from wavetraj.gpw import WaveCoefficient
from wavetraj.hypotheses import (BACKWARD_COMPLETE, COMPLETE_POTENTIAL_BOUNDS,
                                 COMPLETE_WAVE_BOUNDS, FORWARD_COMPLETE, INCONCLUSIVE,
                                 BoundData, CertificationTask, certify, check_S_bounds,
                                 check_bounded_below, check_dVdt_bound,
                                 check_linear_growth_gradH, check_wave_bounded_above,
                                 check_wave_du_bound)

from conftest import box_grid, tensor_force, window

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


def test_bounded_below_harmonic():
    check = check_bounded_below(build_potential("harmonic", {}, 2),
                                bounds_2d(lambda t: 0.0, lambda t: 0.0))
    assert check.passed
    assert check.margin == pytest.approx(0.0)
    assert_allclose(check.worst_point, [0.0, 0.0])


def test_bounded_below_negative_quartic_fails():
    check = check_bounded_below(build_potential("negative_quartic", {}, 1),
                                bounds_1d(lambda t: 0.0, lambda t: 0.0))
    assert not check.passed
    assert check.margin == pytest.approx(-16.0)


def test_bounded_below_exp_potential():
    check = check_bounded_below(build_potential("exp_time_quadratic", {}, 2),
                                bounds_2d(lambda t: 0.0, lambda t: np.exp(t)))
    assert check.passed
    assert check.margin == pytest.approx(0.0, abs=1e-12)
    assert_allclose(check.worst_point, [0.0, 0.0])


def test_s_bounds_zero_force(euclidean2):
    checks = check_S_bounds(euclidean2, build_potential("harmonic", {}, 2), S_WINDOW)
    assert checks["bounded"].values["N_T"] == 0.0
    assert checks["upper_bounded"].values["N_T"] == 0.0
    assert checks["lower_bounded"].values["N_T"] == 0.0


def test_s_bounds_skew_rotation(euclidean2):
    fs = tensor_force(lambda x, t: np.array([[0.0, 2.0], [-2.0, 0.0]]))
    checks = check_S_bounds(euclidean2, fs, S_WINDOW)
    assert checks["bounded"].values["N_T"] == pytest.approx(0.0, abs=1e-12)


def test_s_bounds_time_dependent_scalar(euclidean2):
    # F = -(1 + t^2) I on [-2, 2]: two-sided bound 5, frozen by arithmetic
    fs = tensor_force(lambda x, t: -(1.0 + t * t) * np.eye(2))
    checks = check_S_bounds(euclidean2, fs, S_WINDOW)
    assert checks["bounded"].values["N_T"] == pytest.approx(5.0)
    assert checks["upper_bounded"].values["N_T"] == pytest.approx(-1.0)
    assert checks["lower_bounded"].values["N_T"] == pytest.approx(5.0)


def test_dvdt_autonomous_zero_alpha():
    check = check_dVdt_bound(build_potential("harmonic", {}, 2),
                             bounds_2d(lambda t: 0.0, lambda t: 0.0), "two_sided")
    assert check.passed
    assert check.margin == pytest.approx(0.0)


def test_dvdt_exp_potential_identity():
    # |dV/dt| = V = 1 * (V - 0) exactly, margin 0 on every grid point
    check = check_dVdt_bound(build_potential("exp_time_quadratic", {}, 2),
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
    check = check_dVdt_bound(fs, bd, "two_sided")
    assert not check.passed
    assert check.margin == pytest.approx(-4.0)
    assert check.worst_t == 0.0


def test_dvdt_one_sided_variants():
    # dV/dt = -V <= 0 = alpha0 (V - beta0) holds forward but not backward
    fs = ForceSystem(potential=lambda x, t: np.exp(-t) * (1.0 + float(np.dot(x, x))),
                     potential_dx=lambda x, t: 2.0 * np.exp(-t) * np.asarray(x),
                     potential_dt=lambda x, t: -np.exp(-t) * (1.0 + float(np.dot(x, x))))
    bd = bounds_2d(lambda t: 0.0, lambda t: 0.0)
    assert check_dVdt_bound(fs, bd, "forward").passed
    assert not check_dVdt_bound(fs, bd, "backward").passed
    assert not check_dVdt_bound(fs, bd, "two_sided").passed


def test_dvdt_dependent_failure_stamp():
    check = check_dVdt_bound(build_potential("harmonic", {}, 2),
                             bounds_2d(lambda t: 0.0, lambda t: 0.0),
                             "two_sided", prerequisite_passed=False)
    assert check.dependent_failure
    assert not check.passed


def make_wave(h, dx, du):
    return WaveCoefficient(h=h, h_dx=dx, h_du=du)


def test_linear_growth_plane_wave(euclidean2):
    wave = make_wave(lambda x, u: x[0] ** 2 - x[1] ** 2,
                     dx=lambda x, u: np.array([2.0 * x[0], -2.0 * x[1]]),
                     du=lambda x, u: 0.0)
    check = check_linear_growth_gradH(euclidean2, wave, box_grid([-4, -4], [4, 4], [9, 9]),
                                      np.zeros(2), np.linspace(-1, 1, 5))
    assert check.passed


def test_linear_growth_quartic_fails(euclidean2):
    wave = make_wave(lambda x, u: x[0] ** 4,
                     dx=lambda x, u: np.array([4.0 * x[0] ** 3, 0.0]),
                     du=lambda x, u: 0.0)
    check = check_linear_growth_gradH(euclidean2, wave, box_grid([-4, -4], [4, 4], [9, 9]),
                                      np.zeros(2), np.linspace(-1, 1, 3))
    assert not check.passed


def test_linear_growth_constant_passes(euclidean2):
    wave = make_wave(lambda x, u: 3.0, dx=lambda x, u: np.zeros(2), du=lambda x, u: 0.0)
    check = check_linear_growth_gradH(euclidean2, wave, box_grid([-4, -4], [4, 4], [9, 9]),
                                      np.zeros(2), np.linspace(-1, 1, 3))
    assert check.passed


def test_linear_growth_needs_enough_points(euclidean2):
    wave = make_wave(lambda x, u: 0.0, dx=lambda x, u: np.zeros(2), du=lambda x, u: 0.0)
    with pytest.raises(ValueError, match="at least 20"):
        check_linear_growth_gradH(euclidean2, wave, box_grid([-1, -1], [1, 1], [2, 2]),
                                  np.zeros(2), [0.0])


def quartic_well():
    return make_wave(lambda x, u: -float(np.dot(x, x)) ** 2,
                     dx=lambda x, u: -4.0 * float(np.dot(x, x)) * np.asarray(x),
                     du=lambda x, u: 0.0)


def test_linear_growth_needs_a_u_sample(euclidean2):
    # any one u sample fails this wave, so no sample is no evidence, not a pass
    grid = box_grid([-4, -4], [4, 4], [9, 9])
    assert not check_linear_growth_gradH(euclidean2, quartic_well(), grid, [0, 0], [0.0]).passed
    with pytest.raises(ValueError, match="at least one u sample"):
        check_linear_growth_gradH(euclidean2, quartic_well(), grid, [0, 0], [])


@pytest.mark.parametrize("u_grid", [0.5, [[0.0, 0.5]]], ids=["scalar", "2-d"])
def test_linear_growth_u_grid_is_1d(euclidean2, u_grid):
    with pytest.raises(ValueError, match="in 1-d"):
        check_linear_growth_gradH(euclidean2, quartic_well(), box_grid([-4, -4], [4, 4], [9, 9]),
                                  [0, 0], u_grid)


@pytest.mark.parametrize("anchor", [[3.0], [0.0, 0.0, 0.0], [[0.0, 0.0]], 0.0])
def test_linear_growth_anchor_is_one_grid_point(euclidean2, anchor):
    with pytest.raises(ValueError, match="anchor"):
        check_linear_growth_gradH(euclidean2, quartic_well(), box_grid([-4, -4], [4, 4], [9, 9]),
                                  anchor, [0.0])


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
    assert not cert.conclusive
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
    margin_coarse = check_bounded_below(fs, coarse).margin
    margin_fine = check_bounded_below(fs, fine).margin
    assert margin_fine <= margin_coarse


def test_wave_and_potential_route_equivalence(euclidean2):
    # wave-form margins are exactly half the potential-form margins under
    # V = -H/2, beta0_V = -beta0_H/2, identical alpha0
    wave = make_wave(lambda x, u: -float(np.dot(x, x)) ** 2 - np.sin(u),
                     dx=lambda x, u: -4.0 * float(np.dot(x, x)) * np.asarray(x),
                     du=lambda x, u: -np.cos(u))
    alpha = lambda s: 2.0
    beta_h = lambda s: 0.5
    bd_wave = bounds_2d(alpha, beta_h)
    fs = ForceSystem(potential=lambda x, t: 0.5 * (float(np.dot(x, x)) ** 2 + np.sin(t)),
                     potential_dx=lambda x, t: 2.0 * float(np.dot(x, x)) * np.asarray(x),
                     potential_dt=lambda x, t: 0.5 * np.cos(t))
    bd_pot = bounds_2d(alpha, lambda s: -beta_h(s) / 2.0)

    wave_above = check_wave_bounded_above(wave, bd_wave)
    pot_below = check_bounded_below(fs, bd_pot)
    assert wave_above.passed == pot_below.passed
    assert pot_below.margin == pytest.approx(0.5 * wave_above.margin, rel=1e-12)

    wave_du = check_wave_du_bound(wave, bd_wave)
    pot_dt = check_dVdt_bound(fs, bd_pot, "two_sided")
    assert wave_du.passed == pot_dt.passed
    assert pot_dt.margin == pytest.approx(0.5 * wave_du.margin, rel=1e-12)


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
    check = check_bounded_below(fs, bd)
    assert not check.passed
    assert check.margin == -np.inf
    assert check.worst_point == (1.5,)
    assert check.worst_t == float(bd.t_grid[0])


def test_nan_everywhere_fails_bounded_below():
    fs = ForceSystem(potential=lambda x, t: float("nan"),
                     potential_dx=lambda x, t: [float("nan")] * len(x),
                     potential_dt=lambda x, t: float("nan"))
    check = check_bounded_below(fs, bounds_1d(lambda t: 0.0, lambda t: 0.0))
    assert not check.passed
    assert check.worst_point == (-2.0,)
    assert check.worst_t == -3.0


@pytest.mark.parametrize("signed", ["two_sided", "forward", "backward"])
def test_nan_time_derivative_fails_dvdt_bound(signed):
    fs = ForceSystem(potential=lambda x, t: 1.0 + float(np.dot(x, x)),
                     potential_dx=lambda x, t: [2.0 * c for c in x],
                     potential_dt=lambda x, t: _poisoned(x, -1.0, float("nan"), 0.0))
    bd = bounds_1d(lambda t: 1.0, lambda t: 0.0)
    check = check_dVdt_bound(fs, bd, signed=signed)
    assert not check.passed
    assert check.margin == -np.inf
    assert check.worst_point == (-1.0,)
    assert check.worst_t == float(bd.t_grid[0])


def test_nan_gradient_fails_linear_growth(euclidean2):
    wave = make_wave(lambda x, u: 0.0,
                     dx=lambda x, u: np.full(2, np.nan) if u > 0.5 else np.zeros(2),
                     du=lambda x, u: 0.0)
    check = check_linear_growth_gradH(euclidean2, wave, box_grid([-4, -4], [4, 4], [9, 9]),
                                      np.zeros(2), np.linspace(-1, 1, 5))
    assert not check.passed
    assert check.margin == -np.inf
    assert check.worst_t == 1.0
