import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from wavetraj.catalog import build_potential, expression_potential
from wavetraj.dynamics import (ForceSystem, build_energy_frame, energy_derivative_identity,
                               energy_v, operator_eigen_range, rhs_E)
from wavetraj.errors import EigFailure
from wavetraj.geometry import ChartManifold
from wavetraj.gpw import WaveCoefficient

from conftest import box_grid, tensor_force, window


def const_tensor(mat):
    mat = np.asarray(mat, dtype=float)
    return lambda x, t: mat

def test_rhs_harmonic(euclidean2, harmonic):
    out = rhs_E(euclidean2, harmonic, (np.array([1.0, 0.0]), np.zeros(2), 0.0))
    assert_allclose(out, [0.0, 0.0, -1.0, 0.0], atol=0)


def test_rhs_rotation_force(euclidean2, free):
    fs = ForceSystem(potential=free.potential, potential_dx=free.potential_dx,
                     potential_dt=free.potential_dt, tensor_F=const_tensor([[0, 1], [-1, 0]]),
                     time_independent=True)
    out = rhs_E(euclidean2, fs, (np.zeros(2), np.array([1.0, 0.0]), 0.0))
    assert_allclose(out, [1.0, 0.0, 0.0, -1.0], atol=0)


def test_rhs_hyperbolic_geodesic(hyperbolic, free):
    # frozen from the Christoffel values of the geometry tests: the curve bends
    # toward the boundary, acceleration (0, -1) at ((0,1),(1,0))
    out = rhs_E(hyperbolic, free, (np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.0))
    assert_allclose(out, [1.0, 0.0, 0.0, -1.0], atol=1e-14)


def test_operator_eigen_range_skew_vanishes(euclidean2):
    omega = 2.5
    fs = tensor_force(const_tensor([[0, omega], [-omega, 0]]))
    lo, hi = operator_eigen_range(euclidean2, fs, np.zeros((1, 2)), 0.0)
    assert_allclose([lo, hi], [[0.0], [0.0]], atol=0)


def test_operator_eigen_range_diagonal_fixed(euclidean2):
    fs = tensor_force(const_tensor([[1.5, 0], [0, -2.0]]))
    lo, hi = operator_eigen_range(euclidean2, fs, np.zeros((1, 2)), 0.0)
    assert_allclose([lo, hi], [[-2.0], [1.5]], atol=0)


def test_operator_eigen_range_curved_metric():
    # G = diag(4, 1), F = [[0,1],[0,0]]: S = [[0, 1/2], [2, 0]] (frozen from a
    # symbolic matrix oracle), whose eigenvalues are -1 and 1
    m = ChartManifold(dim=2, metric=np.diag([4.0, 1.0]))
    fs = tensor_force(const_tensor([[0, 1], [0, 0]]))
    lo, hi = operator_eigen_range(m, fs, np.zeros((1, 2)), 0.0)
    assert_allclose([lo, hi], [[-1.0], [1.0]], atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_skew_part_is_metric_skew_adjoint(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    a = rng.normal(size=(n, n))
    g = a @ a.T + n * np.eye(n)
    f = rng.normal(size=(n, n))
    m = ChartManifold(dim=n, metric=g)
    fs = tensor_force(const_tensor(f))
    # the metric-self-adjoint part S = (F + G^-1 F^T G)/2 and its skew rest
    s = 0.5 * (f + np.linalg.solve(g, f.T @ g))
    skew = f - s
    assert_allclose(g @ skew + skew.T @ g, np.zeros((n, n)), atol=1e-10)
    assert_allclose(g @ s, (g @ s).T, atol=1e-10)
    # S is G-self-adjoint, so its eigenvalues are real: their extremes are the range
    lam = np.sort(np.linalg.eigvals(s).real)
    lo, hi = operator_eigen_range(m, fs, np.zeros((1, n)), 0.0)
    assert_allclose([lo[0], hi[0]], [lam[0], lam[-1]], rtol=1e-10, atol=1e-10)
    # only S feeds the energy: the identity's g(xd, F xd) is xd^T G S xd
    xdot = rng.normal(size=(3, n))
    identity = energy_derivative_identity(m, fs, (np.zeros((3, n)), xdot, np.zeros(3)))
    assert_allclose(identity, [w @ g @ s @ w for w in xdot], rtol=1e-10, atol=1e-10)


def test_operator_bounds_scalar(euclidean2):
    c = 0.7
    fs = tensor_force(const_tensor(-c * np.eye(2)))
    lo, hi = operator_eigen_range(euclidean2, fs, [[0.0, 0.0], [1.0, 2.0]], 0.0)
    assert_allclose([lo.min(), hi.max()], [-c, -c], atol=1e-14)


def test_operator_bounds_skew_zero(euclidean2):
    fs = tensor_force(const_tensor([[0, 3], [-3, 0]]))
    lo, hi = operator_eigen_range(euclidean2, fs, [[0.0, 0.0]], 0.0)
    assert_allclose([lo.min(), hi.max()], [0.0, 0.0], atol=1e-13)


def test_operator_bounds_diagonal(euclidean2):
    fs = tensor_force(const_tensor([[1, 0], [0, -2]]))
    lo, hi = operator_eigen_range(euclidean2, fs, [[0.0, 0.0]], 0.0)
    assert_allclose([lo.min(), hi.max()], [-2.0, 1.0], atol=1e-13)


def test_operator_bounds_monotone_under_refinement(euclidean2):
    # position-dependent force: refining the grid never shrinks the interval
    fs = tensor_force(lambda x, t: np.diag([np.sin(3 * x[0]), np.cos(2 * x[1])]))
    coarse = box_grid([-1, -1], [1, 1], [3, 3])
    fine = np.vstack([coarse, box_grid([-1, -1], [1, 1], [7, 7])])
    lo_c, hi_c = operator_eigen_range(euclidean2, fs, coarse, 0.0)
    lo_f, hi_f = operator_eigen_range(euclidean2, fs, fine, 0.0)
    assert lo_f.min() <= lo_c.min()
    assert hi_f.max() >= hi_c.max()


def test_energy_v_examples(euclidean2, hyperbolic, harmonic):
    frame = build_energy_frame(window(lambda t: 0.0, lambda t: 0.0, 1.0), 0.0)  # B_T = -1
    # one state per row: the zero state, then x = xdot = (1, 0)
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    vals = energy_v(euclidean2, harmonic, frame, (x, x, np.zeros(2)))
    assert vals.shape == (2,)
    assert_allclose(vals, [1.0, 2.0], rtol=1e-6)
    frame2 = build_energy_frame(window(lambda t: 0.0, lambda t: 2.0, 1.0), 0.0)  # B_T = 1
    v_const = expression_potential("2", 2)
    val = energy_v(hyperbolic, v_const, frame2, ([[0.0, 2.0]], [[2.0, 0.0]], [0.0]))
    assert val.shape == (1,)
    assert val[0] == pytest.approx(1.5)
    with pytest.raises(ValueError, match="outside the energy frame window"):
        energy_v(euclidean2, harmonic, frame, (x, x, [0.0, 1.5]))


def test_energy_derivative_identity_examples(euclidean2):
    autonomous = build_potential("harmonic", {}, 2)
    assert_array_equal(energy_derivative_identity(euclidean2, autonomous,
                                                  ([[1.0, 2.0]], [[0.5, -0.5]], [0.3])), [0.0])
    c = 1.3
    dissipative = ForceSystem(potential=autonomous.potential, potential_dx=autonomous.potential_dx,
                              potential_dt=autonomous.potential_dt,
                              tensor_F=const_tensor(-c * np.eye(2)), time_independent=True)
    xdot = np.array([2.0, 1.0])
    u = float(xdot @ xdot)
    val = energy_derivative_identity(euclidean2, dissipative, (np.zeros((1, 2)), xdot[None], [0.0]))
    assert val[0] == pytest.approx(-c * u)
    exp_pot = build_potential("exp_time_quadratic", {}, 2)
    val = energy_derivative_identity(euclidean2, exp_pot, ([[0.0, 0.0]], [[1.0, 0.0]], [1.0]))
    assert val[0] == pytest.approx(np.e, rel=1e-14)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3), t=st.floats(-5.0, 5.0),
       k=st.floats(-1e3, 1e3, allow_subnormal=False))
def test_catalog_potentials_keep_their_float_formulas(x, t, k):
    # the templates' operations are the float formulas' own, so the values match bit for bit
    n = len(x)
    s = 0.0
    for c in x:
        s += c * c
    harmonic = build_potential("harmonic", {"k": k}, n)
    assert harmonic.potential(x, t) == 0.5 * k * s
    assert list(harmonic.potential_dx(x, t)) == [k * c for c in x]
    exp_quadratic = build_potential("exp_time_quadratic", {}, n)
    assert exp_quadratic.potential(x, t) == exp_quadratic.potential_dt(x, t) == math.exp(t) * (1.0 + s)
    assert list(exp_quadratic.potential_dx(x, t)) == [2.0 * math.exp(t) * c for c in x]
    quartic = build_potential("negative_quartic", {"c": k}, n)
    assert quartic.potential(x, t) == -k * (s * s)
    # its gradient rounds (x_i S) c where the formula rounds (c S) x_i: two roundings on each side
    assert_allclose(quartic.potential_dx(x, t), [-4.0 * k * s * c for c in x], rtol=1e-15, atol=1e-300)


def _zero(x, s):
    return 0.0


@pytest.mark.parametrize("source,derivatives", [
    (ForceSystem, {"potential_dt": _zero}),
    (ForceSystem, {"potential_dx": _zero}),
    (ForceSystem, {"potential_dx": None, "potential_dt": _zero}),
    (WaveCoefficient, {"h_du": _zero}),
    (WaveCoefficient, {"h_dx": _zero}),
    (WaveCoefficient, {"h_dx": _zero, "h_du": None}),
])
def test_a_source_without_its_derivative_is_a_construction_error(source, derivatives):
    # nothing stands in for a missing derivative
    with pytest.raises(TypeError, match="missing 1 required|needs its derivatives"):
        source(_zero, **derivatives)


def test_energy_frame_constants():
    frame = build_energy_frame(window(lambda t: t * t, lambda t: np.cos(t), 2.0), 1.5)
    assert frame.a_t == pytest.approx(4.0)
    assert frame.b_t == pytest.approx(np.cos(2.0) - 1.0)
    assert frame.a_t_star == pytest.approx(2 * 1.5 + 4.0)


def test_frame_shift_keeps_potential_at_least_one(euclidean2):
    # with B_T = min beta0 - 1 the shifted potential clears 1 wherever the
    # lower bound itself holds
    fs = build_potential("exp_time_quadratic", {}, 2)
    frame = build_energy_frame(window(lambda t: 1.0, lambda t: 0.0, 3.0), 0.0)
    worst = min(fs.potential(p.tolist(), float(t)) - frame.b_t
                for t in np.linspace(-3.0, 3.0, 13)
                for p in box_grid([-2, -2], [2, 2], [5, 5]))
    assert worst >= 1.0


def test_fd_of_energy_matches_identity_on_autonomous_systems(hyperbolic, euclidean2):
    # centered difference of the energy along accepted trajectories against
    # the exact derivative identity, on force-free and harmonic systems
    from wavetraj.integrate import IntegratorConfig, integrate, sample

    frame = build_energy_frame(window(lambda t: 0.0, lambda t: 0.0, 10.0), 0.0)
    cases = [
        (hyperbolic, build_potential("zero", {}, 2), np.array([0.0, 1.0]), np.array([1.0, 0.0])),
        (euclidean2, build_potential("harmonic", {}, 2), np.array([1.0, 0.0]), np.array([0.0, 1.0])),
    ]
    h = 1e-3
    for m, fs, p, v in cases:
        traj = integrate(m, fs, (p, v), IntegratorConfig(horizon=10.0))
        ts = np.linspace(0.1, 9.9, 30)

        def v_at(times):
            x, xd = sample(traj, times)
            return energy_v(m, fs, frame, (x, xd, times))

        fd = (v_at(ts + h) - v_at(ts - h)) / (2.0 * h)
        x, xd = sample(traj, ts)
        exact = energy_derivative_identity(m, fs, (x, xd, ts))
        assert (np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))).max() < 1e-4


def test_operator_eigen_range_within_rounding_of_scipy_eigh():
    # the stacked Cholesky reduction and scipy's dsygvd reach the same
    # eigenvalues by different rounding: each agrees with eigh within
    # 8 n u kappa_2(G) max|lambda|, u the unit roundoff
    import scipy.linalg

    from wavetraj.catalog import build_manifold
    from wavetraj.geometry import metrics_at

    def check(m, fs, points, f):
        lo, hi = operator_eigen_range(m, fs, points, 0.0)
        for p, g, got in zip(points, metrics_at(m, points), zip(lo, hi)):
            w = scipy.linalg.eigh(0.5 * (g @ f + f.T @ g), g, eigvals_only=True)
            bound = 8 * m.dim * 2.0**-53 * np.linalg.cond(g) * np.abs(w).max()
            assert np.abs(np.array(got) - w[[0, -1]]).max() <= bound, p

    m = build_manifold("diagonal_conformal", {"entries": ["1 + x1^2", "2 + sin(x1*x2)"]})
    rng = np.random.default_rng(5)
    for _ in range(200):
        f = rng.normal(size=(2, 2))
        check(m, tensor_force(const_tensor(f)), rng.uniform(-2.0, 2.0, (1, 2)), f)
    for n in range(1, 5):
        for _ in range(50):
            a = rng.normal(size=(n, n))
            f = rng.normal(size=(n, n))
            m = ChartManifold(dim=n, metric=a @ a.T + rng.uniform(0.01, 1.0) * np.eye(n))
            check(m, tensor_force(const_tensor(f)), rng.normal(size=(3, n)), f)


def test_operator_eigen_range_names_the_row_where_F_is_not_finite(euclidean2):
    grid = np.array([[-1.0, 2.0], [0.5, 2.0], [1.0, 2.0]])
    for bad in (math.inf, math.nan):
        fs = tensor_force(lambda x, t, bad=bad: [[bad if x[0] == 0.5 else 1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(EigFailure, match=re.escape(str(grid[1]))):
            operator_eigen_range(euclidean2, fs, grid, 0.0)
