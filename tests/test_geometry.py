import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wavetraj.errors import NotPositiveDefinite, OutOfChart
from wavetraj.geometry import ChartManifold, TangentVector, christoffel_at, gradient, metric_at


def diag_metric(entries_fn, n, guard=None):
    return ChartManifold(dim=n, metric=lambda x: np.diag(entries_fn(x)), domain_guard=guard)


def test_metric_euclidean_identity(euclidean2):
    g = metric_at(euclidean2, [3.7, -1.2])
    assert_allclose(g, np.eye(2), rtol=0, atol=0)


def test_metric_hyperbolic_half_plane(hyperbolic):
    g = metric_at(hyperbolic, [0.3, 2.0])
    assert_allclose(g, np.diag([0.25, 0.25]), rtol=1e-15)


def test_metric_diagonal_example():
    m = diag_metric(lambda x: [1.0 + x[0] ** 2, 1.0], 2)
    assert_allclose(metric_at(m, [2.0, 0.0]), np.diag([5.0, 1.0]), rtol=1e-15)


def test_metric_symmetrized_within_tolerance():
    skewed = np.array([[1.0, 1e-13], [0.0, 1.0]])
    m = ChartManifold(dim=2, metric=lambda x: skewed)
    g = metric_at(m, [0.0, 0.0])
    assert_allclose(g, g.T, rtol=0, atol=0)
    assert_allclose(g[0, 1], 5e-14)


def test_metric_asymmetry_beyond_tolerance_rejected():
    bad = np.array([[1.0, 1e-3], [0.0, 1.0]])
    m = ChartManifold(dim=2, metric=lambda x: bad)
    with pytest.raises(ValueError, match="not symmetric"):
        metric_at(m, [0.0, 0.0])


def test_metric_not_positive_definite():
    m = diag_metric(lambda x: [1.0, x[0]], 2)
    with pytest.raises(NotPositiveDefinite):
        metric_at(m, [-1.0, 0.0])


def test_metric_out_of_chart(hyperbolic):
    with pytest.raises(OutOfChart):
        metric_at(hyperbolic, [0.0, -1.0])


def test_christoffel_euclidean_zero(euclidean2):
    gamma = christoffel_at(euclidean2, [1.0, 2.0])
    assert_allclose(gamma, np.zeros((2, 2, 2)), atol=0)


def test_constant_metric_is_flat_with_zero_christoffel_source(euclidean2):
    assert euclidean2.flat and euclidean2.identity_metric
    # a zero source, not the finite-difference path
    assert euclidean2.christoffel is not None
    gamma = christoffel_at(euclidean2, [1.0, 2.0])
    assert gamma.shape == (2, 2, 2) and not gamma.any()
    g = metric_at(euclidean2, [1.0, 2.0])
    assert g is metric_at(euclidean2, [-5.0, 0.0])
    assert not g.flags.writeable


def test_constant_metric_checked_at_construction():
    with pytest.raises(ValueError, match="not symmetric as a constant"):
        ChartManifold(dim=2, metric=np.array([[1.0, 1e-3], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite, match="as a constant") as info:
        ChartManifold(dim=2, metric=np.diag([1.0, -1.0]))
    assert info.value.point is None
    assert info.value.eigenvalue == -1.0
    with pytest.raises(ValueError, match="shape"):
        ChartManifold(dim=2, metric=np.eye(3))
    with pytest.raises(ValueError, match="christoffel must be None"):
        ChartManifold(dim=2, metric=np.eye(2), christoffel=lambda x: np.zeros((2, 2, 2)))


def test_constant_metric_symmetrized_once():
    m = ChartManifold(dim=2, metric=[[2.0, 1e-13], [0.0, 1.0]])
    g = metric_at(m, [0.0, 0.0])
    assert_allclose(g, g.T, rtol=0, atol=0)
    assert m.flat and not m.identity_metric


def test_constant_metric_keeps_chart_guard():
    m = ChartManifold(dim=2, metric=np.eye(2), domain_guard=lambda x: x[0] < 2.0)
    for fn in (metric_at, christoffel_at):
        with pytest.raises(OutOfChart):
            fn(m, [3.0, 0.0])


# hand computation from the closed-form half-plane metric, cross-checked by sympy
HYPERBOLIC_GAMMA_AT_01 = {
    (0, 0, 1): -1.0,
    (0, 1, 0): -1.0,
    (1, 0, 0): 1.0,
    (1, 1, 1): -1.0,
}


def test_christoffel_hyperbolic_analytic(hyperbolic):
    gamma = christoffel_at(hyperbolic, [0.0, 1.0])
    expected = np.zeros((2, 2, 2))
    for idx, val in HYPERBOLIC_GAMMA_AT_01.items():
        expected[idx] = val
    assert_allclose(gamma, expected, atol=1e-14)


def test_christoffel_hyperbolic_finite_difference_matches():
    m = ChartManifold(dim=2, metric=lambda x: np.diag([1.0 / x[1] ** 2] * 2),
                      domain_guard=lambda x: x[1] > 0)
    gamma = christoffel_at(m, [0.0, 1.0])
    expected = np.zeros((2, 2, 2))
    for idx, val in HYPERBOLIC_GAMMA_AT_01.items():
        expected[idx] = val
    assert_allclose(gamma, expected, atol=1e-9)


def test_christoffel_exponential_metric():
    # metric diag(e^{2 x2}, 1): frozen from a symbolic differentiation oracle
    m = diag_metric(lambda x: [np.exp(2.0 * x[1]), 1.0], 2)
    y = 0.3
    gamma = christoffel_at(m, [0.7, y])
    assert_allclose(gamma[0, 0, 1], 1.0, rtol=1e-9)
    assert_allclose(gamma[0, 1, 0], 1.0, rtol=1e-9)
    assert_allclose(gamma[1, 0, 0], -np.exp(2.0 * y), rtol=1e-9)
    assert_allclose(gamma[1, 1, 1], 0.0, atol=1e-9)


def test_christoffel_symmetric_lower_indices():
    m = diag_metric(lambda x: [1.0 + x[0] ** 2 + x[1] ** 2, 2.0 + np.sin(x[0])], 2)
    gamma = christoffel_at(m, [0.4, -0.7])
    assert_allclose(gamma, gamma.transpose(0, 2, 1), atol=0)


def test_christoffel_fd_second_order_convergence():
    m_fd = ChartManifold(dim=2, metric=lambda x: np.diag([1.0 / x[1] ** 2] * 2),
                         domain_guard=lambda x: x[1] > 0)
    exact = np.zeros((2, 2, 2))
    for idx, val in HYPERBOLIC_GAMMA_AT_01.items():
        exact[idx] = val
    err_h = np.abs(christoffel_at(m_fd, [0.0, 1.0], h=1e-3) - exact).max()
    err_h2 = np.abs(christoffel_at(m_fd, [0.0, 1.0], h=5e-4) - exact).max()
    assert err_h / err_h2 == pytest.approx(4.0, rel=0.15)


def test_christoffel_stencil_must_fit_in_chart(hyperbolic):
    m_fd = ChartManifold(dim=2, metric=lambda x: np.diag([1.0 / x[1] ** 2] * 2),
                         domain_guard=lambda x: x[1] > 0)
    with pytest.raises(OutOfChart):
        christoffel_at(m_fd, [0.0, 1e-9])


def test_gradient_examples(euclidean2, hyperbolic):
    assert_allclose(gradient(euclidean2, [0.0, 0.0], [2.0, 0.0]).components, [2.0, 0.0])
    m = diag_metric(lambda x: [4.0, 1.0], 2)
    assert_allclose(gradient(m, [0.0, 0.0], [2.0, 0.0]).components, [0.5, 0.0])
    assert_allclose(gradient(hyperbolic, [0.0, 1.0], [1.0, 1.0]).components, [1.0, 1.0])


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_gradient_linear_and_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    a = rng.normal(size=(n, n))
    g = a @ a.T + n * np.eye(n)
    m = ChartManifold(dim=n, metric=lambda x: g)
    x = rng.normal(size=n)
    dv1 = rng.normal(size=n)
    dv2 = rng.normal(size=n)
    c = float(rng.normal())
    lin = gradient(m, x, dv1 + c * dv2).components
    assert_allclose(lin, gradient(m, x, dv1).components + c * gradient(m, x, dv2).components,
                    rtol=1e-9, atol=1e-9)
    w = rng.normal(size=n)
    assert_allclose(gradient(m, x, g @ w).components, w, rtol=1e-9, atol=1e-9)


def test_tangent_vector_norm(hyperbolic):
    v = TangentVector(base=np.array([0.0, 2.0]), components=np.array([2.0, 0.0]))
    assert v.norm_sq(hyperbolic) == pytest.approx(1.0)
    zero = TangentVector(base=np.array([0.0, 2.0]), components=np.zeros(2))
    assert zero.norm_sq(hyperbolic) == 0.0
