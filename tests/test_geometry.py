import numpy as np
import pytest
from numpy.testing import assert_allclose

from wavetraj.catalog import build_manifold, metric_rows
from wavetraj.errors import NotPositiveDefinite, OutOfChart
from wavetraj.geometry import ChartManifold, christoffel_at, metric_at


def diag_metric(entries):
    """The chart whose metric is diagonal with the expression text entries."""
    return build_manifold("diagonal_conformal", {"entries": entries})


def half_plane_rows():
    """The hyperbolic half-plane as metric rows, guard x2 > 0."""
    return metric_rows([["1/x2^2", "0"], ["0", "1/x2^2"]], guard="x2")


def test_metric_euclidean_identity(euclidean2):
    g = metric_at(euclidean2, [3.7, -1.2])
    assert_allclose(g, np.eye(2), rtol=0, atol=0)


def test_metric_hyperbolic_half_plane(hyperbolic):
    g = metric_at(hyperbolic, [0.3, 2.0])
    assert_allclose(g, np.diag([0.25, 0.25]), rtol=1e-15)


def test_metric_diagonal_example():
    m = diag_metric(["1 + x1^2", "1"])
    assert_allclose(metric_at(m, [2.0, 0.0]), np.diag([5.0, 1.0]), rtol=1e-15)


def test_metric_symmetrized_within_tolerance():
    m = metric_rows([["1", "1e-13"], ["0", "1"]])
    g = metric_at(m, [0.0, 0.0])
    assert_allclose(g, g.T, rtol=0, atol=0)
    assert_allclose(g[0, 1], 5e-14)


def test_metric_asymmetry_beyond_tolerance_rejected():
    m = metric_rows([["1", "1e-3"], ["0", "1"]])
    with pytest.raises(ValueError, match="not symmetric"):
        metric_at(m, [0.0, 0.0])


def test_metric_not_positive_definite():
    m = diag_metric(["1", "x1"])
    with pytest.raises(NotPositiveDefinite):
        metric_at(m, [-1.0, 0.0])


def test_metric_out_of_chart(hyperbolic):
    with pytest.raises(OutOfChart):
        metric_at(hyperbolic, [0.0, -1.0])


def test_christoffel_euclidean_zero(euclidean2):
    gamma = christoffel_at(euclidean2, [1.0, 2.0])
    assert_allclose(gamma, np.zeros((2, 2, 2)), atol=0)


def test_constant_metric_is_flat_with_no_geodesic_term(euclidean2):
    assert euclidean2.flat and euclidean2.identity_metric
    # no term, not the finite-difference one
    assert euclidean2.geodesic_term is None
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
    with pytest.raises(ValueError, match="geodesic_term must be None"):
        ChartManifold(dim=2, metric=np.eye(2), geodesic_term=lambda x, v: [0.0, 0.0])
    with pytest.raises(ValueError, match="needs its geodesic_term"):
        ChartManifold(dim=2, metric=lambda x: np.eye(2))


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


def test_hyperbolic_geodesic_term_analytic(hyperbolic):
    # G = I at (0, 1), so the term is Γ^k_ij v^i v^j there
    gamma = np.zeros((2, 2, 2))
    for idx, val in HYPERBOLIC_GAMMA_AT_01.items():
        gamma[idx] = val
    v = np.array([0.7, -1.3])
    term = hyperbolic.geodesic_term([0.0, 1.0], v.tolist())
    assert_allclose(term, np.einsum("kij,i,j->k", gamma, v, v), rtol=1e-15, atol=0)


def test_christoffel_hyperbolic_finite_difference_matches():
    gamma = christoffel_at(half_plane_rows(), [0.0, 1.0])
    expected = np.zeros((2, 2, 2))
    for idx, val in HYPERBOLIC_GAMMA_AT_01.items():
        expected[idx] = val
    assert_allclose(gamma, expected, atol=1e-9)


def test_christoffel_exponential_metric():
    # metric diag(e^{2 x2}, 1): frozen from a symbolic differentiation oracle
    m = diag_metric(["exp(2*x2)", "1"])
    y = 0.3
    gamma = christoffel_at(m, [0.7, y])
    assert_allclose(gamma[0, 0, 1], 1.0, rtol=1e-9)
    assert_allclose(gamma[0, 1, 0], 1.0, rtol=1e-9)
    assert_allclose(gamma[1, 0, 0], -np.exp(2.0 * y), rtol=1e-9)
    assert_allclose(gamma[1, 1, 1], 0.0, atol=1e-9)


def test_christoffel_symmetric_lower_indices():
    m = diag_metric(["1 + x1^2 + x2^2", "2 + sin(x1)"])
    gamma = christoffel_at(m, [0.4, -0.7])
    assert_allclose(gamma, gamma.transpose(0, 2, 1), atol=0)


def test_christoffel_fd_second_order_convergence():
    m_fd = half_plane_rows()
    exact = np.zeros((2, 2, 2))
    for idx, val in HYPERBOLIC_GAMMA_AT_01.items():
        exact[idx] = val
    err_h = np.abs(christoffel_at(m_fd, [0.0, 1.0], h=1e-3) - exact).max()
    err_h2 = np.abs(christoffel_at(m_fd, [0.0, 1.0], h=5e-4) - exact).max()
    assert err_h / err_h2 == pytest.approx(4.0, rel=0.15)


def test_christoffel_stencil_must_fit_in_chart():
    with pytest.raises(OutOfChart):
        christoffel_at(half_plane_rows(), [0.0, 1e-9])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_constant_metric_rejected(value):
    g = np.eye(2)
    g[0, 0] = value
    with pytest.raises(NotPositiveDefinite, match="not finite as a constant") as info:
        ChartManifold(dim=2, metric=g)
    assert info.value.point is None


def test_non_finite_metric_function_rejected():
    m = ChartManifold(dim=2, metric=lambda x: np.full((2, 2), np.nan),
                      geodesic_term=lambda x, v: [0.0, 0.0])
    with pytest.raises(NotPositiveDefinite, match="not finite at") as info:
        metric_at(m, [0.5, -1.0])
    assert_allclose(info.value.point, [0.5, -1.0])
