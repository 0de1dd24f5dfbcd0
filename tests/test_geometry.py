import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from wavetraj.catalog import build_manifold, metric_rows
from wavetraj.errors import NotPositiveDefinite, OutOfChart
from wavetraj.geometry import ChartManifold, christoffel_at, metric_at, metrics_at

from conftest import box_grid


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
    with pytest.raises(NotPositiveDefinite, match=r"not symmetric at \[0\. 0\.\]") as info:
        metric_at(m, [0.0, 0.0])
    assert_array_equal(info.value.point, [0.0, 0.0])
    assert info.value.eigenvalue is None


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
    assert euclidean2.flat
    assert_array_equal(euclidean2.metric, np.eye(2))
    # no term, not the finite-difference one
    assert euclidean2.geodesic_term is None
    gamma = christoffel_at(euclidean2, [1.0, 2.0])
    assert gamma.shape == (2, 2, 2) and not gamma.any()
    g = metric_at(euclidean2, [1.0, 2.0])
    assert g is metric_at(euclidean2, [-5.0, 0.0])
    assert not g.flags.writeable


@pytest.mark.parametrize("metric", [
    np.array([[1.0, 1e-3], [0.0, 1.0]]), np.array([[1.0, 1e-13], [1e-13, 1.0]]),
    np.diag([1.0, -1.0]), np.diag([2.0, 0.5]), np.eye(3), [[1.0, 0.0]],
    np.array([[np.nan, 0.0], [0.0, 1.0]]), np.array([[np.inf, 0.0], [0.0, 1.0]])],
    ids=["asymmetric", "near_identity", "indefinite", "diagonal", "shape", "one_row", "nan",
         "inf"])
def test_a_constant_metric_other_than_the_identity_is_refused(metric):
    with pytest.raises(ValueError, match=r"must be the identity np\.eye\(2\); give any other as "
                                         r"constant metric rows \(catalog\.metric_rows\)"):
        ChartManifold(dim=2, metric=metric)


def test_a_constant_metric_is_the_identity():
    m = ChartManifold(dim=2, metric=[[1.0, -0.0], [0.0, 1.0]])
    assert m.flat and m.metric.tobytes() == np.eye(2).tobytes()
    assert not m.metric.flags.writeable
    with pytest.raises(ValueError, match="geodesic_term must be None"):
        ChartManifold(dim=2, metric=np.eye(2), geodesic_term=lambda x, v: [0.0, 0.0])
    with pytest.raises(ValueError, match="needs its geodesic_term"):
        ChartManifold(dim=2, metric=lambda x: np.eye(2))


def test_constant_metric_rows_are_checked_where_they_are_evaluated():
    m = metric_rows([["1", "1e-3"], ["0", "1"]])
    with pytest.raises(NotPositiveDefinite, match=r"not symmetric at \[0\.5 1\. \]"):
        metric_at(m, [0.5, 1.0])
    with pytest.raises(NotPositiveDefinite, match=r"not positive definite at \[0\.5 1\. \]") as info:
        metric_at(metric_rows([["1", "0"], ["0", "-1"]]), [0.5, 1.0])
    assert_array_equal(info.value.point, [0.5, 1.0])
    assert info.value.eigenvalue == -1.0


def test_constant_metric_rows_symmetrized_and_not_flat():
    m = metric_rows([["2", "1e-13"], ["0", "1"]])
    g = metric_at(m, [0.0, 0.0])
    assert_allclose(g, g.T, rtol=0, atol=0)
    assert not m.flat
    # their geodesic term folds to zero
    assert m.geodesic_term([0.3, -0.2], [1.0, 2.0]) == (0.0, 0.0)


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


def test_non_finite_metric_function_rejected():
    m = ChartManifold(dim=2, metric=lambda x: np.full((2, 2), np.nan),
                      geodesic_term=lambda x, v: [0.0, 0.0])
    with pytest.raises(NotPositiveDefinite, match="not finite at") as info:
        metric_at(m, [0.5, -1.0])
    assert_allclose(info.value.point, [0.5, -1.0])


# ---------------------------------------------------------------- the stacked check

GENERAL_ROWS = [["2 + x1^2", "0.3*x2"], ["0.3*x2", "1 + x2^2"]]


@pytest.mark.parametrize("chart", [lambda: diag_metric(["1 + 0.2*x1^2", "2 + sin(x2)"]),
                                   lambda: metric_rows(GENERAL_ROWS), half_plane_rows],
                         ids=["diagonal_conformal", "metric_rows", "half_plane"])
def test_metrics_at_is_metric_at_row_by_row(chart):
    m = chart()
    grid = box_grid([-2.0, 0.25], [2.0, 3.0], (11, 11))
    stack = metrics_at(m, grid)
    assert stack.shape == (len(grid), 2, 2)
    for p, g in zip(grid, stack):
        assert g.tobytes() == metric_at(m, p).tobytes()


@pytest.mark.parametrize("chart", [lambda: diag_metric(["1 + 0.2*x1^2", "2 + sin(x2)"]),
                                   lambda: metric_rows(GENERAL_ROWS), half_plane_rows,
                                   lambda: build_manifold("euclidean", {"n": 2})],
                         ids=["diagonal_conformal", "metric_rows", "half_plane", "euclidean"])
def test_metrics_at_no_points_is_an_empty_stack(chart):
    assert metrics_at(chart(), np.empty((0, 2))).shape == (0, 2, 2)


def test_curved_metrics_at_factors_the_stack_once(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counted(a):
        calls.append(np.shape(a))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    grid = box_grid([-2.0, -2.0], [2.0, 2.0], (11, 11))
    metrics_at(metric_rows(GENERAL_ROWS), grid)
    assert calls == [(len(grid), 2, 2)]


IDENTITY = [[1.0, 0.0], [0.0, 1.0]]
NEGATIVE = [[1.0, 0.0], [0.0, -1.0]]
NAN = [[np.nan, 0.0], [0.0, 1.0]]
ASYMMETRIC = [[1.0, 1e-3], [0.0, 1.0]]
HUGE = [[1e308, 0.0], [0.0, 1.0]]   # finite, but its average overflows


def _stack_chart(values):
    """A curved chart whose metric at the point (i, 0) is values[i]."""
    return ChartManifold(dim=2, metric=lambda x: values[int(x[0])],
                         geodesic_term=lambda x, v: [0.0, 0.0])


@pytest.mark.parametrize("values, first, error, match, eigenvalue", [
    # finite runs first: the non-positive-definite row 1 is not the error
    ([IDENTITY, NEGATIVE, NAN, NAN], 2, NotPositiveDefinite, "not finite at", None),
    ([IDENTITY, NEGATIVE, ASYMMETRIC, NAN], 3, NotPositiveDefinite, "not finite at", None),
    ([IDENTITY, NEGATIVE, ASYMMETRIC, ASYMMETRIC], 2, NotPositiveDefinite, "not symmetric at",
     None),
    ([IDENTITY, NEGATIVE, HUGE, HUGE], 2, NotPositiveDefinite, "not finite at", None),
    ([IDENTITY, IDENTITY, NEGATIVE, NEGATIVE], 2, NotPositiveDefinite, "not positive definite at",
     -1.0),
], ids=["non_finite", "non_finite_after_asymmetric", "non_symmetric", "average_overflows",
        "not_positive"])
def test_stacked_check_raises_at_the_first_row_that_fails_the_test(values, first, error, match,
                                                                   eigenvalue):
    points = [[float(i), 0.0] for i in range(len(values))]
    with pytest.raises(error, match=match) as info:
        metrics_at(_stack_chart(values), points)
    assert f"at {np.array(points[first])}" in str(info.value)
    if error is NotPositiveDefinite:
        assert_array_equal(info.value.point, points[first])
        assert info.value.eigenvalue == eigenvalue
