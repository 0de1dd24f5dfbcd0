"""Right-hand side of the force equation and its energy bookkeeping.

The second-order system on a chart is

    xdd^k = -Γ^k_ij xd^i xd^j + (F(x,t) xd)^k - (grad V)^k

with a time-dependent potential V and an optional (1,1) tensor field F acting
on the velocity. Only the metric-self-adjoint part S of F feeds energy growth,
so the operator bounds and the energy derivative identity below are the
quantities the completeness checks consume.

rhs_E, the force equation the integrator calls, runs in Python floats: the
chart point and velocity come in as lists of floats, every source is called
on them and returns floats, and the value goes back as a list. Everything
else here (energies, operator bounds) works on numpy arrays.
"""

from dataclasses import dataclass
from operator import mul
from typing import Callable, Optional

import numpy as np

from .errors import EigFailure, OutOfChart
from .expressions import on_rows
from .geometry import chart_point, inner_products, metric_diagonal, metrics_at


@dataclass(frozen=True)
class ForceSystem:
    """Potential V(x, t) plus optional velocity-linear tensor force F(x, t).

    Every source takes the chart point x as a list of Python floats and t as
    a Python float, and returns Python floats: potential and potential_dt
    one, potential_dx a sequence of n, tensor_F n rows of n (the chart
    components of F; None means F ≡ 0). The methods below take arrays too
    and give arrays, for the callers off the integrator's hot path.
    potential_dx and potential_dt are the exact derivatives of potential, and
    both are required. time_independent marks potentials with no t
    dependence (used only for reporting conserved-energy drift).

    A source may carry an array form (expressions.array_form), which
    evaluates it over arrays: chart points on the last axis of x, broadcast
    against t, NaN where the scalar call would raise. The premise scans use
    the array forms of potential and potential_dt. The array form belongs to
    the callable, so a force system with a replaced source never evaluates
    the old one.
    """

    potential: Callable[[np.ndarray, float], float]
    potential_dx: Callable[[np.ndarray, float], np.ndarray]
    potential_dt: Callable[[np.ndarray, float], float]
    tensor_F: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    time_independent: bool = False

    def __post_init__(self):
        if not (callable(self.potential_dx) and callable(self.potential_dt)):
            raise TypeError("a force system needs its derivatives potential_dx and potential_dt")

    def value(self, x, t):
        return float(self.potential(chart_point(x), float(t)))

    def dt(self, x, t):
        return float(self.potential_dt(chart_point(x), float(t)))

    def force_matrix(self, x, t):
        if self.tensor_F is None:
            return None
        return np.asarray(self.tensor_F(chart_point(x), float(t)), dtype=float)


FREE = ForceSystem(potential=lambda x, t: 0.0,
                   potential_dx=lambda x, t: [0.0] * len(x),
                   potential_dt=lambda x, t: 0.0,
                   time_independent=True)


@dataclass(frozen=True)
class EnergyFrame:
    """Constants of the energy estimate on a compact time window [-T, T].

    B_T shifts the potential so V - B_T >= 1 on the sampled window, A_T
    dominates alpha0 there, N_T bounds the sampled operator norm, and
    a_t_star = 2 N_T + A_T dominates N_T·u + A_T·(V-B_T) against the energy
    (using u <= 2v and V - B_T <= v), the sharpest constant expressible from
    those inequalities. t_horizon is the T of the bounds the frame was built
    from (build_energy_frame).
    """

    t_horizon: float
    a_t: float
    b_t: float
    n_t: float

    @property
    def a_t_star(self):
        return 2.0 * self.n_t + self.a_t


def build_energy_frame(bounds, n_t):
    """EnergyFrame on the window of bounds (hypotheses.BoundData), T = bounds.T.

    A_T = max alpha0 and B_T = min beta0 - 1 over bounds.t_grid, the times
    every premise and the operator-norm bound N_T were sampled at.
    """
    a_t = max(float(bounds.alpha0(t)) for t in bounds.t_grid)
    b_t = min(float(bounds.beta0(t)) for t in bounds.t_grid) - 1.0
    return EnergyFrame(t_horizon=bounds.T, a_t=a_t, b_t=b_t, n_t=float(n_t))


def _floats(v):
    """A source's value as Python floats: a list or tuple as it is, an array as nested lists."""
    return v if type(v) in (list, tuple) else np.asarray(v, dtype=float).tolist()


def _dot(a, b):
    return sum(map(mul, a, b))


def _raised(diagonal, g, v):
    """G^-1 v as a list of floats: quotients on a diagonal G, else one np.linalg.solve.

    The quotients are what np.linalg.solve gives on a diagonal matrix with
    this LAPACK build, up to the sign of a zero: for v = [-0.0, -0.0] it
    gives [-0.0, 0.0] (tests/test_lean_hot_path.py checks it).
    """
    if diagonal is not None:
        return [a / d for a, d in zip(v, diagonal)]
    return np.linalg.solve(g, v).tolist()


def rhs_E(manifold, fs, state):
    """First-order field of the force equation at state = (x, xdot, t), in Python floats.

    x and xdot are lists of floats (arrays are converted), t a float; the
    value is the list (xdot, xddot) of 2n floats. After the guard check:

    - on a flat chart Γ ≡ 0, so xddot = F xd − G^-1 ∂V, and on an identity
      metric raising ∂V is skipped too;
    - on a curved chart the metric is checked once (geometry.metric_diagonal),
      the chart's geodesic_term Γ_lij xd^i xd^j plus ∂_l V is raised by G,
      negated, and F xd is added.

    A metric that is diagonal at x is checked and raised against in floats,
    by division; any other is checked by metric_at's rules and solved by
    np.linalg.solve. A domain error of a source raises its EvaluationError.
    """
    x, xdot, t = state
    if type(x) is not list or type(xdot) is not list:
        x, xdot = chart_point(x), chart_point(xdot)
    if manifold.domain_guard is not None and not manifold.domain_guard(x):
        raise OutOfChart(np.array(x))
    if manifold.flat:
        # what -Γ(xdot, xdot) gives for Γ = 0: -0.0, or NaN where xdot is not finite
        acc = [-0.0 * v * v for v in xdot]
        fmat = _tensor(fs, x, t)
        if fmat is not None:
            acc = [a + _dot(row, xdot) for a, row in zip(acc, fmat)]
        dv = _floats(fs.potential_dx(x, t))
        if any(dv):
            if manifold.identity_metric:
                acc = [a - d for a, d in zip(acc, dv)]
            else:
                acc = [a - d for a, d in zip(acc, _raised(*metric_diagonal(manifold, x), dv))]
        return xdot + acc
    diagonal, g = metric_diagonal(manifold, x)
    lowered = [a + d for a, d in zip(_floats(manifold.geodesic_term(x, xdot)),
                                     _floats(fs.potential_dx(x, t)))]
    acc = [-a for a in _raised(diagonal, g, lowered)]
    fmat = _tensor(fs, x, t)
    if fmat is not None:
        acc = [a + _dot(row, xdot) for a, row in zip(acc, fmat)]
    return xdot + acc


def _tensor(fs, x, t):
    """The rows of F at (x, t) as floats, or None for F ≡ 0."""
    return None if fs.tensor_F is None else _floats(fs.tensor_F(x, t))


def make_rhs(manifold, fs):
    """Closure f(t, y) over y = (x, xdot), a list of floats, for the integrator.

    rhs_E is looked up as a module global at each call, so a wrapper bound
    in its place sees every evaluation.
    """
    n = manifold.dim

    def f(t, y):
        return rhs_E(manifold, fs, (y[:n], y[n:], t))

    return f


def operator_eigen_range(manifold, fs, points, t):
    """(lambda_min, lambda_max) of S at each row of points at time t, as two arrays.

    S has the eigenvalues of the pencil A - lambda G, A = (GF + F^T G)/2, and so,
    with L = cholesky(G), of the symmetric C = L^-1 A L^-T (Golub & Van Loan,
    Matrix Computations, §8.7): one stacked eigvalsh over the rows.
    """
    points = np.asarray(points, dtype=float)
    if fs.tensor_F is None:
        return np.zeros(len(points)), np.zeros(len(points))
    fmat = on_rows(fs.tensor_F, fs.force_matrix, points, np.full(len(points), float(t)))
    g = metrics_at(manifold, points)
    # g passed the metric checks, so only a can be non-finite, and then it fails here
    with np.errstate(invalid="ignore", over="ignore"):
        a = 0.5 * (g @ fmat + np.swapaxes(fmat, 1, 2) @ g)
    bad = ~np.isfinite(a).all(axis=(1, 2))
    if bad.any():
        raise EigFailure(f"generalized eigenproblem at {points[bad.argmax()]} has a non-finite entry")
    try:
        low = np.linalg.cholesky(g)
        w = np.linalg.eigvalsh(np.linalg.solve(low, np.swapaxes(np.linalg.solve(low, a), 1, 2)))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"generalized eigenproblem failed on the sample grid: {exc}") from None
    return w[:, 0], w[:, -1]


def operator_bounds(manifold, fs, grid, t):
    """(S_inf(t), S_sup(t)) as exact extremes over the sample grid."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("sample grid is empty")
    lo, hi = operator_eigen_range(manifold, fs, grid, t)
    return float(lo.min()), float(hi.max())


def energy_v(manifold, fs, frame, state):
    """Shifted energy (1/2) xd^T G xd + V(x, t) - B_T at each row of state = (x, xdot, t).

    x and xdot hold one state per row and t one time per state; a single
    state is one row. The frame constants only control the window [-T, T],
    so every t must lie inside it (up to roundoff slack).
    """
    x, xdot, t = (np.asarray(a, dtype=float) for a in state)
    outside = np.abs(t) > frame.t_horizon * (1.0 + 1e-12) + 1e-12
    if outside.any():
        raise ValueError(f"t = {float(t[outside][0])} outside the energy frame window "
                         f"[-{frame.t_horizon}, {frame.t_horizon}]")
    return (0.5 * inner_products(manifold, x, xdot, xdot) + on_rows(fs.potential, fs.value, x, t)
            - frame.b_t)


def energy_derivative_identity(manifold, fs, state):
    """Exact dv/dt along solutions, xd^T G S xd + ∂V/∂t, at each row of state = (x, xdot, t).

    xd^T G S xd is g(xd, F xd): the metric-skew part of F drops out of it.
    """
    x, xdot, t = (np.asarray(a, dtype=float) for a in state)
    out = on_rows(fs.potential_dt, fs.dt, x, t)
    if fs.tensor_F is not None:
        fx = np.matmul(on_rows(fs.tensor_F, fs.force_matrix, x, t), xdot[:, :, None])[:, :, 0]
        out = out + inner_products(manifold, x, xdot, fx)
    return out
