"""Right-hand side of the force equation and its energy bookkeeping.

The second-order system on a chart is

    xdd^k = -Γ^k_ij xd^i xd^j + (F(x,t) xd)^k - (grad V)^k

with a time-dependent potential V and an optional (1,1) tensor field F acting
on the velocity. Only the metric-self-adjoint part S of F feeds energy growth,
so the operator bounds and the energy derivative identity below are the
quantities the completeness checks consume.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg.lapack

from .errors import EigFailure
from .geometry import christoffel_at, metric_at, require_in_chart
from .numdiff import christoffel_lower, gradient_fd, partial_in_scalar


@dataclass(frozen=True)
class ForceSystem:
    """Potential V(x, t) plus optional velocity-linear tensor force F(x, t).

    potential_dx and potential_dt are analytic derivative sources; when absent
    the derivatives fall back to central differences with the shared stencil
    policy. tensor_F returns the chart components of F as an n x n matrix;
    None means F ≡ 0. time_independent marks potentials with no t dependence
    (used only for reporting conserved-energy drift).

    potential_array and potential_dt_array, when given, evaluate V and ∂V/∂t
    over arrays: chart points on the last axis of x, broadcast against t. An
    element where the scalar source would raise is NaN.
    """

    potential: Callable[[np.ndarray, float], float]
    potential_dx: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    potential_dt: Optional[Callable[[np.ndarray, float], float]] = None
    tensor_F: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    time_independent: bool = False
    name: str = ""
    potential_array: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    potential_dt_array: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def value(self, x, t):
        return float(self.potential(np.asarray(x, dtype=float), float(t)))

    def dx(self, x, t):
        x = np.asarray(x, dtype=float)
        if self.potential_dx is not None:
            return np.asarray(self.potential_dx(x, float(t)), dtype=float)
        return gradient_fd(lambda p: self.potential(p, float(t)), x)

    def dt(self, x, t):
        x = np.asarray(x, dtype=float)
        if self.potential_dt is not None:
            return float(self.potential_dt(x, float(t)))
        if self.time_independent:
            return 0.0
        return float(partial_in_scalar(lambda s: self.potential(x, s), float(t)))

    def force_matrix(self, x, t):
        if self.tensor_F is None:
            return None
        return np.asarray(self.tensor_F(np.asarray(x, dtype=float), float(t)), dtype=float)


FREE = ForceSystem(potential=lambda x, t: 0.0,
                   potential_dx=lambda x, t: np.zeros(np.asarray(x).shape),
                   potential_dt=lambda x, t: 0.0,
                   time_independent=True,
                   name="free")


@dataclass(frozen=True)
class EnergyFrame:
    """Constants of the energy estimate on a compact time window [-T, T].

    B_T shifts the potential so V - B_T >= 1 on the sampled window, A_T
    dominates alpha0 there, N_T bounds the sampled operator norm, and
    a_t_star = 2 N_T + A_T dominates N_T·u + A_T·(V-B_T) against the energy
    (using u <= 2v and V - B_T <= v), the sharpest constant expressible from
    those inequalities.
    """

    t_horizon: float
    a_t: float
    b_t: float
    n_t: float

    @property
    def a_t_star(self):
        return 2.0 * self.n_t + self.a_t


def build_energy_frame(alpha0, beta0, t_horizon, n_t, t_samples=41):
    """EnergyFrame with A_T = max alpha0 and B_T = min beta0 - 1 on a [-T, T] grid."""
    ts = np.linspace(-t_horizon, t_horizon, t_samples)
    a_t = max(float(alpha0(t)) for t in ts)
    b_t = min(float(beta0(t)) for t in ts) - 1.0
    return EnergyFrame(t_horizon=float(t_horizon), a_t=a_t, b_t=b_t, n_t=float(n_t))


def rhs_E(manifold, fs, state):
    """First-order field of the force equation at state = (x, xdot, t).

    Returns the length-2n array (xdot, xddot). On a flat chart Γ ≡ 0, so the
    Christoffel contraction is skipped after the guard check, and on an
    identity metric so is the solve against G. On a chart with exact metric
    partials the evaluation is fused: one checked metric evaluation, the
    lower-index contraction Γ_lij xd^i xd^j plus ∂_l V, and one solve
    against G raising that sum.
    """
    x, xdot, t = state
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    if manifold.metric_dx is not None:
        g = metric_at(manifold, x)
        lowered = christoffel_lower(manifold.metric_dx(x)) @ xdot @ xdot + fs.dx(x, t)
        acc = -np.linalg.solve(g, lowered)
        fmat = fs.force_matrix(x, t)
        if fmat is not None:
            acc = acc + fmat @ xdot
        return np.concatenate([xdot, acc])
    if manifold.flat:
        require_in_chart(manifold, x)
        # what -Γ(xdot, xdot) gives for Γ = 0: -0.0, or NaN where xdot is not finite
        acc = -0.0 * xdot * xdot
    else:
        gamma = christoffel_at(manifold, x)
        acc = -np.einsum("kij,i,j->k", gamma, xdot, xdot)
    fmat = fs.force_matrix(x, t)
    if fmat is not None:
        acc = acc + fmat @ xdot
    dv = fs.dx(x, t)
    if np.any(dv):
        if manifold.identity_metric:
            acc = acc - dv
        else:
            g = metric_at(manifold, x)
            acc = acc - np.linalg.solve(g, dv)
    return np.concatenate([xdot, acc])


def make_rhs(manifold, fs):
    """Closure f(t, y) over y = (x, xdot) for the integrator."""
    n = manifold.dim

    def f(t, y):
        return rhs_E(manifold, fs, (y[:n], y[n:], t))

    return f


def self_adjoint_part(manifold, fs, x, t):
    """Metric-self-adjoint part S = (F + G^{-1} F^T G) / 2 in chart components."""
    fmat = fs.force_matrix(x, t)
    if fmat is None:
        raise ValueError("force system has no tensor field")
    g = metric_at(manifold, x)
    return 0.5 * (fmat + np.linalg.solve(g, fmat.T @ g))


def operator_eigen_range(manifold, fs, x, t):
    """(lambda_min, lambda_max) of S at one point, via the pencil (GF + F^T G)/2 vs G."""
    fmat = fs.force_matrix(x, t)
    if fmat is None:
        return 0.0, 0.0
    g = metric_at(manifold, x)
    a = 0.5 * (g @ fmat + fmat.T @ g)
    # g passed the metric checks, so only a can be non-finite; a NaN would
    # reach LAPACK unchecked
    if not np.isfinite(a).all():
        raise EigFailure(f"generalized eigenproblem at {x} has a non-finite entry")
    # the routine and arguments scipy.linalg.eigh(a, g, eigvals_only=True)
    # uses, without its per-call validation, which costs five times the solve
    w, _, info = scipy.linalg.lapack.dsygvd(a, g, jobz="N", uplo="L")
    if info != 0:
        raise EigFailure(f"generalized eigenproblem failed at {x}: LAPACK dsygvd info {info}")
    return float(w[0]), float(w[-1])


def operator_bounds(manifold, fs, grid, t):
    """(S_inf(t), S_sup(t)) as exact extremes over the sample grid."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if grid.shape[0] == 0:
        raise ValueError("sample grid is empty")
    lo = np.inf
    hi = -np.inf
    for p in grid:
        wmin, wmax = operator_eigen_range(manifold, fs, p, t)
        lo = min(lo, wmin)
        hi = max(hi, wmax)
    return lo, hi


def energy_v(manifold, fs, frame, state):
    """Shifted energy (1/2) xd^T G xd + V(x, t) - B_T at state = (x, xdot, t).

    The frame constants only control the window [-T, T], so t must lie inside
    it (up to roundoff slack).
    """
    x, xdot, t = state
    if abs(t) > frame.t_horizon * (1.0 + 1e-12) + 1e-12:
        raise ValueError(f"t = {t} outside the energy frame window [-{frame.t_horizon}, {frame.t_horizon}]")
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    g = metric_at(manifold, x)
    return 0.5 * float(xdot @ g @ xdot) + fs.value(x, t) - frame.b_t


def energy_derivative_identity(manifold, fs, state):
    """Exact dv/dt along solutions: xd^T G S xd + ∂V/∂t at the state."""
    x, xdot, t = state
    x = np.asarray(x, dtype=float)
    xdot = np.asarray(xdot, dtype=float)
    out = fs.dt(x, t)
    if fs.tensor_F is not None:
        g = metric_at(manifold, x)
        s = self_adjoint_part(manifold, fs, x, t)
        out += float(xdot @ g @ (s @ xdot))
    return float(out)
