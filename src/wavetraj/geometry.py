"""Single-chart Riemannian manifolds and metric-dependent quantities.

A manifold is represented by one coordinate chart with an optional domain
guard. Transitions between charts are out of scope; a trajectory leaving the
guarded region is reported by the integrator as a distinct outcome, never
conflated with blow-up.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import NotPositiveDefinite, OutOfChart
from .numdiff import fd_step

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ChartManifold:
    """A connected Riemannian manifold presented in a single chart.

    metric maps a chart point (array of length dim) to the dim x dim metric
    matrix, or is one constant dim x dim matrix. A constant metric is checked
    once, here, and makes the chart flat: its Christoffel symbols vanish, so
    christoffel must be None and a zero source is installed in its place.
    christoffel, when given, is an analytic source returning the
    (dim, dim, dim) array indexed [k, i, j]; otherwise Christoffel symbols
    come from central differences of the metric. domain_guard returns True
    for points inside the valid chart region. complete_flag is the scenario
    author's assertion that the manifold is geodesically complete; it is an
    unverified input recorded on every certificate.

    flat (the metric is a constant matrix) and identity_metric (that matrix
    is the identity) are derived from metric, not constructor arguments.
    Manifolds hold functions and arrays, so they compare by identity.
    """

    dim: int
    metric: Union[Callable[[np.ndarray], np.ndarray], np.ndarray]
    christoffel: Optional[Callable[[np.ndarray], np.ndarray]] = None
    domain_guard: Optional[Callable[[np.ndarray], bool]] = None
    complete_flag: bool = False
    name: str = ""
    flat: bool = field(init=False, repr=False)
    identity_metric: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        flat = not callable(self.metric)
        identity = False
        if flat:
            if self.christoffel is not None:
                raise ValueError("a constant metric has zero Christoffel symbols; "
                                 "christoffel must be None")
            g = _checked_metric(self.metric, self.dim, None)
            g.flags.writeable = False
            zeros = np.zeros((self.dim,) * 3)
            zeros.flags.writeable = False
            identity = bool(np.array_equal(g, np.eye(self.dim)))
            object.__setattr__(self, "metric", g)
            object.__setattr__(self, "christoffel", lambda x: zeros)
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "identity_metric", identity)

    def contains(self, x):
        if self.domain_guard is None:
            return True
        return bool(self.domain_guard(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class TangentVector:
    """A vector attached to a chart point."""

    base: np.ndarray
    components: np.ndarray

    def norm_sq(self, manifold):
        g = metric_at(manifold, self.base)
        return float(self.components @ g @ self.components)


def require_in_chart(manifold, x):
    """Raise OutOfChart unless x satisfies the manifold's domain guard."""
    if not manifold.contains(x):
        raise OutOfChart(np.asarray(x, dtype=float))


def _checked_metric(g, dim, x):
    """g symmetrized and checked positive definite; x is None for a constant metric.

    Symmetry is enforced by averaging (G + G^T)/2 after verifying the raw
    matrix is symmetric to 1e-12 relative tolerance. Positive definiteness is
    checked by Cholesky; failure is a hard error.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError(f"metric has shape {g.shape}, expected {(dim, dim)}")
    scale = max(1.0, float(np.abs(g).max()))
    if np.abs(g - g.T).max() > SYMMETRY_RTOL * scale:
        where = "as a constant" if x is None else f"at {x}"
        raise ValueError(f"metric not symmetric {where} beyond {SYMMETRY_RTOL} relative tolerance")
    g = 0.5 * (g + g.T)
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        eigmin = float(np.linalg.eigvalsh(g)[0])
        raise NotPositiveDefinite(x, eigmin) from None
    return g


def metric_at(manifold, x):
    """Metric matrix G(x), symmetrized and checked positive definite.

    A constant metric was checked when the manifold was built and comes back
    as that read-only matrix; a metric function is checked at every call.
    """
    x = np.asarray(x, dtype=float)
    require_in_chart(manifold, x)
    if manifold.flat:
        return manifold.metric
    return _checked_metric(manifold.metric(x), manifold.dim, x)


def metric_partials(manifold, x, h=None):
    """Array dG[i] = ∂G/∂x^i by central differences, shape (dim, dim, dim).

    Stencil points are full metric evaluations: they must satisfy the guard
    and the positive-definiteness invariant like any other evaluated point.
    """
    x = np.asarray(x, dtype=float)
    n = manifold.dim
    out = np.empty((n, n, n))
    for i in range(n):
        hi = fd_step(x[i]) if h is None else h
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        out[i] = (metric_at(manifold, xp) - metric_at(manifold, xm)) / (2.0 * hi)
    return out


def christoffel_at(manifold, x, h=None):
    """Christoffel symbols Γ^k_ij at x, shape (dim, dim, dim), symmetric in (i, j).

    Uses the analytic source when the manifold carries one (and h is not
    forced), otherwise Γ^k_ij = 1/2 g^{kl} (∂_i g_jl + ∂_j g_il − ∂_l g_ij)
    with central differences of the metric. The finite-difference stencil
    must fit inside the chart guard.
    """
    x = np.asarray(x, dtype=float)
    require_in_chart(manifold, x)
    if manifold.christoffel is not None and h is None:
        gamma = np.asarray(manifold.christoffel(x), dtype=float)
        return 0.5 * (gamma + gamma.transpose(0, 2, 1))
    g = metric_at(manifold, x)
    dg = metric_partials(manifold, x, h=h)
    # brackets[l,i,j] = ∂_i g_jl + ∂_j g_il − ∂_l g_ij
    brackets = dg.transpose(2, 0, 1) + dg.transpose(2, 1, 0) - dg
    gamma = 0.5 * np.einsum("kl,lij->kij", np.linalg.inv(g), brackets)
    return 0.5 * (gamma + gamma.transpose(0, 2, 1))


def gradient(manifold, x, dv):
    """Metric-raised differential: the vector with components G(x)^{-1} dv."""
    x = np.asarray(x, dtype=float)
    dv = np.asarray(dv, dtype=float)
    if dv.shape != (manifold.dim,):
        raise ValueError(f"covector has shape {dv.shape}, expected ({manifold.dim},)")
    g = metric_at(manifold, x)
    return TangentVector(base=x, components=np.linalg.solve(g, dv))

