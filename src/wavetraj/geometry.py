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
from .numdiff import christoffel_from_metric, christoffel_from_partials

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True, eq=False)
class ChartManifold:
    """A connected Riemannian manifold presented in a single chart.

    metric maps a chart point (array of length dim) to the dim x dim metric
    matrix, or is one constant dim x dim matrix. A constant metric is checked
    once, here, and makes the chart flat: its Christoffel symbols vanish, so
    christoffel must be None and a zero source is installed in its place.
    christoffel, when given, is an analytic source returning the
    (dim, dim, dim) array indexed [k, i, j]. metric_dx, when given, returns
    the exact metric partials ∂_i G stacked on the first axis, shape
    (dim, dim, dim) indexed [i, j, k]; the Christoffel symbols then come from
    them, and the force equation is evaluated in one fused pass. Without
    either, Christoffel symbols come from central differences of the
    metric. A constant metric takes neither. domain_guard returns True
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
    metric_dx: Optional[Callable[[np.ndarray], np.ndarray]] = None
    flat: bool = field(init=False, repr=False)
    identity_metric: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        flat = not callable(self.metric)
        identity = False
        if flat:
            for slot in ("christoffel", "metric_dx"):
                if getattr(self, slot) is not None:
                    raise ValueError("a constant metric has zero Christoffel symbols; "
                                     f"{slot} must be None")
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
    checked by Cholesky; failure is a hard error, and so is a NaN or inf
    entry, which Cholesky would pass on as NaN factors.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError(f"metric has shape {g.shape}, expected {(dim, dim)}")
    largest = float(np.abs(g).max())
    if not np.isfinite(largest):
        raise NotPositiveDefinite(x, problem="finite")
    scale = max(1.0, largest)
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


def metrics_at(manifold, points):
    """metric_at at each row of points, stacked to shape (len(points), dim, dim).

    Each point passes the guard check; a constant metric then comes back as
    one read-only matrix broadcast over the rows.
    """
    points = np.asarray(points, dtype=float)
    if not manifold.flat:
        return np.array([metric_at(manifold, p) for p in points])
    if manifold.domain_guard is not None:
        for p in points:
            require_in_chart(manifold, p)
    return np.broadcast_to(manifold.metric, (len(points),) + manifold.metric.shape)


def christoffel_at(manifold, x, h=None):
    """Christoffel symbols Γ^k_ij at x, shape (dim, dim, dim), symmetric in (i, j).

    Unless h forces central differences, uses the analytic source when the
    manifold carries one, else Γ^k_ij = 1/2 g^{kl} (∂_i g_jl + ∂_j g_il −
    ∂_l g_ij) with the exact partials metric_dx when it carries those, else
    with central differences of the metric. The finite-difference stencil
    must fit inside the chart guard.
    """
    x = np.asarray(x, dtype=float)
    require_in_chart(manifold, x)
    if h is None:
        if manifold.christoffel is not None:
            gamma = np.asarray(manifold.christoffel(x), dtype=float)
            return 0.5 * (gamma + gamma.transpose(0, 2, 1))
        if manifold.metric_dx is not None:
            return christoffel_from_partials(metric_at(manifold, x), manifold.metric_dx(x))
    return christoffel_from_metric(lambda p: metric_at(manifold, p), x, h=h)


def gradient(manifold, x, dv):
    """Metric-raised differential: the vector with components G(x)^{-1} dv."""
    x = np.asarray(x, dtype=float)
    dv = np.asarray(dv, dtype=float)
    if dv.shape != (manifold.dim,):
        raise ValueError(f"covector has shape {dv.shape}, expected ({manifold.dim},)")
    g = metric_at(manifold, x)
    return TangentVector(base=x, components=np.linalg.solve(g, dv))

