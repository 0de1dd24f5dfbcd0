"""Single-chart Riemannian manifolds and metric-dependent quantities.

A manifold is represented by one coordinate chart with an optional domain
guard. Transitions between charts are out of scope; a trajectory leaving the
guarded region is reported by the integrator as a distinct outcome, never
conflated with blow-up.
"""

import contextlib
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import NotPositiveDefinite, OutOfChart
from .numdiff import christoffel_from_metric, symmetric_part

SYMMETRY_RTOL = 1e-12
_HALF_MAX = sys.float_info.max / 2


@dataclass(frozen=True, eq=False)
class ChartManifold:
    """A connected Riemannian manifold presented in a single chart.

    Every source takes a chart point as a list of dim Python floats and
    returns Python floats in plain (nested) sequences, and the consumers
    (metric_at, the force equation) turn what it returns into arrays where
    they need them. metric maps a chart point to the dim x dim metric rows,
    or is one constant dim x dim matrix. A constant metric is checked once,
    here, and makes the chart flat: its Christoffel symbols vanish, so it
    takes no geodesic_term. geodesic_term(x, v), the one way the metric's
    derivatives enter the force equation, gives the dim floats Γ_lij v^i v^j:
    the Christoffel symbols of the first kind, Γ_lij = 1/2 (∂_i g_jl + ∂_j
    g_il − ∂_l g_ij), contracted twice with the velocity v. A metric function
    must come with one, so that the force equation runs on exact derivatives
    of the metric. domain_guard returns True for points inside
    the valid chart region; it too takes a list of floats. complete_flag is
    the scenario author's assertion that the manifold is geodesically
    complete; it is an unverified input recorded on every certificate.

    flat (the metric is a constant matrix) and identity_metric (that matrix
    is the identity) are derived from metric, not constructor arguments.
    A chart carries no name; the scenario or catalog entry that built it
    names it. Manifolds hold functions and arrays, so they compare by
    identity.
    """

    dim: int
    metric: Union[Callable[[list], object], np.ndarray]
    geodesic_term: Optional[Callable[[list, list], object]] = None
    domain_guard: Optional[Callable[[list], bool]] = None
    complete_flag: bool = False
    flat: bool = field(init=False, repr=False)
    identity_metric: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        flat = not callable(self.metric)
        identity = False
        if flat:
            if self.geodesic_term is not None:
                raise ValueError("a constant metric has zero Christoffel symbols; "
                                 "geodesic_term must be None")
            g = _checked_metric(self.metric, self.dim, None)
            g.flags.writeable = False
            identity = bool(np.array_equal(g, np.eye(self.dim)))
            object.__setattr__(self, "metric", g)
        elif self.geodesic_term is None:
            raise ValueError("a metric function needs its geodesic_term, Γ_lij v^i v^j")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "identity_metric", identity)

    def contains(self, x):
        if self.domain_guard is None:
            return True
        return bool(self.domain_guard(chart_point(x)))


def chart_point(x):
    """The chart point x as the list of Python floats that sources take; a list passes as it is."""
    return x if type(x) is list else np.asarray(x, dtype=float).tolist()


def require_in_chart(manifold, x):
    """Raise OutOfChart unless x satisfies the manifold's domain guard."""
    if not manifold.contains(x):
        raise OutOfChart(np.asarray(x, dtype=float))


def _checked_metric(g, dim, x):
    """g symmetrized and checked positive definite; x is None for a constant metric.

    Symmetry is enforced by averaging (G + G^T)/2 after verifying the raw
    matrix is symmetric to 1e-12 relative tolerance. Positive definiteness is
    checked by Cholesky; failure is a hard error, and so is a NaN or inf
    entry, which Cholesky would pass on as NaN factors, in G or, quietly
    overflowed from entries above DBL_MAX/2, in the average.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (dim, dim):
        raise ValueError(f"metric has shape {g.shape}, expected {(dim, dim)}")
    largest = float(np.abs(g).max())
    if not np.isfinite(largest):
        raise NotPositiveDefinite(x, problem="finite")
    scale = max(1.0, largest)
    # only past DBL_MAX/2 can G - G^T or the average overflow
    may_overflow = largest > _HALF_MAX
    with np.errstate(over="ignore") if may_overflow else contextlib.nullcontext():
        if np.abs(g - g.T).max() > SYMMETRY_RTOL * scale:
            where = "as a constant" if x is None else f"at {x}"
            raise ValueError(f"metric not symmetric {where} beyond {SYMMETRY_RTOL} relative tolerance")
        g = symmetric_part(g)
    if may_overflow and not np.isfinite(g).all():
        raise NotPositiveDefinite(x, problem="finite")
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
    return _checked_metric(manifold.metric(x.tolist()), manifold.dim, x)


def metric_diagonal(manifold, x):
    """(diagonal, None) or (None, matrix) of G at the chart point x, a list of floats in the chart.

    The Python-float form of metric_at for the integrator. A diagonal
    matrix (its off-diagonal entries exactly 0, a NaN counting as nonzero)
    is symmetric as it stands, and Cholesky succeeds on it exactly when
    every entry is positive, so it is checked elementwise: a value whose
    entries are positive and finite, even doubled, comes back as the list of
    its diagonal entries, which are what the symmetrized matrix holds. Any
    other value comes back as the matrix metric_at gives, or raises its
    error (NotPositiveDefinite for an entry above DBL_MAX/2, which the
    average turns into inf). The guard is not checked here.
    """
    g = manifold.metric if manifold.flat else manifold.metric(x)
    if type(g) is np.ndarray:
        g = g.tolist()
    n = len(x)
    diagonal = []
    for j, row in enumerate(g):
        if len(row) != n:
            break
        d = row[j]
        if not 0.0 < d + d < math.inf or any(row[:j]) or any(row[j + 1:]):
            break
        diagonal.append(d)
    if len(diagonal) == n == len(g):
        return diagonal, None
    return None, _checked_metric(g, manifold.dim, np.asarray(x, dtype=float))


def squared_norm(manifold, x, w):
    """g_x(w, w) for lists of floats x, a point in the chart, and w.

    Python floats on an identity or diagonal metric (metric_diagonal), one
    array product on any other; an overflow gives inf without a warning.
    """
    if manifold.identity_metric:
        return sum([v * v for v in w])
    diagonal, g = metric_diagonal(manifold, x)
    if diagonal is not None:
        return sum([v * d * v for v, d in zip(w, diagonal)])
    w = np.array(w)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(w @ g @ w)


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

    Zero on a flat chart; otherwise Γ^k_ij = 1/2 g^{kl} (∂_i g_jl + ∂_j g_il
    − ∂_l g_ij) from central differences of metric_at, with the stencil step
    h or the package's default. The stencil must fit inside the chart guard.
    The force equation never calls this: it takes Γ_lij v^i v^j from the
    chart's geodesic_term, which the tests hold against this reference.
    """
    x = np.asarray(x, dtype=float)
    require_in_chart(manifold, x)
    if manifold.flat:
        return np.zeros((manifold.dim,) * 3)
    return christoffel_from_metric(lambda p: metric_at(manifold, p), x, h=h)
