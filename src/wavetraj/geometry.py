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
from .expressions import Inliner, function_text, point_text
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
    or is the identity matrix np.eye(dim), which makes the chart flat: its
    Christoffel symbols vanish, so it takes no geodesic_term. Any other
    constant metric is given as constant metric rows (catalog.metric_rows).
    geodesic_term(x, v), the one way the metric's derivatives enter the
    force equation, gives the dim floats Γ_lij v^i v^j: the Christoffel
    symbols of the first kind, Γ_lij = 1/2 (∂_i g_jl + ∂_j g_il − ∂_l g_ij),
    contracted twice with the velocity v. A metric function must come with
    one, so that the force equation runs on exact derivatives of the metric.
    domain_guard's value is > 0.0 at the points inside the valid chart
    region (a bool works: True > 0.0); it too takes a list of floats.
    complete_flag is the scenario author's assertion that the manifold is
    geodesically complete; it is an unverified input recorded on every
    certificate.

    flat is derived from metric, not a constructor argument. A chart carries
    no name; the scenario or catalog entry that built it names it. Manifolds
    hold functions and arrays, so they compare by identity.
    """

    dim: int
    metric: Union[Callable[[list], object], np.ndarray]
    geodesic_term: Optional[Callable[[list, list], object]] = None
    domain_guard: Optional[Callable[[list], float]] = None
    complete_flag: bool = False
    flat: bool = field(init=False, repr=False)

    #: functions generated from the sources on first use (norm_function)
    generated: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        flat = not callable(self.metric)
        if flat:
            if self.geodesic_term is not None:
                raise ValueError("a constant metric has zero Christoffel symbols; "
                                 "geodesic_term must be None")
            g = self.metric
            if np.shape(g) != (self.dim, self.dim) or not np.array_equal(g, np.eye(self.dim)):
                raise ValueError(f"a constant metric must be the identity np.eye({self.dim}); give "
                                 "any other as constant metric rows (catalog.metric_rows)")
            g = np.eye(self.dim)
            g.flags.writeable = False
            object.__setattr__(self, "metric", g)
        elif self.geodesic_term is None:
            raise ValueError("a metric function needs its geodesic_term, Γ_lij v^i v^j")
        object.__setattr__(self, "flat", flat)

    def contains(self, x):
        if self.domain_guard is None:
            return True
        return self.domain_guard(chart_point(x)) > 0.0


def chart_point(x):
    """The chart point x as the list of Python floats that sources take; a list passes as it is."""
    return x if type(x) is list else np.asarray(x, dtype=float).tolist()


def require_in_chart(manifold, x):
    """Raise OutOfChart unless x satisfies the manifold's domain guard."""
    if not manifold.contains(x):
        raise OutOfChart(np.asarray(x, dtype=float))


def _checked_metrics(g, dim, points):
    """(G, L): the stack g of metric values symmetrized and checked positive definite, and
    the Cholesky factors of G.

    points holds each value's chart point as an array. Each test runs once
    over the stack and raises NotPositiveDefinite at the first value that
    fails it: finite entries, symmetry to 1e-12 relative tolerance (then
    enforced by averaging, (G + G^T)/2), a finite average (entries above
    DBL_MAX/2 overflow in it), then Cholesky, which would pass a NaN or inf
    on as NaN factors. Only a failure looks at single values.
    """
    g = np.asarray(g, dtype=float)
    if g.shape[1:] != (dim, dim):
        raise ValueError(f"metric has shape {g.shape[1:]}, expected {(dim, dim)}")
    largest = np.abs(g).max(axis=(1, 2))
    top = largest.max()
    if not math.isfinite(top):
        raise NotPositiveDefinite(points[np.isfinite(largest).argmin()], problem="finite")
    # only past DBL_MAX/2 can G - G^T or the average overflow
    may_overflow = top > _HALF_MAX
    with np.errstate(over="ignore") if may_overflow else contextlib.nullcontext():
        asymmetry = np.abs(g - g.swapaxes(1, 2)).max(axis=(1, 2))
        asymmetric = asymmetry > SYMMETRY_RTOL * np.maximum(1.0, largest)
        if asymmetric.any():
            raise NotPositiveDefinite(points[asymmetric.argmax()], problem="symmetric")
        g = symmetric_part(g)
    if may_overflow:
        finite = np.isfinite(g).all(axis=(1, 2))
        if not finite.all():
            raise NotPositiveDefinite(points[finite.argmin()], problem="finite")
    try:
        return g, np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        for i, row in enumerate(g):
            try:
                np.linalg.cholesky(row)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(points[i], float(np.linalg.eigvalsh(row)[0])) from None
        raise


def _checked_stack(g, dim, points):
    """The stack G of _checked_metrics, without its factors."""
    return _checked_metrics(g, dim, points)[0]


def metric_at(manifold, x):
    """Metric matrix G(x), symmetrized and checked positive definite.

    On a flat chart it is the read-only identity matrix; a metric function
    is checked at every call.
    """
    x = np.asarray(x, dtype=float)
    require_in_chart(manifold, x)
    if manifold.flat:
        return manifold.metric
    return _checked_stack([manifold.metric(x.tolist())], manifold.dim, [x])[0]


def _matrix_norm(g, w):
    """w^T g w in one array product; an overflow gives inf without a warning."""
    w = np.array(w)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(w @ g @ w)


def _zero(tree):
    return tree[0] == "num" and tree[1] == 0.0


def metric_lines(manifold, inliner, metric):
    """(lines, diagonal): generated lines that evaluate and check G at the chart point x.

    x is in the locals _v0.. (expressions.Inliner), and metric is
    inliner.add(manifold.metric, ("x",), (n, n)) on a curved chart. After
    the lines, _G is None where G is diagonal at x, diagonal then holding
    the texts of its entries, and otherwise _G is the matrix metric_at
    gives. A diagonal G (off-diagonal entries exactly 0, a NaN counting as
    nonzero) is symmetric, and Cholesky succeeds on it exactly when every
    entry is positive, so it is checked in floats: entries positive and
    finite, even doubled. Any other G takes _checked_metrics' check, with
    its errors in their order.
    """
    n = manifold.dim
    x = point_text(0, n)
    lines, texts = inliner.values(metric, "_g")
    tests = [f"0.0 < {texts[j][j]} + {texts[j][j]} < _inf" for j in range(n)]
    off = [texts[j][k] for j in range(n) for k in range(n)
           if j != k and (metric.trees is None or not _zero(metric.trees[j][k]))]
    if off:
        tests.append(f"not ({' or '.join(off)})")
    rows = "(" + "".join("(" + "".join(f"{e}, " for e in row) + "), " for row in texts) + ")"
    lines += [f"if {' and '.join(tests)}:", "    _G = None", "else:",
              f"    _G = {inliner.bind(_checked_stack)}(({rows},), {n}, "
              f"{inliner.bind(np.array)}([{x}]))[0]"]
    return lines, [texts[j][j] for j in range(n)]


def norm_function(manifold):
    """q(y) = g_x(v, v) at the state y = x + v, a list of 2 dim floats, in one generated function.

    The metric text is inlined where the metric is a chart function and
    checked as metric_lines checks it. On a flat chart, or where the metric
    is diagonal, q is the sum of the terms v * v or v * d * v in floats,
    from 0 as sum() adds them; on any other metric, one array product, where
    an overflow gives inf without a warning. q is generated on the first
    call and kept on the manifold; it does not check the guard.
    """
    fn = manifold.generated.get("norm")
    if fn is None:
        fn = manifold.generated["norm"] = _norm_function(manifold)
    return fn


def _norm_function(manifold):
    n = manifold.dim
    inliner = Inliner(n)
    v = [f"_v{n + i}" for i in range(n)]
    if manifold.flat:
        body = ["return 0.0 + " + " + ".join(f"{a} * {a}" for a in v)]
    else:
        matrix_norm = inliner.bind(_matrix_norm)
        metric = inliner.add(manifold.metric, ("x",), (n, n))
        lines, diagonal = metric_lines(manifold, inliner, metric)
        summed = " + ".join(f"{a} * {d} * {a}" for a, d in zip(v, diagonal))
        body = lines + ["if _G is None:", f"    return 0.0 + {summed}",
                        f"return {matrix_norm}(_G, {point_text(n, n)})"]
    return inliner.function(function_text("_y", n, body))


def metrics_at(manifold, points):
    """metric_at at each row of points, stacked to shape (len(points), dim, dim)."""
    return metric_factors(manifold, points)[0]


def metric_factors(manifold, points):
    """(G, L): metrics_at's stack G at the rows of points and its Cholesky factors L.

    Every point passes the guard check first. A flat chart's identity then
    comes back as one read-only matrix broadcast over the rows, and L is
    None: the identity is its own factor. A metric function's values are
    checked as one stack, each test once, and factored in that check
    (_checked_metrics). No points give shape (0, dim, dim) on either.
    """
    points = np.asarray(points, dtype=float)
    if manifold.domain_guard is not None:
        for p in points:
            require_in_chart(manifold, p)
    if manifold.flat:
        return np.broadcast_to(manifold.metric, (len(points),) + manifold.metric.shape), None
    if not len(points):
        empty = np.empty((0, manifold.dim, manifold.dim))
        return empty, empty
    return _checked_metrics([manifold.metric(p) for p in points.tolist()], manifold.dim, points)


def inner_products(manifold, points, a, b):
    """g(a, b) at each row of points, with one vector of a and one of b per row."""
    g = metrics_at(manifold, points)
    return np.vecdot(np.matmul(np.asarray(a, dtype=float)[:, None, :], g)[:, 0, :], b)


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
