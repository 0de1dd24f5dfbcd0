"""Built-in manifolds, potentials, tensor forces, and wave families.

Entries are addressable by name from scenario files. Builders take a params
dict; unknown parameters, and parameters of the wrong type or range, are
hard errors so scenario typos cannot pass silently. This is also the one
module that turns expression text in x1..xn into chart sources: metric rows,
potentials, tensors and wave coefficients.

Every source here takes a chart point as a list of Python floats and returns
Python floats in plain (nested) sequences, the values the integrator's step
loop works on (geometry.ChartManifold); products stand where numpy squared,
so a value that overflows is inf, as it was, and never a Python
OverflowError.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ForceSystem
from .errors import ValidationError
from .expressions import at_chart_point, fused, parse_expression, with_array_form
from .geometry import ChartManifold
from .gpw import WaveCoefficient


@dataclass(frozen=True)
class CatalogEntry:
    signature: str
    summary: str
    build: Callable[[dict], object]


def _check_params(name, params, allowed, required=()):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValidationError(f"unknown parameter(s) {sorted(unknown)} for catalog entry {name!r}",
                              key=sorted(unknown)[0])
    missing = set(required) - set(params)
    if missing:
        raise ValidationError(f"missing parameter(s) {sorted(missing)} for catalog entry {name!r}",
                              key=sorted(missing)[0])


#: the largest catalog n: a larger n would allocate n x n matrices before
#: anything else is checked, and the step loop's RHS on a curved chart does
#: of order n^3 Python-float operations per call
MAX_DIMENSION = 100


def _dimension(name, params):
    """The parameter n, an integer from 1 to MAX_DIMENSION."""
    value = params["n"]
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or not 1 <= value <= MAX_DIMENSION):
        raise ValidationError(f"parameter 'n' of catalog entry {name!r} must be an integer "
                              f"from 1 to {MAX_DIMENSION}", key="n")
    return int(value)


def _real(name, key, value):
    """The value of the parameter key, a finite number (an integer past DBL_MAX is not)."""
    number = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if not math.isfinite(number):
        raise ValidationError(f"parameter {key!r} of catalog entry {name!r} must be a finite number",
                              key=key)
    return number


def _text(name, key, value):
    """The value of the parameter key, expression text."""
    if not isinstance(value, str):
        raise ValidationError(f"parameter {key!r} of catalog entry {name!r} must be an expression "
                              f"string, got {type(value).__name__}", key=key)
    return value


def _square(x):
    """x1^2 + ... + xn^2 of a list of floats, as products."""
    total = 0.0
    for c in x:
        total += c * c
    return total


def _exp(t):
    """e^t, inf where math.exp overflows (as np.exp gives)."""
    try:
        return math.exp(t)
    except OverflowError:
        return math.inf


def _chart_variables(n, *last):
    """The variables of a chart source: the coordinates x1..xn, then last."""
    return tuple(f"x{i + 1}" for i in range(n)) + last


def _chart_field(text, variables):
    """Text over (x1..xn, s): the expression, its value, x-gradient and s-partial as f(x, s)."""
    expr = parse_expression(text, variables)
    return (expr, at_chart_point(expr),
            at_chart_point([expr.derivative(v) for v in variables[:-1]]),
            at_chart_point(expr.derivative(variables[-1])))


# ---------------------------------------------------------------- manifolds

def _build_euclidean(params):
    _check_params("euclidean", params, allowed={"n"}, required={"n"})
    n = _dimension("euclidean", params)
    return ChartManifold(
        dim=n,
        metric=np.eye(n),
        complete_flag=True,
    )


def _hyperbolic_metric(x):
    w = 1.0 / (x[1] * x[1])
    return ((w, 0.0), (0.0, w))


def _hyperbolic_christoffel(x):
    # Γ^k_ij at [k][i][j]
    inv_y = 1.0 / x[1]
    return (((0.0, -inv_y), (-inv_y, 0.0)),
            ((inv_y, 0.0), (0.0, -inv_y)))


def _build_hyperbolic(params):
    _check_params("hyperbolic_half_plane", params, allowed=set())
    return ChartManifold(
        dim=2,
        metric=_hyperbolic_metric,
        christoffel=_hyperbolic_christoffel,
        domain_guard=lambda x: x[1] > 0.0,
        complete_flag=True,
    )


def metric_rows(rows, guard=None, complete=False):
    """The chart whose metric has the n x n expression text rows, guard > 0 inside it.

    The metric and its exact partials are each one fused call, cut into
    rows. The partials are symmetrized as metric_at symmetrizes G unless the
    rows read the same transposed; averaging would then give their own bits,
    short of overflow.
    """
    if not isinstance(complete, bool):
        raise ValidationError("'complete' must be true or false", key="complete")
    n = len(rows)
    variables = _chart_variables(n)
    # equal texts share one expression, and with it its derivatives
    texts = dict.fromkeys(e for row in rows for e in row)
    parsed = {text: parse_expression(text, variables) for text in texts}
    exprs = [[parsed[e] for e in row] for row in rows]
    guard_fn = None
    if guard is not None:
        guard_expr = parse_expression(guard, variables)
        guard_fn = lambda x: guard_expr(*x) > 0.0

    entries = fused([e for row in exprs for e in row])
    # ∂_i g_jk at [(i * n + j) * n + k]
    partials = fused([e.derivative(v) for v in variables for row in exprs for e in row])

    cuts = [(j * n, (j + 1) * n) for j in range(n)]

    def metric(x):
        values = entries(*x)
        return [values[a:b] for a, b in cuts]

    symmetric = all(rows[j][k] == rows[k][j] for j in range(n) for k in range(j))
    blocks = [[(a + i * n * n, b + i * n * n) for a, b in cuts] for i in range(n)]

    def metric_dx(x):
        values = partials(*x)
        dg = [[values[a:b] for a, b in block] for block in blocks]
        if symmetric:
            return dg
        # 0.5 * (a + a^T) of each ∂_i G, with the floats of numdiff.symmetric_part
        return [[[(m[k][j] + m[j][k]) * 0.5 for k in range(n)] for j in range(n)] for m in dg]

    return ChartManifold(dim=n, metric=metric, metric_dx=metric_dx, domain_guard=guard_fn,
                         complete_flag=complete)


def _build_diagonal_conformal(params):
    _check_params("diagonal_conformal", params, allowed={"entries", "complete", "guard"},
                  required={"entries"})
    entries = params["entries"]
    if not isinstance(entries, list) or not entries or not all(isinstance(e, str) for e in entries):
        raise ValidationError("diagonal_conformal 'entries' must be a nonempty list of expressions",
                              key="entries")
    n = len(entries)
    rows = [[entries[j] if j == k else "0" for k in range(n)] for j in range(n)]
    return metric_rows(rows, params.get("guard"), params.get("complete", False))


MANIFOLDS = {
    "euclidean": CatalogEntry(
        "euclidean(n)", "flat metric, identity matrix, complete", _build_euclidean),
    "hyperbolic_half_plane": CatalogEntry(
        "hyperbolic_half_plane",
        "half-plane model diag(1/x2^2, 1/x2^2), guard x2 > 0, complete", _build_hyperbolic),
    "diagonal_conformal": CatalogEntry(
        "diagonal_conformal(entries, complete?, guard?)",
        "diagonal metric with expression entries in x1..xn", _build_diagonal_conformal),
}


# ---------------------------------------------------------------- potentials

# V ≡ 0 or ∂V/∂t ≡ 0
_zero = with_array_form(lambda x, t: 0.0,
                        lambda x, t: np.zeros(np.broadcast_shapes(np.shape(x)[:-1], np.shape(t))))


def _build_zero_potential(params):
    _check_params("zero", params, allowed=set())
    return ForceSystem(
        potential=_zero,
        potential_dx=lambda x, t: [0.0] * len(x),
        potential_dt=_zero,
        time_independent=True,
    )


# each array form takes the scalar form's operations over arrays: its sum of
# squares (np.vecdot) rounds as numpy's, and its exp is numpy's

def _build_harmonic(params):
    _check_params("harmonic", params, allowed={"k"})
    k = _real("harmonic", "k", params.get("k", 1.0))
    return ForceSystem(
        potential=with_array_form(lambda x, t: 0.5 * k * _square(x),
                                  lambda x, t: 0.5 * k * np.vecdot(x, x)),
        potential_dx=lambda x, t: [k * c for c in x],
        potential_dt=_zero,
        time_independent=True,
    )


def _build_exp_time_quadratic(params):
    _check_params("exp_time_quadratic", params, allowed=set())
    # V is its own time derivative

    def potential_dx(x, t):
        a = 2.0 * _exp(t)
        return [a * c for c in x]

    value = with_array_form(lambda x, t: _exp(t) * (1.0 + _square(x)),
                            lambda x, t: np.exp(t) * (1.0 + np.vecdot(x, x)))
    return ForceSystem(potential=value, potential_dx=potential_dx, potential_dt=value)


def _build_negative_quartic(params):
    _check_params("negative_quartic", params, allowed={"c"})
    c = _real("negative_quartic", "c", params.get("c", 1.0))

    def value(x, t):
        r2 = _square(x)
        return -c * (r2 * r2)

    def potential_dx(x, t):
        a = -4.0 * c * _square(x)
        return [a * v for v in x]

    def array_value(x, t):
        r2 = np.vecdot(x, x)
        return -c * (r2 * r2)

    return ForceSystem(
        potential=with_array_form(value, array_value),
        potential_dx=potential_dx,
        potential_dt=_zero,
        time_independent=True,
    )


POTENTIALS = {
    "zero": CatalogEntry("zero", "V = 0, plain geodesics", _build_zero_potential),
    "harmonic": CatalogEntry("harmonic(k=1)", "V = (k/2) |x|^2", _build_harmonic),
    "exp_time_quadratic": CatalogEntry(
        "exp_time_quadratic", "V = e^t (1 + |x|^2)", _build_exp_time_quadratic),
    "negative_quartic": CatalogEntry(
        "negative_quartic(c=1)", "V = -c |x|^4, finite-time blow-up",
        _build_negative_quartic),
}


def expression_potential(text, n):
    """The force system of the potential with expression text in x1..xn and t."""
    expr, value, dx, dt = _chart_field(text, _chart_variables(n, "t"))
    return ForceSystem(potential=value, potential_dx=dx, potential_dt=dt,
                       time_independent="t" not in expr.used)


# ---------------------------------------------------------------- tensor forces

def _build_skew_rotation(params):
    _check_params("skew_rotation", params, allowed={"omega"})
    omega = _real("skew_rotation", "omega", params.get("omega", 1.0))
    mat = ((0.0, omega), (-omega, 0.0))
    return lambda x, t: mat


def _identity_rows(n):
    return [[1.0 if j == k else 0.0 for k in range(n)] for j in range(n)]


def _build_scalar_multiple(params):
    _check_params("scalar_multiple", params, allowed={"c", "n"}, required={"c", "n"})
    c = _real("scalar_multiple", "c", params["c"])
    n = _dimension("scalar_multiple", params)
    mat = [[c * e for e in row] for row in _identity_rows(n)]
    return lambda x, t: mat


def _build_time_scalar(params):
    _check_params("time_scalar", params, allowed={"expr", "n"}, required={"expr", "n"})
    n = _dimension("time_scalar", params)
    fn = parse_expression(_text("time_scalar", "expr", params["expr"]), ("t",))
    eye = _identity_rows(n)

    def tensor(x, t):
        c = fn(t)
        return [[c * e for e in row] for row in eye]

    return tensor


def expression_tensor(rows):
    """The tensor F(x, t) whose n x n matrix has the expression text rows in x1..xn and t."""
    n = len(rows)
    variables = _chart_variables(n, "t")
    entries = at_chart_point([parse_expression(e, variables) for row in rows for e in row])
    cuts = [(j * n, (j + 1) * n) for j in range(n)]

    def tensor(x, t):
        values = entries(x, t)
        return [values[a:b] for a, b in cuts]

    return tensor


TENSORS = {
    "skew_rotation": CatalogEntry(
        "skew_rotation(omega=1)", "F = [[0, w], [-w, 0]], metric-skew on the plane",
        _build_skew_rotation),
    "scalar_multiple": CatalogEntry(
        "scalar_multiple(c, n)", "F = c I", _build_scalar_multiple),
    "time_scalar": CatalogEntry(
        "time_scalar(expr, n)", "F = c(t) I with c an expression in t",
        _build_time_scalar),
}


# ---------------------------------------------------------------- wave families

# f1(u) x^2 - f2(u) y^2 + 2 f(u) x y, each profile text in parentheses
_PLANE_WAVE_H = "({f1})*x1^2 - ({f2})*x2^2 + 2*({f})*x1*x2"


def _build_plane_wave(params):
    _check_params("plane_wave", params, allowed={"f1", "f2", "f"})
    profiles = {key: str(params.get(key, "0")) for key in ("f1", "f2", "f")}
    for text in profiles.values():
        # each profile is a whole expression in u, and a parse error points into its own text
        parse_expression(text, ("u",))
    return _build_expression_wave({"H": _PLANE_WAVE_H.format(**profiles), "n": 2})


def _build_expression_wave(params):
    _check_params("expression", params, allowed={"H", "n"}, required={"H", "n"})
    n = _dimension("expression", params)
    _, h, h_dx, h_du = _chart_field(_text("expression", "H", params["H"]),
                                    _chart_variables(n, "u"))
    return WaveCoefficient(h=h, h_dx=h_dx, h_du=h_du)


WAVES = {
    "plane_wave": CatalogEntry(
        "plane_wave(f1,f2,f)",
        "quadratic coefficient f1(u) x^2 - f2(u) y^2 + 2 f(u) xy on the plane", _build_plane_wave),
    "expression": CatalogEntry(
        "expression(H, n)", "wave coefficient from an expression in x1..xn, u",
        _build_expression_wave),
}


def list_catalog():
    """Stable, alphabetized listing of every catalog entry with its signature."""
    lines = []
    for title, table in (("manifolds", MANIFOLDS), ("potentials", POTENTIALS),
                         ("tensors", TENSORS), ("waves", WAVES)):
        lines.append(f"{title}:")
        for name in sorted(table):
            entry = table[name]
            lines.append(f"  {entry.signature}  -  {entry.summary}")
    return "\n".join(lines) + "\n"


def build_manifold(name, params):
    if name not in MANIFOLDS:
        raise ValidationError(f"unknown manifold {name!r}; see the catalog listing", key=name)
    return MANIFOLDS[name].build(dict(params))


def build_potential(name, params):
    if name not in POTENTIALS:
        raise ValidationError(f"unknown potential {name!r}; see the catalog listing", key=name)
    return POTENTIALS[name].build(dict(params))


def build_tensor(name, params, dim):
    """The catalog tensor name, whose n x n matrix must act on a dim-dimensional manifold."""
    if name not in TENSORS:
        raise ValidationError(f"unknown tensor {name!r}; see the catalog listing", key=name)
    tensor = TENSORS[name].build(dict(params))
    # the builder checked n; skew_rotation, the one tensor without it, acts on the plane
    n = params.get("n", 2)
    if n != dim:
        raise ValidationError(f"catalog tensor {name!r} is an n x n matrix with n = {n}, "
                              f"but the manifold is {dim}-dimensional", key="n")
    return tensor


def build_wave(name, params):
    if name not in WAVES:
        raise ValidationError(f"unknown wave {name!r}; see the catalog listing", key=name)
    return WAVES[name].build(dict(params))
