"""Built-in manifolds, potentials, tensor forces, and wave families.

Entries are addressable by name from scenario files. Builders take a params
dict; unknown parameters are hard errors so scenario typos cannot pass
silently.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ForceSystem
from .errors import ValidationError
from .expressions import coordinates, parse_expression
from .geometry import ChartManifold
from .gpw import WaveCoefficient, plane_wave_H


@dataclass(frozen=True)
class CatalogEntry:
    name: str
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


# ---------------------------------------------------------------- manifolds

def _build_euclidean(params):
    _check_params("euclidean", params, allowed={"n"}, required={"n"})
    n = int(params["n"])
    return ChartManifold(
        dim=n,
        metric=np.eye(n),
        complete_flag=True,
        name=f"euclidean({n})",
    )


def _hyperbolic_metric(x):
    w = 1.0 / x[1] ** 2
    return np.array([[w, 0.0], [0.0, w]])


def _hyperbolic_christoffel(x):
    inv_y = 1.0 / x[1]
    gamma = np.zeros((2, 2, 2))
    gamma[0, 0, 1] = -inv_y
    gamma[0, 1, 0] = -inv_y
    gamma[1, 0, 0] = inv_y
    gamma[1, 1, 1] = -inv_y
    return gamma


def _build_hyperbolic(params):
    _check_params("hyperbolic_half_plane", params, allowed=set())
    return ChartManifold(
        dim=2,
        metric=_hyperbolic_metric,
        christoffel=_hyperbolic_christoffel,
        domain_guard=lambda x: x[1] > 0.0,
        complete_flag=True,
        name="hyperbolic_half_plane",
    )


def _build_diagonal_conformal(params):
    _check_params("diagonal_conformal", params, allowed={"entries", "complete", "guard"},
                  required={"entries"})
    entries = params["entries"]
    if not isinstance(entries, list) or not entries:
        raise ValidationError("diagonal_conformal 'entries' must be a nonempty list of expressions",
                              key="entries")
    n = len(entries)
    variables = tuple(f"x{i + 1}" for i in range(n))
    fns = [parse_expression(e, variables) for e in entries]
    guard_fn = None
    if params.get("guard") is not None:
        guard_expr = parse_expression(params["guard"], variables)
        guard_fn = lambda x: guard_expr(*x) > 0.0

    partials = [[fn.derivative(v) for fn in fns] for v in variables]   # [i][k] = ∂_i g_kk

    def metric(x):
        return np.diag([fn(*x) for fn in fns])

    def metric_dx(x):
        dg = np.zeros((n, n * n))
        dg[:, ::n + 1] = [[d(*x) for d in row] for row in partials]   # the diagonals
        return dg.reshape(n, n, n)

    return ChartManifold(
        dim=n,
        metric=metric,
        metric_dx=metric_dx,
        domain_guard=guard_fn,
        complete_flag=bool(params.get("complete", False)),
        name=f"diagonal_conformal({n})",
    )


MANIFOLDS = {
    "euclidean": CatalogEntry(
        "euclidean", "euclidean(n)", "flat metric, identity matrix, complete", _build_euclidean),
    "hyperbolic_half_plane": CatalogEntry(
        "hyperbolic_half_plane", "hyperbolic_half_plane",
        "half-plane model diag(1/x2^2, 1/x2^2), guard x2 > 0, complete", _build_hyperbolic),
    "diagonal_conformal": CatalogEntry(
        "diagonal_conformal", "diagonal_conformal(entries, complete?, guard?)",
        "diagonal metric with expression entries in x1..xn", _build_diagonal_conformal),
}


# ---------------------------------------------------------------- potentials

def _zeros_array(x, t):
    return np.zeros(np.broadcast_shapes(np.shape(x)[:-1], np.shape(t)))


def _build_zero_potential(params):
    _check_params("zero", params, allowed=set())
    return ForceSystem(
        potential=lambda x, t: 0.0,
        potential_dx=lambda x, t: np.zeros(np.asarray(x).shape),
        potential_dt=lambda x, t: 0.0,
        time_independent=True,
        name="zero",
        potential_array=_zeros_array,
        potential_dt_array=_zeros_array,
    )


# each array form repeats its scalar form's operations; np.vecdot(x, x) is
# bit for bit x @ x

def _build_harmonic(params):
    _check_params("harmonic", params, allowed={"k"})
    k = float(params.get("k", 1.0))
    return ForceSystem(
        potential=lambda x, t: 0.5 * k * float(x @ x),
        potential_dx=lambda x, t: k * np.asarray(x, dtype=float),
        potential_dt=lambda x, t: 0.0,
        time_independent=True,
        name=f"harmonic(k={k})",
        potential_array=lambda x, t: 0.5 * k * np.vecdot(x, x),
        potential_dt_array=_zeros_array,
    )


def _build_exp_time_quadratic(params):
    _check_params("exp_time_quadratic", params, allowed=set())
    value_array = lambda x, t: np.exp(t) * (1.0 + np.vecdot(x, x))
    return ForceSystem(
        potential=lambda x, t: np.exp(t) * (1.0 + float(x @ x)),
        potential_dx=lambda x, t: 2.0 * np.exp(t) * np.asarray(x, dtype=float),
        potential_dt=lambda x, t: np.exp(t) * (1.0 + float(x @ x)),
        name="exp_time_quadratic",
        potential_array=value_array,
        potential_dt_array=value_array,
    )


def _build_negative_quartic(params):
    _check_params("negative_quartic", params, allowed={"c"})
    c = float(params.get("c", 1.0))
    return ForceSystem(
        potential=lambda x, t: -c * float(x @ x) ** 2,
        potential_dx=lambda x, t: -4.0 * c * float(x @ x) * np.asarray(x, dtype=float),
        potential_dt=lambda x, t: 0.0,
        time_independent=True,
        name=f"negative_quartic(c={c})",
        potential_array=lambda x, t: -c * np.vecdot(x, x) ** 2,
        potential_dt_array=_zeros_array,
    )


POTENTIALS = {
    "zero": CatalogEntry("zero", "zero", "V = 0, plain geodesics", _build_zero_potential),
    "harmonic": CatalogEntry("harmonic", "harmonic(k=1)", "V = (k/2) |x|^2", _build_harmonic),
    "exp_time_quadratic": CatalogEntry(
        "exp_time_quadratic", "exp_time_quadratic", "V = e^t (1 + |x|^2)", _build_exp_time_quadratic),
    "negative_quartic": CatalogEntry(
        "negative_quartic", "negative_quartic(c=1)", "V = -c |x|^4, finite-time blow-up",
        _build_negative_quartic),
}


# ---------------------------------------------------------------- tensor forces

def _build_skew_rotation(params):
    _check_params("skew_rotation", params, allowed={"omega"})
    omega = float(params.get("omega", 1.0))
    mat = np.array([[0.0, omega], [-omega, 0.0]])
    return lambda x, t: mat


def _build_scalar_multiple(params):
    _check_params("scalar_multiple", params, allowed={"c", "n"}, required={"c", "n"})
    c = float(params["c"])
    n = int(params["n"])
    mat = c * np.eye(n)
    return lambda x, t: mat


def _build_time_scalar(params):
    _check_params("time_scalar", params, allowed={"expr", "n"}, required={"expr", "n"})
    n = int(params["n"])
    fn = parse_expression(params["expr"], ("t",))
    eye = np.eye(n)
    return lambda x, t: fn(t) * eye


TENSORS = {
    "skew_rotation": CatalogEntry(
        "skew_rotation", "skew_rotation(omega=1)", "F = [[0, w], [-w, 0]], metric-skew on the plane",
        _build_skew_rotation),
    "scalar_multiple": CatalogEntry(
        "scalar_multiple", "scalar_multiple(c, n)", "F = c I", _build_scalar_multiple),
    "time_scalar": CatalogEntry(
        "time_scalar", "time_scalar(expr, n)", "F = c(t) I with c an expression in t",
        _build_time_scalar),
}


# ---------------------------------------------------------------- wave families

def _build_plane_wave(params):
    _check_params("plane_wave", params, allowed={"f1", "f2", "f"})
    profiles = [parse_expression(str(params.get(key, "0")), ("u",)) for key in ("f1", "f2", "f")]
    return plane_wave_H(*profiles, *(p.derivative("u") for p in profiles))


def _build_expression_wave(params):
    _check_params("expression", params, allowed={"H", "n"}, required={"H", "n"})
    n = int(params["n"])
    variables = tuple(f"x{i + 1}" for i in range(n)) + ("u",)
    fn = parse_expression(params["H"], variables)
    grad = [fn.derivative(v) for v in variables[:-1]]
    du = fn.derivative("u")
    return WaveCoefficient(h=lambda x, u: fn(*x, u),
                           h_dx=lambda x, u: np.array([d(*x, u) for d in grad]),
                           h_du=lambda x, u: du(*x, u),
                           name=f"expression({params['H']})",
                           h_array=lambda x, u: fn.on_arrays(*coordinates(x), u),
                           h_dx_array=lambda x, u: np.stack(
                               [d.on_arrays(*coordinates(x), u) for d in grad], axis=-1),
                           h_du_array=lambda x, u: du.on_arrays(*coordinates(x), u))


WAVES = {
    "plane_wave": CatalogEntry(
        "plane_wave", "plane_wave(f1,f2,f)",
        "quadratic coefficient f1(u) x^2 - f2(u) y^2 + 2 f(u) xy on the plane", _build_plane_wave),
    "expression": CatalogEntry(
        "expression", "expression(H, n)", "wave coefficient from an expression in x1..xn, u",
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


def build_tensor(name, params):
    if name not in TENSORS:
        raise ValidationError(f"unknown tensor {name!r}; see the catalog listing", key=name)
    return TENSORS[name].build(dict(params))


def build_wave(name, params):
    if name not in WAVES:
        raise ValidationError(f"unknown wave {name!r}; see the catalog listing", key=name)
    return WAVES[name].build(dict(params))
