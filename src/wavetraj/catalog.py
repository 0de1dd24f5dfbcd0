"""Built-in manifolds, potentials, tensor forces, and wave families.

Entries are addressable by name from scenario files. Builders take a params
dict, and a potential's builder the manifold's dimension too; unknown
parameters, and parameters of the wrong type or range, are hard errors so
scenario typos cannot pass silently. This is also the one module that turns
expression text in x1..xn into chart sources: metric rows, potentials,
tensors and wave coefficients; every chart, potential and tensor entry is
such text, hyperbolic_half_plane included.

Every source here takes a chart point as a list of Python floats and returns
Python floats in plain (nested) sequences, the values the integrator's step
loop works on (geometry.ChartManifold).
"""

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ForceSystem
from .errors import ParseError, ValidationError
from .expressions import (Expression, _add, _mul, _sub, at_chart_point, chart_function,
                          chart_guard, parse_expression)
from .geometry import ChartManifold
from .gpw import WaveCoefficient


@dataclass(frozen=True)
class CatalogEntry:
    signature: str
    summary: str
    build: Callable[..., object]


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


def _number_text(x):
    """A float as expression text that parses back to it, in parentheses."""
    return f"({x!r})"


def _square_text(n):
    """x1*x1 + ... + xn*xn, in parentheses."""
    return "(" + " + ".join(f"x{i + 1}*x{i + 1}" for i in range(n)) + ")"


def _chart_variables(n, *last):
    """The variables of a chart source: the coordinates x1..xn, then last."""
    return tuple(f"x{i + 1}" for i in range(n)) + last


def _chart_field(expr, n, params=()):
    """expr over (x1..xn, s, parameters valued params): value, x-gradient, s-partial as f(x, s)."""
    variables = expr.variables
    return (at_chart_point(expr, params),
            at_chart_point([expr.derivative(v) for v in variables[:n]], params),
            at_chart_point(expr.derivative(variables[n]), params))


# ---------------------------------------------------------------- manifolds

def _build_euclidean(params):
    _check_params("euclidean", params, allowed={"n"}, required={"n"})
    n = _dimension("euclidean", params)
    return ChartManifold(
        dim=n,
        metric=np.eye(n),
        complete_flag=True,
    )


def _build_hyperbolic(params):
    _check_params("hyperbolic_half_plane", params, allowed=set())
    return _half_plane()


@functools.cache
def _half_plane():
    # one chart for every scenario, as it takes no parameters; 1/(x2*x2) is
    # the float 1.0 / (x2 * x2), w = 1/x2^2 rounded once
    return metric_rows([["1/(x2*x2)", "0"], ["0", "1/(x2*x2)"]], guard="x2", complete=True)


def _parsed_rows(rows, variables):
    """The n x n expression text rows parsed over variables; equal texts share one Expression."""
    parsed = {text: parse_expression(text, variables)
              for text in dict.fromkeys(e for row in rows for e in row)}
    return [[parsed[e] for e in row] for row in rows]


def _sum(terms):
    """The tree of the terms summed left to right; terms that fold to zero drop out."""
    return functools.reduce(_add, terms, ("num", 0.0))


def _geodesic_terms(exprs, variables):
    """Γ_lij v^i v^j of the metric entries exprs over (x1..xn), as trees over (x1..xn, v1..vn).

    With dg_v[i][j] = Σ_k ∂_i g_jk v_k, it is Σ_i v_i dg_v[i][l] − 0.5 Σ_j v_j dg_v[l][j].
    As metric_at averages G, an entry whose transposed text differs has its
    partials averaged; averaging would give any other entry its own bits.
    """
    n = len(exprs)
    half = ("num", 0.5)
    v = [("var", n + k) for k in range(n)]

    def partial(i, j, k):
        d = exprs[j][k].derivative(variables[i]).tree
        if exprs[k][j] is exprs[j][k]:
            return d
        return _mul(_add(exprs[k][j].derivative(variables[i]).tree, d), half)

    dg_v = [[_sum(_mul(partial(i, j, k), v[k]) for k in range(n)) for j in range(n)]
            for i in range(n)]
    return [_sub(_sum(_mul(v[i], dg_v[i][l]) for i in range(n)),
                 _mul(half, _sum(_mul(v[j], dg_v[l][j]) for j in range(n))))
            for l in range(n)]


def metric_rows(rows, guard=None, complete=False):
    """The chart whose metric has the n x n expression text rows, guard > 0 inside it.

    The metric is one generated function of the chart point x, giving the
    rows. Its geodesic term is one generated function of (x, v), built on
    its first call from the exact partials (_geodesic_terms).
    """
    if not isinstance(complete, bool):
        raise ValidationError("'complete' must be true or false", key="complete")
    n = len(rows)
    variables = _chart_variables(n)
    exprs = _parsed_rows(rows, variables)
    guard_fn = None if guard is None else chart_guard(parse_expression(guard, variables))

    def geodesic_terms():
        names = variables + tuple(f"v{k + 1}" for k in range(n))
        return [Expression(f"Gamma_{l + 1}ij v^i v^j of the metric rows", names, tree)
                for l, tree in enumerate(_geodesic_terms(exprs, variables))]

    return ChartManifold(dim=n, metric=chart_function(exprs, (n,)),
                         geodesic_term=chart_function(geodesic_terms, (n, n)),
                         domain_guard=guard_fn, complete_flag=complete)


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

# each potential is a template over x1..xn, t and its parameters with the
# operations of its float formula, S = (x1*x1 + ... + xn*xn) left to right

@functools.cache
def _template(text, n, names):
    """text over x1..xn, t and names, parsed once: entries share its derivatives and code."""
    return parse_expression(text, _chart_variables(n, "t", *names))


def _template_potential(text, n, **params):
    """The force system of the template text on n coordinates, its parameters valued params."""
    return _force_system(_template(text, n, tuple(params)), n, tuple(params.values()))


@functools.cache
def _zero_potential(n):
    # one per dimension: most scenarios run without a potential
    return _template_potential("0", n)


def _build_zero_potential(params, n):
    _check_params("zero", params, allowed=set())
    return _zero_potential(n)


def _build_harmonic(params, n):
    _check_params("harmonic", params, allowed={"k"})
    k = _real("harmonic", "k", params.get("k", 1.0))
    return _template_potential(f"0.5*k*{_square_text(n)}", n, k=k)


def _build_exp_time_quadratic(params, n):
    _check_params("exp_time_quadratic", params, allowed=set())
    return _template_potential(f"exp(t)*(1 + {_square_text(n)})", n)


def _build_negative_quartic(params, n):
    _check_params("negative_quartic", params, allowed={"c"})
    c = _real("negative_quartic", "c", params.get("c", 1.0))
    square = _square_text(n)
    return _template_potential(f"-c*({square}*{square})", n, c=c)


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
    return _force_system(parse_expression(text, _chart_variables(n, "t")), n)


def _force_system(expr, n, params=()):
    """The force system of the potential expr over x1..xn, t and any parameters, valued params."""
    value, dx, dt = _chart_field(expr, n, params)
    return ForceSystem(potential=value, potential_dx=dx, potential_dt=dt,
                       time_independent="t" not in expr.used)


# ---------------------------------------------------------------- tensor forces

def _diagonal_rows(text, n):
    """n x n rows with text on the diagonal and 0 elsewhere."""
    return [[text if j == k else "0" for k in range(n)] for j in range(n)]


def _build_skew_rotation(params):
    _check_params("skew_rotation", params, allowed={"omega"})
    omega = _number_text(_real("skew_rotation", "omega", params.get("omega", 1.0)))
    return expression_tensor([["0", omega], ["-" + omega, "0"]])


def _build_scalar_multiple(params):
    _check_params("scalar_multiple", params, allowed={"c", "n"}, required={"c", "n"})
    c = _real("scalar_multiple", "c", params["c"])
    n = _dimension("scalar_multiple", params)
    return expression_tensor(_diagonal_rows(_number_text(c), n))


def _build_time_scalar(params):
    _check_params("time_scalar", params, allowed={"expr", "n"}, required={"expr", "n"})
    n = _dimension("time_scalar", params)
    text = _text("time_scalar", "expr", params["expr"])
    # c is an expression in t alone: an x1 in it is a parse error
    parse_expression(text, ("t",))
    return expression_tensor(_diagonal_rows(text, n))


def expression_tensor(rows):
    """The tensor F(x, t) whose n x n matrix has the expression text rows in x1..xn and t.

    It is the entries' one generated function (expressions.at_chart_point),
    which the force equation's kernel writes in, a constant entry as its
    number; its array form gives the matrices from the entries' array forms.
    """
    return at_chart_point(_parsed_rows(rows, _chart_variables(len(rows), "t")))


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
    try:
        return _build_expression_wave({"H": _PLANE_WAVE_H.format(**profiles), "n": 2})
    except ParseError as exc:
        # the profiles parse alone, so the template's own levels took one past MAX_DEPTH;
        # the first that fails in the template by itself is named
        zeros = dict.fromkeys(profiles, "0")
        for key, text in profiles.items():
            try:
                parse_expression(_PLANE_WAVE_H.format(**{**zeros, key: text}), _chart_variables(2, "u"))
            except ParseError:
                raise ValidationError(f"parameter {key!r} of catalog entry 'plane_wave' nests too "
                                      f"deeply for the plane-wave template", key=key) from exc
        raise


def _build_expression_wave(params):
    _check_params("expression", params, allowed={"H", "n"}, required={"H", "n"})
    n = _dimension("expression", params)
    h, h_dx, h_du = _chart_field(
        parse_expression(_text("expression", "H", params["H"]), _chart_variables(n, "u")), n)
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


def build_potential(name, params, dim):
    """The catalog potential name on a dim-dimensional manifold."""
    if name not in POTENTIALS:
        raise ValidationError(f"unknown potential {name!r}; see the catalog listing", key=name)
    return POTENTIALS[name].build(dict(params), dim)


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
