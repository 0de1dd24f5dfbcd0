"""Generalized plane-wave spacetimes and their geodesics.

A wave spacetime is a product of a Riemannian base chart with two extra
coordinates (u, v) and the Lorentzian metric

    g = g0 + 2 du dv + H(x, u) du^2 .

Geodesics split: u is affine in the parameter, the base part solves the force
equation with potential -(delta^2 / 2) H(x, u0 + delta t), and v is recovered
by quadrature from conservation of g(gamma', gamma'). The split is validated
against a direct integration of the full (n+2)-dimensional geodesic equation;
that oracle never feeds the main pipeline. Its acceleration comes from the
same exact partials the reduction uses (the base's geodesic term, h_dx and
h_du), so what stays independent of the reduction is the full-dimensional
Lorentzian integration with a solve against the whole (n+2)x(n+2) metric,
by Gaussian elimination with partial pivoting, never the reduction's algebra
(u affine, v from conservation). The oracle's field is one function
generated per spacetime, and so is the base run's force-equation kernel,
which each run binds to its u0 and delta. full_acceleration (one
np.linalg.solve) and the finite-difference Christoffel symbols of
full_metric (full_christoffel) are the tests' references for the field and
its partials, and are called from no run path.

The Lorentzian metric deliberately never passes through the geometry module's
positive-definiteness checks.
"""

import math
import types
from dataclasses import dataclass, field, replace
from operator import mul
from typing import Callable

import numpy as np

from .dynamics import ForceSystem, FREE, guard_check, make_rhs
from .expressions import Expression, Inliner, chart_parts, on_rows, substituted
from .geometry import chart_point, inner_products, metric_at, metric_lines, norm_function
from .integrate import FORWARD, Trajectory, hermite, integrate, integrate_ode, sample
from .numdiff import christoffel_from_metric
from .report import write_csv

#: the times of a split geodesic's v-table, spread evenly over the base run
_V_NODES = 2049


@dataclass(frozen=True)
class WaveCoefficient:
    """The scalar coefficient H(x, u) with its derivatives.

    Each source takes the chart point x as a list of Python floats and u as
    a Python float; h and h_du return a float, h_dx the sequence of the
    x-partials as floats. h_dx and h_du are the exact derivatives of h, and
    both are required; over arrays they are reached through
    expressions.on_rows. A coefficient carries only these sources.

    h, h_dx and h_du may each carry an array form (expressions.array_form),
    which evaluates H, its x-partials (on a new last axis) or its u-partial
    over arrays: chart points on the last axis of x, broadcast against u,
    NaN where the scalar call would raise. The array form belongs to the
    callable, so a coefficient with a replaced source never evaluates the
    old one.
    """

    h: Callable[[np.ndarray, float], float]
    h_dx: Callable[[np.ndarray, float], np.ndarray]
    h_du: Callable[[np.ndarray, float], float]

    def __post_init__(self):
        if not (callable(self.h_dx) and callable(self.h_du)):
            raise TypeError("a wave coefficient needs its derivatives h_dx and h_du")


@dataclass(frozen=True)
class GpwSpacetime:
    """Base chart manifold plus wave coefficient, with a nonzero witness.

    The witness (x, u) certifies H is not identically zero, which the wave
    definition requires: H must be finite and nonzero there. generated holds
    the functions generated from the sources on first use: the oracle's
    field (full_geodesic_oracle), the base run's kernel (wave_force_system)
    and the free force system of its delta = 0 runs (base_trajectory).
    """

    base: object
    wave: WaveCoefficient
    nonzero_witness: tuple
    generated: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        x_w, u_w = self.nonzero_witness
        val = float(self.wave.h(chart_point(x_w), float(u_w)))
        if not (math.isfinite(val) and val != 0.0):
            raise ValueError(f"wave coefficient vanishes or is not finite at the declared witness "
                             f"{self.nonzero_witness}: H = {val}")


@dataclass(frozen=True)
class GeodesicInitialData:
    x0: np.ndarray
    xdot0: np.ndarray
    u0: float = 0.0
    udot0: float = 1.0
    v0: float = 0.0
    vdot0: float = 0.0

    @property
    def delta(self):
        return float(self.udot0)


@dataclass(frozen=True)
class SplitGeodesic:
    """A geodesic in split form: base trajectory, affine u, sampled v.

    energy is the conserved g(gamma', gamma') fixed by the initial data; its
    sign (timelike / null / spacelike causal character) is invariant along the
    geodesic. The outcome is inherited from the base trajectory: a base
    blow-up makes the whole geodesic blow up.
    """

    base_trajectory: Trajectory
    u0: float
    delta: float
    v_times: np.ndarray
    v_values: np.ndarray
    v_dots: np.ndarray
    energy: float

    @property
    def outcome(self):
        return self.base_trajectory.outcome


def energy_of(st, init):
    """Conserved g(gamma', gamma') from the initial data."""
    x0 = np.asarray(init.x0, dtype=float)
    xdot0 = np.asarray(init.xdot0, dtype=float)
    g0 = metric_at(st.base, x0)
    return float(xdot0 @ g0 @ xdot0
                 + 2.0 * init.delta * init.vdot0
                 + float(st.wave.h(chart_point(x0), float(init.u0))) * init.delta ** 2)


def wave_force_system(st, u0, delta):
    """Force system for the base part: V(x, t) = -(delta^2 / 2) H(x, u0 + delta t).

    Its derivatives come from the wave's exact h_dx and h_du; the gradient,
    which the integrator calls, is taken in Python floats from h_dx's values.
    It comes with its force-equation kernel on st.base (dynamics.make_rhs),
    which is st's one base kernel bound to this gradient (_base_kernel).
    """
    half_d2 = 0.5 * delta * delta
    wave = st.wave
    gradient = _wave_gradient(wave.h_dx, u0, delta, -half_d2)
    fs = ForceSystem(
        potential=lambda x, t: -half_d2 * wave.h(x, u0 + delta * t),
        potential_dx=gradient,
        potential_dt=lambda x, t: -half_d2 * delta * wave.h_du(x, u0 + delta * t),
        time_independent=(delta == 0.0),
    )
    fs.generated["rhs"] = st.base, _base_kernel(st, (u0, delta, -half_d2, gradient))
    return fs


def _wave_gradient(h_dx, u0, delta, factor):
    """factor ∂_x H(x, u0 + delta t) as f(x, t); -half_d2 * d is (-half_d2) * d, so the factor
    keeps the floats.

    Where h_dx is a chart function (expressions.chart_parts) over (x, u),
    f carries as its chart the same values as text, built on first use: the
    partials' trees with u replaced by the tree of u0 + delta * t, each
    multiplied by the factor, built raw, in f's order of operations, over
    (x, t), h_dx's parameters and u0, delta and factor, which are bound as
    parameters. So the force equation's kernel writes the gradient out, its
    text the same for every run on the wave, and a domain error still calls
    f, whose EvaluationError names the partial that fails at (x, u).
    """
    gradient = lambda x, t: [factor * d for d in h_dx(x, u0 + delta * t)]
    parts = chart_parts(h_dx)
    if parts is None or len(parts[1]) != 2 or parts[1][1] is not None:
        return gradient
    exprs, (n, _), params = parts
    if not isinstance(exprs, list) or not all(isinstance(e, Expression) for e in exprs):
        return gradient
    gradient.chart = (lambda: _along_geodesic(exprs, n, len(params)), (n, None),
                      params + (u0, delta, factor))
    return gradient


def _base_kernel(st, run):
    """make_rhs's kernel on st.base for the wave force system of run = (u0, delta, factor, gradient).

    The kernel is generated once per spacetime, for a gradient built with
    a marker in place of each value of run (the gradient itself included),
    and kept as its code and globals with the names that hold the markers.
    Each run's kernel is a function of that code over a copy of the globals
    with run's values under those names, so every run on the wave shares
    one kernel text and generates nothing.
    """
    template = st.generated.get("base")
    if template is None:
        markers = (object(), object(), object())
        gradient = _wave_gradient(st.wave.h_dx, *markers)
        markers += (gradient,)
        kernel = make_rhs(st.base, ForceSystem(potential=FREE.potential, potential_dx=gradient,
                                               potential_dt=FREE.potential_dt))
        slots = {id(marker): i for i, marker in enumerate(markers)}
        # ids of live objects are distinct, so only a marker's id is in slots
        names = [(name, slots[id(value)]) for name, value in kernel.__globals__.items()
                 if id(value) in slots]
        template = st.generated["base"] = kernel.__code__, kernel.__globals__, names
    code, namespace, names = template
    namespace = dict(namespace)
    for name, i in names:
        namespace[name] = run[i]
    return types.FunctionType(code, namespace)


def _along_geodesic(exprs, n, n_params):
    """factor * e with u = u0 + delta * t for each Expression e over (x1..xn, u, parameters)."""
    last = n + 1 + n_params
    u = ("+", ("var", last), ("*", ("var", last + 1), ("var", n)))
    nodes = [("var", i) for i in range(n)] + [u] + [("var", i) for i in range(n + 1, last)]
    variables, memo = exprs[0].variables, {}
    names = variables[:n] + ("t",) + variables[n + 1:] + ("u0", "delta", "factor")
    return [Expression(f"factor*({e.source}) at u = u0 + delta*t", names,
                       ("*", ("var", last + 2), substituted(e.tree, nodes, memo))) for e in exprs]


def _conserved_vdot(st, energy, delta, x, xdot, u):
    """vdot from g(gamma', gamma') = energy at base states (x, xdot) and wave coordinates u.

    x and xdot hold one state per row and u one coordinate per state; the
    result holds one vdot per state.
    """
    quad = inner_products(st.base, x, xdot, xdot)
    h_val = on_rows(st.wave.h, x, u)
    return (energy - quad - h_val * delta * delta) / (2.0 * delta)


def base_trajectory(st, init, cfg):
    """The base part of a geodesic, integrated forward; its outcome is the geodesic's.

    For delta != 0 it moves under the potential -(delta^2/2) H(x, u0 + delta t),
    for delta = 0 it is a plain geodesic of the base metric, under st's own
    copy of FREE, which keeps its kernel on st.base for every such run.
    """
    delta = init.delta
    fs = (st.generated.setdefault("free", replace(FREE)) if delta == 0.0
          else wave_force_system(st, init.u0, delta))
    return integrate(st.base, fs, (np.asarray(init.x0, dtype=float),
                                   np.asarray(init.xdot0, dtype=float)), cfg, FORWARD)


def cumulative_simpson(y, x):
    """The integral of y from x[0] to each node of x, by the composite Simpson rule.

    Cartwright's rule for unequal intervals (J. Math. Sci. Math. Educ. 12 (2)):
    the parabola through an interval and the next node integrates every second
    interval; the one through it and the node before (the rule on the reversed
    nodes) integrates the others and the last. x increases strictly, len(x) >= 3;
    one node x[0] gives the integral 0 over it.
    """
    if len(x) == 1:
        return np.zeros(1)

    def ahead(y, dx):
        x21, x32 = dx[:-1], dx[1:]
        r = x21 / (x21 + x32)
        q = r * (x21 / x32)
        return x21 / 6 * ((3 - r) * y[:-2] + (3 + q + r) * y[1:-1] - q * y[2:])

    dx = np.diff(x)
    h1, h2 = ahead(y, dx), ahead(y[::-1], dx[::-1])[::-1]
    parts = np.zeros(len(y))
    parts[1:-1:2], parts[2::2], parts[-1] = h1[::2], h2[::2], h2[-1]
    return np.cumsum(parts)


def reduce_geodesic(st, init, cfg):
    """Split a geodesic: affine u, base trajectory, v by quadrature.

    v is tabulated on _V_NODES even times over the base run: for delta != 0 by
    cumulative Simpson quadrature of vdot from the conservation of
    g(gamma', gamma'), for delta = 0 linearly. A base run that stops at its
    first record covers one time, and v is tabulated there alone, as v0.
    """
    delta = init.delta
    energy = energy_of(st, init)
    base = base_trajectory(st, init, cfg)
    lo, hi = base.t_span
    ts = np.linspace(lo, hi, _V_NODES if hi > lo else 1)
    if delta == 0.0:
        v_dots = np.full(ts.shape, float(init.vdot0))
        v_vals = init.v0 + init.vdot0 * ts
    else:
        x, xdot = sample(base, ts)
        v_dots = _conserved_vdot(st, energy, delta, x, xdot, init.u0 + delta * ts)
        v_vals = init.v0 + cumulative_simpson(v_dots, ts)
    return SplitGeodesic(base_trajectory=base, u0=float(init.u0), delta=delta,
                         v_times=ts, v_values=v_vals, v_dots=v_dots, energy=energy)


def split_state(sg, st, ts):
    """Positions (x, u, v) and velocities (xdot, delta, vdot), one row per time of ts."""
    ts = np.asarray(ts, dtype=float)
    x, xdot = sample(sg.base_trajectory, ts)
    u = sg.u0 + sg.delta * ts
    v = hermite(sg.v_times, sg.v_values, sg.v_dots, ts)
    if sg.delta == 0.0:
        vdot = np.full(ts.shape, sg.v_dots[0])
    else:
        vdot = _conserved_vdot(st, sg.energy, sg.delta, x, xdot, u)
    return np.column_stack([x, u, v]), np.column_stack([xdot, np.full(ts.shape, sg.delta), vdot])


def full_metric(st, q):
    """The (n+2)x(n+2) Lorentzian metric at q = (x..., u, v); blocks g0, H, du dv."""
    n = st.base.dim
    x = q[:n]
    u = q[n]
    g0 = metric_at(st.base, x)
    g = np.zeros((n + 2, n + 2))
    g[:n, :n] = g0
    g[n, n] = st.wave.h(chart_point(x), float(u))
    g[n, n + 1] = 1.0
    g[n + 1, n] = 1.0
    return g


def full_christoffel(st, q):
    """Signature-agnostic finite-difference Christoffel symbols of the full metric.

    The reference the tests hold full_acceleration against; no run calls it.
    """
    return christoffel_from_metric(lambda p: full_metric(st, p), q)


def full_acceleration(st, q, qd):
    """q̈ of the full geodesic equation at q = (x..., u, v) with velocity qd, as an array.

    Λ_L = Γ_L,ij q̇^i q̇^j, the Christoffel symbols of the first kind of
    g = g0 + 2 du dv + H du^2 contracted twice with qd, comes from exact
    partials: on the base Λ_l = (the base's geodesic term)_l − ½ u̇^2 ∂_l H,
    then Λ_u = u̇ (∇H · ẋ) + ½ u̇^2 ∂_u H and Λ_v = 0. q̈ solves G q̈ = −Λ
    by one np.linalg.solve against the full metric G (det G = −det g0 ≠ 0),
    which is never inverted block by block. Each call makes one checked
    metric_at call and one call each of h, h_dx and h_du.

    The tests' reference for the oracle's generated field (_oracle_field);
    no run calls it.
    """
    base, wave = st.base, st.wave
    n = base.dim
    x, xdot = chart_point(q[:n]), chart_point(qd[:n])
    u, udot = float(q[n]), float(qd[n])
    g = np.zeros((n + 2, n + 2))
    g[:n, :n] = metric_at(base, x)
    g[n, n] = wave.h(x, u)
    g[n, n + 1] = g[n + 1, n] = 1.0
    h_dx = wave.h_dx(x, u)
    half_u2 = 0.5 * udot * udot
    lam = [-half_u2 * d for d in h_dx]
    if not base.flat:
        lam = [a + b for a, b in zip(base.geodesic_term(x, xdot), lam)]
    lam.append(udot * sum(map(mul, h_dx, xdot)) + half_u2 * wave.h_du(x, u))
    lam.append(0.0)
    return -np.linalg.solve(g, lam)


def full_geodesic_oracle(st, init, cfg):
    """Direct integration of the full geodesic equation, for cross-validation only.

    State order is (x..., u, v); the field is st's generated oracle field
    (_oracle_field), whose acceleration is full_acceleration's. The blow-up
    classifier uses the auxiliary positive-definite norm
    g0(xdot, xdot) + udot^2 + vdot^2, since the Lorentzian norm can vanish
    on null directions.
    """
    n = st.base.dim
    n_full = n + 2
    q0 = np.concatenate([np.asarray(init.x0, dtype=float), [init.u0, init.v0]])
    qd0 = np.concatenate([np.asarray(init.xdot0, dtype=float), [init.udot0, init.vdot0]])
    f = st.generated.get("oracle")
    if f is None:
        f = st.generated["oracle"] = _oracle_field(st)
    norm = norm_function(st.base)

    def speed_of(y):
        qd = y[n_full:]
        val = norm(y[:n] + qd[:n]) + (qd[n] * qd[n] + qd[n + 1] * qd[n + 1])
        return math.sqrt(val) if math.isfinite(val) and val >= 0 else math.inf

    return integrate_ode(f, np.concatenate([q0, qd0]), cfg, direction=FORWARD,
                         speed_of=speed_of)


def _oracle_field(st):
    """The full geodesic equation as one generated function k(t, y), y = q + q̇, q = (x..., u, v).

    k gives the list q̇ + q̈ in Python floats, q̈ as full_acceleration gives
    it: after the guard check, the base metric (geometry.metric_lines, so a
    metric that is not diagonal at x is metric_at's symmetrized matrix), H,
    h_dx, the base's geodesic term and h_du, in full_acceleration's order,
    each written in or called (expressions.Inliner.values); then Λ in
    full_acceleration's order of operations, and the solve of G s = Λ
    (_solve_lines), q̈ = −s. A zero pivot, which an infinite H gives, makes
    q̈ all NaN, which rejects the stage.
    """
    base, wave = st.base, st.wave
    n, m = base.dim, base.dim + 2
    inliner = Inliner(n)
    bind = inliner.bind
    guard = guard_check(base, inliner)
    if not base.flat:
        metric = inliner.add(base.metric, ("x",), (n, n))
        term = inliner.add(base.geodesic_term, ("x", "v"), (n,))
    h = inliner.add(wave.h, ("x", "t"))
    h_dx = inliner.add(wave.h_dx, ("x", "t"), (n,))
    h_du = inliner.add(wave.h_du, ("x", "t"))

    lines = guard()
    if base.flat:
        rows = [[bind(g) for g in row] for row in base.metric.tolist()]
    else:
        metric_text, diagonal = metric_lines(base, inliner, metric)
        rows = [[f"_A{i}_{j}" for j in range(n)] for i in range(n)]
        diagonal = [diagonal[i] if i == j else "0.0" for i in range(n) for j in range(n)]
        unpacked = "".join("(" + ", ".join(row) + ",), " for row in rows)
        lines += metric_text + ["if _G is None:",
                                f"    {', '.join(sum(rows, []))}, = {', '.join(diagonal)},",
                                "else:", f"    {unpacked}= _G.tolist()"]
    h_lines, h_text = inliner.values(h, "_h")
    dx_lines, dx = inliner.values(h_dx, "_d")
    lines += h_lines + dx_lines
    lam = [f"-_w * {d}" for d in dx]
    if not base.flat:
        term_lines, terms = inliner.values(term, "_e")
        lines += term_lines
        lam = [f"{e} + {b}" for e, b in zip(terms, lam)]
    du_lines, du = inliner.values(h_du, "_k")
    dot = " + ".join(f"{d} * _v{n + i}" for i, d in enumerate(dx))
    lines += du_lines + ["_w = 0.5 * _ud * _ud"]
    lam += [f"_ud * (0.0 + {dot}) + _w * {du}", "0.0"]
    rows = [row + ["0.0", "0.0"] for row in rows]
    rows += [["0.0"] * n + [h_text, "1.0"], ["0.0"] * n + ["1.0", "0.0"]]
    solve, s = _solve_lines(rows, lam)
    velocity = [f"_v{n + i}" for i in range(n)] + ["_ud", "_vd"]
    nan = bind(math.nan)
    lines += (["try:"] + [f"    {line}" for line in solve]
              + [f"except {bind(ZeroDivisionError)}:", f"    return [{', '.join(velocity + [nan] * m)}]",
                 f"return [{', '.join(velocity + [f'-{e}' for e in s])}]"])
    unpack = [f"_v{i}" for i in range(n)] + [f"_v{2 * n}", "_q"] + velocity[:n] + ["_ud", "_vd"]
    return inliner.function(f"def _f(t, _y):\n    {', '.join(unpack)}, = _y\n"
                            + "".join(f"    {line}\n" for line in lines))


def _solve_lines(a, b):
    """(lines, texts): straight-line Gaussian elimination with partial pivoting solving A s = b.

    a holds the texts of the rows of A, b those of the right-hand side. The
    lines copy them into the locals _A<i>_<j> and _B<i> (an entry whose text
    is its local already stays), then for each column k in turn take as
    pivot the first row from k down whose entry has the largest magnitude
    (a NaN is never larger), swap it into row k, and subtract the multiple
    A_ik / A_kk of row k from each row below (Golub & Van Loan, Matrix
    Computations, §3.4); back substitution then gives s from the last
    component up, each sum of products subtracted from the last column to
    the first, as LAPACK's getrs does. texts names the locals of s. A zero
    pivot raises ZeroDivisionError.
    """
    m = len(b)
    entry = [[f"_A{i}_{j}" for j in range(m)] + [f"_B{i}"] for i in range(m)]
    lines = [f"{entry[i][j]} = {text}" for i in range(m) for j, text in enumerate(a[i] + [b[i]])
             if text != entry[i][j]]
    for k in range(m - 1):
        lines.append(f"_R = {k}; _P = abs({entry[k][k]})")
        for i in range(k + 1, m):
            lines += [f"_Q = abs({entry[i][k]})", f"if _Q > _P: _R = {i}; _P = _Q"]
        for i in range(k + 1, m):
            pivot, other = entry[k][k:], entry[i][k:]
            lines.append(f"{'if' if i == k + 1 else 'elif'} _R == {i}: "
                         f"{', '.join(pivot + other)} = {', '.join(other + pivot)}")
        for i in range(k + 1, m):
            lines.append(f"_M = {entry[i][k]} / {entry[k][k]}")
            lines += [f"{entry[i][j]} = {entry[i][j]} - _M * {entry[k][j]}"
                      for j in range(k + 1, m + 1)]
    s = [f"_S{i}" for i in range(m)]
    for i in reversed(range(m)):
        terms = "".join(f" - {entry[i][j]} * {s[j]}" for j in reversed(range(i + 1, m)))
        lines.append(f"{s[i]} = ({entry[i][m]}{terms}) / {entry[i][i]}")
    return lines, s


def full_quadratic_form(st, q, qd):
    """g(qd, qd) = g0(xdot, xdot) + 2 udot vdot + H udot^2 at each row of q = (x..., u, v) and qd."""
    n = st.base.dim
    x, xdot, udot = q[:, :n], qd[:, :n], qd[:, n]
    return (inner_products(st.base, x, xdot, xdot) + 2.0 * udot * qd[:, n + 1]
            + on_rows(st.wave.h, x, q[:, n]) * udot * udot)


def split_geodesic_to_csv(sg, st, fileobj):
    """CSV of a split geodesic at the base trajectory's accepted steps.

    Header: t, u, v, x1..xn, xdot1..xdotn (full precision), with x and xdot
    the accepted states themselves.
    """
    n = sg.base_trajectory.dim
    header = ["t", "u", "v"] + [f"x{i + 1}" for i in range(n)] + [f"xdot{i + 1}" for i in range(n)]
    ts = sg.base_trajectory.times
    v = hermite(sg.v_times, sg.v_values, sg.v_dots, ts)
    rows = np.column_stack([ts, sg.u0 + sg.delta * ts, v, sg.base_trajectory.states])
    write_csv(fileobj, header, rows.ravel().tolist())
