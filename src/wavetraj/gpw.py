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
Lorentzian integration with an LU solve against the full metric, never the
reduction's algebra (u affine, v from conservation). The finite-difference
Christoffel symbols of full_metric (full_christoffel) are the tests'
reference for those partials and are called from no run path.

The Lorentzian metric deliberately never passes through the geometry module's
positive-definiteness checks.
"""

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable

import numpy as np

from .dynamics import ForceSystem, FREE
from .expressions import Expression, chart_parts, on_rows, substituted
from .geometry import chart_point, inner_products, metric_at, norm_function
from .hypotheses import CertificationTask, certify
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
    both are required. The methods below take arrays too and give arrays.
    A coefficient carries no name or classification, only these sources.

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

    def value(self, x, u):
        return float(self.h(chart_point(x), float(u)))

    def dx(self, x, u):
        return np.asarray(self.h_dx(chart_point(x), float(u)), dtype=float)

    def du(self, x, u):
        return float(self.h_du(chart_point(x), float(u)))

    def value_rows(self, x, u):
        """H at each row of x and the matching entry of u, as an array.

        h's array form serves when its values are all finite; otherwise H is
        evaluated once per row, which raises where H cannot be evaluated
        (expressions.on_rows).
        """
        return on_rows(self.h, self.value, x, u)


@dataclass(frozen=True)
class GpwSpacetime:
    """Base chart manifold plus wave coefficient, with a nonzero witness.

    The witness (x, u) certifies H is not identically zero, which the wave
    definition requires: H must be finite and nonzero there.
    """

    base: object
    wave: WaveCoefficient
    nonzero_witness: tuple

    def __post_init__(self):
        x_w, u_w = self.nonzero_witness
        val = self.wave.value(np.asarray(x_w, dtype=float), float(u_w))
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
                 + st.wave.value(x0, init.u0) * init.delta ** 2)


def wave_force_system(st, u0, delta):
    """Force system for the base part: V(x, t) = -(delta^2 / 2) H(x, u0 + delta t).

    Its derivatives come from the wave's exact h_dx and h_du; the gradient,
    which the integrator calls, is taken in Python floats from h_dx's values.
    """
    half_d2 = 0.5 * delta * delta
    wave = st.wave
    return ForceSystem(
        potential=lambda x, t: -half_d2 * wave.value(x, u0 + delta * t),
        potential_dx=_wave_gradient(wave.h_dx, u0, delta, -half_d2),
        potential_dt=lambda x, t: -half_d2 * delta * wave.du(x, u0 + delta * t),
        time_independent=(delta == 0.0),
    )


def _wave_gradient(h_dx, u0, delta, factor):
    """factor ∂_x H(x, u0 + delta t) as f(x, t); -half_d2 * d is (-half_d2) * d, so the factor
    keeps the floats.

    Where h_dx is a chart function (expressions.chart_parts) over (x, u),
    f carries as its chart the same values as text: the partials' trees
    with u replaced by the tree of u0 + delta * t, each multiplied by the
    factor, built raw, in f's order of operations, over (x, t), h_dx's
    parameters and u0, delta and factor, which are bound as parameters. So
    the force equation's kernel writes the gradient out, its text the same
    for every run on the wave, and a domain error still calls f, whose
    EvaluationError names the partial that fails at (x, u).
    """
    gradient = lambda x, t: [factor * d for d in h_dx(x, u0 + delta * t)]
    parts = chart_parts(h_dx)
    if parts is None or len(parts[1]) != 2 or parts[1][1] is not None:
        return gradient
    exprs, (n, _), params = parts
    if not isinstance(exprs, list) or not all(isinstance(e, Expression) for e in exprs):
        return gradient
    gradient.chart = _along_geodesic(exprs, n, len(params)), (n, None), params + (u0, delta, factor)
    return gradient


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
    h_val = st.wave.value_rows(x, u)
    return (energy - quad - h_val * delta * delta) / (2.0 * delta)


def base_trajectory(st, init, cfg):
    """The base part of a geodesic, integrated forward; its outcome is the geodesic's.

    For delta != 0 it moves under the potential -(delta^2/2) H(x, u0 + delta t),
    for delta = 0 it is a plain geodesic of the base metric.
    """
    delta = init.delta
    fs = FREE if delta == 0.0 else wave_force_system(st, init.u0, delta)
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
    g[n, n] = st.wave.value(x, u)
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
    by one LU solve against the full metric G (det G = −det g0 ≠ 0), which
    is never inverted block by block. Each call makes one checked metric_at
    call and one call each of h, h_dx and h_du.
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

    State order is (x..., u, v); the acceleration is full_acceleration. The
    blow-up classifier uses the auxiliary positive-definite norm
    g0(xdot, xdot) + udot^2 + vdot^2, since the Lorentzian norm can vanish
    on null directions.
    """
    n = st.base.dim
    n_full = n + 2
    q0 = np.concatenate([np.asarray(init.x0, dtype=float), [init.u0, init.v0]])
    qd0 = np.concatenate([np.asarray(init.xdot0, dtype=float), [init.udot0, init.vdot0]])

    def f(t, y):
        qd = y[n_full:]
        return qd + full_acceleration(st, y[:n_full], qd).tolist()

    norm = norm_function(st.base)

    def speed_of(y):
        qd = y[n_full:]
        val = norm(y[:n] + qd[:n]) + (qd[n] * qd[n] + qd[n + 1] * qd[n + 1])
        return math.sqrt(val) if math.isfinite(val) and val >= 0 else math.inf

    return integrate_ode(f, np.concatenate([q0, qd0]), cfg, direction=FORWARD,
                         speed_of=speed_of)


def full_quadratic_form(st, q, qd):
    """g(qd, qd) = g0(xdot, xdot) + 2 udot vdot + H udot^2 at each row of q = (x..., u, v) and qd."""
    n = st.base.dim
    x, xdot, udot = q[:, :n], qd[:, :n], qd[:, n]
    return (inner_products(st.base, x, xdot, xdot) + 2.0 * udot * qd[:, n + 1]
            + st.wave.value_rows(x, q[:, n]) * udot * udot)


def classify_gpw_completeness(st, bd, anchor=None):
    """Certificate for the wave spacetime via the base-potential reduction.

    Delegates to the premise checks with V = -H/2 semantics carried by the
    wave-coefficient routes, on the window of bd; the verdict never asserts
    completeness when the base manifold's complete_flag is unset.
    """
    return certify(CertificationTask(manifold=st.base, bounds=bd, wave=st.wave, anchor=anchor))


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
