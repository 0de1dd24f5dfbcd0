"""Generalized plane-wave spacetimes and their geodesics.

A wave spacetime is a product of a Riemannian base chart with two extra
coordinates (u, v) and the Lorentzian metric

    g = g0 + 2 du dv + H(x, u) du^2 .

Geodesics split: u is affine in the parameter, the base part solves the force
equation with potential -(delta^2 / 2) H(x, u0 + delta t), and v is recovered
by quadrature from conservation of g(gamma', gamma'). The split is validated
against a direct integration of the full (n+2)-dimensional geodesic equation
with signature-agnostic finite-difference Christoffel symbols; that oracle
never feeds the main pipeline.

The Lorentzian metric deliberately never passes through the geometry module's
positive-definiteness checks.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import cumulative_simpson

from .dynamics import ForceSystem, FREE
from .expressions import array_form
from .geometry import metric_at, metrics_at
from .hypotheses import CertificationTask, certify
from .integrate import FORWARD, Trajectory, hermite, integrate, integrate_ode, sample
from .numdiff import christoffel_from_metric, gradient_fd, partial_in_scalar


@dataclass(frozen=True)
class WaveCoefficient:
    """The scalar coefficient H(x, u) with its derivatives.

    h_dx returns the covector of x-partials and h_du the u-partial; absent
    sources fall back to central differences with the shared stencil policy.
    gravitational_wave is set by the plane-wave factory when the two diagonal
    profiles coincide on samples, None when unknown.

    h_array, h_dx_array and h_du_array, when given, evaluate H, its
    x-partials (on a new last axis) and its u-partial over arrays: chart
    points on the last axis of x, broadcast against u. An element where the
    scalar source would raise is NaN.
    """

    h: Callable[[np.ndarray, float], float]
    h_dx: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    h_du: Optional[Callable[[np.ndarray, float], float]] = None
    name: str = ""
    gravitational_wave: Optional[bool] = None
    h_array: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    h_dx_array: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    h_du_array: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def value(self, x, u):
        return float(self.h(np.asarray(x, dtype=float), float(u)))

    def dx(self, x, u):
        x = np.asarray(x, dtype=float)
        if self.h_dx is not None:
            return np.asarray(self.h_dx(x, float(u)), dtype=float)
        return gradient_fd(lambda p: self.h(p, float(u)), x)

    def du(self, x, u):
        x = np.asarray(x, dtype=float)
        if self.h_du is not None:
            return float(self.h_du(x, float(u)))
        return float(partial_in_scalar(lambda s: self.h(x, s), float(u)))

    def value_rows(self, x, u):
        """H at each row of x and the matching entry of u, as an array.

        h_array serves when its values are all finite; otherwise H is
        evaluated once per row, which raises where H cannot be evaluated.
        """
        if self.h_array is not None:
            with np.errstate(all="ignore"):
                out = self.h_array(x, u)
            if np.all(np.isfinite(out)):
                return out
        return np.array([self.value(p, v) for p, v in zip(x, u)])


def plane_wave_H(f1, f2, f, df1=None, df2=None, df=None, u_window=5.0):
    """Quadratic wave coefficient f1(u) x^2 - f2(u) y^2 + 2 f(u) x y on the plane.

    Profile derivatives may be supplied; otherwise they are differenced. The
    gravitational-wave flag is set by sampled equality of f1 and f2 on
    [-u_window, u_window]. Profiles given as Expressions also give the
    coefficient its array forms.
    """
    def value(x, u):
        return f1(u) * x[0] ** 2 - f2(u) * x[1] ** 2 + 2.0 * f(u) * x[0] * x[1]

    def dx(x, u):
        return np.array([2.0 * f1(u) * x[0] + 2.0 * f(u) * x[1],
                         -2.0 * f2(u) * x[1] + 2.0 * f(u) * x[0]])

    def du(x, u):
        d1 = df1(u) if df1 is not None else partial_in_scalar(f1, u)
        d2 = df2(u) if df2 is not None else partial_in_scalar(f2, u)
        d3 = df(u) if df is not None else partial_in_scalar(f, u)
        return d1 * x[0] ** 2 - d2 * x[1] ** 2 + 2.0 * d3 * x[0] * x[1]

    us = np.linspace(-u_window, u_window, 101)
    vals1 = np.array([float(f1(u)) for u in us])
    vals2 = np.array([float(f2(u)) for u in us])
    scale = max(1.0, float(np.abs(vals1).max()), float(np.abs(vals2).max()))
    grav = bool(np.abs(vals1 - vals2).max() <= 1e-12 * scale)

    def on_arrays(p1, p2, p12):
        # the form p1(u) x^2 - p2(u) y^2 + 2 p12(u) x y over points on the last axis of x
        def h(x, u):
            x1, x2 = x[..., 0], x[..., 1]
            return p1(u) * x1 ** 2 - p2(u) * x2 ** 2 + 2.0 * p12(u) * x1 * x2
        return h

    a1, a2, a, d1, d2, d = (array_form(p) for p in (f1, f2, f, df1, df2, df))
    arrays = {}
    if None not in (a1, a2, a):
        def dx_array(x, u):
            x1, x2 = x[..., 0], x[..., 1]
            return np.stack([2.0 * a1(u) * x1 + 2.0 * a(u) * x2,
                             -2.0 * a2(u) * x2 + 2.0 * a(u) * x1], axis=-1)

        arrays.update(h_array=on_arrays(a1, a2, a), h_dx_array=dx_array)
    if None not in (d1, d2, d):
        arrays.update(h_du_array=on_arrays(d1, d2, d))
    return WaveCoefficient(h=value, h_dx=dx, h_du=du, name="plane_wave",
                           gravitational_wave=grav, **arrays)


@dataclass(frozen=True)
class GpwSpacetime:
    """Base chart manifold plus wave coefficient, with a nonzero witness.

    The witness (x, u) certifies H is not identically zero, which the wave
    definition requires.
    """

    base: object
    wave: WaveCoefficient
    nonzero_witness: tuple

    def __post_init__(self):
        x_w, u_w = self.nonzero_witness
        val = self.wave.value(np.asarray(x_w, dtype=float), float(u_w))
        if val == 0.0:
            raise ValueError(f"wave coefficient vanishes at the declared witness {self.nonzero_witness}")


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

    @property
    def dim(self):
        return self.base_trajectory.dim

    def u_of(self, t):
        return self.u0 + self.delta * float(t)

    def v_of(self, t):
        return float(hermite(self.v_times, self.v_values, self.v_dots, t))


def energy_of(st, init):
    """Conserved g(gamma', gamma') from the initial data."""
    x0 = np.asarray(init.x0, dtype=float)
    xdot0 = np.asarray(init.xdot0, dtype=float)
    g0 = metric_at(st.base, x0)
    return float(xdot0 @ g0 @ xdot0
                 + 2.0 * init.delta * init.vdot0
                 + st.wave.value(x0, init.u0) * init.delta ** 2)


def wave_force_system(st, u0, delta):
    """Force system for the base part: V(x, t) = -(delta^2 / 2) H(x, u0 + delta t)."""
    half_d2 = 0.5 * delta * delta
    wave = st.wave

    return ForceSystem(
        potential=lambda x, t: -half_d2 * wave.value(x, u0 + delta * t),
        potential_dx=lambda x, t: -half_d2 * wave.dx(x, u0 + delta * t),
        potential_dt=lambda x, t: -half_d2 * delta * wave.du(x, u0 + delta * t),
        time_independent=(delta == 0.0),
        name="wave_potential",
    )


def _conserved_vdot(st, energy, delta, x, xdot, u):
    """vdot from g(gamma', gamma') = energy at base states (x, xdot) and wave coordinates u.

    x and xdot hold one state per row and u one coordinate per state; the
    result holds one vdot per state.
    """
    g = metrics_at(st.base, x)
    quad = np.vecdot(np.matmul(xdot[:, None, :], g)[:, 0, :], xdot)
    h_val = st.wave.value_rows(x, u)
    return (energy - quad - h_val * delta * delta) / (2.0 * delta)


def reduce_geodesic(st, init, cfg, v_sample_count=2049):
    """Split a geodesic: affine u, base trajectory, v by quadrature.

    For delta != 0 the base part integrates the force equation with potential
    -(delta^2/2) H(x, u0 + delta t) and vdot follows from conservation of
    g(gamma', gamma'); for delta = 0 the base part is a plain geodesic of the
    base metric and v is linear. Integrator outcomes propagate unchanged.
    """
    x0 = np.asarray(init.x0, dtype=float)
    xdot0 = np.asarray(init.xdot0, dtype=float)
    delta = init.delta
    energy = energy_of(st, init)

    if delta == 0.0:
        base = integrate(st.base, FREE, (x0, xdot0), cfg, FORWARD)
        lo, hi = base.t_span
        ts = np.linspace(lo, hi, v_sample_count)
        v_vals = init.v0 + init.vdot0 * (ts - 0.0)
        v_dots = np.full(ts.shape, float(init.vdot0))
        return SplitGeodesic(base_trajectory=base, u0=float(init.u0), delta=0.0,
                             v_times=ts, v_values=v_vals, v_dots=v_dots, energy=energy)

    fs = wave_force_system(st, init.u0, delta)
    base = integrate(st.base, fs, (x0, xdot0), cfg, FORWARD)
    lo, hi = base.t_span
    ts = np.linspace(lo, hi, v_sample_count)
    x, xdot = sample(base, ts)
    v_dots = _conserved_vdot(st, energy, delta, x, xdot, init.u0 + delta * ts)
    v_vals = init.v0 + cumulative_simpson(v_dots, x=ts, initial=0.0)
    return SplitGeodesic(base_trajectory=base, u0=float(init.u0), delta=delta,
                         v_times=ts, v_values=v_vals, v_dots=v_dots, energy=energy)


def split_state(sg, st, t):
    """Full state of a split geodesic at t, with vdot from the conservation law."""
    x, xdot = sample(sg.base_trajectory, t)
    u = sg.u_of(t)
    v = sg.v_of(t)
    if sg.delta == 0.0:
        vdot = float(sg.v_dots[0])
    else:
        vdot = float(_conserved_vdot(st, sg.energy, sg.delta, x[None], xdot[None], [u])[0])
    pos = np.concatenate([x, [u, v]])
    vel = np.concatenate([xdot, [sg.delta, vdot]])
    return pos, vel


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
    """Signature-agnostic finite-difference Christoffel symbols of the full metric."""
    return christoffel_from_metric(lambda p: full_metric(st, p), q)


def full_geodesic_oracle(st, init, cfg):
    """Direct integration of the full geodesic equation, for cross-validation only.

    State order is (x..., u, v). The blow-up classifier uses the auxiliary
    positive-definite norm g0(xdot, xdot) + udot^2 + vdot^2, since the
    Lorentzian norm can vanish on null directions.
    """
    n = st.base.dim
    n_full = n + 2
    q0 = np.concatenate([np.asarray(init.x0, dtype=float), [init.u0, init.v0]])
    qd0 = np.concatenate([np.asarray(init.xdot0, dtype=float), [init.udot0, init.vdot0]])

    def f(t, y):
        q = y[:n_full]
        qd = y[n_full:]
        gamma = full_christoffel(st, q)
        acc = -np.einsum("kij,i,j->k", gamma, qd, qd)
        return np.concatenate([qd, acc])

    def speed_of(y):
        x = y[:n]
        qd = y[n_full:]
        g0 = metric_at(st.base, x)
        w = qd[:n]
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(w @ g0 @ w) + float(qd[n] ** 2 + qd[n + 1] ** 2)
        return np.sqrt(val) if np.isfinite(val) and val >= 0 else np.inf

    guard_ok = lambda y: st.base.contains(y[:n])
    return integrate_ode(f, np.concatenate([q0, qd0]), cfg, direction=FORWARD,
                         speed_of=speed_of, guard_ok=guard_ok, dim=n_full)


def oracle_quadratic_form(st, traj, k):
    """g(gamma', gamma') at accepted step k of an oracle trajectory."""
    n_full = st.base.dim + 2
    q = traj.states[k][:n_full]
    qd = traj.states[k][n_full:]
    g = full_metric(st, q)
    return float(qd @ g @ qd)


def classify_gpw_completeness(st, bd, anchor=None, attempts=None):
    """Certificate for the wave spacetime via the base-potential reduction.

    Delegates to the premise checks with V = -H/2 semantics carried by the
    wave-coefficient routes; the verdict never asserts completeness when the
    base manifold's complete_flag is unset.
    """
    task = CertificationTask(
        manifold=st.base,
        bounds=bd,
        T=float(np.abs(bd.t_grid).max()),
        wave=st.wave,
        anchor=anchor,
        attempts=attempts,
    )
    return certify(task)


def split_geodesic_to_csv(sg, st, fileobj):
    """CSV of a split geodesic at the base trajectory's accepted steps.

    Header: t, u, v, x1..xn, xdot1..xdotn (full precision).
    """
    n = sg.dim
    header = ["t", "u", "v"] + [f"x{i + 1}" for i in range(n)] + [f"xdot{i + 1}" for i in range(n)]
    fileobj.write(",".join(header) + "\n")
    for t in sg.base_trajectory.times:
        x, xdot = sample(sg.base_trajectory, t)
        row = [repr(float(t)), repr(sg.u_of(t)), repr(sg.v_of(t))]
        row += [repr(float(c)) for c in x] + [repr(float(c)) for c in xdot]
        fileobj.write(",".join(row) + "\n")
