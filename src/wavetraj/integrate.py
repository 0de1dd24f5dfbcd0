"""Adaptive trajectory integration with outcome classification.

The stepper is an explicit Dormand-Prince 5(4) embedded Runge-Kutta pair with
PI step-size control and FSAL. It is written here rather than delegated to a
library solver because the outcome classifier needs per-step control: every
accepted state is checked against the metric speed ceiling, step collapse is
split into blow-up versus tolerance failure by whether the speed has been
strictly increasing, and guard violations during stage evaluation shrink the
step until the exit is localized.

Backward trajectories integrate the time-reversed vector field (the state
(x, w) with w(s) = -xdot(-s)), then records are mapped back to actual time,
so stored steps always carry the true (t, x, xdot).

Classification is a numerical verdict, never a theorem: a complete trajectory
of a stiff system is reported as ToleranceFailure, not blow-up, when the step
collapses without growing speed.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import make_rhs
from .errors import InvalidInit, NotABlowup, OutOfChart, OutOfRange
from .geometry import metric_at

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
# fifth-order minus embedded fourth-order weights, for the local error estimate
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_ORDER_EXP = 0.2          # 1/(error order + 1)
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0

HORIZON_REACHED = "HorizonReached"
BLOW_UP_SUSPECTED = "BlowUpSuspected"
CHART_EXIT = "ChartExit"
TOLERANCE_FAILURE = "ToleranceFailure"

FORWARD = "forward"
BACKWARD = "backward"

#: accepted steps the speed must grow through before a step collapse counts as blow-up
_GROWTH_WINDOW = 10


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf
    horizon: float = 10.0
    speed_ceiling: float = 1e12
    min_step_fraction: float = 1e-14

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step", "horizon", "speed_ceiling", "min_step_fraction"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class Outcome:
    kind: str
    t_star_estimate: Optional[float] = None
    t_exit: Optional[float] = None

    def __str__(self):
        if self.kind == BLOW_UP_SUSPECTED:
            return f"{self.kind}(t_star_estimate={self.t_star_estimate})"
        if self.kind == CHART_EXIT:
            return f"{self.kind}(t_exit={self.t_exit})"
        return self.kind


@dataclass(frozen=True)
class IntegrationStats:
    n_accepted: int
    n_rejected: int
    n_rhs: int


@dataclass(frozen=True)
class Trajectory:
    """Accepted states of one integration, in actual time.

    times is strictly increasing for forward runs and strictly decreasing for
    backward runs. states[k] = (x, xdot) and derivs[k] = d/dt (x, xdot) at
    times[k]; node derivatives feed the cubic Hermite dense output.
    """

    direction: str
    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    outcome: Outcome
    stats: IntegrationStats
    dim: int

    @property
    def positions(self):
        return self.states[:, : self.dim]

    @property
    def t_span(self):
        return float(self.times.min()), float(self.times.max())


def _rms_norm(v):
    return float(np.sqrt(np.mean(np.square(v))))


def _initial_step(f, t0, y0, f0, cfg, remaining):
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = _rms_norm(y0 / scale)
    d1 = _rms_norm(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, remaining)
    try:
        f1 = f(t0 + h0, y0 + h0 * f0)
        d2 = _rms_norm((f1 - f0) / scale) / h0
    except OutOfChart:
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100.0 * h0, h1, cfg.max_step, remaining)


class _Core:
    """One integration run in internal time s in [t0, horizon]."""

    def __init__(self, f, y0, cfg, speed_of, guard_ok, t0):
        self.f = f
        self.cfg = cfg
        self.speed_of = speed_of
        self.guard_ok = guard_ok
        self.n_rhs = 0
        self.n_rejected = 0
        self.ts = [float(t0)]
        self.ys = [np.asarray(y0, dtype=float)]
        self.fs = []
        self.speeds = []
        # stage derivatives k1..k7 as columns, refilled by every attempt
        self.kmat = np.empty((self.ys[0].size, 7))

    def _eval(self, t, y):
        self.n_rhs += 1
        return self.f(t, y)

    def run(self):
        cfg = self.cfg
        y = self.ys[0]
        t = self.ts[0]
        if not self.guard_ok(y):
            raise InvalidInit("initial state violates the chart guard")
        if not np.all(np.isfinite(y)):
            raise InvalidInit("initial state is not finite")
        try:
            k1 = self._eval(t, y)
        except OutOfChart as exc:
            raise InvalidInit(f"vector field undefined at the initial state: {exc}") from exc
        self.fs.append(k1)
        self.speeds.append(self.speed_of(y))
        if self.speeds[0] > cfg.speed_ceiling:
            return Outcome(BLOW_UP_SUSPECTED, t_star_estimate=t)

        min_step = cfg.min_step_fraction * cfg.horizon
        h = max(_initial_step(self._eval, t, y, k1, cfg, cfg.horizon - t), min_step)
        err_prev = None

        while t < cfg.horizon * (1.0 - 1e-14):
            h = min(h, cfg.max_step, cfg.horizon - t)
            if h < min_step:
                return self._collapse_outcome(h)
            try:
                y_new, k_new, err = self._attempt(t, y, h, k1)
            except OutOfChart:
                # stage left the guarded region: localize the exit by shrinking
                h *= 0.5
                if h < min_step:
                    return Outcome(CHART_EXIT, t_exit=t)
                continue
            if not np.isfinite(err) or err > 1.0:
                self.n_rejected += 1
                if not np.isfinite(err):
                    factor = _MIN_FACTOR
                else:
                    factor = max(_MIN_FACTOR, _SAFETY * err ** (-_ORDER_EXP))
                h *= factor
                if h < min_step:
                    return self._collapse_outcome(h)
                continue
            # accepted
            t = t + h
            y = y_new
            k1 = k_new
            self.ts.append(t)
            self.ys.append(y)
            self.fs.append(k_new)
            speed = self.speed_of(y)
            self.speeds.append(speed)
            if speed > cfg.speed_ceiling or not np.isfinite(speed):
                return Outcome(BLOW_UP_SUSPECTED, t_star_estimate=t)
            if err == 0.0:
                factor = _MAX_FACTOR
            elif err_prev is None:
                factor = min(_MAX_FACTOR, _SAFETY * err ** (-_ORDER_EXP))
            else:
                factor = min(_MAX_FACTOR, _SAFETY * err ** (-_PI_ALPHA) * err_prev ** _PI_BETA)
            err_prev = max(err, 1e-10)
            h *= max(factor, _MIN_FACTOR)
        return Outcome(HORIZON_REACHED)

    def _attempt(self, t, y, h, k1):
        kmat = self.kmat
        kmat[:, 0] = k1
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(1, 7):
                yi = y + h * (kmat[:, :i] @ _A[i])
                if not np.all(np.isfinite(yi)):
                    return y, k1, np.inf
                k_last = self._eval(t + _C[i] * h, yi)
                kmat[:, i] = k_last
            y_new = y + h * (kmat @ _B)
            # FSAL: stage 7 was evaluated at (t + h, y_new)
            err_vec = h * (kmat @ _E)
            scale = self.cfg.abs_tol + self.cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
            err = _rms_norm(err_vec / scale)
        if not self.guard_ok(y_new):
            raise OutOfChart(y_new, "accepted endpoint violates the chart guard")
        return y_new, k_last, err

    def _collapse_outcome(self, h):
        recent = self.speeds[-(_GROWTH_WINDOW + 1):]
        growing = len(recent) == _GROWTH_WINDOW + 1 and all(
            a < b for a, b in zip(recent, recent[1:])
        )
        if growing:
            return Outcome(BLOW_UP_SUSPECTED, t_star_estimate=self.ts[-1])
        return Outcome(TOLERANCE_FAILURE)


def integrate_ode(f, y0, cfg, direction=FORWARD, speed_of=None, guard_ok=None, dim=None,
                  t0=0.0):
    """Low-level entry: integrate y' = f(s, y) from y(t0) = y0 with classification.

    speed_of(y) feeds the blow-up classifier (defaults to the euclidean norm
    of the second half of y), guard_ok(y) the chart-exit logic. Backward runs
    receive the already-reversed field, with y0 and t0 in internal time
    (s = -t), and records are mapped back to actual time here.
    """
    y0 = np.asarray(y0, dtype=float)
    n = dim if dim is not None else y0.size // 2
    if speed_of is None:
        speed_of = lambda y: float(np.linalg.norm(y[n:]))
    if guard_ok is None:
        guard_ok = lambda y: True

    core = _Core(f, y0, cfg, speed_of, guard_ok, t0)
    outcome = core.run()

    ts = np.array(core.ts)
    ys = np.stack(core.ys)
    fvals = np.stack(core.fs)
    if direction == FORWARD:
        times, states, derivs = ts, ys, fvals
    else:
        # records were produced for ytilde(s) = (x(-s), -xdot(-s)); map back
        times = -ts + 0.0    # + 0.0 turns -0.0 into +0.0 at the start record
        states = np.concatenate([ys[:, :n], -ys[:, n:]], axis=1)
        derivs = np.concatenate([-fvals[:, :n], fvals[:, n:]], axis=1)
        outcome = _flip_outcome_times(outcome)
    stats = IntegrationStats(n_accepted=len(ts) - 1, n_rejected=core.n_rejected, n_rhs=core.n_rhs)
    return Trajectory(direction=direction, times=times, states=states, derivs=derivs,
                      outcome=outcome, stats=stats, dim=n)


def _flip_outcome_times(outcome):
    if outcome.t_star_estimate is not None:
        outcome = replace(outcome, t_star_estimate=-outcome.t_star_estimate)
    if outcome.t_exit is not None:
        outcome = replace(outcome, t_exit=-outcome.t_exit)
    return outcome


def _internal_problem(manifold, fs, direction):
    """(f, speed_of, guard_ok) of the force equation in internal time.

    A backward run integrates the reversed field for (x, w) with
    w(s) = -xdot(-s); f evaluates the force equation at the true time -s.
    """
    n = manifold.dim
    f_fwd = make_rhs(manifold, fs)

    if direction == FORWARD:
        f_int = f_fwd
    else:
        def f_int(s, y):
            # reversed field: d/ds (x, w) = (w, a(x, -w, -s)) for w(s) = -xdot(-s)
            val = f_fwd(-s, np.concatenate([y[:n], -y[n:]]))
            return np.concatenate([y[n:], val[n:]])

    def speed_of(y):
        # the integrator checks the guard before it asks for a speed, and a
        # constant metric was checked when the chart was built
        g = manifold.metric if manifold.flat else metric_at(manifold, y[:n])
        w = y[n:]
        with np.errstate(over="ignore", invalid="ignore"):
            q = float(w @ g @ w)
        return np.sqrt(q) if np.isfinite(q) and q >= 0 else np.inf

    guard_ok = lambda y: manifold.contains(y[:n])
    return f_int, speed_of, guard_ok


def integrate(manifold, fs, init, cfg, direction=FORWARD):
    """Integrate the force equation from init = (p, v) and classify the outcome."""
    p, v = init
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be {FORWARD!r} or {BACKWARD!r}")
    if not manifold.contains(p):
        raise InvalidInit(f"initial point {p} violates the chart guard")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
        raise InvalidInit("initial data is not finite")
    f_int, speed_of, guard_ok = _internal_problem(manifold, fs, direction)
    y0 = np.concatenate([p, v if direction == FORWARD else -v])
    return integrate_ode(f_int, y0, cfg, direction=direction, speed_of=speed_of,
                         guard_ok=guard_ok, dim=manifold.dim)


def hermite(ts, ys, ds, t):
    """Cubic Hermite interpolant of values ys and derivatives ds on ascending nodes ts.

    t is one time, giving one row like ys[0], or an array of times, giving
    one such row per time. t may lie up to 1e-12 * max(1, span) outside
    [ts[0], ts[-1]] and is then clamped; further out raises OutOfRange. A
    single time is evaluated in numpy scalars and an array elementwise, with
    the same operations in the same order, except that numpy squares an
    array by one multiplication where a scalar goes through pow: about one
    square in a thousand differs in the last bit.
    """
    lo, hi = ts[0], ts[-1]
    slack = 1e-12 * max(1.0, abs(hi - lo))
    t = np.asarray(t, dtype=float)[()]   # one time as a numpy scalar
    outside = (t < lo - slack) | (t > hi + slack)
    if np.count_nonzero(outside):
        bad = float(np.extract(outside, t)[0])
        raise OutOfRange(f"t={bad} outside covered interval [{lo}, {hi}]")
    t = t.clip(lo, hi)
    # the bracketing step [ts[i - 1], ts[i]], with 1 <= i <= len(ts) - 1
    i = np.minimum(np.searchsorted(ts[1:-1], t, side="right") + 1, len(ts) - 1)
    t0 = ts[i - 1]
    h = ts[i] - t0
    # a zero-width step is a repeated last node; theta = 1 there gives ys[i]
    repeated = h == 0.0
    theta = (t - t0 + repeated) / (h + repeated)
    h00 = (1 + 2 * theta) * (1 - theta) ** 2
    h10 = theta * (1 - theta) ** 2
    h01 = theta**2 * (3 - 2 * theta)
    h11 = theta**2 * (theta - 1)
    # transposed, so a row of ys meets one weight per time in either case
    return (h00 * ys[i - 1].T + h10 * h * ds[i - 1].T + h01 * ys[i].T + h11 * h * ds[i].T).T


def sample(traj, t):
    """Dense output at time t: (x, xdot) by cubic Hermite on the bracketing step.

    For an array of times, x and xdot hold one row per time.
    """
    ts, ys, ds = traj.times, traj.states, traj.derivs
    if ts[-1] < ts[0]:
        ts, ys, ds = ts[::-1], ys[::-1], ds[::-1]
    y = hermite(ts, ys, ds, t)
    return y[..., : traj.dim].copy(), y[..., traj.dim:].copy()


@dataclass(frozen=True)
class BlowupInterval:
    """Refined bracket for the blow-up time, and the RHS calls it cost."""

    t_lo: float
    t_hi: float
    n_rhs: int

    @property
    def estimate(self):
        return 0.5 * (self.t_lo + self.t_hi)

    @property
    def width(self):
        return self.t_hi - self.t_lo

    @property
    def levels(self):
        """The bracket as a one-element tuple of (t_lo, t_hi) pairs; only tests read it."""
        return ((self.t_lo, self.t_hi),)


def _ceiling_crossing(traj, speed_of, ceiling):
    """Bisect, in internal time, the first crossing of speed_of over the ceiling."""
    # speed_of is even in the velocity, so actual-time states serve
    backward = traj.direction == BACKWARD
    ts = -traj.times if backward else traj.times
    speeds = np.array([speed_of(y) for y in traj.states])
    above = np.nonzero(speeds > ceiling)[0]
    if above.size == 0:
        return None
    j = above[0]
    if j == 0:
        return float(ts[0])
    lo_t, hi_t = float(ts[j - 1]), float(ts[j])
    for _ in range(80):
        mid = 0.5 * (lo_t + hi_t)
        if hi_t - lo_t <= 1e-15 * max(1.0, abs(hi_t)):
            break
        if speed_of(np.concatenate(sample(traj, -mid if backward else mid))) > ceiling:
            hi_t = mid
        else:
            lo_t = mid
    return 0.5 * (lo_t + hi_t)


def refine_blowup(manifold, fs, init, cfg, coarse):
    """Bracket the blow-up time by continuing the coarse run at tighter tolerances.

    The continuation starts from the coarse run's last accepted record at or
    below the speed ceiling (its first record when even that one is above),
    with rel/abs tolerances a hundredfold tighter, and runs on to a
    thousandfold higher ceiling, deeper toward the singular time. The bracket
    is [crossing of the original ceiling, bisected on the continuation's
    dense output; deepest time reached + 4x the gap]. init is the coarse
    run's initial data; the continuation needs only the coarse records.
    Raises NotABlowup when the coarse run was not a blow-up, when the
    continuation reaches the horizon, or when the far end of a bracket from
    a crossing after the continuation's start lies past the horizon: a speed
    that grows only exponentially crosses each higher ceiling later by about
    the same amount, so its bracket does not close. (When even the first
    record is above the ceiling, the bracket starts there and its width
    measures nothing about the growth.)
    """
    if coarse.outcome.kind != BLOW_UP_SUSPECTED:
        raise NotABlowup(f"coarse outcome is {coarse.outcome.kind}")
    ceiling = cfg.speed_ceiling
    fine = replace(
        cfg,
        rel_tol=max(cfg.rel_tol * 1e-2, 1e-13),
        abs_tol=max(cfg.abs_tol * 1e-2, 1e-14),
        speed_ceiling=min(ceiling * 1e3, 1e200),
    )
    f_int, speed_of, guard_ok = _internal_problem(manifold, fs, coarse.direction)
    # the coarse run stops at its first record above the ceiling; metric
    # speed is even in the velocity, so actual-time states serve here
    start = len(coarse.times) - 1
    while start > 0 and not speed_of(coarse.states[start]) <= ceiling:
        start -= 1
    n = coarse.dim
    x, xdot = coarse.states[start, :n], coarse.states[start, n:]
    if coarse.direction == FORWARD:
        y0, s0 = np.concatenate([x, xdot]), coarse.times[start]
    else:
        y0, s0 = np.concatenate([x, -xdot]), -coarse.times[start]
    traj = integrate_ode(f_int, y0, fine, direction=coarse.direction, speed_of=speed_of,
                         guard_ok=guard_ok, dim=n, t0=s0)
    if traj.outcome.kind == HORIZON_REACHED:
        raise NotABlowup("refinement run reached the horizon")
    t_cross = _ceiling_crossing(traj, speed_of, ceiling)
    t_deep = float(np.abs(traj.times).max())
    if t_cross is None:
        t_cross = t_deep
    gap = max(t_deep - t_cross, 1e-15 * max(1.0, t_deep))
    lo, hi = t_cross, t_deep + 4.0 * gap
    if hi > cfg.horizon and t_cross > s0:
        raise NotABlowup("refined bracket reaches past the horizon")
    if coarse.direction == BACKWARD:
        lo, hi = -hi, -lo
    return BlowupInterval(t_lo=lo, t_hi=hi, n_rhs=traj.stats.n_rhs)


def trajectory_to_csv(traj, fileobj):
    """Write accepted steps as CSV: t, x1..xn, xdot1..xdotn at full precision."""
    n = traj.dim
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"xdot{i + 1}" for i in range(n)]
    fileobj.write(",".join(header) + "\n")
    for t, y in zip(traj.times, traj.states):
        row = [repr(float(t))] + [repr(float(v)) for v in y]
        fileobj.write(",".join(row) + "\n")
