"""Adaptive trajectory integration with outcome classification.

The stepper is an explicit Dormand-Prince 5(4) embedded Runge-Kutta pair with
PI step-size control and FSAL. It is written here rather than delegated to a
library solver because the outcome classifier needs per-step control: every
accepted state is checked against the metric speed ceiling, step collapse is
split into blow-up versus tolerance failure by whether the speed has been
strictly increasing, and a field that raises OutOfChart at a stage point
(the chart guard) shrinks the step until the exit is localized.

Both directions step in actual time with a step sign, as DOPRI5 does
(POSNEG): step sizes are magnitudes for the step-size control, and each
attempt moves by sign * h, with sign = -1 on backward runs. Records carry
the true (t, x, xdot).

Classification is a numerical verdict, never a theorem: a complete trajectory
of a stiff system is reported as ToleranceFailure, not blow-up, when the step
collapses without growing speed.

The step loop is the package's hot path, and it runs in Python floats: the
state, the stage derivatives and the records are lists of floats. One DP5
attempt is one generated function per state length m (_attempt_source),
compiled on first use and cached by m: the Dormand-Prince tableau (as DOPRI5
codes it; Hairer, Nørsett & Wanner, Solving ODEs I, §II.4-5) is written out
stage by stage and component by component, each stage sum, finiteness check
and error term in the order of operations of a sum over the stages, and the
error norm is math.sqrt of a sum of products. Every field goes through it,
and the attempt calls the field itself and counts the calls. The force
equation's kernel (dynamics.make_rhs) takes and gives floats too; any other
field may return an array, which the attempt converts with .tolist(). The
field is the one place that checks the chart: the kernel raises OutOfChart
at every stage point outside the guard, the FSAL stage at the new state
included, so an accepted state is always inside it. The speed at an
accepted state is generated from the chart's sources as well
(geometry.norm_function). The records become the trajectory's arrays once,
at the end of the run.

A stage that is not finite, or whose evaluation raises EvaluationError (a
source's domain error, which numpy scalars used to turn into NaN), rejects
the step and shrinks it; at the initial state either one is InvalidInit, and
so is OutOfChart there.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .dynamics import make_rhs
from .errors import EvaluationError, InvalidInit, NotABlowup, OutOfChart, OutOfRange
from .geometry import norm_function
from .report import write_csv

# Dormand-Prince 5(4) tableau: nodes C, stage weights A (rows 2..7, zero
# entries left out), fifth-order weights B (row 7 of A: stage 7 is the new
# state, FSAL) and the error weights E, fifth minus embedded fourth order
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
                                -1 / 40)

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
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        # min_step is a fraction of the horizon: an infinite one never collapses a step
        if not math.isfinite(self.horizon):
            raise ValueError("horizon must be finite")


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


def _attempt_source(m):
    """Source of make(f, atol, rtol), which gives (attempt, evaluate, count) over the field f.

    attempt(t, y, h, k1) is one DP5 step on states of length m, from t to
    t + h, h signed; it gives (y_new, k at y_new, error norm). Each stage
    input y + h * (A_i1 k1 + ...), the new state y + h * (B_1 k1 + ...) and
    each error term h * (E_1 k1 + ... + E_7 k7) / (atol + rtol * max(|y|,
    |y_new|)) is written out component by component, a sum over the stages
    in the tableau's order. A stage input that is not finite, or a stage
    whose evaluation raises EvaluationError, gives the error norm inf, which
    rejects the step; OutOfChart from f, at any stage point, the new state's
    included, passes out of the attempt.
    The stage derivatives k1..k7 are named p, q, r, u, v, w, z, component i
    of stage p being p<i>. The attempt calls f itself and counts each call
    before it makes it; a value that is not a list is taken as floats by
    .tolist() of its array. evaluate(t, y) is one such counted call, as a
    list, and count() the number of calls so far.
    """
    comps = range(m)

    def names(letter):
        return [f"{letter}{i}" for i in comps]

    def combined(weights, i):
        return " + ".join(f"{c!r} * {k}{i}" for c, k in weights)

    def finite(letter):
        # sum() over the list would add to 0.0 first, which moves only the sign of a zero
        total = f"isfinite({' + '.join(names(letter))})"
        each = " and ".join(f"isfinite({name})" for name in names(letter))
        return [f"if not ({total if m == 1 else f'{total} or {each}'}):", "    return y, k1, inf"]

    def call(node, state):
        return ["n_rhs += 1", f"k = f({node}, {state})", "if type(k) is not list:",
                "    k = tolist(k)"]

    stages = [(_C2, [(_A21, "p")], "q"),
              (_C3, [(_A31, "p"), (_A32, "q")], "r"),
              (_C4, [(_A41, "p"), (_A42, "q"), (_A43, "r")], "u"),
              (_C5, [(_A51, "p"), (_A52, "q"), (_A53, "r"), (_A54, "u")], "v"),
              (1.0, [(_A61, "p"), (_A62, "q"), (_A63, "r"), (_A64, "u"), (_A65, "v")], "w")]
    solution = [(_B1, "p"), (_B3, "r"), (_B4, "u"), (_B5, "v"), (_B6, "w")]
    error = [(_E1, "p"), (_E3, "r"), (_E4, "u"), (_E5, "v"), (_E6, "w"), (_E7, "z")]

    staged = []
    for c, weights, k in stages:
        staged += [f"s{i} = a{i} + h * ({combined(weights, i)})" for i in comps] + finite("s")
        node = "t + h" if c == 1.0 else f"t + {c!r} * h"
        staged += call(node, f"[{', '.join(names('s'))}]") + [f"{', '.join(names(k))}, = k"]
    staged += [f"b{i} = a{i} + h * ({combined(solution, i)})" for i in comps] + finite("b")
    # FSAL: stage 7 is the derivative at the new state
    staged += [f"y_new = [{', '.join(names('b'))}]"] + call("t + h", "y_new") + ["k7 = k"]

    norm = []
    for i in comps:
        norm += [f"c = abs(a{i})", f"d = abs(b{i})",
                 f"e{i} = h * ({combined(error, i)}) / (atol + rtol * (c if c >= d else d))"]
    # the sum of squares starts at the first: 0.0 + e*e is e*e, a square being +0.0 or more
    squares = " + ".join(f"e{i} * e{i}" for i in comps)
    lines = (["nonlocal n_rhs", f"{', '.join(names('a'))}, = y", f"{', '.join(names('p'))}, = k1",
              "try:"]
             + ["    " + line for line in staged]
             + ["except EvaluationError:", "    return y, k1, inf",
                f"{', '.join(names('z'))}, = k7"]
             + norm
             + [f"return y_new, k7, sqrt(({squares}) / {m})"])
    evaluate = ["nonlocal n_rhs"] + call("t", "y") + ["return k"]
    return ("def make(f, atol, rtol):\n"
            "    n_rhs = 0\n"
            "    def attempt(t, y, h, k1):\n"
            + "".join(f"        {line}\n" for line in lines)
            + "    def evaluate(t, y):\n"
            + "".join(f"        {line}\n" for line in evaluate)
            + "    def count():\n"
            "        return n_rhs\n"
            "    return attempt, evaluate, count\n")


@functools.cache
def _attempt_maker(m):
    """make(f, atol, rtol) of _attempt_source(m), compiled once per state length m."""
    namespace = {"isfinite": math.isfinite, "sqrt": math.sqrt, "inf": math.inf,
                 "EvaluationError": EvaluationError, "tolist": _tolist}
    exec(compile(_attempt_source(m), f"<DP5 attempt, m={m}>", "exec"), namespace)
    return namespace["make"]


def _tolist(k):
    """A field's value that is not a list, as a list of floats."""
    return np.asarray(k, dtype=float).tolist()


def _rms(v, scale):
    """Root mean square of v / scale over two lists of floats."""
    total = 0.0
    for a, s in zip(v, scale):
        q = a / s
        total += q * q
    return math.sqrt(total / len(v))


def _initial_step(f, t0, y0, f0, cfg, remaining, sign):
    """Hairer's starting step size, or 0 where the scaled derivative overflows (run floors it).

    The probe step goes sign * h0 from t0; the size returned is a magnitude.
    """
    scale = [cfg.abs_tol + cfg.rel_tol * abs(a) for a in y0]
    d0 = _rms(y0, scale)
    d1 = _rms(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, remaining)
    if not h0 > 0.0:
        return 0.0
    try:
        probe = sign * h0
        f1 = f(t0 + probe, [a + probe * b for a, b in zip(y0, f0)])
        d2 = _rms([b - a for a, b in zip(f0, f1)], scale) / h0
    except (OutOfChart, EvaluationError):
        d2 = d1
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** _ORDER_EXP
    return min(100.0 * h0, h1, cfg.max_step, remaining)


class _Core:
    """One integration run from t0 toward t = sign * horizon, sign = 1.0 or -1.0.

    Step sizes h are magnitudes; each attempt moves by sign * h.
    """

    def __init__(self, f, y0, cfg, speed_of, t0, sign):
        self.cfg = cfg
        self.speed_of = speed_of
        self.sign = sign
        self.n_rejected = 0
        self.ts = [float(t0)]
        self.ys = [np.asarray(y0, dtype=float).tolist()]
        self.fs = []
        self.speeds = []
        # the DP5 attempt for this state length, which calls and counts f; the
        # closures hold no reference to the run, so the run's records go when
        # it does, not at the next full collection
        self._attempt, self.f, self._count = _attempt_maker(len(self.ys[0]))(
            f, cfg.abs_tol, cfg.rel_tol)

    @property
    def n_rhs(self):
        return self._count()

    def run(self):
        cfg = self.cfg
        y = self.ys[0]
        t = self.ts[0]
        if not all(map(math.isfinite, y)):
            raise InvalidInit(f"initial state {y} is not finite")
        try:
            k1 = self.f(t, y)
        except (OutOfChart, EvaluationError) as exc:
            raise InvalidInit(f"vector field undefined at the initial state: {exc}") from exc
        self.fs.append(k1)
        self.speeds.append(self.speed_of(y))
        if self.speeds[0] > cfg.speed_ceiling:
            return Outcome(BLOW_UP_SUSPECTED, t_star_estimate=t)
        if not all(map(math.isfinite, k1)):
            # no step size can be probed from a derivative that is not finite
            raise InvalidInit("vector field is not finite at the initial state")

        min_step = cfg.min_step_fraction * cfg.horizon
        sign = self.sign
        h = max(_initial_step(self.f, t, y, k1, cfg, cfg.horizon - sign * t, sign), min_step)
        return self._steps(t, y, h, k1, min_step)

    def _steps(self, t, y, h, k1, min_step):
        cfg = self.cfg
        sign = self.sign
        err_prev = None
        while sign * t < cfg.horizon * (1.0 - 1e-14):
            h = min(h, cfg.max_step, cfg.horizon - sign * t)
            if h < min_step:
                return self._collapse_outcome()
            try:
                y_new, k_new, err = self._attempt(t, y, sign * h, k1)
            except OutOfChart:
                # stage left the guarded region: localize the exit by shrinking
                h *= 0.5
                if h < min_step:
                    return Outcome(CHART_EXIT, t_exit=t)
                continue
            if not math.isfinite(err) or err > 1.0:
                self.n_rejected += 1
                if not math.isfinite(err):
                    factor = _MIN_FACTOR
                else:
                    factor = max(_MIN_FACTOR, _SAFETY * err ** (-_ORDER_EXP))
                h *= factor
                if h < min_step:
                    return self._collapse_outcome()
                continue
            # accepted
            t = t + sign * h
            y = y_new
            k1 = k_new
            self.ts.append(t)
            self.ys.append(y)
            self.fs.append(k_new)
            speed = self.speed_of(y)
            self.speeds.append(speed)
            if speed > cfg.speed_ceiling or not math.isfinite(speed):
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

    def _collapse_outcome(self):
        recent = self.speeds[-(_GROWTH_WINDOW + 1):]
        growing = len(recent) == _GROWTH_WINDOW + 1 and all(
            a < b for a, b in zip(recent, recent[1:])
        )
        if growing:
            return Outcome(BLOW_UP_SUSPECTED, t_star_estimate=self.ts[-1])
        return Outcome(TOLERANCE_FAILURE)


def integrate_ode(f, y0, cfg, direction=FORWARD, speed_of=None, t0=0.0):
    """Low-level entry: integrate y' = f(t, y) from y(t0) = y0 with classification.

    A forward run goes toward t = horizon, a backward one toward t = -horizon;
    both take f, y0 and t0 in actual time. f and speed_of take the state y
    as a list of Python floats; f returns d/dt y as a list of floats or as an
    array. f is also the chart guard: it raises OutOfChart at a state outside
    its chart, which shrinks the step toward a ChartExit (InvalidInit at the
    initial state). speed_of(y) feeds the blow-up classifier (defaults to the
    euclidean norm of the second half of y) and is asked only at states where
    f returned.
    y is a position followed by a velocity of the same length, so the
    trajectory's dim is half the length of y0.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be {FORWARD!r} or {BACKWARD!r}")
    y0 = np.asarray(y0, dtype=float)
    n = y0.size // 2
    if speed_of is None:
        speed_of = lambda y: math.hypot(*y[n:])

    core = _Core(f, y0, cfg, speed_of, t0, 1.0 if direction == FORWARD else -1.0)
    outcome = core.run()
    stats = IntegrationStats(n_accepted=len(core.ts) - 1, n_rejected=core.n_rejected,
                             n_rhs=core.n_rhs)
    return Trajectory(direction=direction, times=np.array(core.ts), states=np.array(core.ys),
                      derivs=np.array(core.fs), outcome=outcome, stats=stats, dim=n)


def _problem(manifold, fs):
    """(f, speed_of) of the force equation, over lists of floats."""
    norm = norm_function(manifold)

    def speed_of(y):
        # the integrator asks for a speed only where f returned, inside the
        # guard, and a flat chart's metric is the identity
        q = norm(y)
        return math.sqrt(q) if math.isfinite(q) and q >= 0 else math.inf

    return make_rhs(manifold, fs), speed_of


def integrate(manifold, fs, init, cfg, direction=FORWARD):
    """Integrate the force equation from init = (p, v) and classify the outcome."""
    f, speed_of = _problem(manifold, fs)
    return integrate_ode(f, np.concatenate(init), cfg, direction=direction, speed_of=speed_of)


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


def _ceiling_crossing(traj, speed_of, ceiling):
    """Bisect the first crossing of speed_of over the ceiling on the dense output."""
    ts = traj.times
    speeds = np.array([speed_of(y) for y in traj.states.tolist()])
    above = np.nonzero(speeds > ceiling)[0]
    if above.size == 0:
        return None
    j = above[0]
    if j == 0:
        return float(ts[0])
    t_below, t_above = float(ts[j - 1]), float(ts[j])
    for _ in range(80):
        mid = 0.5 * (t_below + t_above)
        if abs(t_above - t_below) <= 1e-15 * max(1.0, abs(t_above)):
            break
        if speed_of(np.concatenate(sample(traj, mid)).tolist()) > ceiling:
            t_above = mid
        else:
            t_below = mid
    return 0.5 * (t_below + t_above)


def refine_blowup(manifold, fs, cfg, coarse):
    """Bracket the blow-up time by continuing the coarse run at tighter tolerances.

    The continuation starts from the coarse run's last accepted record at or
    below the speed ceiling (its first record when even that one is above),
    with rel/abs tolerances a hundredfold tighter, and runs on in the coarse
    run's direction to a thousandfold higher ceiling, deeper toward the
    singular time. The bracket runs from the crossing of the original
    ceiling, bisected on the continuation's dense output, to the deepest time
    reached plus 4x the gap between the two; cfg is the coarse run's
    configuration. Raises NotABlowup when the coarse run was not a blow-up,
    when the continuation reaches the horizon, or when the far end of a
    bracket from a crossing after the continuation's start lies past the
    horizon: a speed that grows only exponentially crosses each higher
    ceiling later by about the same amount, so its bracket does not close.
    (When even the first record is above the ceiling, the bracket starts
    there and its width measures nothing about the growth.)
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
    f, speed_of = _problem(manifold, fs)
    # the coarse run stops at its first record above the ceiling
    start = len(coarse.times) - 1
    while start > 0 and not speed_of(coarse.states[start].tolist()) <= ceiling:
        start -= 1
    t0 = float(coarse.times[start])
    traj = integrate_ode(f, coarse.states[start], fine, direction=coarse.direction,
                         speed_of=speed_of, t0=t0)
    if traj.outcome.kind == HORIZON_REACHED:
        raise NotABlowup("refinement run reached the horizon")
    t_deep = float(traj.times[-1])
    t_cross = _ceiling_crossing(traj, speed_of, ceiling)
    if t_cross is None:
        t_cross = t_deep
    gap = max(abs(t_deep - t_cross), 1e-15 * max(1.0, abs(t_deep)))
    sign = 1.0 if coarse.direction == FORWARD else -1.0
    t_far = t_deep + sign * 4.0 * gap
    if sign * t_far > cfg.horizon and sign * t_cross > sign * t0:
        raise NotABlowup("refined bracket reaches past the horizon")
    lo, hi = sorted((t_cross, t_far))
    return BlowupInterval(t_lo=lo, t_hi=hi, n_rhs=traj.stats.n_rhs)


def trajectory_to_csv(traj, fileobj):
    """Write accepted steps as CSV: t, x1..xn, xdot1..xdotn at full precision."""
    n = traj.dim
    header = ["t"] + [f"x{i + 1}" for i in range(n)] + [f"xdot{i + 1}" for i in range(n)]
    write_csv(fileobj, header, np.column_stack([traj.times, traj.states]).ravel().tolist())
