"""Sampled verification of completeness premises and certificate assembly.

Every bound here is global in the underlying mathematics but can only be
checked on sample grids, so margins are minima over the samples and every
certificate carries a fixed caveat stamp. Enlarging a grid can keep a pass or
flip it to fail, never the reverse. A verdict other than Inconclusive
additionally requires the manifold's (unverified) complete_flag assertion.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dynamics import operator_bounds
from .geometry import metric_at, metrics_at

CAVEAT = "premises verified on sampled domain only"

# verdicts, strongest first where comparable
COMPLETE_POTENTIAL_BOUNDS = "complete-by-potential-bounds"
COMPLETE_WAVE_BOUNDS = "complete-by-wave-coefficient-bounds"
COMPLETE_LINEAR_GRADIENT = "complete-by-linear-gradient-growth"
FORWARD_COMPLETE = "forward-complete-by-potential-bounds"
BACKWARD_COMPLETE = "backward-complete-by-potential-bounds"
INCONCLUSIVE = "inconclusive"

_PRECEDENCE = (
    COMPLETE_POTENTIAL_BOUNDS,
    COMPLETE_WAVE_BOUNDS,
    COMPLETE_LINEAR_GRADIENT,
    FORWARD_COMPLETE,
    BACKWARD_COMPLETE,
)


@dataclass(frozen=True)
class BoundData:
    """Scenario-supplied bound functions with the grids they are checked on.

    alpha0 and beta0 are continuous functions of time (of the wave parameter u
    for wave-coefficient routes). grid rows are chart points; t_grid spans
    [-T, T]. alpha0_array and beta0_array, when given, evaluate alpha0 and
    beta0 over an array of times, NaN where the scalar function would raise.
    """

    alpha0: Callable[[float], float]
    beta0: Callable[[float], float]
    grid: np.ndarray
    t_grid: np.ndarray
    alpha0_array: Optional[Callable[[np.ndarray], np.ndarray]] = None
    beta0_array: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        object.__setattr__(self, "grid", np.atleast_2d(np.asarray(self.grid, dtype=float)))
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))
        if self.grid.shape[0] == 0 or self.t_grid.size == 0:
            raise ValueError("sample grids must be nonempty")


@dataclass(frozen=True)
class PremiseCheck:
    """One sampled premise: pass/fail with the worst margin and where it occurred."""

    name: str
    passed: bool
    margin: float
    worst_point: Optional[tuple] = None
    worst_t: Optional[float] = None
    note: str = ""
    values: dict = field(default_factory=dict)
    dependent_failure: bool = False

    def to_dict(self):
        return {
            "name": self.name,
            "passed": self.passed,
            "margin": self.margin,
            "worst_point": list(self.worst_point) if self.worst_point is not None else None,
            "worst_t": self.worst_t,
            "note": self.note,
            "values": dict(self.values),
            "dependent_failure": self.dependent_failure,
        }


@dataclass(frozen=True)
class RouteResult:
    route: str
    verdict: str
    passed: bool
    premises: tuple

    def to_dict(self):
        return {
            "route": self.route,
            "verdict": self.verdict,
            "passed": self.passed,
            "premises": list(self.premises),
        }


@dataclass(frozen=True)
class CompletenessCertificate:
    """Verdict plus per-premise sampled evidence.

    verdict is Inconclusive unless some route's premises all passed with
    nonnegative margin and the manifold's complete_flag was asserted.
    """

    verdict: str
    routes: tuple
    evidence: tuple
    complete_flag_asserted: bool
    caveat: str = CAVEAT

    @property
    def conclusive(self):
        return self.verdict != INCONCLUSIVE

    def to_dict(self):
        return {
            "verdict": self.verdict,
            "routes": [r.to_dict() for r in self.routes],
            "evidence": [e.to_dict() for e in self.evidence],
            "complete_flag_asserted": self.complete_flag_asserted,
            "caveat": self.caveat,
        }


def _scan_grid(bd, quantity, on_grid=None):
    """Minimize quantity(p, t) over grid x t_grid; returns (min, point, t).

    on_grid(x, t), when given, evaluates the same quantity over the whole
    (len(t_grid), len(grid)) sample array at once, t-major, from the grid
    points x (shape (1, len(grid), dim)) and the times t (shape
    (len(t_grid), 1)); it returns None when a source has no array form. If
    every value is finite, the first minimum in that order (np.argmin, like
    the strict < of the loop below) gives the margin, the worst point and
    the worst t.

    Otherwise the loop evaluates quantity one sample at a time, t outer and
    points inner. A non-finite sample is evidence of nothing, so it is the
    worst sample: the scan stops there and returns margin -inf with that
    sample's point and t. The loop alone decides -inf margins and raises
    evaluation errors; an array value that is NaN where the scalar source
    would raise only sends the scan to the loop.
    """
    if on_grid is not None:
        with np.errstate(all="ignore"):
            values = on_grid(bd.grid[None, :, :], bd.t_grid[:, None])
        if values is not None:
            values = np.broadcast_to(values, (bd.t_grid.size, bd.grid.shape[0]))
            if np.all(np.isfinite(values)):
                i, j = np.unravel_index(np.argmin(values), values.shape)
                return float(values[i, j]), tuple(float(c) for c in bd.grid[j]), float(bd.t_grid[i])
    worst = np.inf
    worst_p = None
    worst_t = None
    for t in bd.t_grid:
        for p in bd.grid:
            val = quantity(p, float(t))
            if not np.isfinite(val):
                return -np.inf, tuple(float(c) for c in p), float(t)
            if val < worst:
                worst = val
                worst_p = tuple(float(c) for c in p)
                worst_t = float(t)
    return float(worst), worst_p, worst_t


def _missing(*sources):
    return any(source is None for source in sources)


def check_bounded_below(fs, bd):
    """Premise: V(p, t) >= beta0(t) on the sampled window."""
    def on_grid(x, t):
        if _missing(fs.potential_array, bd.beta0_array):
            return None
        return fs.potential_array(x, t) - bd.beta0_array(t)

    margin, p, t = _scan_grid(bd, lambda q, s: fs.value(q, s) - float(bd.beta0(s)), on_grid)
    return PremiseCheck(
        name="potential_bounded_below",
        passed=margin >= 0.0,
        margin=margin,
        worst_point=p,
        worst_t=t,
        note="min of V - beta0 over the sample grid",
    )


def check_S_bounds(manifold, fs, T, grid, t_samples=41):
    """Sampled operator-norm bounds of the self-adjoint part of F on [-T, T].

    Returns the three candidate bounds: two-sided max(|S_sup|, |S_inf|), the
    upper bound max S_sup, and the lower bound max(-S_inf). These suprema are
    over the sample grid only, the weakest link of any certificate with a
    nonzero tensor force.
    """
    ts = np.linspace(-T, T, t_samples)
    sup_vals = np.zeros(ts.size)
    inf_vals = np.zeros(ts.size)
    if fs.tensor_F is not None:
        for j, t in enumerate(ts):
            inf_vals[j], sup_vals[j] = operator_bounds(manifold, fs, grid, t)
    n_two_sided = float(np.maximum(np.abs(sup_vals), np.abs(inf_vals)).max())
    n_upper = float(sup_vals.max())
    n_lower = float((-inf_vals).max())
    return {
        "bounded": PremiseCheck(
            name="operator_bound_two_sided", passed=True, margin=0.0,
            note="N_T is the sampled supremum of the operator norm",
            values={"N_T": n_two_sided, "T": float(T)}),
        "upper_bounded": PremiseCheck(
            name="operator_bound_upper", passed=True, margin=0.0,
            note="N_T is the sampled supremum of S_sup",
            values={"N_T": n_upper, "T": float(T)}),
        "lower_bounded": PremiseCheck(
            name="operator_bound_lower", passed=True, margin=0.0,
            note="N_T is the sampled supremum of -S_inf",
            values={"N_T": n_lower, "T": float(T)}),
    }


def check_dVdt_bound(fs, bd, signed="two_sided", prerequisite_passed=True):
    """Premise: the (signed) time derivative of V is controlled by alpha0 (V - beta0).

    signed selects |dV/dt| (two_sided), +dV/dt (forward) or -dV/dt (backward).
    When the bounded-below prerequisite failed the result is still computed
    but stamped dependent_failure.
    """
    if signed not in ("two_sided", "forward", "backward"):
        raise ValueError(f"unknown signed mode {signed!r}")

    def signed_dt(q):
        if signed == "two_sided":
            return abs(q)
        return -q if signed == "backward" else q

    def margin_at(p, t):
        q = signed_dt(fs.dt(p, t))
        rhs = float(bd.alpha0(t)) * (fs.value(p, t) - float(bd.beta0(t)))
        return rhs - q

    def on_grid(x, t):
        if _missing(fs.potential_array, fs.potential_dt_array, bd.alpha0_array, bd.beta0_array):
            return None
        q = signed_dt(fs.potential_dt_array(x, t))
        return bd.alpha0_array(t) * (fs.potential_array(x, t) - bd.beta0_array(t)) - q

    margin, p, t = _scan_grid(bd, margin_at, on_grid)
    return PremiseCheck(
        name=f"potential_dt_{signed}",
        passed=margin >= 0.0 and prerequisite_passed,
        margin=margin,
        worst_point=p,
        worst_t=t,
        note="min of alpha0*(V - beta0) - signed dV/dt over the sample grid",
        dependent_failure=not prerequisite_passed,
    )


def _growth_ratios(manifold, wave, grid, dists, u):
    """|grad H|_g / (1 + distance) at each grid point, one point at a time."""
    ratios = np.empty(grid.shape[0])
    for i, p in enumerate(grid):
        dh = wave.dx(p, u)
        g = metric_at(manifold, p)
        q = float(dh @ np.linalg.solve(g, dh))
        # max() would drop a NaN; keep it so the slice fails below
        norm_grad = np.nan if np.isnan(q) else float(np.sqrt(max(0.0, q)))
        ratios[i] = norm_grad / (1.0 + dists[i])
    return ratios


def check_linear_growth_gradH(manifold, wave, grid, anchor, u_grid):
    """Premise: the metric norm of grad H grows at most linearly with chart distance.

    For each u slice, ratios |grad H|_g / (1 + d(point, anchor)) are compared
    between the farthest distance decile and the median decile; the slice
    passes when the farthest-decile mean is at most twice the median-decile
    mean. This decile criterion is the operational definition of "at most
    linear growth" on a finite sample: it is scale free and robust to grid
    anisotropy.

    A slice takes grad H from the wave's array form in one call, and the
    metric at the grid points, which does not depend on u, once for all
    slices. A slice whose array ratios are not all finite, or a wave without
    an array form, is evaluated one point at a time instead; only that path
    raises evaluation errors or fails a slice on a non-finite sample.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    anchor = np.asarray(anchor, dtype=float)
    if grid.shape[0] < 20:
        raise ValueError("linear-growth check needs at least 20 grid points for deciles")
    dists = np.linalg.norm(grid - anchor, axis=1)
    order = np.argsort(dists, kind="stable")
    k = grid.shape[0]
    med_idx = order[int(0.45 * k): max(int(0.55 * k), int(0.45 * k) + 1)]
    far_idx = order[int(0.90 * k):]
    worst_margin = np.inf
    worst_u = None
    max_ratio = 0.0
    metrics = None
    for u in u_grid:
        ratios = None
        if wave.h_dx_array is not None:
            with np.errstate(all="ignore"):
                dh = wave.h_dx_array(grid, float(u))
                # a non-finite dh goes to the pointwise path before any metric is evaluated
                if np.all(np.isfinite(dh)):
                    if metrics is None:
                        metrics = metrics_at(manifold, grid)
                    q = np.vecdot(dh, np.linalg.solve(metrics, dh[..., None])[..., 0])
                    ratios = np.sqrt(np.maximum(0.0, q)) / (1.0 + dists)
        if ratios is None or not np.all(np.isfinite(ratios)):
            ratios = _growth_ratios(manifold, wave, grid, dists, float(u))
        max_ratio = max(max_ratio, float(ratios.max()))
        med = float(ratios[med_idx].mean())
        far = float(ratios[far_idx].mean())
        slack = 1e-12 * max(1.0, float(ratios.max()))
        margin = 2.0 * med - far + slack
        if not np.all(np.isfinite(ratios)):
            margin = -np.inf   # a non-finite sample fails its slice
        if margin < worst_margin:
            worst_margin = margin
            worst_u = float(u)
    return PremiseCheck(
        name="wave_gradient_linear_growth",
        passed=worst_margin >= 0.0,
        margin=float(worst_margin),
        worst_t=worst_u,
        note="2 * median-decile ratio - farthest-decile ratio of |grad H|_g / (1 + distance)",
        values={"max_ratio": max_ratio},
    )


def check_wave_bounded_above(wave, bd):
    """Premise: H(x, u) <= beta0(u) on the sampled window."""
    def on_grid(x, u):
        if _missing(wave.h_array, bd.beta0_array):
            return None
        return bd.beta0_array(u) - wave.h_array(x, u)

    margin, p, t = _scan_grid(bd, lambda q, u: float(bd.beta0(u)) - wave.value(q, u), on_grid)
    return PremiseCheck(
        name="wave_bounded_above",
        passed=margin >= 0.0,
        margin=margin,
        worst_point=p,
        worst_t=t,
        note="min of beta0 - H over the sample grid",
    )


def check_wave_du_bound(wave, bd, prerequisite_passed=True):
    """Premise: |dH/du| <= alpha0(u) (beta0(u) - H) on the sampled window."""
    def margin_at(p, u):
        rhs = float(bd.alpha0(u)) * (float(bd.beta0(u)) - wave.value(p, u))
        return rhs - abs(wave.du(p, u))

    def on_grid(x, u):
        if _missing(wave.h_array, wave.h_du_array, bd.alpha0_array, bd.beta0_array):
            return None
        rhs = bd.alpha0_array(u) * (bd.beta0_array(u) - wave.h_array(x, u))
        return rhs - np.abs(wave.h_du_array(x, u))

    margin, p, t = _scan_grid(bd, margin_at, on_grid)
    return PremiseCheck(
        name="wave_du_bound",
        passed=margin >= 0.0 and prerequisite_passed,
        margin=margin,
        worst_point=p,
        worst_t=t,
        note="min of alpha0*(beta0 - H) - |dH/du| over the sample grid",
        dependent_failure=not prerequisite_passed,
    )


def _flag_check(manifold):
    return PremiseCheck(
        name="manifold_complete_flag",
        passed=bool(manifold.complete_flag),
        margin=0.0 if manifold.complete_flag else -1.0,
        note="unverified scenario assertion that the base manifold is geodesically complete",
    )


@dataclass(frozen=True)
class CertificationTask:
    """What to certify: a force system on a manifold, or a wave coefficient.

    When wave is set the wave-coefficient routes run (bounded coefficient, and
    linear gradient growth when anchor is given); otherwise the force-system
    routes run (two-sided plus the one-sided variants). T is the half-width of
    the time window the bounds are sampled on.
    """

    manifold: object
    bounds: BoundData
    T: float
    force: object = None
    wave: object = None
    anchor: Optional[np.ndarray] = None
    attempts: Optional[tuple] = None


def certify(task):
    """Run premise checks and emit the strongest verdict whose premises pass.

    Precedence: two-sided potential bounds > wave coefficient bounds > linear
    gradient growth > forward > backward. All attempted routes and every
    margin stay in the evidence; failures never raise.
    """
    evidence = {}
    routes = []

    def record(check):
        evidence[check.name] = check
        return check

    flag = record(_flag_check(task.manifold))

    if task.wave is not None:
        attempts = task.attempts or ("wave_bounds", "linear_growth")
        if "wave_bounds" in attempts:
            bounded = record(check_wave_bounded_above(task.wave, task.bounds))
            du_check = record(check_wave_du_bound(task.wave, task.bounds,
                                                  prerequisite_passed=bounded.passed))
            names = (flag.name, bounded.name, du_check.name)
            routes.append(RouteResult(
                route="wave_bounds", verdict=COMPLETE_WAVE_BOUNDS,
                passed=all(evidence[n].passed for n in names), premises=names))
        if "linear_growth" in attempts:
            anchor = task.anchor if task.anchor is not None else np.zeros(task.manifold.dim)
            growth = record(check_linear_growth_gradH(task.manifold, task.wave,
                                                      task.bounds.grid, anchor,
                                                      task.bounds.t_grid))
            names = (flag.name, growth.name)
            routes.append(RouteResult(
                route="linear_growth", verdict=COMPLETE_LINEAR_GRADIENT,
                passed=all(evidence[n].passed for n in names), premises=names))
    else:
        if task.force is None:
            raise ValueError("certification task needs a force system or a wave coefficient")
        attempts = task.attempts or ("two_sided", "forward", "backward")
        bounded = record(check_bounded_below(task.force, task.bounds))
        s_checks = check_S_bounds(task.manifold, task.force, task.T, task.bounds.grid)
        route_map = {
            "two_sided": (s_checks["bounded"], COMPLETE_POTENTIAL_BOUNDS),
            "forward": (s_checks["upper_bounded"], FORWARD_COMPLETE),
            "backward": (s_checks["lower_bounded"], BACKWARD_COMPLETE),
        }
        for mode in ("two_sided", "forward", "backward"):
            if mode not in attempts:
                continue
            s_check, verdict = route_map[mode]
            record(s_check)
            dvdt = record(check_dVdt_bound(task.force, task.bounds, signed=mode,
                                           prerequisite_passed=bounded.passed))
            names = (flag.name, bounded.name, s_check.name, dvdt.name)
            routes.append(RouteResult(
                route=mode, verdict=verdict,
                passed=all(evidence[n].passed for n in names), premises=names))

    verdict = INCONCLUSIVE
    for candidate in _PRECEDENCE:
        hits = [r for r in routes if r.verdict == candidate and r.passed]
        if hits:
            verdict = candidate
            break
    ordered = tuple(evidence[name] for name in sorted(evidence))
    return CompletenessCertificate(
        verdict=verdict,
        routes=tuple(routes),
        evidence=ordered,
        complete_flag_asserted=bool(task.manifold.complete_flag),
    )
