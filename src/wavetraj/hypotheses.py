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

from .dynamics import operator_eigen_range
from .expressions import on_rows, on_window
from .geometry import metrics_at

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

    This is the one description of the sampled window: every premise, the
    operator-norm bound N_T and the energy frame sample grid x t_grid. alpha0
    and beta0 are continuous functions of time (of the wave parameter u for
    wave-coefficient routes). grid rows are chart points; t_grid spans
    [-T, T], and T (derived, not stored) is max |t_grid|, which for
    np.linspace(-T, T, n) is T exactly. A bound with an array form
    (expressions.array_form: an Expression in one variable, or a callable
    given one by expressions.with_array_form) is evaluated over an array of
    times in one call, NaN where the scalar call would raise.
    """

    alpha0: Callable[[float], float]
    beta0: Callable[[float], float]
    grid: np.ndarray
    t_grid: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "grid", np.atleast_2d(np.asarray(self.grid, dtype=float)))
        object.__setattr__(self, "t_grid", np.asarray(self.t_grid, dtype=float))
        if self.grid.shape[0] == 0 or self.t_grid.size == 0:
            raise ValueError("sample grids must be nonempty")

    @property
    def T(self):
        return float(np.abs(self.t_grid).max())


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


def _on_times(bd, fn):
    """A bound of time at every t of the window, shape (len(t_grid), 1) to broadcast over the grid.

    fn's array form serves when its values are all finite; otherwise fn is
    called once per time, on a Python float (expressions.on_rows).
    """
    return on_rows(fn, lambda t: float(fn(float(t))), bd.t_grid)[:, None]


def _worst(bd, margins):
    """(margin, worst point, worst t) of a premise's margins over the window, t-major.

    The first minimum; but a non-finite sample is evidence of nothing, so the
    first such sample is the worst, with margin -inf.
    """
    finite = np.isfinite(margins)
    if finite.all():
        k = int(np.argmin(margins))
        margin = float(margins.flat[k])
    else:
        k = int(np.argmin(finite))
        margin = -np.inf
    i, j = divmod(k, bd.grid.shape[0])
    return margin, tuple(bd.grid[j].tolist()), float(bd.t_grid[i])


def _premise(bd, name, note, margins, prerequisite_passed=True):
    """The sampled premise name from its margins over the window (_worst).

    It fails, stamped dependent_failure, when its prerequisite failed.
    """
    margin, p, t = _worst(bd, margins)
    return PremiseCheck(name=name, passed=margin >= 0.0 and prerequisite_passed, margin=margin,
                        worst_point=p, worst_t=t, note=note,
                        dependent_failure=not prerequisite_passed)


def check_bounded_below(fs, bd):
    """Premise: V(p, t) >= beta0(t) on the sampled window."""
    v = on_window(fs.potential, fs.value, bd.grid, bd.t_grid)
    return _bounded_below(bd, v, _on_times(bd, bd.beta0))


def _bounded_below(bd, v, beta0):
    return _premise(bd, "potential_bounded_below", "min of V - beta0 over the sample grid",
                    v - beta0)


def check_S_bounds(manifold, fs, bounds):
    """Sampled operator-norm bounds of the self-adjoint part of F on the window of bounds.

    Scans bounds.grid x bounds.t_grid, the samples of every other premise, in
    one operator_eigen_range call (F over the window, then G; errors in that
    order). Returns the three candidate bounds: two-sided max(|S_sup|,
    |S_inf|), the upper bound max S_sup, and the lower bound max(-S_inf),
    each recording bounds.T. These suprema are over the sample grid only,
    the weakest link of any certificate with a nonzero tensor force.
    """
    lo, hi = operator_eigen_range(manifold, fs, bounds.grid, bounds.t_grid)
    inf_vals, sup_vals = lo.min(axis=1), hi.max(axis=1)
    n_two_sided = float(np.maximum(np.abs(sup_vals), np.abs(inf_vals)).max())
    n_upper = float(sup_vals.max())
    n_lower = float((-inf_vals).max())
    T = bounds.T
    return {
        "bounded": PremiseCheck(
            name="operator_bound_two_sided", passed=True, margin=0.0,
            note="N_T is the sampled supremum of the operator norm",
            values={"N_T": n_two_sided, "T": T}),
        "upper_bounded": PremiseCheck(
            name="operator_bound_upper", passed=True, margin=0.0,
            note="N_T is the sampled supremum of S_sup",
            values={"N_T": n_upper, "T": T}),
        "lower_bounded": PremiseCheck(
            name="operator_bound_lower", passed=True, margin=0.0,
            note="N_T is the sampled supremum of -S_inf",
            values={"N_T": n_lower, "T": T}),
    }


def _potential_fields(fs, bd):
    """V, beta0, alpha0 and dV/dt over the window, evaluated in that order."""
    return (on_window(fs.potential, fs.value, bd.grid, bd.t_grid), _on_times(bd, bd.beta0),
            _on_times(bd, bd.alpha0), on_window(fs.potential_dt, fs.dt, bd.grid, bd.t_grid))


def check_dVdt_bound(fs, bd, signed="two_sided", prerequisite_passed=True):
    """Premise: the (signed) time derivative of V is controlled by alpha0 (V - beta0).

    signed selects |dV/dt| (two_sided), +dV/dt (forward) or -dV/dt (backward).
    When the bounded-below prerequisite failed the result is still computed
    but stamped dependent_failure.
    """
    if signed not in ("two_sided", "forward", "backward"):
        raise ValueError(f"unknown signed mode {signed!r}")
    return _dvdt_bound(bd, *_potential_fields(fs, bd), signed, prerequisite_passed)


def _dvdt_bound(bd, v, beta0, alpha0, dv_dt, signed, prerequisite_passed):
    if signed == "two_sided":
        dv_dt = np.abs(dv_dt)
    elif signed == "backward":
        dv_dt = -dv_dt
    return _premise(bd, f"potential_dt_{signed}",
                    "min of alpha0*(V - beta0) - signed dV/dt over the sample grid",
                    alpha0 * (v - beta0) - dv_dt, prerequisite_passed)


def check_linear_growth_gradH(manifold, wave, grid, anchor, u_grid):
    """Premise: the metric norm of grad H grows at most linearly with coordinate distance.

    For each u slice, ratios |grad H|_g / (1 + |point - anchor|) are compared
    between the farthest distance decile and the median decile; the slice
    passes when the farthest-decile mean is at most twice the median-decile
    mean. This decile criterion is the operational definition of "at most
    linear growth" on a finite sample: it is scale free and robust to grid
    anisotropy.

    grad H is taken over the whole window, every u at every point, by one
    expressions.on_window call: h_dx's array form when all its values are
    finite, else one h_dx call per sample, u outer, which raises where h_dx
    cannot be evaluated. Then the metric at the grid points, which does not
    depend on u, is evaluated once. A slice with a non-finite ratio fails,
    and the first slice of least margin is the worst. An anchor that is not
    one grid point's coordinates, or an empty u_grid, is a ValueError.
    """
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    anchor = np.asarray(anchor, dtype=float)
    u = np.asarray(u_grid, dtype=float)
    if grid.shape[0] < 20:
        raise ValueError("linear-growth check needs at least 20 grid points for deciles")
    if anchor.shape != grid.shape[1:]:
        raise ValueError(f"linear-growth anchor has shape {anchor.shape}, "
                         f"not that of one grid point {grid.shape[1:]}")
    if u.size == 0:
        raise ValueError("linear-growth check needs at least one u sample")
    dists = np.linalg.norm(grid - anchor, axis=1)
    order = np.argsort(dists, kind="stable")
    k = grid.shape[0]
    med_idx = order[int(0.45 * k): max(int(0.55 * k), int(0.45 * k) + 1)]
    far_idx = order[int(0.90 * k):]
    dh = on_window(wave.h_dx, wave.dx, grid, u)
    with np.errstate(all="ignore"):
        q = np.vecdot(dh, np.linalg.solve(metrics_at(manifold, grid), dh[..., None])[..., 0])
        # np.maximum keeps a NaN, so the slice fails below
        ratios = np.sqrt(np.maximum(0.0, q)) / (1.0 + dists)
        slice_max = ratios.max(axis=1)
        # one 1-d mean per slice: a mean along axis 1 would sum in another order
        med = np.array([r[med_idx].mean() for r in ratios])
        far = np.array([r[far_idx].mean() for r in ratios])
        margins = 2.0 * med - far + 1e-12 * np.maximum(1.0, slice_max)
    margins[~np.isfinite(ratios).all(axis=1)] = -np.inf   # a non-finite sample fails its slice
    worst = int(np.argmin(margins))
    # fmax skips a NaN slice maximum, so a NaN slice never raises max_ratio
    max_ratio = float(np.fmax.reduce(slice_max, initial=0.0))
    return PremiseCheck(
        name="wave_gradient_linear_growth",
        passed=bool(margins[worst] >= 0.0),
        margin=float(margins[worst]),
        worst_t=float(u[worst]),
        note="2 * median-decile ratio - farthest-decile ratio of |grad H|_g / (1 + distance)",
        values={"max_ratio": max_ratio},
    )


def _wave_fields(wave, bd):
    """H, beta0, alpha0 and dH/du over the window, evaluated in that order."""
    return (on_window(wave.h, wave.value, bd.grid, bd.t_grid), _on_times(bd, bd.beta0),
            _on_times(bd, bd.alpha0), on_window(wave.h_du, wave.du, bd.grid, bd.t_grid))


def check_wave_bounded_above(wave, bd):
    """Premise: H(x, u) <= beta0(u) on the sampled window."""
    h = on_window(wave.h, wave.value, bd.grid, bd.t_grid)
    return _wave_bounded_above(bd, h, _on_times(bd, bd.beta0))


def _wave_bounded_above(bd, h, beta0):
    return _premise(bd, "wave_bounded_above", "min of beta0 - H over the sample grid", beta0 - h)


def check_wave_du_bound(wave, bd, prerequisite_passed=True):
    """Premise: |dH/du| <= alpha0(u) (beta0(u) - H) on the sampled window."""
    return _wave_du_bound(bd, *_wave_fields(wave, bd), prerequisite_passed)


def _wave_du_bound(bd, h, beta0, alpha0, dh_du, prerequisite_passed):
    return _premise(bd, "wave_du_bound", "min of alpha0*(beta0 - H) - |dH/du| over the sample grid",
                    alpha0 * (beta0 - h) - np.abs(dh_du), prerequisite_passed)


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
    linear gradient growth about anchor, the chart origin when None);
    otherwise the force-system routes run (two-sided plus the one-sided
    variants). Every route runs, on the window of bounds.
    """

    manifold: object
    bounds: BoundData
    force: object = None
    wave: object = None
    anchor: Optional[np.ndarray] = None


def certify(task):
    """Run premise checks and emit the strongest verdict whose premises pass.

    Precedence: two-sided potential bounds > wave coefficient bounds > linear
    gradient growth > forward > backward. Every route and every margin stay
    in the evidence; failures never raise. The fields the premises take are
    each evaluated once over the window, in the order V, beta0, alpha0,
    dV/dt (H, beta0, alpha0, dH/du for a wave) and before the S-bound or
    linear-growth scan, so a field that cannot be evaluated raises the
    EvaluationError of the first that fails.
    """
    evidence = {}
    routes = []

    def record(check):
        evidence[check.name] = check
        return check

    flag = record(_flag_check(task.manifold))

    bd = task.bounds
    if task.wave is not None:
        h, beta0, alpha0, dh_du = _wave_fields(task.wave, bd)
        bounded = record(_wave_bounded_above(bd, h, beta0))
        du_check = record(_wave_du_bound(bd, h, beta0, alpha0, dh_du, bounded.passed))
        names = (flag.name, bounded.name, du_check.name)
        routes.append(RouteResult(
            route="wave_bounds", verdict=COMPLETE_WAVE_BOUNDS,
            passed=all(evidence[n].passed for n in names), premises=names))
        anchor = task.anchor if task.anchor is not None else np.zeros(task.manifold.dim)
        growth = record(check_linear_growth_gradH(task.manifold, task.wave,
                                                  bd.grid, anchor, bd.t_grid))
        names = (flag.name, growth.name)
        routes.append(RouteResult(
            route="linear_growth", verdict=COMPLETE_LINEAR_GRADIENT,
            passed=all(evidence[n].passed for n in names), premises=names))
    else:
        if task.force is None:
            raise ValueError("certification task needs a force system or a wave coefficient")
        fields = _potential_fields(task.force, bd)
        bounded = record(_bounded_below(bd, *fields[:2]))
        s_checks = check_S_bounds(task.manifold, task.force, bd)
        route_map = {
            "two_sided": (s_checks["bounded"], COMPLETE_POTENTIAL_BOUNDS),
            "forward": (s_checks["upper_bounded"], FORWARD_COMPLETE),
            "backward": (s_checks["lower_bounded"], BACKWARD_COMPLETE),
        }
        for mode in ("two_sided", "forward", "backward"):
            s_check, verdict = route_map[mode]
            record(s_check)
            dvdt = record(_dvdt_bound(bd, *fields, mode, bounded.passed))
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
