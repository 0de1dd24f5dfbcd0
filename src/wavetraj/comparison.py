"""Gronwall-type comparison machinery.

Given a positive nondecreasing comparison function phi on [a, inf) whose
reciprocal has a divergent improper integral, the dominating solution of
v0' = phi(v0) exists for all t >= 0 and bounds every sampled function that
satisfies the integral inequality v(t) <= v(0) + int_0^t phi(v(s)) ds with
a <= v and v(0) <= v0(0). This module checks the phi hypotheses on samples,
decides the divergence question numerically with an explicit Inconclusive
verdict, constructs v0 by inverting a table of quadrature panels, and
verifies envelopes.
"""

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisViolated
from .expressions import on_rows
from .integrate import hermite

DIVERGES = "Diverges"
CONVERGES = "Converges"
INCONCLUSIVE = "Inconclusive"

_SATURATION_RTOL = 1e-10
_DOUBLING_BUDGET = 64
_DIVERGENCE_RATIO = 0.98
# adaptive_quad: absolute floor of the panel tolerance, and the bisection
# depth at which a panel is accepted unconverged
_QUAD_ABS_TOL = 1e-300
_QUAD_MAX_DEPTH = 48
# PhiFunction: the span certified at construction, and samples per certified window
_PHI_INITIAL_SPAN = 10.0
_PHI_SAMPLES = 257
# verify_envelope: slack relative to the running scale of the integral bound
_ENVELOPE_REL_SLACK = 1e-6
# DominatingSolution: tolerance of the table's panels, its doubling segments at
# most, and the Newton sweeps of one values call at most
_TABLE_REL_TOL = 1e-14
_TABLE_SEGMENTS = 200
_NEWTON_SWEEPS = 60

@functools.cache
def _gl_rules():
    """The nodes of the 16- and 32-point Gauss-Legendre rules on [-1, 1] in one
    array, and the weights of each rule."""
    x16, w16 = np.polynomial.legendre.leggauss(16)
    x32, w32 = np.polynomial.legendre.leggauss(32)
    return np.concatenate([x16, x32]), w16, w32


def _gl_apply(f, lo, hi):
    """The 16-point and the 32-point Gauss-Legendre values of the integral of f on [lo, hi].

    f is called once, on the array of both rules' nodes, and returns its
    values there.
    """
    nodes, w16, w32 = _gl_rules()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    vals = f(mid + half * nodes)
    return half * float(w16 @ vals[:16]), half * float(w32 @ vals[16:])


def _quad_panels(f, lo, hi, rel_tol):
    """The accepted panels (a, b, fine, converged) of adaptive Gauss-Legendre 16/32 on [lo, hi].

    f maps an array of nodes to the array of its values there. Panels are
    bisected until the 16-point and 32-point values agree to rel_tol
    (relative to the 32-point value, with an absolute floor of 1e-300), or
    until a panel is _QUAD_MAX_DEPTH bisections deep, where it is accepted
    with converged False. fine is the panel's 32-point value. The panels come
    in the order the depth-first walk accepts them, right to left.
    """
    panels = []
    stack = [(lo, hi, 0)] if hi != lo else []
    while stack:
        a, b, depth = stack.pop()
        coarse, fine = _gl_apply(f, a, b)
        converged = abs(fine - coarse) <= max(_QUAD_ABS_TOL, rel_tol * abs(fine))
        if converged or depth >= _QUAD_MAX_DEPTH:
            panels.append((a, b, fine, converged))
        else:
            m = 0.5 * (a + b)
            stack.append((a, m, depth + 1))
            stack.append((m, b, depth + 1))
    return panels


def adaptive_quad(f, lo, hi, rel_tol=1e-14):
    """Adaptive Gauss-Legendre 16/32 quadrature on [lo, hi]: the sum of the
    32-point values of _quad_panels, in the order they are accepted."""
    total = 0.0
    for _, _, fine, _ in _quad_panels(f, lo, hi, rel_tol):
        total += fine
    return total


@dataclass
class PhiFunction:
    """Comparison function phi on [a, inf): positive and nondecreasing.

    Construction samples [a, a + 10] at 257 points; check_divergence extends
    the certified window [a, certified_to] as it doubles outward, 257 points
    per extension. A nonpositive value or a decrease anywhere on the sample
    is a hard error, and so is a NaN or infinite sample. fn may carry an
    array form (expressions.array_form: an Expression in one variable, or a
    callable given one by expressions.with_array_form), which evaluates it
    over an array of points, NaN where fn would raise.
    """

    a: float
    fn: Callable[[float], float]
    certified_to: float = field(init=False)

    def __post_init__(self):
        self._certify(self.a, self.a + _PHI_INITIAL_SPAN)

    def __call__(self, s):
        """phi at the point s, passed to fn as a Python float."""
        return float(self.fn(float(s)))

    def values(self, ss):
        """phi at each point of the array ss.

        fn's array form, which returns an array of the shape of ss, serves
        when its values are all finite; otherwise fn is called once per
        point, on a Python float, and raises where it raises
        (expressions.on_rows).
        """
        return on_rows(self.fn, ss)

    def positive_values(self, ss):
        """phi at each point of the array ss; a point where phi is not positive raises."""
        vals = self.values(ss)
        if not vals.min() > 0.0:   # a NaN fails too
            k = int(np.argmin(vals > 0.0))
            raise HypothesisViolated(f"phi({float(ss[k])}) = {float(vals[k])} is not positive")
        return vals

    def reciprocal(self, ss):
        """1/phi at each point of the array ss; a point where phi is not positive raises."""
        return 1.0 / self.positive_values(ss)

    def _certify(self, lo, hi):
        """Sample phi on [lo, hi], raising where it fails; the certified window then ends at hi."""
        ss = np.linspace(lo, hi, _PHI_SAMPLES)
        vals = self.values(ss)
        vmin = float(vals.min())
        if not vmin > 0.0:   # a NaN fails too; argmin finds the first one
            where = float(ss[int(vals.argmin())])
            raise HypothesisViolated(f"phi({where}) = {vmin} is not positive")
        if not np.isfinite(vals).all():
            k = int(np.argmin(np.isfinite(vals)))
            raise HypothesisViolated(f"phi({float(ss[k])}) = {float(vals[k])} is not finite")
        increments = np.diff(vals)
        slack = -1e-12 * max(1.0, float(np.abs(vals).max()))
        if not increments.min() >= slack:
            where = float(ss[int(increments.argmin())])
            raise HypothesisViolated(f"phi decreases near s = {where}")
        self.certified_to = float(hi)

    def extend_certificate(self, s_hi):
        """Sample phi out to s_hi when the window grows."""
        if s_hi > self.certified_to:
            self._certify(self.certified_to, s_hi)


@dataclass(frozen=True)
class DivergenceReport:
    verdict: str
    partial_integral: float
    reached: float
    estimate: Optional[float] = None
    doublings: int = 0
    unconverged_panels: int = 0


def check_divergence(phi):
    """Decide int_a^inf ds/phi(s) by integrating on doubling windows.

    Converges when two consecutive doublings change the value by less than
    1e-10 relative (the estimate adds a geometric tail extrapolation);
    Diverges when the doubling budget runs out with the last five increment
    ratios averaging >= 0.98 (no decaying tail in sight); Inconclusive
    otherwise. The rule is operational: tail exponents barely above 1 land in
    Diverges or Inconclusive, never silently in Converges. Each window is the
    sum of its _quad_panels in the order adaptive_quad takes them;
    unconverged_panels counts the panels accepted unconverged, and a
    Converges or Diverges verdict with any of them in its partial integral
    reads Inconclusive, without a tail estimate.
    """
    unconverged = 0

    def window(lo, hi):
        nonlocal unconverged
        total = 0.0
        for _, _, fine, converged in _quad_panels(phi.reciprocal, lo, hi, 1e-13):
            total += fine
            unconverged += not converged
        return total

    def verdict(kind, total, right, doublings, estimate=None):
        if unconverged:
            kind, estimate = INCONCLUSIVE, None
        return DivergenceReport(kind, partial_integral=total, reached=right, estimate=estimate,
                                doublings=doublings, unconverged_panels=unconverged)

    a = phi.a
    width = max(1.0, abs(a))
    right = a + width
    phi.extend_certificate(right)
    total = window(a, right)
    increments = []
    saturated_once = False
    for k in range(_DOUBLING_BUDGET):
        new_right = a + (right - a) * 2.0
        phi.extend_certificate(new_right)
        inc = window(right, new_right)
        increments.append(inc)
        total += inc
        right = new_right
        rel_change = abs(inc) / max(1.0, abs(total))
        if rel_change < _SATURATION_RTOL:
            if saturated_once:
                tail = 0.0
                if len(increments) >= 2 and increments[-2] > increments[-1] > 0.0:
                    rho = increments[-1] / increments[-2]
                    tail = increments[-1] * rho / (1.0 - rho)
                return verdict(CONVERGES, total, right, k + 1, estimate=total + tail)
            saturated_once = True
        else:
            saturated_once = False
    last = increments[-5:]
    ratios = [b / a_ for a_, b in zip(last, last[1:]) if a_ > 0.0]
    mean_ratio = float(np.mean(ratios)) if ratios else 0.0
    kind = DIVERGES if mean_ratio >= _DIVERGENCE_RATIO else INCONCLUSIVE
    return verdict(kind, total, right, _DOUBLING_BUDGET)


class DominatingSolution:
    """The solution v0 of v0' = phi(v0), v0(0) = v0_init, by inverting a panel table.

    t(w) = int_{v0_init}^{w} ds/phi(s) is tabulated on doubling segments
    [w_j, w_j + 2^j width] out to t_max at construction. Each segment is
    integrated by the adaptive 16/32 rule, and the table keeps the end w_k of
    every accepted panel, the time T_k = t(w_k) there and phi(w_k).
    values(ts) inverts a batch of times against that table: each time finds
    its panel, starts from the cubic Hermite of w(t) on it (its end slopes
    dw/dt = phi(w) are exact) and is finished by Newton steps on the panel.
    A time past the table extends it in place. unconverged_panels counts the
    table's panels accepted _QUAD_MAX_DEPTH bisections deep without meeting
    the quadrature tolerance.
    """

    def __init__(self, phi, v0_init, t_max):
        self.phi = phi
        self.v0_init = float(v0_init)
        self.t_max = float(t_max)
        self.unconverged_panels = 0
        self._w = np.array([self.v0_init])
        self._t = np.array([0.0])
        self._phi_w = phi.values(self._w)
        self._width = max(1.0, abs(self.v0_init))
        self._segments = 0
        self._extend_until(self.t_max)

    def _extend_until(self, t_target):
        while self._t[-1] < t_target:
            w_prev = float(self._w[-1])
            w_next = w_prev + self._width
            self._width *= 2.0
            self._segments += 1
            self.phi.extend_certificate(w_next)
            panels = sorted(_quad_panels(self.phi.reciprocal, w_prev, w_next, _TABLE_REL_TOL))
            _, ends, fine, converged = (np.array(column) for column in zip(*panels))
            self.unconverged_panels += int(np.count_nonzero(~converged))
            self._w = np.concatenate([self._w, ends])
            self._t = np.concatenate([self._t, self._t[-1] + np.cumsum(fine)])
            self._phi_w = np.concatenate([self._phi_w, self.phi.values(ends)])
            if self._segments >= _TABLE_SEGMENTS:
                raise HypothesisViolated(
                    f"t({w_next:.3g}) = {self._t[-1]:.6g} still below {t_target}; "
                    "phi grows too slowly to tabulate (or t_max is enormous)")

    def time_of(self, w):
        """t(w) = int_{v0_init}^{w} ds/phi(s)."""
        if w < self.v0_init:
            raise ValueError(f"w = {w} below v0(0) = {self.v0_init}")
        if w > self._w[-1]:
            self.phi.extend_certificate(w)
        k = int(np.searchsorted(self._w, w, side="right")) - 1
        return float(self._t[k]) + adaptive_quad(
            self.phi.reciprocal, float(self._w[k]), w, rel_tol=_TABLE_REL_TOL)

    def __call__(self, t):
        return float(self.values(np.array([float(t)]))[0])

    def values(self, ts):
        """v0 at each time of the 1-d array ts, in any order; t = 0 gives v0_init exactly.

        Each Newton sweep makes one phi.values call: the 32-point
        Gauss-Legendre nodes of [w_k, w] and w itself, for every query not yet
        settled. A query settles when its step is at most 1e-15 max(1, |w|).
        """
        ts = np.asarray(ts, dtype=float)
        if ts.size == 0:
            return np.empty(0)
        if not ts.min() >= 0.0:   # a NaN fails too
            raise ValueError("dominating solution is defined for t >= 0")
        self._extend_until(float(ts.max()))
        # each time's panel [w_k, w_k+1], and the cubic Hermite of w(t) on it as the start
        k = np.minimum(np.searchsorted(self._t, ts, side="right") - 1, self._t.size - 2)
        w_lo, w_hi, t_lo = self._w[k], self._w[k + 1], self._t[k]
        w = np.clip(hermite(self._t, self._w, self._phi_w, ts), w_lo, w_hi)
        nodes, _, weights = _gl_rules()
        nodes = nodes[16:]
        todo = np.flatnonzero(ts > 0.0)
        for _ in range(_NEWTON_SWEEPS):
            if todo.size == 0:
                break
            a, b = w_lo[todo], w[todo]
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            vals = self.phi.positive_values(
                np.concatenate([(mid[:, None] + half[:, None] * nodes).ravel(), b]))
            integral = half * (weights / vals[:-todo.size].reshape(todo.size, 32)).sum(axis=1)
            step = (t_lo[todo] + integral - ts[todo]) * vals[-todo.size:]
            w_new = np.clip(b - step, a, w_hi[todo])
            w[todo] = w_new
            todo = todo[np.abs(w_new - b) > 1e-15 * np.maximum(1.0, np.abs(b))]
        w[ts == 0.0] = self.v0_init
        return w


def solve_dominating(phi, v0_init, t_max):
    """Dominating solution on [0, t_max]; requires the divergence check to pass.

    Raises HypothesisViolated when check_divergence says Converges (the exact
    solution would escape in finite time) or Inconclusive.
    """
    if v0_init < phi.a:
        raise ValueError(f"v0_init = {v0_init} below the left endpoint a = {phi.a}")
    report = check_divergence(phi)
    if report.verdict != DIVERGES:
        raise HypothesisViolated(
            f"divergence check returned {report.verdict}; "
            "the dominating solution may escape in finite time")
    return DominatingSolution(phi, v0_init, t_max)


@dataclass(frozen=True)
class EnvelopeReport:
    """Outcome of checking v against the dominating solution.

    margin is min over samples of v0(t) - v(t); the hypothesis fields carry
    the worst slack of the integral inequality and the lower bound a <= v.
    quadrature_slack is the tolerance granted to the sampled integral check
    (trapezoid resolution), echoed for transparency.
    """

    passed: bool
    margin: float
    margin_at: float
    hypothesis_ok: bool
    lower_bound_ok: bool
    initial_ok: bool
    integral_margin: float
    integral_margin_at: float
    lower_bound_margin: float
    quadrature_slack: float
    n_samples: int

    def to_dict(self):
        return {
            "passed": self.passed,
            "margin": self.margin,
            "margin_at": self.margin_at,
            "hypothesis_ok": self.hypothesis_ok,
            "lower_bound_ok": self.lower_bound_ok,
            "initial_ok": self.initial_ok,
            "integral_margin": self.integral_margin,
            "integral_margin_at": self.integral_margin_at,
            "lower_bound_margin": self.lower_bound_margin,
            "quadrature_slack": self.quadrature_slack,
            "n_samples": self.n_samples,
        }


def verify_envelope(t_samples, v_samples, phi, v0):
    """Check the comparison hypotheses and conclusion on sampled v.

    The integral inequality is checked with cumulative trapezoid quadrature on
    the samples, granted a slack of 1e-6 relative to the running scale to
    absorb discretization; all raw margins are reported, violations
    included, and nothing raises. v0 is a DominatingSolution, queried once at
    all sample times.
    """
    t = np.asarray(t_samples, dtype=float)
    v = np.asarray(v_samples, dtype=float)
    if t.ndim != 1 or t.shape != v.shape or t.size < 2:
        raise ValueError("need matching 1-d time and value samples, at least two points")
    if np.any(np.diff(t) <= 0):
        raise ValueError("time samples must be strictly increasing")

    phiv = phi.values(v)
    cumulative = np.concatenate([[0.0], np.cumsum(0.5 * (phiv[1:] + phiv[:-1]) * np.diff(t))])
    bound = v[0] + cumulative
    scale = np.maximum(1.0, np.abs(bound))
    slack = _ENVELOPE_REL_SLACK * float(scale.max())
    integral_margins = bound - v
    i_int = int(integral_margins.argmin())
    lower_margins = v - phi.a
    v0_vals = v0.values(t - t[0])
    margins = v0_vals - v
    i_m = int(margins.argmin())

    lower_ok = bool(lower_margins.min() >= -slack)
    integral_ok = bool(integral_margins[i_int] >= -slack)
    initial_ok = bool(v[0] <= v0_vals[0] + slack)
    hypothesis_ok = lower_ok and integral_ok and initial_ok
    passed = hypothesis_ok and bool(margins[i_m] >= -slack)
    return EnvelopeReport(
        passed=passed,
        margin=float(margins[i_m]),
        margin_at=float(t[i_m]),
        hypothesis_ok=hypothesis_ok,
        lower_bound_ok=lower_ok,
        initial_ok=initial_ok,
        integral_margin=float(integral_margins[i_int]),
        integral_margin_at=float(t[i_int]),
        lower_bound_margin=float(lower_margins.min()),
        quadrature_slack=float(slack),
        n_samples=int(t.size),
    )
