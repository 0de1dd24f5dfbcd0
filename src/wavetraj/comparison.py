"""Gronwall-type comparison machinery.

Given a positive nondecreasing comparison function phi on [a, inf) whose
reciprocal has a divergent improper integral, the dominating solution of
v0' = phi(v0) exists for all t >= 0 and bounds every sampled function that
satisfies the integral inequality v(t) <= v(0) + int_0^t phi(v(s)) ds with
a <= v and v(0) <= v0(0). This module checks the phi hypotheses on samples,
decides the divergence question numerically with an explicit Inconclusive
verdict, constructs v0 by quadrature inversion, and verifies envelopes.
"""

import bisect
import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import HypothesisViolated
from .expressions import on_rows

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


def adaptive_quad(f, lo, hi, rel_tol=1e-14):
    """Adaptive Gauss-Legendre 16/32 quadrature on [lo, hi].

    f maps an array of nodes to the array of its values there. Panels are
    bisected until the 16-point and 32-point values agree to rel_tol
    (relative to the 32-point value, with an absolute floor of 1e-300), or
    until a panel is _QUAD_MAX_DEPTH bisections deep, where it is accepted
    unconverged; the 32-point value is kept.
    """
    if hi == lo:
        return 0.0
    stack = [(lo, hi, 0)]
    total = 0.0
    while stack:
        a, b, depth = stack.pop()
        coarse, fine = _gl_apply(f, a, b)
        converged = abs(fine - coarse) <= max(_QUAD_ABS_TOL, rel_tol * abs(fine))
        if converged or depth >= _QUAD_MAX_DEPTH:
            total += fine
        else:
            m = 0.5 * (a + b)
            stack.append((a, m, depth + 1))
            stack.append((m, b, depth + 1))
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
        return float(self.fn(s))

    def values(self, ss):
        """phi at each point of the array ss.

        fn's array form, which returns an array of the shape of ss, serves
        when its values are all finite; otherwise fn is called once per
        point, and raises where it raises (expressions.on_rows).
        """
        return on_rows(self.fn, self, ss)

    def reciprocal(self, ss):
        """1/phi at each point of the array ss; a point where phi is not positive raises."""
        vals = self.values(ss)
        if not vals.min() > 0.0:   # a NaN fails too
            k = int(np.argmin(vals > 0.0))
            raise HypothesisViolated(f"phi({float(ss[k])}) = {float(vals[k])} is not positive")
        return 1.0 / vals

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


def check_divergence(phi):
    """Decide int_a^inf ds/phi(s) by integrating on doubling windows.

    Converges when two consecutive doublings change the value by less than
    1e-10 relative (the estimate adds a geometric tail extrapolation);
    Diverges when the doubling budget runs out with the last five increment
    ratios averaging >= 0.98 (no decaying tail in sight); Inconclusive
    otherwise. The rule is operational: tail exponents barely above 1 land in
    Diverges or Inconclusive, never silently in Converges.
    """
    a = phi.a
    width = max(1.0, abs(a))
    right = a + width
    phi.extend_certificate(right)
    total = adaptive_quad(phi.reciprocal, a, right, rel_tol=1e-13)
    increments = []
    saturated_once = False
    for k in range(_DOUBLING_BUDGET):
        new_right = a + (right - a) * 2.0
        phi.extend_certificate(new_right)
        inc = adaptive_quad(phi.reciprocal, right, new_right, rel_tol=1e-13)
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
                return DivergenceReport(CONVERGES, partial_integral=total, reached=right,
                                        estimate=total + tail, doublings=k + 1)
            saturated_once = True
        else:
            saturated_once = False
    last = increments[-5:]
    ratios = [b / a_ for a_, b in zip(last, last[1:]) if a_ > 0.0]
    mean_ratio = float(np.mean(ratios)) if ratios else 0.0
    if mean_ratio >= _DIVERGENCE_RATIO:
        return DivergenceReport(DIVERGES, partial_integral=total, reached=right,
                                doublings=_DOUBLING_BUDGET)
    return DivergenceReport(INCONCLUSIVE, partial_integral=total, reached=right,
                            doublings=_DOUBLING_BUDGET)


class DominatingSolution:
    """The solution v0 of v0' = phi(v0), v0(0) = v0_init, by quadrature inversion.

    time_of(w) = int_{v0_init}^{w} ds/phi(s) is tabulated on a doubling node
    cache out to t_max at construction; __call__ inverts it by bracketing plus
    Newton polish. The returned function is nondecreasing by construction and
    safe to share across threads for queries within [0, t_max] (queries beyond
    t_max extend the cache in place).
    """

    def __init__(self, phi, v0_init, t_max):
        self.phi = phi
        self.v0_init = float(v0_init)
        self.t_max = float(t_max)
        self._nodes_w = [self.v0_init]
        self._nodes_t = [0.0]
        self._extend_until(self.t_max)

    def _extend_until(self, t_target):
        width = max(1.0, abs(self.v0_init))
        while self._nodes_t[-1] < t_target:
            w_prev = self._nodes_w[-1]
            w_next = w_prev + width
            width *= 2.0
            self.phi.extend_certificate(w_next)
            dt = adaptive_quad(self.phi.reciprocal, w_prev, w_next, rel_tol=1e-14)
            self._nodes_w.append(w_next)
            self._nodes_t.append(self._nodes_t[-1] + dt)
            if len(self._nodes_w) > 200:
                raise HypothesisViolated(
                    f"t({w_next:.3g}) = {self._nodes_t[-1]:.6g} still below {t_target}; "
                    "phi grows too slowly to tabulate (or t_max is enormous)")

    def time_of(self, w):
        """t(w) = int_{v0_init}^{w} ds/phi(s)."""
        if w < self.v0_init:
            raise ValueError(f"w = {w} below v0(0) = {self.v0_init}")
        if w > self._nodes_w[-1]:
            self.phi.extend_certificate(w)
        i = bisect.bisect_right(self._nodes_w, w) - 1
        i = min(i, len(self._nodes_w) - 1)
        return self._nodes_t[i] + adaptive_quad(
            self.phi.reciprocal, self._nodes_w[i], w, rel_tol=1e-14)

    def __call__(self, t):
        t = float(t)
        if t < 0.0:
            raise ValueError("dominating solution is defined for t >= 0")
        if t == 0.0:
            return self.v0_init
        self._extend_until(t)
        i = bisect.bisect_right(self._nodes_t, t) - 1
        i = min(i, len(self._nodes_t) - 2)
        w_lo, w_hi = self._nodes_w[i], self._nodes_w[i + 1]
        t_lo = self._nodes_t[i]
        # bisection start, then Newton with dt/dw = 1/phi(w)
        for _ in range(8):
            w_mid = 0.5 * (w_lo + w_hi)
            if self._segment_time(i, w_mid) + t_lo > t:
                w_hi = w_mid
            else:
                w_lo = w_mid
        w = 0.5 * (w_lo + w_hi)
        for _ in range(60):
            residual = (t_lo + self._segment_time(i, w)) - t
            step = residual * self.phi(w)
            w_new = min(max(w - step, w_lo), w_hi)
            if abs(w_new - w) <= 1e-15 * max(1.0, abs(w)):
                w = w_new
                break
            w = w_new
        return w

    def _segment_time(self, i, w):
        return adaptive_quad(self.phi.reciprocal, self._nodes_w[i], w, rel_tol=1e-14)


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
    included, and nothing raises.
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
    v0_vals = np.array([v0(ti - t[0]) for ti in t])
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
