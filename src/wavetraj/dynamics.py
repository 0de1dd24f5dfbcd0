"""Right-hand side of the force equation and its energy bookkeeping.

The second-order system on a chart is

    xdd^k = -Γ^k_ij xd^i xd^j + (F(x,t) xd)^k - (grad V)^k

with a time-dependent potential V and an optional (1,1) tensor field F acting
on the velocity. Only the metric-self-adjoint part S of F feeds energy growth,
so the operator bounds and the energy derivative identity below are the
quantities the completeness checks consume.

The force equation the integrator calls is make_rhs's kernel: one generated
function per chart and force system that takes the state as a list of
Python floats and gives the list (xdot, xddot), with the sources that are
chart functions written into it and every other source called from it.
rhs_E is a call of that kernel. Everything else here (energies, operator
bounds) works on numpy arrays.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import EigFailure, OutOfChart
from .expressions import Inliner, function_text, on_rows, on_window, point_text
from .geometry import chart_point, diagonal_of, inner_products, metric_lines, metrics_at


@dataclass(frozen=True)
class ForceSystem:
    """Potential V(x, t) plus optional velocity-linear tensor force F(x, t).

    Every source takes the chart point x as a list of Python floats and t as
    a Python float, and returns Python floats: potential and potential_dt
    one, potential_dx a sequence of n, tensor_F n rows of n (the chart
    components of F; None means F ≡ 0), reached over arrays through
    expressions.on_rows only. potential_dx and potential_dt are the exact
    derivatives of potential, and both are required. time_independent marks
    potentials with no t dependence (used only for reporting conserved-energy
    drift).

    A source may carry an array form (expressions.array_form), which
    evaluates it over arrays: chart points on the last axis of x, broadcast
    against t, NaN where the scalar call would raise. The premise scans use
    the array forms of potential and potential_dt. The array form belongs to
    the callable, so a force system with a replaced source never evaluates
    the old one. generated holds make_rhs's kernel once a run asks for it.
    """

    potential: Callable[[np.ndarray, float], float]
    potential_dx: Callable[[np.ndarray, float], np.ndarray]
    potential_dt: Callable[[np.ndarray, float], float]
    tensor_F: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    time_independent: bool = False
    generated: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if not (callable(self.potential_dx) and callable(self.potential_dt)):
            raise TypeError("a force system needs its derivatives potential_dx and potential_dt")


FREE = ForceSystem(potential=lambda x, t: 0.0,
                   potential_dx=lambda x, t: [0.0] * len(x),
                   potential_dt=lambda x, t: 0.0,
                   time_independent=True)


@dataclass(frozen=True)
class EnergyFrame:
    """Constants of the energy estimate on a compact time window [-T, T].

    B_T shifts the potential so V - B_T >= 1 on the sampled window, A_T
    dominates alpha0 there, N_T bounds the sampled operator norm, and
    a_t_star = 2 N_T + A_T dominates N_T·u + A_T·(V-B_T) against the energy
    (using u <= 2v and V - B_T <= v), the sharpest constant expressible from
    those inequalities. t_horizon is the T of the bounds the frame was built
    from (build_energy_frame).
    """

    t_horizon: float
    a_t: float
    b_t: float
    n_t: float

    @property
    def a_t_star(self):
        return 2.0 * self.n_t + self.a_t


def build_energy_frame(bounds, n_t):
    """EnergyFrame on the window of bounds (hypotheses.BoundData), T = bounds.T.

    A_T = max alpha0 and B_T = min beta0 - 1 over bounds.t_grid, the times
    every premise and the operator-norm bound N_T were sampled at, each
    passed as a Python float.
    """
    times = bounds.t_grid.tolist()
    a_t = max(float(bounds.alpha0(t)) for t in times)
    b_t = min(float(bounds.beta0(t)) for t in times) - 1.0
    return EnergyFrame(t_horizon=bounds.T, a_t=a_t, b_t=b_t, n_t=float(n_t))


def rhs_E(manifold, fs, state):
    """First-order field (xdot, xddot) of the force equation at state = (x, xdot, t).

    x and xdot are lists of floats (arrays are converted), t a float; the
    value is the list of 2n floats that make_rhs's kernel gives at (t, x + xdot).
    """
    x, xdot, t = state
    if type(x) is not list or type(xdot) is not list:
        x, xdot = chart_point(x), chart_point(xdot)
    return make_rhs(manifold, fs)(t, x + xdot)


def make_rhs(manifold, fs):
    """The force equation's kernel k(t, y) over the state y = x + xdot, a list of 2n floats.

    k is one generated function, built on the first call for the pair and
    kept on the force system with its manifold: a run calls make_rhs once,
    and the force system keeps the kernel of the last manifold it was
    called with. A force system built per run (gpw.wave_force_system)
    comes with its kernel on its spacetime's base already: the one kernel
    the spacetime keeps, bound to the run's values, so a run on the wave
    generates nothing. k returns the list xdot + xddot, in Python floats.
    After the guard check:

    - on a flat chart Γ ≡ 0, so xddot = -0.0 xd xd + F xd − G^-1 ∂V, where
      the last term is left out when ∂V is all zeros and G^-1 is skipped on
      an identity metric;
    - on a curved chart the metric is checked once (geometry.metric_lines),
      the chart's geodesic_term Γ_lij xd^i xd^j plus ∂_l V is raised by G,
      negated, and F xd is added.

    A metric that is diagonal at x is checked and raised against in floats,
    by division; any other takes metric_at's stacked check and is solved by
    np.linalg.solve. Every sum and product is written out in that order, a
    row of F times xd as sum() adds it, from 0. A source that is a
    chart_function (and a guard of expression text) is written into k, one
    try statement per source, so subexpressions shared by the metric, the
    geodesic term, ∂V and F are computed once; a domain error calls the
    source itself, whose EvaluationError names the first expression that
    fails. Any other source is called from k, its value in Python floats.
    """
    last = fs.generated.get("rhs")
    if last is not None and last[0] is manifold:
        return last[1]
    k = _kernel(manifold, fs)
    fs.generated["rhs"] = manifold, k
    return k


def _kernel(manifold, fs):
    n = manifold.dim
    inliner = Inliner(n)
    bind = inliner.bind
    guard = guard_check(manifold, inliner)
    if not manifold.flat:
        metric = inliner.add(manifold.metric, ("x",), (n, n))
        term = inliner.add(manifold.geodesic_term, ("x", "v"), (n,))
    gradient = inliner.add(fs.potential_dx, ("x", "t"), (n,))
    tensor = inliner.add(fs.tensor_F, ("x", "t"), (n, n))

    def tensor_lines():
        """Lines that set F's rows, and lines that then add F xd to the acceleration."""
        if fs.tensor_F is None:
            return [], []
        lines, rows = inliner.values(tensor, "_f")
        return lines, [f"_a{i} = _a{i} + (0.0 + "
                       + " + ".join(f"{f} * _v{n + j}" for j, f in enumerate(rows[i])) + ")"
                       for i in range(n)]

    lines = guard()
    if manifold.flat:
        # F is evaluated before ∂V
        tensor_values, tensor_sum = tensor_lines()
        gradient_lines, dv = inliner.values(gradient, "_d")
        lines += tensor_values + gradient_lines
        # -0.0 * v * v is what -Γ(xdot, xdot) gives for Γ = 0: -0.0, or NaN where xdot is not finite
        lines += [f"_a{i} = -0.0 * _v{n + i} * _v{n + i}" for i in range(n)] + tensor_sum
        lines += _minus_gradient(manifold, inliner, gradient, dv)
    else:
        metric_text, diagonal = metric_lines(manifold, inliner, metric)
        term_lines, terms = inliner.values(term, "_e")
        gradient_lines, dv = inliner.values(gradient, "_d")
        lines += metric_text + term_lines + gradient_lines
        lines += [f"_l{i} = {e} + {d}" for i, (e, d) in enumerate(zip(terms, dv))]
        lines += ["if _G is None:"]
        lines += [f"    _a{i} = -(_l{i} / {d})" for i, d in enumerate(diagonal)]
        lines += ["else:", f"    {', '.join(f'_s{i}' for i in range(n))}, = "
                           f"{bind(_solve)}(_G, [{', '.join(f'_l{i}' for i in range(n))}])"]
        lines += [f"    _a{i} = -_s{i}" for i in range(n)]
        tensor_values, tensor_sum = tensor_lines()
        lines += tensor_values + tensor_sum
    state = [f"_v{n + i}" for i in range(n)] + [f"_a{i}" for i in range(n)]
    lines.append(f"return [{', '.join(state)}]")
    return inliner.function(function_text(f"_v{2 * n}, _y", n, lines))


def guard_check(manifold, inliner):
    """A call giving the lines that raise OutOfChart where the chart point x fails the guard.

    x is in the locals _v0.. of inliner's function. The guard's trees, where
    it is a chart guard (expressions.chart_guard), are added to inliner now,
    so this comes before the other sources are added, and the call before
    any of them is assigned; a guard of any other kind is called, and no
    guard gives no lines.
    """
    guard = manifold.domain_guard
    positive = inliner.add(getattr(guard, "positive", None), ("x",))

    def lines():
        if guard is None:
            return []
        x = point_text(0, manifold.dim)
        raised = f"    raise {inliner.bind(OutOfChart)}({inliner.bind(np.array)}({x}))"
        if positive.trees is None:
            return [f"if not {inliner.bind(guard)}({x}):", raised]
        guard_lines, value = inliner.values(positive, "_p")
        return guard_lines + [f"if not {value} > 0.0:", raised]

    return lines


def _minus_gradient(manifold, inliner, gradient, dv):
    """Lines that subtract G^-1 ∂V on a flat chart, where any entry of ∂V is nonzero (NaN counts).

    A zero ∂V leaves the -0.0 of -0.0 * v * v, never the 0.0 of -0.0 - (-0.0);
    entries that are constants in the text are decided here.
    """
    n = manifold.dim
    trees = gradient.trees
    constants = [] if trees is None else [tree[1] for tree in trees if tree[0] == "num"]
    varying = [d for i, d in enumerate(dv) if trees is None or trees[i][0] != "num"]
    if not varying and not any(constants):
        return []
    if manifold.identity_metric:
        subtract = [f"_a{i} = _a{i} - {d}" for i, d in enumerate(dv)]
    else:
        diagonal, g = diagonal_of(manifold.metric, [0.0] * n)
        if diagonal is not None:
            subtract = [f"_a{i} = _a{i} - {d} / {inliner.bind(c)}"
                        for i, (d, c) in enumerate(zip(dv, diagonal))]
        else:
            quotients = [f"_q{i}" for i in range(n)]
            subtract = [f"{', '.join(quotients)}, = {inliner.bind(_solve)}({inliner.bind(g)}, "
                        f"[{', '.join(dv)}])"]
            subtract += [f"_a{i} = _a{i} - {q}" for i, q in enumerate(quotients)]
    if any(constants):
        return subtract
    return [f"if {' or '.join(varying)}:"] + [f"    {line}" for line in subtract]


def _solve(g, b):
    """G^-1 b as a list of floats, by np.linalg.solve."""
    return np.linalg.solve(g, b).tolist()


def operator_eigen_range(manifold, fs, points, t):
    """(lambda_min, lambda_max) of S at each row of points at time t, as two arrays.

    t is one time, giving arrays of shape (len(points),), or a 1-d array of
    times, giving shape (len(t), len(points)): one call reduces a window.
    S has the eigenvalues of the pencil A - lambda G, A = (GF + F^T G)/2, and so,
    with L = cholesky(G), of the symmetric C = L^-1 A L^-T (Golub & Van Loan,
    Matrix Computations, §8.7): one stacked eigvalsh over the rows. On a chart
    whose metric is the identity, C is A itself, bit for bit, and eigvalsh
    takes A with no factoring and no solve. F is
    evaluated once over all (time, point) pairs by on_window, then G and L once
    per point, broadcast over the times, so an error of F over the whole
    window raises before any of G.
    """
    points = np.asarray(points, dtype=float)
    times = np.asarray(t, dtype=float)
    shape = times.shape + (len(points),)
    if fs.tensor_F is None:
        return np.zeros(shape), np.zeros(shape)
    fmat = on_window(fs.tensor_F, points, times)
    g = metrics_at(manifold, points)
    # g passed the metric checks, so only a can be non-finite, and then it fails here
    with np.errstate(invalid="ignore", over="ignore"):
        a = 0.5 * (g @ fmat + np.swapaxes(fmat, -1, -2) @ g)
    bad = ~np.isfinite(a).all(axis=(-2, -1))
    if bad.any():
        raise EigFailure(f"generalized eigenproblem at {points[bad.argmax() % len(points)]} "
                         f"has a non-finite entry")
    try:
        if manifold.identity_metric:
            w = np.linalg.eigvalsh(a)
        else:
            low = np.linalg.cholesky(g)
            w = np.linalg.eigvalsh(np.linalg.solve(low, np.swapaxes(np.linalg.solve(low, a), -1, -2)))
    except np.linalg.LinAlgError as exc:
        raise EigFailure(f"generalized eigenproblem failed on the sample grid: {exc}") from None
    return w[..., 0], w[..., -1]


def energy_v(manifold, fs, frame, state):
    """Shifted energy (1/2) xd^T G xd + V(x, t) - B_T at each row of state = (x, xdot, t).

    x and xdot hold one state per row and t one time per state; a single
    state is one row. The frame constants only control the window [-T, T],
    so every t must lie inside it (up to roundoff slack).
    """
    x, xdot, t = (np.asarray(a, dtype=float) for a in state)
    outside = np.abs(t) > frame.t_horizon * (1.0 + 1e-12) + 1e-12
    if outside.any():
        raise ValueError(f"t = {float(t[outside][0])} outside the energy frame window "
                         f"[-{frame.t_horizon}, {frame.t_horizon}]")
    return (0.5 * inner_products(manifold, x, xdot, xdot) + on_rows(fs.potential, x, t)
            - frame.b_t)


def energy_derivative_identity(manifold, fs, state):
    """Exact dv/dt along solutions, xd^T G S xd + ∂V/∂t, at each row of state = (x, xdot, t).

    xd^T G S xd is g(xd, F xd): the metric-skew part of F drops out of it.
    """
    x, xdot, t = (np.asarray(a, dtype=float) for a in state)
    out = on_rows(fs.potential_dt, x, t)
    if fs.tensor_F is not None:
        fx = np.matmul(on_rows(fs.tensor_F, x, t), xdot[:, :, None])[:, :, 0]
        out = out + inner_products(manifold, x, xdot, fx)
    return out
