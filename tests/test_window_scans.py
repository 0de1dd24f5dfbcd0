"""The premise scans take the whole sample window in one call.

operator_eigen_range over an array of times, and check_linear_growth_gradH
over every u, against the one-slice-per-time paths they replaced: the same
floats bit for bit, with G evaluated once per grid point. A certify route
evaluates each of its premise fields once over the window, and a failed
evaluation raises for the first field that fails, in a fixed order.
"""

import math
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from wavetraj.catalog import build_manifold, build_tensor, build_wave, expression_tensor
from wavetraj.dynamics import operator_eigen_range
from wavetraj.errors import EigFailure, EvaluationError
from wavetraj.expressions import array_form, on_rows, with_array_form
from wavetraj.geometry import ChartManifold, metrics_at
from wavetraj.gpw import WaveCoefficient
from wavetraj.hypotheses import (CertificationTask, certify, check_linear_growth_gradH,
                                 check_S_bounds)
from wavetraj.runner import run_scenario
from wavetraj.scenario import bundled_scenarios, load_scenario, parse_scenario

from conftest import box_grid, tensor_force, window

CONFORMAL = ("diagonal_conformal", {"entries": ["1 + 0.2*x1^2", "2 + sin(x2)"]})
MANIFOLDS = [("euclidean", {"n": 2}), CONFORMAL]
TENSORS = [
    build_tensor("time_scalar", {"expr": "1 + t*sin(t)", "n": 2}, 2),
    expression_tensor([["x1*t", "1"], ["0", "cos(x2 + t)"]]),
]


def reference_linear_growth(manifold, wave, grid, anchor, u_grid):
    """The per-slice loop the window scan replaced: (passed, margin, worst_t, max_ratio)."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    anchor = np.asarray(anchor, dtype=float)
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
        dh = on_rows(wave.h_dx, wave.dx, grid, np.full(k, float(u)))
        with np.errstate(all="ignore"):
            if metrics is None:
                metrics = metrics_at(manifold, grid)
            q = np.vecdot(dh, np.linalg.solve(metrics, dh[..., None])[..., 0])
            ratios = np.sqrt(np.maximum(0.0, q)) / (1.0 + dists)
        max_ratio = max(max_ratio, float(ratios.max()))
        med = float(ratios[med_idx].mean())
        far = float(ratios[far_idx].mean())
        slack = 1e-12 * max(1.0, float(ratios.max()))
        margin = 2.0 * med - far + slack
        if not np.all(np.isfinite(ratios)):
            margin = -np.inf
        if margin < worst_margin:
            worst_margin = margin
            worst_u = float(u)
    return worst_margin >= 0.0, float(worst_margin), worst_u, max_ratio


def window_linear_growth(manifold, wave, grid, anchor, u_grid):
    check = check_linear_growth_gradH(manifold, wave, grid, anchor, u_grid)
    return check.passed, check.margin, check.worst_t, check.values["max_ratio"]


@pytest.mark.parametrize("tensor", TENSORS, ids=["time_scalar", "x_dependent"])
@pytest.mark.parametrize("manifold", MANIFOLDS, ids=["euclidean", "diagonal_conformal"])
def test_eigen_range_over_times_equals_the_per_time_calls(manifold, tensor):
    m, fs = build_manifold(*manifold), tensor_force(tensor)
    grid = box_grid([-1, -1], [1, 1], [5, 5])
    ts = np.linspace(-2.0, 2.0, 9)
    lo, hi = operator_eigen_range(m, fs, grid, ts)
    assert lo.shape == hi.shape == (ts.size, len(grid))
    for i, t in enumerate(ts):
        lo_t, hi_t = operator_eigen_range(m, fs, grid, t)
        assert lo[i].tobytes() == lo_t.tobytes()
        assert hi[i].tobytes() == hi_t.tobytes()


def test_eigen_range_without_a_tensor_is_zero_over_the_window(euclidean2):
    grid = box_grid([-1, -1], [1, 1], [3, 3])
    lo, hi = operator_eigen_range(euclidean2, tensor_force(None), grid, np.linspace(-1, 1, 4))
    assert_array_equal(lo, np.zeros((4, 9)))
    assert_array_equal(hi, np.zeros((4, 9)))


def test_eigen_range_over_times_names_the_first_point_with_a_non_finite_F(euclidean2):
    grid = np.array([[-1.0, 2.0], [0.5, 2.0], [1.0, 2.0]])
    fs = tensor_force(lambda x, t: [[math.inf if (x[0], t) == (1.0, 0.0) else 1.0, 0.0],
                                    [0.0, math.nan if (x[0], t) == (-1.0, 1.0) else 1.0]])
    # t-major: the time 0 row fails before the earlier point of time 1
    with pytest.raises(EigFailure, match=re.escape(str(grid[2]))):
        operator_eigen_range(euclidean2, fs, grid, np.array([-1.0, 0.0, 1.0]))


def test_S_bounds_evaluate_G_once_per_grid_point():
    base = build_manifold(*CONFORMAL)
    calls = []

    def metric(x):
        calls.append(x)
        return base.metric(x)

    counted = ChartManifold(dim=2, metric=metric, geodesic_term=base.geodesic_term)
    fs = tensor_force(TENSORS[0])
    bd = window(lambda t: 0.0, lambda t: 0.0, 2.0, grid=box_grid([-1, -1], [1, 1], [11, 11]))
    calls.clear()
    checks = check_S_bounds(counted, fs, bd)
    assert len(calls) == 121   # not 41 x 121
    assert checks == check_S_bounds(base, fs, bd)


def plain_wave(dx):
    """A wave whose gradient dx has no array form; H itself is not read by the scan."""
    return WaveCoefficient(h=lambda x, u: 0.0, h_dx=dx, h_du=lambda x, u: 0.0)


def _poisoned_gradient(bad_u, bad):
    return plain_wave(lambda x, u: [bad, 0.0] if u == bad_u else [2.0 * x[0], -2.0 * x[1]])


QUARTIC = build_wave("expression", {"H": "-(x1^2 + x2^2)^2 + x1*sin(u)", "n": 2})
CASES = {
    "plane_wave": (build_wave("plane_wave", {"f1": "exp(-u^2)", "f2": "cos(u)", "f": "sinh(u)/3"}),
                   MANIFOLDS[0]),
    "plane_wave_conformal": (build_wave("plane_wave", {"f1": "1 + 0.5*u^2", "f2": "2", "f": "0.3*u"}),
                             CONFORMAL),
    "quartic": (QUARTIC, MANIFOLDS[0]),
    "quartic_conformal": (QUARTIC, CONFORMAL),
    "nan_slice": (_poisoned_gradient(0.5, math.nan), MANIFOLDS[0]),
    "inf_slice": (_poisoned_gradient(-1.0, math.inf), MANIFOLDS[0]),
    # u^2 gives the slices at u = -1 and u = 1 the same floats, and their margin is the least
    "tied_slices": (build_wave("expression", {"H": "(2 - u^2)*(x1^2 + x2^2)^2", "n": 2}),
                    MANIFOLDS[0]),
}


@pytest.mark.parametrize("case", CASES)
def test_linear_growth_equals_the_per_slice_loop(case):
    wave, manifold = CASES[case]
    m = build_manifold(*manifold)
    args = (box_grid([-4, -4], [4, 4], [9, 9]), np.array([0.5, -0.5]), np.linspace(-1.0, 1.0, 5))
    got = window_linear_growth(m, wave, *args)
    assert repr(got) == repr(reference_linear_growth(m, wave, *args))
    if case == "tied_slices":
        assert got[2] == -1.0   # the first of the tied slices
    if case.endswith("_slice"):
        assert got[1] == -np.inf



def counted(fn, name, calls):
    """fn with an array form that counts its calls in calls[name]."""
    form = array_form(fn)

    def counting(*args):
        calls[name] += 1
        return form(*args)

    return with_array_form(lambda *args: fn(*args), counting)


def test_a_force_certify_evaluates_each_premise_field_once():
    sc = load_scenario(bundled_scenarios()["exp-certify"])
    calls = Counter()
    fs = replace(sc.force, potential=counted(sc.force.potential, "V", calls),
                 potential_dt=counted(sc.force.potential_dt, "dV/dt", calls))
    bd = replace(sc.bounds, alpha0=counted(sc.bounds.alpha0, "alpha0", calls),
                 beta0=counted(sc.bounds.beta0, "beta0", calls))
    cert = certify(CertificationTask(manifold=sc.manifold, bounds=bd, force=fs))
    assert calls == {"V": 1, "dV/dt": 1, "alpha0": 1, "beta0": 1}   # not 4, 3, 3 and 4
    assert cert == certify(CertificationTask(manifold=sc.manifold, bounds=sc.bounds, force=sc.force))


def test_a_wave_certify_evaluates_each_premise_field_once():
    sc = load_scenario(bundled_scenarios()["plane-wave-certify"])
    calls = Counter()
    wave = sc.spacetime.wave
    counted_wave = replace(wave, h=counted(wave.h, "H", calls),
                           h_du=counted(wave.h_du, "dH/du", calls))
    bd = replace(sc.bounds, alpha0=counted(sc.bounds.alpha0, "alpha0", calls),
                 beta0=counted(sc.bounds.beta0, "beta0", calls))
    cert = certify(CertificationTask(manifold=sc.manifold, bounds=bd, wave=counted_wave))
    assert calls == {"H": 1, "dH/du": 1, "alpha0": 1, "beta0": 1}   # not 2, 1, 1 and 2
    assert cert == certify(CertificationTask(manifold=sc.manifold, bounds=sc.bounds, wave=wave))


def _certify_scenario(source, alpha0, beta0):
    """A certify scenario on E2 over t in [-2, 2]: a potential text, or a wave {"H": text}."""
    raw = {"name": "order", "task": "certify",
           "manifold": {"catalog": "euclidean", "params": {"n": 2}},
           "bounds": {"alpha0": alpha0, "beta0": beta0, "T": 2.0, "t_samples": 5,
                      "grid": {"min": [-1, -1], "max": [1, 1], "shape": [5, 5]}}}
    if isinstance(source, dict):
        raw["gpw"] = {"wave": {"catalog": "expression", "params": {**source, "n": 2}},
                      "witness": {"x": [1.0, 0.0], "u": 0.0}}
    else:
        raw["force"] = {"potential": {"expr": source}}
    return parse_scenario(raw)


# Each field fails at one end of the window, the earlier field in the order
# of evaluation at the later time: the window of that field is evaluated
# first, so its error is the one raised. One sample at a time, the other
# field would fail first.
@pytest.mark.parametrize("source,alpha0,beta0,failing", [
    # V before beta0
    ("log(2 - t) + x1^2", "1", "1/(t + 2)", ("log(2 - t) + x1^2", {"x1": -1.0, "x2": -1.0, "t": 2.0})),
    # alpha0 before dV/dt
    ("x1^2 + sqrt(t + 2)", "1/(2 - t)", "0", ("1/(2 - t)", {"t": 2.0, "u": 2.0})),
    # H before beta0
    ({"H": "x1^2 + log(2 - u)"}, "1", "1/(t + 2)",
     ("x1^2 + log(2 - u)", {"x1": -1.0, "x2": -1.0, "u": 2.0})),
    # alpha0 before dH/du
    ({"H": "x1^2 + sqrt(u + 2)"}, "1/(2 - t)", "-10", ("1/(2 - t)", {"t": 2.0, "u": 2.0})),
])
def test_a_failed_premise_field_raises_in_the_order_v_or_h_beta0_alpha0_derivative(
        source, alpha0, beta0, failing, tmp_path):
    sc = _certify_scenario(source, alpha0, beta0)
    with pytest.raises(EvaluationError) as exc:
        run_scenario(sc, tmp_path)
    assert (exc.value.source, exc.value.point) == failing
