"""The S-bound and linear-growth scans take the whole sample window in one call.

operator_eigen_range over an array of times, and check_linear_growth_gradH
over every u, against the one-slice-per-time paths they replaced: the same
floats bit for bit, with G evaluated once per grid point.
"""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from wavetraj.catalog import build_manifold, build_tensor, build_wave, expression_tensor
from wavetraj.dynamics import operator_eigen_range
from wavetraj.errors import EigFailure
from wavetraj.expressions import on_rows
from wavetraj.geometry import ChartManifold, metrics_at
from wavetraj.gpw import WaveCoefficient
from wavetraj.hypotheses import check_linear_growth_gradH, check_S_bounds

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

