"""Seeded task generators and per-task correctness gates for the benchmark's workloads.

Every task is a plain scenario mapping, exactly what a user would put in a
.scn file; the program sees nothing else. Each family also carries the data
its gate needs, and every gate checks the written artifacts against an
oracle that does not go through the package: a closed form, an invariant
evaluated here from the CSV, or (for gpw-geodesic) the full-dimensional
geodesic oracle that the runner reports.

Tasks come in four groups (trajectories, blowup, waves, certify), and the
families within a group follow a fixed round-robin pattern. A workload
interleaves two groups in rounds of fixed make-up, so the mix, and with it
the cost of a run, is the same for every seed; only the parameters inside
each family are drawn from the seed.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("integrate", "gpw_certify")

#: the task groups each workload interleaves: one round takes this many tasks
#: of each group, in this order. Each count is a whole number of the group's
#: family pattern (6, 2, 4 and 8 tasks), so every round holds the same mix
ROUNDS = {"integrate": (("trajectories", 30), ("blowup", 2)),
          "gpw_certify": (("waves", 4), ("certify", 8))}

#: rounds generated per run; a run that finishes them starts them again
POOL_ROUNDS = {"integrate": 20, "gpw_certify": 50}

#: every group draws from its own stream, so a seed gives each group the same
#: tasks whichever workload holds it
_GROUPS = ("trajectories", "blowup", "waves", "certify")

#: integral of ds / sqrt(s^4 - 1) over [1, inf); sets the blow-up time of
#: x'' = 2 c d^2 |x|^2 x released from rest at radius r0: K / (|d| sqrt(c) r0)
_QUARTIC_K = math.gamma(0.25) ** 2 / (4.0 * math.sqrt(2.0 * math.pi))

_E2 = {"catalog": "euclidean", "params": {"n": 2}}

# gate tolerances
HARMONIC_TOL = 1e-6           # closed-form position error
HYPERBOLIC_DRIFT_TOL = 1e-8   # metric-norm drift per unit time
CONFORMAL_DRIFT_TOL = 1e-7    # mechanical-energy drift per unit time
BLOWUP_TOL = 1e-3             # refined estimate against t*
MAP_TSTAR_TOL = 1e-4          # coarse ceiling-crossing time against t*
ORACLE_TOL = 1e-5             # reduction against full-dimensional oracle
ORACLE_DRIFT_TOL = 1e-8       # g(gamma', gamma') drift along the oracle
ENVELOPE_FD_TOL = 1e-4        # finite-difference energy identity
DOMINATING_TOL = 1e-8         # ode residual and closed form of v0(t_max)


@dataclass
class Task:
    """One generated scenario mapping plus what its gate needs to know."""

    name: str
    family: str
    raw: dict
    expect: dict = field(default_factory=dict)


def _u(rng, lo, hi):
    return float(rng.uniform(lo, hi))


def _poly(c0, c1, c2):
    return f"({float(c0)!r}) + ({float(c1)!r})*u + ({float(c2)!r})*u^2"


def _box(half, shape):
    return {"min": [-half] * len(shape), "max": [half] * len(shape), "shape": shape}


# ---------------------------------------------------------------- trajectories

def _harmonic(rng, name, direction):
    k = _u(rng, 0.5, 4.0)
    omega = math.sqrt(k)
    x0 = rng.uniform(-1.0, 1.0, 2).tolist()
    v0 = rng.uniform(-1.0, 1.0, 2).tolist()
    raw = {"name": name, "task": "integrate", "manifold": _E2,
           "force": {"potential": {"catalog": "harmonic", "params": {"k": k}}},
           # one period, so the step count does not depend on k
           "integrator": {"horizon": 2.0 * math.pi / omega},
           "initial": {"position": x0, "velocity": v0},
           "direction": direction, "refine": False}
    return Task(name, "harmonic", raw, {"omega": omega, "x0": x0, "v0": v0})


def _hyperbolic(rng, name, direction):
    p = [_u(rng, -1.0, 1.0), _u(rng, 0.5, 2.0)]
    speed = _u(rng, 0.5, 1.5)
    theta = _u(rng, 0.0, 2.0 * math.pi)
    v = [speed * p[1] * math.cos(theta), speed * p[1] * math.sin(theta)]
    raw = {"name": name, "task": "integrate",
           "manifold": {"catalog": "hyperbolic_half_plane"},
           "force": {"potential": {"catalog": "zero"}},
           # a fixed hyperbolic distance, whatever the speed
           "integrator": {"horizon": 6.0 / speed},
           "initial": {"position": p, "velocity": v},
           "direction": direction, "refine": False}
    return Task(name, "hyperbolic", raw)


def _conformal(rng, name, with_tensor):
    a = _u(rng, 0.1, 0.5)
    b = _u(rng, 0.3, 1.0)
    entry = f"1 + {a!r}*(x1^2 + x2^2)"
    force = {"potential": {"expr": f"{b!r}*(x1^2 + x2^2)"}}
    if with_tensor:
        # F is euclidean-skew and the metric is conformal, so F is metric-skew
        # and the mechanical energy is still conserved
        force["tensor"] = {"catalog": "skew_rotation", "params": {"omega": _u(rng, 0.2, 1.0)}}
    raw = {"name": name, "task": "integrate",
           "manifold": {"catalog": "diagonal_conformal",
                        "params": {"entries": [entry, entry], "complete": True}},
           "force": force,
           "integrator": {"horizon": 1.5},
           "initial": {"position": rng.uniform(-1.0, 1.0, 2).tolist(),
                       "velocity": rng.uniform(-1.0, 1.0, 2).tolist()},
           "refine": False}
    return Task(name, "conformal", raw, {"a": a, "b": b})


def _trajectories(rng, i):
    name = f"traj-{i:04d}"
    slot = i % 6
    if slot in (0, 3):
        return _harmonic(rng, name, "forward" if slot == 0 else "backward")
    if slot in (1, 4):
        return _hyperbolic(rng, name, "forward" if slot == 1 else "backward")
    return _conformal(rng, name, with_tensor=slot == 5)


# ---------------------------------------------------------------- blowup

def _blowup(rng, i):
    name = f"blow-{i:04d}"
    c = _u(rng, 0.5, 2.0)
    r0 = _u(rng, 0.8, 1.25)
    n = 1 + i % 2
    if n == 1:
        unit = np.array([1.0 if rng.uniform() < 0.5 else -1.0])
    else:
        theta = _u(rng, 0.0, 2.0 * math.pi)
        unit = np.array([math.cos(theta), math.sin(theta)])
    # zero-energy radial data: |v0| = sqrt(2c) r0^2, so t* = 1 / (sqrt(2c) r0)
    speed0 = math.sqrt(2.0 * c) * r0 * r0
    t_star = 1.0 / (math.sqrt(2.0 * c) * r0)
    raw = {"name": name, "task": "integrate",
           "manifold": {"catalog": "euclidean", "params": {"n": n}},
           "force": {"potential": {"catalog": "negative_quartic", "params": {"c": c}}},
           "integrator": {"horizon": 2.0 * t_star},
           "initial": {"position": (r0 * unit).tolist(), "velocity": (speed0 * unit).tolist()},
           "refine": True}
    return Task(name, "blowup", raw, {"t_star": t_star})


# ---------------------------------------------------------------- waves

def _gpw_geodesic(rng, name):
    coeffs = rng.uniform(-1.0, 1.0, 9)
    delta = _u(rng, 0.5, 1.5) * (1.0 if rng.uniform() < 0.5 else -1.0)
    raw = {"name": name, "task": "gpw-geodesic", "manifold": _E2,
           "gpw": {"wave": {"catalog": "plane_wave",
                            "params": {"f1": _poly(*coeffs[0:3]), "f2": _poly(*coeffs[3:6]),
                                       "f": _poly(*coeffs[6:9])}},
                   # H(witness) = f1(0) = coeffs[0], nonzero for a continuous draw
                   "witness": {"x": [1.0, 0.0], "u": 0.0},
                   "initial": {"x": rng.uniform(-1.0, 1.0, 2).tolist(),
                               "xdot": rng.uniform(-1.0, 1.0, 2).tolist(),
                               "u": _u(rng, -0.5, 0.5), "udot": delta,
                               "v": _u(rng, -1.0, 1.0), "vdot": _u(rng, -1.0, 1.0)},
                   "oracle_check": True},
           "integrator": {"horizon": 1.0}}
    return Task(name, "gpw-geodesic", raw)


def _gpw_map(rng, name):
    c = _u(rng, 0.8, 1.5)
    d = _u(rng, 0.9, 1.2)
    lo = [_u(rng, 0.8, 1.2), _u(rng, 0.0, 0.5)]
    hi = [lo[0] + _u(rng, 0.3, 0.8), lo[1] + _u(rng, 0.3, 0.5)]
    raw = {"name": name, "task": "gpw-map", "manifold": _E2,
           "gpw": {"wave": {"catalog": "expression",
                            "params": {"H": f"{c!r}*(x1^2 + x2^2)^2", "n": 2}},
                   "witness": {"x": [1.0, 0.0], "u": 0.0}},
           "map": {"x0_grid": {"min": lo, "max": hi, "shape": [2, 2]},
                   "xdot0": [0.0, 0.0], "deltas": [0.0, d]},
           "integrator": {"horizon": 3.0}}
    # released from rest: delta = 0 stays put; delta = d blows up at
    # K / (d sqrt(c) r0) <= 1.32 / (0.9 * 0.89 * 0.8) < 2.1, inside the horizon
    return Task(name, "gpw-map", raw, {"c": c})


def _waves(rng, i):
    name = f"wave-{i:04d}"
    if i % 4 == 3:
        return _gpw_map(rng, name)
    return _gpw_geodesic(rng, name)


# ---------------------------------------------------------------- certify

def _bounds(rng, alpha0, beta0, half, dim):
    side = int(rng.integers(9, 12))
    return {"alpha0": alpha0, "beta0": beta0, "T": _u(rng, 2.0, 3.0),
            "grid": _box(half, [side] * dim), "t_samples": 41}


def _certify(rng, i):
    name = f"cert-{i:04d}"
    slot = i % 8
    if slot == 0:
        raw = {"manifold": _E2,
               "force": {"potential": {"catalog": "harmonic", "params": {"k": _u(rng, 0.5, 3.0)}}},
               "bounds": _bounds(rng, "0", "0", _u(rng, 1.5, 2.5), 2)}
        family, verdict = "harmonic", "complete-by-potential-bounds"
    elif slot == 1:
        raw = {"manifold": _E2, "force": {"potential": {"catalog": "exp_time_quadratic"}},
               "bounds": _bounds(rng, "1", "0", _u(rng, 1.5, 2.5), 2)}
        family, verdict = "exp_time_quadratic", "complete-by-potential-bounds"
    elif slot == 2:
        raw = {"manifold": {"catalog": "euclidean", "params": {"n": 1}},
               "force": {"potential": {"catalog": "negative_quartic",
                                       "params": {"c": _u(rng, 0.5, 2.0)}}},
               "bounds": _bounds(rng, "0", "0", _u(rng, 1.5, 2.5), 1)}
        family, verdict = "negative_quartic", "inconclusive"
    elif slot == 3:
        c = _u(rng, 0.5, 2.0)
        raw = {"manifold": _E2,
               "gpw": {"wave": {"catalog": "expression",
                                "params": {"H": f"-{c!r}*(x1^2 + x2^2)^2", "n": 2}},
                       "witness": {"x": [1.0, 0.0], "u": 0.0}},
               "bounds": _bounds(rng, "0", "0", _u(rng, 4.0, 6.0), 2)}
        family, verdict = "quartic_well", "complete-by-wave-coefficient-bounds"
    elif slot == 4:
        a, b, f2, d = (_u(rng, 0.5, 1.5), _u(rng, 0.5, 1.5), _u(rng, 1.0, 3.0), _u(rng, 0.5, 1.5))
        raw = {"manifold": _E2,
               "gpw": {"wave": {"catalog": "plane_wave",
                                "params": {"f1": f"{a!r} + {b!r}*u^2", "f2": repr(f2),
                                           "f": f"{d!r}*u"}},
                       "witness": {"x": [1.0, 0.0], "u": 0.0}},
               "bounds": _bounds(rng, "1", "0", _u(rng, 4.0, 6.0), 2)}
        family, verdict = "quadratic_plane_wave", "complete-by-linear-gradient-growth"
    elif slot == 5:
        raw = {"manifold": _E2,
               "force": {"potential": {"catalog": "harmonic"},
                         "tensor": {"catalog": "time_scalar",
                                    "params": {"expr": f"{_u(rng, 0.2, 1.0)!r}*cos(t)", "n": 2}}},
               "bounds": _bounds(rng, "0", "0", _u(rng, 1.5, 2.5), 2)}
        family, verdict = "time_scalar_tensor", "complete-by-potential-bounds"
    elif slot == 6:
        horizon = _u(rng, 2.0, 3.0)
        raw = {"task": "envelope", "name": name, "manifold": _E2,
               "force": {"potential": {"catalog": "exp_time_quadratic"}},
               "bounds": dict(_bounds(rng, "1", "0", 2.0, 2), T=3.0),
               "integrator": {"horizon": horizon},
               "initial": {"position": rng.uniform(-1.0, 1.0, 2).tolist(),
                           "velocity": rng.uniform(-1.0, 1.0, 2).tolist()}}
        return Task(name, "envelope", raw)
    else:
        return _compare_lemma(rng, name)
    raw = {"name": name, "task": "certify", **raw}
    return Task(name, family, raw, {"verdict": verdict})


def _compare_lemma(rng, name):
    kind = int(rng.integers(0, 3))
    c = _u(rng, 0.3, 1.0)
    v0 = _u(rng, 1.0, 3.0)
    t_max = _u(rng, 4.0, 8.0)
    if kind == 0:
        phi, exact = f"{c!r}*s", v0 * math.exp(c * t_max)
    elif kind == 1:
        b = _u(rng, 0.5, 2.0)
        phi, exact = f"{c!r}*(s + {b!r})", (v0 + b) * math.exp(c * t_max) - b
    else:
        phi, exact = f"{c!r}*sqrt(s)", (math.sqrt(v0) + 0.5 * c * t_max) ** 2
    raw = {"name": name, "task": "compare-lemma",
           "compare_lemma": {"phi": phi, "a": 1.0, "v0_init": v0, "t_max": t_max,
                             "check_points": int(rng.integers(80, 121))}}
    return Task(name, "compare-lemma", raw, {"v_at_t_max": exact})


_GENERATORS = {"trajectories": _trajectories, "blowup": _blowup, "waves": _waves,
               "certify": _certify}


def round_length(workload):
    return sum(count for _, count in ROUNDS[workload])


def generate(workload, seed):
    """The seeded task pool of one workload: same seed, same mappings."""
    made = {group: 0 for group, _ in ROUNDS[workload]}
    rngs = {group: np.random.default_rng([int(seed), _GROUPS.index(group)]) for group in made}
    tasks = []
    for _ in range(POOL_ROUNDS[workload]):
        for group, count in ROUNDS[workload]:
            for _ in range(count):
                tasks.append(_GENERATORS[group](rngs[group], made[group]))
                made[group] += 1
    return tasks


# ---------------------------------------------------------------- gates

def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    # an empty field (t_star of a run that did not blow up) reads as nan
    return rows[0], np.array([[float(v) if v else math.nan for v in row] for row in rows[1:]])


def _drift_per_time(ts, values):
    spread = float(np.abs(values - values[0]).max())
    return spread / (max(abs(float(values[0])), 1.0) * max(abs(ts[-1] - ts[0]), 1e-300))


def _gate_integrate(task, report, out_dir, checks):
    out = report["outcome"]
    if task.family == "blowup":
        err = abs(out["blowup_refined"]["estimate"] - task.expect["t_star"])
        checks.note("blowup_max_err", err)
        return out["kind"] == "BlowUpSuspected" and err <= BLOWUP_TOL
    if out["kind"] != "HorizonReached":
        return False
    _, data = _read_csv(out_dir / f"{task.name}.csv")
    ts, x, xd = data[:, 0], data[:, 1:3], data[:, 3:5]
    if task.family == "harmonic":
        w = task.expect["omega"]
        exact = (np.outer(np.cos(w * ts), task.expect["x0"])
                 + np.outer(np.sin(w * ts) / w, task.expect["v0"]))
        err = float(np.abs(x - exact).max())
        checks.note("harmonic_max_err", err)
        return err <= HARMONIC_TOL
    if task.family == "hyperbolic":
        norms = np.einsum("ij,ij->i", xd, xd) / x[:, 1] ** 2
        drift = _drift_per_time(ts, norms)
        checks.note("hyperbolic_norm_drift", drift)
        return drift <= HYPERBOLIC_DRIFT_TOL
    r2 = np.einsum("ij,ij->i", x, x)
    energy = 0.5 * (1.0 + task.expect["a"] * r2) * np.einsum("ij,ij->i", xd, xd) \
        + task.expect["b"] * r2
    drift = _drift_per_time(ts, energy)
    checks.note("conformal_energy_drift", drift)
    return drift <= CONFORMAL_DRIFT_TOL


def _gate_gpw_geodesic(task, report, out_dir, checks):
    oracle = report["outcome"]["oracle"]
    # The report gives the drift of g(gamma', gamma') over max(|e0|, 1). Where the
    # transverse motion is unstable, g0(xdot, xdot) grows far past e0 and the wave
    # term cancels it, so the integrator's relative tolerance leaves an absolute
    # drift in proportion to that term. Hold the drift against the largest term
    # instead, read from the split geodesic's CSV (the base is euclidean: g0 = I).
    _, data = _read_csv(out_dir / f"{task.name}.csv")
    e0 = max(abs(report["outcome"]["energy_g"]), 1.0)
    largest = max(e0, float(np.einsum("ij,ij->i", data[:, 5:7], data[:, 5:7]).max()))
    drift = oracle["energy_drift"] * e0 / largest
    checks.note("oracle_max_discrepancy", oracle["max_coordinate_discrepancy"])
    checks.note("oracle_energy_drift", drift)
    return (report["outcome"]["kind"] == "HorizonReached"
            and oracle["outcome"] == "HorizonReached"
            and oracle["max_coordinate_discrepancy"] < ORACLE_TOL
            and drift < ORACLE_DRIFT_TOL)


def _gate_gpw_map(task, report, out_dir, checks):
    out = report["outcome"]
    header, data = _read_csv(out_dir / f"{task.name}.map.csv")
    codes = out["outcome_codes"]
    ok = sum(out["counts"].values()) == out["n_runs"] == data.shape[0]
    for kind, count in out["counts"].items():
        ok = ok and int(np.count_nonzero(data[:, header.index("outcome")] == codes[kind])) == count
    c = task.expect["c"]
    for row in data:
        r0 = math.hypot(row[0], row[1])
        delta, code, t_star = row[2], row[3], row[4]
        if delta == 0.0:
            ok = ok and code == codes["HorizonReached"]
            continue
        exact = _QUARTIC_K / (abs(delta) * math.sqrt(c) * r0)
        checks.note("map_tstar_max_err", abs(t_star - exact))
        ok = ok and code == codes["BlowUpSuspected"] and abs(t_star - exact) <= MAP_TSTAR_TOL
    return ok


def _gate_certify(task, report, out_dir, checks):
    return report["certificate"]["verdict"] == task.expect["verdict"]


def _gate_envelope(task, report, out_dir, checks):
    env = report["envelope"]
    return (report["outcome"]["kind"] == "HorizonReached" and env["check"]["passed"]
            and env["fd_identity_max_rel_error"] < ENVELOPE_FD_TOL)


def _gate_compare(task, report, out_dir, checks):
    comp = report["comparison"]
    if comp["divergence_verdict"] != "Diverges":
        return False
    exact = task.expect["v_at_t_max"]
    rel = abs(comp["v0_at_t_max"] - exact) / max(1.0, abs(exact))
    checks.note("dominating_residual", comp["ode_residual_max_rel"])
    checks.note("dominating_closed_form_err", rel)
    return comp["ode_residual_max_rel"] <= DOMINATING_TOL and rel <= DOMINATING_TOL


_GATES = {"integrate": _gate_integrate, "gpw-geodesic": _gate_gpw_geodesic,
          "gpw-map": _gate_gpw_map, "certify": _gate_certify, "envelope": _gate_envelope,
          "compare-lemma": _gate_compare}


class Checks:
    """Worst value seen for each accuracy check, across the gated tasks."""

    NAMES = ("harmonic_max_err", "hyperbolic_norm_drift", "conformal_energy_drift",
             "blowup_max_err", "map_tstar_max_err", "oracle_max_discrepancy",
             "oracle_energy_drift", "dominating_residual", "dominating_closed_form_err")

    def __init__(self):
        self.worst = dict.fromkeys(self.NAMES, 0.0)

    def note(self, name, value):
        self.worst[name] = max(self.worst[name], float(value))


def gate(task, report, out_dir, checks):
    """True when the task's artifacts agree with its oracle."""
    return bool(_GATES[task.raw["task"]](task, report, out_dir, checks))
