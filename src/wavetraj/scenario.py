"""Scenario files: parsing, strict validation, and object construction.

A scenario is a JSON document (conventionally with the .scn extension)
declaring one task over one configuration. Validation is strict and happens
completely before any computation: unknown keys are hard errors, catalog
names and expressions are resolved eagerly, and the canonical form (defaults
materialized, keys sorted on write) echoes into every report so a run can be
reproduced from its own output.
"""

import dataclasses
import importlib.resources
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import catalog
from .dynamics import ForceSystem
from .errors import ParseError, ValidationError
from .expressions import parse_expression, with_array_form
from .geometry import ChartManifold
from .gpw import GeodesicInitialData, GpwSpacetime
from .hypotheses import LINEAR_GROWTH_MIN_POINTS, BoundData
from .integrate import BACKWARD, FORWARD, IntegratorConfig

TASKS = ("integrate", "certify", "envelope", "gpw-geodesic", "gpw-map", "compare-lemma")

#: the most samples a scenario may request (bounds grid points times t_samples,
#: map.x0_grid points, compare_lemma.check_points), checked before any allocation
MAX_SAMPLES = 10**6

_INTEGRATOR_KEYS = {"rel_tol", "abs_tol", "max_step", "horizon", "speed_ceiling", "min_step_fraction"}

_TOP_KEYS = {
    "name", "task", "manifold", "force", "bounds", "integrator", "initial",
    "direction", "refine", "probe_initial", "gpw", "map", "compare_lemma", "output",
}

_TASK_REQUIRES = {
    "integrate": {"manifold", "integrator", "initial"},
    "certify": {"manifold", "bounds"},
    "envelope": {"manifold", "force", "bounds", "integrator", "initial"},
    "gpw-geodesic": {"manifold", "gpw", "integrator"},
    "gpw-map": {"manifold", "gpw", "map", "integrator"},
    "compare-lemma": {"compare_lemma"},
}

_TASK_ALLOWS = {
    "integrate": {"name", "task", "manifold", "force", "integrator", "initial",
                  "direction", "refine", "output"},
    "certify": {"name", "task", "manifold", "force", "bounds", "gpw", "integrator",
                "probe_initial", "output"},
    "envelope": {"name", "task", "manifold", "force", "bounds", "integrator", "initial", "output"},
    "gpw-geodesic": {"name", "task", "manifold", "gpw", "integrator", "output"},
    "gpw-map": {"name", "task", "manifold", "gpw", "map", "integrator", "output"},
    "compare-lemma": {"name", "task", "compare_lemma", "output"},
}


def _expect_mapping(value, context):
    if not isinstance(value, dict):
        raise ValidationError(f"section {context!r} must be a mapping", key=context)
    return value


def _check_keys(d, allowed, required, context):
    unknown = set(d) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise ValidationError(f"unknown key {key!r} in {context}", key=key)
    missing = set(required) - set(d)
    if missing:
        key = sorted(missing)[0]
        raise ValidationError(f"missing key {key!r} in {context}", key=key)


def _finite(val, key, context):
    """val, the number at key in context, as a float; NaN, ±Infinity and integers past DBL_MAX raise."""
    if not abs(val) <= sys.float_info.max:
        raise ValidationError(f"{context}.{key} must be a finite number", key=key)
    return float(val)


def _number(d, key, context, default=None, required=False):
    if key not in d:
        if required:
            raise ValidationError(f"missing key {key!r} in {context}", key=key)
        return default
    val = d[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"key {key!r} in {context} must be a number", key=key)
    return _finite(val, key, context)


def _vector(d, key, context, size=None):
    """d[key], a list of numbers (size of them when size is given), as an array."""
    if key not in d:
        raise ValidationError(f"missing key {key!r} in {context}", key=key)
    val = d[key]
    if not isinstance(val, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in val):
        raise ValidationError(f"key {key!r} in {context} must be a list of numbers", key=key)
    if size is not None and len(val) != size:
        raise ValidationError(f"key {key!r} in {context} must have length {size}", key=key)
    return np.array([_finite(v, key, context) for v in val], dtype=float)


def _time_expr(text, context):
    """A bounds function of time, with its array form."""
    # bounds expressions may use t or u interchangeably for the time variable
    try:
        expr = parse_expression(text, ("t", "u"))
    except ParseError as exc:
        raise ValidationError(f"bad expression in {context}: {exc}", key=context) from exc
    return with_array_form(lambda s: expr(s, s), lambda s: expr.on_arrays(s, s))


@dataclass
class Scenario:
    """A fully validated scenario, ready to run."""

    name: str
    task: str
    canonical: dict
    manifold: Optional[ChartManifold] = None
    force: Optional[ForceSystem] = None
    bounds: Optional[BoundData] = None
    config: Optional[IntegratorConfig] = None
    initial: Optional[tuple] = None
    direction: str = FORWARD
    refine: bool = True
    probe_initial: Optional[tuple] = None
    spacetime: Optional[GpwSpacetime] = None
    gpw_initial: Optional[GeodesicInitialData] = None
    gpw_oracle_check: bool = False
    map_spec: Optional[dict] = None
    compare: Optional[dict] = None
    outputs: dict = field(default_factory=dict)


def load_scenario(path, overrides=()):
    """Read, parse and validate a scenario file after applying dotted key=value overrides."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scenario is not valid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from exc
    if not isinstance(raw, dict):
        raise ValidationError("scenario root must be a mapping")
    if overrides:
        raw = apply_overrides(raw, overrides)
    return parse_scenario(raw)


def bundled_scenarios():
    """Mapping of bundled scenario names to their file paths."""
    root = importlib.resources.files("wavetraj") / "scenarios"
    return {p.name[: -len(".scn")]: p for p in sorted(root.iterdir(), key=lambda q: q.name)
            if p.name.endswith(".scn")}


def apply_overrides(raw, overrides):
    """Apply dotted key=value overrides (values parsed as JSON scalars)."""
    out = json.loads(json.dumps(raw))
    for item in overrides:
        if "=" not in item:
            raise ValidationError(f"override {item!r} is not of the form key=value", key=item)
        path, _, value = item.partition("=")
        try:
            parsed = json.loads(value)
        except json.JSONDecodeError:
            parsed = value
        node = out
        parts = path.split(".")
        for part in parts[:-1]:
            if part not in node or not isinstance(node[part], dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = parsed
    return out


def _text_rows(rows, context):
    """rows, n >= 1 lists of n entries each, with every entry as expression text."""
    if not (isinstance(rows, list) and rows
            and all(isinstance(r, list) and len(r) == len(rows) for r in rows)):
        raise ValidationError(f"{context} must be an n x n matrix of expressions",
                              key=context.rpartition(".")[2])
    return [[str(e) for e in row] for row in rows]


def _catalog_entry(section, context):
    """The name and params of a section that names a catalog entry."""
    _check_keys(section, {"catalog", "params"}, {"catalog"}, context)
    return section["catalog"], _expect_mapping(section.get("params", {}), f"{context}.params")


def _build_manifold(section):
    section = _expect_mapping(section, "manifold")
    if "catalog" in section:
        return catalog.build_manifold(*_catalog_entry(section, "manifold"))
    _check_keys(section, {"metric", "guard", "complete"}, {"metric"}, "manifold")
    guard = section.get("guard")
    return catalog.metric_rows(_text_rows(section["metric"], "manifold.metric"),
                               None if guard is None else str(guard),
                               section.get("complete", False))


def _build_force(section, manifold):
    section = _expect_mapping({} if section is None else section, "force")
    _check_keys(section, {"potential", "tensor"}, set(), "force")
    pot_sec = section.get("potential")
    pot_sec = _expect_mapping({"catalog": "zero"} if pot_sec is None else pot_sec, "force.potential")
    if "catalog" in pot_sec:
        fs = catalog.build_potential(*_catalog_entry(pot_sec, "force.potential"), manifold.dim)
    else:
        _check_keys(pot_sec, {"expr"}, {"expr"}, "force.potential")
        fs = catalog.expression_potential(str(pot_sec["expr"]), manifold.dim)
    tensor_sec = section.get("tensor")
    if tensor_sec is not None:
        tensor_sec = _expect_mapping(tensor_sec, "force.tensor")
        if "catalog" in tensor_sec:
            tensor = catalog.build_tensor(*_catalog_entry(tensor_sec, "force.tensor"), manifold.dim)
        else:
            _check_keys(tensor_sec, {"expr_matrix"}, {"expr_matrix"}, "force.tensor")
            rows = _text_rows(tensor_sec["expr_matrix"], "force.tensor.expr_matrix")
            if len(rows) != manifold.dim:
                raise ValidationError(f"force.tensor.expr_matrix must be {manifold.dim} x {manifold.dim}",
                                      key="expr_matrix")
            tensor = catalog.expression_tensor(rows)
        fs = dataclasses.replace(fs, tensor_F=tensor)
    return fs


def _check_samples(count, what, key):
    """Raise a ValidationError naming key when count samples exceed MAX_SAMPLES."""
    if count > MAX_SAMPLES:
        raise ValidationError(f"{what} requests {count} samples; a scenario may request at most "
                              f"{MAX_SAMPLES}", key=key)


def _build_grid(section, context, dim, times=1):
    """The points of a box grid in dim coordinates, one per row; each is sampled at times times."""
    section = _expect_mapping(section, context)
    _check_keys(section, {"min", "max", "shape"}, {"min", "max", "shape"}, context)
    lo = _vector(section, "min", context, dim)
    hi = _vector(section, "max", context, dim)
    shape = section["shape"]
    if not isinstance(shape, list) or len(shape) != dim or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 1 for s in shape):
        raise ValidationError(f"{context}.shape must be {dim} positive integers", key="shape")
    _check_samples(math.prod(shape) * times,
                   f"{context}.shape" + ("" if times == 1 else f" at {times} times"), "shape")
    axes = [np.linspace(lo[i], hi[i], shape[i]) for i in range(lo.size)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _build_bounds(section, manifold):
    section = _expect_mapping(section, "bounds")
    _check_keys(section, {"alpha0", "beta0", "T", "grid", "t_samples"},
                {"alpha0", "beta0", "T", "grid"}, "bounds")
    T = _number(section, "T", "bounds", required=True)
    if not T > 0:
        raise ValidationError("bounds.T must be positive", key="T")
    t_samples = section.get("t_samples", 41)
    if not isinstance(t_samples, int) or isinstance(t_samples, bool) or t_samples < 2:
        raise ValidationError("bounds.t_samples must be an integer >= 2", key="t_samples")
    _check_samples(t_samples, "bounds.t_samples", "t_samples")
    grid = _build_grid(section["grid"], "bounds.grid", manifold.dim, t_samples)
    return BoundData(
        alpha0=_time_expr(str(section["alpha0"]), "bounds.alpha0"),
        beta0=_time_expr(str(section["beta0"]), "bounds.beta0"),
        grid=grid,
        t_grid=np.linspace(-T, T, t_samples),
    )


def _build_config(section, task):
    if section is None:
        section = {}
    section = _expect_mapping(section, "integrator")
    _check_keys(section, _INTEGRATOR_KEYS, set(), "integrator")
    kwargs = {}
    for key in _INTEGRATOR_KEYS:
        if key in section:
            kwargs[key] = _number(section, key, "integrator")
            if not kwargs[key] > 0:
                raise ValidationError(f"integrator.{key} must be positive", key=key)
    if task in ("integrate", "envelope", "gpw-geodesic", "gpw-map") and "horizon" not in kwargs:
        raise ValidationError("integrator.horizon is required for this task", key="horizon")
    return IntegratorConfig(**kwargs)


def _build_initial(section, manifold, context="initial"):
    section = _expect_mapping(section, context)
    _check_keys(section, {"position", "velocity"}, {"position", "velocity"}, context)
    return (_vector(section, "position", context, manifold.dim),
            _vector(section, "velocity", context, manifold.dim))


def _build_gpw(section, manifold):
    section = _expect_mapping(section, "gpw")
    _check_keys(section, {"wave", "witness", "initial", "oracle_check"},
                {"wave", "witness"}, "gpw")
    wave_sec = _expect_mapping(section["wave"], "gpw.wave")
    wave = catalog.build_wave(*_catalog_entry(wave_sec, "gpw.wave"))
    witness = _expect_mapping(section["witness"], "gpw.witness")
    _check_keys(witness, {"x", "u"}, {"x", "u"}, "gpw.witness")
    wx = _vector(witness, "x", "gpw.witness", manifold.dim)
    wu = _number(witness, "u", "gpw.witness", required=True)
    try:
        st = GpwSpacetime(base=manifold, wave=wave, nonzero_witness=(wx, wu))
    except ValueError as exc:
        raise ValidationError(str(exc), key="witness") from exc
    except TypeError as exc:
        raise ValidationError(
            f"gpw.wave could not be evaluated on a {manifold.dim}-dimensional chart: {exc}",
            key="wave") from exc

    init = None
    if "initial" in section:
        init_sec = _expect_mapping(section["initial"], "gpw.initial")
        _check_keys(init_sec, {"x", "xdot", "u", "udot", "v", "vdot"}, {"x", "xdot"}, "gpw.initial")
        init = GeodesicInitialData(
            x0=_vector(init_sec, "x", "gpw.initial", manifold.dim),
            xdot0=_vector(init_sec, "xdot", "gpw.initial", manifold.dim),
            u0=_number(init_sec, "u", "gpw.initial", default=0.0),
            udot0=_number(init_sec, "udot", "gpw.initial", default=1.0),
            v0=_number(init_sec, "v", "gpw.initial", default=0.0),
            vdot0=_number(init_sec, "vdot", "gpw.initial", default=0.0),
        )
    return st, init, bool(section.get("oracle_check", False))


def _build_map(section, manifold):
    section = _expect_mapping(section, "map")
    _check_keys(section, {"x0_grid", "xdot0", "deltas", "u0", "v0", "vdot0"},
                {"x0_grid", "xdot0", "deltas"}, "map")
    deltas = _vector(section, "deltas", "map")
    if deltas.size == 0:
        raise ValidationError("map.deltas must be a nonempty list of numbers", key="deltas")
    return {
        "x0_grid": _build_grid(section["x0_grid"], "map.x0_grid", manifold.dim),
        "xdot0": _vector(section, "xdot0", "map", manifold.dim),
        "deltas": deltas.tolist(),
        "u0": _number(section, "u0", "map", default=0.0),
        "v0": _number(section, "v0", "map", default=0.0),
        "vdot0": _number(section, "vdot0", "map", default=0.0),
    }


def _build_compare(section):
    section = _expect_mapping(section, "compare_lemma")
    _check_keys(section, {"phi", "a", "v0_init", "t_max", "check_points"},
                {"phi", "a", "v0_init", "t_max"}, "compare_lemma")
    try:
        expr = parse_expression(str(section["phi"]), ("s",))
    except ParseError as exc:
        raise ValidationError(f"bad expression in compare_lemma.phi: {exc}", key="phi") from exc
    check_points = section.get("check_points", 33)
    if not isinstance(check_points, int) or isinstance(check_points, bool) or check_points < 3:
        raise ValidationError("compare_lemma.check_points must be an integer >= 3",
                              key="check_points")
    _check_samples(check_points, "compare_lemma.check_points", "check_points")
    spec = {
        "phi": expr,
        "phi_source": str(section["phi"]),
        "a": _number(section, "a", "compare_lemma", required=True),
        "v0_init": _number(section, "v0_init", "compare_lemma", required=True),
        "t_max": _number(section, "t_max", "compare_lemma", required=True),
        "check_points": check_points,
    }
    # the dominating solution starts inside phi's domain [a, inf) and runs forward
    if not spec["v0_init"] >= spec["a"]:
        raise ValidationError("compare_lemma.v0_init must not be below a", key="v0_init")
    if not spec["t_max"] > 0:
        raise ValidationError("compare_lemma.t_max must be positive", key="t_max")
    return spec


def _canonicalize(raw, scenario):
    # deep copy with deterministic ordering on write; defaults that affect the
    # run are materialized so the echoed file reproduces the identical report
    out = json.loads(json.dumps(raw))
    if scenario.task == "integrate":
        out.setdefault("direction", scenario.direction)
        out.setdefault("refine", scenario.refine)
    if scenario.config is not None:
        integ = out.setdefault("integrator", {})
        for key in sorted(_INTEGRATOR_KEYS):
            val = getattr(scenario.config, key)
            if np.isfinite(val):
                integ.setdefault(key, val)
    return out


def parse_scenario(raw):
    """Validate a scenario mapping and construct every object it references."""
    _check_keys(raw, _TOP_KEYS, {"name", "task"}, "scenario")
    name = raw["name"]
    if not isinstance(name, str) or not name:
        raise ValidationError("scenario.name must be a nonempty string", key="name")
    task = raw["task"]
    if task not in TASKS:
        raise ValidationError(f"unknown task {task!r}; expected one of {TASKS}", key="task")
    _check_keys(raw, _TASK_ALLOWS[task], _TASK_REQUIRES[task] | {"name", "task"}, f"scenario ({task})")

    sc = Scenario(name=name, task=task, canonical={})

    if "manifold" in raw:
        sc.manifold = _build_manifold(raw["manifold"])
    if "gpw" in raw:
        sc.spacetime, sc.gpw_initial, sc.gpw_oracle_check = _build_gpw(raw["gpw"], sc.manifold)
    elif task in ("integrate", "certify", "envelope"):
        sc.force = _build_force(raw.get("force"), sc.manifold)
    if "bounds" in raw:
        sc.bounds = _build_bounds(raw["bounds"], sc.manifold)
        if task == "certify" and sc.spacetime is not None \
                and len(sc.bounds.grid) < LINEAR_GROWTH_MIN_POINTS:
            # the wave's linear-growth premise compares deciles of the grid's distances
            raise ValidationError(f"bounds.grid.shape gives {len(sc.bounds.grid)} points; a gpw "
                                  f"certificate needs at least {LINEAR_GROWTH_MIN_POINTS}",
                                  key="shape")
    if "integrator" in raw or task in ("integrate", "envelope", "gpw-geodesic", "gpw-map"):
        sc.config = _build_config(raw.get("integrator"), task)
    if task == "envelope" and sc.config.horizon > sc.bounds.T:
        # the energy frame, and so the envelope, holds only on [-T, T]
        raise ValidationError("integrator.horizon must not exceed bounds.T for an envelope",
                              key="horizon")
    if "initial" in raw:
        sc.initial = _build_initial(raw["initial"], sc.manifold)
    if "probe_initial" in raw:
        if sc.spacetime is not None:
            # the probe integrates sc.force, and a wave scenario has none
            raise ValidationError("probe_initial applies only to force-system certificates; "
                                  "a gpw scenario has no force system to probe", key="probe_initial")
        sc.probe_initial = _build_initial(raw["probe_initial"], sc.manifold, "probe_initial")
        if not isinstance(raw.get("integrator"), dict) or "horizon" not in raw["integrator"]:
            raise ValidationError("probe_initial requires integrator.horizon", key="probe_initial")
    if "direction" in raw:
        if raw["direction"] not in (FORWARD, BACKWARD):
            raise ValidationError("direction must be 'forward' or 'backward'", key="direction")
        sc.direction = raw["direction"]
    if "refine" in raw:
        if not isinstance(raw["refine"], bool):
            raise ValidationError("refine must be a boolean", key="refine")
        sc.refine = raw["refine"]
    if task == "gpw-geodesic" and sc.gpw_initial is None:
        raise ValidationError("gpw.initial is required for gpw-geodesic", key="initial")
    if task == "gpw-map":
        sc.map_spec = _build_map(raw["map"], sc.manifold)
    if task == "compare-lemma":
        sc.compare = _build_compare(raw["compare_lemma"])

    output = raw.get("output", {})
    output = _expect_mapping(output, "output")
    _check_keys(output, {"trajectory_csv", "report_txt", "report_json", "map_csv"}, set(), "output")
    sc.outputs = {
        "trajectory_csv": output.get("trajectory_csv", f"{name}.csv"),
        "report_txt": output.get("report_txt", f"{name}.report.txt"),
        "report_json": output.get("report_json", f"{name}.report.json"),
        "map_csv": output.get("map_csv", f"{name}.map.csv"),
    }
    sc.canonical = _canonicalize(raw, sc)
    return sc
