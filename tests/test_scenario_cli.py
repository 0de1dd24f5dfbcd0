import json
import math

import numpy as np
import pytest

from wavetraj.cli import main
from wavetraj.errors import ParseError, ValidationError
from wavetraj.runner import run_scenario
from wavetraj.scenario import apply_overrides, bundled_scenarios, load_scenario, parse_scenario

MINIMAL_INTEGRATE = {
    "name": "mini",
    "task": "integrate",
    "manifold": {"catalog": "euclidean", "params": {"n": 1}},
    "integrator": {"horizon": 1.0},
    "initial": {"position": [0.0], "velocity": [1.0]},
}


def test_bundled_scenarios_all_parse():
    bundle = bundled_scenarios()
    assert len(bundle) >= 10
    for name, path in bundle.items():
        sc = load_scenario(path)
        assert sc.name == name


def test_unknown_top_level_key_rejected():
    raw = dict(MINIMAL_INTEGRATE, typo_key=1)
    with pytest.raises(ValidationError, match="typo_key"):
        parse_scenario(raw)


def test_missing_task_rejected():
    raw = {k: v for k, v in MINIMAL_INTEGRATE.items() if k != "task"}
    with pytest.raises(ValidationError, match="task"):
        parse_scenario(raw)


def test_unknown_section_key_rejected():
    raw = json.loads(json.dumps(MINIMAL_INTEGRATE))
    raw["integrator"]["cleverness"] = 11
    with pytest.raises(ValidationError, match="cleverness"):
        parse_scenario(raw)


def test_task_specific_sections_enforced():
    raw = dict(MINIMAL_INTEGRATE, bounds={"alpha0": "0", "beta0": "0", "T": 1.0,
                                          "grid": {"min": [0.0], "max": [1.0], "shape": [2]}})
    with pytest.raises(ValidationError, match="bounds"):
        parse_scenario(raw)


def test_malformed_json_carries_position(tmp_path):
    path = tmp_path / "malformed.scn"
    path.write_text('{"name": "x",\n  "task" "integrate"}')
    with pytest.raises(ParseError) as excinfo:
        load_scenario(path)
    assert excinfo.value.line == 2


def test_unknown_catalog_name():
    raw = json.loads(json.dumps(MINIMAL_INTEGRATE))
    raw["manifold"]["catalog"] = "torus"
    with pytest.raises(ValidationError, match="torus"):
        parse_scenario(raw)


def test_manifold_christoffel_key_is_rejected(tmp_path):
    raw = {
        "name": "christoffel-key",
        "task": "integrate",
        "manifold": {"metric": [["1 + x1^2", "0"], ["0", "1"]],
                     "christoffel": "not even an expression"},
        "integrator": {"horizon": 0.5},
        "initial": {"position": [2.0, 0.0], "velocity": [0.0, 0.0]},
    }
    with pytest.raises(ValidationError, match="christoffel"):
        parse_scenario(raw)
    path = tmp_path / "christoffel-key.scn"
    path.write_text(json.dumps(raw))
    assert main(["validate", str(path)]) == 2


def test_expression_metric_manifold():
    raw = {
        "name": "expr-metric",
        "task": "integrate",
        "manifold": {"metric": [["1 + x1^2", "0"], ["0", "1"]], "complete": False},
        "integrator": {"horizon": 0.5},
        "initial": {"position": [2.0, 0.0], "velocity": [0.0, 0.0]},
    }
    sc = parse_scenario(raw)
    from wavetraj.geometry import metric_at

    np.testing.assert_allclose(metric_at(sc.manifold, [2.0, 0.0]), np.diag([5.0, 1.0]))


def test_apply_overrides_dotted():
    raw = apply_overrides(MINIMAL_INTEGRATE, ["integrator.horizon=2.5", "name=other"])
    assert raw["integrator"]["horizon"] == 2.5
    assert raw["name"] == "other"
    assert MINIMAL_INTEGRATE["integrator"]["horizon"] == 1.0  # original untouched


def test_override_bad_format():
    with pytest.raises(ValidationError, match="key=value"):
        apply_overrides(MINIMAL_INTEGRATE, ["horizon"])


def test_run_scenario_writes_reports(tmp_path):
    sc = parse_scenario(MINIMAL_INTEGRATE)
    report = run_scenario(sc, tmp_path)
    assert (tmp_path / "mini.report.txt").exists()
    assert (tmp_path / "mini.report.json").exists()
    assert (tmp_path / "mini.csv").exists()
    assert report.outcome["kind"] == "HorizonReached"
    payload = json.loads((tmp_path / "mini.report.json").read_text())
    assert payload["scenario"] == "mini"
    assert payload["outcome"]["kind"] == "HorizonReached"


def test_report_renderings_agree_field_for_field(tmp_path):
    sc = parse_scenario(MINIMAL_INTEGRATE)
    run_scenario(sc, tmp_path)
    txt = (tmp_path / "mini.report.txt").read_text()
    payload = json.loads((tmp_path / "mini.report.json").read_text())

    def flat(prefix, value, out):
        if isinstance(value, dict):
            for k in value:
                flat(f"{prefix}.{k}" if prefix else k, value[k], out)
        elif isinstance(value, list):
            if not value:
                out[f"{prefix}"] = "[]"
            for i, item in enumerate(value):
                flat(f"{prefix}[{i}]", item, out)
        else:
            out[prefix] = value

    fields = {}
    flat("", payload, fields)
    txt_lines = dict(line.split(": ", 1) for line in txt.strip().splitlines())
    assert set(fields) == set(txt_lines)


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "euclidean(n)" in out
    assert "hyperbolic_half_plane" in out
    assert "plane_wave(f1,f2,f)" in out
    lines = [l.strip() for l in out.splitlines() if l.startswith("  ")]
    assert lines == sorted(lines, key=lambda s: s.split("  -  ")[0]) or True
    # alphabetized within each section
    sections = {}
    current = None
    for line in out.splitlines():
        if line.endswith(":"):
            current = line
            sections[current] = []
        elif line.strip():
            sections[current].append(line.strip())
    for names in sections.values():
        assert names == sorted(names)


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "good.scn"
    good.write_text(json.dumps(MINIMAL_INTEGRATE))
    bad = tmp_path / "bad.scn"
    bad.write_text('{"name": "x"}')
    assert main(["validate", str(good)]) == 0
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "task" in err


def test_cli_run_and_exit_codes(tmp_path, capsys):
    scn = tmp_path / "mini.scn"
    scn.write_text(json.dumps(MINIMAL_INTEGRATE))
    out_dir = tmp_path / "out"
    assert main(["run", str(scn), "--output-dir", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "HorizonReached" in out
    missing_task = tmp_path / "broken.scn"
    missing_task.write_text('{"name": "broken"}')
    assert main(["run", str(missing_task), "--output-dir", str(out_dir)]) == 2


def test_cli_refuses_a_gpw_certificate_grid_too_small_for_deciles(tmp_path, capsys):
    # the wave's linear-growth premise compares distance deciles of at least 20 points
    scn = bundled_scenarios()["plane-wave-certify"]
    out_dir = tmp_path / "out"
    assert main(["run", str(scn), "bounds.grid.shape=[3,3]", "--output-dir", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert "bounds.grid.shape gives 9 points; a gpw certificate needs at least 20" in err
    assert not out_dir.exists()
    assert main(["run", str(scn), "bounds.grid.shape=[4,5]", "--output-dir", str(out_dir)]) == 0


def test_cli_refuses_a_gpw_anchor_as_an_unknown_key(tmp_path, capsys):
    # the linear-growth premise measures distances from the chart origin; nothing moves it
    scn = bundled_scenarios()["plane-wave-certify"]
    out_dir = tmp_path / "out"
    assert main(["run", str(scn), "gpw.anchor=[1.0, 1.0]", "--output-dir", str(out_dir)]) == 2
    assert "unknown key 'anchor' in gpw" in capsys.readouterr().err
    assert not out_dir.exists()
    with pytest.raises(ValidationError, match="unknown key 'anchor' in gpw"):
        load_scenario(scn, ["gpw.anchor=[1.0, 1.0]"])


def test_cli_run_with_flag_overrides(tmp_path):
    scn = tmp_path / "mini.scn"
    scn.write_text(json.dumps(MINIMAL_INTEGRATE))
    out_dir = tmp_path / "out"
    assert main(["run", str(scn), "integrator.horizon=2.0", "--output-dir", str(out_dir)]) == 0
    payload = json.loads((out_dir / "mini.report.json").read_text())
    assert payload["config"]["integrator"]["horizon"] == 2.0
    assert payload["outcome"]["t_span"] == [0.0, 2.0]


def test_cli_run_takes_overrides_after_an_option(tmp_path):
    scn = tmp_path / "mini.scn"
    scn.write_text(json.dumps(MINIMAL_INTEGRATE))
    out_dir = tmp_path / "out"
    assert main(["run", str(scn), "--output-dir", str(out_dir), "integrator.horizon=2.0"]) == 0
    payload = json.loads((out_dir / "mini.report.json").read_text())
    assert payload["config"]["integrator"]["horizon"] == 2.0
    assert payload["outcome"]["t_span"] == [0.0, 2.0]
    # a word after an option that is not key=value is still an error
    for stray in ("other.scn", "--bogus=1"):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", str(scn), "--output-dir", str(out_dir), stray])
        assert excinfo.value.code == 2


def test_echo_config_reproduces_report(tmp_path):
    scn = tmp_path / "mini.scn"
    scn.write_text(json.dumps(MINIMAL_INTEGRATE))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", str(scn), "--output-dir", str(out_a), "--echo-config"]) == 0
    echoed = out_a / "mini.echo.scn"
    assert echoed.exists()
    assert main(["run", str(echoed), "--output-dir", str(out_b)]) == 0
    assert (out_a / "mini.report.json").read_bytes() == (out_b / "mini.report.json").read_bytes()
    assert (out_a / "mini.csv").read_bytes() == (out_b / "mini.csv").read_bytes()


def test_cli_batch_reports_match_run_scenario(tmp_path):
    paths = []
    for k in range(3):
        raw = json.loads(json.dumps(MINIMAL_INTEGRATE))
        raw["name"] = f"mini{k}"
        raw["initial"]["velocity"] = [1.0 + k]
        p = tmp_path / f"mini{k}.scn"
        p.write_text(json.dumps(raw))
        paths.append(p)
    out_cli = tmp_path / "cli"
    out_api = tmp_path / "api"
    assert main(["run", *map(str, paths), "--output-dir", str(out_cli)]) == 0
    for p in paths:
        run_scenario(load_scenario(p), out_api)
    written = sorted(f.name for f in out_cli.iterdir())
    assert written == sorted(f.name for f in out_api.iterdir())
    assert len(written) == 9
    for name in written:
        assert (out_cli / name).read_bytes() == (out_api / name).read_bytes(), name


@pytest.mark.parametrize("root", ["null", "3"])
def test_cli_batch_survives_a_non_mapping_root(tmp_path, capsys, root):
    good = tmp_path / "mini.scn"
    good.write_text(json.dumps(MINIMAL_INTEGRATE))
    bad = tmp_path / "scalar-root.scn"
    bad.write_text(root)
    out_dir = tmp_path / "out"
    for extra in ([], ["integrator.horizon=2.0"]):
        assert main(["run", str(bad), str(good), *extra, "--output-dir", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert "mini: integrate -> HorizonReached" in captured.out
        assert "scenario root must be a mapping" in captured.err


def test_tensor_force_scenario_paths(tmp_path):
    # a metric-skew rotation force does no work: the probe stays bounded and
    # the certificate sees N_T = 0 from the sampled operator bounds
    raw = {
        "name": "rotated",
        "task": "certify",
        "manifold": {"catalog": "euclidean", "params": {"n": 2}},
        "force": {"potential": {"catalog": "harmonic"},
                  "tensor": {"catalog": "skew_rotation", "params": {"omega": 2.0}}},
        "bounds": {"alpha0": "0", "beta0": "0", "T": 3.0,
                   "grid": {"min": [-2.0, -2.0], "max": [2.0, 2.0], "shape": [5, 5]}},
        "integrator": {"horizon": 5.0},
        "probe_initial": {"position": [1.0, 0.0], "velocity": [0.0, 0.5]},
    }
    report = run_scenario(parse_scenario(raw), tmp_path)
    assert report.certificate["verdict"] == "complete-by-potential-bounds"
    evidence = {e["name"]: e for e in report.certificate["evidence"]}
    assert evidence["operator_bound_two_sided"]["values"]["N_T"] == pytest.approx(0.0, abs=1e-12)
    assert report.outcome["probe"]["kind"] == "HorizonReached"
    assert not report.conflict

    # expression tensor matrices validate shape strictly
    bad = json.loads(json.dumps(raw))
    bad["force"]["tensor"] = {"expr_matrix": [["0", "1"]]}
    with pytest.raises(ValidationError, match="expr_matrix"):
        parse_scenario(bad)


def test_backward_scenario_through_runner(tmp_path):
    raw = {
        "name": "back",
        "task": "integrate",
        "manifold": {"catalog": "euclidean", "params": {"n": 2}},
        "force": {"potential": {"catalog": "harmonic"}},
        "integrator": {"horizon": 5.0},
        "initial": {"position": [1.0, 0.0], "velocity": [0.0, 0.0]},
        "direction": "backward",
    }
    report = run_scenario(parse_scenario(raw), tmp_path)
    assert report.outcome["kind"] == "HorizonReached"
    assert report.outcome["t_span"] == [-5.0, 0.0]
    lines = (tmp_path / "back.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "0.0"  # no negative zero in artifacts
    assert float(lines[-1].split(",")[0]) == -5.0


def test_envelope_task_on_autonomous_system(tmp_path):
    # conserved energy under the floored comparison rate: margin stays within slack
    raw = {
        "name": "flat-envelope",
        "task": "envelope",
        "manifold": {"catalog": "euclidean", "params": {"n": 2}},
        "force": {"potential": {"catalog": "harmonic"}},
        "bounds": {"alpha0": "0", "beta0": "0", "T": 3.0,
                   "grid": {"min": [-2.0, -2.0], "max": [2.0, 2.0], "shape": [5, 5]}},
        "integrator": {"horizon": 3.0},
        "initial": {"position": [1.0, 0.0], "velocity": [0.0, 1.0]},
    }
    report = run_scenario(parse_scenario(raw), tmp_path)
    assert report.envelope["frame"]["A_T_star"] == 0.0
    assert report.envelope["check"]["passed"]
    assert report.envelope["fd_identity_max_rel_error"] < 1e-4


def test_envelope_horizon_beyond_the_window_is_rejected(tmp_path):
    raw = {
        "name": "long-envelope",
        "task": "envelope",
        "manifold": {"catalog": "euclidean", "params": {"n": 2}},
        "force": {"potential": {"catalog": "harmonic"}},
        "bounds": {"alpha0": "0", "beta0": "0", "T": 3.0,
                   "grid": {"min": [-2.0, -2.0], "max": [2.0, 2.0], "shape": [3, 3]}},
        "integrator": {"horizon": 5.0},
        "initial": {"position": [1.0, 0.0], "velocity": [0.0, 1.0]},
    }
    with pytest.raises(ValidationError, match="horizon"):
        parse_scenario(raw)
    scn = tmp_path / "long.scn"
    scn.write_text(json.dumps(raw))
    assert main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("task", ["certify", "envelope"])
def test_operator_bound_samples_the_bounds_time_grid(tmp_path, task):
    # with t_samples 3 on T = 3 every premise sees t in {-3, 0, 3}, and so
    # does N_T: for F = sin(t) I it is |sin(3)| there, not the ~1 of a finer grid
    raw = {
        "name": f"window-{task}",
        "task": task,
        "manifold": {"catalog": "euclidean", "params": {"n": 2}},
        "force": {"potential": {"catalog": "harmonic"},
                  "tensor": {"catalog": "time_scalar", "params": {"expr": "sin(t)", "n": 2}}},
        "bounds": {"alpha0": "0", "beta0": "0", "T": 3.0, "t_samples": 3,
                   "grid": {"min": [-2.0, -2.0], "max": [2.0, 2.0], "shape": [5, 5]}},
    }
    if task == "envelope":
        raw["integrator"] = {"horizon": 3.0}
        raw["initial"] = {"position": [1.0, 0.0], "velocity": [0.0, 1.0]}
    sc = parse_scenario(raw)
    report = run_scenario(sc, tmp_path)
    if task == "certify":
        evidence = {e["name"]: e for e in report.certificate["evidence"]}
        n_t = evidence["operator_bound_two_sided"]["values"]["N_T"]
        assert evidence["operator_bound_two_sided"]["values"]["T"] == 3.0
    else:
        n_t = report.envelope["frame"]["N_T"]
        assert report.envelope["frame"]["T"] == 3.0
    assert n_t == pytest.approx(float(np.abs(np.sin(sc.bounds.t_grid)).max()), rel=1e-12)
    assert n_t == pytest.approx(0.14112000805986721, rel=1e-12)


def test_bundled_blowup_scenario_reports_refined_interval(tmp_path):
    path = bundled_scenarios()["quartic-blowup"]
    report = run_scenario(load_scenario(path), tmp_path)
    assert report.outcome["kind"] == "BlowUpSuspected"
    refined = report.outcome["blowup_refined"]
    assert abs(refined["estimate"] - 2.0 ** -0.5) < 1e-3
    assert refined["t_lo"] <= 2.0 ** -0.5 <= refined["t_hi"]


def test_bundled_blowup_refinement_costs_less_than_the_coarse_run(tmp_path):
    # the refinement continues the coarse run near the singular time; a
    # re-run from t = 0 would cost at least as many RHS calls as the run itself
    path = bundled_scenarios()["quartic-blowup"]
    report = run_scenario(load_scenario(path), tmp_path)
    assert 0 < report.outcome["blowup_refined"]["n_rhs"] < report.outcome["n_rhs"]


def test_cli_batch_survives_an_expression_evaluation_error(tmp_path, capsys):
    good = tmp_path / "mini.scn"
    good.write_text(json.dumps(MINIMAL_INTEGRATE))
    bad = tmp_path / "log-certify.scn"
    bad.write_text(json.dumps({
        "name": "log-certify",
        "task": "certify",
        "manifold": {"catalog": "euclidean", "params": {"n": 1}},
        "force": {"potential": {"expr": "log(x1)"}},
        "bounds": {"alpha0": "0", "beta0": "0", "T": 1.0,
                   "grid": {"min": [-1.0], "max": [1.0], "shape": [5]}},
    }))
    out_dir = tmp_path / "out"
    assert main(["run", str(bad), str(good), "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert "mini: integrate -> HorizonReached" in captured.out
    assert "EvaluationError" in captured.err and "log(x1)" in captured.err
    assert "Traceback" not in captured.err


def test_cli_batch_survives_a_non_finite_tensor_sample(tmp_path, capsys):
    # x1^0.5 cannot be evaluated on the grid's x1 < 0 half: the chart point
    # reaches the tensor as Python floats, so the sample raises a typed
    # EvaluationError naming the entry, and the batch runs on
    good = tmp_path / "mini.scn"
    good.write_text(json.dumps(MINIMAL_INTEGRATE))
    bad = tmp_path / "sqrt-tensor.scn"
    bad.write_text(json.dumps({
        "name": "sqrt-tensor",
        "task": "certify",
        "manifold": {"catalog": "euclidean", "params": {"n": 2}},
        "force": {"potential": {"catalog": "harmonic"},
                  "tensor": {"expr_matrix": [["x1^0.5", "0"], ["0", "0"]]}},
        "bounds": {"alpha0": "0", "beta0": "0", "T": 1.0,
                   "grid": {"min": [-1.0, -1.0], "max": [1.0, 1.0], "shape": [3, 3]}},
    }))
    out_dir = tmp_path / "out"
    assert main(["run", str(bad), str(good), "--output-dir", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert "mini: integrate -> HorizonReached" in captured.out
    assert "EvaluationError" in captured.err and "x1^0.5" in captured.err
    assert "Traceback" not in captured.err


def test_gpw_map_csv_consistent_with_report(tmp_path):
    path = bundled_scenarios()["gpw-map"]
    report = run_scenario(load_scenario(path), tmp_path)
    lines = (tmp_path / "gpw-map.map.csv").read_text().splitlines()
    assert lines[0] == "x0_1,x0_2,delta,outcome,t_star"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == report.outcome["n_runs"]
    codes = report.outcome["outcome_codes"]
    from collections import Counter

    counted = Counter(int(r[3]) for r in rows)
    for kind, count in report.outcome["counts"].items():
        assert counted[codes[kind]] == count
    # blow-up rows carry an estimate, complete rows leave it blank
    for r in rows:
        assert (r[4] == "") == (int(r[3]) == 0)


def test_canonical_form_idempotent_for_all_bundled():
    # the echoed canonical scenario must re-validate and canonicalize to itself
    for name, path in bundled_scenarios().items():
        sc = load_scenario(path)
        sc_again = parse_scenario(json.loads(json.dumps(sc.canonical)))
        assert sc_again.canonical == sc.canonical, name


def test_bundled_scenarios_complete_within_budget(tmp_path):
    import time

    started = time.perf_counter()
    for name, path in bundled_scenarios().items():
        run_scenario(load_scenario(path), tmp_path / name)
    assert time.perf_counter() - started < 60.0


def test_certify_probe_conflict_flag(tmp_path):
    # V = x^2 - x^4 is nonnegative on the sampled window [-1, 1] so the
    # certificate passes on sampled evidence, yet trajectories started outside
    # the well blow up: the report must flag the conflict, resolving neither
    raw = {
        "name": "conflict",
        "task": "certify",
        "manifold": {"catalog": "euclidean", "params": {"n": 1}},
        "force": {"potential": {"expr": "x1^2 - x1^4"}},
        "bounds": {"alpha0": "0", "beta0": "0", "T": 2.0,
                   "grid": {"min": [-1.0], "max": [1.0], "shape": [9]}},
        "integrator": {"horizon": 4.0},
        "probe_initial": {"position": [2.0], "velocity": [1.0]},
    }
    sc = parse_scenario(raw)
    report = run_scenario(sc, tmp_path)
    assert report.certificate["verdict"] != "inconclusive"
    assert report.outcome["probe"]["kind"] == "BlowUpSuspected"
    assert report.conflict


def test_runtime_needs_neither_scipy_nor_sympy_nor_hypothesis(tmp_path):
    # the tests use scipy, sympy and hypothesis; a run of the package imports
    # none of them: not a certificate, not a split geodesic with its
    # v-quadrature (delta != 0), not the operator eigen scan of a tensor force
    import pathlib
    import subprocess
    import sys

    import wavetraj

    tensor_certify = {
        "name": "tensor-certify", "task": "certify",
        "manifold": {"catalog": "euclidean", "params": {"n": 2}},
        "force": {"potential": {"catalog": "harmonic"},
                  "tensor": {"catalog": "time_scalar", "params": {"expr": "sin(t)", "n": 2}}},
        "bounds": {"alpha0": "0", "beta0": "0", "T": 1.0,
                   "grid": {"min": [-1.0, -1.0], "max": [1.0, 1.0], "shape": [3, 3]}},
    }
    script = (
        "import sys\n"
        "from wavetraj.runner import run_scenario\n"
        "from wavetraj.scenario import bundled_scenarios, load_scenario, parse_scenario\n"
        "for name in ('plane-wave-certify', 'plane-wave-geodesic'):\n"
        f"    run_scenario(load_scenario(bundled_scenarios()[name]), {str(tmp_path)!r})\n"
        f"run_scenario(parse_scenario({tensor_certify!r}), {str(tmp_path)!r})\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('scipy', 'sympy', 'hypothesis')))\n"
    )
    src = str(pathlib.Path(wavetraj.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""}, check=True)
    assert out.stdout.strip() == "[]"
    for name in ("plane-wave-certify", "plane-wave-geodesic", "tensor-certify"):
        assert (tmp_path / f"{name}.report.json").exists()
    evidence = json.loads((tmp_path / "tensor-certify.report.json").read_text())
    assert "operator_bound_two_sided" in {e["name"] for e in evidence["certificate"]["evidence"]}


PLANE_WAVE_CERTIFY = {
    "name": "bad", "task": "certify",
    "manifold": {"catalog": "euclidean", "params": {"n": 2}},
    "gpw": {"wave": {"catalog": "plane_wave", "params": {"f1": "1 + u^2", "f2": "2", "f": "u"}},
            "witness": {"x": [1.0, 0.0], "u": 0.0}},
    "bounds": {"alpha0": "1", "beta0": "0", "T": 1.0,
               "grid": {"min": [-1.0, -1.0], "max": [1.0, 1.0], "shape": [3, 3]}},
}
SMALL_MAP = {
    "name": "bad", "task": "gpw-map",
    "manifold": {"catalog": "euclidean", "params": {"n": 2}},
    "gpw": {"wave": {"catalog": "plane_wave", "params": {"f1": "1"}},
            "witness": {"x": [1.0, 0.0], "u": 0.0}},
    "map": {"x0_grid": {"min": [0.5, 0.5], "max": [1.0, 1.0], "shape": [1, 1]},
            "xdot0": [0.0, 0.0], "deltas": [1.0]},
    "integrator": {"horizon": 0.5},
}
SMALL_GEODESIC = {
    "name": "bad", "task": "gpw-geodesic",
    "manifold": {"catalog": "euclidean", "params": {"n": 2}},
    "gpw": {"wave": {"catalog": "plane_wave", "params": {"f1": "1"}},
            "witness": {"x": [1.0, 0.0], "u": 0.0},
            "initial": {"x": [1.0, 0.0], "xdot": [0.0, 0.0]}},
    "integrator": {"horizon": 0.5},
}
SMALL_COMPARE = {"name": "bad", "task": "compare-lemma",
                 "compare_lemma": {"phi": "s", "a": 1.0, "v0_init": 2.0, "t_max": 1.0}}
BAD_INTEGRATE = dict(MINIMAL_INTEGRATE, name="bad")

# (template, overrides, exit status, the text the one stderr line must hold)
BAD_INPUTS = {
    **{f"integrator.{key}={value}": (BAD_INTEGRATE, [f"integrator.{key}={value}"], 2, key)
       for key, value in (("horizon", 0), ("horizon", -1), ("horizon", "Infinity"), ("rel_tol", 0),
                          ("abs_tol", -1e-12), ("max_step", 0), ("speed_ceiling", -1),
                          ("min_step_fraction", 0))},
    **{f"euclidean-n={value}": (BAD_INTEGRATE, [f"manifold.params.n={value}"], 2, "'n'")
       for value in ('"two"', 0, -1, "true", 1.5)},
    "harmonic-k=big": (BAD_INTEGRATE, ["force.potential.catalog=harmonic",
                                       'force.potential.params.k="big"'], 2, "'k'"),
    "map.xdot0-length": (SMALL_MAP, ["map.xdot0=[0.0, 0.0, 0.0]"], 2, "xdot0"),
    "scalar_multiple-n": (BAD_INTEGRATE, ["force.tensor.catalog=scalar_multiple",
                                          "force.tensor.params.c=1.0",
                                          "force.tensor.params.n=3"], 2, "n = 3"),
    "time_scalar-n": (BAD_INTEGRATE, ["force.tensor.catalog=time_scalar",
                                      'force.tensor.params.expr="t"',
                                      "force.tensor.params.n=2"], 2, "n = 2"),
    "skew_rotation-off-the-plane": (BAD_INTEGRATE, ["force.tensor.catalog=skew_rotation"], 2, "n = 2"),
    **{f"map.deltas={value}": (SMALL_MAP, [f"map.deltas={value}"], 2, "deltas")
       for value in ('["x"]', "[null]", "[true]")},
    **{f"bounds.T={value}": (PLANE_WAVE_CERTIFY, [f"bounds.T={value}"], 2, "bounds.T")
       for value in ("NaN", "Infinity")},
    "manifold.complete-text": (BAD_INTEGRATE, ['manifold={"metric": [["1"]], "complete": "no"}'],
                               2, "complete"),
    "diagonal_conformal-complete-text": (
        BAD_INTEGRATE, ['manifold={"catalog": "diagonal_conformal", '
                        '"params": {"entries": ["1"], "complete": "no"}}'], 2, "complete"),
    "diagonal_conformal-entry-not-text": (
        BAD_INTEGRATE, ['manifold={"catalog": "diagonal_conformal", "params": {"entries": [1]}}'],
        2, "entries"),
    "compare_lemma.t_max=0": (SMALL_COMPARE, ["compare_lemma.t_max=0"], 2, "t_max"),
    "compare_lemma.t_max=-1": (SMALL_COMPARE, ["compare_lemma.t_max=-1"], 2, "t_max"),
    "compare_lemma.v0_init<a": (SMALL_COMPARE, ["compare_lemma.v0_init=0.5"], 2, "v0_init"),
    # the gradient of 1e400*x1 is infinite, so the vector field is not finite at the start
    "infinite-rhs": (BAD_INTEGRATE, ['force.potential.expr="1e400*x1"'], 1, "InvalidInit"),
    # 400*x1^399 overflows at x1 = 10: a Python-float power raises there
    "overflowing-power-at-the-start": (BAD_INTEGRATE, ['force.potential.expr="x1^400"',
                                                       "initial.position=[10.0]"],
                                       1, "InvalidInit"),
    **{f"euclidean-n={value}": (BAD_INTEGRATE, [f"manifold.params.n={value}"], 2, "'n'")
       for value in ("1" + "0" * 400, 101)},
    "harmonic-k=10**400": (BAD_INTEGRATE, ["force.potential.catalog=harmonic",
                                           "force.potential.params.k=1" + "0" * 400], 2, "'k'"),
    "expression-wave-H-not-text": (
        PLANE_WAVE_CERTIFY, ['gpw.wave={"catalog": "expression", "params": {"H": 5, "n": 2}}'],
        2, "parameter 'H' of catalog entry 'expression'"),
    # (G + G^T)/2 is inf: a NotPositiveDefinite line, with no overflow warning
    "metric-average-overflows": (BAD_INTEGRATE, ['manifold={"metric": [["1e308"]]}'], 1,
                                 "NotPositiveDefinite: metric not finite"),
    # each count would allocate terabytes: the cap rejects it while parsing
    "bounds.t_samples=10**13": (PLANE_WAVE_CERTIFY, [f"bounds.t_samples={10**13}"], 2,
                                "bounds.t_samples requests"),
    "bounds.grid.shape-10**13": (PLANE_WAVE_CERTIFY, [f"bounds.grid.shape=[{10**13}, 2]"], 2,
                                 "bounds.grid.shape at 41 times requests"),
    "map.x0_grid.shape-10**13": (SMALL_MAP, [f"map.x0_grid.shape=[{10**13}, 1]"], 2,
                                 "map.x0_grid.shape requests"),
    "compare_lemma.check_points=10**13": (SMALL_COMPARE, [f"compare_lemma.check_points={10**13}"],
                                          2, "compare_lemma.check_points requests"),
    # past MAX_DEPTH an expression is a parse error; these raised RecursionError
    # while parsing, and the product a SyntaxError when its geodesic term compiled
    "potential-2000-nested-parentheses": (
        BAD_INTEGRATE, ['force.potential.expr="' + "(" * 2000 + "x1" + ")" * 2000 + '"'], 2,
        "deeper than"),
    "potential-3000-term-sum": (BAD_INTEGRATE, [f'force.potential.expr="{"+".join(["x1"] * 3000)}"'],
                                2, "deeper than"),
    "potential-1500-power-chain": (
        BAD_INTEGRATE, [f'force.potential.expr="{"^".join(["x1"] * 1500)}"'], 2, "deeper than"),
    "metric-200-factor-product": (
        BAD_INTEGRATE, ['manifold={"metric": [["' + "*".join(["sin(x1)"] * 200) + '"]]}'], 2,
        "deeper than"),
    # a non-finite number is refused while parsing, named by its dotted key
    "gpw.initial.vdot=NaN": (SMALL_GEODESIC, ["gpw.initial.vdot=NaN", "gpw.oracle_check=true"], 2,
                             "gpw.initial.vdot"),
    "gpw.initial.vdot=Infinity": (SMALL_GEODESIC, ["gpw.initial.vdot=Infinity"], 2,
                                  "gpw.initial.vdot"),
    "gpw.witness.u=NaN": (PLANE_WAVE_CERTIFY, ["gpw.witness.u=NaN"], 2, "gpw.witness.u"),
    "integrator.horizon=10**400": (BAD_INTEGRATE, ["integrator.horizon=1" + "0" * 400], 2,
                                   "integrator.horizon"),
    # the profile parses alone; the plane-wave template nests it past MAX_DEPTH
    "plane_wave-f1-nests-too-deeply": (
        PLANE_WAVE_CERTIFY, ['gpw.wave.params.f1="' + "sin(" * 126 + "u" + ")" * 126 + '"'], 2,
        "'f1'"),
    "time_scalar-expr-not-text": (
        BAD_INTEGRATE, ['force.tensor={"catalog": "time_scalar", "params": {"expr": 3, "n": 1}}'],
        2, "parameter 'expr' of catalog entry 'time_scalar'"),
}


@pytest.mark.parametrize("doc,key", [
    ({**PLANE_WAVE_CERTIFY, "gpw": {"wave": {"catalog": "expression", "params": {"H": 5, "n": 2}},
                                    "witness": {"x": [1.0, 0.0], "u": 0.0}}}, "H"),
    ({**BAD_INTEGRATE,
      "force": {"tensor": {"catalog": "time_scalar", "params": {"expr": 3, "n": 1}}}}, "expr"),
])
def test_a_non_string_catalog_expression_names_its_parameter(doc, key):
    with pytest.raises(ValidationError) as info:
        parse_scenario(doc)
    assert info.value.key == key
    assert f"parameter {key!r} of catalog entry" in str(info.value)


@pytest.mark.parametrize("n", [10**400, 101])
def test_a_catalog_dimension_past_the_bound_is_a_validation_error(n):
    from wavetraj.catalog import MAX_DIMENSION
    assert MAX_DIMENSION == 100
    with pytest.raises(ValidationError) as info:
        parse_scenario({**BAD_INTEGRATE, "manifold": {"catalog": "euclidean", "params": {"n": n}}})
    assert info.value.key == "n"


def test_a_time_scalar_at_the_depth_cap_builds():
    # the diagonal entry is the expr text itself, so it nests as deep as the
    # expr parsed alone; past the cap that parse names the expr's own column
    text = "sin(" * 127 + "t" + ")" * 127
    tensor = {"catalog": "time_scalar", "params": {"expr": text, "n": 1}}
    sc = parse_scenario({**BAD_INTEGRATE, "force": {"tensor": tensor}})
    c = 0.5
    for _ in range(127):
        c = math.sin(c)
    assert sc.force.tensor_F([0.0], 0.5)[0][0] == c
    with pytest.raises(ParseError, match="column 509"):
        parse_scenario({**BAD_INTEGRATE, "force": {"tensor": {
            "catalog": "time_scalar", "params": {"expr": "sin(" + text + ")", "n": 1}}}})


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_cli_batch_rejects_a_bad_input_and_runs_the_next_scenario(tmp_path, capsys, case):
    template, overrides, status, named = BAD_INPUTS[case]
    bad = tmp_path / "bad.scn"
    bad.write_text(json.dumps(apply_overrides(template, overrides)))
    good = tmp_path / "mini.scn"
    good.write_text(json.dumps(MINIMAL_INTEGRATE))
    out_dir = tmp_path / "out"
    assert main(["run", str(bad), str(good), "--output-dir", str(out_dir)]) == status
    captured = capsys.readouterr()
    lines = [line for line in captured.err.splitlines() if not line.startswith("mini: ")]
    assert len(lines) == 1 and lines[0].startswith(f"{bad}: ") and named in lines[0], captured.err
    assert "mini: integrate -> HorizonReached" in captured.out
    assert (out_dir / "mini.report.json").exists()


def test_an_envelope_run_that_stops_at_its_first_record_reports_it(tmp_path, capsys):
    # the speed is over the ceiling at t = 0, so the run has one record and
    # no envelope to check: the report says so, and the batch runs on
    raw = json.loads(bundled_scenarios()["exp-envelope"].read_text(encoding="utf-8"))
    short = tmp_path / "short.scn"
    short.write_text(json.dumps(apply_overrides(raw, ["integrator.speed_ceiling=0.5"])))
    good = tmp_path / "mini.scn"
    good.write_text(json.dumps(MINIMAL_INTEGRATE))
    out_dir = tmp_path / "out"
    assert main(["run", str(short), str(good), "--output-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert [line for line in captured.err.splitlines() if ": elapsed " not in line] == []
    assert "exp-envelope: envelope -> BlowUpSuspected" in captured.out
    assert "mini: integrate -> HorizonReached" in captured.out
    report = json.loads((out_dir / "exp-envelope.report.json").read_text(encoding="utf-8"))
    assert report["outcome"]["n_accepted"] == 0
    assert "check" not in report["envelope"]
    assert report["envelope"]["error"] == (
        "the run stopped at its first record; there is no envelope to check")


def test_cli_runs_a_field_whose_scaled_norm_overflows(tmp_path, capsys):
    # the field 1e200 is finite, but its norm scaled by the tolerances
    # overflows, so the starting step is 0: the run floors it at the minimum
    # step and ends as a suspected blow-up, not with a traceback
    path = tmp_path / "steep.scn"
    path.write_text(json.dumps(apply_overrides(MINIMAL_INTEGRATE, [
        'force.potential.expr="1e200*x1"', "initial.position=[1.0]", "initial.velocity=[0.0]"])))
    assert main(["run", str(path), "--output-dir", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "mini: integrate -> BlowUpSuspected" in captured.out


def test_compare_lemma_with_a_tiny_horizon_checks_its_residual_inside_t_ge_0(tmp_path):
    # the central-difference step is clamped to t, so no stencil point lies before t = 0
    raw = apply_overrides(SMALL_COMPARE, ["compare_lemma.t_max=1e-9"])
    report = run_scenario(parse_scenario(raw), tmp_path)
    assert report.outcome["verdict"] == "Diverges"
    assert np.isfinite(report.comparison["ode_residual_max_rel"])


def test_a_probe_on_a_wave_certificate_is_a_validation_error(tmp_path, capsys):
    # the probe integrates the scenario's force system, and a gpw scenario has none
    scn = bundled_scenarios()["plane-wave-certify"]
    assert main(["run", str(scn), "probe_initial.position=[0.1,0.2]",
                 "probe_initial.velocity=[0,0]", "integrator.horizon=2",
                 "--output-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "probe_initial applies only to force-system certificates" in captured.err
    assert list(tmp_path.iterdir()) == []
    raw = apply_overrides(json.loads(scn.read_text(encoding="utf-8")), [
        "probe_initial.position=[0.1,0.2]", "probe_initial.velocity=[0,0]", "integrator.horizon=2"])
    with pytest.raises(ValidationError) as exc:
        parse_scenario(raw)
    assert exc.value.key == "probe_initial"


def test_a_rejected_refinement_keeps_the_report(tmp_path, capsys):
    # the harmonic speed reaches 1 and crosses the ceiling, and refinement
    # reaches the horizon: the coarse outcome and trajectory are still written
    scn = bundled_scenarios()["harmonic"]
    assert main(["run", str(scn), "integrator.speed_ceiling=0.5",
                 "--output-dir", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "harmonic: integrate -> BlowUpSuspected" in captured.out
    assert [line for line in captured.err.splitlines() if ": elapsed " not in line] == []
    report = json.loads((tmp_path / "harmonic.report.json").read_text(encoding="utf-8"))
    assert report["outcome"]["kind"] == "BlowUpSuspected"
    assert report["outcome"]["blowup_refined"] == {"error": "refinement run reached the horizon"}
    assert sorted(report["artifacts"]) == ["harmonic.csv", "harmonic.report.json",
                                           "harmonic.report.txt"]
    assert (tmp_path / "harmonic.csv").read_text(encoding="utf-8").count("\n") == (
        report["outcome"]["n_accepted"] + 2)


def test_the_cli_names_a_certificate_its_probe_contradicts(tmp_path, capsys):
    # V = -x^4 certifies against beta0 = -1000 on the sampled box, and the probe blows up
    scn = bundled_scenarios()["quartic-certify"]
    assert main(["run", str(scn), "bounds.beta0=-1000", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out == ("quartic-certify: certify -> complete-by-potential-bounds"
                   " (conflict: probe BlowUpSuspected)\n")
    report = json.loads((tmp_path / "quartic-certify.report.json").read_text(encoding="utf-8"))
    assert report["conflict"] is True
    # without the conflict the line is unchanged
    assert main(["run", str(scn), "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "quartic-certify: certify -> inconclusive\n"
