import json

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


def test_cli_run_with_flag_overrides(tmp_path):
    scn = tmp_path / "mini.scn"
    scn.write_text(json.dumps(MINIMAL_INTEGRATE))
    out_dir = tmp_path / "out"
    assert main(["run", str(scn), "--output-dir", str(out_dir), "--horizon", "2.0"]) == 0
    payload = json.loads((out_dir / "mini.report.json").read_text())
    assert payload["config"]["integrator"]["horizon"] == 2.0
    assert payload["outcome"]["t_span"] == [0.0, 2.0]


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


# the scalar x1^0.5 of a numpy scalar warns instead of raising (ROADMAP item 6)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_batch_survives_a_non_finite_tensor_sample(tmp_path, capsys):
    # x1^0.5 is NaN on the grid's x1 < 0 half (numpy scalars do not raise),
    # so the sampled operator pencil is not finite there
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
    assert "EigFailure" in captured.err and "non-finite" in captured.err
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


def test_runtime_needs_neither_sympy_nor_hypothesis(tmp_path):
    # the tests use sympy and hypothesis; a run of the package must not import them
    import pathlib
    import subprocess
    import sys

    import wavetraj

    script = (
        "import sys\n"
        "from wavetraj.runner import run_scenario\n"
        "from wavetraj.scenario import bundled_scenarios, load_scenario\n"
        f"run_scenario(load_scenario(bundled_scenarios()['plane-wave-certify']), {str(tmp_path)!r})\n"
        "print(sorted(m for m in ('sympy', 'hypothesis') if m in sys.modules))\n"
    )
    src = str(pathlib.Path(wavetraj.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""}, check=True)
    assert out.stdout.strip() == "[]"
    assert (tmp_path / "plane-wave-certify.report.json").exists()
