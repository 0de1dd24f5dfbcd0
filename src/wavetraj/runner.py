"""Execute validated scenarios and write their artifacts."""

import pathlib

import numpy as np

from . import __version__
from .comparison import DIVERGES, DominatingSolution, PhiFunction, check_divergence, solve_dominating, verify_envelope
from .dynamics import build_energy_frame, energy_derivative_identity, energy_v
from .expressions import with_array_form
from .geometry import norm_function
from .gpw import (GeodesicInitialData, base_trajectory, classify_gpw_completeness,
                  full_geodesic_oracle, full_quadratic_form, reduce_geodesic,
                  split_geodesic_to_csv, split_state)
from .hypotheses import CertificationTask, certify, check_S_bounds, INCONCLUSIVE
from .integrate import (BLOW_UP_SUSPECTED, CHART_EXIT, HORIZON_REACHED, TOLERANCE_FAILURE,
                        integrate, refine_blowup, sample, trajectory_to_csv)
from .report import RunReport, render_human, render_json, write_csv

_OUTCOME_CODES = {HORIZON_REACHED: 0, BLOW_UP_SUSPECTED: 1, CHART_EXIT: 2, TOLERANCE_FAILURE: 3}
# envelope: times and step of the centered-difference check of dv/dt
_FD_POINTS = 401
_FD_STEP = 1e-3
# gpw-geodesic: times at which the split geodesic is compared with the oracle
_ORACLE_POINTS = 201


def run_scenario(sc, output_dir, echo_config=False):
    """Run one scenario, write its artifacts under output_dir, return the report."""
    out_dir = pathlib.Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = RunReport(scenario=sc.name, task=sc.task, version=__version__, config=sc.canonical)

    handler = {
        "integrate": _run_integrate,
        "certify": _run_certify,
        "envelope": _run_envelope,
        "gpw-geodesic": _run_gpw_geodesic,
        "gpw-map": _run_gpw_map,
        "compare-lemma": _run_compare_lemma,
    }[sc.task]
    handler(sc, out_dir, report)

    txt_path = out_dir / sc.outputs["report_txt"]
    json_path = out_dir / sc.outputs["report_json"]
    report.artifacts.append(sc.outputs["report_txt"])
    report.artifacts.append(sc.outputs["report_json"])
    txt_path.write_text(render_human(report), encoding="utf-8")
    json_path.write_text(render_json(report), encoding="utf-8")
    if echo_config:
        import json as _json
        echo_path = out_dir / f"{sc.name}.echo.scn"
        echo_path.write_text(_json.dumps(sc.canonical, indent=2, sort_keys=True) + "\n",
                             encoding="utf-8")
    return report


def _outcome_dict(traj):
    out = {
        "kind": traj.outcome.kind,
        "direction": traj.direction,
        "t_span": list(traj.t_span),
        "n_accepted": traj.stats.n_accepted,
        "n_rejected": traj.stats.n_rejected,
        "n_rhs": traj.stats.n_rhs,
        "final_time": float(traj.times[-1]),
        "final_state": [float(v) for v in traj.states[-1]],
    }
    if traj.outcome.t_star_estimate is not None:
        out["t_star_estimate"] = float(traj.outcome.t_star_estimate)
    if traj.outcome.t_exit is not None:
        out["t_exit"] = float(traj.outcome.t_exit)
    return out


def _mechanical_energy_drift(sc, traj):
    """Relative drift per unit time of (1/2) u + V for autonomous F-free systems.

    Each accepted state is evaluated in Python floats, as the integrator
    evaluated it: g(xdot, xdot) by the chart's generated norm (geometry.norm_function)
    and V by its source.
    """
    if sc.force is None or sc.force.tensor_F is not None or not sc.force.time_independent:
        return None
    n = traj.dim
    norm, potential = norm_function(sc.manifold), sc.force.potential
    values = np.array([0.5 * norm(y) + float(potential(y[:n], t))
                       for t, y in zip(traj.times.tolist(), traj.states.tolist())])
    spread = float(np.abs(values - values[0]).max())
    scale = max(abs(float(values[0])), 1.0)
    duration = max(abs(traj.times[-1] - traj.times[0]), 1e-300)
    return spread / (scale * duration)


def _run_integrate(sc, out_dir, report):
    traj = integrate(sc.manifold, sc.force, sc.initial, sc.config, sc.direction)
    report.outcome = _outcome_dict(traj)
    if traj.outcome.kind == HORIZON_REACHED:
        # drift is meaningless on a trajectory truncated near a singularity
        drift = _mechanical_energy_drift(sc, traj)
        if drift is not None:
            report.outcome["energy_drift_per_time"] = drift
    if traj.outcome.kind == BLOW_UP_SUSPECTED and sc.refine:
        interval = refine_blowup(sc.manifold, sc.force, sc.config, traj)
        report.outcome["blowup_refined"] = {
            "t_lo": interval.t_lo,
            "t_hi": interval.t_hi,
            "estimate": interval.estimate,
            "width": interval.width,
            "n_rhs": interval.n_rhs,
        }
    csv_name = sc.outputs["trajectory_csv"]
    with open(out_dir / csv_name, "w", encoding="utf-8") as fh:
        trajectory_to_csv(traj, fh)
    report.artifacts.append(csv_name)


def _run_certify(sc, out_dir, report):
    if sc.spacetime is not None:
        cert = classify_gpw_completeness(sc.spacetime, sc.bounds, anchor=sc.gpw_anchor)
    else:
        cert = certify(CertificationTask(manifold=sc.manifold, bounds=sc.bounds, force=sc.force))
    report.certificate = cert.to_dict()
    report.outcome = {"verdict": cert.verdict}
    if sc.probe_initial is not None and sc.config is not None:
        traj = integrate(sc.manifold, sc.force, sc.probe_initial, sc.config)
        report.outcome["probe"] = _outcome_dict(traj)
        if cert.verdict != INCONCLUSIVE and traj.outcome.kind == BLOW_UP_SUSPECTED:
            # certificate and observed blow-up disagree; report both, resolve neither
            report.conflict = True


def _envelope_rate(frame):
    # phi must be positive; an autonomous F-free frame has a_t_star = 0
    return max(frame.a_t_star, 1e-12)


def _run_envelope(sc, out_dir, report):
    traj = integrate(sc.manifold, sc.force, sc.initial, sc.config)
    s_checks = check_S_bounds(sc.manifold, sc.force, sc.bounds)
    frame = build_energy_frame(sc.bounds, s_checks["bounded"].values["N_T"])
    times, n = traj.times, traj.dim
    vs = energy_v(sc.manifold, sc.force, frame, (traj.states[:, :n], traj.states[:, n:], times))
    envelope = {
        "frame": {"T": frame.t_horizon, "A_T": frame.a_t, "B_T": frame.b_t,
                  "N_T": frame.n_t, "A_T_star": frame.a_t_star},
        "v_initial": float(vs[0]),
    }
    rate = _envelope_rate(frame)

    def linear(s):
        return rate * s

    phi = PhiFunction(a=1.0, fn=with_array_form(linear, linear))
    if vs[0] < phi.a:
        envelope["error"] = "initial energy below the comparison domain; bounds do not hold here"
    elif len(times) < 2:
        envelope["error"] = "the run stopped at its first record; there is no envelope to check"
    else:
        v0 = solve_dominating(phi, float(vs[0]), float(times[-1]) + 1e-9)
        env_report = verify_envelope(times, vs, phi, v0)
        envelope["check"] = env_report.to_dict()
    envelope["fd_identity_max_rel_error"] = _fd_identity_mismatch(sc, traj, frame)
    report.envelope = envelope
    report.outcome = _outcome_dict(traj)


def _fd_identity_mismatch(sc, traj, frame):
    """Max relative mismatch of centered-difference dv/dt against the exact identity."""
    h = _FD_STEP
    lo, hi = traj.t_span
    lo, hi = lo + 2 * h, hi - 2 * h
    if hi <= lo:
        return None
    ts = np.linspace(lo, hi, _FD_POINTS)
    stencil = np.concatenate([ts + h, ts - h, ts])
    x, xd = sample(traj, stencil)
    k = 2 * _FD_POINTS
    ahead, behind = np.split(energy_v(sc.manifold, sc.force, frame, (x[:k], xd[:k], stencil[:k])), 2)
    fd = (ahead - behind) / (2.0 * h)
    exact = energy_derivative_identity(sc.manifold, sc.force, (x[k:], xd[k:], ts))
    return float((np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))).max())


def _run_gpw_geodesic(sc, out_dir, report):
    sg = reduce_geodesic(sc.spacetime, sc.gpw_initial, sc.config)
    report.outcome = _outcome_dict(sg.base_trajectory)
    report.outcome["energy_g"] = sg.energy
    report.outcome["u0"] = sg.u0
    report.outcome["delta"] = sg.delta
    report.outcome["causal_character"] = (
        "null" if sg.energy == 0.0 else ("timelike" if sg.energy < 0.0 else "spacelike"))
    if sc.gpw_oracle_check:
        report.outcome["oracle"] = _oracle_comparison(sc.spacetime, sc.gpw_initial, sc.config, sg)
    csv_name = sc.outputs["trajectory_csv"]
    with open(out_dir / csv_name, "w", encoding="utf-8") as fh:
        split_geodesic_to_csv(sg, sc.spacetime, fh)
    report.artifacts.append(csv_name)


def _oracle_comparison(st, init, cfg, sg):
    oracle = full_geodesic_oracle(st, init, cfg)
    lo1, hi1 = sg.base_trajectory.t_span
    lo2, hi2 = oracle.t_span
    ts = np.linspace(max(lo1, lo2), min(hi1, hi2), _ORACLE_POINTS)
    pos_split, _ = split_state(sg, st, ts)
    pos_oracle, _ = sample(oracle, ts)
    worst = float(np.abs(pos_split - pos_oracle).max())
    n_full = st.base.dim + 2
    q, qd = oracle.states[:, :n_full], oracle.states[:, n_full:]
    udots = qd[:, st.base.dim]
    udot_drift = float(np.abs(udots - udots[0]).max()) / max(abs(float(udots[0])), 1.0)
    energies = full_quadratic_form(st, q, qd)
    e0 = float(energies[0])
    energy_drift = float(np.abs(energies - e0).max()) / max(abs(e0), 1.0)
    return {
        "outcome": oracle.outcome.kind,
        "max_coordinate_discrepancy": worst,
        "udot_drift": udot_drift,
        "energy_drift": energy_drift,
    }


def _run_gpw_map(sc, out_dir, report):
    spec = sc.map_spec
    counts = {}
    values = []
    n = sc.manifold.dim
    for x0 in spec["x0_grid"]:
        for delta in spec["deltas"]:
            init = GeodesicInitialData(x0=x0, xdot0=spec["xdot0"], u0=spec["u0"],
                                       udot0=delta, v0=spec["v0"], vdot0=spec["vdot0"])
            outcome = base_trajectory(sc.spacetime, init, sc.config).outcome
            kind = outcome.kind
            counts[kind] = counts.get(kind, 0) + 1
            t_star = outcome.t_star_estimate
            values += [*(float(c) for c in x0), float(delta),
                       _OUTCOME_CODES[kind], "" if t_star is None else float(t_star)]
    csv_name = sc.outputs["map_csv"]
    header = [f"x0_{i + 1}" for i in range(n)] + ["delta", "outcome", "t_star"]
    with open(out_dir / csv_name, "w", encoding="utf-8") as fh:
        write_csv(fh, header, values)
    report.artifacts.append(csv_name)
    report.outcome = {"counts": counts, "n_runs": sum(counts.values()),
                      "outcome_codes": {k: v for k, v in sorted(_OUTCOME_CODES.items())}}


def _run_compare_lemma(sc, out_dir, report):
    spec = sc.compare
    phi = PhiFunction(a=spec["a"], fn=spec["phi"])
    div = check_divergence(phi)
    comparison = {
        "phi": spec["phi_source"],
        "divergence_verdict": div.verdict,
        "partial_integral": div.partial_integral,
        "doublings": div.doublings,
        "divergence_unconverged_panels": div.unconverged_panels,
    }
    if div.estimate is not None:
        comparison["tail_estimate"] = div.estimate
    if div.verdict == DIVERGES:
        v0 = DominatingSolution(phi, spec["v0_init"], spec["t_max"])
        ts = np.linspace(0.0, spec["t_max"], spec["check_points"])[1:-1]
        # the stencil stays in t >= 0, where v0 is defined
        h = np.minimum(1e-6 * np.maximum(1.0, ts), ts)
        ahead, behind, mid = np.split(v0.values(np.concatenate([ts + h, ts - h, ts])), 3)
        deriv = (ahead - behind) / (2.0 * h)
        target = phi.values(mid)
        rel = np.abs(deriv - target) / np.maximum(1.0, np.abs(target))
        comparison["ode_residual_max_rel"] = float(rel.max(initial=0.0))
        comparison["v0_at_t_max"] = v0(spec["t_max"])
        comparison["unconverged_panels"] = v0.unconverged_panels
    report.comparison = comparison
    report.outcome = {"verdict": div.verdict}
