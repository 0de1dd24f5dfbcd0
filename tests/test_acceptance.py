"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them all). Expected
values marked as frozen were computed with independent oracles (closed forms,
separable ODE solutions, high-precision quadrature) before the implementation
existed; they are never recomputed from the code under test.
"""

import time

import numpy as np

from wavetraj.catalog import build_manifold, build_potential, build_wave
from wavetraj.comparison import CONVERGES, PhiFunction, check_divergence, solve_dominating
from wavetraj.dynamics import build_energy_frame, energy_derivative_identity, energy_v
from wavetraj.gpw import (GeodesicInitialData, GpwSpacetime, WaveCoefficient,
                          full_geodesic_oracle, full_quadratic_form, reduce_geodesic,
                          split_state)
from wavetraj.hypotheses import (COMPLETE_LINEAR_GRADIENT, COMPLETE_POTENTIAL_BOUNDS,
                                 COMPLETE_WAVE_BOUNDS, INCONCLUSIVE, BoundData,
                                 CertificationTask, certify)
from wavetraj.integrate import (BLOW_UP_SUSPECTED, HORIZON_REACHED, IntegratorConfig,
                                integrate, refine_blowup, sample)
from wavetraj.runner import run_scenario
from wavetraj.scenario import bundled_scenarios, load_scenario

from conftest import box_grid, window

SQRT2 = np.sqrt(2.0)


def report(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {description}: {status}  {detail}".rstrip())
    assert passed, f"criterion {num} failed: {description} ({detail})"


def test_criterion_1_harmonic_oscillator_fidelity():
    m = build_manifold("euclidean", {"n": 2})
    fs = build_potential("harmonic", {}, 2)
    cfg = IntegratorConfig(horizon=20.0)
    started = time.perf_counter()
    traj = integrate(m, fs, (np.array([1.0, 0.0]), np.zeros(2)), cfg)
    elapsed = time.perf_counter() - started
    node_err = float(np.abs(traj.positions[:, 0] - np.cos(traj.times)).max())
    dense_err = max(abs(sample(traj, t)[0][0] - np.cos(t)) for t in np.linspace(0.0, 20.0, 801))
    err = max(node_err, dense_err)
    report(1, "harmonic oscillator max |x1(t) - cos t| < 1e-6, runtime < 1 s",
           traj.outcome.kind == HORIZON_REACHED and err < 1e-6 and elapsed < 1.0,
           f"err={err:.3e} elapsed={elapsed:.2f}s")


def test_criterion_2_closed_form_blowup():
    m = build_manifold("euclidean", {"n": 1})
    fs = build_potential("negative_quartic", {}, 1)
    cfg = IntegratorConfig(horizon=2.0)
    init = (np.array([1.0]), np.array([SQRT2]))
    t_true = 1.0 / SQRT2  # exact solution x(t) = 1/(1 - sqrt(2) t)
    started = time.perf_counter()
    traj = integrate(m, fs, init, cfg)
    refined = refine_blowup(m, fs, cfg, traj)
    elapsed = time.perf_counter() - started
    err = abs(refined.estimate - t_true)
    report(2, "quartic blow-up detected, refined t* within 1e-3 of 1/sqrt(2), runtime < 5 s",
           traj.outcome.kind == BLOW_UP_SUSPECTED and err < 1e-3 and elapsed < 5.0,
           f"t*={refined.estimate:.6f} err={err:.2e} elapsed={elapsed:.2f}s")


def test_criterion_3_comparison_solver():
    phi_lin = PhiFunction(a=1.0, fn=lambda s: s)
    v0_exp = solve_dominating(phi_lin, 1.0, 10.0)
    err_exp = max(abs(v0_exp(t) - np.exp(t)) for t in np.linspace(0.0, 10.0, 201))

    phi_sqrt = PhiFunction(a=1.0, fn=lambda s: 2.0 * np.sqrt(s))
    v0_sq = solve_dominating(phi_sqrt, 1.0, 10.0)
    err_sq = max(abs(v0_sq(t) - (1.0 + t) ** 2) for t in np.linspace(0.0, 10.0, 201))

    verdict = check_divergence(PhiFunction(a=1.0, fn=lambda s: s * s)).verdict
    report(3, "dominating solutions within 1e-8 of closed forms; phi = s^2 rejected",
           err_exp < 1e-8 and err_sq < 1e-8 and verdict == CONVERGES,
           f"|v0-e^t|={err_exp:.2e} |v0-(1+t)^2|={err_sq:.2e} s^2 verdict={verdict}")


def test_criterion_4_gronwall_envelope():
    m = build_manifold("euclidean", {"n": 2})
    fs = build_potential("exp_time_quadratic", {}, 2)
    frame = build_energy_frame(window(lambda t: 1.0, lambda t: 0.0, 3.0), 0.0)
    assert frame.a_t_star == 1.0
    cfg = IntegratorConfig(horizon=3.0)
    rng = np.random.default_rng(20250808)
    worst_margin = np.inf
    worst_fd = 0.0
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, 2)
        v = rng.uniform(-2.0, 2.0, 2)
        traj = integrate(m, fs, (p, v), cfg)
        assert traj.outcome.kind == HORIZON_REACHED
        vs = energy_v(m, fs, frame, (traj.states[:, :2], traj.states[:, 2:], traj.times))
        margins = vs[0] * np.exp(frame.a_t_star * traj.times) - vs
        worst_margin = min(worst_margin, float(margins.min()))
        h = 1e-3
        ts = np.linspace(0.05, 2.95, 25)
        x, xd = sample(traj, ts + h)
        ahead = energy_v(m, fs, frame, (x, xd, ts + h))
        x, xd = sample(traj, ts - h)
        behind = energy_v(m, fs, frame, (x, xd, ts - h))
        x, xd = sample(traj, ts)
        exact = energy_derivative_identity(m, fs, (x, xd, ts))
        fd = (ahead - behind) / (2.0 * h)
        worst_fd = max(worst_fd, float((np.abs(fd - exact) / np.maximum(1.0, np.abs(exact))).max()))
    report(4, "20 random ICs: v(t) <= v(0) e^{A*_T t} at accepted steps, fd-identity < 1e-4",
           worst_margin >= 0.0 and worst_fd < 1e-4,
           f"worst margin={worst_margin:.3e} worst fd mismatch={worst_fd:.2e}")


def test_criterion_5_certificates_on_bundled_systems():
    e2 = build_manifold("euclidean", {"n": 2})
    e1 = build_manifold("euclidean", {"n": 1})
    grid2 = box_grid([-2, -2], [2, 2], [9, 9])
    tgrid = np.linspace(-3.0, 3.0, 41)
    results = []

    cert = certify(CertificationTask(
        manifold=e2, force=build_potential("harmonic", {}, 2),
        bounds=BoundData(alpha0=lambda t: 0.0, beta0=lambda t: 0.0, grid=grid2, t_grid=tgrid)))
    results.append(("harmonic", cert.verdict == COMPLETE_POTENTIAL_BOUNDS, cert.verdict))

    cert = certify(CertificationTask(
        manifold=e2, force=build_potential("exp_time_quadratic", {}, 2),
        bounds=BoundData(alpha0=lambda t: 1.0, beta0=lambda t: 0.0, grid=grid2, t_grid=tgrid)))
    results.append(("exp potential", cert.verdict == COMPLETE_POTENTIAL_BOUNDS, cert.verdict))

    quartic = build_potential("negative_quartic", {}, 1)
    cert = certify(CertificationTask(
        manifold=e1, force=quartic,
        bounds=BoundData(alpha0=lambda t: 0.0, beta0=lambda t: 0.0,
                         grid=np.linspace(-2, 2, 9).reshape(-1, 1), t_grid=tgrid)))
    traj = integrate(e1, quartic, (np.array([1.0]), np.array([SQRT2])),
                     IntegratorConfig(horizon=2.0))
    results.append(("quartic inconclusive + blow-up",
                    cert.verdict == INCONCLUSIVE and traj.outcome.kind == BLOW_UP_SUSPECTED,
                    f"{cert.verdict}/{traj.outcome.kind}"))

    well = WaveCoefficient(h=lambda x, u: -float(np.dot(x, x)) ** 2,
                           h_dx=lambda x, u: -4.0 * float(np.dot(x, x)) * np.asarray(x),
                           h_du=lambda x, u: 0.0)
    bd = BoundData(alpha0=lambda u: 0.0, beta0=lambda u: 0.0,
                   grid=box_grid([-5, -5], [5, 5], [11, 11]), t_grid=tgrid)
    cert = certify(CertificationTask(manifold=e2, bounds=bd, wave=well))
    results.append(("wave -|x|^4", cert.verdict == COMPLETE_WAVE_BOUNDS, cert.verdict))

    plane = build_wave("plane_wave", {"f1": "1 + u*u", "f2": "2", "f": "u"})
    bd2 = BoundData(alpha0=lambda u: 1.0, beta0=lambda u: 0.0,
                    grid=box_grid([-5, -5], [5, 5], [11, 11]), t_grid=tgrid)
    cert = certify(CertificationTask(manifold=e2, bounds=bd2, wave=plane))
    results.append(("polynomial plane wave", cert.verdict == COMPLETE_LINEAR_GRADIENT, cert.verdict))

    ok = all(passed for _, passed, _ in results)
    report(5, "certificate verdicts on the five bundled systems", ok,
           "; ".join(f"{name}={detail}" for name, _, detail in results))


def test_criterion_6_gpw_reduction_vs_oracle():
    base = build_manifold("euclidean", {"n": 2})
    cfg = IntegratorConfig(horizon=1.0)
    rng = np.random.default_rng(31415926)
    deltas = [0.0, 1.0, -0.8, 0.5, 1.3, 0.0, 0.7, -1.1, 0.9, 1.6]
    worst_coord = 0.0
    worst_udot = 0.0
    worst_energy = 0.0
    for delta in deltas:
        c = rng.uniform(-1.0, 1.0, 9)
        wave = build_wave("plane_wave", {
            key: f"({float(c[i])!r}) + ({float(c[i + 1])!r})*u + ({float(c[i + 2])!r})*u*u"
            for key, i in (("f1", 0), ("f2", 3), ("f", 6))})
        st = GpwSpacetime(base=base, wave=wave, nonzero_witness=_witness(wave, rng))
        init = GeodesicInitialData(
            x0=rng.uniform(-1, 1, 2), xdot0=rng.uniform(-1, 1, 2),
            u0=float(rng.uniform(-0.5, 0.5)), udot0=delta,
            v0=float(rng.uniform(-1, 1)), vdot0=float(rng.uniform(-1, 1)))
        sg = reduce_geodesic(st, init, cfg)
        oracle = full_geodesic_oracle(st, init, cfg)
        assert sg.outcome.kind == HORIZON_REACHED and oracle.outcome.kind == HORIZON_REACHED
        ts = np.linspace(0.0, 1.0, 101)
        pos_s, _ = split_state(sg, st, ts)
        pos_o, _ = sample(oracle, ts)
        worst_coord = max(worst_coord, float(np.abs(pos_s - pos_o).max()))
        udots = oracle.states[:, 4 + 2]
        worst_udot = max(worst_udot,
                         float(np.abs(udots - udots[0]).max()) / max(abs(delta), 1.0))
        energies = full_quadratic_form(st, oracle.states[:, :4], oracle.states[:, 4:])
        drift = float(np.abs(energies - energies[0]).max())
        worst_energy = max(worst_energy, drift / max(abs(float(energies[0])), 1.0))
    report(6, "10 random plane waves: reduction vs oracle < 1e-5, conserved drifts < 1e-8",
           worst_coord < 1e-5 and worst_udot < 1e-8 and worst_energy < 1e-8,
           f"coord={worst_coord:.2e} udot={worst_udot:.2e} energy={worst_energy:.2e}")


def _witness(wave, rng):
    for _ in range(100):
        x = rng.uniform(0.5, 2.0, 2)
        u = float(rng.uniform(-1.0, 1.0))
        if wave.h(x.tolist(), u) != 0.0:
            return (x, u)
    raise AssertionError("could not find a nonzero witness")


def test_criterion_7_hyperbolic_geodesic_invariant():
    m = build_manifold("hyperbolic_half_plane", {})
    fs = build_potential("zero", {}, 2)
    cfg = IntegratorConfig(horizon=10.0)
    worst = 0.0
    from wavetraj.geometry import metric_at

    for p, v in (((0.0, 1.0), (1.0, 0.0)), ((0.5, 2.0), (0.3, -0.4)), ((-1.0, 0.5), (0.0, 1.0))):
        traj = integrate(m, fs, (np.array(p), np.array(v)), cfg)
        assert traj.outcome.kind == HORIZON_REACHED
        norms = np.array([float(y[2:] @ metric_at(m, y[:2]) @ y[2:]) for y in traj.states])
        worst = max(worst, float(np.abs(norms - norms[0]).max()) / (abs(norms[0]) * 10.0))
    report(7, "hyperbolic geodesics conserve the metric norm to 1e-8 per unit time",
           worst < 1e-8, f"worst drift rate={worst:.2e}")


def test_criterion_8_bundled_scenarios_deterministic(tmp_path):
    mismatches = []
    for name, path in bundled_scenarios().items():
        dirs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"{name}-{tag}"
            run_scenario(load_scenario(path), out_dir)
            dirs.append(out_dir)
        files_a = sorted(p.name for p in dirs[0].iterdir())
        files_b = sorted(p.name for p in dirs[1].iterdir())
        if files_a != files_b:
            mismatches.append(f"{name}: file sets differ")
            continue
        for fname in files_a:
            if (dirs[0] / fname).read_bytes() != (dirs[1] / fname).read_bytes():
                mismatches.append(f"{name}/{fname}")
    report(8, "every bundled scenario reproduces byte-identical artifacts",
           not mismatches, "; ".join(mismatches) if mismatches else
           f"{len(bundled_scenarios())} scenarios checked")
