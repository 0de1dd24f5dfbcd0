"""Seeded end-to-end benchmark of wavetraj, with an optional outside-in trace.

    python3 perfbench/run.py --workload integrate --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, never from an installed copy. One caller in one process runs one
task at a time (a closed loop, no pool). Each task is a scenario mapping
generated from the seed (see workloads.py), parsed with
``scenario.parse_scenario`` and run with ``runner.run_scenario`` into a
temporary directory under ``.bench_build/``, as the CLI would run it. After
the timed loop every task's artifacts are checked against an oracle.

``--trace 0`` runs the timed loop and prints the end-to-end metrics.
``--trace 1`` instead runs a fixed prefix of the tasks, each once untraced
and once with tracing wrappers installed (tracing.py), and prints the
per-layer metrics. The prefix is a whole number of rounds, set by the
workload and ``--seconds`` only, so its work counters repeat exactly for a
seed; its traced artifacts must match the untraced ones byte for byte.
Spans and aggregates go to ``.bench_build/perfbench/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Diagnostics go to stderr.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

import workloads
from tracing import Tracer

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

#: child processes timed for setup_s; the median is reported
SETUP_REPEATS = 5
#: nominal seconds of one round, used only to size the traced prefix
ROUND_S = {"integrate": 7.5, "gpw_certify": 3.3}
#: fewest tasks behind a reported task_s.p90, so ten lie beyond it
P90_MIN_TASKS = 100
#: deterministic work counters kept for every task that passed its gate
COUNTERS = ("n_rhs", "n_accepted", "n_rejected", "premise_samples", "artifact_bytes")


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate and parse, then exit (times setup_s)")
    return ap.parse_args(argv)


def _setup(workload, seed):
    """Import the package, generate the seeded pool and parse every task."""
    sys.path.insert(0, str(SRC))
    import wavetraj
    from wavetraj import runner, scenario

    if pathlib.Path(wavetraj.__file__).resolve().parent != SRC / "wavetraj":
        raise ImportError(f"wavetraj imported from {wavetraj.__file__}, not from {SRC}")
    tasks = workloads.generate(workload, seed)
    start = perf_counter()
    scenarios = [scenario.parse_scenario(t.raw) for t in tasks]
    parse_s = perf_counter() - start
    return runner, tasks, scenarios, parse_s


def _setup_s(args):
    """Median wall time of fresh processes doing the whole setup."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _run_one(runner, scenarios, i, out_dir):
    """Run the i-th task of the (cycled) pool; one bad task never aborts the workload."""
    k = i % len(scenarios)
    task_dir = out_dir / f"cycle{i // len(scenarios)}"
    start = perf_counter()
    try:
        runner.run_scenario(scenarios[k], task_dir)
        error = None
    except Exception as exc:
        error = type(exc).__name__
        traceback.print_exc(file=sys.stderr)
    return {"index": k, "dir": task_dir, "s": perf_counter() - start, "error": error}


def _run_timed(runner, scenarios, out_dir, seconds):
    """Closed loop over the pool until the time runs out.

    Each record also gets ``end``, its finish time from the start of the loop.
    """
    records = []
    start = perf_counter()
    while perf_counter() - start < seconds:
        records.append(_run_one(runner, scenarios, len(records), out_dir))
        records[-1]["end"] = perf_counter() - start
    return records


def _report_counts(node, totals):
    """Sum n_rhs, n_accepted and n_rejected wherever the report records them."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key in totals and isinstance(value, int):
                totals[key] += value
            else:
                _report_counts(value, totals)


def _premise_samples(sc, report):
    """Grid points x t samples x premises the certificate scanned."""
    cert = report.get("certificate")
    if cert is None:
        return 0
    per_scan = sc.bounds.grid.shape[0] * sc.bounds.t_grid.size
    scanned = [e["name"] for e in cert["evidence"] if e["name"] != "manifold_complete_flag"
               and not e["name"].startswith("operator_bound")]
    # the three operator bounds come from one eigenvalue scan, run only with a tensor
    with_tensor = sc.force is not None and sc.force.tensor_F is not None
    return per_scan * (len(scanned) + with_tensor)


def _check(tasks, scenarios, records, checks):
    """Gate every task; fill in its counters and artifact digest."""
    failures = {}
    for rec in records:
        task = tasks[rec["index"]]
        if rec["error"] is None:
            try:
                report = json.loads((rec["dir"] / f"{task.name}.report.json").read_text("utf-8"))
                if not workloads.gate(task, report, rec["dir"], checks):
                    rec["error"] = "GateFailed"
            except Exception as exc:   # a malformed artifact fails its task, not the run
                rec["error"] = type(exc).__name__
                traceback.print_exc(file=sys.stderr)
        if rec["error"] is not None:
            failures[rec["error"]] = failures.get(rec["error"], 0) + 1
            print(f"task {task.name} failed: {rec['error']}", file=sys.stderr)
            continue
        counts = dict.fromkeys(COUNTERS[:3], 0)
        _report_counts(report["outcome"], counts)
        digest = hashlib.sha256()
        size = 0
        for name in sorted(report["artifacts"]):
            data = (rec["dir"] / name).read_bytes()
            digest.update(name.encode() + b"\0" + data)
            size += len(data)
        counts["premise_samples"] = _premise_samples(scenarios[rec["index"]], report)
        counts["artifact_bytes"] = size
        rec["counts"] = counts
        rec["digest"] = digest.hexdigest()
    return failures


def _machine():
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def _percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _round_median(records, length):
    """Median over the complete rounds of the mean task time in a round.

    Every round holds the same family mix, so this does not jump between the
    cost levels of the families the way the median of single tasks does.
    """
    means = [statistics.fmean(r["s"] for r in records[start:start + length])
             for start in range(0, len(records) - length + 1, length)
             if all(r["error"] is None for r in records[start:start + length])]
    return statistics.median(means) if means else None


def _sum_counts(records):
    total = dict.fromkeys(COUNTERS, 0)
    for rec in records:
        for key, value in rec.get("counts", {}).items():
            total[key] += value
    return total


def _run_traced(args, runner, tasks, scenarios, parse_s, tmp, checks):
    """Each task of a fixed prefix runs untraced, then traced; per-layer metrics.

    Running the pair back to back puts both in the same phase of machine
    load, so their ratio gives the tracing overhead.
    """
    rounds = max(1, math.ceil(args.seconds / (2.0 * ROUND_S[args.workload])))
    count = rounds * workloads.round_length(args.workload)
    tracer = Tracer()
    plain, traced = [], []
    for i in range(count):
        plain.append(_run_one(runner, scenarios, i, tmp / "plain"))
        tracer.task = i
        tracer.install()
        try:
            traced.append(_run_one(runner, scenarios, i, tmp / "traced"))
        finally:
            tracer.uninstall()
    failures = _check(tasks, scenarios, plain + traced, checks)

    # the same seed must give the same counters and byte-identical artifacts
    mismatched = [tasks[r["index"]].name for r, q in zip(plain, traced)
                  if r.get("digest") is None or r.get("digest") != q.get("digest")
                  or r.get("counts") != q.get("counts")]
    for name in mismatched:
        print(f"self-check: task {name} differs between the untraced and traced runs",
              file=sys.stderr)

    layers = tracer.layer_metrics()
    counts = _sum_counts(traced)
    samples = counts["premise_samples"]
    ok = [r["s"] for r in plain if r["error"] is None]
    metrics = {
        "task_s.p90": _percentile(ok, 0.9) if len(ok) >= P90_MIN_TASKS else 0.0,
        "failed_frac": sum(r["error"] is not None for r in plain + traced) / (2 * count),
        **layers,
        "counters.n_rhs": counts["n_rhs"],
        "counters.n_accepted": counts["n_accepted"],
        "counters.n_rejected": counts["n_rejected"],
        "hypotheses.premise_samples": samples,
        "hypotheses.us_per_sample": 1e6 * layers["hypotheses.certify.s"] / samples if samples else 0.0,
        "scenario.parse.us_per_scenario": 1e6 * parse_s / len(scenarios),
        "runner.artifact_bytes": counts["artifact_bytes"],
        **{f"check.{name}": value for name, value in checks.worst.items()},
        "trace.overhead_frac": sum(r["s"] for r in traced) / sum(r["s"] for r in plain) - 1.0,
    }
    digest = hashlib.sha256("".join(r.get("digest", "-") for r in traced).encode()).hexdigest()
    dump = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "machine": _machine(), "traced_tasks": count, "artifact_digest": digest,
            "metrics": metrics, **tracer.dump()}
    (WORK / f"trace-{args.workload}-{args.seed}.json").write_text(
        json.dumps(dump, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return plain + traced, failures, metrics, not mismatched


def main(argv=None):
    args = _args(argv)
    if not (SRC / "wavetraj" / "__init__.py").is_file():
        print(f"perfbench: no wavetraj sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        _setup(args.workload, args.seed)
        return 0

    setup_s = None if args.trace else _setup_s(args)
    runner, tasks, scenarios, parse_s = _setup(args.workload, args.seed)
    print(json.dumps({"machine": _machine()}), file=sys.stderr)
    WORK.mkdir(parents=True, exist_ok=True)
    checks = workloads.Checks()
    consistent = True
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tmp = pathlib.Path(tmp)
        if args.trace:
            records, failures, metrics, consistent = _run_traced(
                args, runner, tasks, scenarios, parse_s, tmp, checks)
        else:
            records = _run_timed(runner, scenarios, tmp / "timed", args.seconds)
            failures = _check(tasks, scenarios, records, checks)
            # throughput over the complete rounds only: a partial last round
            # would weigh its cheap and its dear tasks unevenly
            length = workloads.round_length(args.workload)
            timed = records[:len(records) // length * length] or records
            round_s = _round_median(records, length)
            metrics = {
                "setup_s": setup_s,
                "tasks_per_s": sum(r["error"] is None for r in timed) / timed[-1]["end"],
                "task_s.round_p50": timed[-1]["end"] if round_s is None else round_s,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
    failed = sum(r["error"] is not None for r in records)
    if failures:
        print(json.dumps({"failures_by_type": failures}), file=sys.stderr)
    units = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    unit_of = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    print(json.dumps({
        "correct": failed == 0 and consistent,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
