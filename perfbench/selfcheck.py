"""Determinism self-check: two traced runs with one seed must agree exactly.

    python3 perfbench/selfcheck.py [--seed 7] [--seconds 4] [workload ...]

Runs ``run.py --trace 1`` twice per workload, each in its own process, and
compares the deterministic work counters, the accuracy checks and the digest
of every report and CSV file the traced tasks wrote. Exits 1 on any
difference. Within one traced run, run.py already compares each task's
untraced and traced artifacts the same way.
"""

import argparse
import json
import pathlib
import subprocess
import sys

from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _traced_run(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    trace = json.loads((ROOT / ".bench_build" / "perfbench" / f"trace-{workload}-{seed}.json")
                       .read_text("utf-8"))
    return result, trace


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    exact = {m["name"] for m in spec["per_layer"]
             if m["unit"] in ("count", "bytes") or m["name"].startswith("check.")}
    ok = True
    for workload in args.workloads:
        (first, trace_a), (second, trace_b) = (_traced_run(workload, args.seed, args.seconds)
                                               for _ in range(2))
        diffs = [name for name in sorted(exact)
                 if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
        if trace_a["artifact_digest"] != trace_b["artifact_digest"]:
            diffs.append("artifact_digest")
        if not (first["correct"] and second["correct"]):
            diffs.append("correct")
        ok = ok and not diffs
        print(f"{workload}: {trace_a['traced_tasks']} tasks, "
              + ("identical" if not diffs else "DIFFERENT: " + ", ".join(diffs)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
