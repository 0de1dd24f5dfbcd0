"""Command-line front end: run scenarios, list the catalog, validate files.

Exit status: 0 on clean completion (Inconclusive certificates included),
2 on scenario parse/validation errors, 1 on runtime errors.
"""

import argparse
import sys
import time

from . import __version__
from .catalog import list_catalog
from .errors import ParseError, ValidationError, WavetrajError
from .runner import run_scenario
from .scenario import load_scenario


def _build_parser():
    parser = argparse.ArgumentParser(prog="wavetraj",
                                     description="trajectory integration and completeness certificates")
    parser.add_argument("--version", action="version", version=f"wavetraj {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one or more scenario files")
    run_p.add_argument("scenarios", nargs="+", metavar="SCENARIO")
    run_p.add_argument("overrides", nargs="*", default=[], metavar="KEY=VALUE",
                       help="dotted-path overrides, e.g. integrator.rel_tol=1e-10")
    run_p.add_argument("--output-dir", default=".", help="directory for artifacts")
    run_p.add_argument("--echo-config", action="store_true",
                       help="also write the canonical scenario next to the report")

    sub.add_parser("catalog", help="list built-in manifolds, potentials, tensors and waves")

    val_p = sub.add_parser("validate", help="parse and validate scenario files without running")
    val_p.add_argument("scenarios", nargs="+", metavar="SCENARIO")
    return parser


def _split_run_args(items):
    # positional args mixing file paths and key=value overrides
    paths, overrides = [], []
    for item in items:
        (overrides if "=" in item else paths).append(item)
    return paths, overrides


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "catalog":
        sys.stdout.write(list_catalog())
        return 0

    if args.command == "validate":
        status = 0
        for path in args.scenarios:
            try:
                load_scenario(path)
                print(f"{path}: ok")
            except (ParseError, ValidationError, OSError) as exc:
                print(f"{path}: {exc}", file=sys.stderr)
                status = 2
        return status

    # run
    paths, overrides = _split_run_args(args.scenarios + args.overrides)
    if not paths:
        print("no scenario files given", file=sys.stderr)
        return 2

    status = 0
    for path in paths:
        try:
            sc = load_scenario(path, overrides)
            started = time.perf_counter()
            report = run_scenario(sc, args.output_dir, echo_config=args.echo_config)
            elapsed = time.perf_counter() - started
        except (ParseError, ValidationError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = status or 2
            continue
        except (WavetrajError, OSError) as exc:
            print(f"{path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = status or 1
            continue
        summary = report.outcome.get("kind") or report.outcome.get("verdict") or "done"
        print(f"{report.scenario}: {report.task} -> {summary}")
        print(f"{report.scenario}: elapsed {elapsed:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
