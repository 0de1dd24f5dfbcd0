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
    run_p.add_argument("items", nargs="+", metavar="SCENARIO|KEY=VALUE",
                       help="scenario files, and dotted-path overrides such as "
                            "integrator.rel_tol=1e-10 anywhere on the line")
    run_p.add_argument("--output-dir", default=".", help="directory for artifacts")
    run_p.add_argument("--echo-config", action="store_true",
                       help="also write the canonical scenario next to the report")

    sub.add_parser("catalog", help="list built-in manifolds, potentials, tensors and waves")

    val_p = sub.add_parser("validate", help="parse and validate scenario files without running")
    val_p.add_argument("scenarios", nargs="+", metavar="SCENARIO")
    return parser


def _is_override(word):
    return "=" in word and not word.startswith("-")


def main(argv=None):
    parser = _build_parser()
    # argparse takes one run of positional words; key=value words after an
    # option come back as extras and join the run's items
    args, extras = parser.parse_known_args(argv)
    stray = [w for w in extras if args.command != "run" or not _is_override(w)]
    if stray:
        parser.error(f"unrecognized arguments: {' '.join(stray)}")

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
    items = args.items + extras
    paths = [w for w in items if not _is_override(w)]
    overrides = [w for w in items if _is_override(w)]
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
        if report.conflict:
            summary += f" (conflict: probe {report.outcome['probe']['kind']})"
        print(f"{report.scenario}: {report.task} -> {summary}")
        print(f"{report.scenario}: elapsed {elapsed:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
