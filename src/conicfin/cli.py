"""Command line runner for scenario files.

conicfin run scenario.json [--seed N] [--out DIR] [--jobs K] [--strict]
conicfin render out/summary.json

Exit codes: 0 all jobs passed, 1 job failures (or warnings under
--strict), 2 malformed config, unreadable input or a --jobs below 1. A
config is checked whole before any job runs, so exit 2 writes nothing.
"""

from __future__ import annotations

import argparse
import json
import sys

from .scenario import ScenarioError, render_summary, run_scenario


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return int(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="conicfin", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario", help="path to the scenario JSON")
    run_p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    run_p.add_argument("--out", default="out", help="artifact directory (default ./out)")
    run_p.add_argument("--jobs", type=_positive_int, default=1, help="parallel job workers")
    run_p.add_argument("--strict", action="store_true", help="treat warnings as failures")
    render_p = sub.add_parser("render", help="pretty-print a summary.json")
    render_p.add_argument("summary", help="path to summary.json")
    args = parser.parse_args(argv)

    if args.command == "render":
        try:
            with open(args.summary) as f:
                text = render_summary(json.load(f))
        # malformed JSON is a ValueError; JSON that is not a summary object
        # fails its lookups and formats
        except (OSError, ValueError, LookupError, AttributeError, TypeError) as exc:
            print(f"cannot read summary: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 0

    try:
        with open(args.scenario) as f:
            cfg = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        summary = run_scenario(
            cfg, args.out, seed_override=args.seed, jobs_parallel=args.jobs, strict=args.strict
        )
    except ScenarioError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(render_summary(summary))
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
