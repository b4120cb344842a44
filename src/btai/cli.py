"""Command line interface.

Subcommands:
  run          execute a scenario and print the episode report
  graph        export a scenario's behavior tree as Graphviz DOT
  validate     parse and validate a scenario file
  count-nodes  compare node counts of two scenario trees

Exit codes for ``run``: 0 Goal, 1 Failure, 2 Timeout.  Usage and validation
errors exit with 3.
"""

from __future__ import annotations

import argparse
import sys

from .bt import export_graph
from .episode import report, run_episode
from .scenario import ScenarioError, parse_scenario

EXIT_USAGE = 3


def _add_run(sub):
    p = sub.add_parser("run", help="run a scenario to Goal/Failure/Timeout")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--seed", type=int, default=None,
                   help="override the scenario seed")
    p.add_argument("--budget", type=int, default=None,
                   help="override the tick budget")
    p.add_argument("--deterministic", dest="deterministic", default=None,
                   action="store_true",
                   help="force deterministic action outcomes")
    p.add_argument("--stochastic", dest="deterministic", action="store_false",
                   help="force stochastic action outcomes")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write the per-tick JSON-lines trace here")
    p.add_argument("--quiet", action="store_true", help="suppress the report")


def _add_graph(sub):
    p = sub.add_parser("graph", help="export the behavior tree as DOT")
    p.add_argument("scenario")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write DOT here instead of stdout")


def _add_validate(sub):
    p = sub.add_parser("validate", help="check a scenario file")
    p.add_argument("scenario")


def _add_count(sub):
    p = sub.add_parser("count-nodes",
                       help="compare tree sizes of two scenarios")
    p.add_argument("scenario_a")
    p.add_argument("scenario_b")


def main(argv=None) -> int:
    # names come from the scenario file; a stdout that cannot encode one
    # (PYTHONIOENCODING=ascii, a C locale) prints it escaped, not a traceback
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    parser = argparse.ArgumentParser(
        prog="btai",
        description="Reactive task planning with behavior trees and "
                    "active-inference action selection.")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run(sub)
    _add_graph(sub)
    _add_validate(sub)
    _add_count(sub)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; normalize to our usage code
        return EXIT_USAGE if exc.code not in (0, None) else 0

    try:
        if args.command == "run":
            scenario = parse_scenario(args.scenario)
            try:
                result = run_episode(scenario, seed=args.seed,
                                     deterministic=args.deterministic,
                                     budget=args.budget,
                                     trace_path=args.trace_out)
            except ValueError as exc:   # a --budget or --seed out of range
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            if not args.quiet:
                sys.stdout.write(report(result))
            return result.exit_code

        if args.command == "graph":
            scenario = parse_scenario(args.scenario)
            dot = export_graph(scenario.build_tree())
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(dot)
            else:
                sys.stdout.write(dot)
            return 0

        if args.command == "validate":
            scenario = parse_scenario(args.scenario)
            print(f"ok: {scenario.name} ({len(scenario.states)} states, "
                  f"{len(scenario.actions)} actions, {scenario.bt_nodes} bt nodes)")
            return 0

        if args.command == "count-nodes":
            a = parse_scenario(args.scenario_a)
            b = parse_scenario(args.scenario_b)
            na, nb = a.bt_nodes, b.bt_nodes
            print(f"{a.name}: {na} nodes")
            print(f"{b.name}: {nb} nodes")
            print(f"ratio: {na / nb:.4f}")
            print(f"compression: {1.0 - na / nb:.4f}")
            return 0
    except (ScenarioError, OSError) as exc:
        # OSError: an output file (--out, --trace-out) cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
