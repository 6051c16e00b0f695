"""CLI: ``python -m repro.analyze <app> [-O LEVEL]``.

Compiles the app, runs the three checks (layout, budget, verify),
prints the deterministic JSON report (or writes it with ``-o``), and
exits 2 when any check reported an error-severity finding. A bad
argument is also exit 2, through ``parser.error`` before anything is
compiled or written.
"""

from __future__ import annotations

import argparse
import sys

from repro.analyze.core import (
    EXIT_FINDINGS,
    report_text,
    run_analysis,
    write_report,
)
from repro.apps import APP_CLASSES
from repro.options import LEVEL_ORDER, parse_level


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Layout, budget and differential checks of one compile")
    parser.add_argument("app",
                        help="application name (l3switch/firewall/mpls)")
    parser.add_argument("-O", "--level", default="SWC",
                        help="optimization level (BASE..SWC; -O3 = SWC)")
    parser.add_argument("-o", "--output", metavar="PATH",
                        help="write the JSON report here instead of stdout")
    parser.add_argument("--packets", type=int, default=200,
                        help="profiling-trace packets (default 200)")
    parser.add_argument("--seed", type=int, default=5,
                        help="profiling-trace seed (default 5)")
    args = parser.parse_args(argv)

    if args.app not in APP_CLASSES:
        parser.error("unknown app %r (choose from %s)"
                     % (args.app, ", ".join(sorted(APP_CLASSES))))
    level = parse_level(args.level)
    if level is None:
        parser.error("unknown optimization level -O %r (have: %s, plus "
                     "-O0/-O3 aliases)" % (args.level, ", ".join(LEVEL_ORDER)))
    if args.packets < 1:
        # An empty trace validates nothing and still reports "ok".
        parser.error("--packets must be >= 1, got %d" % args.packets)
    report = run_analysis(args.app, level, packets=args.packets,
                          seed=args.seed)
    if args.output:
        write_report(report, args.output)
        print("wrote %s (%s, %d error findings)" % (
            args.output, "ok" if report["ok"] else "NOT OK",
            report["errors_total"]))
    else:
        sys.stdout.write(report_text(report))
    return 0 if report["ok"] else EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
