"""Command-line interface.

  dpnpsim run CONFIG [--out DIR]     advance and write snapshots/monitors/
                                     bounds/summary into the output directory
  dpnpsim check CONFIG               advance without writing and print one
                                     PASS/FAIL line per runtime monitor
  dpnpsim mms CASE [--grids LIST]    convergence study for one manufactured
                                     case ("16,32,64" or "16x8,32x16")
  dpnpsim bounds CONFIG [--csv]      evaluate the a-priori constants for a
                                     configuration without running it

Exit codes: 0 success, 2 configuration violations (printed one per line),
1 runtime failure (solver/fixed-point breakdown, an output file that cannot
be written, or a failed check).
"""

import argparse
import sys

from . import runner
from .bounds import BoundsEvaluator
from .config import ConfigError, load_config
from .gummel import GummelError
from .linalg import SolverError


def _parse_grids(text):
    """The grid list "16,32" or "16x8,32x16" as ints and (nx, ny) pairs; blank entries are skipped."""
    parts = [part.strip() for part in text.split(",") if part.strip()]
    return [tuple(map(int, part.split("x", 1))) if "x" in part else int(part) for part in parts]


def _load(path):
    try:
        return load_config(path)
    except OSError as exc:
        raise ConfigError(["cannot read %s: %s" % (path, exc)]) from None


def _cmd_run(args):
    cfg = _load(args.config)
    out = runner.run(cfg, out_dir=args.out)
    s = out.summary
    print("wrote %d files to %s" % (len(out.files), out.out_dir))
    print(
        "%s   monitors: %s   wall: %.3fs"
        % (runner.counts_line(s), "ok" if s["all_monitors_ok"] else "FAILED", s["wall_time_s"])
    )
    return 0


def _cmd_check(args):
    cfg = _load(args.config)
    ok, lines = runner.check(cfg)
    for line in lines:
        print(line)
    return 0 if ok else 1


def _cmd_mms(args):
    from . import mms  # only this command reads the manufactured cases, so run, check and bounds start without them

    try:
        mms.check_case(args.case)
    except ValueError as exc:
        args.error(str(exc))  # argparse's error: usage, the message, exit 2
    try:
        grids = mms.check_grids(_parse_grids(args.grids))
    except ValueError as exc:
        print("bad grid list %r: %s" % (args.grids, exc), file=sys.stderr)
        return 2
    table = mms.run_mms(args.case, grids)
    print(table.text())
    if args.csv:
        runner.write_csv(args.csv, table.csv_rows())
        print("wrote %s" % args.csv)
    return 0


def _cmd_bounds(args):
    cfg = _load(args.config)
    ev = BoundsEvaluator(cfg.grid, cfg.params, cfg.schedule, cfg.initial)
    ledger = ev.ledger()
    print(runner.bounds_text(ledger), end="")
    if args.csv:
        print()
        sys.stdout.writelines(map(runner.csv_line, runner.bounds_csv_rows(ledger)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="dpnpsim",
        description="Finite-volume simulator for two-species electrodiffusion in a porous medium.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="advance a configuration and write output files")
    p_run.add_argument("config", help="path to a JSON configuration")
    p_run.add_argument("--out", help="output directory (overrides output.directory)")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="advance and print one PASS/FAIL line per monitor")
    p_check.add_argument("config", help="path to a JSON configuration")
    p_check.set_defaults(func=_cmd_check)

    p_mms = sub.add_parser("mms", help="manufactured-solution convergence study")
    p_mms.add_argument("case", help="a manufactured case; an unknown name prints the list")
    p_mms.add_argument("--grids", default="16,32,64", help="comma list: '16,32,64' or '16x8,32x16'")
    p_mms.add_argument("--csv", help="also write the table to this CSV file")
    p_mms.set_defaults(func=_cmd_mms, error=p_mms.error)

    p_bounds = sub.add_parser("bounds", help="evaluate the a-priori constants for a configuration")
    p_bounds.add_argument("config", help="path to a JSON configuration")
    p_bounds.add_argument("--csv", action="store_true", help="also print the table as CSV")
    p_bounds.set_defaults(func=_cmd_bounds)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # the configuration cannot be read or is invalid: exit 2
        for v in exc.violations:
            print(v, file=sys.stderr)
        return 2
    except (GummelError, SolverError, OSError) as exc:  # the march broke down or an output failed: exit 1
        print("%s failed: %s" % (args.command, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
