"""Run orchestration: advance a configured simulation and write its outputs.

A run produces, inside the configured output directory:

  snapshot_NNNNNN.csv   cell fields (i, j, x, y, c1, c2, p, phi, rho_f) at
                        step 0, every `snapshot_stride`-th accepted step, and
                        the final step
  monitors.csv          one row per accepted step with every monitor value
                        and flag
  bounds.txt            the evaluated a-priori constants and the data norms
                        they were computed from
  summary.json          step/sweep/halving statistics (with the sweeps spent
                        on failed attempts), monitor verdict, wall time of
                        the march and its snapshot writes

The march hands over state k once step k + 1 is accepted and returns the
final one; run alone picks the snapshots, state k where `snapshot_stride`
divides k, then the final state.  So a run holds about two states at any
step count, as does check, which keeps none.  The other files follow the
march: a run that breaks down leaves only the snapshots already written.

Floats are written with repr(), so rerunning the same configuration
reproduces the CSV files byte for byte (summary.json contains the wall time
and is exempt from that guarantee).  csv_line is the one cell format of
every table, monitors.csv, `bounds --csv` and the `mms --csv` file alike.
"""

import json
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from . import gummel
from .monitors import MonitorReport
from .transport import free_charge


def _fmt(value):
    return repr(float(value))


def row_templates(grid):
    """Per grid row j, its snapshot lines with a %s slot after each cell's "i,j,x,y,"; one list serves a whole run."""
    x, y = (list(map(repr, c.tolist())) for c in grid.centers)
    return ["".join("%d,%d,%s,%s,%%s\n" % (i, j, xi, yj) for i, xi in enumerate(x)) for j, yj in enumerate(y)]


def snapshot_text(templates, params, state):
    """Yield one snapshot file in pieces: the header line, then the lines of each grid row j."""
    yield "i,j,x,y,c1,c2,p,phi,rho_f\n"
    planes = (f.values for f in (*state.conc, state.flow.p, state.electro.phi, free_charge(params, state.conc)))
    for template, *rows in zip(templates, *planes):  # a row at a time: no column is held whole
        yield template % tuple(map(",".join, zip(*(map(repr, r.tolist()) for r in rows))))


def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    return "%d" % v if isinstance(v, (int, np.integer)) else _fmt(v)


def csv_line(row):
    """One CSV line: text as it is, a flag as 1 or 0, an integer in decimal, any other number as repr of its float."""
    return ",".join(map(_cell, row)) + "\n"


def write_csv(path, rows):
    """Write rows of raw values to path, one csv_line each."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(map(csv_line, rows))


# the one field reported under other names: (text label, CSV name)
_RENAMED = {"cm_log10": ("log10(CM)", "log10_CM")}


def _bounds_table(ledger):
    """The bounds report in order as (constants, data norms), read off the fields of BoundsLedger and DataNorms.

    Each entry is (text label, CSV name, value); a norm taken per species
    is a pair of values, written as NAME_1 and NAME_2 in the CSV.
    """

    def entries(record):
        return [
            (*_RENAMED.get(f.name, (f.name, f.name)), getattr(record, f.name))
            for f in fields(record)
            if f.name not in ("T", "norms")
        ]

    return entries(ledger), entries(ledger.norms)


def bounds_text(ledger):
    constants, norms = _bounds_table(ledger)

    def section(items):
        return [
            "  %-9s = %s" % (label, ", ".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v))
            for label, _, v in items
        ]

    lines = ["a-priori constants (T = %s)" % _fmt(ledger.T), ""] + section(constants) + ["", "data norms"]
    return "\n".join(lines + section(norms)) + "\n"


def bounds_csv_rows(ledger):
    constants, norms = _bounds_table(ledger)
    rows = [["quantity", "value"], ["T", ledger.T]]
    for _, name, value in constants + norms:
        if isinstance(value, tuple):
            rows += [["%s_%d" % (name, k), v] for k, v in enumerate(value, start=1)]
        else:
            rows.append([name, value])
    return rows


@dataclass
class RunOutput:
    result: object  # gummel.SimResult
    out_dir: str
    files: list
    summary: dict


def _advance(cfg, sink):
    return gummel.advance(cfg.grid, cfg.params, cfg.initial, cfg.schedule, cfg.settings, sink)


def run(cfg, out_dir=None):
    """Advance the configured simulation, writing the snapshots as the march hands states over, then the other files."""
    target = out_dir or cfg.out_dir
    os.makedirs(target, exist_ok=True)
    files = []
    templates = []  # formatted at the first write, after the first step, which keeps them out of the set-up

    def write_snapshot(k, state):
        if not templates:
            templates.extend(row_templates(cfg.grid))
        name = "snapshot_%06d.csv" % k
        with open(os.path.join(target, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(snapshot_text(templates, cfg.params, state))
        files.append(name)

    def write_kept(k, state):
        if k % cfg.snapshot_stride == 0:
            write_snapshot(k, state)

    t_start = time.perf_counter()
    result = _advance(cfg, write_kept)
    write_snapshot(len(result.reports), result.states[-1])
    wall = time.perf_counter() - t_start

    names = [f.name for f in fields(MonitorReport)]
    write_csv(os.path.join(target, "monitors.csv"), [names] + [[getattr(m, n) for n in names] for m in result.monitors])
    files.append("monitors.csv")

    with open(os.path.join(target, "bounds.txt"), "w", encoding="utf-8") as fh:
        fh.write(bounds_text(result.ledger))
    files.append("bounds.txt")

    summary = run_summary(cfg, result, wall)
    with open(os.path.join(target, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    files.append("summary.json")

    return RunOutput(result=result, out_dir=target, files=files, summary=summary)


def _tally(result):
    """Totals of the march, keyed as in summary.json, and per flag the failing monitor rows."""
    reports = result.reports
    totals = {
        "steps": len(reports),
        "total_sweeps": sum(r.sweeps for r in reports),
        "total_halvings": sum(r.halvings for r in reports),
        "total_wasted_sweeps": sum(r.wasted_sweeps for r in reports),
    }
    failing = {flag: [m for m in result.monitors if not getattr(m, flag)] for flag in MonitorReport.FLAGS}
    return totals, failing


def counts_line(totals):
    """The footer that run and check print, from _tally's totals (or summary.json)."""
    return (
        "steps: %(steps)d   sweeps: %(total_sweeps)d   halvings: %(total_halvings)d   "
        "wasted: %(total_wasted_sweeps)d" % totals
    )


def run_summary(cfg, result, wall_time):
    totals, failing = _tally(result)
    return {
        "grid": list(cfg.grid.n),
        "domain": list(cfg.grid.length),
        "t_end": result.states[-1].time,
        **totals,
        "max_sweeps_in_step": max((r.sweeps for r in result.reports), default=0),
        "monitor_rows": len(result.monitors),
        "monitor_failures": {flag: len(bad) for flag, bad in failing.items()},
        "all_monitors_ok": not any(failing.values()),
        "wall_time_s": wall_time,
    }


def check(cfg):
    """Run without writing files; return (ok, human-readable verdict lines)."""
    result = _advance(cfg, lambda k, state: None)
    totals, failing = _tally(result)
    lines = []
    for flag, bad in failing.items():
        detail = ""
        if bad:
            detail = "  (%d of %d steps, first at t=%s)" % (len(bad), len(result.monitors), _fmt(bad[0].time))
        lines.append("%s  %-12s%s" % ("FAIL" if bad else "PASS", flag.removesuffix("_ok"), detail))
    lines.append(counts_line(totals))
    return not any(failing.values()), lines
