"""Regenerate perfbench/reference.json: the seed-0 outcome every later run is judged against.

    python3 perfbench/make_reference.py

Runs each workload once at seed 0 (child.py --emit-fields) and stores its
final c1, c2, phi and p as block means (child.coarsen), the sha256 of every
CSV it wrote and the program's step, sweep and halving counts.  The
committed file was made from the seed commit of the benchmark; regenerate it
only when a change to the program is meant to change the results.
"""

import json
import os
import time

from child import REFERENCE
from run import spawn
from workloads import WORKLOADS


def main():
    ref = {}
    for name, workload in WORKLOADS.items():
        rec = spawn(name, 0, time.monotonic() + 600.0, emit_fields=True)
        if rec["failures"]:
            raise SystemExit("%s failed: %s" % (name, rec["failures"]))
        ref[name] = {
            "rtol": workload.rtol,
            "rtol_why": workload.rtol_why,
            "fields": rec["fields"],
            "csv_sha256": rec.get("csv_sha256", {}),
            "program_counts": rec["program_counts"],
        }
        print(name, rec["program_counts"], "%.1f s" % rec["run_s"], flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
