"""dpnpsim benchmark: whole-run time, set-up time, CPU, memory and failures per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --collect FILE

Run from the repository root (it builds nothing; the program is imported
from src/).  Each run of the program is a fresh interpreter
(perfbench/child.py), one at a time, for about S seconds:

--trace 0  five set-up-only runs, then whole runs.  Prints the end-to-end
           metrics: run_s, setup_s, cpu_s and peak_rss_mb, each the median
           over its runs with quartiles and the run count.
--trace 1  pairs of one untraced and one traced whole run.  Prints the
           per-layer metrics of the traced runs (see tracer.py) and
           trace.overhead_s, traced minus untraced run_s.
--all      all workloads untraced, then all traced; exits 1 if any run fails.
--collect  gathers every result kept in .perfbench/results/ into FILE.

Every run is checked (child.py): no exception, every monitor flag true on
every accepted step, the march lands on T_end and, on seed 0, the final
fields match perfbench/reference.json within the workload's tolerance.  A
traced run must also reach every hook and agree with the program's own step,
sweep and halving counts.  The last line of output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit status is 1 when a run
failed and 2 when the program cannot be run at all (no result line then).
Each invocation also keeps a full record, environment included, in
.perfbench/results/.
"""

import argparse
import glob
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from tracer import PER_LAYER
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SCRATCH = os.path.join(ROOT, ".perfbench")
RESULTS = os.path.join(SCRATCH, "results")
IMPORT_FAILED = 3  # child.py's exit status when dpnpsim cannot be imported
SETUP_RUNS = 5  # set-up-only runs before the whole runs of an untraced invocation
HARD_LIMIT_S = 170.0  # a run still going this long after the invocation began is killed

END_TO_END = (
    ("run_s", "s"),
    ("setup_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)


class HarnessError(RuntimeError):
    """The benchmark itself cannot run (no program, a run past the hard limit)."""


def _tail(path, lines=20):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return "".join(fh.readlines()[-lines:])


def spawn(workload, seed, hard_deadline, mode="run", trace=False, emit_fields=False):
    """Run child.py once and return its record, with the process's times and memory."""
    os.makedirs(SCRATCH, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=SCRATCH)
    log_path = os.path.join(workdir, "log.txt")
    args = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
            "--workdir", workdir, "--mode", mode]
    args += ["--trace"] * trace + ["--emit-fields"] * emit_fields
    try:
        with open(log_path, "w", encoding="utf-8") as log:
            t0 = time.monotonic()
            proc = subprocess.Popen(args + ["--t0", repr(t0)], cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > hard_deadline:
                    proc.kill()
                    os.wait4(proc.pid, 0)
                    proc.returncode = -9
                    raise HarnessError("%s run still going at the hard limit; killed" % workload)
                time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode == IMPORT_FAILED:
            raise HarnessError("dpnpsim cannot be imported from %s/src:\n%s" % (ROOT, _tail(log_path)))
        result_path = os.path.join(workdir, "result.json")
        if proc.returncode != 0 or not os.path.exists(result_path):
            record = {"failures": ["child exited with status %d:\n%s" % (proc.returncode, _tail(log_path))]}
        else:
            with open(result_path, encoding="utf-8") as fh:
                record = json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["cpu_s"] = usage.ru_utime + usage.ru_stime
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if record.get("t_setup") is not None:
        record["setup_s"] = record["t_setup"] - t0
    if record.get("t_done") is not None:
        record["run_s"] = record["t_done"] - t0
    return record


def stats(values):
    """Median, quartiles and count of the values."""
    values = sorted(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _repeat(one, end):
    """Call one() at least once, and again while another call fits before end."""
    out, durations = [], []
    while not out or time.monotonic() + statistics.median(durations) <= end:
        start = time.monotonic()
        out.append(one())
        durations.append(time.monotonic() - start)
    return out


def measure(workload, seed, seconds, trace):
    """One invocation: returns the record with its metrics, samples and environment."""
    start = time.monotonic()
    end, hard = start + seconds, start + HARD_LIMIT_S
    load_before = os.getloadavg()
    if trace:
        pairs = _repeat(lambda: (spawn(workload, seed, hard), spawn(workload, seed, hard, trace=True)), end)
        plain, traced = [p[0] for p in pairs], [p[1] for p in pairs]
        samples = plain + traced
    else:
        setups = [spawn(workload, seed, hard, mode="setup") for _ in range(SETUP_RUNS)]
        plain = _repeat(lambda: spawn(workload, seed, hard), end)
        traced = []
        samples = setups + plain
    failed = [s for s in samples if s["failures"]]
    record = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "elapsed_s": time.monotonic() - start,
        "attempted": len(samples),
        "failed": len(failed),
        "failed_share": len(failed) / len(samples),
        "failures": [s["failures"] for s in failed],
        "environment": dict(samples[0].get("environment", {}), nproc=os.cpu_count()),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "program_counts": plain[0].get("program_counts"),
        "csv_identical": plain[0].get("csv_identical"),
        "reference_error": plain[0].get("reference_error"),
        "samples": [{k: s.get(k) for k in ("mode", "trace", "run_s", "setup_s", "cpu_s", "peak_rss_mb")}
                    for s in samples],
    }
    # metrics of the runs that got far enough, failed or not; a failure still makes the result incorrect
    plain = [s for s in plain if "run_s" in s]
    traced = [s for s in traced if "layers" in s]
    if plain and (traced or not trace):
        record["metrics"] = layer_metrics(plain, traced) if trace else end_to_end_metrics(samples, plain)
    return record


def end_to_end_metrics(samples, plain):
    values = {
        "run_s": [s["run_s"] for s in plain],
        "setup_s": [s["setup_s"] for s in samples if "setup_s" in s],
        "cpu_s": [s["cpu_s"] for s in plain],
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
    }
    return {name: dict(stats(values[name]), unit=unit) for name, unit in END_TO_END}


def layer_metrics(plain, traced):
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            vals = [stats([s["run_s"] for s in traced])["median"] - stats([s["run_s"] for s in plain])["median"]]
        elif name == "runner.files":
            vals = [len(s.get("files", [])) for s in traced]
        elif name == "runner.bytes_written":
            vals = [s.get("bytes_written", 0) for s in traced]
        else:
            vals = [s["layers"][name] for s in traced]
        metrics[name] = dict(stats(vals), unit=unit)
    return metrics


def report(record):
    """Human-readable lines for one invocation."""
    env = record["environment"]
    lines = ["%s  seed %d  trace %d  %d runs in %.1f s" % (
        record["workload"], record["seed"], record["trace"], record["attempted"], record["elapsed_s"])]
    for name, m in record.get("metrics", {}).items():
        lines.append("  %-31s %14.6g %-10s [q1 %.6g  q3 %.6g  n=%d]" % (
            name, m["median"], m["unit"], m["q1"], m["q3"], m["n"]))
    lines.append("  %-31s %14.6g %-10s [%d of %d runs failed]" % (
        "failed_share", record["failed_share"], "ratio", record["failed"], record["attempted"]))
    if record["program_counts"]:
        lines.append("  program counts: %s" % json.dumps(record["program_counts"], sort_keys=True))
    if record["reference_error"] is not None:
        lines.append("  seed-0 reference error (relative): %s" % json.dumps(record["reference_error"], sort_keys=True))
    if record["csv_identical"] is not None:
        lines.append("  CSVs byte-identical to the seed reference: %s (reported, not gated)" % record["csv_identical"])
    for failure in record["failures"]:
        lines.append("  FAILED: %s" % "; ".join(failure))
    lines.append("  env: nproc %s, python %s, numpy %s, scipy %s, BLAS threads %s (%s), load %.2f -> %.2f" % (
        env.get("nproc"), env.get("python"), env.get("numpy"), env.get("scipy"), env.get("blas_threads"),
        env.get("blas_threads_source"), record["load_before"][0], record["load_after"][0]))
    return lines


def keep(record, tag):
    os.makedirs(RESULTS, exist_ok=True)
    name = "%s-%s-%d.json" % (tag, time.strftime("%Y%m%dT%H%M%S", time.gmtime()), os.getpid())
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def result_line(records, prefix):
    """The closing JSON object; prefix=True names metrics workload.metric (for --all)."""
    metrics = {}
    for rec in records:
        for name, m in rec.get("metrics", {}).items():
            key = "%s.%s" % (rec["workload"], name) if prefix else name
            metrics[key] = {"value": m["median"], "unit": m["unit"]}
    return {
        "correct": all(not r["failed"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def collect(path):
    """Write every kept result, newest last, as {"runs": [...]} with the samples left out."""
    runs = []
    for name in sorted(glob.glob(os.path.join(RESULTS, "*.json")), key=os.path.getmtime):
        with open(name, encoding="utf-8") as fh:
            rec = json.load(fh)
        for r in rec.get("invocations", [rec]):
            r.pop("samples", None)
            runs.append(r)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d results written to %s" % (len(runs), path))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    ap.add_argument("--collect", metavar="FILE", help="gather the kept results into FILE")
    args = ap.parse_args(argv)
    if args.collect:
        collect(args.collect)
        return 0
    if not args.all and not args.workload:
        ap.error("give --workload, --all or --collect")

    plan = [(w, t) for t in (0, 1) for w in WORKLOADS] if args.all else [(args.workload, args.trace)]
    records = []
    try:
        for workload, trace in plan:
            rec = measure(workload, args.seed, args.seconds, trace)
            records.append(rec)
            print("\n".join(report(rec)), flush=True)
            if not args.all:
                keep(rec, "%s-seed%d-trace%d" % (workload, args.seed, trace))
    except HarnessError as exc:
        print("benchmark cannot run: %s" % exc, file=sys.stderr)
        return 2
    if args.all:
        keep({"invocations": records}, "all-seed%d" % args.seed)
    line = result_line(records, prefix=args.all)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
