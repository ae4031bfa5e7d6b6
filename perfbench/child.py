"""One benchmark run of dpnpsim in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --t0 T --workdir DIR
                               [--mode run|setup] [--trace] [--emit-fields]

Builds the workload's config dict, calls dpnpsim.runner.run (into
DIR/out) or dpnpsim.runner.check, checks the outcome and writes
DIR/result.json.  T is the parent's time.monotonic() just before it
started this process; the monotonic clock is shared by all processes, so
run_s and setup_s count interpreter start-up and imports.

--mode setup stops the run when the first Gummel step begins, which is
all that setup_s needs.  --trace wraps every layer (see tracer.py).
Exit status 3 means the program could not be imported at all; every
failure of the program itself is reported in result.json.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import re
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
from workloads import WORKLOADS  # noqa: E402

IMPORT_FAILED = 3
COARSE = 16  # reference fields are compared as block means on at most COARSE x COARSE blocks
FIELDS = ("c1", "c2", "phi", "p")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


class SetupDone(Exception):
    """Raised at the first Gummel step of a set-up-only run."""


class Probe:
    """The two hooks an untraced run needs: the set-up timestamp and the result.

    The first call of gummel.gummel_step records time.monotonic() and puts
    the previous binding back, so later steps run unwrapped; gummel.advance
    is wrapped to keep its SimResult, which runner.check does not return.
    """

    def __init__(self, gummel, stop_at_setup):
        self.t_setup = None
        self.result = None
        step, advance = gummel.gummel_step, gummel.advance

        def first_step(*args, **kwargs):
            self.t_setup = time.monotonic()
            gummel.gummel_step = step
            if stop_at_setup:
                raise SetupDone()
            return step(*args, **kwargs)

        def keep_result(*args, **kwargs):
            self.result = advance(*args, **kwargs)
            return self.result

        gummel.gummel_step = first_step
        gummel.advance = keep_result


def environment(np, scipy):
    """Library versions and the OpenBLAS thread count this process runs with."""
    threads, source = None, "OpenBLAS default (one per CPU)"
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            source = "%s=%s" % (var, os.environ[var])
            break
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": threads,
        "blas_threads_source": source,
    }


def final_fields(state):
    return {
        "c1": state.conc.c1.values,
        "c2": state.conc.c2.values,
        "phi": state.electro.phi.values,
        "p": state.flow.p.values,
    }


def coarsen(values):
    """Block means on at most COARSE x COARSE blocks, as nested lists."""
    ny, nx = values.shape
    fy, fx = max(1, ny // COARSE), max(1, nx // COARSE)
    blocks = values[: ny // fy * fy, : nx // fx * fx].reshape(ny // fy, fy, nx // fx, fx)
    return blocks.mean(axis=(1, 3)).tolist()


def csv_digests(out_dir):
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def reference(workload):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload.name]


def reference_errors(np, workload, fields):
    """Largest block-mean difference to the seed reference, per field, relative to its maximum."""
    ref = reference(workload)["fields"]
    errors = {}
    for name in FIELDS:
        want = np.array(ref[name])
        got = np.array(coarsen(fields[name]))
        scale = float(np.abs(want).max()) or 1.0
        errors[name] = float(np.abs(got - want).max()) / scale if got.shape == want.shape else math.inf
    return errors


def program_counts(workload, summary, lines):
    """Steps, sweeps and halvings as the program itself reports them."""
    if workload.entry == "run":
        return {"steps": summary["steps"], "sweeps": summary["total_sweeps"],
                "halvings": summary["total_halvings"]}
    found = re.search(r"steps:\s*(\d+)\s+sweeps:\s*(\d+)\s+halvings:\s*(\d+)", "\n".join(lines))
    steps, sweeps, halvings = (int(g) for g in found.groups())
    return {"steps": steps, "sweeps": sweeps, "halvings": halvings}


def gate(np, workload, cfg, probe, record, compare):
    """Correctness checks of a finished run; returns the list of failures.

    compare: also check the final fields against the seed reference.
    """
    failures = []
    result = probe.result
    if result is None or not result.states:
        return ["gummel.advance returned no states"]
    t_end = cfg.params.T_end
    t_final = result.states[-1].time
    record["t_final"] = t_final
    if abs(t_final - t_end) > 1e-12 * max(1.0, t_end):
        failures.append("final time %r is not T_end %r" % (t_final, t_end))
    if not result.monitors or len(result.monitors) != len(result.reports):
        failures.append("%d monitor rows for %d steps" % (len(result.monitors), len(result.reports)))
    bad = [m.time for m in result.monitors if not m.all_ok()]
    if bad:
        failures.append("monitor flags fail on %d steps, first at t=%r" % (len(bad), bad[0]))
    if compare:
        errors = reference_errors(np, workload, final_fields(result.states[-1]))
        record["reference_error"] = errors
        worst = max(errors, key=errors.get)
        if errors[worst] > workload.rtol:
            failures.append("final %s differs from the seed reference by %.3g > %.3g of its maximum"
                            % (worst, errors[worst], workload.rtol))
    return failures


def trace_failures(values, counts):
    """A hook that records nothing, or totals that disagree with the program's own report."""
    failures = ["hook %s recorded no calls" % name for name in tracing.REQUIRED_COUNTS if not values[name]]
    for name in ("steps", "sweeps", "halvings"):
        if values["gummel." + name] != counts[name]:
            failures.append("traced gummel.%s = %d but the program reports %d"
                            % (name, values["gummel." + name], counts[name]))
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=("run", "setup"), default="run")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--emit-fields", action="store_true", help="add coarse final fields and CSV digests")
    args = ap.parse_args(argv)

    try:
        import dpnpsim
        from dpnpsim import config, gummel, runner
    except ImportError:
        traceback.print_exc()
        return IMPORT_FAILED
    if not os.path.abspath(dpnpsim.__file__).startswith(os.path.join(ROOT, "src", "")):
        print("dpnpsim was imported from %s, not from %s/src" % (dpnpsim.__file__, ROOT))
        return IMPORT_FAILED
    import numpy as np
    import scipy

    workload = WORKLOADS[args.workload]
    out_dir = os.path.join(args.workdir, "out")
    record = {"workload": workload.name, "seed": args.seed, "mode": args.mode, "trace": args.trace}
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, dpnpsim)
    probe = Probe(gummel, stop_at_setup=args.mode == "setup")

    failures = []
    try:
        cfg = config.parse_config(workload.config(args.seed))
        if workload.entry == "run":
            summary, lines = runner.run(cfg, out_dir=out_dir).summary, None
        else:
            ok, lines = runner.check(cfg)
            summary = None
        record["t_done"] = time.monotonic()
    except SetupDone:
        pass
    except Exception as exc:  # any failure of the program is a failed run, reported below
        failures.append("raised %s: %s" % (type(exc).__name__, exc))
        record["traceback"] = traceback.format_exc()
    record["t_setup"] = probe.t_setup

    if args.mode == "run" and not failures:
        compare = args.seed == 0 and not args.emit_fields
        failures += gate(np, workload, cfg, probe, record, compare)
        if not (summary["all_monitors_ok"] if summary else ok):
            failures.append("the program's own monitor verdict is FAIL")
        counts = program_counts(workload, summary, lines)
        record["program_counts"] = counts
        if workload.entry == "run":
            record["csv_sha256"] = csv_digests(out_dir)
            record["files"] = sorted(os.listdir(out_dir))
            record["bytes_written"] = sum(os.path.getsize(os.path.join(out_dir, f)) for f in record["files"])
            if compare:
                record["csv_identical"] = record["csv_sha256"] == reference(workload)["csv_sha256"]
        if tracer is not None:
            record["layers"] = tracing.layer_values(tracer)
            failures += trace_failures(tracer.values, counts)
        if args.emit_fields:
            record["fields"] = {k: coarsen(v) for k, v in final_fields(probe.result.states[-1]).items()}
    if args.mode == "setup" and probe.t_setup is None and not failures:
        failures.append("the run ended before its first Gummel step")

    record["failures"] = failures
    record["environment"] = environment(np, scipy)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
