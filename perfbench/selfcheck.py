"""Self-check of the benchmark's tracing; exits 1 on the first failed check.

    python3 perfbench/selfcheck.py

1. The span arithmetic of tracer.Tracer on a scripted clock: self times of
   nested spans, counters and the error path.
2. One traced run of every workload at seed 0.  child.py already fails a
   traced run when a required hook records zero calls or when the traced
   step, sweep and halving totals differ from the program's own summary.json
   or `check` footer; on top of that each workload must reach the hooks
   listed in MUST_REACH, and reproduce the counts of the seed commit in
   SEED_COUNTS (iteration counts only with the 2 OpenBLAS threads they were
   taken with).
"""

import sys
import time

import tracer as tracing
from run import spawn
from workloads import WORKLOADS

MUST_REACH = {
    "weak-32": ("runner.write_s", "runner.files", "bounds.s", "config.parse_s", "gummel.initial_s"),
    "fine-128": ("runner.write_s", "runner.files", "bounds.s", "config.parse_s", "gummel.initial_s"),
    "strong-16": ("gummel.halvings", "gummel.sweeps_wasted", "bounds.s", "config.parse_s", "gummel.initial_s"),
}

SEED_COUNTS = {
    "weak-32": {"gummel.steps": 20, "gummel.sweeps": 80, "gummel.halvings": 0, "linalg.spd_calls": 202,
                "gauss.laplacian_calls": 202, "linalg.nonsym_calls": 160},
    "fine-128": {"gummel.steps": 2, "gummel.sweeps": 8, "linalg.spd_calls": 22, "linalg.spd_iters": 11187},
    "strong-16": {"gummel.steps": 7, "gummel.attempts": 18, "gummel.halvings": 11, "gummel.sweeps": 165,
                  "gummel.sweeps_wasted": 550},
}
THREAD_DEPENDENT = ("linalg.spd_iters", "linalg.nonsym_iters")


class ScriptedClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def check_tracer():
    clock = ScriptedClock()
    tr = tracing.Tracer(clock)

    def inner(x):
        clock.now += 2.0
        if x < 0:
            raise ValueError(x)
        return x

    errors = []
    inner_span = tr.wrap(inner, "inner", count="inner.calls", on_error=lambda exc: errors.append(exc))

    def outer(x):
        clock.now += 1.0
        return inner_span(x)

    outer_span = tr.wrap(outer, "outer", total="outer.s", on_return=lambda out: tr.values.__setitem__("last", out))
    assert outer_span(5) == 5
    try:
        outer_span(-1)
    except ValueError:
        pass
    else:
        raise AssertionError("the span swallowed an exception")
    assert tr.self_s["outer"] == 2.0 and tr.self_s["inner"] == 4.0, dict(tr.self_s)
    assert tr.values["outer.s"] == 6.0 and tr.values["inner.calls"] == 2, dict(tr.values)
    assert tr.values["last"] == 5 and len(errors) == 1 and not tr._stack


def check_workload(name):
    rec = spawn(name, 0, time.monotonic() + 600.0, trace=True)
    problems = list(rec["failures"])
    if not problems:
        layers = rec["layers"]
        layers["runner.files"] = len(rec.get("files", []))
        problems += ["%s is zero" % k for k in MUST_REACH[name] if not layers[k]]
        threads = rec["environment"]["blas_threads"]
        for key, want in SEED_COUNTS[name].items():
            if key in THREAD_DEPENDENT and threads != 2:
                continue
            if layers[key] != want:
                problems.append("%s = %g, seed commit had %d" % (key, layers[key], want))
    return problems


def main():
    check_tracer()
    print("tracer span arithmetic: ok")
    failed = False
    for name in WORKLOADS:
        problems = check_workload(name)
        failed = failed or bool(problems)
        print("%s: %s" % (name, "; ".join(problems) or "ok"), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
