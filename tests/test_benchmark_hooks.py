"""The benchmark's tracer reaches every call site it wraps.

perfbench/tracer.py patches dpnpsim from outside, by module global: for
example gummel.solve_gauss, gummel.step_transport and transport.solve_nonsym.
A call site that is renamed, or that stops going through that global, is
silently missed and its counters read zero.  The patches are process-wide,
so the tracer is installed in a fresh interpreter, which runs runner.check
on a tiny configuration and prints the tracer's counts.  The per-layer
iteration counts linalg.spd_iters and linalg.nonsym_iters are read from the
solve reports, so they must be nonzero too: a solver that reports no
iterations would zero the benchmark's iteration metrics.

A step that fails in a linear solve is retried at half the step like one
whose sweep stalls, and the tracer counts halvings from the GummelError that
gummel_step raises; the traced count must equal the halvings that check
reports when a forced solver failure is the only cause.  With the solve
failing at the nominal dt of 0.01 on [0, 0.02], the march halves the first
step, keeps dt/2 for the second, tries 0.01 again for the third and halves
it: 2 halvings.

The benchmark's child process reads SimResult.states, .monitors and
.reports, and the sweeps and iterations of the reports, and it checks the
monitors and the final fields of a run; a weak-32 run, untraced and traced,
must end with no failure recorded.

The same tiny check, untraced, also pins the import footprint: importing
the command line and running check loads no scipy module at all.  The
matrices are numpy diagonals and both solvers are local, so nothing needs
scipy, and importing scipy.sparse alone added about 0.15 s of start-up and
22 MB of memory, which would move the benchmark's setup_s and peak_rss_mb.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, sys
import dpnpsim, tracer
t = tracer.Tracer()
tracer.install(t, dpnpsim)
ok, lines = dpnpsim.runner.check(dpnpsim.config.parse_config(sys.argv[1]))
names = tracer.REQUIRED_COUNTS + ("linalg.spd_iters", "linalg.nonsym_iters")
print(json.dumps({name: t.values[name] for name in names}))
"""

FORCED_SOLVER_FAILURE = """
import inspect, json, re, sys
import dpnpsim, tracer
from dpnpsim import gummel, linalg
real_step_transport = gummel.step_transport

def failing_at_nominal_dt(*args, **kwargs):
    if inspect.signature(real_step_transport).bind(*args, **kwargs).arguments["dt"] == 0.01:
        raise linalg.SolverError("forced failure", linalg.SolveReport(1, 1.0))
    return real_step_transport(*args, **kwargs)

gummel.step_transport = failing_at_nominal_dt
t = tracer.Tracer()
tracer.install(t, dpnpsim)
ok, lines = dpnpsim.runner.check(dpnpsim.config.parse_config(sys.argv[1]))
footer = {key: int(n) for key, n in re.findall(r"(\\w+): (\\d+)", lines[-1])}
print(json.dumps({"check": footer["halvings"], "traced": t.values["gummel.halvings"]}))
"""

FOOTPRINT = """
import json, sys
import dpnpsim.cli, dpnpsim.config, dpnpsim.runner
dpnpsim.runner.check(dpnpsim.config.parse_config(sys.argv[1]))
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""

TINY = {
    "grid": {"nx": 6, "ny": 6},
    "physics": {"kappa": 0.1, "z1": 1, "z2": -2, "reaction": {"kind": "exchange", "rate": 0.1}},
    "initial": {"c1": {"kind": "expression", "expr": "0.5 + 0.2*cos(pi*x)"}, "c2": 0.3},
    "boundary": {"g1": {"left": 0.05}, "f": {"left": -0.1, "right": 0.1}},
    "time": {"t_end": 0.02, "dt": 0.01},
}


def run_fresh(script, *dirs):
    """Run script on TINY in a fresh interpreter with dirs on its path; returns its last line as JSON."""
    done = subprocess.run(
        [sys.executable, "-c", script, json.dumps(TINY)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(os.path.join(ROOT, d) for d in dirs)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_every_required_benchmark_hook_fires():
    counts = run_fresh(SCRIPT, "src", "perfbench")
    assert set(counts) and not [name for name, n in counts.items() if not n], counts


def test_traced_halvings_match_check_on_linear_solver_failure():
    halvings = run_fresh(FORCED_SOLVER_FAILURE, "src", "perfbench")
    assert halvings["check"] == 2 and halvings["traced"] == halvings["check"], halvings


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_benchmark_child_run_records_no_failures(tmp_path, traced):
    argv = [os.path.join(ROOT, "perfbench", "child.py"), "--workload", "weak-32", "--seed", "0"]
    argv += ["--t0", repr(time.monotonic()), "--workdir", str(tmp_path)] + (["--trace"] if traced else [])
    done = subprocess.run([sys.executable] + argv, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "result.json", encoding="utf-8") as fh:
        result = json.load(fh)
    assert result["failures"] == [], result.get("traceback", result["failures"])


def test_cli_and_check_import_no_scipy():
    assert run_fresh(FOOTPRINT, "src") == []
