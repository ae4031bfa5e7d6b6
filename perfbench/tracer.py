"""Per-layer tracing of dpnpsim from outside the package.

dpnpsim binds its collaborators with `from .x import y`, so a function is
wrapped in the namespace of the module that calls it (for example
`gummel.solve_gauss`, not `gauss.solve_gauss`).  Every wrapper is a span:
it adds its duration minus the time of the spans nested in it to its
layer's self time, so the self times of all layers add up to the traced
wall time of the outermost span.  Counters are taken at the same
boundaries from the reports the wrapped functions return or raise.
"""

import time
from collections import defaultdict


class Tracer:
    """Span stack, self time per layer, and named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.self_s = defaultdict(float)  # layer -> self time
        self.values = defaultdict(float)  # counter or total-time name -> value
        self._stack = []  # one [child time] cell per open span

    def wrap(self, fn, layer, count=None, total=None, on_return=None, on_error=None):
        """Return fn wrapped as a span of `layer`.

        count names a counter raised by one per call, total a value that
        collects the span's whole duration; on_return(result) and
        on_error(exc) update counters from what the call produced.
        """
        stack, self_s, values, clock = self._stack, self.self_s, self.values, self.clock

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            else:
                if on_return is not None:
                    on_return(out)
                return out
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - child[0]
                if stack:
                    stack[-1][0] += duration
                if count is not None:
                    values[count] += 1
                if total is not None:
                    values[total] += duration

        return span

    def patch(self, owner, name, layer, **hooks):
        """Replace owner.name (a module function or a class attribute) by a span."""
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, layer, **hooks))
        else:
            replacement = self.wrap(original, layer, **hooks)
        setattr(owner, name, replacement)


def install(tracer, pkg):
    """Wrap every traced call site of the dpnpsim package `pkg`."""
    config, runner, gummel = pkg.config, pkg.runner, pkg.gummel
    gauss, darcy, transport, linalg = pkg.gauss, pkg.darcy, pkg.transport, pkg.linalg
    monitors, bounds = pkg.monitors, pkg.bounds
    v = tracer.values

    def add(name, amount):
        v[name] += amount

    def solved(kind):
        return lambda out: add("linalg.%s_iters" % kind, out[1].iterations)

    def solve_failed(kind):
        def on_error(exc):
            if isinstance(exc, linalg.SolverError):
                add("linalg.solver_errors", 1)
                add("linalg.%s_iters" % kind, exc.report.iterations)

        return on_error

    def step_done(out):
        add("gummel.steps", 1)
        add("gummel.sweeps", out[1].sweeps)

    def step_failed(exc):
        if isinstance(exc, gummel.GummelError):
            add("gummel.halvings", 1)
            add("gummel.sweeps_wasted", exc.report.sweeps)

    tracer.patch(config, "parse_config", "config", total="config.parse_s")
    tracer.patch(runner, "run", "runner.run")
    tracer.patch(runner, "check", "runner.check")
    tracer.patch(gummel, "advance", "gummel")
    tracer.patch(gummel, "initial_state", "gummel", total="gummel.initial_s")
    tracer.patch(gummel, "gummel_step", "gummel", count="gummel.attempts",
                 on_return=step_done, on_error=step_failed)
    tracer.patch(gummel, "solve_gauss", "gauss", count="gauss.calls")
    tracer.patch(gummel, "solve_darcy", "darcy", count="darcy.calls")
    tracer.patch(gummel, "step_transport", "transport", count="transport.calls")
    tracer.patch(gauss, "fv_laplacian", "gauss", count="gauss.laplacian_calls")
    tracer.patch(darcy, "fv_laplacian", "darcy", count="gauss.laplacian_calls")
    for owner in (gauss, darcy):
        tracer.patch(owner, "solve_spd", "linalg.spd", count="linalg.spd_calls",
                     on_return=solved("spd"), on_error=solve_failed("spd"))
    tracer.patch(transport, "solve_nonsym", "linalg.nonsym", count="linalg.nonsym_calls",
                 on_return=solved("nonsym"), on_error=solve_failed("nonsym"))
    tracer.patch(linalg.SparseMatrix, "from_coo", "linalg.assemble")
    tracer.patch(linalg.SparseMatrix, "__init__", "linalg.assemble", count="linalg.assemble_calls")
    tracer.patch(monitors, "check_state", "monitors", count="monitors.calls", total="monitors.s")
    for method in ("__init__", "norms", "ledger", "energy_bound_sq", "sup_bound"):
        tracer.patch(bounds.BoundsEvaluator, method, "bounds")


# Hooks each workload must reach; a zero count means a hook missed its call site.
REQUIRED_COUNTS = (
    "gummel.attempts",
    "gummel.steps",
    "gummel.sweeps",
    "gauss.calls",
    "darcy.calls",
    "transport.calls",
    "gauss.laplacian_calls",
    "linalg.spd_calls",
    "linalg.nonsym_calls",
    "linalg.assemble_calls",
    "monitors.calls",
)

# Per-layer metrics of one traced run: (name, unit, better).
PER_LAYER = (
    ("gauss.laplacian_calls", "count", "lower"),
    ("linalg.assemble_calls", "count", "lower"),
    ("linalg.assemble_s", "s", "lower"),
    ("linalg.spd_calls", "count", "lower"),
    ("linalg.spd_iters", "count", "lower"),
    ("linalg.spd_iters_per_solve", "iter/solve", "lower"),
    ("linalg.spd_s", "s", "lower"),
    ("linalg.nonsym_calls", "count", "lower"),
    ("linalg.nonsym_iters", "count", "lower"),
    ("linalg.nonsym_iters_per_solve", "iter/solve", "lower"),
    ("linalg.nonsym_s", "s", "lower"),
    ("linalg.solver_errors", "count", "lower"),
    ("transport.calls", "count", "lower"),
    ("transport.self_s", "s", "lower"),
    ("gauss.calls", "count", "lower"),
    ("gauss.self_s", "s", "lower"),
    ("darcy.calls", "count", "lower"),
    ("darcy.self_s", "s", "lower"),
    ("gummel.steps", "count", "lower"),
    ("gummel.attempts", "count", "lower"),
    ("gummel.halvings", "count", "lower"),
    ("gummel.sweeps", "count", "lower"),
    ("gummel.sweeps_wasted", "count", "lower"),
    ("gummel.sweep_yield", "ratio", "higher"),
    ("gummel.self_s", "s", "lower"),
    ("runner.write_s", "s", "lower"),
    ("runner.bytes_written", "bytes", "lower"),
    ("runner.files", "count", "lower"),
    ("monitors.calls", "count", "lower"),
    ("monitors.s", "s", "lower"),
    ("bounds.s", "s", "lower"),
    ("config.parse_s", "s", "lower"),
    ("gummel.initial_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_values(tracer):
    """Per-layer figures of one traced run, except those measured outside it.

    runner.bytes_written and runner.files come from the output directory,
    trace.overhead_s from comparing with untraced runs.
    """
    v, s = tracer.values, tracer.self_s
    sweeps_all = v["gummel.sweeps"] + v["gummel.sweeps_wasted"]
    out = {name: v[name] for name in REQUIRED_COUNTS}
    out.update({
        "linalg.assemble_s": s["linalg.assemble"],
        "linalg.spd_iters": v["linalg.spd_iters"],
        "linalg.spd_iters_per_solve": v["linalg.spd_iters"] / max(v["linalg.spd_calls"], 1),
        "linalg.spd_s": s["linalg.spd"],
        "linalg.nonsym_iters": v["linalg.nonsym_iters"],
        "linalg.nonsym_iters_per_solve": v["linalg.nonsym_iters"] / max(v["linalg.nonsym_calls"], 1),
        "linalg.nonsym_s": s["linalg.nonsym"],
        "linalg.solver_errors": v["linalg.solver_errors"],
        "transport.self_s": s["transport"],
        "gauss.self_s": s["gauss"],
        "darcy.self_s": s["darcy"],
        "gummel.halvings": v["gummel.halvings"],
        "gummel.sweeps_wasted": v["gummel.sweeps_wasted"],
        "gummel.sweep_yield": v["gummel.sweeps"] / max(sweeps_all, 1),
        "gummel.self_s": s["gummel"],
        "runner.write_s": s["runner.run"],
        "monitors.s": v["monitors.s"],
        "bounds.s": s["bounds"],
        "config.parse_s": v["config.parse_s"],
        "gummel.initial_s": v["gummel.initial_s"],
    })
    return out
