"""Workload generator: a config dict per (workload, seed).

Every workload is the demo physics (configs/demo.json as shipped when this
benchmark was defined, copied here so that editing the shipped config does
not change the benchmark) with a different grid, horizon or coupling.

Seed 0 gives each workload exactly as described below.  Any other seed
jitters the initial data -- the centre of the c1 Gaussian by up to +-0.01
in each coordinate and its amplitude by up to +-1% -- which changes the
numbers but not the amount of work (sweep, halving and step counts stay
the same on every workload).
"""

import copy
import random

DEMO = {
    "grid": {"nx": 32, "ny": 32, "lx": 1.0, "ly": 1.0},
    "physics": {
        "theta": 0.8,
        "D": [1.0, 1.0],
        "K": [1.0, 1.0],
        "mu": 1.0,
        "eps_s": 1.0,
        "kappa": 0.05,
        "z1": 1,
        "z2": -2,
        "reaction": {"kind": "exchange", "rate": 0.1},
    },
    "initial": {
        "c1": {"kind": "gaussian", "center": [0.35, 0.5], "width": 0.12, "amplitude": 0.6},
        "c2": {"kind": "expression", "expr": "0.3 + 0.1*sin(pi*x)*sin(pi*y)"},
    },
    "background_charge": {"kind": "constant", "value": 0.05},
    "boundary": {
        "sigma": {"left": 0.02, "right": -0.02},
        "f": {"left": -0.1, "right": 0.1, "ramp": {"kind": "linear", "t0": 0.0, "t1": 0.05}},
        "g1": {"left": 0.02},
        "g2": {"left": 0.04},
    },
    "time": {"t_end": 0.1, "dt": 0.005, "tol": 1e-10, "max_sweeps": 50},
    "output": {"directory": "out/demo", "snapshot_stride": 5},
}

JITTER = 0.01


class Workload:
    """One benchmark case: how to build its config and how to judge its result."""

    def __init__(self, name, entry, why, changes, rtol, rtol_why):
        self.name = name
        self.entry = entry  # "run" (writes files) or "check" (verdict only)
        self.why = why
        self.changes = changes  # {(block, key): value} applied to DEMO
        self.rtol = rtol  # final-field tolerance against the seed reference
        self.rtol_why = rtol_why

    def config(self, seed):
        doc = copy.deepcopy(DEMO)
        for (block, key), value in self.changes.items():
            doc[block][key] = value
        if seed:
            rng = random.Random(seed)
            c1 = doc["initial"]["c1"]
            c1["center"] = [c + JITTER * rng.uniform(-1.0, 1.0) for c in c1["center"]]
            c1["amplitude"] *= 1.0 + JITTER * rng.uniform(-1.0, 1.0)
        return doc


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "weak-32",
            "run",
            "the documented demo run: 32x32, kappa 0.05, 20 steps of 4 sweeps; operator assembly is a large share",
            {},
            1e-7,
            "weak coupling converges to Gummel tol 1e-10 with linear tol 1e-12; any correct solver "
            "or assembly change moves the fields by rounding only (about 1e-10)",
        ),
        Workload(
            "fine-128",
            "run",
            "demo physics on 128x128 for 2 steps: Krylov iterations grow as 1/h, BLAS threads engage, big snapshots",
            {("grid", "nx"): 128, ("grid", "ny"): 128, ("time", "t_end"): 0.01},
            1e-6,
            "same fixed point as weak-32, but CG on the 128x128 Laplacian (condition number about 1e4) "
            "amplifies the 1e-12 linear residual; a direct solve may differ by about 1e-8",
        ),
        Workload(
            "strong-16",
            "check",
            "demo physics on 16x16 with kappa 200: the Gummel fixed point stalls, dt halves 11 times, sweeps dominate",
            {("grid", "nx"): 16, ("grid", "ny"): 16, ("time", "t_end"): 0.01, ("physics", "kappa"): 200.0},
            0.25,
            "must admit a different accepted dt sequence (a dt controller): uniform dt 0.005/4 to 0.005/64 "
            "instead of the seed's halved steps moved c1 by up to 4% and phi by up to 10% of their maxima",
        ),
    )
}
