"""Strong drift: the demo physics on 16x16 at kappa up to 1000.

The acceptance suite meets only weak coupling (kappa in [0.02, 0.05]).  The
source paper proves existence for every valence pair z1 > 0 > z2 and every
coupling, so the monitors must also hold here, where the Gummel fixed point
contracts slowly or not at all at the nominal dt and the march recovers by
halving it.  The sweep relaxes itself (Aitken) and a halved dt is kept for
the next step, so at kappa 1000 the march stays within 320 sweeps (accepted
and wasted) and 20 halvings, where the plain sweep that returned to the
nominal dt after every step took 1,209 and 106.

A failed attempt is given up as soon as its contraction rate shows that the
sweep budget cannot reach tol, so it costs a few sweeps rather than the
whole budget of 50: at most 10 wasted sweeps per halving.

On the demo's charged data (sigma and background charge nonzero) the
a-priori constants overflow: the sup flag is vacuous in every case
(C_M = inf), and so is the energy flag from kappa = 200 (C0_hat_energy is
6e90 or inf, and the largest energy/bound ratio reads 0.000).  Those cases
show that the march recovers, not that the bounds hold.  With sigma = 0 and
no background charge the energy bound does not depend on kappa, because the
sign condition makes the drift term dissipative; there the march reaches
0.85-0.99 of the bound, so the energy flag is a live check of that
mechanism.  C_M is still inf there, so the sup flag stays vacuous.

kappa 200 with z = (1, -2) is the benchmark's strong-16 case; its accepted
path (steps, sweeps and halvings) is pinned, since giving up early must not
change which attempts succeed there: 4 steps, 49 sweeps, 2 halvings and 4
wasted sweeps.  On 64x64, the largest grid whose two species are solved as
one stacked system, its path is pinned too: 4 steps, 51 sweeps, 2 halvings
and 4 wasted sweeps.
"""

import copy
import json
import math
import os

import pytest

from dpnpsim.config import parse_config
from dpnpsim.monitors import MonitorReport

from march_helpers import march

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "configs", "demo.json"), encoding="utf-8") as fh:
    DEMO = json.load(fh)

CASES = [(kappa, z) for kappa in (10.0, 200.0, 1000.0) for z in ((1, -2), (1, -1))] + [
    (200.0, (3, -3)),
    (200.0, (1, -3)),
    (10.0, (3, -1)),
    (1000.0, (3, -1)),
]
UNCHARGED = [(kappa, z) for kappa in (200.0, 1000.0) for z in ((1, -2), (3, -1))]


def _ids(cases):
    return ["kappa%g-z%d%d" % (k, z1, z2) for k, (z1, z2) in cases]


def _march(kappa, z, uncharged=False, n=16):
    """The demo on n x n to t = 0.01 at this coupling; every monitor passes and each halving wastes <= 10 sweeps."""
    doc = copy.deepcopy(DEMO)
    doc["grid"].update(nx=n, ny=n)
    doc["physics"].update(kappa=kappa, z1=z[0], z2=z[1])
    doc["time"].update(t_end=0.01)
    if uncharged:
        del doc["boundary"]["sigma"]
        doc["background_charge"] = 0.0
    cfg = parse_config(doc)
    res = march(cfg.grid, cfg.params, cfg.initial, cfg.schedule, cfg.settings)

    for m in res.monitors:
        for flag in MonitorReport.FLAGS:
            assert getattr(m, flag), "%s failed at t=%g" % (flag, m.time)
    assert res.states[-1].time == pytest.approx(0.01, abs=1e-12)

    halvings = sum(r.halvings for r in res.reports)
    assert sum(r.wasted_sweeps for r in res.reports) <= 10 * halvings
    return res, halvings


@pytest.mark.parametrize("kappa, z", CASES, ids=_ids(CASES))
def test_strong_coupling_recovers_with_every_monitor_passing(kappa, z):
    res, halvings = _march(kappa, z)
    if (kappa, z) == (200.0, (1, -2)):
        assert (len(res.reports), sum(r.sweeps for r in res.reports), halvings) == (4, 49, 2)
    if (kappa, z) == (1000.0, (1, -2)):
        assert sum(r.sweeps + r.wasted_sweeps for r in res.reports) <= 320
        assert halvings <= 20


def test_strong_drift_on_the_largest_stacked_grid_passes_every_monitor():
    res, halvings = _march(200.0, (1, -2), n=64)
    assert (len(res.reports), sum(r.sweeps for r in res.reports), halvings) == (4, 51, 2)


@pytest.mark.parametrize("kappa, z", UNCHARGED, ids=_ids(UNCHARGED))
def test_uncharged_strong_coupling_keeps_a_finite_energy_bound_that_bites(kappa, z):
    res, _ = _march(kappa, z, uncharged=True)
    assert all(math.isfinite(m.energy_bound) for m in res.monitors)
    assert max(m.energy / m.energy_bound for m in res.monitors) > 0.5
