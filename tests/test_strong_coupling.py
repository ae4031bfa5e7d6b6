"""Strong drift: the demo physics on 16x16 at kappa up to 1000.

The acceptance suite meets only weak coupling (kappa in [0.02, 0.05]).  The
source paper proves existence for every valence pair z1 > 0 > z2 and every
coupling, so the monitors must also hold here, where the Gummel fixed point
contracts slowly or not at all at the nominal dt and the march recovers by
halving it.

A failed attempt is given up as soon as its contraction rate shows that the
sweep budget cannot reach tol, so it costs a few sweeps rather than the
whole budget of 50: at most 10 wasted sweeps per halving.

kappa 200 with z = (1, -2) is the benchmark's strong-16 case; its accepted
path (steps, sweeps and halvings) is pinned, since giving up early must not
change which attempts succeed there.
"""

import copy
import json
import os

import pytest

from dpnpsim.config import parse_config
from dpnpsim.gummel import advance
from dpnpsim.monitors import MonitorReport

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "configs", "demo.json"), encoding="utf-8") as fh:
    DEMO = json.load(fh)

CASES = [(kappa, z) for kappa in (10.0, 200.0, 1000.0) for z in ((1, -2), (1, -1))] + [(200.0, (3, -3))]


@pytest.mark.parametrize("kappa, z", CASES, ids=["kappa%g-z%d%d" % (k, z1, z2) for k, (z1, z2) in CASES])
def test_strong_coupling_recovers_with_every_monitor_passing(kappa, z):
    doc = copy.deepcopy(DEMO)
    doc["grid"].update(nx=16, ny=16)
    doc["physics"].update(kappa=kappa, z1=z[0], z2=z[1])
    doc["time"]["t_end"] = 0.01
    cfg = parse_config(doc)
    res = advance(cfg.grid, cfg.params, cfg.initial, cfg.schedule, cfg.settings)

    for m in res.monitors:
        for flag in MonitorReport.FLAGS:
            assert getattr(m, flag), "%s failed at t=%g" % (flag, m.time)
    assert res.states[-1].time == pytest.approx(0.01, abs=1e-12)

    halvings = sum(r.halvings for r in res.reports)
    assert sum(r.wasted_sweeps for r in res.reports) <= 10 * halvings
    if (kappa, z) == (200.0, (1, -2)):
        assert (len(res.reports), sum(r.sweeps for r in res.reports), halvings) == (7, 165, 11)
