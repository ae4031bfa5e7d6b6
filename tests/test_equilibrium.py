"""A closed system marched to its equilibrium limit.

With no Darcy data, no inflow and no reaction the system is closed: the
demo's surface charge sigma (0.02 left, -0.02 right) and background charge
0.05 are uniform in y, and the march converges to the discrete Boltzmann
state, where every Scharfetter-Gummel flux vanishes.  There the
quasi-Fermi potentials mu_l = log c_l + kappa eps_s z_l phi are constant,
which is an oracle that needs no reference solution.  On 16x16 at
kappa 10, z = (1, -2), dt 0.04 to t = 4 (100 steps, 265 sweeps, no
halving) the spread max - min of mu_l, the larger over the two species,
reads 7.34e-5, 3.33e-9 and 4.93e-13 at t = 1, 2 and 4, and max |q| stays
below 1e-16.  With the valences mirrored, kappa 1 and z = (2, -1) (100 steps,
214 sweeps, no halving), the spread reads 6.70e-5, 2.74e-9 and 3.76e-13 and
max |q| 2.8e-15, 2.6e-17 and 2.3e-17: the flow has not settled at t = 1, so
|q| is asserted from t = 2 there.

Exponential decay to equilibrium is proven without flow (Bessemoulin-Chatard
& Chainais-Hillairet, J. Numer. Math. 25, 2017); with the Darcy coupling
the decay asserted here is measured, not proven.
"""

import json
import os

import numpy as np

from dpnpsim.config import parse_config
from dpnpsim.monitors import MonitorReport

from march_helpers import march

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_closed_system_reaches_the_boltzmann_state():
    _march_to_equilibrium(10.0, (1, -2), q_from=1.0)


def test_closed_system_with_mirrored_valences_reaches_the_boltzmann_state():
    _march_to_equilibrium(1.0, (2, -1), q_from=2.0)


def _march_to_equilibrium(kappa, z, q_from):
    """March closed data to t = 4: every monitor passes, the spread falls 1e3-fold per sample to <= 1e-12.

    max |q| <= 1e-15 is asserted at the samples from t = q_from on.
    """
    with open(os.path.join(ROOT, "configs", "demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["grid"].update(nx=16, ny=16)
    doc["physics"].update(kappa=kappa, z1=z[0], z2=z[1])
    del doc["physics"]["reaction"]
    doc["boundary"] = {"sigma": doc["boundary"]["sigma"]}
    doc["time"].update(t_end=4.0, dt=0.04)
    cfg = parse_config(doc)
    p = cfg.params
    res = march(cfg.grid, cfg.params, cfg.initial, cfg.schedule, cfg.settings)

    for m in res.monitors:
        for flag in MonitorReport.FLAGS:
            assert getattr(m, flag), "%s failed at t=%g" % (flag, m.time)

    def spread(state):
        phi = state.electro.phi.values
        return max(float(np.ptp(np.log(c.values) + p.kappa * p.eps_s * zl * phi)) for c, zl in zip(state.conc, p.z))

    sampled = [s for s in res.states if min(abs(s.time - t) for t in (1.0, 2.0, 4.0)) < 1e-9]
    assert [round(s.time, 9) for s in sampled] == [1.0, 2.0, 4.0]
    spreads = [spread(s) for s in sampled]
    assert all(later <= 1e-3 * earlier for earlier, later in zip(spreads, spreads[1:])), spreads
    assert spreads[-1] <= 1e-12, spreads
    for s in sampled:
        if s.time >= q_from - 1e-9:
            assert max(float(np.abs(q).max()) for q in s.flow.q_faces.planes) <= 1e-15, s.time
