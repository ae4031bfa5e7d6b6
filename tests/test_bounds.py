"""A-priori constant chain: frozen arithmetic oracles and structure checks.

Frozen oracles (hand arithmetic with unit material data, z = (1, -1)):

  B0 with theta = 1, D = (1, 1), kappa = 1, no reaction and sigma_inf = 1,
  all other data zero: max(2, 2) * (12 * 1 * 1 / 1) * (1 + 0 + 0 + 0) = 24.

  C0_hat at T with no growth (kappa = 0 gives B0 = 0) and both species
  uniformly 1 on the unit square: sum_l |z_l| * 1 = 2, so C0_hat = sqrt(2),
  and with g = 0 also C0 = sqrt(2).

  C_M with B0_moser * T = 0: 2 * (sum c0_inf + sum g_inf) + sum g_inf;
  initial data (1, 0) and no inflow give exactly 2.

The energy monitor enforces the rate assembled term by term
(compute_energy_rate) rather than the compact closed form (compute_B0):
the two coincide for pure surface-charge data (both 24 in the oracle
above), but the compact form scales the convection/reaction terms by
12 kappa^2 max|z|^2 / alpha_D and omits the boundary-trace term entirely,
so with weak drift coupling or any nonzero inflow it understates the
actual growth; oracles below freeze both sides of that divergence.

Structural properties: every constant is nonnegative and nondecreasing in
the horizon T; extreme data saturates C_M to inf while log10(C_M) stays
finite and exact.

One ledger per run: a march builds the full chain once, at T_end, and the
C0_hat_energy a ledger at a step's time would report is bit for bit the
square root of the energy monitor's bound at that step.
"""

import json
import math
import os

import numpy as np
import pytest

from dpnpsim import bounds, gummel
from dpnpsim.bounds import (
    BoundsEvaluator,
    compute_B0,
    compute_CM,
    compute_data_norms,
    compute_energy_bound,
    compute_energy_rate,
    compute_moser_B0,
)
from dpnpsim.config import parse_config
from dpnpsim.mesh import CellField, Grid
from dpnpsim.params import PhysParams
from dpnpsim.transport import Concentrations

from march_helpers import march
from schedule_helpers import constant_schedule


def make_setup(grid_n=4, c1=1.0, c2=1.0, **sched_kw):
    g = Grid(grid_n, grid_n, 1.0, 1.0)
    initial = Concentrations(CellField.full(g, c1), CellField.full(g, c2))
    sched = constant_schedule(g, **sched_kw)
    return g, initial, sched


def test_B0_frozen_value_24():
    g, initial, sched = make_setup(sigma={"left": 1.0})
    p = PhysParams(theta=1.0, D=(1.0, 1.0), kappa=1.0)
    norms = compute_data_norms(g, sched, initial, T=1.0)
    assert norms.sigma_inf == pytest.approx(1.0)
    assert compute_B0(p, norms) == pytest.approx(24.0)


def test_B0_scales_quadratically_in_kappa_and_z():
    g, initial, sched = make_setup(sigma={"left": 1.0})
    norms = compute_data_norms(g, sched, initial, T=1.0)
    b_ref = compute_B0(PhysParams(kappa=1.0), norms)
    assert compute_B0(PhysParams(kappa=2.0), norms) == pytest.approx(4.0 * b_ref)
    assert compute_B0(PhysParams(kappa=1.0, z2=-2), norms) == pytest.approx(4.0 * b_ref)
    # no coupling, no growth
    assert compute_B0(PhysParams(kappa=0.0), norms) == 0.0


def test_B0_includes_reaction_term():
    g, initial, sched = make_setup()
    p = PhysParams(theta=1.0, kappa=1.0, exchange_rate=2.0)
    norms = compute_data_norms(g, sched, initial, T=1.0)
    # bracket = 3 * theta * rate = 6, prefactors 2 * 12
    assert compute_B0(p, norms) == pytest.approx(144.0)


def test_energy_bound_frozen_no_growth():
    g, initial, sched = make_setup()
    p = PhysParams(kappa=0.0)
    norms = compute_data_norms(g, sched, initial, T=2.0)
    B0 = compute_B0(p, norms)
    assert B0 == 0.0
    c0_hat, c0 = compute_energy_bound(p, norms, B0, T=2.0)
    assert c0_hat == pytest.approx(math.sqrt(2.0))
    assert c0 == pytest.approx(math.sqrt(2.0))


def test_energy_bound_grows_exponentially_with_B0():
    g, initial, sched = make_setup()
    p = PhysParams()
    norms = compute_data_norms(g, sched, initial, T=1.0)
    # C0_hat = sqrt(exp(B0 T) * data), so raising B0 by 2 over T = 1
    # multiplies it by exp(1)
    c_hat_1, _ = compute_energy_bound(p, norms, 2.0, T=1.0)
    c_hat_2, _ = compute_energy_bound(p, norms, 4.0, T=1.0)
    assert c_hat_2 == pytest.approx(c_hat_1 * math.exp(1.0))


def test_energy_rate_matches_compact_for_pure_surface_charge():
    # sigma-only data is the one regime where the compact closed form and
    # the assembled rate agree exactly: 2 kappa^2 zmax^2 * 6 sigma^2/alpha_D
    # equals (12 kappa^2 zmax^2 / alpha_D) * sigma^2 term for term.
    g, initial, sched = make_setup(sigma={"left": 1.0})
    p = PhysParams(theta=1.0, D=(1.0, 1.0), kappa=1.0)
    norms = compute_data_norms(g, sched, initial, T=1.0)
    assert compute_B0(p, norms) == pytest.approx(24.0)
    assert compute_energy_rate(p, norms) == pytest.approx(24.0)


def test_energy_rate_inflow_trace_term_survives_zero_coupling():
    # with kappa = 0 the compact rate vanishes identically, but a nonzero
    # inflow still grows the energy through the boundary trace; the
    # assembled rate keeps that term: max(2, 2) * 12 / alpha_D = 24.
    g, initial, sched = make_setup(g1={"left": 0.25})
    p = PhysParams(theta=1.0, D=(1.0, 1.0), kappa=0.0)
    norms = compute_data_norms(g, sched, initial, T=1.0)
    assert compute_B0(p, norms) == 0.0
    assert compute_energy_rate(p, norms) == pytest.approx(24.0)
    # no inflow, no trace term
    g2_, initial2, sched2 = make_setup()
    norms2 = compute_data_norms(g2_, sched2, initial2, T=1.0)
    assert compute_energy_rate(p, norms2) == 0.0


def test_energy_rate_reaction_term_not_kappa_scaled():
    # exchange rate 0.3, theta = 0.5, z = (1, -2):
    # max(2/0.5, 2) * 3 * 0.5 * 2 * 0.3 = 4 * 0.9 = 3.6 even at kappa = 0.
    g, initial, sched = make_setup()
    p = PhysParams(theta=0.5, D=(1.0, 1.0), kappa=0.0, z2=-2, exchange_rate=0.3)
    norms = compute_data_norms(g, sched, initial, T=1.0)
    assert compute_B0(p, norms) == 0.0
    assert compute_energy_rate(p, norms) == pytest.approx(3.6)


def test_enforced_bound_weights_inflow_data():
    # zero initial data, constant inflow 0.25 on the left edge of the unit
    # square over [0, 1]: ||g||^2 over time x boundary = 0.0625.  With zero
    # rate the compact bound squared is zmax * 0.0625; the enforced one
    # weights it by max(2/theta, 2/alpha_D) = 2 and grows at the trace rate
    # max(2/theta, 2/alpha_D) * 12/alpha_D = 24.
    g, initial, sched = make_setup(c1=0.0, c2=0.0, g1={"left": 0.25})
    p = PhysParams(theta=1.0, D=(1.0, 1.0), kappa=0.0)
    norms = compute_data_norms(g, sched, initial, T=1.0)
    c_plain, _ = compute_energy_bound(p, norms, 0.0, T=1.0)
    assert c_plain == pytest.approx(0.25)
    ev = BoundsEvaluator(g, p, sched, initial)
    assert ev.energy_bound_sq(1.0) == pytest.approx(math.exp(24.0) * 2.0 * 0.0625)


def test_CM_frozen_value_2():
    cm, lg = compute_CM(
        compute_data_norms(*_norm_args(c1=1.0, c2=0.0)),
        B0_moser=0.0,
        T=5.0,
    )
    assert cm == pytest.approx(2.0)
    assert lg == pytest.approx(math.log10(2.0))


def _norm_args(c1, c2, **sched_kw):
    g, initial, sched = make_setup(c1=c1, c2=c2, **sched_kw)
    return g, sched, initial, 5.0


def test_CM_includes_inflow_floor():
    # with a = 0 the bound is exactly sum g_inf
    cm, _ = compute_CM(
        compute_data_norms(*_norm_args(c1=0.0, c2=0.0, g1={"left": 0.0})),
        B0_moser=10.0,
        T=1.0,
    )
    assert cm == 0.0
    norms = compute_data_norms(*_norm_args(c1=0.0, c2=0.0, g1={"left": 0.25}))
    cm, _ = compute_CM(norms, B0_moser=0.0, T=1.0)
    assert cm == pytest.approx(2.0 * 0.25 + 0.25)


def test_CM_saturates_to_inf_with_finite_log():
    norms = compute_data_norms(*_norm_args(c1=1.0, c2=1.0))
    cm, lg = compute_CM(norms, B0_moser=4000.0, T=5.0)
    assert math.isinf(cm)
    # ln C_M ~ ln(2a) + B0_moser T / 2; log10 scaled
    assert lg == pytest.approx((math.log(4.0) + 10000.0) / math.log(10.0), rel=1e-6)


def test_full_ledger_is_finite_and_ordered_for_mild_data():
    g, initial, sched = make_setup(c1=0.5, c2=0.5, g1={"left": 0.05})
    p = PhysParams(theta=0.8, kappa=0.05, T_end=0.1, dt=0.01)
    ev = BoundsEvaluator(g, p, sched, initial)
    led = ev.ledger()
    for name in ("B0", "B0_energy", "B0_moser", "C0_hat", "C0_hat_energy", "C0", "CM", "Ce", "Cf"):
        v = getattr(led, name)
        assert np.isfinite(v) and v >= 0.0, name
    assert led.C0 >= led.C0_hat
    # weak coupling plus inflow: the assembled rate exceeds the compact one,
    # so the enforced energy bound is the larger of the two
    assert led.B0_energy > led.B0
    assert led.C0_hat_energy > led.C0_hat
    assert led.CM >= sum(led.norms.c0_inf)
    # the run's ledger is built once and handed out on every call
    assert ev.ledger() is led


def test_energy_bound_sq_nondecreasing_in_time():
    g, initial, sched = make_setup(c1=0.5, c2=0.25, g1={"left": 0.1}, g2={"right": 0.1})
    p = PhysParams(theta=0.9, kappa=0.2)
    ev = BoundsEvaluator(g, p, sched, initial)
    times = np.linspace(0.01, 1.0, 13)
    vals = [ev.energy_bound_sq(t) for t in times]
    assert all(b >= a * (1.0 - 1e-12) for a, b in zip(vals, vals[1:]))
    # and it dominates the initial energy
    assert vals[0] >= 2.0 * 0.25 * 0.0  # trivially nonnegative
    assert ev.sup_bound() == ev.ledger().CM


def test_energy_bound_sq_takes_the_time_independent_norms_once():
    # c0_l2, c0_inf and rhob_inf do not depend on t: the evaluator takes them
    # on construction, and a step reads neither the initial data nor the
    # background charge again
    g = Grid(4, 4, 1.0, 1.0)
    initial = Concentrations(CellField.full(g, 0.5), CellField.full(g, 0.25))
    sched = constant_schedule(g, sigma={"left": 0.1}, g1={"left": 0.1}, rho_b=CellField.full(g, 0.2))
    ev = BoundsEvaluator(g, PhysParams(theta=0.9, kappa=0.2), sched, initial)
    assert ev.norms(0.5) == compute_data_norms(g, sched, initial, 0.5)
    times = (0.01, 0.5, 1.0)
    before = [ev.energy_bound_sq(t) for t in times]
    ev.initial = None
    sched.rho_b.values[:] = 7.0
    initial.c1.values[:] = 7.0
    assert [ev.energy_bound_sq(t) for t in times] == before


def test_norms_use_exact_ramp_integrals():
    g = Grid(2, 2, 1.0, 1.0)
    initial = Concentrations(CellField.zeros(g), CellField.zeros(g))
    from dpnpsim.schedule import BoundarySpec, Ramp, Schedule

    sched = Schedule(
        sigma=BoundarySpec(g),
        f=BoundarySpec(g),
        g=(BoundarySpec(g, left=2.0, ramp=Ramp("linear", t0=0.0, t1=1.0)), BoundarySpec(g)),
        rho_b=CellField.zeros(g),
    )
    norms = compute_data_norms(g, sched, initial, T=1.0)
    # space_sq = 2^2 * ly = 4; int of ramp^2 over [0,1] = 1/3
    assert norms.g_l2[0] == pytest.approx(math.sqrt(4.0 / 3.0))
    assert norms.g_inf[0] == pytest.approx(2.0)


def test_a_march_builds_one_ledger_and_the_energy_bound_matches_it(monkeypatch):
    with open(os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "demo.json")) as fh:
        doc = json.load(fh)
    doc["time"]["t_end"] = 0.02  # four demo steps
    cfg = parse_config(doc)
    evaluators, cm_calls = [], []

    class Recorded(BoundsEvaluator):
        def __init__(self, *args):
            super().__init__(*args)
            evaluators.append(self)

    def counted_CM(*args):
        cm_calls.append(args)
        return compute_CM(*args)

    monkeypatch.setattr(gummel, "BoundsEvaluator", Recorded)
    monkeypatch.setattr(bounds, "compute_CM", counted_CM)
    res = march(cfg.grid, cfg.params, cfg.initial, cfg.schedule, cfg.settings)
    assert len(cm_calls) == 1
    (ev,) = evaluators
    assert ev.ledger() is ev.ledger() is res.ledger
    times = [m.time for m in res.monitors]
    assert len(times) == 4 and times[-1] == cfg.params.T_end
    for m in res.monitors:
        assert m.energy_bound == ev.energy_bound_sq(m.time)
        assert ev.ledger(m.time).C0_hat_energy == math.sqrt(m.energy_bound)
    # ledger(T) builds a new ledger and keeps nothing
    at_end = ev.ledger(cfg.params.T_end)
    assert at_end == res.ledger and at_end is not res.ledger
    assert at_end.C0_hat_energy == math.sqrt(ev.energy_bound_sq(cfg.params.T_end))
