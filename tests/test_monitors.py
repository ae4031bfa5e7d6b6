"""Runtime invariant monitors: frozen algebra oracles and flag behavior.

Frozen oracles (hand arithmetic):
  algebraic_inequality(2, 1, 2) = (2-1)(4-1) = 3; (0, 5, 1) = 25.
  sign condition with z = (1, -1) and uniform (c1, c2) = (2, 1) on a unit
  cell: (2-1)(4-1) = 3; with z = (2, -3) and (3, 2): 6 vs 6 gives 0.
  weighted energy with z = (1, -1) and both species at 1 on a unit cell:
  1 + 1 = 2, and it scales quadratically in the concentrations.

Flag semantics: check_state only observes.  A state with a genuinely
negative concentration drops the nonneg flag, and a negative sign summand on
an admissible state (all concentrations above the -1e-12 fuzz, reachable
only at a valence above about 6e7) drops the sign flag with nonneg set; in
neither case does anything raise.
"""

from dataclasses import replace

import numpy as np
import pytest

from dpnpsim.bounds import BoundsEvaluator
from dpnpsim.config import parse_config
from dpnpsim.gummel import initial_state
from dpnpsim.mesh import CellField, Grid
from dpnpsim.monitors import MonitorReport, check_state, weighted_energy
from dpnpsim.params import PhysParams
from dpnpsim.transport import Concentrations

from march_helpers import march
from schedule_helpers import constant_schedule


def uniform_conc(grid, v1, v2):
    return Concentrations(CellField.full(grid, v1), CellField.full(grid, v2))


def algebraic_inequality(a, b, p):
    """(a - b)(a^p - b^p) for a, b, p >= 0; nonnegative by monotonicity of t^p.

    The cell summand of the sign condition is this with p = 2.
    """
    a = float(a)
    b = float(b)
    p = float(p)
    if a < 0.0 or b < 0.0 or p < 0.0:
        raise ValueError("algebraic_inequality needs nonnegative a, b, p; got (%g, %g, %g)" % (a, b, p))
    return (a - b) * (a**p - b**p)


def test_algebraic_inequality_frozen_values():
    assert algebraic_inequality(2.0, 1.0, 2.0) == pytest.approx(3.0)
    assert algebraic_inequality(0.0, 5.0, 1.0) == pytest.approx(25.0)
    assert algebraic_inequality(3.0, 3.0, 7.0) == 0.0
    with pytest.raises(ValueError):
        algebraic_inequality(-1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        algebraic_inequality(1.0, 2.0, -0.5)


def test_algebraic_inequality_nonnegative_randomized():
    rng = np.random.default_rng(31)
    for _ in range(10000):
        a, b = rng.uniform(0.0, 10.0, size=2)
        p = rng.uniform(0.0, 4.0)
        assert algebraic_inequality(a, b, p) >= 0.0


def checked(grid, params, conc):
    """check_state's report on conc, held as the state after a zero-length step from itself."""
    sched = constant_schedule(grid)
    state = initial_state(grid, params, conc, sched.at(0.0))
    state.applied = tuple(np.zeros(grid.shape) for _ in conc)
    ev = BoundsEvaluator(grid, params, sched, conc)
    return check_state(grid, params, ev, state, state, 0.0)


def test_sign_condition_frozen_values():
    g = Grid(1, 1, 1.0, 1.0)
    assert checked(g, PhysParams(z1=1, z2=-1), uniform_conc(g, 2.0, 1.0)).sign_value == pytest.approx(3.0)
    assert checked(g, PhysParams(z1=2, z2=-3), uniform_conc(g, 3.0, 2.0)).sign_value == pytest.approx(0.0)


def test_sign_condition_scales_with_volume():
    g = Grid(4, 4, 2.0, 2.0)
    report = checked(g, PhysParams(), uniform_conc(g, 2.0, 1.0))
    assert report.sign_value == pytest.approx(3.0 * 4.0)  # same summand over volume 4
    assert report.sign_min_summand == pytest.approx(3.0)
    assert report.sign_ok


def test_negative_summand_on_an_admissible_state_is_observed_not_raised():
    # at z1 = 10**9 the fuzz-level c1 = -1e-12 makes a = z1 c1 = -1e-3, so with
    # c2 = 0 the summand a^3 = -1e-9 falls below the -1e-12 fuzz while every
    # concentration stays admissible
    g = Grid(3, 2, 1.0, 1.0)
    c1 = np.full((2, 3), 2.0)
    c1[1, 2] = -1e-12
    c2 = np.full((2, 3), 1.0)
    c2[1, 2] = 0.0
    report = checked(g, PhysParams(z1=10**9), Concentrations(CellField(g, c1), CellField(g, c2)))
    assert report.nonneg_ok
    assert not report.sign_ok
    assert report.sign_min_summand == pytest.approx(-1e-9)
    assert not report.all_ok()


def test_weighted_energy_frozen_value_and_homogeneity():
    g = Grid(1, 1, 1.0, 1.0)
    p = PhysParams()
    assert weighted_energy(p, uniform_conc(g, 1.0, 1.0)) == pytest.approx(2.0)
    e1 = weighted_energy(p, uniform_conc(g, 0.3, 0.7))
    e3 = weighted_energy(p, uniform_conc(g, 0.9, 2.1))
    assert e3 == pytest.approx(9.0 * e1)
    # valency weights enter linearly
    assert weighted_energy(PhysParams(z1=2, z2=-3), uniform_conc(g, 1.0, 1.0)) == pytest.approx(5.0)


def small_run(exchange_rate=0.2, kappa=0.3):
    g = Grid(8, 8, 1.0, 1.0)
    p = PhysParams(
        theta=0.8,
        kappa=kappa,
        exchange_rate=exchange_rate,
        T_end=0.02,
        dt=0.01,
    )
    x, y = g.cell_centers()
    initial = Concentrations(
        CellField(g, 0.4 + 0.2 * np.cos(np.pi * x)),
        CellField(g, 0.4 + 0.2 * np.cos(np.pi * y)),
    )
    sched = constant_schedule(g, g1={"left": 0.02}, g2={"right": 0.01})
    return g, p, initial, sched


def test_a_state_equal_to_the_initial_data_meets_the_energy_bound():
    # default physics, constant data and no boundary data: the energy rate is
    # 0, so the bound is the initial weighted energy, which the unchanged
    # state meets with equality (a bound squared back from its square root
    # can miss it by an ulp)
    doc = {"grid": {"nx": 6, "ny": 6}, "physics": {}, "initial": {"c1": 0.5, "c2": 0.3},
           "time": {"t_end": 0.02, "dt": 0.01}}
    cfg = parse_config(doc)
    result = march(cfg.grid, cfg.params, cfg.initial, cfg.schedule, cfg.settings)
    energy = weighted_energy(cfg.params, cfg.initial)
    assert [(m.energy, m.energy_bound, m.energy_ok) for m in result.monitors] == [(energy, energy, True)] * 2


def test_check_state_all_flags_pass_on_accepted_steps():
    g, p, initial, sched = small_run()
    result = march(g, p, initial, sched)
    assert len(result.monitors) == 2
    for m in result.monitors:
        assert m.all_ok(), [f for f in MonitorReport.FLAGS if not getattr(m, f)]
        assert m.sign_value >= 0.0
        assert m.energy <= m.energy_bound
    # monotone time stamps
    assert result.monitors[0].time == pytest.approx(0.01)
    assert result.monitors[1].time == pytest.approx(0.02)


def test_check_state_observes_corrupted_state_without_raising():
    g, p, initial, sched = small_run()
    data = sched.at(0.0)
    state = initial_state(g, p, initial, data)
    bad_c1 = state.conc.c1.values.copy()
    bad_c2 = state.conc.c2.values.copy()
    # summand (a - b)^2 (a + b) with a = z1 c1, b = |z2| c2 goes negative
    # only where z1 c1 + |z2| c2 < 0, so corrupt both species in one cell
    bad_c1[3, 4] = -0.2
    bad_c2[3, 4] = 0.1
    corrupted = type(state)(
        time=0.01,
        electro=state.electro,
        flow=state.flow,
        conc=Concentrations(CellField(g, bad_c1), CellField(g, bad_c2)),
        data=data,
        applied=(np.zeros((8, 8)), np.zeros((8, 8))),
    )
    ev = BoundsEvaluator(g, p, sched, initial)
    report = check_state(g, p, ev, corrupted, state, 0.01)
    assert not report.nonneg_ok
    assert report.min_c1 == pytest.approx(-0.2)
    assert not report.all_ok()
    # the sign diagnostics are reported alongside
    assert report.sign_min_summand < 0.0


def test_monitor_csv_row_matches_header_and_serializes_cleanly():
    g, p, initial, sched = small_run()
    result = march(g, p, initial, sched)
    m = result.monitors[0]
    header = MonitorReport.csv_header()
    row = m.csv_row()
    assert header == [
        "time",
        "min_c1",
        "min_c2",
        "max_c1",
        "max_c2",
        "nonneg_ok",
        "sign_value",
        "sign_min_summand",
        "sign_ok",
        "energy",
        "energy_bound",
        "energy_ok",
        "mass_residual1",
        "mass_residual2",
        "mass_ok",
        "gauss_residual",
        "gauss_threshold",
        "gauss_ok",
        "darcy_residual",
        "darcy_threshold",
        "darcy_ok",
        "sup_total",
        "sup_bound",
        "sup_ok",
    ]
    assert len(header) == len(row)
    # numbers round-trip through repr and bools are 0/1
    for name, cell in zip(header, row):
        if name.endswith("_ok"):
            assert cell in ("0", "1")
        else:
            float(cell)  # must parse
        assert "np.float" not in cell


def test_mass_balance_flag_over_longer_run():
    g, p, initial, sched = small_run(exchange_rate=0.5)
    result = march(g, replace(p, T_end=0.05, dt=0.005), initial, sched)
    for m in result.monitors:
        assert max(m.mass_residual1, m.mass_residual2) <= 1e-10
