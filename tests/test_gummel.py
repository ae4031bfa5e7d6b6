"""Fixed-point time stepping: decoupling, damping, halving, and early give-up.

Key scenarios:

  * With kappa = 0, no reaction, and mirror-identical species the transport
    operator is the same in every sweep, so sweep two reproduces sweep one
    bit for bit and the increment is exactly zero: the step converges in
    exactly two sweeps.

  * Damping changes the path, never the fixed point: a run with damping
    0.7 lands within a few tol of the undamped run.  A damped step stores
    the transport output whose reaction rates it stores, so the mass
    identity the monitors check holds to rounding.  (The sweep start and
    the post-convergence sweep are checked by acceptance criteria 8 and 12
    on the randomized suite.)

  * The sweep iterates whole states: an attempt starts from the fields
    stored with the previous state, and each completed sweep solves the
    field and flow once, the converged sweep's solve giving the accepted
    state its fields.  Where sigma, f or rho_b changed, the attempt first
    solves the fields again from the previous concentrations and the new
    data, so sweep one runs on this step's fields.

  * A step too large for the allotted sweeps is halved until it converges;
    the shortened steps are accepted and the march still lands exactly on
    the requested end time.  A failed linear solve fails the step the same
    way: gummel_step raises GummelError chained from the SolverError.  The
    next step keeps a halved dt and doubles an unhalved one up to the
    nominal dt, so a failure above dt/2 costs at most one halving per two
    accepted steps; the floor nominal dt / 2**10 stays absolute, so a
    kept dt does not lower it.

  * An attempt is given up as soon as its sweep cannot converge: when the
    increment grows, or when its contraction rate theta cannot bring it
    below tol in the sweeps left.  Scripted increments pin the rule, with
    the real sweep running underneath.

  * advance keeps the states of step 0, of every stride-th step and of the
    last step, bit for bit as with stride 1, and still a report and a
    monitor row per accepted step.  A sink gets those states, each once
    the step after it is accepted, and the result then keeps only the last.

  * Swapping the axes commutes with a coupled step: on a non-square grid
    with anisotropic D, K and epsilon and data on the x sides, the step on
    the swapped problem (y sides, parameter pairs swapped) gives the
    transposed fields, so every per-axis quantity is paired with its own
    axis in Gauss, Darcy and transport.

  * Exchanging the species commutes with a coupled step: with valencies
    (-z2, -z1), c1 and c2 exchanged, g1 and g2 exchanged, and sigma and
    rho_b negated, the step gives the exchanged concentrations, -phi and
    the same p, so the step treats the two entries of every species pair
    alike.
"""

import inspect
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from dpnpsim import gummel
from dpnpsim.config import ConfigError, load_config, parse_config
from dpnpsim.darcy import solve_darcy
from dpnpsim.gauss import solve_gauss
from dpnpsim.gummel import (
    GummelError,
    SweepSettings,
    advance,
    gummel_step,
    initial_state,
)
from dpnpsim.linalg import SolveReport, SolverError
from dpnpsim.mesh import CellField, Grid
from dpnpsim.params import PhysParams
from dpnpsim.schedule import BoundarySpec, Ramp, Schedule
from dpnpsim.transport import Concentrations, free_charge, step_transport

from schedule_helpers import constant_schedule


def dt_of(args, kwargs):
    """The dt of a step_transport call, bound by name."""
    return inspect.signature(step_transport).bind(*args, **kwargs).arguments["dt"]


def weighted_dist(grid, params, a, b):
    vol = grid.cell_volume
    d1 = a.conc.c1.values - b.conc.c1.values
    d2 = a.conc.c2.values - b.conc.c2.values
    return float(
        np.sqrt(abs(params.z1) * (d1**2).sum() * vol + abs(params.z2) * (d2**2).sum() * vol)
    )


def coupled_setup(n=12):
    g = Grid(n, n, 1.0, 1.0)
    p = PhysParams(
        theta=0.8,
        kappa=0.1,
        z1=1,
        z2=-2,
        exchange_rate=0.1,
        T_end=0.05,
        dt=0.01,
    )
    x, y = g.cell_centers()
    c1 = CellField(g, 0.6 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
    c2 = CellField(g, 0.4 + 0.1 * np.sin(np.pi * x))
    init = Concentrations(c1, c2)
    sched = constant_schedule(
        g,
        sigma={"top": 0.02, "bottom": -0.02},
        f={"left": -0.05, "right": 0.05},
        g1={"left": 0.03},
        g2={"right": 0.02},
        rho_b=CellField.full(g, 0.01),
    )
    return g, p, init, sched


def test_initial_state_is_consistent_at_t0():
    g, p, init, sched = coupled_setup()
    st = initial_state(g, p, init, sched.at(0.0))
    assert st.time == 0.0
    assert st.conc is init
    nx, ny = g.n
    assert st.electro.phi.values.shape == (ny, nx)
    assert st.flow.q_faces.planes[0].shape == (ny, nx + 1)


def test_swapping_the_axes_commutes_with_a_coupled_step():
    nx, ny, lx, ly = 7, 4, 1.4, 0.6
    rng = np.random.default_rng(41)
    c1, c2, rho_b = (rng.uniform(0.2, 0.8, size=(ny, nx)) for _ in range(3))
    inflow = 0.04 * (1.0 + 0.5 * np.sin(np.linspace(0.0, 3.0, ny)))

    def step(swapped):
        """One coupled step; on the swapped problem every plane is transposed and the x-side data sit on y."""
        def pair(a, b):
            return (b, a) if swapped else (a, b)

        def plane(v):
            return v.T if swapped else v

        low, high = ("bottom", "top") if swapped else ("left", "right")
        g = Grid(*pair(nx, ny), *pair(lx, ly))
        p = PhysParams(
            theta=0.8, D=pair(0.7, 1.6), K=pair(1.3, 0.4), mu=1.1, eps_s=1.7, kappa=0.3, z1=2, z2=-1,
            exchange_rate=0.1, T_end=0.02, dt=0.02,
        )
        init = Concentrations(CellField(g, plane(c1)), CellField(g, plane(c2)))
        sched = constant_schedule(
            g,
            sigma={low: 0.05, high: -0.02 * inflow},
            f={low: -inflow, high: inflow},
            g1={low: inflow},
            g2={high: 0.5 * inflow},
            rho_b=CellField(g, plane(0.1 * rho_b)),
        )
        st0 = initial_state(g, p, init, sched.at(0.0))
        st, rep = gummel_step(g, p, st0, sched.at(0.02), 0.02)
        fields = (st.conc.c1.values, st.conc.c2.values, st.electro.phi.values, st.flow.p.values)
        return [plane(f) for f in fields], rep.sweeps

    fields, sweeps = step(False)
    swapped_fields, swapped_sweeps = step(True)
    assert swapped_sweeps == sweeps
    for name, f, t in zip(("c1", "c2", "phi", "p"), fields, swapped_fields):
        assert np.abs(f - t).max() <= 1e-12 * np.abs(f).max(), name


def test_exchanging_the_species_commutes_with_a_coupled_step():
    g = Grid(8, 6, 1.0, 0.75)
    rng = np.random.default_rng(43)
    c1, c2, rho_b = (rng.uniform(0.2, 0.8, size=g.shape) for _ in range(3))

    def step(exchanged):
        """One coupled step; the exchanged problem swaps every species pair and negates the charges' data."""
        def pair(a, b):
            return (b, a) if exchanged else (a, b)

        sign = -1.0 if exchanged else 1.0
        z1, z2 = (2, -1) if exchanged else (1, -2)
        p = PhysParams(
            theta=0.8, D=(1.0, 1.3), K=(1.0, 0.7), kappa=3.0, z1=z1, z2=z2,
            exchange_rate=0.2, T_end=0.01, dt=0.01,
        )
        init = Concentrations(*pair(CellField(g, c1), CellField(g, c2)))
        g1, g2 = pair({"left": 0.03}, {"right": 0.02, "top": 0.01})
        sched = constant_schedule(
            g,
            sigma={"left": sign * 0.05, "top": sign * -0.02},
            f={"left": -0.05, "right": 0.05},
            g1=g1,
            g2=g2,
            rho_b=CellField(g, sign * 0.1 * rho_b),
        )
        st0 = initial_state(g, p, init, sched.at(0.0))
        st, rep = gummel_step(g, p, st0, sched.at(0.01), 0.01, SweepSettings(tol=1e-13))
        conc = pair(*(c.values for c in st.conc))
        return (*conc, sign * st.electro.phi.values, st.flow.p.values), rep.sweeps

    fields, sweeps = step(False)
    exchanged_fields, exchanged_sweeps = step(True)
    assert exchanged_sweeps == sweeps
    for name, f, t in zip(("c1", "c2", "phi", "p"), fields, exchanged_fields):
        assert np.abs(f - t).max() <= 1e-12 * np.abs(f).max(), name


def test_decoupled_limit_converges_in_exactly_two_sweeps():
    # kappa = 0 and identical neutral species: the transport system does not
    # depend on the lagged iterate, so the second sweep repeats the first
    # exactly and the increment is identically zero.
    g = Grid(8, 8, 1.0, 1.0)
    p = PhysParams(theta=0.8, kappa=0.0, z1=1, z2=-1)
    c0 = CellField(g, 0.5 + 0.2 * np.cos(np.pi * g.cell_centers()[0]))
    init = Concentrations(c0, CellField(g, c0.values.copy()))
    sched = constant_schedule(g, f={"left": -0.1, "right": 0.1})
    st0 = initial_state(g, p, init, sched.at(0.0))
    _, rep = gummel_step(g, p, st0, sched.at(0.01), 0.01, SweepSettings(tol=1e-10, max_sweeps=50))
    assert rep.sweeps == 2
    assert rep.residuals[0] > 1e-3
    assert rep.residuals[1] == 0.0


def test_step_validates_damping():
    g, p, init, sched = coupled_setup(6)
    st0 = initial_state(g, p, init, sched.at(0.0))
    with pytest.raises(ValueError, match="damping"):
        gummel_step(g, p, st0, sched.at(0.01), 0.01, SweepSettings(1e-8, 10, damping=0.0))


@pytest.mark.parametrize(
    "kw, message",
    [
        ({"max_sweeps": 0}, "max_sweeps must be >= 1, got 0"),
        ({"max_sweeps": -3}, "max_sweeps must be >= 1, got -3"),
        ({"tol": -1.0}, "tol must be > 0, got -1"),
        ({"tol": 0.0}, "tol must be > 0, got 0"),
        ({"tol": float("nan")}, "tol must be a finite number, got nan"),
        ({"tol": float("inf")}, "tol must be a finite number, got inf"),
        # the record accepted these two, which the config refused; no count of
        # sweeps ever meets a fractional budget
        ({"max_sweeps": 2.5}, "max_sweeps must be a finite integer, got 2.5"),
        ({"max_sweeps": True}, "max_sweeps must be a finite integer, got True"),
    ],
)
def test_settings_reject_what_the_config_rejects(kw, message):
    # max_sweeps 0 used to fail at residuals[-1]; tol -1 used to run every
    # sweep of every attempt and end in GummelError after 10 halvings
    with pytest.raises(ValueError) as exc:
        SweepSettings(**kw)
    assert message in str(exc.value)
    # one rule, one message: the config reports the record's under the key's name
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["time"].update(kw)
    with pytest.raises(ConfigError) as cfg_exc:
        parse_config(doc)
    (violation,) = cfg_exc.value.violations
    assert violation.removeprefix("time.") == str(exc.value)


@pytest.mark.parametrize(
    "name, value",
    [
        ("dt", 0.0),
        ("dt", -0.01),
        ("dt", float("nan")),
        ("dt", float("inf")),
        ("T_end", 0.0),
        ("T_end", -1.0),
        ("T_end", float("nan")),
        ("T_end", float("inf")),
    ],
)
def test_advance_rejects_bad_step_and_horizon_before_any_solve(monkeypatch, name, value):
    # advance reads the step and the horizon from PhysParams, which rejects
    # a bad one on construction, so no call of advance can carry it
    g, p, init, sched = coupled_setup(n=4)

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the arguments were checked")

    monkeypatch.setattr(gummel, "solve_gauss", no_solve)
    rule = "be > 0, got %g" % value if math.isfinite(value) else "be a finite number, got %r" % value
    with pytest.raises(ValueError, match="%s must %s" % (name, rule)):
        advance(g, replace(p, **{name: value}), init, sched)


def test_step_raises_with_report_when_sweeps_exhausted():
    g, p, init, sched = coupled_setup(6)
    st0 = initial_state(g, p, init, sched.at(0.0))
    # a budget of one sweep: no rate is known, the spent budget ends the attempt
    with pytest.raises(GummelError) as exc:
        gummel_step(g, p, st0, sched.at(0.01), 0.01, SweepSettings(tol=1e-300, max_sweeps=1))
    rep = exc.value.report
    assert rep.sweeps == 1
    assert len(rep.residuals) == 1
    # a budget of three: the rate of sweep 2 cannot reach tol 1e-300 in one more sweep
    with pytest.raises(GummelError) as exc:
        gummel_step(g, p, st0, sched.at(0.01), 0.01, SweepSettings(tol=1e-300, max_sweeps=3))
    rep = exc.value.report
    assert rep.sweeps == 2
    assert len(rep.residuals) == 2
    assert rep.residuals[1] < rep.residuals[0]


def scripted_step(monkeypatch, increments, max_sweeps=50):
    """gummel_step at tol 1e-10 whose sweeps report the given increments in order."""
    g, p, init, sched = coupled_setup(4)
    st0 = initial_state(g, p, init, sched.at(0.0))
    script = iter(increments)
    monkeypatch.setattr(gummel, "_increment", lambda *args: next(script))
    return gummel_step(g, p, st0, sched.at(0.01), 0.01, SweepSettings(tol=1e-10, max_sweeps=max_sweeps))


def test_growing_increment_is_given_up_after_sweep_two(monkeypatch):
    # the third sweep would have converged; a growing increment is not waited for
    with pytest.raises(GummelError) as exc:
        scripted_step(monkeypatch, [1e-3, 2e-3, 1e-12])
    assert exc.value.report.sweeps == 2
    assert exc.value.report.residuals == (1e-3, 2e-3)


def test_contraction_too_slow_for_the_budget_is_given_up_early(monkeypatch):
    # fast at first, then theta = 0.9: 9e-7 * 0.9**46 = 7e-9 > tol after sweep 4
    increments = [1.0, 1e-3, 1e-6] + [1e-6 * 0.9**j for j in range(1, 60)]
    with pytest.raises(GummelError) as exc:
        scripted_step(monkeypatch, increments)
    assert exc.value.report.sweeps == 4
    message = str(exc.value)
    assert "after 4 of 50 sweeps" in message
    assert "tol 1.000e-10" in message
    assert "theta 0.9 " in message


def test_contraction_fast_enough_for_the_budget_is_never_given_up(monkeypatch):
    # theta = 0.5 reaches tol on sweep 35 exactly: r_k * 0.5**(35 - k) = 5.8e-11 every sweep
    _, rep = scripted_step(monkeypatch, [0.5**j for j in range(50)], max_sweeps=35)
    assert rep.sweeps == 35
    assert rep.residuals[-1] <= 1e-10 < rep.residuals[-2]


def test_huge_rate_raises_gummel_error_not_overflow(monkeypatch):
    # theta = 1e200: theta**48 would raise OverflowError
    with pytest.raises(GummelError) as exc:
        scripted_step(monkeypatch, [1e-3, 1e197])
    assert exc.value.report.sweeps == 2


def test_converged_state_carries_applied_rates_and_time():
    g, p, init, sched = coupled_setup(8)
    st0 = initial_state(g, p, init, sched.at(0.0))
    st1, rep = gummel_step(g, p, st0, sched.at(0.02), 0.02, SweepSettings(tol=1e-10, max_sweeps=50))
    assert st1.time == pytest.approx(0.02)
    assert rep.residuals[-1] <= 1e-10
    # production uses the lagged iterate, consumption the new one, so the
    # exchange rates cancel only to the sweep tolerance
    r1, r2 = st1.applied
    np.testing.assert_allclose(r1 + r2, 0.0, atol=1e-9)
    assert np.any(r1 != 0.0)


def test_advance_lands_exactly_on_T_end_with_clipped_final_step():
    g, p, init, sched = coupled_setup(8)
    res = advance(g, replace(p, dt=0.02), init, sched, SweepSettings(tol=1e-10))
    times = [s.time for s in res.states]
    assert times[0] == 0.0
    assert len(res.states) == len(res.reports) + 1
    assert len(res.monitors) == len(res.reports)
    assert times[-1] == pytest.approx(0.05, abs=1e-14)
    # steps 0.02, 0.02, then clipped 0.01
    assert len(res.reports) == 3
    assert times[2] - times[1] == pytest.approx(0.02)
    assert times[3] - times[2] == pytest.approx(0.01)
    assert res.ledger is not None


@pytest.mark.parametrize("n_steps, kept", [(7, [0, 5, 7]), (20, [0, 5, 10, 15, 20])])
def test_a_stride_keeps_step_zero_every_stride_th_step_and_the_last(n_steps, kept):
    g, p, init, sched = coupled_setup(8)
    p = replace(p, T_end=n_steps * p.dt)
    every = advance(g, p, init, sched)
    strided = advance(g, p, init, sched, stride=5)
    assert every.steps == list(range(n_steps + 1))
    assert strided.steps == kept
    assert [s.time for s in strided.states] == [every.states[k].time for k in kept]
    # the kept states are the states of those steps, bit for bit
    for k, state in zip(kept, strided.states):
        _assert_same_fields(state, every.states[k])
    # reports and monitor rows are still one per accepted step
    assert len(strided.reports) == len(strided.monitors) == n_steps
    assert strided.reports == every.reports
    assert strided.monitors == every.monitors


def _assert_same_fields(state, ref):
    for a, b in ((state.conc.c1, ref.conc.c1), (state.conc.c2, ref.conc.c2),
                 (state.electro.phi, ref.electro.phi), (state.flow.p, ref.flow.p)):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("n_steps", [7, 20])
def test_a_sink_gets_each_kept_state_once_the_step_after_it_is_accepted(monkeypatch, n_steps):
    g, p, init, sched = coupled_setup(8)
    p = replace(p, T_end=n_steps * p.dt)
    collected = advance(g, p, init, sched, stride=5)
    returned = []  # one entry per gummel_step that returned a step
    step = gummel.gummel_step

    def counted(*args, **kwargs):
        out = step(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(gummel, "gummel_step", counted)
    handed = []
    sunk = advance(g, p, init, sched, stride=5, sink=lambda k, state: handed.append((k, state, len(returned))))
    # the sink gets the default collector's (k, state) pairs, bit for bit
    assert [k for k, _, _ in handed] == collected.steps
    for (_, state, _), ref in zip(handed, collected.states):
        assert state.time == ref.time
        _assert_same_fields(state, ref)
    # state k arrives once gummel_step has returned step k + 1, the last after the march: none before step 1
    assert [n for _, _, n in handed] == [min(k + 1, n_steps) for k in collected.steps]
    # the result keeps only the last state, and every report and monitor row
    assert sunk.steps == [n_steps] and sunk.states == [handed[-1][1]]
    assert sunk.reports == collected.reports and sunk.monitors == collected.monitors


def test_all_monitors_pass_on_mild_coupled_run():
    g, p, init, sched = coupled_setup()
    res = advance(g, p, init, sched, SweepSettings(tol=1e-10))
    for m in res.monitors:
        for flag in type(m).FLAGS:
            assert getattr(m, flag), "%s failed at t=%g" % (flag, m.time)


def test_damping_reaches_the_same_fixed_point():
    g, p, init, sched = coupled_setup()
    tol = 1e-10
    base = advance(g, p, init, sched, SweepSettings(tol=tol))
    damped = advance(g, p, init, sched, SweepSettings(tol=tol, damping=0.7))
    assert weighted_dist(g, p, base.states[-1], damped.states[-1]) <= 10 * tol
    # damping slows the sweep but must not change the answer
    assert sum(r.sweeps for r in damped.reports) > sum(r.sweeps for r in base.reports)


def test_damped_step_keeps_the_mass_identity_of_its_stored_rates():
    # the demo physics on 8x8 at damping 0.5: storing the damped mix with the
    # rates of the raw transport output missed the identity by
    # (1 - damping)(raw - c^k), 3.6e-11 here
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["grid"].update(nx=8, ny=8)
    doc["time"].update(t_end=0.02, damping=0.5)
    cfg = parse_config(doc)
    res = advance(cfg.grid, cfg.params, cfg.initial, cfg.schedule, cfg.settings)
    assert max(max(m.mass_residual1, m.mass_residual2) for m in res.monitors) <= 1e-13


def test_symmetric_electrolyte_keeps_species_identical():
    # z = (1, -1), identical initial data, inflow, and exchange coupling:
    # every operation treats the species identically, so they stay equal.
    g = Grid(16, 16, 1.0, 1.0)
    p = PhysParams(theta=1.0, kappa=0.5, z1=1, z2=-1, T_end=0.05, dt=0.01)
    x, y = g.cell_centers()
    w = CellField(g, 0.5 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
    init = Concentrations(w, CellField(g, w.values.copy()))
    sched = constant_schedule(
        g, f={"bottom": -0.2, "top": 0.2}, g1={"left": 0.05}, g2={"left": 0.05}
    )
    res = advance(g, p, init, sched, SweepSettings(tol=1e-10))
    gap = max(np.abs(s.conc.c1.values - s.conc.c2.values).max() for s in res.states)
    assert gap <= 1e-8


def test_advance_halves_dt_until_the_sweep_converges():
    # strong coupling and a tight sweep budget: the nominal step cannot
    # converge, the halved steps do, and the march still reaches T_end.
    g = Grid(8, 8, 1.0, 1.0)
    p = PhysParams(theta=0.6, kappa=3.0, z1=2, z2=-1, T_end=0.1, dt=0.1)
    x, y = g.cell_centers()
    c1 = CellField(g, 0.8 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    init = Concentrations(c1, CellField.full(g, 0.3))
    sched = constant_schedule(g, sigma={"left": 0.05, "right": -0.05})
    res = advance(g, p, init, sched, SweepSettings(tol=1e-8, max_sweeps=6))
    halvings = [r.halvings for r in res.reports]
    assert max(halvings) >= 3
    # failed attempts stop as soon as their sweep cannot converge, short of the budget of 6
    assert 0 < sum(r.wasted_sweeps for r in res.reports) < 6 * sum(halvings)
    assert len(res.reports) > 2  # shortened steps were accepted as real steps
    assert res.states[-1].time == pytest.approx(0.1, abs=1e-12)


def test_advance_raises_after_exhausting_halvings():
    g = Grid(8, 8, 1.0, 1.0)
    p = PhysParams(theta=0.6, kappa=3.0, z1=2, z2=-1, T_end=0.1, dt=0.1)
    x, y = g.cell_centers()
    c1 = CellField(g, 0.8 + 0.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    init = Concentrations(c1, CellField.full(g, 0.3))
    sched = constant_schedule(g, sigma={"left": 0.05, "right": -0.05})
    with pytest.raises(GummelError):
        advance(g, p, init, sched, SweepSettings(tol=1e-300, max_sweeps=1))


def test_advance_halves_dt_on_linear_solver_failure(monkeypatch):
    # a linear-solver failure fails the step like a stalled sweep: retry at half the step
    g, p, init, sched = coupled_setup(n=6)
    p = replace(p, T_end=0.02, dt=0.02)
    real_step_transport = gummel.step_transport
    failed = SolverError("no convergence", SolveReport(1, 1.0))

    def failing_at_nominal_dt(*args, **kwargs):
        if dt_of(args, kwargs) == 0.02:
            raise failed
        return real_step_transport(*args, **kwargs)

    monkeypatch.setattr(gummel, "step_transport", failing_at_nominal_dt)
    res = advance(g, p, init, sched)
    assert res.reports[0].halvings == 1
    assert res.reports[0].wasted_sweeps == 0  # the solve failed inside the first sweep
    assert res.states[1].time == pytest.approx(0.01, abs=1e-15)
    assert res.states[-1].time == pytest.approx(0.02, abs=1e-12)

    tried = []

    def always_failing(*args, **kwargs):
        tried.append(dt_of(args, kwargs))
        raise failed

    monkeypatch.setattr(gummel, "step_transport", always_failing)
    with pytest.raises(GummelError) as exc:
        advance(g, p, init, sched)
    assert exc.value.__cause__ is failed
    assert exc.value.report.sweeps == 0
    assert len(tried) == gummel.MAX_HALVINGS + 1  # the nominal step and 10 halvings
    assert tried[-1] == pytest.approx(0.02 / 2**10)


def test_a_halved_dt_is_kept_for_the_next_step(monkeypatch):
    # every attempt above dt/2 fails: the halved step is kept and then
    # doubled, so the march halves every other step, not every step
    g, p, init, sched = coupled_setup(n=6)
    p = replace(p, T_end=0.2, dt=0.02)
    real_step_transport = gummel.step_transport
    tried = []

    def failing_above_half_dt(*args, **kwargs):
        tried.append(dt_of(args, kwargs))
        if tried[-1] > 0.01:
            raise SolverError("no convergence", SolveReport(1, 1.0))
        return real_step_transport(*args, **kwargs)

    monkeypatch.setattr(gummel, "step_transport", failing_above_half_dt)
    res = advance(g, p, init, sched)
    halvings = [r.halvings for r in res.reports]
    assert 2 * sum(halvings) <= len(res.reports)
    assert halvings[:4] == [1, 0, 1, 0]
    assert res.states[-1].time == pytest.approx(0.2, abs=1e-12)


def test_a_kept_dt_does_not_lower_the_absolute_floor(monkeypatch):
    # the first step is halved to 0.01 and kept; every later attempt fails:
    # the second step tries 0.01 down to 0.02 / 2**10 (10 attempts) and raises
    g, p, init, sched = coupled_setup(n=6)
    p = replace(p, T_end=0.1, dt=0.02)
    real_gummel_step = gummel.gummel_step
    tried = []

    def failing_after_the_first_step(grid, params, state_prev, data, dt, settings):
        if state_prev.time > 0.0 or dt > 0.01:
            tried.append(dt)
            raise GummelError("forced failure", gummel.GummelReport(0, ()))
        return real_gummel_step(grid, params, state_prev, data, dt, settings)

    monkeypatch.setattr(gummel, "gummel_step", failing_after_the_first_step)
    with pytest.raises(GummelError, match="forced failure"):
        advance(g, p, init, sched)
    assert tried[0] == 0.02
    assert tried[1:] == [0.02 / 2**j for j in range(1, gummel.MAX_HALVINGS + 1)]


def count_calls(monkeypatch, names):
    """Patch each named gummel function to count its calls; returns the live counts."""
    calls = dict.fromkeys(names, 0)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(gummel, name, counting(name, getattr(gummel, name)))
    return calls


def test_each_completed_sweep_solves_the_fields_once(monkeypatch):
    # an attempt starts from the fields stored with state_prev and each sweep
    # ends in one field solve, the converged sweep's being the accepted
    # state's: S sweeps make S solves, and an attempt given up at sweep k,
    # before that sweep's field solve, makes k - 1
    g, p, init, sched = coupled_setup(6)
    st0 = initial_state(g, p, init, sched.at(0.0))
    calls = count_calls(monkeypatch, ("solve_gauss", "solve_darcy"))
    _, rep = gummel_step(g, p, st0, sched.at(0.01), 0.01)
    assert rep.sweeps >= 2
    assert calls == {"solve_gauss": rep.sweeps, "solve_darcy": rep.sweeps}

    calls.update(solve_gauss=0, solve_darcy=0)
    with pytest.raises(GummelError) as exc:
        gummel_step(g, p, st0, sched.at(0.01), 0.01, SweepSettings(tol=1e-300, max_sweeps=3))
    assert exc.value.report.sweeps == 2
    assert calls == {"solve_gauss": 1, "solve_darcy": 1}


def test_steps_with_unchanged_data_make_no_extra_field_solve(monkeypatch):
    # symmetric.json has constant data: its 20 steps of 2 sweeps make 40
    # field solves, and the t = 0 state one more
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = load_config(os.path.join(root, "configs", "symmetric.json"))
    calls = count_calls(monkeypatch, ("solve_gauss", "solve_darcy"))
    res = advance(cfg.grid, cfg.params, cfg.initial, cfg.schedule, cfg.settings)
    assert sum(r.sweeps for r in res.reports) == 40
    assert calls == {"solve_gauss": 41, "solve_darcy": 41}


def rest_under_a_sigma_ramp():
    """A neutral state at rest on 8x8 and a sigma ramp that starts at t = 0.01."""
    g = Grid(8, 8, 1.0, 1.0)
    p = PhysParams(theta=0.8, kappa=1.0, z1=1, z2=-1, T_end=0.03, dt=0.01)
    rest = Concentrations(CellField.full(g, 0.5), CellField.full(g, 0.5))
    sigma = BoundarySpec(g, ramp=Ramp("linear", t0=0.01, t1=0.03), left=0.05, right=-0.05)
    none = BoundarySpec(g)
    return g, p, rest, Schedule(sigma, none, (none, none), CellField.zeros(g))


def test_sweep_one_of_a_ramp_step_runs_on_the_new_datas_fields(monkeypatch):
    # from t = 0.01 to 0.02 sigma changes: the fields are solved again from
    # c_n and the new data before sweep one, whose transport gets them
    g, p, rest, sched = rest_under_a_sigma_ramp()
    state = initial_state(g, p, rest, sched.at(0.01))
    data = sched.at(0.02)
    rho_f = free_charge(p, rest)
    electro = solve_gauss(g, p, rho_f, data.rho_b, data.sigma)
    flow = solve_darcy(g, p, rho_f, electro.e_faces, data.f)
    assert np.abs(electro.e_faces.planes[0]).max() > 1e-3  # the new data's field, not the rest state's 0
    real_step_transport = gummel.step_transport
    faces = []

    def spy(grid, params, c_prev, q_faces, e_faces, *args, **kwargs):
        faces.append((q_faces, e_faces))
        return real_step_transport(grid, params, c_prev, q_faces, e_faces, *args, **kwargs)

    monkeypatch.setattr(gummel, "step_transport", spy)
    calls = count_calls(monkeypatch, ("solve_gauss", "solve_darcy"))
    _, rep = gummel_step(g, p, state, data, 0.01)
    q_faces, e_faces = faces[0]
    for got, want in zip(e_faces.planes + q_faces.planes, electro.e_faces.planes + flow.q_faces.planes):
        assert np.array_equal(got, want)
    # one solve before sweep one, then one per sweep
    assert calls == {"solve_gauss": rep.sweeps + 1, "solve_darcy": rep.sweeps + 1}

    # a failure of that solve fails the step before any sweep, so advance halves it
    failed = SolverError("no convergence", SolveReport(1, 1.0))

    def failing(*args, **kwargs):
        raise failed

    monkeypatch.setattr(gummel, "solve_gauss", failing)
    faces.clear()
    with pytest.raises(GummelError) as exc:
        gummel_step(g, p, state, data, 0.01)
    assert exc.value.__cause__ is failed
    assert exc.value.report.sweeps == 0
    assert faces == []


def test_a_rest_state_responds_at_a_ramp_onset():
    # a neutral state at rest is a fixed point of the sweep on its own fields;
    # at the onset of a sigma ramp the accepted state responds to the new
    # field, and an extra transport step on its fields moves c by no more
    # than tol (acceptance criterion 12)
    g, p, rest, sched = rest_under_a_sigma_ramp()
    none = BoundarySpec(g)
    res = advance(g, p, rest, sched)
    assert [(r.sweeps > 1, r.halvings) for r in res.reports] == [(False, 0), (True, 0), (True, 0)]
    for prev, state in zip(res.states, res.states[1:]):
        extra = step_transport(
            g, p, prev.conc, state.flow.q_faces, state.electro.e_faces, (none.at(0), none.at(0)),
            state.time - prev.time, c_lag=state.conc,
        )
        assert weighted_dist(g, p, replace(state, conc=extra.conc), state) <= 1e-10
    assert np.abs(res.states[2].conc.c1.values - 0.5).max() > 1e-4

    # a budget of one sweep that does not reach tol: the step is given up, not run past its budget
    with pytest.raises(GummelError):
        gummel_step(g, p, res.states[1], sched.at(0.02), 0.01, SweepSettings(max_sweeps=1))


def test_late_linear_solver_failure_counts_the_completed_sweeps(monkeypatch):
    # a solve that fails after the sweep converged (in the field solve of the
    # converged sweep here, which gives the accepted state its fields) still
    # fails the step, and the step's completed sweeps count as wasted
    g, p, init, sched = coupled_setup(n=6)
    p = replace(p, T_end=0.02, dt=0.02)
    st0 = initial_state(g, p, init, sched.at(0.0))
    converged_sweeps = gummel_step(g, p, st0, sched.at(0.02), 0.02)[1].sweeps
    real_solve_gauss = gummel.solve_gauss
    calls = []

    def failing_in_the_converged_sweep(*args, **kwargs):
        # call 1 solves the t = 0 state and the next converged_sweeps calls
        # end the nominal step's sweeps, the last of them the converged one
        calls.append(args)
        if len(calls) == converged_sweeps + 1:
            raise SolverError("no convergence", SolveReport(1, 1.0))
        return real_solve_gauss(*args, **kwargs)

    monkeypatch.setattr(gummel, "solve_gauss", failing_in_the_converged_sweep)
    res = advance(g, p, init, sched)
    assert res.reports[0].halvings == 1
    assert res.reports[0].wasted_sweeps == converged_sweeps
    assert res.states[-1].time == pytest.approx(0.02, abs=1e-12)
