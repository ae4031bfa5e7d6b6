"""Species transport: exponential-fitting flux, reactions, implicit step.

Frozen oracles:
  B(1) = 1/(e-1) = 0.5819767068693263 and B(0) = 1; the identity
  B(-x) - B(x) = x holds for every x, which makes the flux of a constant
  profile exactly c * u regardless of the mesh Peclet number.
  sg_flux(1, 1, 1, 2, 1) = (2e - 1)/(e - 1): direct substitution.
  Exchange rates clip negative concentrations: rate 2 with (c1, c2) =
  (-1, 3) gives r1 = 6; rate 0.5 with (4, 1) gives (-1.5, 1.5).
  A single closed cell with theta = 1 and source 1 gains exactly dt.
  Two closed unit cells with D = 1, dt = 1 from (1, 0) relax to (2/3, 1/3):
  (I + L) c = c_prev with L = [[1,-1],[-1,1]].

Property tests (seeded): the implicit matrix is an M-matrix for arbitrary
drift, so nonnegative data can only produce nonnegative states (to solver
fuzz); discrete mass balance holds to 1e-10 relative; the step is affine,
so responses to sources superpose.

Memory guard: one step on 128^2 demo physics allocates at most 3.5 MB
beyond what was live before it (3.15 MB solving the species one at a
time, 5.8 MB stacked).

Iteration guard: the shipped demo (20 steps of 4 sweeps, one stacked
two-species transport solve per sweep) takes 160 preconditioned BiCGStab
iterations in all; 160 per-species solves from zero took 472, and Jacobi
took 9,778.  More than 300, 3.75 a solve, means the cosine-basis
preconditioner has stopped matching the drift-free transport operator.
"""

import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from dpnpsim import runner, transport
from dpnpsim.config import load_config, parse_config
from dpnpsim.gummel import initial_state
from dpnpsim.mesh import BoundaryField, CellField, FaceField, Grid
from dpnpsim.params import PhysParams
from dpnpsim.transport import (
    Concentrations,
    bernoulli,
    free_charge,
    step_transport,
)

E = math.e


def sg_flux(d_face, h, u_face, c_left, c_right):
    """Scharfetter-Gummel flux density through a face, oriented left-to-right."""
    P = np.asarray(u_face, dtype=float) * h / d_face
    return (d_face / h) * (bernoulli(-P) * c_left - bernoulli(P) * c_right)


def reaction_rates(rate, c1, c2):
    """Exchange rates r1 = rate (c2+ - c1+), r2 = -r1 (zeros at rate 0, no reaction)."""
    r1 = rate * (np.maximum(c2, 0.0) - np.maximum(c1, 0.0))
    return r1, -r1


def mass(field):
    """Volume integral of a cell field."""
    return float(field.values.sum() * field.grid.cell_volume)


def closed_box(grid):
    """Zero drift fields and no inflow: (q, e, g) with g one zero BoundaryField per species."""
    return FaceField.zeros(grid), FaceField.zeros(grid), (BoundaryField(grid), BoundaryField(grid))


def test_bernoulli_frozen_values():
    assert bernoulli(1.0) == pytest.approx(1.0 / (E - 1.0), abs=1e-15)
    assert bernoulli(0.0) == 1.0
    assert bernoulli(-1.0) == pytest.approx(E / (E - 1.0), abs=1e-15)


def test_bernoulli_identity_and_branches():
    for x in [0.7, 1e-6, 1e-9, 5.0, 40.0, 700.0]:
        assert bernoulli(-x) - bernoulli(x) == pytest.approx(x, rel=1e-13)
    # series branch agrees with the closed form at the crossover
    x = 2e-5
    assert bernoulli(x) == pytest.approx(x / math.expm1(x), rel=1e-12)
    # overflow guard: the downwind weight dies, the upwind one is exact
    assert bernoulli(800.0) == 0.0
    assert bernoulli(-800.0) == 800.0


def test_sg_flux_frozen_example():
    assert sg_flux(1.0, 1.0, 1.0, 2.0, 1.0) == pytest.approx((2.0 * E - 1.0) / (E - 1.0), abs=1e-14)


def test_sg_flux_diffusion_limit():
    assert sg_flux(2.0, 0.5, 0.0, 3.0, 1.0) == pytest.approx(2.0 / 0.5 * (3.0 - 1.0))


def test_sg_flux_constant_profile_is_pure_advection():
    # B(-P) - B(P) = P makes flux(c, c) = u c exactly, at any Peclet number
    for u in [0.1, 1.0, 10.0, 200.0]:
        assert sg_flux(1.0, 1.0, u, 4.0, 4.0) == pytest.approx(4.0 * u, rel=1e-12)


def test_sg_flux_drift_limit_upwinds():
    # Peclet 10: the flux is u * c_upwind to a relative 1e-3
    flux = sg_flux(1.0, 1.0, 10.0, 1.0, 0.0)
    assert abs(flux - 10.0 * 1.0) <= 1e-3 * 10.0


def test_reaction_rates_frozen_examples():
    r1, r2 = reaction_rates(2.0, -1.0, 3.0)
    assert r1 == pytest.approx(6.0)
    assert r2 == pytest.approx(-6.0)
    r1, r2 = reaction_rates(0.5, 4.0, 1.0)
    assert r1 == pytest.approx(-1.5)
    assert r2 == pytest.approx(1.5)
    r1, r2 = reaction_rates(0.0, 5.0, 2.0)
    assert np.all(r1 == 0.0) and np.all(r2 == 0.0)


def test_free_charge_frozen_example():
    g = Grid(2, 2, 1.0, 1.0)
    p = PhysParams(z1=2, z2=-1, theta=1.0)
    rho = free_charge(p, Concentrations(CellField.full(g, 1.0), CellField.full(g, 3.0)))
    assert np.allclose(rho.values, -1.0)


def test_single_closed_cell_gains_source_times_dt():
    g = Grid(1, 1, 1.0, 1.0)
    p = PhysParams(theta=1.0)
    prev = Concentrations(CellField.full(g, 2.0), CellField.full(g, 0.5))
    q, e, gb = closed_box(g)
    res = step_transport(g, p, prev, q, e, gb, dt=0.1, sources=(np.ones((1, 1)), np.ones((1, 1))))
    assert res.conc.c1.values[0, 0] == pytest.approx(2.1, abs=1e-12)
    assert res.conc.c2.values[0, 0] == pytest.approx(0.6, abs=1e-12)


def test_two_cell_diffusion_hand_solution():
    g = Grid(2, 1, 2.0, 1.0)
    p = PhysParams(theta=1.0, D=(1.0, 1.0))
    prev = Concentrations(CellField(g, np.array([[1.0, 0.0]])), CellField.zeros(g))
    q, e, gb = closed_box(g)
    res = step_transport(g, p, prev, q, e, gb, dt=1.0)
    assert np.allclose(res.conc.c1.values, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)
    # an x strip couples its cells through D[0] and the x spacing alone: with
    # hx = 1, hy = 0.5 and D = (2, 7) the step is (I + 2 L) c = (1, 0), so
    # c = (3/5, 2/5); a unit x drift adds the Peclet number P = hx / D[0]
    g = Grid(2, 1, 2.0, 0.5)
    p = PhysParams(theta=1.0, D=(2.0, 7.0))
    prev = Concentrations(CellField(g, np.array([[1.0, 0.0]])), CellField.zeros(g))
    q, e, gb = closed_box(g)
    res = step_transport(g, p, prev, q, e, gb, dt=1.0)
    assert np.allclose(res.conc.c1.values, [[0.6, 0.4]], atol=1e-12)
    drift = FaceField(g, [[0.0, 1.0, 0.0]], np.zeros((2, 2)))
    res = step_transport(g, p, prev, drift, e, gb, dt=1.0)
    b_minus, b_plus = bernoulli(-0.5), bernoulli(0.5)
    expected = np.linalg.solve([[1.0 + 2.0 * b_minus, -2.0 * b_plus], [-2.0 * b_minus, 1.0 + 2.0 * b_plus]], [1.0, 0.0])
    assert np.allclose(res.conc.c1.values.ravel(), expected, atol=1e-12)
    # the electric drift kappa z_l E takes each species' own valence: with
    # kappa = 0.5, z = (2, -1) and E = 1 c1 moves at u = 1 as above and c2
    # against the field at u = -0.5, P = -0.25
    p = PhysParams(theta=1.0, D=(2.0, 7.0), kappa=0.5, z1=2, z2=-1)
    res = step_transport(g, p, Concentrations(prev.c1, prev.c1), q, drift, gb, dt=1.0)
    assert np.allclose(res.conc.c1.values.ravel(), expected, atol=1e-12)
    b_minus, b_plus = bernoulli(0.25), bernoulli(-0.25)
    expected = np.linalg.solve([[1.0 + 2.0 * b_minus, -2.0 * b_plus], [-2.0 * b_minus, 1.0 + 2.0 * b_plus]], [1.0, 0.0])
    assert np.allclose(res.conc.c2.values.ravel(), expected, atol=1e-12)


def test_porosity_scales_the_time_derivative():
    # theta (c - c_prev)/dt = source  ->  c = c_prev + dt source / theta
    g = Grid(1, 1, 1.0, 1.0)
    p = PhysParams(theta=0.5)
    prev = Concentrations(CellField.full(g, 1.0), CellField.full(g, 1.0))
    q, e, gb = closed_box(g)
    res = step_transport(g, p, prev, q, e, gb, dt=0.1, sources=(np.ones((1, 1)), np.zeros((1, 1))))
    assert res.conc.c1.values[0, 0] == pytest.approx(1.2, abs=1e-12)


def test_inflow_boundary_adds_mass():
    g = Grid(2, 1, 1.0, 1.0)
    p = PhysParams(theta=1.0)
    prev = Concentrations(CellField.zeros(g), CellField.zeros(g))
    q, e, (_, gb2) = closed_box(g)
    g1 = BoundaryField(g, left=2.0)  # inflow 2 across a face of length 1
    res = step_transport(g, p, prev, q, e, (g1, gb2), dt=0.25)
    added = mass(res.conc.c1)
    assert added == pytest.approx(0.25 * 2.0 * 1.0, abs=1e-12)
    assert mass(res.conc.c2) == pytest.approx(0.0, abs=1e-14)


def random_problem(rng, exchange_rate=0.0):
    nx, ny = (int(v) for v in rng.integers(2, 10, size=2))
    g = Grid(nx, ny, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
    p = PhysParams(
        theta=float(rng.uniform(0.3, 1.0)),
        D=(float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))),
        kappa=float(rng.uniform(0.0, 1.0)),
        z1=int(rng.integers(1, 3)),
        z2=-int(rng.integers(1, 3)),
        exchange_rate=exchange_rate,
    )
    prev = Concentrations(
        CellField(g, rng.uniform(0.0, 2.0, size=(ny, nx))),
        CellField(g, rng.uniform(0.0, 2.0, size=(ny, nx))),
    )
    q = FaceField(g, rng.normal(0.0, 3.0, size=(ny, nx + 1)), rng.normal(0.0, 3.0, size=(ny + 1, nx)))
    e = FaceField(g, rng.normal(0.0, 3.0, size=(ny, nx + 1)), rng.normal(0.0, 3.0, size=(ny + 1, nx)))
    g1 = BoundaryField(g, left=rng.uniform(0.0, 1.0, size=ny), top=rng.uniform(0.0, 1.0, size=nx))
    g2 = BoundaryField(g, right=rng.uniform(0.0, 1.0, size=ny))
    return g, p, prev, q, e, (g1, g2)


def test_nonnegativity_survives_arbitrary_drift():
    """M-matrix structure: no drift field can push concentrations negative."""
    rng = np.random.default_rng(101)
    for _ in range(40):
        g, p, prev, q, e, gin = random_problem(rng)
        res = step_transport(g, p, prev, q, e, gin, dt=float(rng.uniform(0.01, 0.5)))
        assert min(res.conc.c1.values.min(), res.conc.c2.values.min()) >= -1e-12


def test_mass_balance_with_reaction_and_inflow():
    """theta * d/dt of each species mass = boundary inflow + theta * reaction."""
    rng = np.random.default_rng(202)
    for _ in range(25):
        g, p, prev, q, e, gin = random_problem(rng, exchange_rate=float(rng.uniform(0.0, 2.0)))
        dt = float(rng.uniform(0.01, 0.2))
        res = step_transport(g, p, prev, q, e, gin, dt=dt)
        vol = g.cell_volume
        for conc_new, conc_old, gb, rate in zip(res.conc, prev, gin, res.rates):
            lhs = p.theta * (mass(conc_new) - mass(conc_old))
            rhs = dt * (gb.boundary_integral() + p.theta * float(rate.sum()) * vol)
            scale = max(
                abs(p.theta * mass(conc_new)),
                abs(p.theta * mass(conc_old)),
                abs(rhs),
                1e-30,
            )
            assert abs(lhs - rhs) <= 1e-10 * scale


def test_exchange_conserves_total_mass_in_closed_box():
    g = Grid(3, 3, 1.0, 1.0)
    p = PhysParams(theta=0.7, exchange_rate=1.5)
    rng = np.random.default_rng(7)
    prev = Concentrations(
        CellField(g, rng.uniform(0.0, 1.0, size=(3, 3))),
        CellField(g, rng.uniform(0.0, 1.0, size=(3, 3))),
    )
    q, e, gb = closed_box(g)
    res = step_transport(g, p, prev, q, e, gb, dt=0.1)
    before = mass(prev.c1) + mass(prev.c2)
    after = mass(res.conc.c1) + mass(res.conc.c2)
    assert after == pytest.approx(before, abs=1e-12)


def test_step_is_affine_in_sources():
    """One linear solve means source responses superpose exactly."""
    rng = np.random.default_rng(303)
    g, p, prev, q, e, gin = random_problem(rng)
    dt = 0.07
    s_a = rng.normal(size=g.shape)
    s_b = rng.normal(size=g.shape)
    zeros = np.zeros(g.shape)

    def run(s):
        return step_transport(g, p, prev, q, e, gin, dt, sources=(s, zeros))

    c_ab = run(s_a + s_b).conc.c1.values
    c_a = run(s_a).conc.c1.values
    c_b = run(s_b).conc.c1.values
    c_0 = run(zeros).conc.c1.values
    assert np.allclose(c_ab, c_a + c_b - c_0, atol=1e-9)


def test_demo_transport_solves_stay_preconditioned(monkeypatch):
    iterations = []
    real_solve = transport.solve_nonsym

    def counted(*args):
        x, rep = real_solve(*args)
        iterations.append(rep.iterations)
        return x, rep

    monkeypatch.setattr(transport, "solve_nonsym", counted)
    demo = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "demo.json")
    ok, lines = runner.check(load_config(demo))
    assert ok
    assert lines[-1] == "steps: 20   sweeps: 80   halvings: 0   wasted: 0"
    assert len(iterations) == 80 and sum(iterations) <= 300, sum(iterations)


def test_fine_grid_step_keeps_its_memory():
    demo = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "demo.json")
    with open(demo) as fh:
        doc = json.load(fh)
    doc["grid"].update(nx=128, ny=128)
    cfg = parse_config(doc)
    state = initial_state(cfg.grid, cfg.params, cfg.initial, cfg.schedule.at(0.0))
    data = cfg.schedule.at(cfg.params.dt)
    args = (cfg.grid, cfg.params, state.conc, state.flow.q_faces, state.electro.e_faces, data.g, cfg.params.dt)
    step_transport(*args)  # the cosine basis is built once per grid and dt, outside the measure
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step_transport(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 3.5e6, peak
