"""Acceptance gate: twelve verification criteria, one verdict line each.

The core of the gate is a randomized suite of fifty compliant
configurations on a 32 x 32 grid, each advanced twenty implicit steps:
random valencies z1 in {1,2,3} and z2 in {-3,-2,-1}, random smooth
nonnegative initial data, random admissible boundary data (balanced Darcy
flux, nonnegative inflows, optional ramps), and exchange reactions.
Criteria 1-7 and 12 are evaluated on every accepted state of every suite
run; 9-11 are dedicated oracles (symmetry, manufactured solutions,
dense-solve comparison of the Gauss/Darcy and transport solvers).

Criteria 8 and 12 check the Gummel sweep against references built here
from the public solvers (free_charge, solve_gauss, solve_darcy,
step_transport), not from options of the production sweep: 8 re-solves the
first suite runs with sweeps started from zero concentrations, and 12 takes
one more transport step past each accepted state.

Every criterion prints one PASS/FAIL line with its observed worst margin
(run with `pytest -s` to see them) and asserts at the stated tolerance.
Nothing here is statistical: a single violation anywhere fails the gate.
"""

import math
import time

import numpy as np
import pytest

from dpnpsim.bounds import BoundsEvaluator
from dpnpsim.darcy import solve_darcy
from dpnpsim.gauss import fv_laplacian, solve_gauss
from dpnpsim.gummel import SweepSettings
from dpnpsim.linalg import solve_nonsym, solve_spd
from dpnpsim.mesh import BoundaryField, CellField, FaceField, Grid
from dpnpsim.mms import run_mms
from dpnpsim.params import PhysParams
from dpnpsim.schedule import BoundarySpec, Ramp, Schedule
from dpnpsim.transport import Concentrations, _species_system, free_charge, step_transport
from march_helpers import march
from matrix_helpers import to_dense

SUITE_RUNS = 50
SUITE_TOL = 1e-10
SUITE_STEPS = 20
SUITE_DT = 0.005


def _verdict(num, name, ok, detail):
    line = "%s  criterion %02d %-24s %s" % ("PASS" if ok else "FAIL", num, name, detail)
    print(line)
    assert ok, line


def _gap(grid, params, a, b):
    """Weighted L2 distance sqrt(sum_l |z_l| sum (a_l - b_l)^2 vol), the sweep's increment norm."""
    vol = grid.cell_volume
    d1 = a.c1.values - b.c1.values
    d2 = a.c2.values - b.c2.values
    return math.sqrt(abs(params.z1) * (d1**2).sum() * vol + abs(params.z2) * (d2**2).sum() * vol)


def _transport(grid, params, data, dt, c_prev, electro, flow, c_lag):
    """Concentrations of one transport step of the sweep, with field and flow frozen."""
    result = step_transport(
        grid, params, c_prev, flow.q_faces, electro.e_faces, data.g, dt, c_lag=c_lag, sources=data.sources
    )
    return result.conc


def _zero_start_march(grid, params, initial, schedule, times):
    """Final concentrations of a fixed-point march over the given step times, every sweep started from zero.

    Each sweep solves the field and flow from the free charge of the
    iterate, then transports; it stops at increment <= SUITE_TOL.  A time
    difference is the production step's dt up to one rounding.
    """
    zero = CellField.zeros(grid)
    conc = initial
    for t_prev, t in zip(times, times[1:]):
        data = schedule.at(t)
        c_k = Concentrations(zero, zero)
        for _ in range(SweepSettings().max_sweeps):
            rho_f = free_charge(params, c_k)
            electro = solve_gauss(grid, params, rho_f, data.rho_b, data.sigma)
            flow = solve_darcy(grid, params, rho_f, electro.e_faces, data.f)
            c_next = _transport(grid, params, data, t - t_prev, conc, electro, flow, c_k)
            converged = _gap(grid, params, c_next, c_k) <= SUITE_TOL
            c_k = c_next
            if converged:
                break
        else:
            raise AssertionError("zero-start sweep did not converge at t=%g" % t)
        conc = c_k
    return conc


def _bump(rng, grid):
    """A random Gaussian bump on a positive base, sampled at the cell centers."""
    base = rng.uniform(0.1, 0.4)
    amp = rng.uniform(0.0, 0.4)
    cx, cy = rng.uniform(0.2, 0.8, size=2)
    w = rng.uniform(0.1, 0.3)
    x, y = grid.cell_centers()
    return CellField(grid, base + amp * np.exp(-((x - cx) ** 2 + (y - cy) ** 2) / (2.0 * w * w)))


def _random_setup(seed):
    rng = np.random.default_rng(seed)
    grid = Grid(32, 32, 1.0, 1.0)
    params = PhysParams(
        theta=rng.uniform(0.5, 1.0),
        D=(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)),
        K=(rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)),
        mu=rng.uniform(0.5, 1.5),
        eps_s=rng.uniform(0.5, 1.5),
        kappa=rng.uniform(0.02, 0.05),
        z1=int(rng.integers(1, 4)),
        z2=-int(rng.integers(1, 4)),
        exchange_rate=rng.uniform(0.02, 0.2),
        T_end=SUITE_STEPS * SUITE_DT,
        dt=SUITE_DT,
    )
    initial = Concentrations(_bump(rng, grid), _bump(rng, grid))

    sigma = {s: rng.uniform(-0.1, 0.1) for s in ("left", "right", "bottom", "top")}
    # three random Darcy flux sides; the fourth balances the net flux to zero
    fl, fr, fb = rng.uniform(-0.1, 0.1, size=3)
    lx, ly = grid.length
    ft = -(fl * ly + fr * ly + fb * lx) / lx
    f = {"left": fl, "right": fr, "bottom": fb, "top": ft}
    g1 = {str(rng.choice(["left", "right", "bottom", "top"])): rng.uniform(0.0, 0.05)}
    g2 = {str(rng.choice(["left", "right", "bottom", "top"])): rng.uniform(0.0, 0.05)}
    g1_ramp = Ramp("linear", 0.0, rng.uniform(0.02, 0.1)) if rng.random() < 0.3 else None

    schedule = Schedule(
        sigma=BoundarySpec(grid, **sigma),
        f=BoundarySpec(grid, **f),
        g=(BoundarySpec(grid, **g1, ramp=g1_ramp), BoundarySpec(grid, **g2)),
        rho_b=CellField.full(grid, rng.uniform(-0.1, 0.1)),
    )
    return grid, params, initial, schedule


@pytest.fixture(scope="module")
def suite():
    runs = []
    t0 = time.perf_counter()
    for i in range(SUITE_RUNS):
        grid, params, initial, schedule = _random_setup(1000 + i)
        result = march(grid, params, initial, schedule, SweepSettings(tol=SUITE_TOL))
        runs.append((grid, params, initial, schedule, result))
        if (i + 1) % 10 == 0:
            print("suite: %d/%d runs (%.0fs)" % (i + 1, SUITE_RUNS, time.perf_counter() - t0))
    return runs


def _monitors(suite):
    for _, _, _, _, result in suite:
        for m in result.monitors:
            yield m


def test_01_nonnegativity(suite):
    worst = min(min(m.min_c1, m.min_c2) for m in _monitors(suite))
    ok = all(m.nonneg_ok for m in _monitors(suite)) and worst >= -1e-12
    _verdict(1, "non-negativity", ok, "worst cell minimum %.3e >= -1e-12 (%d runs)" % (worst, SUITE_RUNS))


def test_02_sign_condition(suite):
    worst = min(m.sign_min_summand for m in _monitors(suite))
    ok = all(m.sign_ok for m in _monitors(suite)) and worst >= -1e-12

    rng = np.random.default_rng(77)
    prop_min = math.inf
    for _ in range(10_000):
        a, b = rng.uniform(0.0, 20.0, size=2)
        p = rng.uniform(0.0, 6.0) if rng.random() < 0.5 else float(rng.integers(0, 7))
        # the algebraic inequality behind the sign condition: t^p is monotone
        prop_min = min(prop_min, (a - b) * (a**p - b**p))
    ok = ok and prop_min >= 0.0
    _verdict(2, "sign condition", ok, "worst summand %.3e, 10^4 property samples min %.3e" % (worst, prop_min))


def test_03_energy_bound(suite):
    margin = max(m.energy / m.energy_bound for m in _monitors(suite))
    ok = all(m.energy_ok for m in _monitors(suite)) and margin <= 1.0
    # Also report (never assert) the margin against the compact closed-form
    # rate: with the weak drift coupling sampled here it understates the
    # assembled rate, and healthy runs overshoot its bound slightly.
    compact = 0.0
    for grid, params, initial, schedule, result in suite:
        ev = BoundsEvaluator(grid, params, schedule, initial)
        for m in result.monitors:
            compact = max(compact, m.energy / ev.ledger(m.time).C0_hat ** 2)
    _verdict(3, "energy bound", ok, "max energy/bound margin %.4f <= 1 (compact-rate margin %.4f)" % (margin, compact))


def test_04_sup_bound(suite):
    margin = max(m.sup_total / m.sup_bound for m in _monitors(suite))
    ok = all(m.sup_ok for m in _monitors(suite)) and margin <= 1.0
    _verdict(4, "L-infinity bound", ok, "max sup/C_M margin %.3e <= 1 (slack 1.0)" % margin)


def test_05_mass_balance(suite):
    worst = max(max(m.mass_residual1, m.mass_residual2) for m in _monitors(suite))
    ok = all(m.mass_ok for m in _monitors(suite)) and worst <= 1e-10
    _verdict(5, "mass conservation", ok, "worst relative residual %.3e <= 1e-10" % worst)


def test_06_divergence_free_flow(suite):
    ratio = max(m.darcy_residual / m.darcy_threshold for m in _monitors(suite))
    ok = all(m.darcy_ok for m in _monitors(suite)) and ratio <= 1.0
    _verdict(6, "divergence-free flow", ok, "max |div q| at %.3e of threshold" % ratio)


def test_07_gauss_residual(suite):
    ratio = max(m.gauss_residual / m.gauss_threshold for m in _monitors(suite))
    ok = all(m.gauss_ok for m in _monitors(suite)) and ratio <= 1.0
    _verdict(7, "field-equation residual", ok, "max residual at %.3e of threshold" % ratio)


def test_08_uniqueness_proxy(suite):
    worst = 0.0
    for grid, params, initial, schedule, result in suite[:5]:
        other = _zero_start_march(grid, params, initial, schedule, [s.time for s in result.states])
        worst = max(worst, _gap(grid, params, result.states[-1].conc, other))
    ok = worst <= 10.0 * SUITE_TOL
    _verdict(8, "uniqueness proxy", ok, "max L2 gap between sweep starts %.3e <= %.0e" % (worst, 10 * SUITE_TOL))


def test_09_symmetric_electrolyte():
    grid = Grid(32, 32, 1.0, 1.0)
    params = PhysParams(theta=1.0, kappa=0.5, z1=1, z2=-1, T_end=0.1, dt=0.005)
    x, y = grid.cell_centers()
    w = CellField(grid, 0.5 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
    initial = Concentrations(w, CellField(grid, w.values.copy()))
    schedule = Schedule(
        sigma=BoundarySpec(grid),
        f=BoundarySpec(grid, bottom=-0.2, top=0.2),
        g=(BoundarySpec(grid, left=0.05), BoundarySpec(grid, left=0.05)),
        rho_b=CellField.zeros(grid),
    )
    result = march(grid, params, initial, schedule, SweepSettings(tol=1e-10))
    final = result.states[-1].conc
    gap = float(np.abs(final.c1.values - final.c2.values).max())
    ok = gap <= 1e-8
    _verdict(9, "electrolyte symmetry", ok, "max |c1 - c2| at T_end %.3e <= 1e-8" % gap)


def test_10_manufactured_solutions():
    poisson = run_mms("poisson", (16, 32))
    sg = run_mms("driftdiffusion", (16, 32))
    diffusion = run_mms("diffusion", (16, 32, 64, 128))
    coupled = run_mms("coupled", (16, 32, 64))

    e_poisson = max(max(es) for es in poisson.errors.values())
    e_sg = max(max(es) for es in sg.errors.values())
    o_diff = min(min(diffusion.orders[f]) for f in diffusion.fields())
    o_coup = min(min(coupled.orders[f]) for f in coupled.fields())

    ok = e_poisson <= 1e-10 and e_sg <= 1e-10 and o_diff >= 1.9 and o_coup >= 0.9
    _verdict(
        10,
        "manufactured solutions",
        ok,
        "field exactness %.1e, drift exactness %.1e, parabolic order %.2f, coupled order %.2f"
        % (e_poisson, e_sg, o_diff, o_coup),
    )


def test_11_linear_solver_oracle():
    """Both production solves against dense solves, 100 systems each.

    Even k: the Gauss/Darcy operator as production builds it (fv_laplacian,
    nx, ny in [1, 20], random lengths, per-axis coefficients in [0.1, 10]) with
    a zero-sum right side, against the dense minimum-norm solution.  Odd k: the
    stacked two-species Scharfetter-Gummel system as production builds and
    solves it (_species_system with per-species valences and its cosine
    basis, nx, ny in [1, 20], random porosity, diffusivities, reaction rate,
    flow and electric faces giving drifts up to about 1e3, inflows and dt in
    [1e-4, 1e-1], started from random concentrations), against
    numpy.linalg.solve.
    """
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(200):
        if k % 2 == 0:
            nx, ny = (int(v) for v in rng.integers(1, 21, size=2))
            grid = Grid(nx, ny, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            mat, basis = fv_laplacian(grid, (float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0))))
            b = rng.uniform(-1.0, 1.0, size=grid.n_cells)
            b -= b.mean()
            expected = np.linalg.lstsq(to_dense(mat), b, rcond=None)[0]
            x, _ = solve_spd(mat, b, 1e-14, basis)
        else:
            nx, ny = (int(v) for v in rng.integers(1, 21, size=2))
            grid = Grid(nx, ny, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
            params = PhysParams(
                theta=float(rng.uniform(0.1, 1.0)),
                D=tuple(float(v) for v in rng.uniform(0.1, 10.0, size=2)),
                kappa=float(rng.uniform(0.0, 1.0)),
                z1=int(rng.integers(1, 4)),
                z2=-int(rng.integers(1, 4)),
                exchange_rate=float(rng.uniform(0.0, 1.0)),
            )
            speed = 10.0 ** rng.uniform(-1.0, 3.0) / 2.0
            q, e = (
                FaceField(grid, *(speed * rng.uniform(-1.0, 1.0, size=shape) for shape in grid.face_shape))
                for _ in range(2)
            )
            g = tuple(BoundaryField(grid, *(rng.uniform(0.0, 0.1, size=n) for n in (ny, ny, nx, nx))) for _ in range(2))
            production = params.exchange_rate * rng.uniform(0.0, 1.0, size=(2, ny, nx))
            c_prev = rng.uniform(0.0, 1.0, size=(2, ny, nx))
            dt = 10.0 ** rng.uniform(-4.0, -1.0)
            mat, b, basis = _species_system(grid, params, params.z, c_prev, q, e, g, dt, production, None)
            expected = np.linalg.solve(to_dense(mat), b.ravel()).reshape(b.shape)
            x, _ = solve_nonsym(mat, b, 1e-14, basis, rng.uniform(0.0, 1.0, size=b.shape))
        worst = max(worst, float(np.abs(x - expected).max()))
    ok = worst <= 1e-8
    _verdict(11, "linear-solver oracle", ok, "max deviation from dense solve %.3e <= 1e-8 (200 systems)" % worst)


def test_12_fixed_point_consistency(suite):
    worst = 0.0
    for grid, params, _, schedule, result in suite:
        for prev, state in zip(result.states, result.states[1:]):
            data = schedule.at(state.time)
            dt = state.time - prev.time  # the step's dt up to one rounding
            extra = _transport(grid, params, data, dt, prev.conc, state.electro, state.flow, state.conc)
            worst = max(worst, _gap(grid, params, extra, state.conc))
    ok = worst <= SUITE_TOL
    _verdict(12, "fixed-point consistency", ok, "max post-convergence sweep change %.3e <= tol" % worst)
