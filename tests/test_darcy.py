"""Flow solve: exactness for linear pressure, compatibility, mass defect.

Frozen oracles: with permeability K, viscosity mu and boundary normal flux
+-K/mu on the two x-sides, the exact solution is a uniform horizontal
velocity with linear pressure -- reproduced to rounding on every grid
because two-point differences of linear functions are exact.  Imbalanced
boundary data must raise IncompatibleFlowData before any solve; a march
judges that balance once per boundary field, not on every sweep.
"""

import os

import numpy as np
import pytest

from dpnpsim import darcy, gummel, runner
from dpnpsim.config import load_config
from dpnpsim.darcy import IncompatibleFlowData, solve_darcy
from dpnpsim.gauss import SOLVE_TOL, solve_gauss
from dpnpsim.mesh import BoundaryField, CellField, FaceField, Grid, cell_divergence
from dpnpsim.params import PhysParams


def test_uniform_flow_reproduced_exactly():
    p = PhysParams(K=(2.0, 1.0), mu=4.0)
    m = p.K[0] / p.mu  # 0.5
    for nx, ny in [(6, 1), (5, 4)]:
        g = Grid(nx, ny, 1.0, 1.0)
        f = BoundaryField(g, left=-m, right=m)  # inflow left, outflow right
        st = solve_darcy(g, p, CellField.zeros(g), FaceField.zeros(g), f)
        q_x, q_y = st.q_faces.planes
        assert np.abs(q_x - m).max() <= 1e-10
        assert np.abs(q_y).max() <= 1e-10
        # pressure is linear with slope -mu/K; compare increments
        dp = np.diff(st.p.values, axis=1)
        assert np.allclose(dp, -g.h[0], atol=1e-10)


def test_no_data_gives_zero_flow():
    g = Grid(4, 3, 1.0, 1.0)
    p = PhysParams()
    st = solve_darcy(g, p, CellField.zeros(g), FaceField.zeros(g), BoundaryField(g))
    assert np.abs(st.q_faces.planes[0]).max() <= 1e-12
    assert np.abs(st.p.values).max() <= 1e-12


def test_imbalanced_boundary_data_raises():
    g = Grid(4, 4, 1.0, 1.0)
    p = PhysParams()
    with pytest.raises(IncompatibleFlowData):
        solve_darcy(g, p, CellField.zeros(g), FaceField.zeros(g), BoundaryField(g, left=1.0))


def test_a_march_checks_the_balance_once_per_boundary_field(monkeypatch):
    # the demo ramps f up to t = 0.05, so its steps pass several distinct
    # fields, each to every sweep of its step
    checked, passed = [], []
    real_imbalance, real_solve = darcy.imbalance, gummel.solve_darcy
    monkeypatch.setattr(darcy, "imbalance", lambda f_bc: checked.append(f_bc) or real_imbalance(f_bc))
    monkeypatch.setattr(gummel, "solve_darcy", lambda *args: passed.append(args[-1]) or real_solve(*args))
    demo = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "demo.json")
    ok, _ = runner.check(load_config(demo))
    assert ok
    distinct = {id(f): f for f in passed}  # passed keeps every field alive, so no id is reused
    assert len(checked) == len(distinct) < len(passed) / 5
    assert all(any(f is g for g in checked) for f in distinct.values())


def test_velocity_is_divergence_free_random_data():
    """div q = 0 cell by cell within 10 * SOLVE_TOL * scale, for any drift field."""
    rng = np.random.default_rng(23)
    p = PhysParams(K=(1.2, 0.6), mu=0.8, eps_s=2.0)
    for _ in range(12):
        nx, ny = (int(v) for v in rng.integers(2, 10, size=2))
        g = Grid(nx, ny, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        rho_f = CellField(g, rng.normal(size=(ny, nx)))
        e = FaceField(g, rng.normal(size=(ny, nx + 1)), rng.normal(size=(ny + 1, nx)))
        # balanced boundary flux: solve the fourth side from the other three
        left, right = rng.normal(size=ny), rng.normal(size=ny)
        bottom = rng.normal(size=nx)
        hx, hy = g.h
        top_total = -(left.sum() * hy + right.sum() * hy + bottom.sum() * hx)
        f = BoundaryField(g, left=left, right=right, bottom=bottom, top=top_total / (nx * hx))
        st = solve_darcy(g, p, rho_f, e, f)
        defect = np.abs(cell_divergence(g, st.q_faces).values).max()
        assert defect <= 10.0 * SOLVE_TOL * max(st.velocity_scale, 1e-3)


def test_boundary_velocity_matches_prescribed_flux():
    g = Grid(3, 3, 1.0, 1.0)
    p = PhysParams()
    f = BoundaryField(g, left=-0.5, right=0.25, bottom=0.0, top=0.25)
    st = solve_darcy(g, p, CellField.zeros(g), FaceField.zeros(g), f)
    # stored fluxes are +axis oriented, so the outward left value is -q_x[:, 0]
    q_x, q_y = st.q_faces.planes
    assert np.allclose(-q_x[:, 0], -0.5, atol=1e-12)
    assert np.allclose(q_x[:, -1], 0.25, atol=1e-12)
    assert np.allclose(q_y[-1, :], 0.25, atol=1e-12)


def test_electric_body_force_drives_flow():
    """A uniform field with uniform charge adds K/mu * rho * E to the velocity.

    With rho_f = 1 and E = eps * e_x the body force is rho * E / eps = e_x,
    so q = (K/mu) e_x plus the pressure response; on a periodic-free strip
    with zero boundary flux the net x-velocity must vanish (incompressible),
    which pins the pressure gradient to cancel the force in the mean; the
    recovered velocity is then zero only when the force is curl-free and the
    boundary blocks throughflow.  Here we check the solve is consistent:
    divergence still vanishes and the face velocity equals the value the
    flux law assigns from the computed pressure and force.
    """
    g = Grid(6, 2, 1.0, 1.0)
    p = PhysParams(K=(0.5, 0.5), mu=1.0, eps_s=2.0, D=(1.0, 3.0))  # eps = (2, 6): x faces divide by eps_x
    eps_x = p.epsilon[0]
    e = FaceField(g, np.full(g.face_shape[0], eps_x), np.zeros(g.face_shape[1]))
    rho = CellField.full(g, 1.0)
    st = solve_darcy(g, p, rho, e, BoundaryField(g))
    assert np.abs(cell_divergence(g, st.q_faces).values).max() <= 1e-10
    m = p.K[0] / p.mu
    # interior x-face: q = -m (p_R - p_L)/hx + m * force
    i = 3
    q_law = -m * (st.p.values[:, i] - st.p.values[:, i - 1]) / g.h[0] + m * 1.0
    assert np.allclose(st.q_faces.planes[0][:, i], q_law, atol=1e-11)
