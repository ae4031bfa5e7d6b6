"""Scaled-field elliptic solve: assembly oracle, exactness, shift, residual.

Frozen oracles: the two-point assembly on a 2x1 grid with unit coefficients
is [[1, -1], [-1, 1]] by hand; the quadratic potential x^2 - x + 1/6 with
constant charge and matching boundary flux is reproduced exactly because
two-point differences of quadratics at face midpoints are exact; a uniform
unit charge with zero boundary flux violates compatibility by exactly the
domain volume and must be absorbed by the recorded shift, leaving a zero
field.
"""

import numpy as np
import pytest

from dpnpsim import darcy, gauss
from dpnpsim.gauss import SOLVE_TOL, fv_laplacian, solve_gauss
from dpnpsim.linalg import solve_spd
from dpnpsim.mesh import BoundaryField, CellField, Grid
from dpnpsim.mms import project_zero_mean
from dpnpsim.monitors import divergence_defect
from dpnpsim.params import PhysParams
from matrix_helpers import to_dense


def gauss_residual(g, st, rho_f, rho_b):
    """The monitors' Gauss defect: sup norm of div(E) - (rho_f + rho_b - charge_shift)."""
    rho = rho_f.values + rho_b.values - st.charge_shift
    return divergence_defect(g, st.e_faces, rho, st.charge_scale)[0]


def test_two_cell_assembly_by_hand():
    g = Grid(2, 1, 2.0, 1.0)  # hx = hy = 1
    A, _ = fv_laplacian(g, (1.0, 1.0))
    assert np.allclose(to_dense(A), [[1.0, -1.0], [-1.0, 1.0]])
    # anisotropy scales the x-coupling only
    A2, _ = fv_laplacian(g, (2.0, 5.0))
    assert np.allclose(to_dense(A2), [[2.0, -2.0], [-2.0, 2.0]])


def test_single_cell_assembly_is_zero():
    g = Grid(1, 1, 1.0, 1.0)
    A, _ = fv_laplacian(g, (1.0, 1.0))
    assert A.diagonals.shape == (5, 1)
    assert np.array_equal(to_dense(A), [[0.0]])


def test_assembly_is_memoized_and_read_only():
    g = Grid(3, 2, 1.0, 1.0)
    A, (q, inv_eig) = fv_laplacian(g, (0.7, 1.3))
    assert fv_laplacian(g, (0.7, 1.3))[0] is A
    assert fv_laplacian(Grid(3, 2, 1.0, 1.0), (0.7, 1.3))[0] is not A  # keyed on the grid instance
    assert isinstance(A.offsets, tuple)
    for arr in (A.diagonals, inv_eig) + q:
        with pytest.raises(ValueError):
            arr[0, 0] = arr[0, 0]


def test_assembly_rows_sum_to_zero_and_symmetric():
    g = Grid(5, 4, 1.5, 1.0)
    A = to_dense(fv_laplacian(g, (0.7, 1.3))[0])
    assert np.allclose(A, A.T)
    assert np.allclose(A.sum(axis=1), 0.0, atol=1e-14)
    # eigenvalues nonnegative with a single zero mode (the constant)
    w = np.linalg.eigvalsh(A)
    assert w[0] == pytest.approx(0.0, abs=1e-12)
    assert w[1] > 1e-10


def test_quadratic_potential_reproduced_exactly():
    p = PhysParams(eps_s=2.0, D=(1.5, 1.0))
    eps_x = p.epsilon[0]
    for nx, ny in [(8, 1), (8, 5), (3, 7)]:
        g = Grid(nx, ny, 1.0, 1.0)
        X, _ = g.cell_centers()
        st = solve_gauss(
            g,
            p,
            CellField.zeros(g),
            CellField.full(g, -2.0 * eps_x),
            BoundaryField(g, left=-eps_x, right=-eps_x),
        )
        w = np.full(g.shape, g.cell_volume)
        exact = X**2 - X + 1.0 / 6.0
        diff = project_zero_mean(st.phi.values, w) - project_zero_mean(exact, w)
        assert np.abs(diff).max() <= 1e-10
        xf = np.tile(g.edges[0], (ny, 1))
        e_x, e_y = st.e_faces.planes
        assert np.abs(e_x - (-eps_x * (2.0 * xf - 1.0))).max() <= 1e-10
        assert np.abs(e_y).max() <= 1e-10
        assert st.charge_shift == pytest.approx(0.0, abs=1e-12)


def test_potential_has_zero_volume_weighted_mean():
    g = Grid(6, 3, 2.0, 1.0)
    p = PhysParams()
    rng = np.random.default_rng(5)
    st = solve_gauss(g, p, CellField(g, rng.normal(size=(3, 6))), CellField.zeros(g), BoundaryField(g))
    assert abs(st.phi.values.sum() * g.cell_volume) <= 1e-12


def test_incompatible_charge_absorbed_by_recorded_shift():
    g = Grid(4, 4, 1.0, 1.0)
    p = PhysParams()
    st = solve_gauss(g, p, CellField.zeros(g), CellField.full(g, 1.0), BoundaryField(g))
    assert st.charge_shift == pytest.approx(1.0)
    assert np.abs(st.phi.values).max() <= 1e-12
    assert np.abs(st.e_faces.planes[0]).max() <= 1e-12
    assert gauss_residual(g, st, CellField.zeros(g), CellField.full(g, 1.0)) <= 1e-12


def test_boundary_faces_carry_outward_sigma():
    g = Grid(3, 2, 1.0, 1.0)
    p = PhysParams()
    sigma = BoundaryField(g, left=0.3, right=-0.1, bottom=0.2, top=-0.4)
    # make the data compatible so no shift interferes with the stamp check
    total = sigma.boundary_integral() / g.total_volume
    st = solve_gauss(g, p, CellField.zeros(g), CellField.full(g, total), sigma)
    assert st.charge_shift == pytest.approx(0.0, abs=1e-12)
    e_x, e_y = st.e_faces.planes
    assert np.allclose(e_x[:, 0], -0.3)
    assert np.allclose(e_x[:, -1], -0.1)
    assert np.allclose(e_y[0, :], -0.2)
    assert np.allclose(e_y[-1, :], -0.4)


def test_divergence_residual_below_threshold_random_data():
    """The residual monitor threshold 10 * SOLVE_TOL * scale holds for any data."""
    rng = np.random.default_rng(17)
    p = PhysParams(eps_s=1.5, D=(0.8, 1.7))
    for _ in range(15):
        nx, ny = (int(v) for v in rng.integers(2, 12, size=2))
        g = Grid(nx, ny, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        rho_f = CellField(g, rng.normal(size=(ny, nx)))
        rho_b = CellField(g, rng.normal(size=(ny, nx)))
        sigma = BoundaryField(
            g,
            left=rng.normal(size=ny),
            right=rng.normal(size=ny),
            bottom=rng.normal(size=nx),
            top=rng.normal(size=nx),
        )
        st = solve_gauss(g, p, rho_f, rho_b, sigma)
        assert gauss_residual(g, st, rho_f, rho_b) <= 10.0 * SOLVE_TOL * max(st.charge_scale, 1e-3)


def test_gauss_and_darcy_match_dense_pseudo_inverse(monkeypatch):
    """Both elliptic layers solve their system as the dense pseudo-inverse does.

    The systems are caught at the one solve_spd call both layers share, in
    gauss.solve_neumann, on thin, single-cell and anisotropic grids with
    lx = 2, ly = 0.5, eps = (0.7, 1.9) and K = (0.3, 2.0).  On the 1x1 grid
    the projected right side is zero, so the solve short-circuits with 0
    iterations.
    """
    seen = []

    def spy(A, b, tol, basis):
        x, report = solve_spd(A, b, tol, basis)
        seen.append((A, b, report))
        return x, report

    monkeypatch.setattr(gauss, "solve_spd", spy)
    p = PhysParams(eps_s=1.0, D=(0.7, 1.9), K=(0.3, 2.0), mu=1.0)
    rng = np.random.default_rng(29)
    for nx, ny in [(1, 1), (1, 5), (5, 1), (7, 3)]:
        g = Grid(nx, ny, 2.0, 0.5)
        rho_f = CellField(g, rng.normal(size=(ny, nx)))
        sigma = BoundaryField(g, left=rng.normal(size=ny), top=rng.normal(size=nx))
        f = BoundaryField(g, left=-0.4, right=0.4, bottom=0.3, top=-0.3)
        electro = solve_gauss(g, p, rho_f, CellField.zeros(g), sigma)
        flow = darcy.solve_darcy(g, p, rho_f, electro.e_faces, f)
        for values in (electro.phi.values, flow.p.values):
            A, b, report = seen.pop(0)
            expected = np.linalg.pinv(to_dense(A)) @ b
            assert np.abs(values.ravel() - expected).max() <= 1e-10 * np.abs(expected).max()
            assert report.iterations == (1 if g.n_cells > 1 else 0)
            assert abs(values.sum() * g.cell_volume) <= 1e-13
    assert not seen
