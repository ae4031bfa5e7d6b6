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

from dpnpsim.gauss import fv_laplacian, gauss_residual, solve_gauss
from dpnpsim.linalg import project_zero_mean
from dpnpsim.mesh import BoundaryField, CellField, build_grid
from dpnpsim.params import PhysParams


def test_two_cell_assembly_by_hand():
    g = build_grid(2, 1, 2.0, 1.0)  # hx = hy = 1
    A = fv_laplacian(g, 1.0, 1.0)
    assert np.allclose(A.toarray(), [[1.0, -1.0], [-1.0, 1.0]])
    # anisotropy scales the x-coupling only
    A2 = fv_laplacian(g, 2.0, 5.0)
    assert np.allclose(A2.toarray(), [[2.0, -2.0], [-2.0, 2.0]])


def test_single_cell_assembly_is_zero():
    g = build_grid(1, 1, 1.0, 1.0)
    A = fv_laplacian(g, 1.0, 1.0)
    assert A.shape == (1, 1)
    assert np.array_equal(A.toarray(), [[0.0]])


def test_assembly_is_memoized_and_read_only():
    g = build_grid(3, 2, 1.0, 1.0)
    A = fv_laplacian(g, 0.7, 1.3)
    assert fv_laplacian(g, 0.7, 1.3) is A
    assert fv_laplacian(build_grid(3, 2, 1.0, 1.0), 0.7, 1.3) is not A  # keyed on the grid instance
    for arr in (A.data, A.indices, A.indptr):
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_assembly_rows_sum_to_zero_and_symmetric():
    g = build_grid(5, 4, 1.5, 1.0)
    A = fv_laplacian(g, 0.7, 1.3).toarray()
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
        g = build_grid(nx, ny, 1.0, 1.0)
        X, _ = g.cell_centers()
        st = solve_gauss(
            g,
            p,
            CellField.zeros(g),
            CellField.full(g, -2.0 * eps_x),
            BoundaryField(g, left=-eps_x, right=-eps_x),
            tol=1e-13,
        )
        w = np.full((g.ny, g.nx), g.cell_volume)
        exact = X**2 - X + 1.0 / 6.0
        diff = project_zero_mean(st.phi.values, w) - project_zero_mean(exact, w)
        assert np.abs(diff).max() <= 1e-10
        xf = np.tile(g.xf, (g.ny, 1))
        assert np.abs(st.e_faces.fx - (-eps_x * (2.0 * xf - 1.0))).max() <= 1e-10
        assert np.abs(st.e_faces.fy).max() <= 1e-10
        assert st.charge_shift == pytest.approx(0.0, abs=1e-12)


def test_potential_has_zero_volume_weighted_mean():
    g = build_grid(6, 3, 2.0, 1.0)
    p = PhysParams()
    rng = np.random.default_rng(5)
    st = solve_gauss(g, p, CellField(g, rng.normal(size=(3, 6))), CellField.zeros(g), BoundaryField.zeros(g))
    assert abs(st.phi.values.sum() * g.cell_volume) <= 1e-12


def test_incompatible_charge_absorbed_by_recorded_shift():
    g = build_grid(4, 4, 1.0, 1.0)
    p = PhysParams()
    st = solve_gauss(g, p, CellField.zeros(g), CellField.full(g, 1.0), BoundaryField.zeros(g))
    assert st.charge_shift == pytest.approx(1.0)
    assert np.abs(st.phi.values).max() <= 1e-12
    assert np.abs(st.e_faces.fx).max() <= 1e-12
    assert gauss_residual(g, st, CellField.zeros(g), CellField.full(g, 1.0)) <= 1e-12


def test_boundary_faces_carry_outward_sigma():
    g = build_grid(3, 2, 1.0, 1.0)
    p = PhysParams()
    sigma = BoundaryField(g, left=0.3, right=-0.1, bottom=0.2, top=-0.4)
    # make the data compatible so no shift interferes with the stamp check
    total = sigma.boundary_integral() / g.total_volume
    st = solve_gauss(g, p, CellField.zeros(g), CellField.full(g, total), sigma)
    assert st.charge_shift == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(st.e_faces.fx[:, 0], -0.3)
    assert np.allclose(st.e_faces.fx[:, -1], -0.1)
    assert np.allclose(st.e_faces.fy[0, :], -0.2)
    assert np.allclose(st.e_faces.fy[-1, :], -0.4)


def test_divergence_residual_below_threshold_random_data():
    """The residual monitor threshold 10 * tol * scale holds for any data."""
    rng = np.random.default_rng(17)
    p = PhysParams(eps_s=1.5, D=(0.8, 1.7))
    tol = 1e-12
    for _ in range(15):
        nx, ny = (int(v) for v in rng.integers(2, 12, size=2))
        g = build_grid(nx, ny, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        rho_f = CellField(g, rng.normal(size=(ny, nx)))
        rho_b = CellField(g, rng.normal(size=(ny, nx)))
        sigma = BoundaryField(
            g,
            left=rng.normal(size=ny),
            right=rng.normal(size=ny),
            bottom=rng.normal(size=nx),
            top=rng.normal(size=nx),
        )
        st = solve_gauss(g, p, rho_f, rho_b, sigma, tol=tol)
        assert gauss_residual(g, st, rho_f, rho_b) <= 10.0 * tol * max(st.charge_scale, 1e-3)
