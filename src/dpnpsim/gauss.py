"""Gauss law in mixed form: div(E) = rho_f + rho_b with E = -eps grad(phi).

The dielectric tensor is eps_s * D.  Pure Neumann data E.nu = sigma is the
only supported boundary condition, so phi is determined up to a constant and
is gauged to zero volume-weighted mean.  Data that violates the compatibility
condition (total charge equal to the boundary flux of sigma) is repaired by
subtracting a uniform shift from the background charge; the shift is recorded
on the returned state so monitors can check the divergence identity against
the background that was actually used.

Two-point fluxes on the uniform grid make the cell equations

    sum over faces of E.nu * face_length = (rho_f + rho_b) * cell_volume

an SPD system whose residual translates directly into the divergence defect:
||div E - rho_total||_inf <= ||residual||_2 / cell_volume, which is what the
reported charge_scale = ||rhs||_2 / cell_volume is for.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import SolveReport, SparseMatrix, project_zero_mean, solve_spd
from .mesh import CellField, FaceField, cell_divergence

DEFAULT_TOL = 1e-12


@functools.lru_cache(maxsize=8)
def fv_laplacian(grid, coef_x, coef_y):
    """SPD matrix of the two-point flux operator with zero-flux boundaries.

    Row c holds sum_faces t_f (phi_c - phi_nbr) with transmissibilities
    t = coef * face_length / distance; boundary faces contribute nothing
    (their fluxes are data and live on the right side).

    Memoized on (grid, coef_x, coef_y), so every Gauss and Darcy solve of a
    run reuses one matrix: grids hash by identity and are never mutated after
    construction, so a key cannot go stale, and the shared matrix's data,
    indices and indptr are read-only, so no caller can corrupt a later solve.
    """
    nx, ny = grid.nx, grid.ny
    n = grid.n_cells
    idx = np.arange(n).reshape(ny, nx)
    tx = coef_x * grid.hy / grid.hx
    ty = coef_y * grid.hx / grid.hy

    rows, cols, vals = [], [], []

    def add(a, b, t):
        k = a.size
        rows.extend((a, a, b, b))
        cols.extend((a, b, b, a))
        tt = np.full(k, t)
        vals.extend((tt, -tt, tt, -tt))

    if nx > 1:
        add(idx[:, :-1].ravel(), idx[:, 1:].ravel(), tx)
    if ny > 1:
        add(idx[:-1, :].ravel(), idx[1:, :].ravel(), ty)
    if not rows:
        # single cell: the pure-Neumann operator is identically zero
        rows, cols, vals = [np.array([0])], [np.array([0])], [np.array([0.0])]
    A = SparseMatrix.from_coo(n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))
    for a in (A.data, A.indices, A.indptr):
        a.flags.writeable = False
    return A


@dataclass
class ElectroState:
    """Converged potential and face field, plus solve metadata.

    charge_shift is the uniform density subtracted from rho_b to make the
    data compatible; charge_scale * lin_tol bounds the divergence defect of
    e_faces against the (shifted) charge density.
    """

    phi: CellField
    e_faces: FaceField
    charge_shift: float
    charge_scale: float
    lin_tol: float
    report: SolveReport


def solve_gauss(grid, params, rho_f, rho_b, sigma, tol=DEFAULT_TOL):
    """Solve the field equation for (phi, E) given charges and boundary flux sigma."""
    eps_x, eps_y = params.epsilon
    vol = grid.cell_volume

    rho_tot = rho_f.values + rho_b.values
    total_charge = rho_tot.sum() * vol
    boundary_flux = sigma.boundary_integral()
    shift = (total_charge - boundary_flux) / grid.total_volume
    rho_used = rho_tot - shift

    b2 = rho_used * vol
    b2 = b2.copy()
    b2[:, 0] -= sigma.left * grid.hy
    b2[:, -1] -= sigma.right * grid.hy
    b2[0, :] -= sigma.bottom * grid.hx
    b2[-1, :] -= sigma.top * grid.hx
    b = b2.ravel()
    charge_scale = float(np.linalg.norm(b)) / vol

    A = fv_laplacian(grid, eps_x, eps_y)
    b_proj = b - b.mean()  # range of the singular SPD operator = zero-sum vectors
    x, report = solve_spd(A, b_proj, tol=tol)
    phi_vals = project_zero_mean(x, np.full(x.shape, vol))
    phi = CellField(grid, phi_vals)

    e = FaceField.zeros(grid)
    p2 = phi.values
    e.fx[:, 1:-1] = -eps_x * (p2[:, 1:] - p2[:, :-1]) / grid.hx
    e.fy[1:-1, :] = -eps_y * (p2[1:, :] - p2[:-1, :]) / grid.hy
    e.set_boundary_outward(sigma)

    return ElectroState(phi, e, float(shift), charge_scale, tol, report)


def gauss_residual(grid, electro, rho_f, rho_b):
    """Sup norm of div(E) - (rho_f + rho_b - charge_shift)."""
    div = cell_divergence(grid, electro.e_faces).values
    rho = rho_f.values + rho_b.values - electro.charge_shift
    return float(np.abs(div - rho).max())
