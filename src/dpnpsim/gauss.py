"""Gauss law in mixed form: div(E) = rho_f + rho_b with E = -eps grad(phi).

The dielectric tensor is eps_s * D.  Pure Neumann data E.nu = sigma is the
only supported boundary condition, so phi is determined up to a constant and
is gauged to zero volume-weighted mean.  Data that violates the compatibility
condition (total charge equal to the boundary flux of sigma) is repaired by
subtracting a uniform shift from the background charge; the shift is recorded
on the returned state so monitors can check the divergence identity against
the background that was actually used.

Two-point fluxes on the uniform grid make the cell equations

    sum over faces of E.nu * face_area = (rho_f + rho_b) * cell_volume

a singular symmetric system whose residual translates directly into the
divergence defect: ||div E - rho_total||_inf <= ||residual||_2 / cell_volume,
which is what the reported charge_scale = ||rhs||_2 / cell_volume is for.
Its matrix, fv_laplacian, is solved exactly in its cosine eigenbasis.
"""

import functools
from dataclasses import dataclass

from .linalg import cosine_basis, norm, solve_spd, two_point_matrix
from .mesh import CellField, FaceField

SOLVE_TOL = 1e-12  # relative residual target of every Gauss and Darcy solve


@functools.lru_cache(maxsize=8)
def fv_laplacian(grid, coef):
    """(A, basis): the symmetric matrix of the two-point flux operator with zero-flux boundaries, and its eigenbasis.

    Row c of A holds sum_faces t_f (phi_c - phi_nbr) with t_f =
    grid.transmissibility(coef)[a] on the faces normal to axis a; boundary
    faces contribute nothing (their fluxes are data on the right side).
    basis = linalg.cosine_basis(grid, t, 0.0) diagonalizes A.

    Memoized on (grid, coef), so every Gauss and Darcy solve of a run reuses
    one matrix and eigenbasis: grids hash by identity and are never mutated
    after construction, so a key cannot go stale, and the shared arrays are
    read-only, so no caller can corrupt a later solve.
    """
    t = grid.transmissibility(coef)
    A = two_point_matrix(grid, 0.0, tuple((ta, ta) for ta in t))
    A.diagonals.flags.writeable = False
    return A, cosine_basis(grid, t, 0.0)


@dataclass
class ElectroState:
    """Converged potential and face field, plus solve metadata.

    charge_shift is the uniform density subtracted from rho_b to make the
    data compatible; charge_scale * SOLVE_TOL bounds the divergence defect of
    e_faces against the (shifted) charge density.
    """

    phi: CellField
    e_faces: FaceField
    charge_shift: float
    charge_scale: float


def solve_gauss(grid, params, rho_f, rho_b, sigma):
    """Solve the field equation for (phi, E) given charges and boundary flux sigma."""
    eps = params.epsilon
    vol = grid.cell_volume

    rho_tot = rho_f.values + rho_b.values
    total_charge = rho_tot.sum() * vol
    boundary_flux = sigma.boundary_integral()
    shift = (total_charge - boundary_flux) / grid.total_volume
    rho_used = rho_tot - shift

    b2 = rho_used * vol
    sigma.add_to_cells(b2, -1.0)
    b = b2.ravel()
    charge_scale = norm(b) / vol

    # the operator's range is the zero-sum vectors; x is the zero-mean solution
    A, basis = fv_laplacian(grid, eps)
    x, _ = solve_spd(A, b - b.mean(), SOLVE_TOL, basis)
    phi = CellField(grid, x)

    e = FaceField.zeros(grid)
    for a, plane in enumerate(e.planes):
        plane[grid.along(a, slice(1, -1))] = -eps[a] * grid.diff(phi.values, a) / grid.h[a]
    e.set_boundary_outward(sigma)

    return ElectroState(phi, e, float(shift), charge_scale)
