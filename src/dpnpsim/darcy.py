"""Darcy flow with an electric body force, in mixed form.

    q = (K / mu) (-grad p + eps^{-1} rho_f E),   div q = 0,   q.nu = f.

The body force is evaluated on faces: rho_f is averaged from the two
neighboring cells and E is already a face field; the dielectric entry for the
face direction divides it.  Pressure is gauged to zero volume-weighted mean.
Boundary data f must balance (integral zero) -- incompatible data is an
error here, not something to repair, because a net in/outflow has no steady
incompressible solution.

As in the field equation, the reported velocity_scale = ||rhs||_2 / volume
turns the linear residual into a bound on ||div q||_inf.
"""

from dataclasses import dataclass

import numpy as np

from .gauss import SOLVE_TOL, fv_laplacian
from .linalg import SolveReport, solve_spd
from .mesh import CellField, FaceField

BALANCE_RTOL = 1e-10


class IncompatibleFlowData(ValueError):
    """Raised when the prescribed normal velocities do not balance."""


@dataclass
class FlowState:
    p: CellField
    q_faces: FaceField
    velocity_scale: float
    report: SolveReport


def _face_body_force(grid, params, rho_f, e_faces):
    """Face drift flux (m * eps^{-1} * rho_f * E) per direction, interior faces."""
    eps_x, eps_y = params.epsilon
    mx = params.K[0] / params.mu
    my = params.K[1] / params.mu
    r = rho_f.values
    rx = 0.5 * (r[:, 1:] + r[:, :-1])  # (ny, nx-1)
    ry = 0.5 * (r[1:, :] + r[:-1, :])  # (ny-1, nx)
    gx = mx * rx * e_faces.fx[:, 1:-1] / eps_x
    gy = my * ry * e_faces.fy[1:-1, :] / eps_y
    return gx, gy


def balanced(f_bc):
    """Whether the boundary flux f integrates to zero: to BALANCE_RTOL of max(integral |f|, 1)."""
    return abs(f_bc.boundary_integral()) <= BALANCE_RTOL * max(f_bc.abs_integral(), 1.0)


def solve_darcy(grid, params, rho_f, e_faces, f_bc):
    """Solve for (p, q) given the free charge, the electric field, and q.nu = f."""
    if not balanced(f_bc):
        raise IncompatibleFlowData(
            "Darcy boundary data must balance: boundary integral of f is %.3e" % f_bc.boundary_integral()
        )

    mx = params.K[0] / params.mu
    my = params.K[1] / params.mu
    vol = grid.cell_volume
    gx, gy = _face_body_force(grid, params, rho_f, e_faces)

    b2 = np.zeros((grid.ny, grid.nx))
    # drift flux through interior faces: +into the left/bottom row, -into right/top
    b2[:, :-1] -= gx * grid.hy
    b2[:, 1:] += gx * grid.hy
    b2[:-1, :] -= gy * grid.hx
    b2[1:, :] += gy * grid.hx
    f_bc.add_to_cells(b2, -1.0)  # prescribed boundary outflow
    b = b2.ravel()
    velocity_scale = float(np.linalg.norm(b)) / vol

    x, report = solve_spd(fv_laplacian(grid, mx, my), b - b.mean(), tol=SOLVE_TOL)  # the zero-mean solution
    p = CellField(grid, x)

    q = FaceField.zeros(grid)
    pv = p.values
    q.fx[:, 1:-1] = mx * (-(pv[:, 1:] - pv[:, :-1]) / grid.hx) + gx
    q.fy[1:-1, :] = my * (-(pv[1:, :] - pv[:-1, :]) / grid.hy) + gy
    q.set_boundary_outward(f_bc)

    return FlowState(p, q, velocity_scale, report)
