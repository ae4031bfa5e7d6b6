"""Darcy flow with an electric body force, in mixed form.

    q = (K / mu) (-grad p + eps^{-1} rho_f E),   div q = 0,   q.nu = f.

The body force is evaluated on faces: rho_f is averaged from the two
neighboring cells and E is already a face field; the dielectric entry for the
face direction divides it.  Pressure is gauged to zero volume-weighted mean.
Boundary data f must balance (integral zero) -- incompatible data is an
error here, not something to repair, because a net in/outflow has no steady
incompressible solution.  The balance is judged once per boundary field,
not on every solve: a march passes the same f to every sweep of a step.

As in the field equation, the reported velocity_scale = ||rhs||_2 / volume
turns the linear residual into a bound on ||div q||_inf.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .gauss import SOLVE_TOL, fv_laplacian
from .linalg import norm, solve_spd
from .mesh import CellField, FaceField

BALANCE_RTOL = 1e-10


class IncompatibleFlowData(ValueError):
    """Raised when the prescribed normal velocities do not balance."""


@dataclass
class FlowState:
    p: CellField
    q_faces: FaceField
    velocity_scale: float


def imbalance(f_bc):
    """The boundary integral of f where |integral f| > BALANCE_RTOL max(integral |f|, 1), else 0.0.

    Both integrals are taken of f / s, s = max(max |f|, 1), so neither overflows; the net times s may be inf.
    """
    scale = max(f_bc.max_abs(), 1.0)
    unit = f_bc.scaled(1.0 / scale)
    net = unit.boundary_integral()
    return 0.0 if abs(net) <= BALANCE_RTOL * max(unit.abs_integral(), 1.0 / scale) else net * scale


@functools.lru_cache(maxsize=4)
def _checked_imbalance(f_bc):
    """imbalance(f_bc), memoized: boundary fields hash by identity and their sides are read-only."""
    return imbalance(f_bc)


def solve_darcy(grid, params, rho_f, e_faces, f_bc):
    """Solve for (p, q) given the free charge, the electric field, and q.nu = f."""
    if net := _checked_imbalance(f_bc):
        raise IncompatibleFlowData("Darcy boundary data must balance: boundary integral of f is %.3e" % net)

    m = tuple(k / params.mu for k in params.K)
    vol = grid.cell_volume
    r = rho_f.values
    lower, upper, interior = slice(None, -1), slice(1, None), slice(1, -1)

    drift = []  # m rho_f E / eps on the interior faces normal to each axis, rho_f averaged from the two cells
    b2 = np.zeros(grid.shape)
    for a, eps in enumerate(params.epsilon):
        r_face = 0.5 * (r[grid.along(a, upper)] + r[grid.along(a, lower)])
        drift.append(m[a] * r_face * e_faces.planes[a][grid.along(a, interior)] / eps)
        # its flux through the face: subtracted in the cell below along the axis, added above
        b2[grid.along(a, lower)] -= drift[a] * grid.face_area[a]
        b2[grid.along(a, upper)] += drift[a] * grid.face_area[a]
    f_bc.add_to_cells(b2, -1.0)  # prescribed boundary outflow
    b = b2.ravel()
    velocity_scale = norm(b) / vol

    A, basis = fv_laplacian(grid, m)
    x, _ = solve_spd(A, b - b.mean(), SOLVE_TOL, basis)  # the zero-mean solution
    p = CellField(grid, x)

    q = FaceField.zeros(grid)
    for a, plane in enumerate(q.planes):
        plane[grid.along(a, interior)] = m[a] * (-grid.diff(p.values, a) / grid.h[a]) + drift[a]
    q.set_boundary_outward(f_bc)

    return FlowState(p, q, velocity_scale)
