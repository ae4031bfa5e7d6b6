"""Darcy flow with an electric body force, in mixed form.

    q = (K / mu) (-grad p + eps^{-1} rho_f E),   div q = 0,   q.nu = f.

The body force is evaluated on faces: rho_f is averaged from the two
neighboring cells and E is already a face field; the dielectric entry for the
face direction divides it.  Pressure is gauged to zero volume-weighted mean.
Boundary data f must balance (integral zero) -- incompatible data is an
error here, not something to repair, because a net in/outflow has no steady
incompressible solution.  The balance is judged once per boundary field,
not on every solve: a march passes the same f to every sweep of a step.
The solve itself is gauss.solve_neumann with the body force as face drift;
its scale, velocity_scale, turns the linear residual into a bound on
||div q||_inf.
"""

import functools
from dataclasses import dataclass

import numpy as np

# fv_laplacian and solve_spd are not called here but stay bound: the benchmark's tracer reads darcy.__dict__[name]
# for both, and its patches feed the same counters as those of the gauss globals that solve_neumann calls.
from .gauss import fv_laplacian, solve_neumann
from .linalg import solve_spd
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


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by two_point_matrix or the solve
def solve_darcy(grid, params, rho_f, e_faces, f_bc):
    """Solve for (p, q) given the free charge, the electric field, and q.nu = f."""
    if net := _checked_imbalance(f_bc):
        raise IncompatibleFlowData("Darcy boundary data must balance: boundary integral of f is %.3e" % net)

    m = tuple(k / params.mu for k in params.K)
    r = rho_f.values
    lower, upper, interior = slice(None, -1), slice(1, None), slice(1, -1)
    drift = []  # m rho_f E / eps on the interior faces normal to each axis, rho_f averaged from the two cells
    for a, eps in enumerate(params.epsilon):
        r_face = 0.5 * (r[grid.along(a, upper)] + r[grid.along(a, lower)])
        drift.append(m[a] * r_face * e_faces.planes[a][grid.along(a, interior)] / eps)
    p, q, velocity_scale = solve_neumann(grid, m, np.zeros(grid.shape), f_bc, drift)
    return FlowState(p, q, velocity_scale)
