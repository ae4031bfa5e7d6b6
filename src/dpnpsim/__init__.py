"""Cell-centered finite-volume solver for a coupled Darcy-Poisson-Nernst-Planck system.

Two charged species are transported by diffusion, electromigration and a Darcy
flow through a two-dimensional rectangular porous domain.  The elliptic
subproblems (Gauss law for the scaled electric field, Darcy flow with an
electric body force) and the two parabolic transport equations are decoupled
by a Gummel-type fixed-point sweep inside each implicit Euler step.

Every a-priori estimate the scheme is designed around (non-negativity, the
sign condition of the charge nonlinearity, weighted L2 energy growth, L-inf
boundedness, discrete mass balance, divergence consistency of the recovered
fluxes) is evaluated at runtime by the monitors module against the constants
assembled in the bounds module.
"""

from . import bounds, config, darcy, gauss, gummel, linalg, mesh, mms, monitors, runner, schedule, transport
from .params import PhysParams

__all__ = [
    "PhysParams",
    "bounds",
    "config",
    "darcy",
    "gauss",
    "gummel",
    "linalg",
    "mesh",
    "mms",
    "monitors",
    "runner",
    "schedule",
    "transport",
]

__version__ = "0.1.0"
