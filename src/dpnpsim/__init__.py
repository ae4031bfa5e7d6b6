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
assembled in the bounds module.  Imported before numpy, the package runs
OpenBLAS on one thread unless OPENBLAS/GOTO/OMP_NUM_THREADS sets a count.
"""

import os
import sys

# On the grids served (<= 128^2 cells) a second OpenBLAS thread only slows numpy's import and spins after calls.
_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")  # OpenBLAS's lookup order
if "numpy" not in sys.modules and not any(os.environ.get(v) for v in _THREAD_VARIABLES):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# not mms, which run and check never call: dpnpsim.cli and `import dpnpsim.mms` load it
from . import bounds, config, darcy, gauss, gummel, linalg, mesh, monitors, runner, schedule, transport  # noqa: E402

__version__ = "0.1.0"
