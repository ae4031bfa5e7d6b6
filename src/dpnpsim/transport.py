"""Implicit Euler transport step with Scharfetter-Gummel face fluxes.

Each species satisfies

    theta dc/dt - div(D grad c) + div(c u_l) = theta R_l,
    u_l = q + kappa z_l E,
    (D grad c - c u_l) . nu = g_l   (g_l is an inflow density),

discretized with exponential-fitting fluxes: through a face with Peclet
number P = u h / D the flux is (D/h) (B(-P) c_L - B(P) c_R) with
B(x) = x / (e^x - 1).  Off-diagonal entries are -B(.) <= 0 and the flux
columns telescope, so the step matrix is an M-matrix for *any* drift field
and nonnegative data produce nonnegative concentrations up to solver noise.

The exchange reaction r_1 = k (c_2+ - c_1+), r_2 = -r_1, whose rate
k = params.exchange_rate (0 without reaction) is also its Lipschitz constant,
is linearized to preserve that structure: the production term uses the
lagged opposite species, clamped at zero, explicitly on the right side; the
consumption term sits implicitly on the diagonal.  At any nonnegative fixed point the pair
coincides with the exchange rates r_1, r_2.  The rates actually applied are
returned so the discrete mass balance can be checked exactly.

Every per-species quantity is a pair indexed by species, 0 = c1 and 1 = c2:
the concentrations, the inflows g, the valencies params.z, the sources and
the applied rates.

The two species' systems differ only in the valence of the drift, so they
share their drift-free part, diffusion plus the 1/dt and reaction shift,
and its cosine basis.  On grids of at most STACK_CELLS cells they are
assembled as one block-diagonal system and solved in one BiCGStab call,
started from the lagged concentrations; each species still meets its own
target SOLVE_TOL ||b_l||.  Larger grids solve one species at a time (see
STACK_CELLS).
"""

from typing import NamedTuple

import numpy as np

from .linalg import cosine_basis, solve_nonsym, two_point_matrix
from .mesh import CellField

SOLVE_TOL = 1e-14  # relative residual target of every transport solve


class Concentrations(NamedTuple):
    """One concentration field per species, indexed by species (conc[0] is c1)."""

    c1: CellField
    c2: CellField


def free_charge(params, conc):
    """Free charge density rho_f = theta (z1 c1 + z2 c2)."""
    c1, c2 = conc
    return CellField(c1.grid, params.theta * (params.z1 * c1.values + params.z2 * c2.values))


def bernoulli(x):
    """B(x) = x / (e^x - 1), the exponential-fitting weight, elementwise.

    Stable for all float inputs: series near zero, exact limits B(0) = 1,
    B(x) -> 0 for large positive x, B(x) -> -x for large negative x.
    """
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.minimum(x, 709.0)
    np.expm1(out, out=out)
    with np.errstate(invalid="ignore"):  # 0 / 0 at x = 0, which the series replaces
        np.divide(x, out, out=out)
    out[x > 709.0] = 0.0
    small = np.abs(x) < 1e-5
    xs = x[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0
    return float(out[0]) if scalar else out


class TransportResult(NamedTuple):
    """Raw step output: new concentrations and the applied reaction rates, one per species."""

    conc: Concentrations
    rates: tuple


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused by two_point_matrix or the solve
def _species_system(grid, params, z, c_prev, q_faces, e_faces, g, dt, production, sources):
    """Assemble the implicit SG systems of k species as one block-diagonal system: (matrix, (k, n) rhs, basis).

    z, g and the cell planes c_prev, production and sources (or None) hold
    species l at index l, whose drift is u_l = q + kappa z_l E.  The
    blocks share their drift-free part, and basis is its cosine basis.
    """
    vol = grid.cell_volume
    theta = params.theta
    t = grid.transmissibility(params.D)
    shift = theta * vol / dt + theta * vol * params.exchange_rate
    kz = params.kappa * np.asarray(z, dtype=float)[:, None, None]

    weights = []  # per axis, the pair (t B(-P), t B(P)) stacked on a leading axis
    for a, (q, e, h, D, ta) in enumerate(zip(q_faces.planes, e_faces.planes, grid.h, params.D, t)):
        interior = grid.along(a, slice(1, -1))
        P = (q[interior] + kz * e[interior]) * h / D  # the Peclet numbers of the interior faces normal to a
        w = bernoulli(np.array((-P, P)))
        w *= ta
        weights.append(w)
    A = two_point_matrix(grid, shift, weights, blocks=len(z))

    rhs = theta * vol / dt * np.asarray(c_prev) + theta * vol * np.asarray(production)
    if sources is not None:
        rhs = rhs + np.asarray(sources, dtype=float) * vol
    for plane, g_l in zip(rhs, g):
        g_l.add_to_cells(plane)
    return A, rhs.reshape(len(z), -1), cosine_basis(grid, t, shift)


# The largest grid, in cells, on which both species are solved as one stacked system; larger grids
# solve one species at a time.  Stacking halves the solves and their per-call numpy overhead, but the
# stack doubles the solve's working set.  Stacked at every grid size, the 128^2 demo benchmark peaked at
# 48.3 against 44.7 MB resident (+8%, 3 interleaved pairs on a 2-CPU VM) and one 128^2 step at 5.77
# against 3.15 MB of tracemalloc allocations, with no slower run (0.38-0.45 s against 0.43-0.56 s).
STACK_CELLS = 64 * 64


def step_transport(grid, params, c_prev, q_faces, e_faces, g, dt, c_lag=None, sources=None):
    """One implicit Euler step for both species with frozen drift fields.

    g is the pair of inflow boundary fields; c_lag supplies the
    opposite-species concentrations for the reaction production terms
    (defaults to c_prev) and the start of the solve; sources optionally adds
    manufactured volumetric rates (s1, s2) to the right sides.  Each species
    system is solved to the relative residual SOLVE_TOL, both in one stacked
    solve on grids of at most STACK_CELLS cells.
    """
    if c_lag is None:
        c_lag = c_prev
    k_rate = params.exchange_rate
    lagged = [np.maximum(c.values, 0.0) for c in reversed(c_lag)]  # the opposite species, clamped

    new = []
    chunk = 2 if grid.n_cells <= STACK_CELLS else 1
    for lo in range(0, 2, chunk):
        ls = slice(lo, lo + chunk)
        A, rhs, basis = _species_system(
            grid, params, params.z[ls], [c.values for c in c_prev[ls]], q_faces, e_faces, g[ls], dt,
            [k_rate * lag for lag in lagged[ls]], None if sources is None else sources[ls],
        )
        x, _ = solve_nonsym(A, rhs, SOLVE_TOL, basis, [c.values for c in c_lag[ls]])
        del A, rhs  # before the next chunk's system is assembled
        new.extend(CellField(grid, x_l) for x_l in x)

    rates = tuple(k_rate * (lag - c.values) for lag, c in zip(lagged, new))
    return TransportResult(Concentrations(*new), rates)
