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
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-5
    xs = x[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0
    xb = x[~small]
    with np.errstate(over="ignore"):
        out[~small] = np.where(xb > 709.0, 0.0, xb / np.expm1(np.minimum(xb, 709.0)))
    if np.ndim(x) == 0:
        return float(out)
    return out


class TransportResult(NamedTuple):
    """Raw step output: new concentrations and the applied reaction rates, one per species."""

    conc: Concentrations
    rates: tuple


def _species_system(grid, params, c_prev_vals, u_planes, g, dt, k_rate, production, source):
    """Assemble the implicit SG system for one species; returns (matrix, rhs, cosine basis of its drift-free part).

    u_planes[a] is the species' drift velocity on the faces normal to axis a.
    """
    vol = grid.cell_volume
    theta = params.theta
    t = grid.transmissibility(params.D)
    shift = theta * vol / dt + theta * vol * k_rate

    # the Peclet numbers of the interior faces normal to each axis
    P = [u[grid.along(a, slice(1, -1))] * h / D for a, (u, h, D) in enumerate(zip(u_planes, grid.h, params.D))]
    A = two_point_matrix(grid, shift, [(ta * bernoulli(-Pa), ta * bernoulli(Pa)) for ta, Pa in zip(t, P)])

    rhs = theta * vol / dt * c_prev_vals + theta * vol * production
    if source is not None:
        rhs = rhs + np.asarray(source, dtype=float) * vol
    g.add_to_cells(rhs)
    return A, rhs.ravel(), cosine_basis(grid, t, shift)


def step_transport(grid, params, c_prev, q_faces, e_faces, g, dt, c_lag=None, sources=None):
    """One implicit Euler step for both species with frozen drift fields.

    g is the pair of inflow boundary fields; c_lag supplies the
    opposite-species concentrations for the reaction production terms
    (defaults to c_prev); sources optionally adds manufactured volumetric
    rates (s1, s2) to the right sides.  Each species system is solved to the
    relative residual SOLVE_TOL.
    """
    if c_lag is None:
        c_lag = c_prev
    k_rate = params.exchange_rate
    kappa = params.kappa
    lagged = [np.maximum(c.values, 0.0) for c in reversed(c_lag)]  # the opposite species, clamped

    new = []
    for prev, g_l, z, lag, src in zip(c_prev, g, params.z, lagged, sources or (None, None)):
        u_planes = [q + kappa * z * e for q, e in zip(q_faces.planes, e_faces.planes)]
        A, rhs, basis = _species_system(grid, params, prev.values, u_planes, g_l, dt, k_rate, k_rate * lag, src)
        x, _ = solve_nonsym(A, rhs, SOLVE_TOL, basis)
        new.append(CellField(grid, x))

    rates = tuple(k_rate * (lag - c.values) for lag, c in zip(lagged, new))
    return TransportResult(Concentrations(*new), rates)
