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

The exchange reaction r_1 = rate (c_2+ - c_1+), r_2 = -r_1 is linearized to
preserve that structure: the production term uses the lagged opposite
species, clamped at zero, explicitly on the right side; the consumption term
sits implicitly on the diagonal.  At any nonnegative fixed point the pair
coincides with reaction_rates.  The rates actually applied are returned so
the discrete mass balance can be checked exactly.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import solve_nonsym, two_point_matrix
from .mesh import CellField

DEFAULT_TOL = 1e-14


@dataclass(frozen=True)
class Concentrations:
    """One concentration field per species."""

    c1: CellField
    c2: CellField

    def species(self):
        return (self.c1, self.c2)

    def min(self):
        return float(min(self.c1.values.min(), self.c2.values.min()))


def free_charge(params, conc):
    """Free charge density rho_f = theta (z1 c1 + z2 c2)."""
    grid = conc.c1.grid
    vals = params.theta * (params.z1 * conc.c1.values + params.z2 * conc.c2.values)
    return CellField(grid, vals)


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


def sg_flux(d_face, h, u_face, c_left, c_right):
    """Scharfetter-Gummel flux density through a face, oriented left-to-right."""
    P = np.asarray(u_face, dtype=float) * h / d_face
    return (d_face / h) * (bernoulli(-P) * c_left - bernoulli(P) * c_right)


def reaction_rates(spec, c1, c2):
    """Exchange rates r1 = rate (c2+ - c1+), r2 = -r1 (zeros for kind 'none')."""
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if spec.kind == "none":
        r1 = np.zeros(np.broadcast(c1, c2).shape)
    else:
        r1 = spec.rate * (np.maximum(c2, 0.0) - np.maximum(c1, 0.0))
    return r1, -r1


@dataclass
class TransportResult:
    """Raw step output: new concentrations, applied reaction rates, solve reports."""

    conc: Concentrations
    r1: np.ndarray
    r2: np.ndarray
    reports: tuple


def _species_system(grid, params, c_prev_vals, ufx, ufy, g, dt, k_rate, production, source):
    """Assemble the implicit SG system for one species; returns (matrix, rhs)."""
    dx, dy = params.D
    hx, hy = grid.hx, grid.hy
    vol = grid.cell_volume
    theta = params.theta

    Px = ufx[:, 1:-1] * hx / dx
    Py = ufy[1:-1, :] * hy / dy
    A = two_point_matrix(
        grid,
        theta * vol / dt + theta * vol * k_rate,
        ((dx / hx) * hy * bernoulli(-Px), (dx / hx) * hy * bernoulli(Px)),
        ((dy / hy) * hx * bernoulli(-Py), (dy / hy) * hx * bernoulli(Py)),
    )

    rhs = theta * vol / dt * c_prev_vals + theta * vol * production
    if source is not None:
        rhs = rhs + np.asarray(source, dtype=float) * vol
    rhs = rhs.copy()
    rhs[:, 0] += g.left * hy
    rhs[:, -1] += g.right * hy
    rhs[0, :] += g.bottom * hx
    rhs[-1, :] += g.top * hx
    return A, rhs.ravel()


def step_transport(grid, params, c_prev, q_faces, e_faces, g1, g2, dt, c_lag=None, sources=None, tol=DEFAULT_TOL):
    """One implicit Euler step for both species with frozen drift fields.

    c_lag supplies the opposite-species concentrations for the reaction
    production terms (defaults to c_prev); sources optionally adds
    manufactured volumetric rates (s1, s2) to the right sides.
    """
    if c_lag is None:
        c_lag = c_prev
    k_rate = params.reaction.lipschitz
    kappa = params.kappa
    lagged = (c_lag.c2.values, c_lag.c1.values)
    gs = (g1, g2)
    zs = (params.z1, params.z2)
    prev = (c_prev.c1.values, c_prev.c2.values)

    new = []
    reports = []
    for l in (0, 1):
        ufx = q_faces.fx + kappa * zs[l] * e_faces.fx
        ufy = q_faces.fy + kappa * zs[l] * e_faces.fy
        production = k_rate * np.maximum(lagged[l], 0.0)
        src = None if sources is None else sources[l]
        A, rhs = _species_system(grid, params, prev[l], ufx, ufy, gs[l], dt, k_rate, production, src)
        x, rep = solve_nonsym(A, rhs, tol=tol)
        new.append(CellField(grid, x))
        reports.append(rep)

    r1 = k_rate * (np.maximum(c_lag.c2.values, 0.0) - new[0].values)
    r2 = k_rate * (np.maximum(c_lag.c1.values, 0.0) - new[1].values)
    return TransportResult(Concentrations(new[0], new[1]), r1, r2, tuple(reports))
