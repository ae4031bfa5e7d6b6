"""Manufactured-solution verification for every subsystem and the coupled loop.

Five cases on the unit square:

  poisson         phi = x^2 - x + 1/6 with constant charge.  Two-point fluxes
                  are exact for quadratics on uniform grids, so the discrete
                  solution reproduces the exact one to solver precision.
  darcy           divergence-free trig velocity from a stream function with a
                  manufactured face body force; second-order in p and q.
  diffusion       c = cos(pi x) cos(pi y) e^{-t}, one implicit step with a
                  manufactured volume source; dt is scaled with h^2 so the
                  observed order reflects the spatial scheme.
  driftdiffusion  1D exponential steady profile with constant drift: the
                  exponential-fitting flux reproduces it exactly on every grid,
                  and the solve, started from c = 1, iterates to it.
  coupled         full Gummel step.  Extra sources may enter only the
                  transport equations, so the state is manufactured to be
                  electroneutral (rho_f = 0), the pressure harmonic, and the
                  potential quadratic: field and flow are then satisfied
                  without sources and the transport sources are closed-form.

Potentials and pressures are gauge fields (defined up to a constant); their
errors are computed after projecting both the discrete and the sampled exact
field to zero volume-weighted mean.  Cell errors are volume-weighted discrete
L2 norms; face errors use the same cell measure per face.

For the exactness cases the errors sit at the rounding floor, where "order"
is meaningless jitter; the order columns matter for darcy/diffusion/coupled.
"""

import math
from dataclasses import dataclass

import numpy as np

from .gummel import SweepSettings, gummel_step, initial_state
from .darcy import solve_darcy
from .gauss import solve_gauss
from .mesh import BoundaryField, CellField, FaceField, Grid
from .params import PhysParams
from .schedule import StepData
from .transport import Concentrations, step_transport


@dataclass
class ConvergenceTable:
    case: str
    grids: list  # (nx, ny) pairs
    hs: list
    errors: dict  # field -> list of errors, one per grid
    orders: dict  # field -> list of orders, one per refinement

    def fields(self):
        return list(self.errors)

    def text(self):
        cols = self.fields()
        head = "%-9s %-10s" % ("grid", "h")
        for f in cols:
            head += " %12s %7s" % (f + "_err", "order")
        lines = ["case: %s" % self.case, head]
        for k, ((nx, ny), h) in enumerate(zip(self.grids, self.hs)):
            row = "%-9s %-10.4g" % ("%dx%d" % (nx, ny), h)
            for f in cols:
                row += " %12.4e" % self.errors[f][k]
                if k > 0:
                    row += " %7.2f" % self.orders[f][k - 1]
                else:
                    row += " %7s" % "-"
            lines.append(row)
        return "\n".join(lines)

    def csv_rows(self):
        rows = [["case", "nx", "ny", "h", "field", "error", "order"]]
        for k, ((nx, ny), h) in enumerate(zip(self.grids, self.hs)):
            for f in self.fields():
                order = "" if k == 0 else repr(self.orders[f][k - 1])
                rows.append([self.case, str(nx), str(ny), repr(h), f, repr(self.errors[f][k]), order])
        return rows


def _l2_cells(grid, diff):
    return float(np.sqrt((diff * diff).sum() * grid.cell_volume))


def _species_errors(grid, conc, exact):
    """The L2 error of each species' concentration against its exact values, keyed by the field names c1, c2."""
    return {name: _l2_cells(grid, c.values - e) for name, c, e in zip(Concentrations._fields, conc, exact)}


def _l2_faces(grid, diffs):
    return float(np.sqrt(sum((d * d).sum() for d in diffs) * grid.cell_volume))


def project_zero_mean(values, weights):
    """Subtract the weighted mean so that sum(weights * out) == 0 (weights: positive, shaped like values)."""
    return values - (weights * values).sum() / weights.sum()


def _aligned_error(grid, discrete, exact_sampled):
    w = np.full(discrete.shape, grid.cell_volume)
    d = project_zero_mean(discrete, w) - project_zero_mean(exact_sampled, w)
    return _l2_cells(grid, d)


def _face_centers(grid):
    """Midpoint coordinate arrays (X, Y) of the faces normal to each axis, shaped like that axis' face plane."""
    return tuple(grid.meshgrid([grid.edges[b] if b == a else grid.centers[b] for b in grid.axes]) for a in grid.axes)


def _run_poisson(grid, params):
    eps_x = params.epsilon[0]
    X, Y = grid.cell_centers()
    phi_ex = X**2 - X + 1.0 / 6.0
    rho_b = CellField.full(grid, -2.0 * eps_x)
    rho_f = CellField.zeros(grid)
    sigma = BoundaryField(grid, left=-eps_x, right=-eps_x)
    st = solve_gauss(grid, params, rho_f, rho_b, sigma)
    (xfx, _), _ = _face_centers(grid)
    ex_fx = -eps_x * (2.0 * xfx - 1.0)
    return {
        "phi": _aligned_error(grid, st.phi.values, phi_ex),
        "e": _l2_faces(grid, (st.e_faces.planes[0] - ex_fx, st.e_faces.planes[1] - 0.0)),
    }


def _run_darcy(grid, params):
    m = params.K[0] / params.mu
    eps_x, eps_y = params.epsilon

    def qx(x, y):
        return math.pi * np.sin(math.pi * x) * np.cos(math.pi * y)

    def qy(x, y):
        return -math.pi * np.cos(math.pi * x) * np.sin(math.pi * y)

    def px(x, y):
        return -math.pi * np.sin(math.pi * x) * np.cos(math.pi * y)

    def py(x, y):
        return -math.pi * np.cos(math.pi * x) * np.sin(math.pi * y)

    X, Y = grid.cell_centers()
    p_ex = np.cos(math.pi * X) * np.cos(math.pi * Y)
    (xfx, yfx), (xfy, yfy) = _face_centers(grid)
    # required body force b = (mu/K) q + grad p, injected as E with rho_f = 1
    e = FaceField(
        grid,
        eps_x * (qx(xfx, yfx) / m + px(xfx, yfx)),
        eps_y * (qy(xfy, yfy) / m + py(xfy, yfy)),
    )
    st = solve_darcy(grid, params, CellField.full(grid, 1.0), e, BoundaryField(grid))
    q = st.q_faces.planes
    return {
        "p": _aligned_error(grid, st.p.values, p_ex),
        "q": _l2_faces(grid, (q[0] - qx(xfx, yfx), q[1] - qy(xfy, yfy))),
    }


def _dt_for(grid, dt0=0.01, n0=16):
    h = max(grid.h)
    return dt0 * (h * n0) ** 2


def _run_diffusion(grid, params):
    theta = params.theta
    dx, dy = params.D
    dt = _dt_for(grid)
    t1 = dt

    def c_ex(x, y, t):
        return np.cos(math.pi * x) * np.cos(math.pi * y) * math.exp(-t)

    X, Y = grid.cell_centers()
    src = (-theta + math.pi**2 * (dx + dy)) * c_ex(X, Y, t1)
    prev = Concentrations(CellField(grid, c_ex(X, Y, 0.0)), CellField(grid, c_ex(X, Y, 0.0)))
    no_inflow = BoundaryField(grid)
    res = step_transport(
        grid, params, prev, FaceField.zeros(grid), FaceField.zeros(grid), (no_inflow, no_inflow), dt, sources=(src, src)
    )
    exact = c_ex(X, Y, t1)
    return _species_errors(grid, res.conc, (exact, exact))


def _run_driftdiffusion(grid, params):
    u0 = 1.0
    dx = params.D[0]

    def c_ex(x):
        return np.exp(u0 * x / dx) + 1.0

    X, _ = grid.cell_centers()
    prev = Concentrations(CellField(grid, c_ex(X)), CellField(grid, c_ex(X)))
    q = FaceField(grid, np.full(grid.face_shape[0], u0), np.zeros(grid.face_shape[1]))
    # constant total flux J = u0: inflow left, outflow right
    g = BoundaryField(grid, left=u0, right=-u0)
    # without a reaction c_lag only starts the solve: started from the profile itself,
    # the solve would return its start unchanged and the errors would read exactly 0
    ones = CellField.full(grid, 1.0)
    start = Concentrations(ones, ones)
    res = step_transport(grid, params, prev, q, FaceField.zeros(grid), (g, g), dt=0.1, c_lag=start)
    exact = c_ex(X)
    return _species_errors(grid, res.conc, (exact, exact))


def _run_coupled(grid, params):
    theta = params.theta
    dxx, dyy = params.D
    eps_x, eps_y = params.epsilon
    kap = params.kappa
    m = params.K[0] / params.mu
    a = (float(-params.z2), float(params.z1))  # electroneutral amplitudes
    rho_b_val = -2.0 * eps_x
    dt = _dt_for(grid)
    t1 = dt

    def w(x, y, t):
        return (1.5 + 0.5 * np.sin(math.pi * x) * np.sin(math.pi * y)) * math.exp(-t)

    def wx(x, y, t):
        return 0.5 * math.pi * np.cos(math.pi * x) * np.sin(math.pi * y) * math.exp(-t)

    def wy(x, y, t):
        return 0.5 * math.pi * np.sin(math.pi * x) * np.cos(math.pi * y) * math.exp(-t)

    def lap_w(x, y, t):
        # (dxx d^2/dx^2 + dyy d^2/dy^2) w
        return -0.5 * math.pi**2 * (dxx + dyy) * np.sin(math.pi * x) * np.sin(math.pi * y) * math.exp(-t)

    def ux(z, x, y):
        return -2.0 * m * x - kap * z * eps_x * (2.0 * x - 1.0)

    def uy(z, x, y):
        return 2.0 * m * y

    div_u = {z: kap * z * rho_b_val for z in params.z}

    def source(z, amp, x, y, t):
        # theta dc/dt - div(D grad c) + u . grad c + c div u, with c = amp * w
        return amp * (
            -theta * w(x, y, t)
            - lap_w(x, y, t)
            + ux(z, x, y) * wx(x, y, t)
            + uy(z, x, y) * wy(x, y, t)
            + w(x, y, t) * div_u[z]
        )

    def g_side(z, amp, t):
        # inflow g = (D grad c - c u) . nu, outward, per side at face midpoints
        xc, yc = grid.centers
        left = -(dxx * amp * wx(0.0, yc, t) - amp * w(0.0, yc, t) * ux(z, 0.0, yc))
        right = dxx * amp * wx(1.0, yc, t) - amp * w(1.0, yc, t) * ux(z, 1.0, yc)
        bottom = -(dyy * amp * wy(xc, 0.0, t) - amp * w(xc, 0.0, t) * uy(z, xc, 0.0))
        top = dyy * amp * wy(xc, 1.0, t) - amp * w(xc, 1.0, t) * uy(z, xc, 1.0)
        return BoundaryField(grid, left=left, right=right, bottom=bottom, top=top)

    X, Y = grid.cell_centers()
    initial = Concentrations(*(CellField(grid, amp * w(X, Y, 0.0)) for amp in a))
    data = StepData(
        sigma=BoundaryField(grid, left=-eps_x, right=-eps_x),
        f=BoundaryField(grid, right=-2.0 * m, top=2.0 * m),
        g=tuple(g_side(z, amp, t1) for z, amp in zip(params.z, a)),
        rho_b=CellField.full(grid, rho_b_val),
        sources=tuple(source(z, amp, X, Y, t1) for z, amp in zip(params.z, a)),
    )
    state0 = initial_state(grid, params, initial, data)
    state, _ = gummel_step(grid, params, state0, data, dt, SweepSettings(tol=1e-11))

    phi_ex = X**2 - X + 1.0 / 6.0
    p_ex = X**2 - Y**2
    return {
        **_species_errors(grid, state.conc, [amp * w(X, Y, t1) for amp in a]),
        "phi": _aligned_error(grid, state.electro.phi.values, phi_ex),
        "p": _aligned_error(grid, state.flow.p.values, p_ex),
    }


_RUNNERS = {
    "poisson": _run_poisson,
    "darcy": _run_darcy,
    "diffusion": _run_diffusion,
    "driftdiffusion": _run_driftdiffusion,
    "coupled": _run_coupled,
}
CASES = tuple(_RUNNERS)


def check_case(case):
    """Raise ValueError, naming CASES, unless case is one of them."""
    if case not in CASES:
        raise ValueError("unknown manufactured case %r; choose from %s" % (case, ", ".join(CASES)))


def check_grids(grids):
    """The unit-square Grids of a grid list whose entries are ints (n -> n x n) or (nx, ny) pairs.

    Raises ValueError for an empty list, a size that Grid refuses, or two
    consecutive grids with the same spacing h = max(grid.h), where the
    observed order log(e0 / e1) / log(h0 / h1) is undefined.
    """
    if not grids:
        raise ValueError("need at least one grid")
    built = [Grid(*((g, g) if isinstance(g, int) else g), 1.0, 1.0) for g in grids]
    for g0, g1 in zip(built, built[1:]):
        if max(g0.h) == max(g1.h):
            raise ValueError("consecutive grids %dx%d and %dx%d have the same spacing h" % (*g0.n, *g1.n))
    return built


def run_mms(case, grids):
    """Run one manufactured case over a grid list; returns a ConvergenceTable.

    grids is checked by check_grids before any solve; the domain is the
    unit square and the material data are the unit defaults PhysParams(),
    whose isotropic permeability the darcy and coupled cases need.
    """
    check_case(case)
    grids = check_grids(grids)
    params = PhysParams()

    errors = {}
    hs = []
    for grid in grids:
        hs.append(max(grid.h))
        for f, e in _RUNNERS[case](grid, params).items():
            errors.setdefault(f, []).append(e)

    orders = {}
    for f, es in errors.items():
        ords = []
        for k in range(1, len(es)):
            if es[k] == 0.0 or es[k - 1] == 0.0:  # an error grown from zero has order -inf, any other zero +inf
                ords.append(float("-inf") if es[k - 1] == 0.0 < es[k] else float("inf"))
            else:
                ords.append(math.log(es[k - 1] / es[k]) / math.log(hs[k - 1] / hs[k]))
        orders[f] = ords
    return ConvergenceTable(case, [grid.n for grid in grids], hs, errors, orders)
