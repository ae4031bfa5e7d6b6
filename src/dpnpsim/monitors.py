"""Runtime monitors: every invariant the scheme is built around, checked per step.

Monitors observe; they do not steer the simulation and (with one exception)
they do not raise.  Violations are recorded as flags in the MonitorReport and
it is up to the caller -- the check subcommand, the acceptance tests -- to
decide what a failed flag means.  The exception is the pointwise sign
condition: for admissible states (concentrations above the -1e-12 fuzz) the
summand (z1 c1 - |z2| c2)((z1 c1)^2 - (|z2| c2)^2) is nonnegative cell by
cell as a matter of algebra, so a violation beyond fuzz indicates a
programming error and raises naming the cell.  check_state only takes that
raising path when the precondition actually holds, which keeps corrupted
states observable.

The divergence checks compare against thresholds derived from the linear
solves that produced the state: 10 x solver tolerance x the recorded
rhs-based scale.  A converged solve passes them by construction; a defect
beyond that cannot be solver noise.
"""

from dataclasses import dataclass, fields

import numpy as np

from .gauss import gauss_residual
from .mesh import cell_divergence
from .transport import free_charge

NONNEG_FUZZ = -1e-12
SIGN_FUZZ = -1e-12


class InvariantViolation(RuntimeError):
    """An algebraic identity failed beyond rounding fuzz -- a bug, not data."""


def algebraic_inequality(a, b, p):
    """(a - b)(a^p - b^p) for a, b, p >= 0; nonnegative by monotonicity of t^p."""
    a = float(a)
    b = float(b)
    p = float(p)
    if a < 0.0 or b < 0.0 or p < 0.0:
        raise ValueError("algebraic_inequality needs nonnegative a, b, p; got (%g, %g, %g)" % (a, b, p))
    return (a - b) * (a**p - b**p)


def _sign_summands(params, conc):
    a = params.z1 * conc.c1.values
    b = (-params.z2) * conc.c2.values
    return (a - b) * (a * a - b * b)


def sign_condition(params, conc):
    """Volume-weighted sum of (z1 c1 - |z2| c2)((z1 c1)^2 - (|z2| c2)^2).

    Raises InvariantViolation if any cell's summand falls below -1e-12:
    for concentrations above the nonnegativity fuzz this is algebraically
    impossible, so it can only mean broken code.
    """
    s = _sign_summands(params, conc)
    m = s.min()
    if m < SIGN_FUZZ:
        j, i = np.unravel_index(int(s.argmin()), s.shape)
        raise InvariantViolation(
            "sign-condition summand %.3e < %.0e at cell (i=%d, j=%d)" % (m, SIGN_FUZZ, i, j)
        )
    return float(s.sum() * conc.c1.grid.cell_volume)


def weighted_energy(params, conc):
    """sum_l |z_l| * sum_cells c_l^2 * volume."""
    vol = conc.c1.grid.cell_volume
    return float(
        abs(params.z1) * (conc.c1.values**2).sum() * vol
        + abs(params.z2) * (conc.c2.values**2).sum() * vol
    )


@dataclass
class MonitorReport:
    """One row of runtime checks for one accepted step."""

    time: float
    case: str  # "converged" (charge from this state's c) or "lagged"
    min_c1: float
    min_c2: float
    max_c1: float
    max_c2: float
    nonneg_ok: bool
    sign_value: float
    sign_min_summand: float
    sign_ok: bool
    energy: float
    energy_bound: float
    energy_ok: bool
    mass_residual1: float
    mass_residual2: float
    mass_ok: bool
    gauss_residual: float
    gauss_threshold: float
    gauss_ok: bool
    darcy_residual: float
    darcy_threshold: float
    darcy_ok: bool
    sup_total: float
    sup_bound: float
    sup_ok: bool

    FLAGS = ("nonneg_ok", "sign_ok", "energy_ok", "mass_ok", "gauss_ok", "darcy_ok", "sup_ok")

    def all_ok(self):
        return all(getattr(self, f) for f in self.FLAGS)

    @classmethod
    def csv_header(cls):
        return [f.name for f in fields(cls)]

    def csv_row(self):
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, (bool, np.bool_)):
                out.append("1" if v else "0")
            elif isinstance(v, (int, float, np.floating)):
                out.append(repr(float(v)))
            else:
                out.append(str(v))
        return out


def _mass_balance(grid, params, state, prev, dt, data):
    """Relative mass-balance residuals per species.

    Identity: theta * sum (c - c_prev) vol = dt * (boundary inflow integral
    + theta * sum r_applied vol [+ sum source vol]), exact to solver residual
    because r_applied is what the step actually inserted.
    """
    vol = grid.cell_volume
    theta = params.theta
    res = []
    rates = (state.applied_r1, state.applied_r2)
    gs = (data.g1, data.g2)
    prev_c = (prev.conc.c1.values, prev.conc.c2.values)
    new_c = (state.conc.c1.values, state.conc.c2.values)
    for l in (0, 1):
        lhs = theta * (new_c[l] - prev_c[l]).sum() * vol
        inflow = gs[l].boundary_integral()
        reacted = 0.0 if rates[l] is None else theta * rates[l].sum() * vol
        sourced = 0.0
        if data.sources is not None:
            sourced = float(np.asarray(data.sources[l]).sum() * vol)
        rhs = dt * (inflow + reacted + sourced)
        scale = max(
            theta * np.abs(new_c[l]).sum() * vol,
            theta * np.abs(prev_c[l]).sum() * vol,
            dt * (gs[l].abs_integral() + (0.0 if rates[l] is None else theta * np.abs(rates[l]).sum() * vol)),
        )
        diff = abs(lhs - rhs)
        res.append(0.0 if diff == 0.0 else (diff / scale if scale > 0.0 else float("inf")))
    return res


def check_state(grid, params, bounds_eval, state, prev, dt, data):
    """Evaluate every monitored invariant for one accepted step.

    prev is the previous accepted state; data is the step data (boundary
    values, background charge) at state.time.  Never raises for violations
    that are observations about the state -- only for a sign-condition
    breakdown on an otherwise admissible state, which is a code bug.
    """
    conc = state.conc
    c1 = conc.c1.values
    c2 = conc.c2.values
    min_c1, min_c2 = float(c1.min()), float(c2.min())
    max_c1, max_c2 = float(c1.max()), float(c2.max())
    nonneg_ok = min(min_c1, min_c2) >= NONNEG_FUZZ

    summands = _sign_summands(params, conc)
    sign_min = float(summands.min())
    if nonneg_ok:
        sign_value = sign_condition(params, conc)  # raising form: failure here is a bug
        sign_ok = True
    else:
        sign_value = float(summands.sum() * grid.cell_volume)
        sign_ok = sign_min >= SIGN_FUZZ

    energy = weighted_energy(params, conc)
    energy_bound = bounds_eval.energy_bound_sq(state.time)
    energy_ok = energy <= energy_bound

    mass1, mass2 = _mass_balance(grid, params, state, prev, dt, data)
    mass_ok = max(mass1, mass2) <= 1e-10

    gauss_res = gauss_residual(grid, state.electro, free_charge(params, conc), data.rho_b)
    gauss_thr = 10.0 * state.electro.lin_tol * state.electro.charge_scale
    gauss_ok = gauss_res <= max(gauss_thr, 1e-15)

    div_q = cell_divergence(grid, state.flow.q_faces).values
    darcy_res = float(np.abs(div_q).max())
    darcy_thr = 10.0 * state.flow.lin_tol * state.flow.velocity_scale
    darcy_ok = darcy_res <= max(darcy_thr, 1e-15)

    sup_total = float(np.abs(c1).max() + np.abs(c2).max())
    sup_bound = bounds_eval.sup_bound()
    sup_ok = sup_total <= sup_bound

    return MonitorReport(
        time=state.time,
        case="converged" if state.consistent else "lagged",
        min_c1=min_c1,
        min_c2=min_c2,
        max_c1=max_c1,
        max_c2=max_c2,
        nonneg_ok=nonneg_ok,
        sign_value=sign_value,
        sign_min_summand=sign_min,
        sign_ok=sign_ok,
        energy=energy,
        energy_bound=energy_bound,
        energy_ok=energy_ok,
        mass_residual1=mass1,
        mass_residual2=mass2,
        mass_ok=mass_ok,
        gauss_residual=gauss_res,
        gauss_threshold=gauss_thr,
        gauss_ok=gauss_ok,
        darcy_residual=darcy_res,
        darcy_threshold=darcy_thr,
        darcy_ok=darcy_ok,
        sup_total=sup_total,
        sup_bound=sup_bound,
        sup_ok=sup_ok,
    )
