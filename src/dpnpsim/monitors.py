"""Runtime monitors: every invariant the scheme is built around, checked per step.

Monitors observe; they do not steer the simulation and they do not raise.
Each check is recorded as one flag in the MonitorReport, next to the values
it judged, and it is up to the caller -- the check subcommand, the
acceptance tests -- to decide what a failed flag means.  The pointwise sign
condition (z1 c1 - |z2| c2)((z1 c1)^2 - (|z2| c2)^2) >= 0 is such a flag
too: for concentrations above the -1e-12 fuzz a summand can fall below
-1e-12 only at a valence above about 6e7, so a sign failure with nonneg_ok
set is a breakdown the report shows, not one that aborts the run.

The divergence checks compare against thresholds derived from the linear
solves that produced the state: 10 x gauss.SOLVE_TOL x the recorded
rhs-based scale.  A converged solve passes them by construction; a defect
beyond that cannot be solver noise.
"""

from dataclasses import dataclass, fields

import numpy as np

from .gauss import SOLVE_TOL
from .mesh import cell_divergence
from .transport import free_charge

NONNEG_FUZZ = -1e-12
SIGN_FUZZ = -1e-12


def _sign_summands(params, conc):
    c1, c2 = conc
    a = params.z1 * c1.values
    b = (-params.z2) * c2.values
    return (a - b) * (a * a - b * b)


def divergence_defect(grid, faces, source, scale):
    """(||div faces - source||_inf, threshold 10 SOLVE_TOL scale, ok): ok also at a 1e-15 floor.

    scale is the rhs-based scale the solve that produced the faces recorded.
    """
    residual = float(np.abs(cell_divergence(grid, faces).values - source).max())
    threshold = 10.0 * SOLVE_TOL * scale
    return residual, threshold, residual <= max(threshold, 1e-15)


def weighted_sum_sq(params, planes, vol):
    """sum_l |z_l| * sum_cells a_l^2 * vol, for one cell array a_l per species."""
    return float(sum(abs(z) * (a * a).sum() * vol for z, a in zip(params.z, planes)))


def weighted_energy(params, conc):
    """sum_l |z_l| * sum_cells c_l^2 * volume."""
    return weighted_sum_sq(params, [c.values for c in conc], conc[0].grid.cell_volume)


@dataclass
class MonitorReport:
    """One row of runtime checks for one accepted step.

    FLAGS names the *_ok fields in field order; all_ok is their conjunction.
    """

    time: float
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

    def all_ok(self):
        return all(getattr(self, f) for f in self.FLAGS)


MonitorReport.FLAGS = tuple(f.name for f in fields(MonitorReport) if f.name.endswith("_ok"))


def _mass_balance(grid, params, state, prev, dt):
    """Relative mass-balance residuals per species.

    Identity: theta * sum (c - c_prev) vol = dt * (boundary inflow integral
    + theta * sum r_applied vol), exact to solver residual because
    r_applied is what the step actually inserted.
    """
    vol = grid.cell_volume
    theta = params.theta
    res = []
    for new, old, g, rate in zip(state.conc, prev.conc, state.data.g, state.applied):
        new_c, prev_c = new.values, old.values
        lhs = theta * (new_c - prev_c).sum() * vol
        rhs = dt * (g.boundary_integral() + theta * rate.sum() * vol)
        scale = max(
            theta * np.abs(new_c).sum() * vol,
            theta * np.abs(prev_c).sum() * vol,
            dt * (g.abs_integral() + theta * np.abs(rate).sum() * vol),
        )
        diff = abs(lhs - rhs)
        res.append(0.0 if diff == 0.0 else (diff / scale if scale > 0.0 else float("inf")))
    return res


def check_state(grid, params, bounds_eval, state, prev, dt):
    """Evaluate every monitored invariant for one accepted step.

    prev is the previous accepted state; the step data (boundary values,
    background charge) are state.data.  Raises for no violation: each is a
    flag of the report.
    """
    conc = state.conc
    mins = [float(c.values.min()) for c in conc]
    maxs = [float(c.values.max()) for c in conc]
    nonneg_ok = min(mins) >= NONNEG_FUZZ

    summands = _sign_summands(params, conc)
    sign_min = float(summands.min())
    sign_value = float(summands.sum() * grid.cell_volume)
    sign_ok = sign_min >= SIGN_FUZZ

    energy = weighted_energy(params, conc)
    energy_bound = bounds_eval.energy_bound_sq(state.time)
    energy_ok = energy <= energy_bound

    mass = _mass_balance(grid, params, state, prev, dt)
    mass_ok = max(mass) <= 1e-10

    electro, flow = state.electro, state.flow
    # Gauss: div E = rho_f + rho_b less the shift the solve subtracted; Darcy: div q = 0
    rho = free_charge(params, conc).values + state.data.rho_b.values - electro.charge_shift
    gauss_res, gauss_thr, gauss_ok = divergence_defect(grid, electro.e_faces, rho, electro.charge_scale)
    darcy_res, darcy_thr, darcy_ok = divergence_defect(grid, flow.q_faces, 0.0, flow.velocity_scale)

    sup_total = float(sum(max(-lo, hi) for lo, hi in zip(mins, maxs)))
    sup_bound = bounds_eval.sup_bound()
    sup_ok = sup_total <= sup_bound

    return MonitorReport(
        time=state.time,
        min_c1=mins[0],
        min_c2=mins[1],
        max_c1=maxs[0],
        max_c2=maxs[1],
        nonneg_ok=nonneg_ok,
        sign_value=sign_value,
        sign_min_summand=sign_min,
        sign_ok=sign_ok,
        energy=energy,
        energy_bound=energy_bound,
        energy_ok=energy_ok,
        mass_residual1=mass[0],
        mass_residual2=mass[1],
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
