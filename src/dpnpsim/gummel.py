"""Gummel decoupling: implicit time steps solved by a damped fixed-point sweep.

One sweep, with the free charge frozen at the current concentration iterate:

  1. field solve     rho_f(c^k)             -> phi, E
  2. flow solve      rho_f(c^k), E          -> p, q
  3. transport step  E, q, lagged reactions -> raw concentrations
  4. damping         c^{k+1} = damping * raw + (1 - damping) * c^k

until the weighted increment sqrt(sum_l |z_l| sum (c^{k+1} - c^k)^2 vol)
drops below tol.  After convergence the field and flow are rebuilt from the
converged concentrations so the stored state is internally consistent.

advance() walks the step sequence 0 -> T_end, halving dt for a step whose
sweep fails to converge or whose linear solve fails (GummelError or
SolverError; up to 10 halvings; the shortened step is accepted and
subsequent steps resume the nominal dt), evaluates the boundary schedule at
each new time, and runs the monitors on every accepted state.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import monitors
from .bounds import BoundsEvaluator
from .darcy import solve_darcy
from .gauss import solve_gauss
from .linalg import SolverError
from .mesh import CellField
from .transport import Concentrations, free_charge, step_transport

DEFAULT_LIN_TOL = 1e-12
DEFAULT_LIN_TOL_TRANSPORT = 1e-14
MAX_HALVINGS = 10


@dataclass
class State:
    """One accepted time level of the coupled system."""

    time: float
    electro: object
    flow: object
    conc: Concentrations
    applied_r1: np.ndarray = None
    applied_r2: np.ndarray = None
    consistent: bool = True  # field/flow rebuilt from this state's own charge


@dataclass(frozen=True)
class GummelReport:
    """Sweep history of one implicit step."""

    sweeps: int
    residuals: tuple
    converged: bool
    halvings: int = 0
    extra_sweep_residual: float = None


class GummelError(RuntimeError):
    """Fixed-point sweep exhausted max_sweeps; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _increment(params, grid, conc_new, conc_old):
    vol = grid.cell_volume
    d1 = conc_new.c1.values - conc_old.c1.values
    d2 = conc_new.c2.values - conc_old.c2.values
    return math.sqrt(abs(params.z1) * (d1 * d1).sum() * vol + abs(params.z2) * (d2 * d2).sum() * vol)


def _damped(grid, damping, raw, old):
    if damping == 1.0:
        return raw
    lam = damping
    return Concentrations(
        CellField(grid, lam * raw.c1.values + (1.0 - lam) * old.c1.values),
        CellField(grid, lam * raw.c2.values + (1.0 - lam) * old.c2.values),
    )


def initial_state(grid, params, initial, data, lin_tol=DEFAULT_LIN_TOL):
    """Consistent t = 0 state: field and flow solved from the initial charge."""
    rho_f = free_charge(params, initial)
    electro = solve_gauss(grid, params, rho_f, data.rho_b, data.sigma, tol=lin_tol)
    flow = solve_darcy(grid, params, rho_f, electro.e_faces, data.f, tol=lin_tol)
    return State(0.0, electro, flow, initial, None, None, True)


def gummel_step(
    grid,
    params,
    state_prev,
    data,
    dt,
    tol,
    max_sweeps,
    damping=1.0,
    init_iterate="previous",
    lin_tol=DEFAULT_LIN_TOL,
    lin_tol_transport=DEFAULT_LIN_TOL_TRANSPORT,
    probe_extra_sweep=False,
):
    """One implicit step from state_prev with all data evaluated at the new time.

    init_iterate chooses the sweep start: "previous" (the previous time
    level, the production default) or "zero".  Returns (State, GummelReport);
    raises GummelError when max_sweeps sweeps do not reach tol.
    """
    if not (0.0 < damping <= 1.0):
        raise ValueError("damping must lie in (0, 1], got %g" % damping)
    if init_iterate not in ("previous", "zero"):
        raise ValueError("init_iterate must be 'previous' or 'zero', got %r" % (init_iterate,))

    c_prev = state_prev.conc
    if init_iterate == "previous":
        c_k = c_prev
    else:
        c_k = Concentrations(CellField.zeros(grid), CellField.zeros(grid))

    residuals = []
    last = None
    converged = False
    for _ in range(max_sweeps):
        rho_f = free_charge(params, c_k)
        electro = solve_gauss(grid, params, rho_f, data.rho_b, data.sigma, tol=lin_tol)
        flow = solve_darcy(grid, params, rho_f, electro.e_faces, data.f, tol=lin_tol)
        result = step_transport(
            grid,
            params,
            c_prev,
            flow.q_faces,
            electro.e_faces,
            data.g1,
            data.g2,
            dt,
            c_lag=c_k,
            sources=data.sources,
            tol=lin_tol_transport,
        )
        c_next = _damped(grid, damping, result.conc, c_k)
        res = _increment(params, grid, c_next, c_k)
        residuals.append(res)
        c_k = c_next
        last = result
        if res <= tol:
            converged = True
            break

    if not converged:
        report = GummelReport(len(residuals), tuple(residuals), False)
        raise GummelError(
            "Gummel sweep did not converge: residual %.3e > tol %.3e after %d sweeps"
            % (residuals[-1], tol, len(residuals)),
            report,
        )

    # rebuild the elliptic fields from the converged concentrations
    rho_f = free_charge(params, c_k)
    electro = solve_gauss(grid, params, rho_f, data.rho_b, data.sigma, tol=lin_tol)
    flow = solve_darcy(grid, params, rho_f, electro.e_faces, data.f, tol=lin_tol)

    extra = None
    if probe_extra_sweep:
        probe = step_transport(
            grid,
            params,
            c_prev,
            flow.q_faces,
            electro.e_faces,
            data.g1,
            data.g2,
            dt,
            c_lag=c_k,
            sources=data.sources,
            tol=lin_tol_transport,
        )
        extra = _increment(params, grid, _damped(grid, damping, probe.conc, c_k), c_k)

    state = State(
        time=state_prev.time + dt,
        electro=electro,
        flow=flow,
        conc=c_k,
        applied_r1=last.r1,
        applied_r2=last.r2,
        consistent=True,
    )
    report = GummelReport(len(residuals), tuple(residuals), True, 0, extra)
    return state, report


@dataclass
class SimResult:
    """Everything advance() produced: accepted states and their reports."""

    states: list
    reports: list  # GummelReport per accepted step
    monitors: list  # MonitorReport per accepted step (empty when monitoring is off)
    evaluator: object
    ledger: object


def advance(
    grid,
    params,
    initial,
    schedule,
    T_end=None,
    dt=None,
    tol=1e-10,
    max_sweeps=50,
    damping=1.0,
    init_iterate="previous",
    lin_tol=DEFAULT_LIN_TOL,
    lin_tol_transport=DEFAULT_LIN_TOL_TRANSPORT,
    probe_extra_sweep=False,
    monitor=True,
):
    """March from 0 to T_end; returns SimResult with one State per accepted step.

    A step whose sweep fails to converge (GummelError) or whose Krylov solve
    fails (SolverError) is retried at half the step size, up to 10 halvings,
    and the shortened step is accepted as a real step; a failure that
    persists after 10 halvings is re-raised.  The final step is clipped to
    land on T_end exactly.
    """
    T_end = params.T_end if T_end is None else float(T_end)
    dt = params.dt if dt is None else float(dt)

    state = initial_state(grid, params, initial, schedule.at(0.0), lin_tol=lin_tol)
    evaluator = BoundsEvaluator(grid, params, schedule, initial, T_end) if monitor else None

    states = [state]
    reports = []
    monitor_rows = []
    t = 0.0
    eps = 1e-12 * max(1.0, T_end)
    while t < T_end - eps:
        dt_try = min(dt, T_end - t)
        halvings = 0
        while True:
            data = schedule.at(t + dt_try)
            try:
                new_state, rep = gummel_step(
                    grid,
                    params,
                    state,
                    data,
                    dt_try,
                    tol,
                    max_sweeps,
                    damping=damping,
                    init_iterate=init_iterate,
                    lin_tol=lin_tol,
                    lin_tol_transport=lin_tol_transport,
                    probe_extra_sweep=probe_extra_sweep,
                )
                break
            except (GummelError, SolverError):
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise
                dt_try *= 0.5
        rep = GummelReport(rep.sweeps, rep.residuals, rep.converged, halvings, rep.extra_sweep_residual)
        if monitor:
            monitor_rows.append(
                monitors.check_state(grid, params, evaluator, new_state, state, dt_try, data)
            )
        states.append(new_state)
        reports.append(rep)
        state = new_state
        t = new_state.time

    ledger = evaluator.ledger(T_end) if monitor else None
    return SimResult(states, reports, monitor_rows, evaluator, ledger)
