"""Gummel decoupling: implicit time steps solved by a relaxed fixed-point sweep.

The sweep iterates whole states: it starts from the previous state,
(c^0, E^0, q^0) = (c, E, q)(t_n), and one sweep is

  1. transport step  E^k, q^k, lagged reactions -> raw concentrations
  2. relaxation      c^{k+1} = c^k + omega_k d_k,  d_k = raw - c^k
  3. field solve     rho_f(c^{k+1})           -> phi, E^{k+1}
  4. flow solve      rho_f(c^{k+1}), E^{k+1}  -> p, q^{k+1}

until the weighted increment r_k = sqrt(sum_l |z_l| sum d_k^2 vol) drops
below tol.  omega starts at damping; from the second sweep on it is
Aitken's -omega_{k-1} <d_{k-1}, d_k - d_{k-1}> / |d_k - d_{k-1}|^2
(|z_l|-weighted; Kuettler & Wall, Comput. Mech. 43, 2008) clipped to [0.05, 1].
The step accepts the raw concentrations of the last transport step, not
their relaxed mix with c^k: the reaction rates stored with the state are
the ones that step applied, so the mass identity the monitors check holds
for them.  The last sweep's one field and flow solve takes those
concentrations, so the stored state is internally consistent.  Where sigma,
f or rho_b changed since t_n, E^0 and q^0 are solved again from c(t_n) and
the new data before the first sweep, so every sweep runs on this step's
fields.  Concentrations, inflows and applied rates are pairs indexed by
species (0 = c1, 1 = c2).

A step fails in one way: gummel_step raises GummelError, both when the
sweep cannot converge and when a linear solve inside the step fails (the
SolverError becomes its __cause__).  The sweep is given up after sweep k
once its contraction rate theta_k = r_k / r_{k-1} is >= 1 or too slow for
the sweeps left, r_k * theta_k**(max_sweeps - k) > tol (the divergence and
slow-convergence stop of Hairer & Wanner, Solving ODEs II, IV.8); at
k = max_sweeps that is the spent budget.  advance() walks 0 -> params.T_end,
halving dt for a failed step down to the absolute floor params.dt / 2**10;
the next step keeps a halved dt and doubles an unhalved one up to params.dt
(Gustafsson & Soederlind, SIAM J. Sci. Comput. 18, 1997).  It evaluates the
boundary schedule at each new time and runs the monitors on every accepted
state.  It hands the states of step 0, of every stride-th step and of the
last step to a sink as soon as the march is done with each, so it holds
about two states at any step count.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import monitors
from .bounds import BoundsEvaluator
from .darcy import solve_darcy
from .gauss import solve_gauss
from .linalg import SolverError
from .mesh import CellField
from .params import check_domains
from .transport import Concentrations, free_charge, step_transport

MAX_HALVINGS = 10


@dataclass(frozen=True)
class SweepSettings:
    """Settings of the Gummel sweep; the field defaults are the production values.

    The fields are the sweep keys of the configuration's time block, and
    DOMAINS, in keyword arguments of params.violation, is the one statement
    of their ranges.  The linear solves inside a sweep use the fixed
    tolerances gauss.SOLVE_TOL and transport.SOLVE_TOL.
    """

    tol: float = 1e-10  # weighted increment at which the sweep stops
    max_sweeps: int = 50
    damping: float = 1.0  # omega at the start of every attempt
    DOMAINS = dict(tol=dict(low=0, strict=True), max_sweeps=dict(integer=True, low=1), damping=dict(low=0, high=1))

    def __post_init__(self):
        check_domains(self)


@dataclass
class State:
    """One accepted time level of the coupled system."""

    time: float
    electro: object
    flow: object
    conc: Concentrations
    data: object  # the StepData the fields were solved with
    applied: tuple = None  # the reaction rates the step applied, one array per species


@dataclass(frozen=True)
class GummelReport:
    """Sweep history of one implicit step."""

    sweeps: int
    residuals: tuple
    halvings: int = 0
    wasted_sweeps: int = 0  # completed sweeps of the attempts that failed


class GummelError(RuntimeError):
    """An implicit step failed; carries the report of the sweeps it completed."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


def _increment(params, grid, d):
    """The weighted norm r = sqrt(sum_l |z_l| sum d_l^2 vol) of one sweep's update pair d."""
    return math.sqrt(monitors.weighted_sum_sq(params, d, grid.cell_volume))


def _aitken(params, omega, d_old, d):
    """The next relaxation factor from two successive sweep updates; omega itself where they are equal."""
    dd = [a - b for a, b in zip(d, d_old)]
    num, den = (sum(abs(z) * float(np.vdot(a, b)) for z, a, b in zip(params.z, u, dd)) for u in (d_old, dd))
    return omega if den == 0.0 else min(max(-omega * num / den, 0.05), 1.0)


def _fields(grid, params, conc, data):
    """Field and flow solved from the free charge of conc: (ElectroState, FlowState)."""
    rho_f = free_charge(params, conc)
    electro = solve_gauss(grid, params, rho_f, data.rho_b, data.sigma)
    flow = solve_darcy(grid, params, rho_f, electro.e_faces, data.f)
    return electro, flow


def _field_inputs(data):
    """What the field and flow solve reads of the step data: the sides of sigma and f, and rho_b."""
    return [v for field in (data.sigma, data.f) for pair in field.sides for v in pair] + [data.rho_b.values]


def initial_state(grid, params, initial, data):
    """Consistent t = 0 state: field and flow solved from the initial charge."""
    electro, flow = _fields(grid, params, initial, data)
    return State(0.0, electro, flow, initial, data)


def gummel_step(grid, params, state_prev, data, dt, settings=SweepSettings()):
    """One implicit step from state_prev with all data evaluated at the new time.

    Returns (State, GummelReport).  Raises GummelError, carrying the report
    of the sweeps completed, once the contraction rate shows max_sweeps
    sweeps cannot reach tol, or chained from the SolverError of a failed
    linear solve of the step.
    """
    c_prev = c_k = state_prev.conc
    electro, flow = state_prev.electro, state_prev.flow
    residuals = []
    omega, d_old = settings.damping, None
    try:
        if not all(map(np.array_equal, _field_inputs(state_prev.data), _field_inputs(data))):
            electro, flow = _fields(grid, params, c_prev, data)
        while True:
            result = step_transport(
                grid, params, c_prev, flow.q_faces, electro.e_faces, data.g, dt, c_lag=c_k, sources=data.sources
            )
            d = [new.values - old.values for new, old in zip(result.conc, c_k)]
            residuals.append(_increment(params, grid, d))
            k, r = len(residuals), residuals[-1]
            if r <= settings.tol:
                break
            theta = r / residuals[-2] if k > 1 else 0.0
            left = settings.max_sweeps - k
            # left == 0 ends the loop even for a nan residual, which fails every comparison;
            # theta >= 1 before theta**left, which overflows for a large theta
            if left == 0 or theta >= 1.0 or r * theta**left > settings.tol:
                raise GummelError(
                    "Gummel sweep gave up after %d of %d sweeps: residual %.3e, tol %.3e, and at "
                    "contraction rate theta %.3g the %d sweeps left cannot reach tol"
                    % (k, settings.max_sweeps, r, settings.tol, theta, left),
                    GummelReport(k, tuple(residuals)),
                )
            omega = omega if d_old is None else _aitken(params, omega, d_old, d)
            d_old = d
            if omega == 1.0:
                c_k = result.conc
            else:
                c_k = Concentrations(*(CellField(grid, old.values + omega * dl) for old, dl in zip(c_k, d)))
            electro, flow = _fields(grid, params, c_k, data)
        # the accepted transport output, whose rates are stored with it, gets the state's fields
        electro, flow = _fields(grid, params, result.conc, data)
    except SolverError as exc:
        raise GummelError(
            "linear solve failed after %d completed sweeps: %s" % (len(residuals), exc),
            GummelReport(len(residuals), tuple(residuals)),
        ) from exc

    state = State(state_prev.time + dt, electro, flow, result.conc, data, result.rates)
    return state, GummelReport(len(residuals), tuple(residuals))


@dataclass
class SimResult:
    """Everything advance() produced: the kept states and a report and monitor row per accepted step."""

    states: list  # the kept States: step 0, every stride-th accepted step and the last; only the last with a sink
    steps: list  # the accepted-step index of each kept State
    reports: list  # GummelReport per accepted step
    monitors: list  # MonitorReport per accepted step
    ledger: object  # the a-priori bounds over [0, T_end]


def advance(grid, params, initial, schedule, settings=SweepSettings(), stride=1, sink=None):
    """March from 0 to params.T_end in steps of params.dt; returns a SimResult.

    The State of step 0, of every stride-th accepted step and of the last
    one goes to sink(k, state) under its step index k: state k once step
    k + 1 is accepted, so never before the first gummel_step, and the last
    after the loop.  The march then drops it, and holds at most two States
    at any step count.  Without a sink the result keeps every State handed
    over (stride=1 keeps every step); with one, it keeps only the last.

    A step that fails (GummelError) is retried at half the step size and
    the shortened step is accepted as a real step; the next step tries it
    again if it was halved, else twice it, up to params.dt.  A failure at
    the absolute floor params.dt / 2**MAX_HALVINGS is re-raised; the sink
    has had every state handed over before it.  The final step is clipped
    to land on T_end exactly.  Each accepted step's report counts its
    halvings and, as wasted_sweeps, the completed sweeps of its failed
    attempts, each stopped as soon as its sweep cannot converge.
    """
    T_end, dt = params.T_end, params.dt
    state = initial_state(grid, params, initial, schedule.at(0.0))
    evaluator = BoundsEvaluator(grid, params, schedule, initial)

    kept = {}  # step index -> State, filled by the default sink
    sink = sink or kept.__setitem__
    reports = []
    monitor_rows = []
    eps = 1e-12 * max(1.0, T_end)
    while state.time < T_end - eps:
        dt_try = min(dt, T_end - state.time)
        halvings = wasted = 0
        while True:
            try:
                new_state, rep = gummel_step(grid, params, state, schedule.at(state.time + dt_try), dt_try, settings)
                break
            except GummelError as exc:
                if dt_try * 0.5 < params.dt / 2**MAX_HALVINGS:
                    raise
                halvings += 1
                wasted += exc.report.sweeps
                dt_try *= 0.5
        dt = dt_try if halvings else min(2.0 * dt_try, params.dt)
        monitor_rows.append(monitors.check_state(grid, params, evaluator, new_state, state, dt_try))
        reports.append(replace(rep, halvings=halvings, wasted_sweeps=wasted))
        if (len(reports) - 1) % stride == 0:
            sink(len(reports) - 1, state)
        state = new_state
    sink(len(reports), state)

    kept = kept or {len(reports): state}
    return SimResult(list(kept.values()), list(kept), reports, monitor_rows, evaluator.ledger())
