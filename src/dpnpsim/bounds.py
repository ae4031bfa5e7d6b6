"""A-priori bound constants assembled from the problem data.

The transport scheme is designed around a chain of estimates; this module
evaluates their constants from the configured data so the monitors can check
the simulation against them:

  B0          compact closed form of the exponential rate of the weighted
              L2 energy estimate,
              B0 = max(2/theta, 2/alpha_D) * 12 kappa^2 max|z|^2 / alpha_D
                   * (|sigma|_inf^2 + |rho_b|_inf + |f|_inf^2 + 3 theta C_R).
  B0_energy   the same rate assembled term by term from the estimate it
              abbreviates (testing the transport equations with |z_l| c_l
              and absorbing each gradient term with the budget
              delta = alpha_D / 6):
              B0_energy = max(2/theta, 2/alpha_D) * (
                    2 kappa^2 max|z|^2 (6/alpha_D |sigma|_inf^2 + |rho_b|_inf)
                  + 6/alpha_D |f|_inf^2
                  + 3 theta max|z| C_R
                  + 12/alpha_D            [only if some inflow g_l is nonzero]).
              The compact form rescales the convection and reaction terms by
              12 kappa^2 max|z|^2 / alpha_D and has no boundary-trace term at
              all, so it majorizes the assembled rate only for strong drift
              coupling (roughly kappa max|z| >= 1, with no inflow).  The
              energy monitor therefore enforces the bound built from
              B0_energy; B0 is evaluated and reported alongside.
  C0_hat(T)   energy bound via the compact rate (reported only):
              C0_hat^2 = e^{B0 T} (sum_l |z_l| |c0_l|_L2^2
                                   + max|z| sum_l |g_l|_{L2([0,T] x bdry)}^2).
  C0_hat_energy(T)  the enforced energy bound:
              weighted_energy(t) <= C0_hat_energy(t)^2, same closed form but
              with rate B0_energy and the inflow data term weighted by
              max(2/theta, 2/alpha_D) (absorbing the source term into the
              energy derivative costs a factor 2/theta).
  C0(T)       the full space-time energy constant (compact chain; feeds the
              sup-norm constant below),
              C0 = C0_hat + sqrt(B0) max|z| sqrt(T) C0_hat
                   + max|z| sum_l |g_l|_{L2([0,T] x bdry)}.
  B0_moser    rate of the sup-norm (Moser) iteration,
              B0_moser = min(2/theta, 2/alpha_D) * 12 max|z| / alpha_D
                         * (|f|_inf + 1 + K0 + K1 + 3 theta C_R),
              K0 = 2 kappa^2 max|z| (6/alpha_D |sigma|_inf^2 + |rho_b|_inf),
              K1 = kappa^4 max|z|^8 C0^4  (with the symbolic interpolation
              constants set to 1 -- "nominal").
  C_M(T)      sup-norm bound: sum_l |c_l|_inf <= C_M with
              C_M = 2 e^{B0_moser T / 2} (sum_l |c0_l|_inf + sum_l |g_l|_inf)
                    + sum_l |g_l|_inf.
  C_e, C_f    field and velocity energy constants (all lifting and embedding
              constants nominal = 1); reported only, never asserted.

Only C0_hat_energy and C_M are ever checked against simulation output.
C_M is computed through logarithms so extreme data saturates to inf instead
of raising; cm_log10 stays meaningful either way.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DataNorms:
    """Norms of the problem data over [0, T], computed exactly from the config."""

    sigma_inf: float
    f_inf: float
    rhob_inf: float
    g_inf: tuple  # per species, sup over time and boundary
    g_l2: tuple  # per species, L2 over [0, T] x boundary
    c0_l2: tuple  # per species, spatial L2 of the initial data
    c0_inf: tuple


@dataclass(frozen=True)
class BoundsLedger:
    """All constants at one horizon T, plus the data norms they came from."""

    T: float
    B0: float
    B0_energy: float
    B0_moser: float
    C0_hat: float
    C0_hat_energy: float
    C0: float
    CM: float
    cm_log10: float
    Ce: float
    Cf: float
    norms: DataNorms


def compute_data_norms(grid, schedule, initial, T):
    vol = grid.cell_volume
    c0 = (initial.c1.values, initial.c2.values)
    return DataNorms(
        sigma_inf=schedule.sigma.max_abs(T),
        f_inf=schedule.f.max_abs(T),
        rhob_inf=float(np.abs(schedule.rho_b.values).max()),
        g_inf=(schedule.g1.max_abs(T), schedule.g2.max_abs(T)),
        g_l2=(schedule.g1.l2_time_boundary(T), schedule.g2.l2_time_boundary(T)),
        c0_l2=tuple(float(np.sqrt((c * c).sum() * vol)) for c in c0),
        c0_inf=tuple(float(np.abs(c).max()) for c in c0),
    )


def compute_B0(params, norms):
    """Compact closed form of the energy-estimate rate (reported only)."""
    pre = max(2.0 / params.theta, 2.0 / params.alpha_D)
    mid = 12.0 * params.kappa**2 * params.max_z**2 / params.alpha_D
    bracket = (
        norms.sigma_inf**2
        + norms.rhob_inf
        + norms.f_inf**2
        + 3.0 * params.theta * params.reaction.lipschitz
    )
    return pre * mid * bracket


def compute_energy_rate(params, norms):
    """Energy-estimate rate assembled term by term (the enforced one).

    Each term is the coefficient the derivation actually produces in front
    of sum_l |z_l| ||c_l||^2 when the gradient budget is delta = alpha_D/6:
    electric drift, convection, reaction, and -- whenever some inflow g_l is
    nonzero -- the boundary-trace interpolation term 2/delta = 12/alpha_D.
    compute_B0 is the compact abbreviation of this rate; it rescales the
    convection/reaction terms by 12 kappa^2 max|z|^2 / alpha_D and drops the
    trace term, so for weak drift coupling (kappa max|z| < 1) or nonzero
    inflow it can undershoot the assembled rate and the bound built from it
    may be violated by perfectly healthy runs.  The monitors use this rate.
    """
    pre = max(2.0 / params.theta, 2.0 / params.alpha_D)
    a_d = params.alpha_D
    drift = 2.0 * params.kappa**2 * params.max_z**2 * (6.0 / a_d * norms.sigma_inf**2 + norms.rhob_inf)
    convection = 6.0 / a_d * norms.f_inf**2
    reaction = 3.0 * params.theta * params.max_z * params.reaction.lipschitz
    trace = 12.0 / a_d if max(norms.g_inf) > 0.0 else 0.0
    return pre * (drift + convection + reaction + trace)


def compute_energy_bound(params, norms, B0, T, g_weight=1.0):
    """Return (C0_hat, C0) for horizon T and the given rate.

    g_weight multiplies the inflow data term: the compact reported bound
    uses 1.0, the enforced bound uses max(2/theta, 2/alpha_D) because
    moving the source term through the energy inequality costs 2/theta.
    """
    zs = (abs(params.z1), abs(params.z2))
    data = sum(z * n**2 for z, n in zip(zs, norms.c0_l2)) + g_weight * params.max_z * sum(
        n**2 for n in norms.g_l2
    )
    with np.errstate(over="ignore"):
        c0_hat = float(np.sqrt(np.exp(B0 * T) * data))
    c0 = c0_hat + math.sqrt(B0) * params.max_z * math.sqrt(T) * c0_hat + params.max_z * sum(norms.g_l2)
    return c0_hat, c0


def compute_moser_B0(params, norms, C0):
    """Rate of the sup-norm iteration (nominal interpolation constants)."""
    pre = min(2.0 / params.theta, 2.0 / params.alpha_D)
    mid = 12.0 * params.max_z / params.alpha_D
    K0 = 2.0 * params.kappa**2 * params.max_z * (6.0 / params.alpha_D * norms.sigma_inf**2 + norms.rhob_inf)
    with np.errstate(over="ignore"):
        K1 = float(params.kappa**4 * params.max_z**8 * np.float64(C0) ** 4)
    bracket = norms.f_inf + 1.0 + K0 + K1 + 3.0 * params.theta * params.reaction.lipschitz
    return pre * mid * bracket


def compute_CM(norms, B0_moser, T):
    """Return (C_M, log10(C_M)); inf-safe via log-space evaluation."""
    a = sum(norms.c0_inf) + sum(norms.g_inf)
    b = sum(norms.g_inf)
    x = 0.5 * B0_moser * T
    if a == 0.0 and b == 0.0:
        return 0.0, float("-inf")
    ln = np.logaddexp(math.log(2.0 * a) + x, math.log(b) if b > 0.0 else -np.inf)
    with np.errstate(over="ignore"):
        cm = float(np.exp(ln))
    return cm, float(ln / math.log(10.0))


def compute_Ce_Cf(params, norms, C0, CM, T):
    """Field and velocity energy constants (reported only; nominal constants = 1)."""
    theta_z = params.theta * params.max_z
    C1e = norms.rhob_inf + theta_z * C0
    C2e = norms.sigma_inf + norms.rhob_inf + theta_z * C0
    Ce = C1e + C2e + C2e / math.sqrt(params.eps_s * params.alpha_D)

    aK = params.alpha_K
    CK = params.C_K
    mu = params.mu
    ea = params.eps_s * params.alpha_D
    with np.errstate(over="ignore", invalid="ignore"):
        C1f = (2.0 * theta_z / ea) * Ce * CM
        C2f = (4.0 * CK / (mu * aK**2) + 2.0 * CK / aK + 2.0 / aK) * norms.f_inf**2 + theta_z * (
            8.0 / (ea * aK) + 1.0 / (ea * aK * mu) + 2.0 / aK
        ) * Ce * CM
        Cf = C2f + 2.0 * mu * CK * C2f + C1f
    return float(Ce), float(Cf)


def _enforced_energy(params, norms, T):
    """(B0_energy, C0_hat_energy) at horizon T: the rate and the bound the energy monitor enforces."""
    rate = compute_energy_rate(params, norms)
    g_weight = max(2.0 / params.theta, 2.0 / params.alpha_D)
    return rate, compute_energy_bound(params, norms, rate, T, g_weight=g_weight)[0]


class BoundsEvaluator:
    """The a-priori constants of one run: its ledger at params.T_end, built once on construction.

    ledger() returns that ledger and sup_bound() reads C_M off it; ledger(T)
    builds a new one at horizon T and keeps nothing.  energy_bound_sq(t)
    evaluates only C0_hat_energy(t)^2, through the helper that gives the
    ledger its C0_hat_energy, so the monitor and the report cannot differ.
    """

    def __init__(self, grid, params, schedule, initial):
        self.grid = grid
        self.params = params
        self.schedule = schedule
        self.initial = initial
        self._run_ledger = self.ledger(params.T_end)

    def norms(self, T):
        return compute_data_norms(self.grid, self.schedule, self.initial, T)

    def ledger(self, T=None):
        """The ledger at the run horizon, or, given T, a new one at horizon T."""
        if T is None:
            return self._run_ledger
        T = float(T)
        norms = self.norms(T)
        B0 = compute_B0(self.params, norms)
        c0_hat, c0 = compute_energy_bound(self.params, norms, B0, T)
        b0e, c0_hat_e = _enforced_energy(self.params, norms, T)
        b0m = compute_moser_B0(self.params, norms, c0)
        cm, cm_log10 = compute_CM(norms, b0m, T)
        ce, cf = compute_Ce_Cf(self.params, norms, c0, cm, T)
        return BoundsLedger(
            T=T, B0=B0, B0_energy=b0e, B0_moser=b0m, C0_hat=c0_hat, C0_hat_energy=c0_hat_e,
            C0=c0, CM=cm, cm_log10=cm_log10, Ce=ce, Cf=cf, norms=norms,
        )

    def energy_bound_sq(self, t):
        """C0_hat_energy(t)^2, the admissible weighted energy at time t."""
        return _enforced_energy(self.params, self.norms(t), t)[1] ** 2

    def sup_bound(self):
        """C_M at the run horizon (the sup-norm estimate is stated at T_end)."""
        return self._run_ledger.CM
