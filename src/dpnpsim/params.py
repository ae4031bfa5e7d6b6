"""Physical parameters of the two-species electrokinetic system."""

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class PhysParams:
    """Constant material data.

    D and K are the diagonal entries of the diffusion and permeability
    tensors.  The dielectric tensor is eps_s * D (the field equation is
    formulated for the rescaled field E = -eps_s D grad(phi)).  kappa is the
    composite mobility coefficient multiplying z_l * E in the drift velocity,
    u_l = q + kappa * z_l * E.  z1 and z2 are the (integer) valencies with
    z1 > 0 > z2.  exchange_rate >= 0 is the rate of the inter-species
    exchange r1 = exchange_rate (c2+ - c1+), r2 = -r1, and so the Lipschitz
    constant C_R of the rate functions; 0 means no reaction.  T_end and dt
    are the run horizon and the nominal step, finite and positive with
    dt <= T_end.
    """

    theta: float = 1.0
    D: tuple = (1.0, 1.0)
    K: tuple = (1.0, 1.0)
    mu: float = 1.0
    eps_s: float = 1.0
    kappa: float = 1.0
    z1: int = 1
    z2: int = -1
    exchange_rate: float = 0.0
    T_end: float = 1.0
    dt: float = 0.1

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("porosity theta must lie in (0, 1], got %g" % self.theta)
        for name in ("D", "K"):
            t = getattr(self, name)
            if len(t) != 2 or not all(v > 0.0 for v in t):
                raise ValueError("%s must be two positive diagonal entries, got %r" % (name, t))
            object.__setattr__(self, name, (float(t[0]), float(t[1])))
        if not (self.mu > 0.0):
            raise ValueError("viscosity mu must be positive, got %g" % self.mu)
        if not (self.eps_s > 0.0):
            raise ValueError("eps_s must be positive, got %g" % self.eps_s)
        if not (self.kappa >= 0.0):
            raise ValueError("kappa must be nonnegative, got %g" % self.kappa)
        if not (self.exchange_rate >= 0.0):
            raise ValueError("exchange_rate must be nonnegative, got %g" % self.exchange_rate)
        if not (isinstance(self.z1, int) and isinstance(self.z2, int) and self.z1 > 0 > self.z2):
            raise ValueError("valencies must satisfy z1 > 0 > z2 (integers), got z1=%r z2=%r" % (self.z1, self.z2))
        for name in ("T_end", "dt"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError("%s must be a finite number > 0, got %g" % (name, v))
            object.__setattr__(self, name, float(v))
        if not (self.T_end >= self.dt):
            raise ValueError("T_end must be at least dt, got T_end=%g dt=%g" % (self.T_end, self.dt))

    @property
    def z(self):
        """The valencies as a pair indexed by species, (z1, z2)."""
        return (self.z1, self.z2)

    @property
    def max_z(self):
        return float(max(self.z1, -self.z2))

    @property
    def alpha_D(self):
        """Smallest diffusion eigenvalue (coercivity constant of D)."""
        return min(self.D)

    @property
    def alpha_K(self):
        """Coercivity constant of K^-1 (reciprocal of the largest permeability)."""
        return 1.0 / max(self.K)

    @property
    def C_K(self):
        """Continuity constant of K^-1 (reciprocal of the smallest permeability)."""
        return 1.0 / min(self.K)

    @property
    def epsilon(self):
        """Diagonal entries of the dielectric tensor eps_s * D."""
        return tuple(self.eps_s * d for d in self.D)
