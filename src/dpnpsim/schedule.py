"""Time-dependent boundary and volume data for a simulation run.

A BoundarySpec is one boundary field: a mesh.BoundaryField of per-side
outward values (keywords mesh.SIDES) times an optional named time ramp
shared by all its sides.  Two ramp kinds exist: "const" (factor 1 for all t,
no times) and "linear" (factor 0 before t0, rising linearly to 1 at t1, then
flat).  Both have closed-form maxima and squared time integrals, which the
bounds module uses to evaluate the data norms entering the a-priori
constants exactly.  The inflows g are a pair indexed by species, g[0] = g1 and g[1] = g2.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import BoundaryField, CellField


@dataclass(frozen=True)
class Ramp:
    """Scalar time profile multiplying one boundary field."""

    kind: str = "const"
    t0: float = 0.0
    t1: float = None  # a linear ramp needs one

    def __post_init__(self):
        if self.kind not in ("const", "linear"):
            raise ValueError("ramp kind must be 'const' or 'linear', got %r" % (self.kind,))
        if self.kind == "linear" and not (self.t1 is not None and self.t1 > self.t0 >= 0.0):
            raise ValueError("linear ramp needs t1 > t0 >= 0, got t0=%s t1=%s" % (self.t0, self.t1))
        if self.kind == "const" and (self.t1 is not None or self.t0 != 0.0):
            raise ValueError("const ramp takes no times (kind 'linear' does), got t0=%s t1=%s" % (self.t0, self.t1))

    def factor(self, t):
        if self.kind == "const":
            return 1.0
        return float(np.clip((t - self.t0) / (self.t1 - self.t0), 0.0, 1.0))

    def max_factor(self, T):
        """max over [0, T] of the factor (ramps are nondecreasing)."""
        return 1.0 if self.kind == "const" else self.factor(T)

    def int_sq(self, T):
        """Integral of factor(t)^2 over [0, T], exactly."""
        if self.kind == "const":
            return float(T)
        if T <= self.t0:
            return 0.0
        width = self.t1 - self.t0
        s = min(T, self.t1) - self.t0
        rise = width * (s / width) ** 3 / 3.0
        plateau = max(0.0, T - self.t1)
        return float(rise + plateau)


class BoundarySpec:
    """Per-side outward values (scalars or per-face arrays) times a ramp.

    The side keywords are those of BoundaryField (mesh.SIDES); an absent side is zero.
    """

    def __init__(self, grid, ramp=None, **sides):
        self.base = BoundaryField(grid, **sides)
        self.ramp = ramp or Ramp()

    def at(self, t):
        f = self.ramp.factor(t)
        return self.base if f == 1.0 else self.base.scaled(f)

    def max_abs(self, T):
        return self.base.max_abs() * self.ramp.max_factor(T)

    def l2_time_boundary(self, T):
        """L2 norm over the time-boundary cylinder [0, T] x boundary."""
        areas = self.base.grid.face_area
        space_sq = sum((v**2).sum() * area for pair, area in zip(self.base.sides, areas) for v in pair)
        return float(np.sqrt(space_sq * self.ramp.int_sq(T)))


@dataclass
class StepData:
    """All data the implicit step needs, already evaluated at the new time."""

    sigma: BoundaryField
    f: BoundaryField
    g: tuple  # the inflow BoundaryField of each species
    rho_b: CellField
    sources: tuple = None  # manufactured (s1, s2) cell arrays added to the transport right sides (mms)


class Schedule:
    """Bundles the boundary fields sigma and f, the inflow pair g and the background charge."""

    def __init__(self, sigma, f, g, rho_b):
        self.sigma = sigma
        self.f = f
        self.g = g
        self.rho_b = rho_b

    def at(self, t):
        return StepData(self.sigma.at(t), self.f.at(t), tuple(g.at(t) for g in self.g), self.rho_b)

