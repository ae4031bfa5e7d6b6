"""Time-dependent boundary and volume data for a simulation run.

Boundary data is piecewise constant per side (left/right/bottom/top, outward
convention) with an optional named time ramp shared by all sides of one
field.  Two ramp kinds exist: "const" (factor 1 for all t) and "linear"
(factor 0 before t0, rising linearly to 1 at t1, then flat).  Both have
closed-form maxima and squared time integrals, which the bounds module uses
to evaluate the data norms entering the a-priori constants exactly.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import SIDES, BoundaryField, CellField


@dataclass(frozen=True)
class Ramp:
    """Scalar time profile multiplying one boundary field."""

    kind: str = "const"
    t0: float = 0.0
    t1: float = 1.0

    def __post_init__(self):
        if self.kind not in ("const", "linear"):
            raise ValueError("ramp kind must be 'const' or 'linear', got %r" % (self.kind,))
        if self.kind == "linear" and not (self.t1 > self.t0 >= 0.0):
            raise ValueError("linear ramp needs t1 > t0 >= 0, got t0=%g t1=%g" % (self.t0, self.t1))

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
    """Per-side outward values (scalars or per-face arrays) times a ramp."""

    def __init__(self, grid, left=0.0, right=0.0, bottom=0.0, top=0.0, ramp=None):
        self.grid = grid
        self.base = BoundaryField(grid, left=left, right=right, bottom=bottom, top=top)
        self.ramp = ramp or Ramp()

    def at(self, t):
        f = self.ramp.factor(t)
        return self.base if f == 1.0 else self.base.scaled(f)

    def max_abs(self, T):
        return self.base.max_abs() * self.ramp.max_factor(T)

    def l2_time_boundary(self, T):
        """L2 norm over the time-boundary cylinder [0, T] x boundary."""
        g = self.grid
        space_sq = float(
            (self.base.left**2).sum() * g.hy
            + (self.base.right**2).sum() * g.hy
            + (self.base.bottom**2).sum() * g.hx
            + (self.base.top**2).sum() * g.hx
        )
        return float(np.sqrt(space_sq * self.ramp.int_sq(T)))

    def balance(self):
        """Boundary integral of the unramped values (Darcy compatibility)."""
        return self.base.boundary_integral()


@dataclass
class StepData:
    """All data the implicit step needs, already evaluated at the new time."""

    sigma: BoundaryField
    f: BoundaryField
    g1: BoundaryField
    g2: BoundaryField
    rho_b: CellField
    sources: tuple = None  # optional (s1, s2) cell arrays added to the transport right sides


class Schedule:
    """Bundles the four boundary fields, the background charge and optional sources."""

    def __init__(self, grid, sigma, f, g1, g2, rho_b, sources=None):
        self.grid = grid
        self.sigma = sigma
        self.f = f
        self.g1 = g1
        self.g2 = g2
        self.rho_b = rho_b
        self.sources = sources  # callable t -> (s1, s2) arrays, or None

    def at(self, t):
        src = self.sources(t) if self.sources is not None else None
        return StepData(
            self.sigma.at(t),
            self.f.at(t),
            self.g1.at(t),
            self.g2.at(t),
            self.rho_b,
            sources=src,
        )


def constant_schedule(grid, sigma=None, f=None, g1=None, g2=None, rho_b=None, sources=None):
    """Schedule with time-constant data; sides default to zero."""

    def spec(v):
        if isinstance(v, BoundarySpec):
            return v
        if v is None:
            return BoundarySpec(grid)
        if isinstance(v, dict):
            return BoundarySpec(grid, **v)
        raise TypeError("expected None, dict of sides, or BoundarySpec, got %r" % (v,))

    if rho_b is None:
        rho_b = CellField.zeros(grid)
    return Schedule(grid, spec(sigma), spec(f), spec(g1), spec(g2), rho_b, sources=sources)
