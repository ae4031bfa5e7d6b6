"""Schedules for the tests that need time-constant data and no config file."""

from dpnpsim.mesh import CellField
from dpnpsim.schedule import BoundarySpec, Schedule


def constant_schedule(grid, sigma=None, f=None, g1=None, g2=None, rho_b=None):
    """Schedule with time-constant data; each boundary field is a dict of side values, and what is omitted is zero."""

    def spec(sides):
        return BoundarySpec(grid, **(sides or {}))

    if rho_b is None:
        rho_b = CellField.zeros(grid)
    return Schedule(spec(sigma), spec(f), (spec(g1), spec(g2)), rho_b)
