"""Uniform rectangular cell-centered grids and the fields that live on them.

Cells are indexed (i, j) with i along x and j along y; arrays are stored
(ny, nx) so row j is a horizontal strip of cells.  Faces come in two
families: x-faces (vertical, carrying the +x normal component) of shape
(ny, nx+1) and y-faces (horizontal, +y component) of shape (ny+1, nx).
Face values are always stored in the +x / +y orientation; boundary data is
exchanged with the outside world in the *outward*-normal convention and the
sign flip on the left/bottom sides is handled here.

Grids and fields are plain containers; nothing in this module mutates a grid
after construction, so instances may be shared freely between threads.
"""

import numpy as np

SIDES = ("left", "right", "bottom", "top")


class Grid:
    """Uniform nx-by-ny grid on the rectangle [0, lx] x [0, ly]."""

    def __init__(self, nx, ny, lx, ly):
        nx, ny = int(nx), int(ny)
        lx, ly = float(lx), float(ly)
        if nx < 1 or ny < 1:
            raise ValueError("grid needs nx >= 1 and ny >= 1, got (%d, %d)" % (nx, ny))
        if not (lx > 0.0 and ly > 0.0):
            raise ValueError("domain lengths must be positive, got (%g, %g)" % (lx, ly))
        self.nx = nx
        self.ny = ny
        self.lx = lx
        self.ly = ly
        self.hx = lx / nx
        self.hy = ly / ny
        self.n_cells = nx * ny
        self.cell_volume = self.hx * self.hy
        self.total_volume = self.n_cells * self.cell_volume
        # coordinates: cell centers and face planes
        self.xc = (np.arange(nx) + 0.5) * self.hx
        self.yc = (np.arange(ny) + 0.5) * self.hy
        self.xf = np.arange(nx + 1) * self.hx
        self.yf = np.arange(ny + 1) * self.hy
        for a in (self.xc, self.yc, self.xf, self.yf):
            a.flags.writeable = False

    def cell_centers(self):
        """Return (X, Y) center-coordinate arrays of shape (ny, nx)."""
        return np.meshgrid(self.xc, self.yc)

    def __repr__(self):
        return "Grid(nx=%d, ny=%d, lx=%g, ly=%g)" % (self.nx, self.ny, self.lx, self.ly)


def build_grid(nx, ny, lx, ly):
    """Build a uniform rectangular grid (the only mesh kind supported)."""
    return Grid(nx, ny, lx, ly)


def _as_plane(values, shape, what):
    values = np.asarray(values, dtype=float)
    if values.shape == (shape[0] * shape[1],):  # a solver's flat vector, row-major
        values = values.reshape(shape)
    if values.shape != shape:
        raise ValueError("%s expects shape %s, got %s" % (what, shape, values.shape))
    if not np.all(np.isfinite(values)):
        raise ValueError("%s contains non-finite entries" % what)
    return values


class CellField:
    """One scalar per cell, stored as a (ny, nx) float array."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _as_plane(values, (grid.ny, grid.nx), "CellField")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.ny, grid.nx)))

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full((grid.ny, grid.nx), float(value)))


class FaceField:
    """One normal component per face, in the +x / +y orientation."""

    def __init__(self, grid, fx, fy):
        self.grid = grid
        self.fx = _as_plane(fx, (grid.ny, grid.nx + 1), "FaceField.fx")
        self.fy = _as_plane(fy, (grid.ny + 1, grid.nx), "FaceField.fy")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.ny, grid.nx + 1)), np.zeros((grid.ny + 1, grid.nx)))

    def set_boundary_outward(self, bf):
        """Stamp outward-convention boundary values onto the boundary faces."""
        self.fx[:, 0] = -bf.left
        self.fx[:, -1] = bf.right
        self.fy[0, :] = -bf.bottom
        self.fy[-1, :] = bf.top


class BoundaryField:
    """One value per boundary face, stored per side in the outward convention."""

    def __init__(self, grid, left=None, right=None, bottom=None, top=None):
        def side(v, n, name):
            if v is None:
                return np.zeros(n)
            v = np.asarray(v, dtype=float)
            if v.ndim == 0:
                v = np.full(n, float(v))
            if v.shape != (n,):
                raise ValueError("boundary side %s expects %d values, got shape %s" % (name, n, v.shape))
            if not np.all(np.isfinite(v)):
                raise ValueError("boundary side %s contains non-finite entries" % name)
            return v

        self.grid = grid
        self.left = side(left, grid.ny, "left")
        self.right = side(right, grid.ny, "right")
        self.bottom = side(bottom, grid.nx, "bottom")
        self.top = side(top, grid.nx, "top")

    @classmethod
    def zeros(cls, grid):
        return cls(grid)

    def add_to_cells(self, plane, sign=1.0):
        """Add sign * value * face length of every boundary face to its cell of the (ny, nx) plane, in place.

        The sides are added in the order left, right, bottom, top.
        """
        g = self.grid
        plane[:, 0] += sign * self.left * g.hy
        plane[:, -1] += sign * self.right * g.hy
        plane[0, :] += sign * self.bottom * g.hx
        plane[-1, :] += sign * self.top * g.hx

    def boundary_integral(self):
        """Integral of the outward values over the whole boundary."""
        g = self.grid
        return float(
            (self.left.sum() + self.right.sum()) * g.hy
            + (self.bottom.sum() + self.top.sum()) * g.hx
        )

    def abs_integral(self):
        g = self.grid
        return float(
            (np.abs(self.left).sum() + np.abs(self.right).sum()) * g.hy
            + (np.abs(self.bottom).sum() + np.abs(self.top).sum()) * g.hx
        )

    def max_abs(self):
        return float(
            max(
                np.abs(self.left).max(),
                np.abs(self.right).max(),
                np.abs(self.bottom).max(),
                np.abs(self.top).max(),
            )
        )

    def scaled(self, factor):
        return BoundaryField(
            self.grid,
            left=self.left * factor,
            right=self.right * factor,
            bottom=self.bottom * factor,
            top=self.top * factor,
        )


def cell_divergence(grid, flux):
    """Discrete divergence: outward face fluxes times face length over cell volume."""
    net = (flux.fx[:, 1:] - flux.fx[:, :-1]) * grid.hy
    net += (flux.fy[1:, :] - flux.fy[:-1, :]) * grid.hx
    return CellField(grid, net / grid.cell_volume)
