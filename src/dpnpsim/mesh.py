"""Uniform rectangular cell-centered grids and the fields that live on them.

Every per-direction quantity is a tuple indexed by physical axis, 0 = x and
1 = y: a grid's counts, lengths, spacings, coordinates and face measures, a
FaceField's planes and a BoundaryField's (low, high) side pairs.  Arrays
are stored (ny, nx), the physical axes in reverse order: axis a is array
axis -1 - a, cell (i, j) sits at [j, i] and at flat row-major index
j * nx + i, and the face plane of axis a has one more entry along a.  Face
values are stored in the +axis orientation; boundary data is exchanged in
the *outward*-normal convention (the low sides flip sign here).  SIDES names
the sides for the config and the BoundaryField keywords.

Grids and fields are plain containers; nothing in this module mutates a grid
after construction, so instances may be shared freely between threads.
"""

import functools
import math
import numbers
import operator

import numpy as np

SIDES = ("left", "right", "bottom", "top")  # the low and high side of x, then of y
_ENDS = ((0, -1.0), (-1, 1.0))  # per (low, high) side: the index of its boundary layer and its outward sign
_ALL = slice(None)


class Grid:
    """Uniform nx-by-ny grid on the rectangle [0, lx] x [0, ly].

    Per axis a: n[a] cells of spacing h[a] with centers[a] and face
    coordinates edges[a]; face_area[a], the measure of a face normal to a, is
    the product of the other spacings; the flat cell index steps by stride[a]
    along a, and face_shape[a] is the shape of the face plane of a.
    """

    def __init__(self, nx, ny, lx, ly):
        # integer counts: int() would cast 2.5 and "8", and operator.index would take a bool as 0 or 1
        if not all(hasattr(n, "__index__") and not isinstance(n, bool) and n >= 1 for n in (nx, ny)):
            raise ValueError("grid needs integers nx >= 1 and ny >= 1, got (%r, %r)" % (nx, ny))
        nx, ny = operator.index(nx), operator.index(ny)
        # real lengths: float() would cast "1" and True, and raise OverflowError on an int past the largest float
        try:
            ok = all(isinstance(l, numbers.Real) and not isinstance(l, bool) and 0.0 < float(l) < math.inf for l in (lx, ly))
        except OverflowError:
            ok = False
        if not ok:
            shown = ("%g" % l if isinstance(l, float) else repr(l) for l in (lx, ly))
            raise ValueError("domain lengths must be positive and finite, got (%s, %s)" % tuple(shown))
        lx, ly = float(lx), float(ly)
        self.n = (nx, ny)
        self.length = (lx, ly)
        d = len(self.n)
        self.axes = range(d)
        self.h = tuple(l / n for l, n in zip(self.length, self.n))
        self.shape = self.n[::-1]  # of a cell plane
        self.n_cells = math.prod(self.n)
        self.cell_volume = math.prod(self.h)
        self.total_volume = self.n_cells * self.cell_volume
        self.face_area = tuple(math.prod(self.h[:a] + self.h[a + 1:]) for a in self.axes)
        self.stride = tuple(math.prod(self.n[:a]) for a in self.axes)
        self.face_shape = tuple(self.shape[:d - 1 - a] + (n + 1,) + self.shape[d - a:] for a, n in enumerate(self.n))
        self.centers = tuple((np.arange(n) + 0.5) * h for n, h in zip(self.n, self.h))
        self.edges = tuple(np.arange(n + 1) * h for n, h in zip(self.n, self.h))
        for c in self.centers + self.edges:
            c.flags.writeable = False

    def along(self, a, index):
        """The key of a cell or face array that applies index along axis a and keeps the other axes whole."""
        return (_ALL,) * (len(self.n) - 1 - a) + (index,) + (_ALL,) * a

    def diff(self, values, a):
        """Differences of neighbouring entries of a cell or face array along axis a."""
        return values[self.along(a, slice(1, None))] - values[self.along(a, slice(None, -1))]

    def transmissibility(self, coef):
        """Per axis a, coef[a] * face_area[a] / h[a]: the two-point weight of a face normal to a for that coefficient."""
        return tuple(c * area / h for c, area, h in zip(coef, self.face_area, self.h))

    def meshgrid(self, vectors, sparse=False):
        """np.meshgrid in storage order: vectors[a], one entry per cell or face along axis a, laid along its array axis."""
        return np.meshgrid(*vectors[::-1], indexing="ij", sparse=sparse)[::-1]

    def cell_centers(self):
        """Return (X, Y) center-coordinate arrays of shape (ny, nx)."""
        return self.meshgrid(self.centers)

    def __repr__(self):
        return "Grid(nx=%d, ny=%d, lx=%g, ly=%g)" % (self.n + self.length)


def _as_plane(values, shape, what):
    values = np.asarray(values, dtype=float)
    if values.shape == (math.prod(shape),):  # a solver's flat vector, row-major
        values = values.reshape(shape)
    if values.shape != shape:
        raise ValueError("%s expects shape %s, got %s" % (what, shape, values.shape))
    if not np.isfinite(values).all():
        raise ValueError("%s contains non-finite entries" % what)
    return values


class CellField:
    """One scalar per cell, stored as a (ny, nx) float array."""

    def __init__(self, grid, values):
        self.grid = grid
        self.values = _as_plane(values, grid.shape, "CellField")

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros(grid.shape))

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)))


class FaceField:
    """One normal component per face: planes[a] on the faces normal to axis a, in the +axis orientation."""

    def __init__(self, grid, *planes):
        if len(planes) != len(grid.n):
            raise ValueError("FaceField expects one plane per axis, got %d" % len(planes))
        self.grid = grid
        self.planes = tuple(_as_plane(p, grid.face_shape[a], "FaceField plane %d" % a) for a, p in enumerate(planes))

    @classmethod
    def zeros(cls, grid):
        field = cls.__new__(cls)  # zero planes of the face shapes need no check
        field.grid, field.planes = grid, tuple(np.zeros(shape) for shape in grid.face_shape)
        return field

    def set_boundary_outward(self, bf):
        """Stamp outward-convention boundary values onto the boundary faces."""
        for a, pair in enumerate(bf.sides):
            for (end, outward), values in zip(_ENDS, pair):
                self.planes[a][self.grid.along(a, end)] = outward * values


def _side(values, n, name):
    """One side's values as a read-only copy."""
    values = np.zeros(n) if values is None else np.array(values, dtype=float)
    if values.ndim == 0:
        values = np.full(n, float(values))
    if values.shape != (n,):
        raise ValueError("boundary side %s expects %d values, got shape %s" % (name, n, values.shape))
    if not np.all(np.isfinite(values)):
        raise ValueError("boundary side %s contains non-finite entries" % name)
    values.flags.writeable = False
    return values


class BoundaryField:
    """One value per boundary face, in the outward convention: sides[a] is the (low, high) pair of axis a.

    Each keyword of SIDES takes a scalar or one value per face of its side; an absent side is zero.
    The sides are read-only copies, so a field never changes after construction.
    """

    def __init__(self, grid, left=None, right=None, bottom=None, top=None):
        given = (left, right, bottom, top)
        self.grid = grid
        self.sides = tuple(
            tuple(_side(given[2 * a + k], grid.n_cells // grid.n[a], SIDES[2 * a + k]) for k in (0, 1))
            for a in grid.axes
        )

    def add_to_cells(self, plane, sign=1.0):
        """Add sign * value * face measure of every boundary face to its cell of the (ny, nx) plane, in place.

        sign is +1 or -1.  The sides are added in the order of SIDES: left, right, bottom, top.
        """
        for key, term in self._cell_terms:
            plane[key] += sign * term  # exact for sign = +-1: a + (-t) is a - t

    @functools.cached_property
    def _cell_terms(self):
        """Per side, in the order of SIDES, the key of its cells and value * face measure; computed once per field."""
        g = self.grid
        return [
            (g.along(a, end), values * g.face_area[a])
            for a, pair in enumerate(self.sides)
            for (end, _), values in zip(_ENDS, pair)
        ]

    def _integral(self, f):
        sums = ((f(low).sum() + f(high).sum()) * area for (low, high), area in zip(self.sides, self.grid.face_area))
        return float(functools.reduce(operator.add, sums))

    def boundary_integral(self):
        """Integral of the outward values over the whole boundary."""
        return self._integral(lambda values: values)

    def abs_integral(self):
        return self._integral(np.abs)

    def max_abs(self):
        return float(max(np.abs(values).max() for pair in self.sides for values in pair))

    def scaled(self, factor):
        return BoundaryField(self.grid, *(values * factor for pair in self.sides for values in pair))


def cell_divergence(grid, flux):
    """Discrete divergence: outward face fluxes times face measure over cell volume."""
    net = functools.reduce(operator.add, (grid.diff(p, a) * grid.face_area[a] for a, p in enumerate(flux.planes)))
    return CellField(grid, net / grid.cell_volume)
