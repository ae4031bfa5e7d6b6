"""Grid geometry, field containers, and the discrete divergence.

Frozen oracles: the cell count and spacings of a 4x3 grid are pure
arithmetic, and the divergence of the linear flux (x, y), its x-face plane
x and its y-face plane y, is exactly 2 in every cell because two-point
differences of a linear function are exact.
"""

import numpy as np
import pytest

from dpnpsim.mesh import (
    BoundaryField,
    CellField,
    FaceField,
    Grid,
    cell_divergence,
)


def test_grid_counts_4x3():
    g = Grid(4, 3, 2.0, 1.5)
    assert g.n_cells == 12
    assert g.h == pytest.approx((0.5, 0.5))
    # a face normal to one axis spans the other axis' spacing
    assert g.face_area == (g.h[1], g.h[0])
    assert (g.n, g.length, g.shape) == ((4, 3), (2.0, 1.5), (3, 4))
    assert g.cell_volume == pytest.approx(0.25)
    assert g.total_volume == pytest.approx(3.0)


def test_grid_coordinates_are_cell_and_face_midpoints():
    g = Grid(4, 2, 1.0, 1.0)
    assert np.allclose(g.centers[0], [0.125, 0.375, 0.625, 0.875])
    assert np.allclose(g.edges[0], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(g.centers[1], [0.25, 0.75])
    assert np.allclose(g.edges[1], [0.0, 0.5, 1.0])
    assert (g.face_shape[0], g.face_shape[1]) == ((2, 5), (3, 4))
    X, Y = g.cell_centers()
    assert X.shape == (2, 4)
    assert X[0, 1] == pytest.approx(0.375)
    assert Y[1, 0] == pytest.approx(0.75)


def test_grid_rejects_bad_dimensions():
    inf, nan = float("inf"), float("nan")
    for bad in [(0, 1, 1.0, 1.0), (1, 0, 1.0, 1.0), (1, 1, 0.0, 1.0), (1, 1, 1.0, -2.0),
                (4, 4, inf, 1.0), (4, 4, 1.0, inf), (4, 4, nan, 1.0), (4, 4, 1.0, nan),
                (2.5, 4, 1.0, 1.0), (4, 2.5, 1.0, 1.0), (True, 4, 1.0, 1.0), (4, True, 1.0, 1.0),
                ("8", 4, 1.0, 1.0), (4, "8", 1.0, 1.0),
                (4, 4, "1", "2"), (4, 4, 1.0, "2"), (4, 4, True, 1.0), (4, 4, 1.0, True), (4, 4, 10**400, 1.0)]:
        with pytest.raises(ValueError):
            Grid(*bad)
    # float() would cast "1" and True to a length of 1, and raise OverflowError on the int past the largest float
    for lx, shown in (("1", "'1'"), (True, "True"), (10**400, "1" + "0" * 400)):
        with pytest.raises(ValueError, match=r"domain lengths must be positive and finite, got \(%s, 1\)" % shown):
            Grid(4, 4, lx, 1.0)
    # numpy real scalars are lengths, taken as floats
    length = Grid(4, 4, np.float32(2.0), np.int64(1)).length
    assert length == (2.0, 1.0) and all(type(v) is float for v in length)
    # int() would cast these to a 2x4, a 1x4 and an 8x4 grid
    for nx in (2.5, True, "8"):
        with pytest.raises(ValueError, match=r"grid needs integers nx >= 1 and ny >= 1, got \(%r, 4\)" % nx):
            Grid(nx, 4, 1.0, 1.0)
    # numpy integers are counts, taken as ints
    n = Grid(np.int64(8), np.int32(4), 1.0, 1.0).n
    assert n == (8, 4) and all(type(v) is int for v in n)
    # an infinite length would give h = inf and edges of 0 * inf
    with pytest.raises(ValueError, match=r"domain lengths must be positive and finite, got \(inf, 1\)"):
        Grid(4, 4, inf, 1.0)


def test_cell_field_shape_and_integral():
    g = Grid(3, 2, 1.0, 1.0)
    f = CellField.full(g, 2.0)
    assert f.values.shape == (2, 3)
    assert f.values.sum() * g.cell_volume == pytest.approx(2.0)
    # size-matching input is reshaped (solvers hand back flat vectors)
    assert CellField(g, np.arange(6.0)).values.shape == (2, 3)
    with pytest.raises(ValueError):
        CellField(g, np.ones((2, 4)))
    with pytest.raises(ValueError):
        CellField(g, np.full((2, 3), np.nan))


def test_cell_field_from_function_samples_cell_centers():
    # a function of the cell_centers arrays lands on cell (i, j) at values[j, i]
    g = Grid(2, 2, 1.0, 1.0)
    X, Y = g.cell_centers()
    f = CellField(g, X + 10.0 * Y)
    assert f.values[0, 0] == pytest.approx(0.25 + 2.5)
    assert f.values[1, 1] == pytest.approx(0.75 + 7.5)


def test_divergence_of_linear_flux_is_exactly_two():
    g = Grid(5, 4, 1.25, 2.0)
    nx, ny = g.n
    x_faces = np.tile(g.edges[0], (ny, 1))
    y_faces = np.tile(g.edges[1][:, None], (1, nx))
    div = cell_divergence(g, FaceField(g, x_faces, y_faces))
    assert np.allclose(div.values, 2.0, atol=1e-14)


def test_boundary_field_adds_face_flux_to_boundary_cells():
    rng = np.random.default_rng(5)
    for nx, ny in [(4, 3), (1, 3), (4, 1), (1, 1)]:
        g = Grid(nx, ny, 2.0, 1.5)
        bf = BoundaryField(
            g, left=rng.normal(size=ny), right=rng.normal(size=ny), bottom=rng.normal(size=nx), top=rng.normal(size=nx)
        )
        base = rng.normal(size=(ny, nx))
        added, subtracted = base.copy(), base.copy()
        bf.add_to_cells(added)
        bf.add_to_cells(subtracted, -1.0)
        # the same four side updates, in the order left, right, bottom, top,
        # written out: adding -v equals subtracting v bit for bit
        plus, minus = base.copy(), base.copy()
        (left, right), (bottom, top) = bf.sides
        hx, hy = g.h
        for plane, op in ((plus, np.add), (minus, np.subtract)):
            for index, values, length in (
                ((slice(None), 0), left, hy),
                ((slice(None), -1), right, hy),
                ((0, slice(None)), bottom, hx),
                ((-1, slice(None)), top, hx),
            ):
                plane[index] = op(plane[index], values * length)
        assert np.array_equal(added, plus) and np.array_equal(subtracted, minus)
        # the net addition is the boundary integral
        assert (added - base).sum() == pytest.approx(bf.boundary_integral())


def test_divergence_of_constant_flux_is_zero():
    g = Grid(4, 4, 1.0, 3.0)
    div = cell_divergence(g, FaceField(g, np.full((4, 5), 0.7), np.full((5, 4), -1.3)))
    assert np.allclose(div.values, 0.0, atol=1e-14)


def test_boundary_field_broadcast_and_integrals():
    g = Grid(2, 3, 1.0, 1.5)  # hy = 0.5, hx = 0.5
    bf = BoundaryField(g, left=2.0, right=np.array([1.0, 1.0, 1.0]), top=-1.0)
    # integral = sum over sides of value * face length
    assert bf.boundary_integral() == pytest.approx(2.0 * 3 * 0.5 + 1.0 * 3 * 0.5 - 1.0 * 2 * 0.5)
    assert bf.abs_integral() == pytest.approx(2.0 * 1.5 + 1.0 * 1.5 + 1.0 * 1.0)
    assert bf.max_abs() == pytest.approx(2.0)
    assert bf.scaled(0.5).max_abs() == pytest.approx(1.0)


def test_boundary_field_rejects_wrong_length():
    g = Grid(2, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        BoundaryField(g, left=np.ones(2))  # left needs ny = 3 values
    with pytest.raises(ValueError, match="boundary side top contains non-finite entries"):
        BoundaryField(g, top=[1.0, np.nan])


def test_fields_reject_a_transposed_plane():
    # only a flat vector of the right length is reshaped (row-major); a 2-D
    # array of the wrong shape is refused even when its size matches
    g = Grid(3, 2, 1.0, 1.0)
    with pytest.raises(ValueError, match="expects shape"):
        CellField(g, np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError, match="expects shape"):
        CellField(g, np.arange(6.0).reshape(6, 1))
    assert np.array_equal(CellField(g, np.arange(6.0)).values, [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
    g = Grid(3, 1, 1.0, 1.0)  # the x-face plane is (1, 4), the y-face plane (2, 3)
    with pytest.raises(ValueError, match="FaceField plane 0 expects shape"):
        FaceField(g, np.zeros((4, 1)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="FaceField plane 1 expects shape"):
        FaceField(g, np.zeros((1, 4)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="one plane per axis"):
        FaceField(g, np.zeros((1, 4)))
    ff = FaceField(g, np.arange(4.0), np.arange(6.0))
    assert ff.planes[0].shape == (1, 4) and np.array_equal(ff.planes[1], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])


def test_face_field_outward_boundary_round_trip():
    """Outward boundary convention: left/bottom values flip sign in storage.

    Stored fluxes are +axis oriented; a positive outward value on the left
    side means flux pointing in -x, so the stored entry is its negation.
    """
    g = Grid(3, 2, 1.0, 1.0)
    ff = FaceField.zeros(g)
    bf = BoundaryField(g, left=1.0, right=2.0, bottom=3.0, top=4.0)
    ff.set_boundary_outward(bf)
    x_faces, y_faces = ff.planes
    assert np.allclose(x_faces[:, 0], -1.0)
    assert np.allclose(x_faces[:, -1], 2.0)
    assert np.allclose(y_faces[0, :], -3.0)
    assert np.allclose(y_faces[-1, :], 4.0)
    # the boundary faces carry the outward flux and nothing else
    assert cell_divergence(g, ff).values.sum() * g.cell_volume == pytest.approx(bf.boundary_integral())


def test_divergence_theorem_random_flux():
    """sum over cells of div * vol equals the outward boundary integral."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        nx, ny = rng.integers(1, 9, size=2)
        g = Grid(int(nx), int(ny), float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        ff = FaceField(g, rng.normal(size=g.face_shape[0]), rng.normal(size=g.face_shape[1]))
        total = cell_divergence(g, ff).values.sum() * g.cell_volume
        x_faces, y_faces = ff.planes
        outward = BoundaryField(g, left=-x_faces[:, 0], right=x_faces[:, -1], bottom=-y_faces[0, :], top=y_faces[-1, :])
        assert total == pytest.approx(outward.boundary_integral(), abs=1e-12)
