"""Sparse storage, two-point-flux assembly, and the two linear solvers.

Frozen oracles: the Neumann Laplacian of
a 1x3 strip and of a 2x1 pair has hand-checkable zero-mean solutions; random
Neumann grids are cross-checked against the dense minimum-norm solution
(numpy.linalg.lstsq) and random nonsymmetric systems against dense
numpy.linalg.solve; two-point matrices on a 2x2 grid and a 1x3 strip are
stamped by hand, and on random grids (strips and single cells included)
against a dense stamp written here.  The dense view of a matrix is
matrix_helpers.to_dense, which reads the diagonals directly.

Contract details under test: reported residuals are true residuals
||b - A x||, failures raise SolverError carrying the report, a NaN or
infinite residual is never accepted, b = 0
short-circuits to x = 0 after zero iterations, and BiCGStab stops at its
10 n iteration cap and after a fixed number of breakdown restarts.  The
generic BiCGStab tests precondition with the diagonal basis of jacobi(A),
which applies x / diag(A); the cosine basis is checked against the dense
drift-free two-point matrix, and it makes a drift-free transport solve
exact in one iteration.  A stacked two-species solve meets each block's
own target even when the right sides differ by 1e8 in norm, and a start
that already meets the target returns after 0 iterations.  A right side of
entries below 1e-154, whose squares underflow, is solved and not read as 0,
and a two-point matrix whose weights overflow fails as a solve.
"""

import warnings

import numpy as np
import pytest

from dpnpsim.gauss import fv_laplacian
from dpnpsim.linalg import (
    SolveReport,
    SolverError,
    SparseMatrix,
    cosine_basis,
    solve_nonsym,
    solve_spd,
    two_point_matrix,
)
from dpnpsim.mesh import BoundaryField, FaceField, Grid
from dpnpsim.params import PhysParams
from dpnpsim.transport import SOLVE_TOL, _species_system
from matrix_helpers import to_dense


def jacobi(A):
    """The diagonal basis ((I_1, I_n), 1 / diag(A)): its preconditioner divides by the diagonal (1 where it is 0)."""
    d = np.diag(to_dense(A)).copy()
    d[d == 0.0] = 1.0
    return (np.eye(1), np.eye(d.shape[0])), (1.0 / d)[:, None]


def laplacian_1d(n, shift=0.0):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i)
        cols.append(i)
        vals.append(2.0 + shift)
        if i > 0:
            rows.append(i)
            cols.append(i - 1)
            vals.append(-1.0)
        if i < n - 1:
            rows.append(i)
            cols.append(i + 1)
            vals.append(-1.0)
    return SparseMatrix.from_coo(n, rows, cols, vals)


def test_sparse_matrix_round_trip_and_matvec():
    A = SparseMatrix.from_coo(3, [0, 0, 1, 1], [0, 2, 1, 1], [1.0, 2.0, 3.0, 4.0])
    assert A.diagonals.shape == (len(A.offsets), 3)
    # duplicate (1, 1) entries are summed
    assert np.allclose(to_dense(A), [[1.0, 0.0, 2.0], [0.0, 7.0, 0.0], [0.0, 0.0, 0.0]])
    assert np.allclose(A @ np.array([1.0, 1.0, 1.0]), [3.0, 7.0, 0.0])
    assert np.allclose(np.diag(to_dense(SparseMatrix.from_coo(2, [0, 1], [0, 1], [5.0, 6.0]))), [5.0, 6.0])
    # shuffled and duplicated columns come out canonical: one diagonal per
    # distinct offset, offsets strictly increasing, duplicates summed
    B = SparseMatrix.from_coo(
        4, [0, 0, 0, 0, 1, 1, 1], [3, 1, 3, 0, 2, 0, 2], [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    )
    assert B.offsets == (-1, 0, 1, 3)
    assert np.count_nonzero(B.diagonals) == 5
    dense = [[8.0, 2.0, 0.0, 5.0], [32.0, 0.0, 80.0, 0.0], [0.0] * 4, [0.0] * 4]
    assert np.array_equal(to_dense(B), dense)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(B @ x, np.array(dense) @ x)
    assert np.array_equal(B.abs_row_sums, [15.0, 112.0, 0.0, 0.0])


def test_sparse_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(1, [0], [0], [np.nan])
    with pytest.raises(ValueError):
        SparseMatrix((0, 1), [[1.0, 2.0], [np.inf, 0.0]])
    # from_coo checks its index ranges itself: a row or column outside [0, n)
    for rows, cols in (([0], [5]), ([0], [-1]), ([2], [0]), ([-1], [1])):
        with pytest.raises(ValueError, match="index"):
            SparseMatrix.from_coo(2, rows, cols, [1.0])


def test_two_point_matrix_by_hand():
    # cells numbered row-major: [[0, 1], [2, 3]]; x-faces (0,1), (2,3) and
    # y-faces (0,2), (1,3); face (a, b) adds w_minus at (a, a) and w_plus at
    # (b, b), and -w_plus at (a, b) and -w_minus at (b, a)
    A = two_point_matrix(
        Grid(2, 2, 1.0, 1.0),
        0.5,
        (
            (np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])),
            (np.array([[5.0, 6.0]]), np.array([[7.0, 8.0]])),
        ),
    )
    assert np.array_equal(
        to_dense(A),
        [[6.5, -3.0, -7.0, 0.0], [-1.0, 9.5, 0.0, -8.0], [-5.0, 0.0, 9.5, -4.0], [0.0, -6.0, -2.0, 12.5]],
    )
    # a vertical strip has y-faces only: the x weights stamp nothing
    B = two_point_matrix(Grid(1, 3, 1.0, 3.0), 1.0, ((9.0, 9.0), (np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]]))))
    assert np.array_equal(to_dense(B), [[2.0, -3.0, 0.0], [-1.0, 6.0, -4.0], [0.0, -2.0, 5.0]])


def _dense_stamp(grid, diag, wx, wy):
    """The two-point matrix stamped face by face into a dense array."""
    nx, ny = grid.n
    dense = np.diag(np.full(grid.n_cells, diag))
    faces = [(j * nx + i, j * nx + i + 1, wx[0][j, i], wx[1][j, i]) for j in range(ny) for i in range(nx - 1)]
    faces += [(j * nx + i, (j + 1) * nx + i, wy[0][j, i], wy[1][j, i]) for j in range(ny - 1) for i in range(nx)]
    for a, b, w_minus, w_plus in faces:
        dense[a, a] += w_minus
        dense[a, b] -= w_plus
        dense[b, b] += w_plus
        dense[b, a] -= w_minus
    return dense


def test_two_point_matrix_matches_dense_stamp_on_random_grids():
    # strips and single cells are included: on an nx = 1 grid the -1 and +1
    # diagonals coincide with -nx and +nx, and on ny = 1 the +-nx diagonals
    # lie wholly outside the matrix
    rng = np.random.default_rng(17)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 7), (7, 1), (2, 2)] + [tuple(rng.integers(1, 9, size=2)) for _ in range(14)]
    for nx, ny in shapes:
        g = Grid(int(nx), int(ny), 1.0, 1.0)
        diag = float(rng.uniform(0.0, 2.0))
        wx = tuple(rng.uniform(0.0, 3.0, size=(ny, nx - 1)) for _ in range(2))
        wy = tuple(rng.uniform(0.0, 3.0, size=(ny - 1, nx)) for _ in range(2))
        A = two_point_matrix(g, diag, (wx, wy))
        dense = _dense_stamp(g, diag, wx, wy)
        assert A.offsets == (-nx, -1, 0, 1, nx)
        # the stamp adds a cell's face weights in another order, so the main
        # diagonal may differ in the last bits; every other entry is exact
        assert np.allclose(to_dense(A), dense, rtol=4e-15, atol=0.0)
        off = ~np.eye(g.n_cells, dtype=bool)
        assert np.array_equal(to_dense(A)[off], dense[off])
        x = rng.normal(size=g.n_cells)
        assert np.allclose(A @ x, dense @ x, rtol=1e-13, atol=1e-13)
        assert A.abs_row_sums == pytest.approx(np.abs(dense).sum(axis=1), rel=1e-15)
        # A @ x sums each row in column order, starting from zero
        in_order = np.zeros(g.n_cells)
        for i, row in enumerate(to_dense(A)):
            for j in np.flatnonzero(row):
                in_order[i] += row[j] * x[j]
        assert np.array_equal(A @ x, in_order)


def test_solve_spd_tridiagonal_hand_solution():
    # the 1x3 Neumann strip [[1,-1,0],[-1,2,-1],[0,-1,1]] x = (1, 1, -2) has
    # the zero-mean solution (4/3, 1/3, -5/3): x0 - x1 = 1 and x2 - x1 = -2
    A, basis = fv_laplacian(Grid(3, 1, 3.0, 1.0), (1.0, 1.0))
    x, rep = solve_spd(A, np.array([1.0, 1.0, -2.0]), 1e-10, basis)
    assert np.allclose(x, [4.0 / 3.0, 1.0 / 3.0, -5.0 / 3.0], atol=1e-9)
    assert rep.residual <= 1e-10


def test_solve_spd_zero_rhs_short_circuit():
    A, basis = fv_laplacian(Grid(5, 1, 1.0, 1.0), (1.0, 1.0))
    x, rep = solve_spd(A, np.zeros(5), 1e-10, basis)
    assert np.all(x == 0.0)
    assert rep == SolveReport(0, 0.0)


def test_solve_spd_matches_dense_solver():
    rng = np.random.default_rng(11)
    for _ in range(25):
        nx, ny = (int(v) for v in rng.integers(1, 13, size=2))
        g = Grid(nx, ny, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        A, basis = fv_laplacian(g, (float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0))))
        dense = to_dense(A)
        b = rng.normal(size=g.n_cells)
        b -= b.mean()
        x, rep = solve_spd(A, b, 1e-12, basis)
        assert np.allclose(x, np.linalg.lstsq(dense, b, rcond=None)[0], atol=1e-8)
        # reported residual is the true residual
        assert rep.residual == pytest.approx(np.linalg.norm(b - dense @ x), abs=1e-13)


def test_solve_spd_raises_on_rhs_off_the_range():
    # the Neumann operator annihilates constants, so its range is the zero-sum
    # vectors: no x reaches a right side with a nonzero sum
    A, basis = fv_laplacian(Grid(8, 5, 1.0, 1.0), (1.0, 1.0))
    b = np.ones(40)
    with pytest.raises(SolverError) as err:
        solve_spd(A, b, 1e-14, basis)
    rep = err.value.report
    assert isinstance(rep, SolveReport)
    assert rep.iterations == 1
    assert rep.residual == pytest.approx(np.linalg.norm(b), rel=1e-12)


def test_solve_nonsym_raises_on_rhs_off_the_range():
    # on the same singular system the BiCGStab iterate grows without bound,
    # and with it the rounding floor 4 eps ||A||_inf ||x||; a residual of
    # ||b|| or more, which x = 0 already attains, is still never accepted
    A, _ = fv_laplacian(Grid(8, 5, 1.0, 1.0), (1.0, 1.0))
    b = np.ones(40)
    with pytest.raises(SolverError) as err:
        solve_nonsym(A, b, 1e-14, jacobi(A), np.zeros_like(b))
    assert err.value.report.residual >= np.linalg.norm(b)


@pytest.mark.parametrize("solver", ["spd", "nonsym"])
@pytest.mark.parametrize("case", ["nan", "overflow"])
def test_nonfinite_residual_is_never_accepted(case, solver):
    # a NaN residual fails every comparison with the target, and a zero-sum b
    # of entries +-1e308 overflows ||b||, so the target tol ||b|| is inf too:
    # both solvers must still raise rather than return a non-finite residual,
    # and the overflow raises no warning on the way
    A, basis = fv_laplacian(Grid(4, 2, 1.0, 1.0), (1.0, 1.0))
    b = np.zeros(8)
    if case == "nan":
        b[0] = np.nan
    else:
        b[::2], b[1::2] = 1e308, -1e308
    with warnings.catch_warnings(), pytest.raises(SolverError) as err:
        warnings.simplefilter("error")
        if solver == "spd":
            solve_spd(A, b, 1e-10, basis)
        else:
            solve_nonsym(A, b, 1e-10, basis, np.zeros_like(b))
    assert not np.isfinite(err.value.report.residual)


@pytest.mark.parametrize("solver", ["spd", "nonsym"])
def test_tiny_right_side_is_solved_not_read_as_zero(solver):
    # every entry below 1e-154: the squares in sqrt(b @ b) underflow to 0, so
    # each block is scaled up by a power of two before its norm is taken; x
    # meets the target, and the report is the true residual scaled back
    if solver == "spd":
        A, basis = fv_laplacian(Grid(3, 1, 3.0, 1.0), (1.0, 1.0))
        b = np.array([1.0, 1.0, -2.0]) * 1e-170
        x, rep = solve_spd(A, b, 1e-12, basis)
        expected = np.linalg.lstsq(to_dense(A), b, rcond=None)[0]
    else:
        A = laplacian_1d(3)
        b = np.array([1.0, 2.0, 3.0]) * 1e-170
        x, rep = solve_nonsym(A, b, 1e-12, jacobi(A), np.zeros_like(b))
        expected = np.linalg.solve(to_dense(A), b)
    assert rep.iterations > 0
    assert np.allclose(x, expected, rtol=1e-10, atol=0.0)
    bnorm = 1e-170 * np.linalg.norm(1e170 * b)
    assert rep.residual == pytest.approx(1e-170 * np.linalg.norm(1e170 * (b - to_dense(A) @ x)), rel=1e-12)
    assert rep.residual <= 1e-12 * bnorm


def test_overflowing_two_point_matrix_fails_as_a_solve():
    # a face weight that overflows the diagonal sum makes the system unsolvable: SolverError, no warning
    with warnings.catch_warnings(), pytest.raises(SolverError, match="two-point matrix values must be finite") as err:
        warnings.simplefilter("error")
        two_point_matrix(Grid(2, 2, 1.0, 1.0), 0.0, ((1e308, 1e308), (1e308, 1e308)))
    assert err.value.report == SolveReport(0, np.inf)


def test_solve_nonsym_matches_dense_solver():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        dense = rng.normal(size=(n, n))
        dense[np.abs(dense) < 1.0] = 0.0
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.uniform(1.0, 2.0, size=n))
        rows, cols = np.nonzero(dense)
        A = SparseMatrix.from_coo(n, rows, cols, dense[rows, cols])
        b = rng.normal(size=n)
        x, rep = solve_nonsym(A, b, 1e-12, jacobi(A), np.zeros_like(b))
        assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-7)
        assert rep.residual == pytest.approx(np.linalg.norm(b - dense @ x), abs=1e-12)


def test_solve_nonsym_zero_rhs_and_cap():
    A = laplacian_1d(4, shift=0.5)
    x, rep = solve_nonsym(A, np.zeros(4), 1e-10, jacobi(A), np.zeros(4))
    assert np.all(x == 0.0) and rep == SolveReport(0, 0.0)
    # a singular 4x4 system with b off its range: BiCGStab neither converges
    # nor breaks down, so the cap of 10 n iterations ends it
    dense = np.array([[-1.0, 2.0, 1.0, -1.0], [-2.0, 0.0, -2.0, 1.0], [-2.0, 0.0, 1.0, 1.0], [1.0, -2.0, 1.0, 1.0]])
    rows, cols = np.nonzero(dense)
    A = SparseMatrix.from_coo(4, rows, cols, dense[rows, cols])
    with pytest.raises(SolverError, match="within 40 iterations") as err:
        solve_nonsym(A, np.array([0.0, 0.0, 1.0, 0.0]), 1e-12, jacobi(A), np.zeros(4))
    assert err.value.report.iterations == 40
    # unpreconditioned, the iterate grows to ~1e14, which would lift the
    # rounding floor 4 eps ||A||_inf ||x|| past its true residual 0.44 ||b||;
    # the floor is capped at sqrt(eps) ||b||, so the solve still raises
    with pytest.raises(SolverError) as err:
        solve_nonsym(A, np.array([0.0, 0.0, 1.0, 0.0]), 1e-12, ((np.eye(1), np.eye(4)), np.ones((4, 1))), np.zeros(4))
    assert err.value.report.residual > 0.1


def test_breakdown_restarts_share_one_cap():
    """BiCGStab gives up after a fixed number of breakdown restarts.

    On the skew matrix [[0, 1], [-1, 0]] with b = (1, 0) BiCGStab meets
    r_hat.v = 0 on every restart from x = 0.  Each breakdown costs one
    iteration, so a cap of five restarts ends the solve in the sixth
    iteration, still at x = 0.
    """
    A = SparseMatrix.from_coo(2, [0, 1], [1, 0], [1.0, -1.0])
    b = np.array([1.0, 0.0])
    with pytest.raises(SolverError) as err:
        solve_nonsym(A, b, 1e-10, jacobi(A), np.zeros_like(b))
    assert err.value.report == SolveReport(6, np.linalg.norm(b))


def test_cosine_basis_diagonalizes_the_drift_free_operator():
    rng = np.random.default_rng(5)
    for _ in range(20):
        nx, ny = (int(v) for v in rng.integers(1, 13, size=2))
        g = Grid(nx, ny, float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0)))
        tx, ty, shift = (float(v) for v in rng.uniform(0.1, 10.0, size=3))
        (qx, qy), inv_eig = cosine_basis(g, (tx, ty), shift)
        q = np.kron(qy, qx)  # row-major cell order: column l * nx + k is mode (l, k)
        dense = to_dense(two_point_matrix(g, shift, ((tx, tx), (ty, ty))))
        assert np.abs(q @ np.diag(1.0 / inv_eig.ravel()) @ q.T - dense).max() <= 1e-12


def test_cosine_basis_is_memoized_and_read_only():
    g = Grid(5, 3, 1.0, 1.0)
    basis = cosine_basis(g, (1.5, 0.5), 2.0)
    again = cosine_basis(g, (1.5, 0.5), 2.0)
    arrays = (*basis[0], basis[1])
    assert all(a is b for a, b in zip(arrays, (*again[0], again[1])))
    assert not any(a.flags.writeable for a in arrays)
    # every basis of the grid shares the modes of its axes
    other = cosine_basis(g, (0.5, 3.0), 7.0)
    assert all(a is b for a, b in zip(basis[0], other[0]))
    # at shift 0 the constant mode is the kernel and is inverted to 0
    assert cosine_basis(g, (1.5, 0.5), 0.0)[1][0, 0] == 0.0


def test_drift_free_transport_solve_takes_one_iteration():
    # with zero drift each species block of the SG matrix is exactly the
    # operator its basis diagonalizes, so the first preconditioned step
    # solves the stacked system
    g = Grid(12, 9, 1.0, 0.8)
    params = PhysParams(theta=0.8, D=(1.0, 2.0), kappa=0.5, z1=2, z2=-1, exchange_rate=0.1)
    rng = np.random.default_rng(3)
    zero = FaceField.zeros(g)
    A, rhs, basis = _species_system(
        g, params, params.z, rng.uniform(0.0, 1.0, (2, 9, 12)), zero, zero,
        (BoundaryField(g, left=0.02), BoundaryField(g)), 0.005, rng.uniform(0.0, 0.1, (2, 9, 12)), None,
    )
    x, rep = solve_nonsym(A, rhs, 1e-14, basis, np.zeros_like(rhs))
    assert rep.iterations == 1
    assert rep.residual == pytest.approx(max(np.linalg.norm(rhs - (A @ x), axis=1)), abs=1e-15)
    assert np.allclose(x.ravel(), np.linalg.solve(to_dense(A), rhs.ravel()), rtol=1e-12, atol=0.0)


def _stacked_transport_system(scale_c2):
    """A drifting two-species SG system on 10x8 as step_transport builds it, species 2's data scaled by scale_c2."""
    g = Grid(10, 8, 1.0, 0.8)
    params = PhysParams(theta=0.8, D=(1.0, 2.0), kappa=2.0, z1=1, z2=-2, exchange_rate=0.1)
    rng = np.random.default_rng(8)
    q, e = (FaceField(g, *(rng.uniform(-3.0, 3.0, size=shape) for shape in g.face_shape)) for _ in range(2))
    scale = np.array([1.0, scale_c2])[:, None, None]
    c_prev = rng.uniform(0.5, 1.0, (2, 8, 10)) * scale
    production = 0.1 * rng.uniform(0.5, 1.0, (2, 8, 10)) * scale
    return _species_system(g, params, params.z, c_prev, q, e, (BoundaryField(g, left=0.02), BoundaryField(g)), 0.002,
                           production, None)


def test_stacked_solve_meets_each_blocks_own_target():
    # the right sides differ by 1e8 in norm, so a stop on the joint residual
    # norm would leave species 2 unsolved; each block must meet
    # SOLVE_TOL ||b_l|| itself, and agree with its block solved alone
    A, b, basis = _stacked_transport_system(1e-8)
    bnorm = np.linalg.norm(b, axis=1)
    assert bnorm[0] > 1e7 * bnorm[1] > 0.0
    x, rep = solve_nonsym(A, b, SOLVE_TOL, basis, np.zeros_like(b))
    residual = np.linalg.norm(b - A @ x, axis=1)
    assert np.all(residual <= SOLVE_TOL * bnorm), residual / bnorm
    assert rep.residual == residual.max()
    n = b.shape[1]
    for l in range(2):
        block = SparseMatrix(A.offsets, A.diagonals[:, l * n:(l + 1) * n])
        alone, _ = solve_nonsym(block, b[l], SOLVE_TOL, basis, np.zeros_like(b[l]))
        assert np.allclose(x[l], alone, rtol=1e-12, atol=0.0)


def test_warm_start_that_meets_the_target_returns_at_once():
    A, b, basis = _stacked_transport_system(0.5)
    x, rep = solve_nonsym(A, b, SOLVE_TOL, basis, np.zeros_like(b))
    assert rep.iterations > 0
    again, rep0 = solve_nonsym(A, b, SOLVE_TOL, basis, x)
    assert np.array_equal(again, x)
    assert rep0 == SolveReport(0, float(np.linalg.norm(b - A @ x, axis=1).max()))
    # a start that misses the target iterates, and a zero b returns x = 0 whatever the start
    assert solve_nonsym(A, b, SOLVE_TOL, basis, 0.999 * x)[1].iterations > 0
    zero, rep_zero = solve_nonsym(A, np.zeros_like(b), SOLVE_TOL, basis, x)
    assert np.all(zero == 0.0) and rep_zero == SolveReport(0, 0.0)


def test_singular_neumann_system_solvable_after_projection():
    """Pure-Neumann matrices annihilate constants; a zero-sum RHS is in range.

    On a 2x1 grid [[1,-1],[-1,1]] x = (1, -1) has solutions
    x = (0.5, -0.5) + span{(1,1)}; the solver returns the zero-mean one,
    verified through the residual.
    """
    A, basis = fv_laplacian(Grid(2, 1, 2.0, 1.0), (1.0, 1.0))
    b = np.array([1.0, -1.0])
    x, _ = solve_spd(A, b, 1e-12, basis)
    assert np.linalg.norm(b - to_dense(A) @ x) <= 1e-10
    assert x[0] - x[1] == pytest.approx(1.0, abs=1e-10)
    assert x == pytest.approx([0.5, -0.5], abs=1e-15)
