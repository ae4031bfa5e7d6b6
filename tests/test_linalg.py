"""Sparse storage, two-point-flux assembly, zero-mean projection, and the two Krylov solvers.

Frozen oracles: the weighted zero-mean projection of values (0, 1, 2) with
weights (1, 1, 2) subtracts the weighted mean 1.25; a symmetric tridiagonal
system with unit off-diagonal couplings has a hand-checkable solution;
random SPD and nonsymmetric systems are cross-checked against dense
numpy.linalg.solve; two-point matrices on a 2x2 grid and a 1x3 strip are
stamped by hand.

Contract details under test: reported residual histories are the running
best (nonincreasing), reported residuals are true residuals ||b - A x||,
failures raise SolverError carrying the report, b = 0 short-circuits to
x = 0 with a converged single-entry history, and both solvers stop after the
same number of breakdown restarts.
"""

import numpy as np
import pytest

from dpnpsim.linalg import (
    DEFAULT_TOL,
    SolveReport,
    SolverError,
    SparseMatrix,
    project_zero_mean,
    solve_nonsym,
    solve_spd,
    two_point_matrix,
)
from dpnpsim.mesh import build_grid


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
    return SparseMatrix.from_coo(n, n, rows, cols, vals)


def random_spd(rng, n):
    """Jacobi-friendly SPD matrix: random sparse symmetric + diagonal dominance."""
    dense = rng.normal(size=(n, n))
    dense = dense + dense.T
    dense[np.abs(dense) < 1.2] = 0.0
    np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.uniform(1.0, 2.0, size=n))
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(n, n, rows, cols, dense[rows, cols]), dense


def test_project_zero_mean_frozen_example():
    out = project_zero_mean(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
    assert np.allclose(out, [-1.25, -0.25, 0.75])
    # the projection really has zero weighted mean and is idempotent
    assert abs((out * [1.0, 1.0, 2.0]).sum()) < 1e-14
    assert np.allclose(project_zero_mean(out, np.array([1.0, 1.0, 2.0])), out)


def test_sparse_matrix_round_trip_and_matvec():
    A = SparseMatrix.from_coo(2, 3, [0, 0, 1, 1], [0, 2, 1, 1], [1.0, 2.0, 3.0, 4.0])
    assert A.shape == (2, 3)
    # duplicate (1, 1) entries are summed
    assert np.allclose(A.toarray(), [[1.0, 0.0, 2.0], [0.0, 7.0, 0.0]])
    assert np.allclose(A @ np.array([1.0, 1.0, 1.0]), [3.0, 7.0])
    assert np.allclose(SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [5.0, 6.0]).diagonal(), [5.0, 6.0])
    # shuffled and duplicated columns come out canonical: strictly increasing
    # column indices in each row, duplicates summed
    B = SparseMatrix.from_coo(
        2, 4, [0, 0, 0, 0, 1, 1, 1], [3, 1, 3, 0, 2, 0, 2], [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    )
    for r in range(2):
        assert np.all(np.diff(B.indices[B.indptr[r]:B.indptr[r + 1]]) > 0)
    assert B.nnz == 5
    assert np.array_equal(B.toarray(), [[8.0, 2.0, 0.0, 5.0], [32.0, 0.0, 80.0, 0.0]])


def test_sparse_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        SparseMatrix.from_coo(1, 1, [0], [0], [np.nan])


def test_two_point_matrix_by_hand():
    # cells numbered row-major: [[0, 1], [2, 3]]; x-faces (0,1), (2,3) and
    # y-faces (0,2), (1,3); face (a, b) adds w_minus at (a, a) and w_plus at
    # (b, b), and -w_plus at (a, b) and -w_minus at (b, a)
    A = two_point_matrix(
        build_grid(2, 2, 1.0, 1.0),
        0.5,
        (np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])),
        (np.array([[5.0, 6.0]]), np.array([[7.0, 8.0]])),
    )
    assert np.array_equal(
        A.toarray(),
        [[6.5, -3.0, -7.0, 0.0], [-1.0, 9.5, 0.0, -8.0], [-5.0, 0.0, 9.5, -4.0], [0.0, -6.0, -2.0, 12.5]],
    )
    # a vertical strip has y-faces only: the x weights stamp nothing
    B = two_point_matrix(build_grid(1, 3, 1.0, 3.0), 1.0, (9.0, 9.0), (np.array([[1.0], [2.0]]), np.array([[3.0], [4.0]])))
    assert np.array_equal(B.toarray(), [[2.0, -3.0, 0.0], [-1.0, 6.0, -4.0], [0.0, -2.0, 5.0]])


def test_solve_spd_tridiagonal_hand_solution():
    # [[2,-1,0],[-1,2,-1],[0,-1,2]] x = (1, 1, 1) has solution (1.5, 2, 1.5)
    A = laplacian_1d(3)
    x, rep = solve_spd(A, np.ones(3))
    assert np.allclose(x, [1.5, 2.0, 1.5], atol=1e-9)
    assert rep.converged
    assert rep.residual <= DEFAULT_TOL


def test_solve_spd_zero_rhs_short_circuit():
    x, rep = solve_spd(laplacian_1d(5), np.zeros(5))
    assert np.all(x == 0.0)
    assert rep.converged
    assert rep.iterations == 0
    assert rep.history == (0.0,)


def test_solve_spd_matches_dense_solver():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        A, dense = random_spd(rng, n)
        b = rng.normal(size=n)
        x, rep = solve_spd(A, b, tol=1e-12)
        assert rep.converged
        assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-8)
        # reported residual is the true residual
        assert rep.residual == pytest.approx(np.linalg.norm(b - dense @ x), abs=1e-13)


def test_solve_spd_history_is_nonincreasing():
    rng = np.random.default_rng(3)
    A, _ = random_spd(rng, 30)
    _, rep = solve_spd(A, rng.normal(size=30), tol=1e-12)
    hist = np.asarray(rep.history)
    assert np.all(np.diff(hist) <= 0.0)
    # the last history entry is the recurrence residual; the report carries
    # the verified true residual -- they agree to rounding, not bit for bit
    assert rep.residual == pytest.approx(hist[-1], rel=1e-2)


def test_solve_spd_raises_on_iteration_cap():
    A = laplacian_1d(40)
    b = np.ones(40)
    with pytest.raises(SolverError) as err:
        solve_spd(A, b, tol=1e-14, max_iter=2)
    rep = err.value.report
    assert isinstance(rep, SolveReport)
    assert not rep.converged
    assert rep.iterations == 2


def test_solve_nonsym_matches_dense_solver():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        dense = rng.normal(size=(n, n))
        dense[np.abs(dense) < 1.0] = 0.0
        np.fill_diagonal(dense, np.abs(dense).sum(axis=1) + rng.uniform(1.0, 2.0, size=n))
        rows, cols = np.nonzero(dense)
        A = SparseMatrix.from_coo(n, n, rows, cols, dense[rows, cols])
        b = rng.normal(size=n)
        x, rep = solve_nonsym(A, b, tol=1e-12)
        assert rep.converged
        assert np.allclose(x, np.linalg.solve(dense, b), atol=1e-7)
        assert rep.residual == pytest.approx(np.linalg.norm(b - dense @ x), abs=1e-12)


def test_solve_nonsym_zero_rhs_and_cap():
    x, rep = solve_nonsym(laplacian_1d(4, shift=0.5), np.zeros(4))
    assert np.all(x == 0.0) and rep.converged
    with pytest.raises(SolverError):
        solve_nonsym(laplacian_1d(60, shift=0.0), np.ones(60), tol=1e-14, max_iter=1)


def test_breakdown_restarts_share_one_cap():
    """Both solvers give up after the same number of breakdown restarts.

    CG on diag(1, -1) with b = (1, 1) meets p.Ap = 0, and BiCGStab on the
    skew matrix [[0, 1], [-1, 0]] with b = (1, 0) meets r_hat.v = 0, on
    every restart from x = 0.  Each breakdown costs one iteration, so a cap
    of five restarts ends both solves in the sixth iteration with nothing
    but the initial residual in the history.
    """
    cases = (
        (solve_spd, SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, -1.0]), np.array([1.0, 1.0])),
        (solve_nonsym, SparseMatrix.from_coo(2, 2, [0, 1], [1, 0], [1.0, -1.0]), np.array([1.0, 0.0])),
    )
    for solve, A, b in cases:
        with pytest.raises(SolverError) as err:
            solve(A, b)
        rep = err.value.report
        assert not rep.converged
        assert rep.iterations == 6
        assert rep.history == (np.linalg.norm(b),)


def test_singular_neumann_system_solvable_after_projection():
    """Pure-Neumann matrices annihilate constants; a zero-sum RHS is in range.

    [[1,-1],[-1,1]] x = (1, -1) has solutions x = (0.5, -0.5) + span{(1,1)};
    the solver returns one of them, verified through the residual.
    """
    A = SparseMatrix.from_coo(2, 2, [0, 0, 1, 1], [0, 1, 0, 1], [1.0, -1.0, -1.0, 1.0])
    b = np.array([1.0, -1.0])
    x, rep = solve_spd(A, b, tol=1e-12)
    assert rep.converged
    assert np.linalg.norm(b - A.toarray() @ x) <= 1e-10
    assert x[0] - x[1] == pytest.approx(1.0, abs=1e-10)
