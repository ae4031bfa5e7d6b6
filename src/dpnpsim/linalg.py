"""Sparse matrices, two-point-flux assembly, and preconditioned Krylov solvers.

Storage and matvec are delegated to scipy.sparse CSR.  two_point_matrix is
the one place that numbers the cells of a structured grid and stamps the
four entries of each interior face; the Gauss/Darcy Laplacian and the
Scharfetter-Gummel transport matrix are both built with it.

The solvers are written out so that every solve returns a SolveReport whose
residual history is nonincreasing.  One driver, _krylov, owns everything
the two methods share: the b = 0 short-circuit, the Jacobi diagonal, the
rounding-floor stopping target, the best iterate seen so far and its
residual history, the restart from the current iterate (on a breakdown, or
when the recursion residual claims convergence that the true residual
b - A x does not confirm; at most _MAX_RESTARTS = 5 restarts per solve), and
the verdict on the true residual.  The two methods are step generators:
Jacobi-preconditioned conjugate gradients (_cg, behind solve_spd) for the
SPD elliptic systems and BiCGStab (_bicgstab, behind solve_nonsym) for the
nonsymmetric transport systems.

Pure-Neumann elliptic systems are singular with a constant kernel; callers
project the right side onto the compatible subspace and fix the gauge with
project_zero_mean afterwards.  The Krylov iterations themselves never leave
the compatible subspace, so no special casing is needed here.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

DEFAULT_TOL = 1e-10
_BREAKDOWN = 1e-300


class SolverError(RuntimeError):
    """Raised when a Krylov solve does not reach its tolerance; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one linear solve.

    history holds the reported residual norms (best-so-far, hence
    nonincreasing), starting from the initial residual.
    """

    iterations: int
    residual: float
    converged: bool
    history: tuple


class SparseMatrix:
    """Validated CSR matrix.

    Canonicalization on construction (tocsr, sum_duplicates, sort_indices)
    makes the column indices of each row strictly increasing, with duplicate
    entries summed.  Checked on construction: indptr has length rows+1, starts
    at 0 and is nondecreasing, column indices are in range, and all stored
    values are finite.
    """

    def __init__(self, csr):
        if not sp.issparse(csr):
            raise TypeError("SparseMatrix wraps a scipy sparse matrix")
        csr = csr.tocsr()
        csr.sum_duplicates()
        csr.sort_indices()
        n_rows, n_cols = csr.shape
        if csr.indptr.shape != (n_rows + 1,) or csr.indptr[0] != 0:
            raise ValueError("malformed indptr")
        if np.any(np.diff(csr.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if csr.indices.size:
            if csr.indices.min() < 0 or csr.indices.max() >= n_cols:
                raise ValueError("column index out of range")
        if not np.all(np.isfinite(csr.data)):
            raise ValueError("matrix values must be finite")
        self.csr = csr

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, values):
        """Assemble from triplets; duplicate entries are summed."""
        m = sp.coo_matrix(
            (np.asarray(values, dtype=float), (np.asarray(rows), np.asarray(cols))),
            shape=(int(n_rows), int(n_cols)),
        )
        return cls(m.tocsr())

    @property
    def shape(self):
        return self.csr.shape

    @property
    def nnz(self):
        return self.csr.nnz

    @property
    def indptr(self):
        return self.csr.indptr

    @property
    def indices(self):
        return self.csr.indices

    @property
    def data(self):
        return self.csr.data

    def diagonal(self):
        return self.csr.diagonal()

    def __matmul__(self, x):
        return self.csr @ x

    def toarray(self):
        return self.csr.toarray()


def project_zero_mean(values, weights):
    """Subtract the weighted mean so that sum(weights * out) == 0."""
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != values.shape:
        raise ValueError("weights must match values in shape")
    wsum = weights.sum()
    if wsum <= 0:
        raise ValueError("weights must have positive sum")
    return values - (weights * values).sum() / wsum


def two_point_matrix(grid, diag, wx, wy):
    """Cell-centred two-point-flux matrix on a structured grid.

    Cells are numbered row-major (index j * nx + i).  Every cell gets diag on
    its diagonal, and every interior face between cells a (left or below)
    and b (right or above) with weights (w_minus, w_plus) stamps the flux
    w_minus u_a - w_plus u_b into row a and its negative into row b.  wx and
    wy are (w_minus, w_plus) pairs for the x- and y-faces, each a scalar or
    an array of shape (ny, nx - 1) and (ny - 1, nx) respectively; duplicate
    entries are summed in the order they are stamped.
    """
    nx, ny = grid.nx, grid.ny
    n = grid.n_cells
    idx = np.arange(n).reshape(ny, nx)
    rows, cols, vals = [idx.ravel()], [idx.ravel()], [np.full(n, diag, dtype=float)]
    for (w_minus, w_plus), a, b in ((wx, idx[:, :-1], idx[:, 1:]), (wy, idx[:-1, :], idx[1:, :])):
        w_minus = np.broadcast_to(w_minus, a.shape).ravel()
        w_plus = np.broadcast_to(w_plus, a.shape).ravel()
        a, b = a.ravel(), b.ravel()
        rows.extend((a, a, b, b))
        cols.extend((a, b, b, a))
        vals.extend((w_minus, -w_plus, w_plus, -w_minus))
    return SparseMatrix.from_coo(n, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals))


def _jacobi(csr):
    d = csr.diagonal().astype(float).copy()
    d[d == 0.0] = 1.0
    return d


def _abs_row_sum_max(csr):
    """Infinity norm of the matrix, for the rounding floor of the residual."""
    if csr.nnz == 0:
        return 0.0
    return float(np.abs(csr).sum(axis=1).max())


_FLOOR_EPS = 4.0 * np.finfo(float).eps
_MAX_RESTARTS = 5


def _cg(csr, d, x, r, target):
    """Jacobi-preconditioned CG steps from (x, r = b - A x); x is updated in place."""
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    while True:
        Ap = csr @ p
        pAp = float(p @ Ap)
        if pAp <= _BREAKDOWN * float(p @ p):
            break  # direction fell into the kernel or lost definiteness
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        yield x, float(np.linalg.norm(r))
        z = r / d
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    yield x, None


def _bicgstab(csr, d, x, r, target):
    """Jacobi-preconditioned BiCGStab steps from (x, r = b - A x).

    An iteration whose half-step residual s already meets the target at
    x + alpha p_hat stops there and reports that iterate, skipping the
    stabilizing half-step.
    """
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(r.shape[0])
    p = np.zeros(r.shape[0])
    while True:
        rho_next = float(r_hat @ r)
        if abs(rho_next) < _BREAKDOWN:
            break
        beta = (rho_next / rho) * (alpha / omega)
        rho = rho_next
        p = r + beta * (p - omega * v)
        p_hat = p / d
        v = csr @ p_hat
        denom = float(r_hat @ v)
        if abs(denom) < _BREAKDOWN:
            break
        alpha = rho / denom
        s = r - alpha * v
        snorm = float(np.linalg.norm(s))
        x_half = x + alpha * p_hat
        if snorm <= target(x_half):
            x = x_half
            yield x, snorm
            continue
        s_hat = s / d
        t = csr @ s_hat
        tt = float(t @ t)
        if tt < _BREAKDOWN:
            break
        omega = float(t @ s) / tt
        x = x_half + omega * s_hat
        r = s - omega * t
        rnorm = float(np.linalg.norm(r))
        if abs(omega) < _BREAKDOWN:
            break
        yield x, rnorm
    yield x, None


def _krylov(name, A, b, tol, max_iter, method):
    """Run the step generator `method` to the tolerance with restarts and a true-residual verdict.

    method(csr, d, x, r, target) yields (x, rnorm) once per iteration, with
    rnorm None on a breakdown.  A breakdown, or a recurrence residual that
    meets the target while the true residual does not, restarts the method
    from the current x; restart number _MAX_RESTARTS + 1 ends the solve.
    """
    csr = A.csr
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True, (0.0,))
    anorm = _abs_row_sum_max(csr)

    def target(xv):
        return max(tol * bnorm, _FLOOR_EPS * (anorm * float(np.linalg.norm(xv)) + bnorm))

    d = _jacobi(csr)
    x = np.zeros(n)
    best_norm = bnorm
    best_x = x.copy()
    history = [best_norm]
    iterations = 0
    restarts = 0
    steps = method(csr, d, x, b.copy(), target)

    while iterations < max_iter:
        iterations += 1
        x, rnorm = next(steps)
        if rnorm is not None:
            if rnorm < best_norm:
                best_norm = rnorm
                best_x = x.copy()
            history.append(best_norm)
            if rnorm > target(x):
                continue
            true_res = float(np.linalg.norm(b - csr @ x))
            if true_res <= target(x):
                history[-1] = min(history[-1], true_res)
                return x, SolveReport(iterations, true_res, True, tuple(history))
        # breakdown, or the recurrence drifted from the true residual: restart from x
        restarts += 1
        if restarts > _MAX_RESTARTS:
            break
        steps = method(csr, d, x, b - csr @ x, target)

    true_res = float(np.linalg.norm(b - csr @ best_x))
    if true_res <= target(best_x):
        history.append(min(history[-1], true_res))
        return best_x, SolveReport(iterations, true_res, True, tuple(history))
    report = SolveReport(iterations, true_res, False, tuple(history))
    raise SolverError(
        "%s did not reach tol=%.3g within %d iterations (residual %.3g)" % (name, tol, iterations, true_res),
        report,
    )


def solve_spd(A, b, tol=DEFAULT_TOL, max_iter=None):
    """Jacobi-preconditioned CG for a symmetric positive (semi)definite SparseMatrix A.

    Returns (x, SolveReport); converged means the true residual satisfies
    ||b - A x|| <= max(tol ||b||, floor), where the floor is the rounding
    level 4 eps (||A||_inf ||x|| + ||b||) below which no float64 iterate can
    certify a smaller residual -- reaching it means x solves a perturbation
    of the system at machine precision (backward error), which is as
    converged as the arithmetic allows.  Raises SolverError when max_iter
    (default 10 * n) is exhausted first.
    """
    return _krylov("CG", A, b, tol, max_iter, _cg)


def solve_nonsym(A, b, tol=DEFAULT_TOL, max_iter=None):
    """Jacobi-preconditioned BiCGStab for a nonsymmetric SparseMatrix A.

    Same contract as solve_spd (including the rounding floor on the stopping
    test); used for the drift-diffusion transport matrices, which are
    nonsymmetric M-matrices.
    """
    return _krylov("BiCGStab", A, b, tol, max_iter, _bicgstab)
