"""Sparse matrices and preconditioned Krylov solvers with convergence reporting.

Storage and matvec are delegated to scipy.sparse CSR; the solvers themselves
(Jacobi-preconditioned conjugate gradients for SPD systems, BiCGStab for the
nonsymmetric transport systems) are written out so that every solve returns a
SolveReport whose residual history is nonincreasing: the solver tracks the
best iterate seen so far and reports its residual, and the returned solution
is verified against the true residual b - A x, not the recursion residual.

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
    csr = A.csr
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True, (0.0,))
    target = tol * bnorm
    anorm = _abs_row_sum_max(csr)

    def effective_target(xv):
        return max(target, _FLOOR_EPS * (anorm * float(np.linalg.norm(xv)) + bnorm))

    d = _jacobi(csr)

    x = np.zeros(n)
    r = b.copy()
    z = r / d
    p = z.copy()
    rz = float(r @ z)
    best_norm = float(np.linalg.norm(r))
    best_x = x.copy()
    history = [best_norm]
    iterations = 0
    restarts = 0

    while iterations < max_iter:
        iterations += 1
        Ap = csr @ p
        pAp = float(p @ Ap)
        if pAp <= _BREAKDOWN * float(p @ p):
            # direction fell into the kernel or lost definiteness: restart from x
            restarts += 1
            if restarts > 5:
                break
            r = b - csr @ x
            z = r / d
            p = z.copy()
            rz = float(r @ z)
            continue
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        rnorm = float(np.linalg.norm(r))
        if rnorm < best_norm:
            best_norm = rnorm
            best_x = x.copy()
        history.append(best_norm)
        if rnorm <= effective_target(x):
            true_res = float(np.linalg.norm(b - csr @ x))
            if true_res <= effective_target(x):
                history[-1] = min(history[-1], true_res)
                return x, SolveReport(iterations, true_res, True, tuple(history))
            # recursion drifted from the true residual: restart from x
            restarts += 1
            if restarts > 5:
                break
            r = b - csr @ x
            z = r / d
            p = z.copy()
            rz = float(r @ z)
            continue
        z = r / d
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next

    true_res = float(np.linalg.norm(b - csr @ best_x))
    if true_res <= effective_target(best_x):
        history.append(min(history[-1], true_res))
        return best_x, SolveReport(iterations, true_res, True, tuple(history))
    report = SolveReport(iterations, true_res, False, tuple(history))
    raise SolverError(
        "CG did not reach tol=%.3g within %d iterations (residual %.3g)" % (tol, iterations, true_res),
        report,
    )


def solve_nonsym(A, b, tol=DEFAULT_TOL, max_iter=None):
    """Jacobi-preconditioned BiCGStab for a nonsymmetric SparseMatrix A.

    Same contract as solve_spd (including the rounding floor on the stopping
    test); used for the drift-diffusion transport matrices, which are
    nonsymmetric M-matrices.
    """
    csr = A.csr
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    if max_iter is None:
        max_iter = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0, True, (0.0,))
    target = tol * bnorm
    anorm = _abs_row_sum_max(csr)

    def effective_target(xv):
        return max(target, _FLOOR_EPS * (anorm * float(np.linalg.norm(xv)) + bnorm))

    d = _jacobi(csr)

    x = np.zeros(n)
    r = b.copy()
    r_hat = r.copy()
    rho = alpha = omega = 1.0
    v = np.zeros(n)
    p = np.zeros(n)
    best_norm = float(np.linalg.norm(r))
    best_x = x.copy()
    history = [best_norm]
    iterations = 0
    restarts = 0

    def restart():
        nonlocal r, r_hat, rho, alpha, omega, v, p, restarts
        restarts += 1
        r = b - csr @ x
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)

    while iterations < max_iter:
        iterations += 1
        rho_next = float(r_hat @ r)
        if abs(rho_next) < _BREAKDOWN:
            if restarts > 5:
                break
            restart()
            continue
        beta = (rho_next / rho) * (alpha / omega)
        rho = rho_next
        p = r + beta * (p - omega * v)
        p_hat = p / d
        v = csr @ p_hat
        denom = float(r_hat @ v)
        if abs(denom) < _BREAKDOWN:
            if restarts > 5:
                break
            restart()
            continue
        alpha = rho / denom
        s = r - alpha * v
        snorm = float(np.linalg.norm(s))
        if snorm <= effective_target(x + alpha * p_hat):
            x = x + alpha * p_hat
            rnorm = snorm
        else:
            s_hat = s / d
            t = csr @ s_hat
            tt = float(t @ t)
            if tt < _BREAKDOWN:
                if restarts > 5:
                    break
                restart()
                continue
            omega = float(t @ s) / tt
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            rnorm = float(np.linalg.norm(r))
            if abs(omega) < _BREAKDOWN:
                if restarts > 5:
                    break
                restart()
                continue
        if rnorm < best_norm:
            best_norm = rnorm
            best_x = x.copy()
        history.append(best_norm)
        if rnorm <= effective_target(x):
            true_res = float(np.linalg.norm(b - csr @ x))
            if true_res <= effective_target(x):
                history[-1] = min(history[-1], true_res)
                return x, SolveReport(iterations, true_res, True, tuple(history))
            if restarts > 5:
                break
            restart()
            continue

    true_res = float(np.linalg.norm(b - csr @ best_x))
    if true_res <= effective_target(best_x):
        history.append(min(history[-1], true_res))
        return best_x, SolveReport(iterations, true_res, True, tuple(history))
    report = SolveReport(iterations, true_res, False, tuple(history))
    raise SolverError(
        "BiCGStab did not reach tol=%.3g within %d iterations (residual %.3g)" % (tol, iterations, true_res),
        report,
    )
