"""Five-point matrices in diagonal storage, two-point-flux assembly, and the two linear solvers.

SparseMatrix holds a square matrix by its diagonals (DIA storage; Saad,
Iterative Methods for Sparse Linear Systems, 2nd ed., 2003, sec. 3.4).
two_point_matrix is the one place that numbers the cells of a structured
grid and fills the diagonals -nx, -1, 0, 1, nx from the face weights; the
Gauss/Darcy Laplacian and the Scharfetter-Gummel transport matrix are both
built with it.

Every solve reports its iteration count and true residual ||b - A x||
against one target, max(tol ||b||, rounding floor capped at sqrt(eps)
||b||), and raises SolverError when it misses it.  cosine_basis
diagonalizes a Neumann two-point Laplacian plus a diagonal shift in the
separable cosine (DCT-II) eigenbasis, whose inverse is four dense matmuls
(fast diagonalization; Lynch, Rice & Thomas, Numer. Math. 6, 1964).
solve_spd solves the Gauss/Darcy operator (shift 0) exactly that way;
solve_nonsym runs BiCGStab (van der Vorst, SIAM J. Sci. Stat. Comput. 13,
1992) on the transport systems, which change every sweep, right-
preconditioned by the basis of their drift-free part (Elman, Silvester &
Wathen, Finite Elements and Fast Iterative Solvers, 2nd ed., ch. 8-9).
"""

import functools
from dataclasses import dataclass

import numpy as np

_BREAKDOWN = 1e-300


class SolverError(RuntimeError):
    """Raised when a linear solve does not reach its tolerance; carries the report."""

    def __init__(self, message, report):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one linear solve: iterations run and the true residual ||b - A x||."""

    iterations: int
    residual: float


class SparseMatrix:
    """Square matrix in diagonal storage: diagonals[k, i] = A[i, i + offsets[k]], zero past the edges.

    The offsets ascend, none exceeds n in size, and a repeated offset adds
    its diagonals.  A @ x adds them in that order to a zero vector, so each
    row is summed in column order, as a compressed-row matvec sums it.
    Checked on construction: all values are finite.

    A neumann_laplacian also carries eigenbasis = cosine_basis(grid, tx, ty, 0.0).
    """

    def __init__(self, offsets, diagonals):
        diagonals = np.asarray(diagonals, dtype=float)
        if not np.all(np.isfinite(diagonals)):
            raise ValueError("matrix values must be finite")
        self.offsets = tuple(int(k) for k in offsets)
        self.diagonals = diagonals

    @classmethod
    def from_coo(cls, n, rows, cols, values):
        """Assemble an n x n matrix from triplets; duplicate entries are summed in the order given."""
        rows, cols = np.asarray(rows), np.asarray(cols)
        if np.any((rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)):
            raise ValueError("row or column index out of range for an %d x %d matrix" % (n, n))
        offsets, k = np.unique(cols - rows, return_inverse=True)
        return cls(offsets, np.bincount(k * n + rows, np.asarray(values, dtype=float), offsets.size * n).reshape(-1, n))

    def __matmul__(self, x):
        y = np.zeros(x.shape[0])
        for k, d in zip(self.offsets, self.diagonals):
            lo, hi = max(0, -k), min(y.size, y.size - k)
            y[lo:hi] += d[lo:hi] * x[lo + k:hi + k]
        return y

    @functools.cached_property
    def norm_inf(self):
        """Largest absolute row sum, for the rounding floor of a solve; computed once per matrix."""
        return float(np.abs(self.diagonals).sum(axis=0).max())


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
    """Cell-centred two-point-flux matrix on a structured grid, held on the diagonals -nx, -1, 0, 1, nx.

    Cells are numbered row-major (index j * nx + i).  Every cell gets diag on
    its diagonal, and every interior face between cells a (left or below)
    and b (right or above) with weights (w_minus, w_plus) adds the flux
    w_minus u_a - w_plus u_b to row a and its negative to row b.  wx and wy
    are (w_minus, w_plus) pairs for the x- and y-faces, each a scalar or an
    array of shape (ny, nx - 1) and (ny - 1, nx) respectively.
    """
    (xm, xp), (ym, yp) = wx, wy
    planes = np.zeros((5, grid.ny, grid.nx))
    planes[2] = diag
    planes[2, :, :-1] += xm
    planes[2, :, 1:] += xp
    planes[2, :-1, :] += ym
    planes[2, 1:, :] += yp
    planes[0, 1:, :], planes[4, :-1, :] = -ym, -yp  # the neighbours below and above
    planes[1, :, 1:], planes[3, :, :-1] = -xm, -xp  # the neighbours left and right
    return SparseMatrix((-grid.nx, -1, 0, 1, grid.nx), planes.reshape(5, grid.n_cells))


def _cosine_modes(n):
    """Orthonormal eigenvectors (columns) and eigenvalues of the n-cell [-1, 2, -1] operator, zero-flux ends."""
    k = np.arange(n)
    q = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k + 0.5, k) / n)
    q[:, 0] = 1.0 / np.sqrt(n)
    return q, 2.0 - 2.0 * np.cos(np.pi * k / n)


@functools.lru_cache(maxsize=16)
def cosine_basis(grid, tx, ty, shift):
    """Eigenbasis (qx, qy, inv_eig) of shift I + tx (I kron L_x) + ty (L_y kron I), L the zero-flux [-1, 2, -1].

    inv_eig[l, k] = 1 / (shift + tx lam_x[k] + ty lam_y[l]), and 0 on the
    constant mode at shift 0 (the pseudo-inverse).  Memoized like
    gauss.fv_laplacian: grids hash by identity and are never mutated, and
    the arrays are read-only.
    """
    (qx, lam_x), (qy, lam_y) = _cosine_modes(grid.nx), _cosine_modes(grid.ny)
    eig = shift + tx * lam_x + ty * lam_y[:, None]
    if shift == 0.0:
        eig[0, 0] = np.inf
    basis = (qx, qy, 1.0 / eig)
    for a in basis:
        a.flags.writeable = False
    return basis


def _eigen_solve(basis, v):
    """Qy ((Qy^T V Qx) * inv_eig) Qx^T for the row-major plane V of v: the operator of basis inverted on v."""
    qx, qy, inv_eig = basis
    return (qy @ ((qy.T @ v.reshape(inv_eig.shape) @ qx) * inv_eig) @ qx.T).ravel()


def neumann_laplacian(grid, tx, ty):
    """Two-point Laplacian with face weights tx, ty and zero-flux boundaries, with its eigenbasis.

    eigenbasis = cosine_basis(grid, tx, ty, 0.0); every array is read-only.
    """
    A = two_point_matrix(grid, 0.0, (tx, tx), (ty, ty))
    A.eigenbasis = cosine_basis(grid, tx, ty, 0.0)
    A.diagonals.flags.writeable = False
    return A


_FLOOR_EPS = 4.0 * np.finfo(float).eps
_FLOOR_CAP = float(np.sqrt(np.finfo(float).eps))
_MAX_RESTARTS = 5


def _target(A, bnorm, tol):
    """The stopping target max(tol ||b||, min(4 eps (||A||_inf ||x|| + ||b||), sqrt(eps) ||b||)) as a function of x.

    The rounding floor is capped at sqrt(eps) ||b||: an iterate grown large
    (off the range of a singular A) would otherwise lift the floor towards
    ||b|| and certify an x that solves nothing.
    """
    cap = _FLOOR_CAP * bnorm
    return lambda x: max(tol * bnorm, min(_FLOOR_EPS * (A.norm_inf * float(np.linalg.norm(x)) + bnorm), cap))


def solve_spd(A, b, tol):
    """Solve a neumann_laplacian A for a zero-sum b in its eigenbasis: x = Qy ((Qy^T B Qx) * inv_eig) Qx^T.

    Returns (x, SolveReport) with the zero-mean x and iterations 1 (0 and
    x = 0 for b = 0) when the true residual meets max(tol ||b||, 4 eps
    (||A||_inf ||x|| + ||b||)), the rounding floor below which no float64 x
    can certify a smaller residual, capped at sqrt(eps) ||b||; otherwise, as
    for a b that does not sum to zero, SolverError is raised.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(b.shape[0]), SolveReport(0, 0.0)
    x = _eigen_solve(A.eigenbasis, b)
    residual = float(np.linalg.norm(b - A @ x))
    report = SolveReport(1, residual)
    if residual > _target(A, bnorm, tol)(x):
        raise SolverError("eigenbasis solve missed tol=%.3g (residual %.3g)" % (tol, residual), report)
    return x, report


def solve_nonsym(A, b, tol, basis):
    """BiCGStab for a nonsymmetric SparseMatrix A (the transport M-matrices), right-preconditioned by basis.

    basis = (qx, qy, inv_eig) as from cosine_basis; each preconditioner
    application inverts the operator it diagonalizes (for the transport
    systems, their drift-free part).  Returns (x, SolveReport) with the same
    target as solve_spd, keeping the best iterate.  An iteration whose
    half-step residual s already meets the target at x + alpha p_hat stops
    there, skipping the stabilizing half-step.  A breakdown, which counts as
    an iteration, or a recurrence residual that meets the target while the
    true residual does not, restarts BiCGStab from x.  Raises SolverError
    when 10 n iterations or _MAX_RESTARTS + 1 starts end it short of the
    target.
    """
    b = np.asarray(b, dtype=float)
    n = b.shape[0]
    max_iter = 10 * n
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(0, 0.0)
    target = _target(A, bnorm, tol)
    x = best_x = np.zeros(n)  # iterates are rebound, never written in place
    r = b
    best_norm = bnorm
    iterations = 0

    for _ in range(_MAX_RESTARTS + 1):  # each start from (x, r = b - A x)
        r_hat = r.copy()
        rho = alpha = omega = 1.0
        v = np.zeros(n)
        p = np.zeros(n)
        while iterations < max_iter:
            iterations += 1
            rho_next = float(r_hat @ r)
            if abs(rho_next) < _BREAKDOWN:
                break
            beta = (rho_next / rho) * (alpha / omega)
            rho = rho_next
            p = r + beta * (p - omega * v)
            p_hat = _eigen_solve(basis, p)
            v = A @ p_hat
            denom = float(r_hat @ v)
            if abs(denom) < _BREAKDOWN:
                break
            alpha = rho / denom
            s = r - alpha * v
            snorm = float(np.linalg.norm(s))
            x_half = x + alpha * p_hat
            if snorm <= target(x_half):
                x, rnorm = x_half, snorm
            else:
                s_hat = _eigen_solve(basis, s)
                t = A @ s_hat
                tt = float(t @ t)
                if tt < _BREAKDOWN:
                    break
                omega = float(t @ s) / tt
                x = x_half + omega * s_hat
                r = s - omega * t
                rnorm = float(np.linalg.norm(r))
                if abs(omega) < _BREAKDOWN:
                    break
            if rnorm < best_norm:
                best_norm, best_x = rnorm, x
            if rnorm > target(x):
                continue
            true_res = float(np.linalg.norm(b - A @ x))
            if true_res <= target(x):
                return x, SolveReport(iterations, true_res)
            break  # the recurrence drifted from the true residual
        if iterations >= max_iter:
            break
        r = b - A @ x

    true_res = float(np.linalg.norm(b - A @ best_x))
    report = SolveReport(iterations, true_res)
    if true_res <= target(best_x):
        return best_x, report
    raise SolverError(
        "BiCGStab did not reach tol=%.3g within %d iterations (residual %.3g)" % (tol, iterations, true_res),
        report,
    )
