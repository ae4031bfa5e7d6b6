"""Two-point-flux matrices in diagonal storage, their assembly, and the two linear solvers.

SparseMatrix holds a square matrix by its diagonals (DIA storage; Saad,
Iterative Methods for Sparse Linear Systems, 2nd ed., 2003, sec. 3.4).
two_point_matrix is the one place that numbers the cells of a structured
grid and fills the 2d + 1 diagonals 0 and +-stride per axis (-nx, -1, 0, 1,
nx in 2D) from the face weights; the Gauss/Darcy Laplacian and the
Scharfetter-Gummel transport matrix are both built with it.

Every solve reports its iteration count and true residual ||b - A x||
against one target, max(tol ||b||, rounding floor capped at sqrt(eps)
||b||), and raises SolverError unless that residual is finite and meets
it.  cosine_basis diagonalizes a Neumann two-point Laplacian plus a
diagonal shift in the separable cosine (DCT-II) eigenbasis, whose inverse
is two dense mode products per axis (fast diagonalization; Lynch, Rice &
Thomas, Numer. Math. 6, 1964).
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


def two_point_matrix(grid, diag, weights):
    """Cell-centred two-point-flux matrix on a structured grid, held on the diagonals 0 and +-stride per axis.

    Cells are numbered row-major (j * nx + i: stride 1 along x, nx along y),
    and the offsets ascend.  Every cell gets diag on its diagonal, and every
    interior face between cells a (below along its axis) and b (above) with
    weights (w_minus, w_plus) adds the flux w_minus u_a - w_plus u_b to row a
    and its negative to row b.  weights[a] is that pair for the faces normal
    to axis a, each a scalar or an array of the cell-plane shape less one
    along a.
    """
    d = len(grid.n)
    planes = np.zeros((2 * d + 1,) + grid.shape)
    planes[d] = diag
    for a, (w_minus, w_plus) in enumerate(weights):
        lower, upper = grid.along(a, slice(None, -1)), grid.along(a, slice(1, None))
        planes[(d,) + lower] += w_minus
        planes[(d,) + upper] += w_plus
        planes[(d - 1 - a,) + upper] = -w_minus  # the neighbour below along a
        planes[(d + 1 + a,) + lower] = -w_plus  # the neighbour above
    offsets = tuple(-s for s in reversed(grid.stride)) + (0,) + grid.stride
    return SparseMatrix(offsets, planes.reshape(2 * d + 1, grid.n_cells))


def _cosine_modes(n):
    """Orthonormal eigenvectors (columns) and eigenvalues of the n-cell [-1, 2, -1] operator, zero-flux ends."""
    k = np.arange(n)
    q = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k + 0.5, k) / n)
    q[:, 0] = 1.0 / np.sqrt(n)
    return q, 2.0 - 2.0 * np.cos(np.pi * k / n)


@functools.lru_cache(maxsize=16)
def cosine_basis(grid, t, shift):
    """Eigenbasis (q, inv_eig) of shift I + sum_a t[a] L_a, L_a the zero-flux [-1, 2, -1] along axis a.

    q[a] holds the modes of axis a as columns; inv_eig, a cell plane, is
    1 / (shift + t[0] lam_0 + t[1] lam_1), and 0 on the constant mode at
    shift 0 (the pseudo-inverse).  Memoized like gauss.fv_laplacian: grids
    hash by identity and are never mutated; the arrays are read-only.
    """
    q, lams = zip(*(_cosine_modes(n) for n in grid.n))
    eig = shift
    for ta, lam in zip(t, grid.meshgrid(lams, sparse=True)):
        eig = eig + ta * lam
    if shift == 0.0:
        eig[(0,) * len(q)] = np.inf
    inv_eig = 1.0 / eig
    for arr in q + (inv_eig,):
        arr.flags.writeable = False
    return q, inv_eig


def _eigen_solve(basis, v):
    """Qy ((Qy^T V Qx) * inv_eig) Qx^T for the plane V of v (2D): one mode product per array axis, 0 first, each way.

    Array axis k < d - 1 runs along physical axis d - 1 - k and is multiplied
    from the left; the last, along x, from the right.
    """
    q, inv_eig = basis
    d = inv_eig.ndim
    w = v.reshape(inv_eig.shape)
    for k in range(d - 1):
        w = np.matmul(q[-1 - k].T, w, axes=[(0, 1), (k, k + 1), (k, k + 1)])
    w = (w @ q[0]) * inv_eig
    for k in range(d - 1):
        w = np.matmul(q[-1 - k], w, axes=[(0, 1), (k, k + 1), (k, k + 1)])
    return (w @ q[0].T).ravel()


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


def _true_residual(A, b, x, target):
    """(||b - A x||, accepted): only a finite residual that meets target(x) accepts x, never NaN or inf."""
    residual = float(np.linalg.norm(b - A @ x))
    return residual, np.isfinite(residual) and residual <= target(x)


def solve_spd(A, b, tol, basis):
    """Solve a Neumann two-point Laplacian A for a zero-sum b in its eigenbasis (on a 2D grid x = Qy ((Qy^T B Qx) * inv_eig) Qx^T).

    basis = (q, inv_eig) as from cosine_basis at shift 0 with A's face weights.
    Returns (x, SolveReport) with the zero-mean x and iterations 1 (0 and
    x = 0 for b = 0) when the true residual is finite and meets max(tol ||b||,
    4 eps (||A||_inf ||x|| + ||b||)), the rounding floor below which no float64
    x can certify a smaller residual, capped at sqrt(eps) ||b||; otherwise, as
    for a b that does not sum to zero or is not finite, SolverError is raised.
    """
    b = np.asarray(b, dtype=float)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(b.shape[0]), SolveReport(0, 0.0)
    x = _eigen_solve(basis, b)
    residual, accepted = _true_residual(A, b, x, _target(A, bnorm, tol))
    report = SolveReport(1, residual)
    if not accepted:
        raise SolverError("eigenbasis solve missed tol=%.3g (residual %.3g)" % (tol, residual), report)
    return x, report


def solve_nonsym(A, b, tol, basis):
    """BiCGStab for a nonsymmetric SparseMatrix A (the transport M-matrices), right-preconditioned by basis.

    basis = (q, inv_eig) as from cosine_basis; each preconditioner
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
            true_res, accepted = _true_residual(A, b, x, target)
            if accepted:
                return x, SolveReport(iterations, true_res)
            break  # the recurrence drifted from the true residual
        if iterations >= max_iter:
            break
        r = b - A @ x

    true_res, accepted = _true_residual(A, b, best_x, target)
    report = SolveReport(iterations, true_res)
    if accepted:
        return best_x, report
    raise SolverError(
        "BiCGStab did not reach tol=%.3g within %d iterations (residual %.3g)" % (tol, iterations, true_res),
        report,
    )
