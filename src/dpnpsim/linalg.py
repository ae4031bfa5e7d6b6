"""Two-point-flux matrices in diagonal storage, their assembly, and the two linear solvers.

SparseMatrix holds a square matrix by its diagonals (DIA storage; Saad,
Iterative Methods for Sparse Linear Systems, 2nd ed., 2003, sec. 3.4).
two_point_matrix is the one place that numbers the cells of a structured
grid and fills the 2d + 1 diagonals 0 and +-stride per axis (-nx, -1, 0, 1,
nx in 2D) from the face weights; the Gauss/Darcy Laplacian and the
Scharfetter-Gummel transport matrix are both built with it, the latter as
one block-diagonal matrix of k species blocks (blocks = k).

Every solve reports its iteration count and true residual ||b - A x||
against one target per block l, max(tol ||b_l||, rounding floor capped at
sqrt(eps) ||b_l||), and raises SolverError unless every block's residual
is finite and meets it; overflow makes a residual inf, never a numpy
warning.  cosine_basis diagonalizes a Neumann two-point Laplacian plus a
diagonal shift in the separable cosine (DCT-II) eigenbasis, whose inverse
is two dense mode products per axis (fast diagonalization; Lynch, Rice &
Thomas, Numer. Math. 6, 1964), batched over a stack of planes; all bases
of a grid share its axes' modes.
solve_spd solves the Gauss/Darcy operator (shift 0) exactly that way;
solve_nonsym runs BiCGStab (van der Vorst, SIAM J. Sci. Stat. Comput. 13,
1992) on the transport systems, which change every sweep, right-
preconditioned by the basis of their drift-free part (Elman, Silvester &
Wathen, Finite Elements and Fast Iterative Solvers, 2nd ed., ch. 8-9).
It takes the species' right sides as a (k, n) stack, shares one Krylov
iteration between the blocks and starts from a required x0 (the transport
step passes the lagged concentrations); every start judges its iterate by
the true residual, so an x0 that meets every target returns at once.
"""

import functools
import math
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
        if not np.isfinite(diagonals).all():
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
        """A @ x for a vector x, or for a (k, n / k) stack of them laid end to end; y has x's shape."""
        flat = x.reshape(-1)
        y = np.zeros(flat.shape[0])
        for d, rows, cols in self._bands:
            band = y[rows]  # a view: += adds in place, with no copy back
            band += d * flat[cols]
        return y.reshape(x.shape)

    @functools.cached_property
    def _bands(self):
        """Per diagonal, its entries inside the matrix with their row and column slices; computed once per matrix."""
        n = self.diagonals.shape[1]
        bands = []
        for k, d in zip(self.offsets, self.diagonals):
            lo, hi = max(0, -k), min(n, n - k)
            bands.append((d[lo:hi], slice(lo, hi), slice(lo + k, hi + k)))
        return bands

    @functools.cached_property
    def abs_row_sums(self):
        """Absolute row sums, whose maximum over a block of rows is its inf-norm; computed once per matrix."""
        return np.abs(self.diagonals).sum(axis=0)


@np.errstate(over="ignore", invalid="ignore")
def two_point_matrix(grid, diag, weights, blocks=1):
    """Cell-centred two-point-flux matrix on a structured grid, held on the diagonals 0 and +-stride per axis.

    Cells are numbered row-major (j * nx + i: stride 1 along x, nx along y),
    and the offsets ascend.  Every cell gets diag on its diagonal, and every
    interior face between cells a (below along its axis) and b (above) with
    weights (w_minus, w_plus) adds the flux w_minus u_a - w_plus u_b to row a
    and its negative to row b.  weights[a] is that pair for the faces normal
    to axis a, each a scalar or an array of the cell-plane shape less one
    along a.  With blocks = k the weights may carry a leading axis of k and
    the matrix is block-diagonal, one grid's block after another: a block's
    entries past the grid's edges are zero, so none couples two blocks.  Where
    the weights overflow, SolverError with residual inf, and no numpy warning.
    """
    d = len(grid.n)
    planes = np.zeros((2 * d + 1, blocks) + grid.shape)
    planes[d] = diag
    for a, (w_minus, w_plus) in enumerate(weights):
        lower, upper = (Ellipsis,) + grid.along(a, slice(None, -1)), (Ellipsis,) + grid.along(a, slice(1, None))
        planes[(d,) + lower] += w_minus
        planes[(d,) + upper] += w_plus
        planes[(d - 1 - a,) + upper] = -w_minus  # the neighbour below along a
        planes[(d + 1 + a,) + lower] = -w_plus  # the neighbour above
    offsets = tuple(-s for s in reversed(grid.stride)) + (0,) + grid.stride
    try:
        return SparseMatrix(offsets, planes.reshape(2 * d + 1, blocks * grid.n_cells))
    except ValueError as exc:
        raise SolverError("two-point %s" % exc, SolveReport(0, math.inf)) from None


@functools.lru_cache(maxsize=8)
def _cosine_modes(n):
    """Orthonormal eigenvectors (columns) and eigenvalues of the n-cell [-1, 2, -1] operator, zero-flux ends.

    Memoized and read-only: every basis of a grid shares its axes' modes.
    """
    k = np.arange(n)
    q = np.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k + 0.5, k) / n)
    q[:, 0] = 1.0 / np.sqrt(n)
    lam = 2.0 - 2.0 * np.cos(np.pi * k / n)
    for arr in (q, lam):
        arr.flags.writeable = False
    return q, lam


@functools.lru_cache(maxsize=16)
def cosine_basis(grid, t, shift):
    """Eigenbasis (q, inv_eig) of shift I + sum_a t[a] L_a, L_a the zero-flux [-1, 2, -1] along axis a.

    q[a] holds the modes of axis a as columns, shared by every basis of the
    grid; inv_eig, a cell plane, is 1 / (shift + t[0] lam_0 + t[1] lam_1),
    and 0 on the constant mode at shift 0 (the pseudo-inverse).  Memoized
    like gauss.fv_laplacian: grids hash by identity and are never mutated;
    the arrays are read-only.
    """
    q, lams = zip(*(_cosine_modes(n) for n in grid.n))
    eig = shift
    for ta, lam in zip(t, grid.meshgrid(lams, sparse=True)):
        eig = eig + ta * lam
    if shift == 0.0:
        eig[(0,) * len(q)] = np.inf
    inv_eig = 1.0 / eig
    inv_eig.flags.writeable = False
    return q, inv_eig


def _eigen_solve(basis, v):
    """Qy ((Qy^T V Qx) * inv_eig) Qx^T for each plane V (2D) of the (k, n) stack v: one mode product per axis each way.

    Array axis k + 1 < d of the stack of planes runs along physical axis
    d - 1 - k and is multiplied from the left; the last, along x, from the
    right.
    """
    q, inv_eig = basis
    d = inv_eig.ndim
    w = v.reshape((-1,) + inv_eig.shape)
    for k in range(d - 1):
        w = np.matmul(q[-1 - k].T, w, axes=[(0, 1), (k + 1, k + 2), (k + 1, k + 2)])
    w = (w @ q[0]) * inv_eig
    for k in range(d - 1):
        w = np.matmul(q[-1 - k], w, axes=[(0, 1), (k + 1, k + 2), (k + 1, k + 2)])
    return (w @ q[0].T).reshape(v.shape)


_FLOOR_EPS = 4.0 * np.finfo(float).eps
_FLOOR_CAP = float(np.sqrt(np.finfo(float).eps))
_MAX_RESTARTS = 5
_UNDERFLOW = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)  # 2^-485: a smaller norm may have lost squares


def norms(v):
    """The 2-norms of the blocks of a (k, n) stack, bit for bit np.linalg.norm(v_l), as Python floats (fast to compare).

    A block whose squares may have underflowed (its norm is below _UNDERFLOW) is scaled up, never down, by the
    power of two of its largest entry first: exactly, so entries below 1e-154 do not read 0 and zeros still do.
    A norm that overflows is inf; the callers keep numpy from warning.
    """
    out = np.sqrt(v[:, None, :] @ v[:, :, None]).ravel().tolist()
    if min(out) < _UNDERFLOW:
        e = np.minimum(np.frexp(np.abs(v).max(axis=1))[1], 0)
        w = np.ldexp(v, -e[:, None])
        out = np.ldexp(np.sqrt(w[:, None, :] @ w[:, :, None]).ravel(), e).tolist()
    return out


def _target(A, bnorm, tol):
    """misses(residual, x): whether some block's residual exceeds its stopping target at x (NaN exceeds none).

    The target of block l is max(tol ||b_l||, min(4 eps (||A_l||_inf ||x_l||
    + ||b_l||), sqrt(eps) ||b_l||)), A_l the l-th diagonal block of A: below
    the rounding floor 4 eps (...) no float64 x can certify a smaller
    residual, and the cap keeps an iterate grown large (off the range of a
    singular A) from lifting the floor towards ||b_l|| and certifying an x
    that solves nothing.  The floor needs ||x_l||, so it is evaluated only
    for residuals between tol ||b_l|| and the cap.
    """
    anorm = A.abs_row_sums.reshape(len(bnorm), -1).max(axis=1).tolist()
    tol_b = [tol * bn for bn in bnorm]
    cap = [_FLOOR_CAP * bn for bn in bnorm]
    top = [max(t, c) for t, c in zip(tol_b, cap)]

    def misses(residual, x):
        if any(r > t for r, t in zip(residual, top)):
            return True
        if not any(r > t for r, t in zip(residual, tol_b)):
            return False
        floor = [_FLOOR_EPS * (an * xn + bn) for an, xn, bn in zip(anorm, norms(x), bnorm)]
        return any(r > max(t, min(f, c)) for r, t, f, c in zip(residual, tol_b, floor, cap))

    return misses


def _true_residual(A, b, x, misses):
    """(r = b - A x, its block norms ||r_l||, accepted) for the (k, n) stacks b and x: only finite norms are accepted."""
    r = b - A @ x
    residual = norms(r)
    return r, residual, all(map(math.isfinite, residual)) and not misses(residual, x)


@np.errstate(over="ignore", invalid="ignore")
def solve_spd(A, b, tol, basis):
    """Solve a Neumann two-point Laplacian A for a zero-sum b in its eigenbasis (on a 2D grid x = Qy ((Qy^T B Qx) * inv_eig) Qx^T).

    basis = (q, inv_eig) as from cosine_basis at shift 0 with A's face weights.
    Returns (x, SolveReport) with the zero-mean x and iterations 1 (0 and
    x = 0 for b = 0) when the true residual is finite and meets its target
    (see _target); otherwise, as for a b that does not sum to zero or is not
    finite (an overflow makes it inf, without a warning), SolverError is raised.
    """
    b = np.asarray(b, dtype=float).reshape(1, -1)
    bnorm = norms(b)
    if bnorm[0] == 0.0:
        return np.zeros(b.shape[1]), SolveReport(0, 0.0)
    x = _eigen_solve(basis, b)
    _, (residual,), accepted = _true_residual(A, b, x, _target(A, bnorm, tol))
    report = SolveReport(1, residual)
    if not accepted:
        raise SolverError("eigenbasis solve missed tol=%.3g (residual %.3g)" % (tol, residual), report)
    return x[0], report


@np.errstate(over="ignore", invalid="ignore")
def solve_nonsym(A, b, tol, basis, x0):
    """BiCGStab for a nonsymmetric SparseMatrix A (the transport M-matrices), right-preconditioned by basis.

    b is one right side, or a (k, n) stack of them for a block-diagonal A of
    k blocks of n rows; basis = (q, inv_eig), as from cosine_basis,
    preconditions every block by inverting the operator it diagonalizes (for
    the transport systems, their drift-free part).  The blocks share one
    iteration, each scaled by the power of two that brings ||b_l|| into
    [1/2, 1) so that no block dominates the inner products.  Each start, the
    first from x0 (of b's shape; 0 where b_l = 0), returns (x, SolveReport)
    if the true residual b - A x meets every block's own target, as in
    solve_spd; the report carries the largest block residual.  Else it
    iterates until the recurrence residual meets the targets (at x + alpha
    p_hat where the half-step residual s does) or breaks down, which counts
    as an iteration.  After 10 n iterations or _MAX_RESTARTS restarts a last
    start only judges, then the iterate of smallest largest scaled block
    residual is judged; SolverError is raised if that misses too.
    """
    b = np.asarray(b, dtype=float)
    stack = b.reshape(-1, b.shape[-1])
    max_iter = 10 * stack.shape[1]
    scale = np.ldexp(1.0, -np.frexp(norms(stack))[1])[:, None]  # exact: a power of two per block
    stack = stack * scale
    bnorm = norms(stack)
    misses = _target(A, bnorm, tol)
    x = np.where(np.equal(bnorm, 0.0)[:, None], 0.0, np.reshape(x0, stack.shape) * scale)

    def result(x, residual):
        return (x / scale).reshape(b.shape), SolveReport(iterations, float(np.max(residual / scale[:, 0])))

    iterations = 0
    for start in range(_MAX_RESTARTS + 2):  # each from (x, r = b - A x); the last only judges x
        r, rnorm, accepted = _true_residual(A, stack, x, misses)
        if accepted:
            return result(x, rnorm)
        if start == 0:
            best_x, best_norm = x, max(rnorm)  # iterates are rebound, never written in place
        if start > _MAX_RESTARTS or iterations >= max_iter:
            break
        r_hat = r
        rho = alpha = omega = 1.0
        v = p = np.zeros_like(r)
        while iterations < max_iter:
            iterations += 1
            rho_next = float(np.vdot(r_hat, r))
            if abs(rho_next) < _BREAKDOWN:
                break
            beta = (rho_next / rho) * (alpha / omega)
            rho = rho_next
            p = r + beta * (p - omega * v)
            p_hat = _eigen_solve(basis, p)
            v = A @ p_hat
            denom = float(np.vdot(r_hat, v))
            if abs(denom) < _BREAKDOWN:
                break
            alpha = rho / denom
            s = r - alpha * v
            snorm = norms(s)
            x_half = x + alpha * p_hat
            if not misses(snorm, x_half):
                x, rnorm = x_half, snorm
            else:
                s_hat = _eigen_solve(basis, s)
                t = A @ s_hat
                tt = float(np.vdot(t, t))
                if tt < _BREAKDOWN:
                    break
                omega = float(np.vdot(t, s)) / tt
                x = x_half + omega * s_hat
                r = s - omega * t
                rnorm = norms(r)
                if abs(omega) < _BREAKDOWN:
                    break
            if max(rnorm) < best_norm:  # the blocks are scaled alike, so the largest residual ranks iterates
                best_x, best_norm = x, max(rnorm)
            if not misses(rnorm, x):
                break  # the next start judges x by its true residual

    _, residual, accepted = _true_residual(A, stack, best_x, misses)
    x, report = result(best_x, residual)
    if accepted:
        return x, report
    raise SolverError(
        "BiCGStab did not reach tol=%.3g within %d iterations (residual %.3g)" % (tol, iterations, report.residual),
        report,
    )
