"""Dense view of a diagonal-storage SparseMatrix, for the tests and oracles that compare with numpy.linalg."""

import numpy as np


def to_dense(A):
    """The n x n array of A; asserts that every entry whose column lies outside the matrix is zero.

    Entry (i, i + offsets[k]) adds diagonals[k, i], so repeated offsets add up.
    """
    n = A.diagonals.shape[1]
    assert A.diagonals.shape == (len(A.offsets), n)
    dense = np.zeros((n, n))
    rows = np.arange(n)
    for k, d in zip(A.offsets, A.diagonals):
        inside = (rows + k >= 0) & (rows + k < n)
        assert not d[~inside].any(), "nonzero entry past the edge on diagonal %d" % k
        dense[rows[inside], rows[inside] + k] += d[inside]
    return dense
