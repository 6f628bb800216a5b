"""Raw compressed-sparse-column arrays of the KKT matrix and its factor.

P, A and K are ``scipy.sparse.csc_array`` from the QP build through the
factorization, and scipy does every sparse operation on them. What stays
on chip is the factor's raw arrays, read by the forward-elimination and
backward-substitution kernels: ``SparseCSC`` holds those canonical arrays
(0-based int32 indices, sorted rows, no duplicates) of L and of K.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

INDEX_DTYPE = np.int32


class DimensionError(ValueError):
    pass


def has_entry_below_diagonal(mat):
    """Whether the scipy sparse matrix ``mat`` stores an entry (an explicit
    zero included) below its diagonal, read off its CSC index arrays."""
    mat = scipy.sparse.csc_array(mat)
    return bool(np.any(mat.indices > np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))))


class SparseCSC:
    """The canonical CSC arrays of the scipy sparse matrix ``mat``."""

    __slots__ = ("nrows", "ncols", "colptr", "rowidx", "values")

    def __init__(self, mat):
        mat = scipy.sparse.csc_array(mat)
        if not mat.has_canonical_format:
            mat = mat.copy()
            mat.sum_duplicates()
        self.nrows, self.ncols = mat.shape
        self.colptr = mat.indptr.astype(INDEX_DTYPE, copy=False)
        self.rowidx = mat.indices.astype(INDEX_DTYPE, copy=False)
        self.values = mat.data

    @property
    def nnz(self):
        return int(self.colptr[-1])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def dtype(self):
        return self.values.dtype

    def to_dense(self):
        return scipy.sparse.csc_array((self.values, self.rowidx, self.colptr),
                                      shape=self.shape).toarray()

    def triplets(self):
        """(rows, cols, values) in column-major order."""
        cols = np.repeat(np.arange(self.ncols, dtype=INDEX_DTYPE), np.diff(self.colptr))
        return self.rowidx.copy(), cols, self.values.copy()

    def __repr__(self):
        return f"SparseCSC({self.nrows}x{self.ncols}, nnz={self.nnz}, dtype={self.dtype})"
