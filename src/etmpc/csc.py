"""Compressed-sparse-column matrices.

CSC is the universal carrier for the objective/constraint matrices, the KKT
system, and the triangular factor. Indices are 0-based int32. Its raw arrays
feed the triangular-solve kernels; every other sparse operation, the
factorization included, goes through the zero-copy ``scipy.sparse`` view.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

INDEX_DTYPE = np.int32


class DimensionError(ValueError):
    pass


class SparseCSC:
    """A read-mostly CSC matrix.

    Invariants (checked by ``validate``):
      * colptr is non-decreasing, colptr[0] == 0, colptr[ncols] == nnz
      * row indices strictly increase within each column
      * all row indices < nrows
    """

    __slots__ = ("nrows", "ncols", "colptr", "rowidx", "values")

    def __init__(self, nrows, ncols, colptr, rowidx, values, check=True):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.colptr = np.asarray(colptr, dtype=INDEX_DTYPE)
        self.rowidx = np.asarray(rowidx, dtype=INDEX_DTYPE)
        self.values = np.asarray(values)
        if check:
            self.validate()

    @property
    def nnz(self):
        return int(self.colptr[-1])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def dtype(self):
        return self.values.dtype

    def validate(self):
        if self.nrows < 0 or self.ncols < 0:
            raise DimensionError("negative dimension")
        if self.colptr.shape != (self.ncols + 1,):
            raise DimensionError(
                f"colptr length {self.colptr.shape[0]} != ncols+1 ({self.ncols + 1})"
            )
        if self.colptr[0] != 0:
            raise ValueError("colptr[0] must be 0")
        if np.any(np.diff(self.colptr) < 0):
            raise ValueError("colptr must be non-decreasing")
        nnz = int(self.colptr[-1])
        if self.rowidx.shape != (nnz,) or self.values.shape != (nnz,):
            raise DimensionError("rowidx/values length disagrees with colptr[-1]")
        if nnz:
            if self.rowidx.min() < 0 or self.rowidx.max() >= self.nrows:
                raise ValueError("row index out of range")
        for j in range(self.ncols):
            lo, hi = self.colptr[j], self.colptr[j + 1]
            if hi - lo > 1 and np.any(np.diff(self.rowidx[lo:hi]) <= 0):
                raise ValueError(f"row indices not strictly increasing in column {j}")
        return self

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, vals, dtype=np.float64):
        """Build from triplets; duplicate entries are summed, explicit zeros kept.

        Negative or out-of-range indices raise ``ValueError``. The result is
        canonical by construction, so it is not validated again.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=dtype)
        if not (rows.shape == cols.shape == vals.shape):
            raise DimensionError("triplet arrays must have equal length")
        mat = scipy.sparse.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsc()
        mat.sum_duplicates()
        return cls(nrows, ncols, mat.indptr, mat.indices, mat.data, check=False)

    @classmethod
    def from_dense(cls, a, dtype=None):
        a = np.asarray(a)
        if dtype is None:
            dtype = a.dtype if a.dtype.kind == "f" else np.float64
        rows, cols = np.nonzero(a)
        return cls.from_coo(a.shape[0], a.shape[1], rows, cols, a[rows, cols], dtype=dtype)

    @classmethod
    def identity(cls, n, dtype=np.float64):
        return cls.diag(np.ones(n, dtype=dtype))

    @classmethod
    def diag(cls, d):
        d = np.asarray(d)
        n = d.shape[0]
        colptr = np.arange(n + 1, dtype=INDEX_DTYPE)
        return cls(n, n, colptr, np.arange(n, dtype=INDEX_DTYPE), d.copy())

    @classmethod
    def empty(cls, nrows, ncols, dtype=np.float64):
        return cls(nrows, ncols, np.zeros(ncols + 1, dtype=INDEX_DTYPE),
                   np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=dtype))

    # ---- conversions ---------------------------------------------------

    @property
    def csc(self):
        """``scipy.sparse.csc_array`` sharing this matrix's arrays (no copy)."""
        return scipy.sparse.csc_array((self.values, self.rowidx, self.colptr),
                                      shape=self.shape, copy=False)

    def to_dense(self):
        return self.csc.toarray()

    def triplets(self):
        """(rows, cols, values) in column-major order."""
        cols = np.repeat(np.arange(self.ncols, dtype=INDEX_DTYPE), np.diff(self.colptr))
        return self.rowidx.copy(), cols, self.values.copy()

    def __repr__(self):
        return f"SparseCSC({self.nrows}x{self.ncols}, nnz={self.nnz}, dtype={self.dtype})"
