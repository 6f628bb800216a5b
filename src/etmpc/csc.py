"""Raw compressed-sparse-column arrays of the KKT matrix and its factor.

``SparseCSC`` holds a matrix's canonical CSC arrays: 0-based int32
indices, rows sorted within each column, no duplicates. The LDL^T factor
alone narrows its index arrays to int16 where they fit
(``narrow_index_dtype``), since only the package's own solves read them;
every other ``SparseCSC`` stays int32, which scipy needs. P and A come from
the QP build as ``scipy.sparse.csc_array``; from there, bring-up works on
the raw arrays. K is assembled from P's and A's index arrays, SuperLU's
input and the residual operator P are mirrored from an upper triangle,
and the strictly lower factor is masked out of SuperLU's L, each by one
numpy COO-to-CSC conversion (``from_triplets``). scipy objects are built
only where scipy computes: SuperLU's input and the residual products.
What stays on chip is the factor's raw arrays, read by the
forward-elimination and backward-substitution kernels; at P8x8 the
16-bit indices save about 18 KB per factor.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

INDEX_DTYPE = np.int32


def narrow_index_dtype(*counts):
    """int16 when every count (a dimension, a number of entries) is below
    2**15, so that each index and pointer bounded by one fits; otherwise
    ``INDEX_DTYPE``."""
    return np.int16 if max(counts) < 2**15 else INDEX_DTYPE


class DimensionError(ValueError):
    pass


def column_indices(colptr):
    """The column of each stored entry of the CSC index pointer ``colptr``."""
    return np.repeat(np.arange(len(colptr) - 1, dtype=INDEX_DTYPE), np.diff(colptr))


def has_entry_below_diagonal(colptr, rowidx):
    """Whether the CSC index arrays store an entry (an explicit zero
    included) below the diagonal."""
    return bool(np.any(rowidx > column_indices(colptr)))


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

    @classmethod
    def from_triplets(cls, rows, cols, values, shape):
        """COO to CSC, summing duplicates in ``values``' dtype as scipy does;
        explicit zeros stay stored."""
        nrows, ncols = shape
        key = cols.astype(np.int64) * nrows + rows
        order = np.argsort(key, kind="stable")
        key, values = key[order], values[order]
        first = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=first[1:])
        if not first.all():
            starts = np.flatnonzero(first)
            key, values = key[starts], np.add.reduceat(values, starts)
        out = cls.__new__(cls)
        out.nrows, out.ncols = nrows, ncols
        out.colptr = np.zeros(ncols + 1, dtype=INDEX_DTYPE)
        np.cumsum(np.bincount(key // nrows, minlength=ncols), out=out.colptr[1:])
        out.rowidx = (key % nrows).astype(INDEX_DTYPE)
        out.values = values
        return out

    @property
    def nnz(self):
        return int(self.colptr[-1])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def dtype(self):
        return self.values.dtype

    def to_scipy(self):
        """A ``scipy.sparse.csc_array`` over the same arrays, not copied."""
        return scipy.sparse.csc_array((self.values, self.rowidx, self.colptr),
                                      shape=self.shape)

    def to_dense(self):
        return self.to_scipy().toarray()

    def triplets(self):
        """(rows, cols, values) in column-major order."""
        return self.rowidx.copy(), column_indices(self.colptr), self.values.copy()

    def __repr__(self):
        return f"SparseCSC({self.nrows}x{self.ncols}, nnz={self.nnz}, dtype={self.dtype})"


def symmetric_from_upper(upper: SparseCSC) -> SparseCSC:
    """Both triangles of the symmetric matrix whose upper triangle is
    ``upper``: the arrays of scipy's ``(up + triu(up, k=1).T).tocsc()``,
    whose add drops stored zeros (-0.0 included), which SuperLU's ordering
    would otherwise read as pattern."""
    rows, cols = upper.rowidx, column_indices(upper.colptr)
    keep = upper.values != 0
    strict = keep & (rows < cols)
    return SparseCSC.from_triplets(
        np.concatenate([rows[keep], cols[strict]]),
        np.concatenate([cols[keep], rows[strict]]),
        np.concatenate([upper.values[keep], upper.values[strict]]), upper.shape)


def strictly_lower(mat) -> SparseCSC:
    """The entries of the CSC matrix ``mat`` below its diagonal, explicit
    zeros included, as canonical arrays: scipy's ``tril(mat, k=-1)``."""
    cols = column_indices(mat.indptr)
    below = mat.indices > cols
    return SparseCSC.from_triplets(mat.indices[below], cols[below], mat.data[below], mat.shape)
