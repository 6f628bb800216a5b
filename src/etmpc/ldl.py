"""Sparse LDL^T factorization of quasi-definite matrices.

The input is the upper triangle of a symmetric matrix K as canonical CSC
arrays (``SparseCSC``; a scipy sparse matrix is converted to them first).
``ldl_numeric`` mirrors it into the full matrix in double precision, on
the index arrays (``csc.symmetric_from_upper``), and hands it to SuperLU
(``scipy.sparse.linalg.splu``), which orders the columns by multiple
minimum degree on K + K^T and factors P K P^T with diagonal pivots only. A
quasi-definite K has an LDL^T factor under every symmetric permutation, so
SuperLU's L U is (I+L) D (I+L)^T: L is masked out of its unit lower
factor's arrays (``csc.strictly_lower``) and D read off the diagonal of U.

The factor keeps only the raw arrays the triangular solves read: L
strictly lower (unit diagonal implicit) as a ``SparseCSC``, the pivots
and their reciprocals, so the solves are division-free, and the
permutation and its inverse as two int32 arrays.

Bring-up runs once per model, ahead of time. SuperLU computes in double
precision whatever the storage precision, fp32 or fp64, and L, d and dinv
are rounded to it once. The triangular solves are ``_kernels``'s: compiled
on L's arrays when numba is installed, otherwise interpreted on Python
lists made inside each call, from L's arrays and from the right-hand side,
which is written back once at the end. An fp64 right-hand side becomes
Python floats, whose arithmetic is IEEE double; an fp32 one stays
``np.float32`` scalars, since Python floats would compute in double and
round twice. The bits are the same either way. The factor keeps no list,
so every solve reads ``L.values`` as it is then.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from . import _kernels as K
from .csc import (SparseCSC, DimensionError, has_entry_below_diagonal, strictly_lower,
                  symmetric_from_upper)

DEFAULT_PIVOT_TOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-6}


class FactorizationError(RuntimeError):
    """A pivot that cannot be used, at ``column`` of the permuted matrix.
    ``column`` is None when SuperLU stops at an exactly zero pivot, since
    it does not report where."""

    def __init__(self, column, what="zero or near-zero pivot"):
        super().__init__(what if column is None else f"{what} at column {column}")
        self.column = column


@dataclass
class LdlFactor:
    L: SparseCSC                # strictly lower triangular, unit diagonal not stored
    d: np.ndarray               # pivots
    dinv: np.ndarray            # reciprocal pivots
    perm: np.ndarray            # int32; perm[k] = original index of the k-th pivot
    inv_perm: np.ndarray        # int32; inv_perm[perm] = arange(n)

    @property
    def n(self) -> int:
        return self.L.nrows

    def solve(self, b):
        """Solve K x = b using the permuted FE / diagonal / BS chain, reading
        L's arrays afresh."""
        b = np.asarray(b)
        if b.shape != (self.n,):
            raise DimensionError(f"rhs must be a vector of length {self.n}, got shape {b.shape}")
        xp = np.ascontiguousarray(b[self.perm], dtype=self.L.dtype)
        K.solve_fe(self.L.colptr, self.L.rowidx, self.L.values, xp)
        xp *= self.dinv
        K.solve_bs(self.L.colptr, self.L.rowidx, self.L.values, xp)
        return xp[self.inv_perm]

    def reconstruct_permuted(self):
        """Dense (I+L) D (I+L)^T; equals P K P^T up to roundoff."""
        ldense = self.L.to_dense() + np.eye(self.n, dtype=self.L.dtype)
        return (ldense * self.d) @ ldense.T


def ldl_numeric(upper) -> LdlFactor:
    """Order and factor the symmetric matrix whose upper triangle is
    ``upper``, a ``SparseCSC`` or a scipy sparse matrix: P K P^T =
    (I+L) D (I+L)^T, with P SuperLU's multiple minimum degree ordering of
    K + K^T.

    A storage precision other than fp32 or fp64 raises ``TypeError``, an
    entry of ``upper`` below the diagonal ``ValueError``. A pivot below
    ``DEFAULT_PIVOT_TOL`` of the storage precision (rounded to it), a row
    pivot off the diagonal and an exactly zero pivot raise
    ``FactorizationError``.
    """
    if not isinstance(upper, SparseCSC):
        upper = SparseCSC(upper)
    if upper.nrows != upper.ncols:
        raise DimensionError("factorization needs a square matrix")
    dtype = upper.dtype
    if dtype not in DEFAULT_PIVOT_TOL:
        raise TypeError(f"ldl_numeric accepts only float32 and float64 matrices, not {dtype}")
    if has_entry_below_diagonal(upper.colptr, upper.rowidx):
        raise ValueError("input matrix is not upper triangular")
    full = symmetric_from_upper(upper)
    full.values = full.values.astype(np.float64, copy=False)
    try:
        lu = scipy.sparse.linalg.splu(
            full.to_scipy(), permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    except RuntimeError as exc:   # "Factor is exactly singular"
        raise FactorizationError(None, "exactly zero pivot") from exc
    off = lu.perm_r != lu.perm_c
    if off.any():
        raise FactorizationError(int(lu.perm_c[off].min()), "off-diagonal pivot")
    d = lu.U.diagonal()
    small = np.flatnonzero(np.abs(d) < dtype.type(DEFAULT_PIVOT_TOL[dtype]))
    if small.size:
        raise FactorizationError(int(small[0]))
    L = strictly_lower(lu.L)
    L.values = L.values.astype(dtype, copy=False)
    return LdlFactor(L, d.astype(dtype), (1.0 / d).astype(dtype),
                     np.argsort(lu.perm_c).astype(np.int32), lu.perm_c.astype(np.int32))


# Sequential reference solves of one right-hand side.


def sptrsv_fe(L: SparseCSC, b):
    """Solve (I+L) x = b with L strictly lower triangular."""
    x = _rhs_copy(L, b)
    K.solve_fe(L.colptr, L.rowidx, L.values, x)
    return x


def sptrsv_bs(L: SparseCSC, b):
    """Solve (I+L)^T x = b."""
    x = _rhs_copy(L, b)
    K.solve_bs(L.colptr, L.rowidx, L.values, x)
    return x


def _rhs_copy(L: SparseCSC, b):
    """b as a fresh vector in L's precision, after checking the shapes."""
    if L.nrows != L.ncols:
        raise DimensionError("triangular solve needs a square matrix")
    x = np.array(b, dtype=L.dtype, copy=True)
    if x.shape != (L.nrows,):
        raise DimensionError(f"rhs must be a vector of length {L.nrows}, got shape {x.shape}")
    return x
