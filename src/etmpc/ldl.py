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
are rounded to it once. ``LdlFactor.solve`` runs FE, the diagonal scale
and BS in one pass (``_kernels.solve_ldl``): compiled on L's arrays when
numba is installed, otherwise interpreted on Python lists. The operands
are converted (``_kernels.ldl_operands``: L's arrays, L's per-entry
column index and dinv) once per ``LdlFactor.converted`` block, which
``AdmmSolver.solve`` opens around its iterations, and once per call
outside such a block. The right-hand side becomes a list in each call
and is written back once at the end: Python floats in fp64, whose
arithmetic is IEEE double, ``np.float32`` scalars in fp32, since Python
floats would compute in double and round twice. The bits are the same on
every path. No conversion outlives its block or call, so each reads
``L.values`` as it is then.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from . import _kernels as K
from .csc import (SparseCSC, DimensionError, column_indices, has_entry_below_diagonal,
                  strictly_lower, symmetric_from_upper)

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

    # the operands of the open ``converted`` block, None outside one
    _operands: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.L.nrows

    def solve(self, b):
        """Solve K x = b: permute b, run FE / diagonal / BS in one pass and
        permute back. Inside a ``converted`` block the pass reuses the
        block's operands; outside one it converts L's arrays and dinv for
        this call alone."""
        b = np.asarray(b)
        if b.shape != (self.n,):
            raise DimensionError(f"rhs must be a vector of length {self.n}, got shape {b.shape}")
        xp = np.ascontiguousarray(b[self.perm], dtype=self.L.dtype)
        operands = self._operands if self._operands is not None else self._convert()
        K.solve_ldl(*operands, xp)
        return xp[self.inv_perm]

    @contextlib.contextmanager
    def converted(self):
        """A block in which every ``solve`` reuses one conversion of L's
        arrays and dinv, made on entry and dropped on exit, by return or
        raise. A nested block keeps the outer conversion. A change to
        ``L.values`` inside the block shows only in the next one."""
        if self._operands is not None:
            yield self
            return
        self._operands = self._convert()
        try:
            yield self
        finally:
            self._operands = None

    def _convert(self):
        L = self.L
        return K.ldl_operands(L.colptr, L.rowidx, L.values, column_indices(L.colptr), self.dinv)


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
