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
and their reciprocals, so the solves are division-free, the permutation
and its inverse, and one int: L's number of levels, the length of the
longest dependency chain of its FE (and of its BS). L's index arrays and
the permutation pair are int16 while n and nnz(L) are below 2**15
(``csc.narrow_index_dtype``), int32 from there.

Bring-up runs once per model, ahead of time. SuperLU computes in double
precision whatever the storage precision, fp32 or fp64, and L, d and dinv
are rounded to it once. ``LdlFactor.solve`` runs FE, the diagonal scale
and BS in one pass, on one of two paths (``_kernels``), both
byte-identical to the sequential reference:

- with numba installed, ``_kernels.solve_ldl`` compiled on L's arrays,
  for every factor;
- without it, a narrow factor runs ``solve_ldl`` interpreted on Python
  lists (``_kernels.ldl_operands``: L's arrays, L's per-entry column index
  and dinv). A wide one, whose mean level width nnz(L) / levels reaches
  ``_kernels.SCHEDULE_MIN_WIDTH`` (P8x8, not P2x2 or P4x4), runs
  ``_kernels.solve_levels``: one numpy update per level and direction, on
  L's entries grouped by level (``_kernels.level_schedule``).

The operands, lists or schedule, are made once per
``LdlFactor.converted`` block, which ``AdmmSolver.solve`` opens around its
iterations, and once per call outside such a block. No conversion
outlives its block or call, so each reads ``L.values`` as it is then, and
between solves the factor holds nothing O(n) beyond its arrays.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from . import _kernels as K
from .csc import (SparseCSC, DimensionError, column_indices, has_entry_below_diagonal,
                  narrow_index_dtype, strictly_lower, symmetric_from_upper)

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
    perm: np.ndarray            # perm[k] = original index of the k-th pivot
    inv_perm: np.ndarray        # inv_perm[perm] = arange(n)
    levels: int                 # FE levels of L, as many as its BS levels

    # the solve and its operands of the open ``converted`` block, None outside one
    _operands: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.L.nrows

    @property
    def scheduled(self) -> bool:
        """Whether the solve runs on the level schedule: L's mean level
        width, nnz(L) / levels, is at least ``_kernels.SCHEDULE_MIN_WIDTH``."""
        return self.L.nnz >= K.SCHEDULE_MIN_WIDTH * self.levels

    def solve(self, b):
        """Solve K x = b: permute b, run FE / diagonal / BS in one pass and
        permute back. Inside a ``converted`` block the pass reuses the
        block's operands; outside one it makes them for this call alone."""
        b = np.asarray(b)
        if b.shape != (self.n,):
            raise DimensionError(f"rhs must be a vector of length {self.n}, got shape {b.shape}")
        xp = np.ascontiguousarray(b[self.perm], dtype=self.L.dtype)
        kernel, operands = self._operands if self._operands is not None else self._convert()
        kernel(*operands, xp)
        return xp[self.inv_perm]

    @contextlib.contextmanager
    def converted(self):
        """A block in which every ``solve`` reuses one conversion of L's
        arrays and dinv, lists or level schedule, made on entry and
        dropped on exit, by return or raise. A nested block keeps the
        outer conversion. A change to ``L.values`` inside the block shows
        only in the next one."""
        if self._operands is not None:
            yield self
            return
        self._operands = self._convert()
        try:
            yield self
        finally:
            self._operands = None

    def _convert(self):
        """The pass this factor runs and its operands."""
        L = self.L
        columns = column_indices(L.colptr)
        if self.scheduled:
            return K.solve_levels, K.level_schedule(L.rowidx, L.values, columns, self.dinv)
        return K.solve_ldl, K.ldl_operands(L.colptr, L.rowidx, L.values, columns, self.dinv)


def ldl_numeric(upper) -> LdlFactor:
    """Order and factor the symmetric matrix whose upper triangle is
    ``upper``, a ``SparseCSC`` or a scipy sparse matrix: P K P^T =
    (I+L) D (I+L)^T, with P SuperLU's multiple minimum degree ordering of
    K + K^T.

    The factor's index arrays are int16 while n and nnz(L) are below
    2**15, and its level count is computed here, once.

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
    index = narrow_index_dtype(L.nrows, L.nnz)
    L.colptr, L.rowidx = L.colptr.astype(index), L.rowidx.astype(index)
    L.values = L.values.astype(dtype, copy=False)
    return LdlFactor(L, d.astype(dtype), (1.0 / d).astype(dtype),
                     np.argsort(lu.perm_c).astype(index), lu.perm_c.astype(index),
                     K.level_count(L.rowidx, column_indices(L.colptr), L.nrows))
