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
permutation and its inverse, plus the plan of L's pattern. L's index
arrays and the permutation pair are int16 while n and nnz(L) are below
2**15 (``csc.narrow_index_dtype``), int32 from there.

Bring-up runs once per model, ahead of time. SuperLU computes in double
precision whatever the storage precision, fp32 or fp64, and L, d and dinv
are rounded to it once. ``ldl_numeric`` then takes the plan of L's
pattern and permutation from ``_kernels.solve_plan``, which alone picks
how the pattern is solved, by its size n + nnz(L): the straight-line
solve generated for it (``_kernels.SolvePlan``) below
``_kernels.SCHEDULE_MIN_SIZE``, its level schedule (``_kernels.LevelPlan``)
from there. The plan is built once per pattern in a process, and the
factor's index arrays, ``perm`` and ``inv_perm`` are the plan's read-only
arrays, one copy per pattern. ``LdlFactor.solve`` runs FE, the diagonal scale and BS
through the plan, byte-identical to the sequential reference that the
tests keep, ``ldl_reference`` in ``tests/oracles.py``.

The plan's operands, L's values and dinv in the form the plan reads,
are made by ``LdlFactor.operands``: for the generated solve, a generator
of the solve that unpacks them into its locals once and is resumed by
each solve; for the schedule, L's values gathered per group, and dinv.
``AdmmSolver.solve`` makes them once and passes them to each of its KKT
solves, and a ``solve`` given none makes them for that call alone. The
factor keeps no conversion, so each reads ``L.values`` as it is then and
keeps those values for as long as it is used.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg

from . import _kernels as K
from .csc import (SparseCSC, DimensionError, has_entry_below_diagonal, narrow_index_dtype,
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
    perm: np.ndarray            # perm[k] = original index of the k-th pivot
    inv_perm: np.ndarray        # inv_perm[perm] = arange(n)
    # how L's pattern is solved, shared by every factor of the pattern
    plan: K.SolvePlan | K.LevelPlan = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.L.nrows

    def operands(self):
        """L's values and dinv converted into the operands of the plan,
        which ``solve`` reads; they hold ``L.values`` as it is now."""
        return self.plan.operands(self.L.values, self.dinv)

    def solve(self, b, operands=None):
        """Solve K x = b through the plan, which takes b and returns x in
        the original order, reading ``operands`` as ``operands()`` made
        them, or a conversion made for this call alone when None. A
        right-hand side that is not a vector of length n raises
        ``DimensionError``, one that is not real numbers (complex, bool,
        object) ``TypeError``."""
        b = np.asarray(b)
        if b.shape != (self.n,):
            raise DimensionError(f"rhs must be a vector of length {self.n}, got shape {b.shape}")
        if b.dtype.kind not in "iuf":
            raise TypeError(f"rhs must hold real numbers, not {b.dtype}")
        if operands is None:
            operands = self.operands()
        return self.plan.solve(*operands, b.astype(self.L.dtype, copy=False))


def ldl_numeric(upper) -> LdlFactor:
    """Order and factor the symmetric matrix whose upper triangle is
    ``upper``, a ``SparseCSC`` or a scipy sparse matrix: P K P^T =
    (I+L) D (I+L)^T, with P SuperLU's multiple minimum degree ordering of
    K + K^T.

    The factor's index arrays are int16 while n and nnz(L) are below
    2**15. The factor takes its pattern's plan (``_kernels.solve_plan``),
    built on the pattern's first bring-up in the process, and shares the
    plan's read-only index arrays, ``perm`` and ``inv_perm``.

    A storage precision other than fp32 or fp64 raises ``TypeError``, an
    entry of ``upper`` below the diagonal or one that is not finite
    ``ValueError``. A pivot below
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
    # SuperLU would factor an inf, and call a NaN an exactly zero pivot
    if not np.isfinite(upper.values).all():
        raise ValueError("input matrix has a non-finite entry")
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
    plan = K.solve_plan(L.colptr.astype(index), L.rowidx.astype(index),
                        np.argsort(lu.perm_c).astype(index), lu.perm_c.astype(index))
    L.colptr, L.rowidx = plan.colptr, plan.rowidx
    L.values = L.values.astype(dtype, copy=False)
    return LdlFactor(L, d.astype(dtype), (1.0 / d).astype(dtype), plan.perm, plan.inv_perm, plan)
