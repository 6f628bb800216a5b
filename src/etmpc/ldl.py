"""Sparse LDL^T factorization of quasi-definite matrices.

The input is the upper triangle of a symmetric matrix in CSC form. The
symbolic step permutes it and computes only the elimination tree and the
column counts of L; the numeric step writes L's row pattern and values
together, row by row. The factor stores L strictly lower (unit diagonal
implicit) with each row divided by its pivot, and the reciprocal pivots
separately, so the triangular solves are division-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels as K
from .csc import SparseCSC, DimensionError, INDEX_DTYPE
from .ordering import Permutation

DEFAULT_PIVOT_TOL = {np.dtype(np.float64): 1e-12, np.dtype(np.float32): 1e-6}


class FactorizationError(RuntimeError):
    def __init__(self, column):
        super().__init__(f"zero or near-zero pivot at column {column}")
        self.column = column


@dataclass
class SymbolicFactor:
    """The permuted matrix and the structure that sizes its factor:
    elimination tree and column pointers of L (from the column counts)."""

    n: int
    perm: Permutation
    parent: np.ndarray          # elimination tree, -1 for roots
    colptr: np.ndarray          # column pointers of L
    permuted_upper: SparseCSC   # upper triangle of P K P^T (pattern + values)

    @property
    def l_nnz(self) -> int:
        return int(self.colptr[-1])


@dataclass
class LdlFactor:
    L: SparseCSC                # strictly lower triangular, unit diagonal not stored
    d: np.ndarray               # pivots
    dinv: np.ndarray            # reciprocal pivots
    perm: Permutation

    @property
    def n(self) -> int:
        return self.L.nrows

    def solve(self, b):
        """Solve K x = b using the permuted FE / diagonal / BS chain."""
        b = np.asarray(b)
        if b.shape[0] != self.n:
            raise DimensionError("rhs length mismatch")
        xp = np.ascontiguousarray(b[self.perm.perm], dtype=self.L.dtype)
        K.solve_fe(self.L.colptr, self.L.rowidx, self.L.values, xp)
        xp *= self.dinv
        K.solve_bs(self.L.colptr, self.L.rowidx, self.L.values, xp)
        return xp[self.perm.inv_perm]

    def reconstruct_permuted(self):
        """Dense (I+L) D (I+L)^T; equals P K P^T up to roundoff."""
        ldense = self.L.to_dense() + np.eye(self.n, dtype=self.L.dtype)
        return (ldense * self.d) @ ldense.T


def permute_upper(upper: SparseCSC, perm: Permutation) -> SparseCSC:
    """Upper triangle of P K P^T given the upper triangle of K."""
    rows, cols, vals = upper.triplets()
    pr = perm.inv_perm[rows]
    pc = perm.inv_perm[cols]
    lo = np.minimum(pr, pc)
    hi = np.maximum(pr, pc)
    return SparseCSC.from_coo(upper.nrows, upper.ncols, lo, hi, vals,
                              dtype=upper.dtype)


def ldl_symbolic(upper: SparseCSC, perm: Permutation | None = None) -> SymbolicFactor:
    """Permute K to P K P^T and compute its elimination tree and the
    column counts of L."""
    if upper.nrows != upper.ncols:
        raise DimensionError("factorization needs a square matrix")
    n = upper.nrows
    if perm is None:
        perm = Permutation.identity(n)
    pk = permute_upper(upper, perm)
    parent = np.empty(n, dtype=INDEX_DTYPE)
    lnz = np.empty(n, dtype=INDEX_DTYPE)
    work = np.empty(n, dtype=INDEX_DTYPE)
    total = K.etree_and_counts(n, pk.colptr, pk.rowidx, parent, lnz, work)
    if total < 0:
        raise ValueError("input matrix is not upper triangular")
    colptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(lnz, out=colptr[1:])
    return SymbolicFactor(n, perm, parent, colptr, pk)


def ldl_numeric(symbolic: SymbolicFactor, pivot_tol: float | None = None) -> LdlFactor:
    """Numerical factorization of ``symbolic.permuted_upper``; writes the
    row pattern and values of L in one pass."""
    n = symbolic.n
    pk = symbolic.permuted_upper
    dtype = pk.dtype
    if pivot_tol is None:
        pivot_tol = DEFAULT_PIVOT_TOL.get(dtype, 1e-12)
    lx = np.empty(symbolic.l_nnz, dtype=dtype)
    rowidx = np.empty(symbolic.l_nnz, dtype=INDEX_DTYPE)
    d = np.empty(n, dtype=dtype)
    dinv = np.empty(n, dtype=dtype)
    fail = K.ldl_factor(
        n, pk.colptr, pk.rowidx, pk.values, symbolic.parent,
        symbolic.colptr, rowidx, lx, d, dinv,
        np.zeros(n, dtype=dtype), np.empty(n, dtype=INDEX_DTYPE),
        np.empty(n, dtype=INDEX_DTYPE), np.empty(n, dtype=INDEX_DTYPE),
        dtype.type(pivot_tol),
    )
    if fail >= 0:
        raise FactorizationError(fail)
    L = SparseCSC(n, n, symbolic.colptr.copy(), rowidx, lx, check=False)
    return LdlFactor(L, d, dinv, symbolic.perm)


def factorize(upper: SparseCSC, perm: Permutation | None = None,
              pivot_tol: float | None = None) -> LdlFactor:
    return ldl_numeric(ldl_symbolic(upper, perm), pivot_tol)


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
