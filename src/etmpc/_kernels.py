"""Inner loops of the LDL^T factorization and its triangular solves,
compiled with numba when available.

Every function here is written as plain Python over numpy arrays so the
package still works (slowly) without a working numba install.
"""

from __future__ import annotations

try:
    from numba import njit

    _jit = njit(cache=True)
except ImportError:  # pragma: no cover - exercised only without numba
    def _jit(fn):
        return fn


# ---- elimination tree and factorization ------------------------------------


@_jit
def etree_and_counts(n, Ap, Ai, parent, lnz, work):
    """Elimination tree of an upper-triangular CSC matrix.

    Fills ``parent`` (-1 for roots) and ``lnz`` (nonzeros per column of L).
    Returns total nnz of L, or -1 if an entry lies below the diagonal.
    """
    for i in range(n):
        parent[i] = -1
        lnz[i] = 0
        work[i] = -1
    for j in range(n):
        work[j] = j
        for p in range(Ap[j], Ap[j + 1]):
            i = Ai[p]
            if i > j:
                return -1
            while work[i] != j:
                if parent[i] == -1:
                    parent[i] = j
                lnz[i] += 1
                work[i] = j
                i = parent[i]
    total = 0
    for i in range(n):
        total += lnz[i]
    return total


@_jit
def ldl_factor(n, Ap, Ai, Ax, parent, Lp, Li, Lx, d, dinv,
               y, flag, pattern, next_slot, pivot_tol):
    """Up-looking LDL^T of an upper-triangular CSC matrix.

    ``Lp`` holds the column pointers from ``etree_and_counts``; the row
    indices ``Li`` are written here, as each row of L is computed. L is
    strictly lower with the unit diagonal implicit; row entries are
    divided by their pivot and the reciprocal pivots land in ``dinv``.
    Returns -1 on success, else the column with a near-zero pivot.
    """
    for j in range(n):
        next_slot[j] = Lp[j]
        flag[j] = -1
        y[j] = 0.0
    for k in range(n):
        flag[k] = k
        top = 0
        dk = 0.0
        for p in range(Ap[k], Ap[k + 1]):
            i = Ai[p]
            if i == k:
                dk = Ax[p]
                continue
            y[i] = Ax[p]
            depth = 0
            while flag[i] != k:
                flag[i] = k
                pattern[top + depth] = i
                depth += 1
                i = parent[i]
            lo, hi = top, top + depth - 1
            while lo < hi:
                tmp = pattern[lo]
                pattern[lo] = pattern[hi]
                pattern[hi] = tmp
                lo += 1
                hi -= 1
            top += depth
        # sparse solve across the stacked pattern, deepest column first
        for t in range(top - 1, -1, -1):
            c = pattern[t]
            yc = y[c]
            hi = next_slot[c]
            for p in range(Lp[c], hi):
                y[Li[p]] -= Lx[p] * yc
            lkc = yc * dinv[c]
            Li[hi] = k
            Lx[hi] = lkc
            dk -= yc * lkc
            next_slot[c] = hi + 1
            y[c] = 0.0
        d[k] = dk
        if abs(dk) < pivot_tol:
            return k
        dinv[k] = 1.0 / dk
    return -1


# ---- reference triangular solves ------------------------------------------


@_jit
def solve_fe(Lp, Li, Lx, x):
    """In-place forward elimination: solve (I+L) x = b for b given in x."""
    n = Lp.shape[0] - 1
    for j in range(n):
        xj = x[j]
        for p in range(Lp[j], Lp[j + 1]):
            x[Li[p]] -= Lx[p] * xj


@_jit
def solve_bs(Lp, Li, Lx, x):
    """In-place backward substitution: solve (I+L)^T x = b."""
    n = Lp.shape[0] - 1
    for j in range(n - 1, -1, -1):
        s = x[j]
        for p in range(Lp[j], Lp[j + 1]):
            s -= Lx[p] * x[Li[p]]
        x[j] = s
