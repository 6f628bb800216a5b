"""Sequential reference triangular solves with the LDL^T factor, compiled
with numba when available.

Both are written as plain Python over numpy arrays, so the package still
works (slowly) without a working numba install. The factorization itself
is SuperLU's, called from ``ldl``.
"""

from __future__ import annotations

try:
    from numba import njit

    _jit = njit(cache=True)
except ImportError:  # pragma: no cover - exercised only without numba
    def _jit(fn):
        return fn



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
