"""Sequential reference triangular solves with the LDL^T factor.

``solve_fe`` and ``solve_bs`` take L's CSC arrays (column pointers, row
indices, values) and solve in place in ``x``. They have two execution
paths over one loop body each:

- with numba installed, the bodies are compiled and run on the arrays;
- without it, the interpreter runs them on Python lists made inside each
  call, which it indexes several times faster than numpy arrays: L's
  arrays through ``tolist``, and ``x`` as a list that is written back
  into ``x`` once when the body returns. Every update still rounds in x's
  dtype, and ``tolist`` is exact for fp32 and fp64. An fp64 ``x`` becomes
  Python floats (``x.tolist()``), whose arithmetic is the same IEEE
  double arithmetic and costs less per operation than numpy scalars'. An
  fp32 ``x`` becomes ``np.float32`` scalars (``list(x)``): Python floats
  would compute in double and round twice, while under NumPy >= 2
  (NEP 50) a Python float times an ``np.float32`` is computed in float32.
  Both paths give the same bits.

No list outlives a call, so a factor holds nothing but its arrays and a
change to ``L.values`` shows in the next solve. The factorization itself
is SuperLU's, called from ``ldl``.
"""

from __future__ import annotations

import functools

import numpy as np


def _forward(Lp, Li, Lx, x):
    """In-place forward elimination: solve (I+L) x = b for b given in x."""
    n = len(Lp) - 1
    for j in range(n):
        xj = x[j]
        for p in range(Lp[j], Lp[j + 1]):
            x[Li[p]] -= Lx[p] * xj


def _backward(Lp, Li, Lx, x):
    """In-place backward substitution: solve (I+L)^T x = b."""
    n = len(Lp) - 1
    for j in range(n - 1, -1, -1):
        s = x[j]
        for p in range(Lp[j], Lp[j + 1]):
            s -= Lx[p] * x[Li[p]]
        x[j] = s


def _on_lists(body):
    """``body`` run on Python lists: L's arrays as ``tolist`` gives them,
    ``x`` as Python floats if it is fp64 and as its own scalars otherwise,
    written back into ``x`` once at the end."""

    @functools.wraps(body)
    def solve(Lp, Li, Lx, x):
        xs = x.tolist() if x.dtype == np.float64 else list(x)
        body(Lp.tolist(), Li.tolist(), Lx.tolist(), xs)
        x[:] = xs

    return solve


try:
    from numba import njit
except ImportError:  # pragma: no cover - exercised only without numba
    solve_fe = _on_lists(_forward)
    solve_bs = _on_lists(_backward)
else:
    solve_fe = njit(cache=True)(_forward)
    solve_bs = njit(cache=True)(_backward)
