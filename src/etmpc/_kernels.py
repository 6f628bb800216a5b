"""Triangular solves with the LDL^T factor.

``solve_ldl`` is the solve that ``LdlFactor.solve`` runs: forward
elimination (FE), the diagonal scale and backward substitution (BS) in
one pass, in place in the permuted right-hand side ``x``, over the
operands that ``ldl_operands`` makes of L's CSC arrays (column pointers,
row indices, values), L's per-entry column index and the reciprocal
pivots. FE is one flat loop over L's (row, value, column) triples in CSC
order. It reads ``x[column]`` per entry, which gives the same value as
reading it once per column, since no entry of a column updates that
column's own row. BS is the column loop of ``_backward``.

``solve_fe`` and ``solve_bs`` are the sequential reference: FE and BS
alone, on L's three arrays, column by column. The combined solve is
byte-identical to ``solve_fe``, ``x *= dinv``, ``solve_bs``.

Each has two execution paths over one loop body:

- with numba installed, the bodies are compiled and run on the arrays,
  and ``ldl_operands`` returns the arrays themselves;
- without it, the interpreter runs them on Python lists, which it indexes
  several times faster than numpy arrays. ``ldl_operands`` converts the
  operands through ``tolist``, and the reference solves convert L's
  arrays inside each call. ``x`` becomes a list that is written back into
  ``x`` once when the body returns. Every update still rounds in x's
  dtype, and ``tolist`` is exact for fp32 and fp64. An fp64 ``x`` becomes
  Python floats (``x.tolist()``), whose arithmetic is the same IEEE
  double arithmetic and costs less per operation than numpy scalars'. An
  fp32 ``x`` becomes ``np.float32`` scalars (``list(x)``): Python floats
  would compute in double and round twice, while under NumPy >= 2
  (NEP 50) a Python float times an ``np.float32`` is computed in float32.
  Both paths give the same bits.

Nothing here keeps a list: the operands live as long as their caller
holds them (``LdlFactor.solve`` for one call, ``LdlFactor.converted``
for one ADMM solve), so a change to ``L.values`` shows in the next
conversion. The factorization itself is SuperLU's, called from ``ldl``.
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


def _ldl(Lp, Li, Lx, Lj, dinv, x):
    """In-place solve of (I+L) D (I+L)^T x = b for b given in x; ``Lj[p]``
    is the column of L's entry p."""
    for i, v, j in zip(Li, Lx, Lj):
        x[i] -= v * x[j]
    for k in range(len(x)):
        x[k] *= dinv[k]
    for j in range(len(Lp) - 2, -1, -1):
        s = x[j]
        for p in range(Lp[j], Lp[j + 1]):
            s -= Lx[p] * x[Li[p]]
        x[j] = s


def _x_on_list(body):
    """``body`` run with ``x`` as Python floats if it is fp64 and as its
    own scalars otherwise, written back into ``x`` once at the end; the
    other operands are passed on as given."""

    @functools.wraps(body)
    def solve(*args):
        x = args[-1]
        xs = x.tolist() if x.dtype == np.float64 else list(x)
        body(*args[:-1], xs)
        x[:] = xs

    return solve


def _as_lists(*arrays):
    return tuple(a.tolist() for a in arrays)


def _as_arrays(*arrays):
    return arrays


def _on_lists(body):
    """``body`` run on Python lists: the operand arrays as ``tolist`` gives
    them, ``x`` as ``_x_on_list`` gives it."""
    on_list = _x_on_list(body)

    @functools.wraps(body)
    def solve(*args):
        on_list(*_as_lists(*args[:-1]), args[-1])

    return solve


try:
    from numba import njit
except ImportError:  # pragma: no cover - exercised only without numba
    solve_fe = _on_lists(_forward)
    solve_bs = _on_lists(_backward)
    solve_ldl = _x_on_list(_ldl)
    ldl_operands = _as_lists
else:
    solve_fe = njit(cache=True)(_forward)
    solve_bs = njit(cache=True)(_backward)
    solve_ldl = njit(cache=True)(_ldl)
    ldl_operands = _as_arrays
