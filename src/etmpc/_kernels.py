"""Triangular solves with the LDL^T factor.

``LdlFactor.solve`` runs forward elimination (FE), the diagonal scale and
backward substitution (BS) in place in the permuted right-hand side
``x``, in one of two passes. Both are byte-identical to the sequential
reference ``solve_fe``, ``x *= dinv``, ``solve_bs``: FE and BS alone, on
L's three CSC arrays (column pointers, row indices, values), column by
column.

- ``solve_ldl``, the one-pass list solve, over the operands that
  ``ldl_operands`` makes of L's CSC arrays, L's per-entry column index
  and the reciprocal pivots. FE is one flat loop over L's (row, value,
  column) triples in CSC order. It reads ``x[column]`` per entry, which
  gives the same value as reading it once per column, since no entry of
  a column updates that column's own row. BS is the column loop of
  ``_backward``.
- ``solve_levels``, the level-scheduled solve, over the groups that
  ``level_schedule`` makes of L's entries (Anderson and Saad, "Solving
  sparse triangular linear systems on parallel computers", 1989). The FE
  level of a row is 1 + the largest level among the columns that update
  it, the BS level of a column 1 + the largest level among its rows. FE
  applies L's entries grouped by the level of their row, BS grouped by
  the level of their column, each group with one ``np.subtract.at`` on
  the array ``x``. The stable sort that groups them keeps CSC order
  inside a group, so each entry of x sees the reference's subtractions in
  the reference's order. Its cost per solve is one numpy call per level,
  not one interpreted step per entry, so it wins on wide factors: those
  whose mean level width, nnz(L) / levels, reaches
  ``SCHEDULE_MIN_WIDTH``.

``solve_ldl``, ``solve_fe`` and ``solve_bs`` have two execution paths over
one loop body:

- with numba installed, the bodies are compiled and run on the arrays,
  and ``ldl_operands`` returns the arrays themselves. The compiled
  ``solve_ldl`` then runs for every factor: ``SCHEDULE_MIN_WIDTH`` is
  infinite;
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

Nothing here keeps a list or a schedule: the operands live as long as
their caller holds them (``LdlFactor.solve`` for one call,
``LdlFactor.converted`` for one ADMM solve), so a change to ``L.values``
shows in the next conversion. The factorization itself is SuperLU's,
called from ``ldl``.
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


def row_levels(Li, Lj, n):
    """The FE level of each of the n rows of L, given as the lists of its
    entries' rows ``Li`` and columns ``Lj`` in CSC order: 0 for a row that
    no entry updates, else 1 + the largest level among the columns that
    update it. A column's level is final before its entries are read,
    since only columns to its left update its row."""
    level = [0] * n
    for i, j in zip(Li, Lj):
        if level[j] >= level[i]:
            level[i] = level[j] + 1
    return level


def column_levels(Li, Lj, n):
    """The BS level of each of the n columns of L: 0 for a column with no
    entry, else 1 + the largest level among its entries' rows. Read in
    reverse CSC order, a row's level is final before its entries are."""
    level = [0] * n
    for i, j in zip(reversed(Li), reversed(Lj)):
        if level[i] >= level[j]:
            level[j] = level[i] + 1
    return level


def level_count(Li, Lj, n):
    """The number of FE levels of L, which is also its number of BS levels:
    the longest dependency chain of the triangular solve."""
    return max(row_levels(Li.tolist(), Lj.tolist(), n), default=0) + 1


def _groups(level, targets, sources, values):
    """L's entries grouped by ``level``, one level per entry, in ascending
    order: one (targets, sources, values) triple of arrays per level. The
    stable sort keeps CSC order inside a group."""
    order = np.argsort(level, kind="stable")
    level, targets, sources, values = level[order], targets[order], sources[order], values[order]
    starts = np.flatnonzero(np.diff(level, prepend=-1)).tolist()
    return [(targets[a:b], sources[a:b], values[a:b])
            for a, b in zip(starts, starts[1:] + [len(level)])]


def level_schedule(Li, Lx, Lj, dinv):
    """The operands of ``solve_levels``: L's entries grouped for FE by the
    level of their row and for BS by the level of their column, and dinv
    as it is. Levels, like indices, are below n, so the levels and the
    grouped indices are all in Li's dtype: 16 bits for a factor that fits,
    whose level key numpy then radix-sorts."""
    n = len(dinv)
    Lj = Lj.astype(Li.dtype)
    rows, cols = Li.tolist(), Lj.tolist()
    fe = np.array(row_levels(rows, cols, n), dtype=Li.dtype)[Li]
    bs = np.array(column_levels(rows, cols, n), dtype=Li.dtype)[Lj]
    return _groups(fe, Li, Lj, Lx), dinv, _groups(bs, Lj, Li, Lx)


def _apply_levels(groups, x):
    for targets, sources, values in groups:
        np.subtract.at(x, targets, values * x[sources])


def solve_levels(fe, dinv, bs, x):
    """In-place solve of (I+L) D (I+L)^T x = b for b given in the array x,
    on the groups of ``level_schedule``: one ``np.subtract.at`` per level
    and direction. ``ufunc.at`` applies a repeated target in order, so
    each entry of x sees the subtractions of ``_forward`` and
    ``_backward``, in their order; every source it reads is final, since
    it lies on a lower level."""
    _apply_levels(fe, x)
    x *= dinv
    _apply_levels(bs, x)


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
    # nnz(L) / levels from which the level schedule beats the list solve.
    # Per KKT solve in fp64 on a 2-vCPU x86 host, the schedule took 2.5x
    # the list solve's time at a mean width of 12 (P2x2), 1.16x at 36
    # (P4x4), 1.0x at 42 (P5x5) and 0.76x at 76 (P8x8).
    SCHEDULE_MIN_WIDTH = 40
else:
    solve_fe = njit(cache=True)(_forward)
    solve_bs = njit(cache=True)(_backward)
    solve_ldl = njit(cache=True)(_ldl)
    ldl_operands = _as_arrays
    SCHEDULE_MIN_WIDTH = np.inf
