"""Triangular solves with the LDL^T factor.

``LdlFactor.solve`` runs forward elimination (FE), the diagonal scale and
backward substitution (BS) in one of three passes. All are byte-identical
to the sequential reference ``solve_fe``, ``x *= dinv``, ``solve_bs`` on
the permuted right-hand side: FE and BS alone, on L's three CSC arrays
(column pointers, row indices, values), column by column.

- ``SolvePlan.solve``, the generated solve, for a narrow factor without
  numba. ``ldl_source`` writes the solve of one sparsity pattern of L and
  one permutation as straight-line Python: b is unpacked into one local
  per entry, FE is one chained statement per row of L, the diagonal scale
  one statement per entry, BS one chained statement per column, and x is
  returned in the original order, so the permutation costs nothing. Each
  statement subtracts the reference's products in the reference's order.
  ``solve_plan`` compiles it once per pattern and keeps it, with the
  pattern's arrays, in a cache of ``PLAN_CACHE_SIZE`` patterns; each
  solve then only feeds it L's values and dinv, as lists.
- ``solve_levels``, the level-scheduled solve, for a wide factor without
  numba, over the groups that ``level_schedule`` makes of L's entries
  (Anderson and Saad, "Solving sparse triangular linear systems on
  parallel computers", 1989). The FE level of a row is 1 + the largest
  level among the columns that update it, the BS level of a column 1 +
  the largest level among its rows. FE applies L's entries grouped by the
  level of their row, BS grouped by the level of their column, each group
  with one ``np.subtract.at`` on the array ``x``. The stable sort that
  groups them keeps CSC order inside a group, so each entry of x sees the
  reference's subtractions in the reference's order. Its cost per solve
  is one numpy call per level, not one interpreted step per entry, so it
  wins on wide factors: those whose mean level width, nnz(L) / levels,
  reaches ``SCHEDULE_MIN_WIDTH``.
- ``solve_ldl``, the one-pass loop, compiled by numba for every factor
  when numba is installed (``SCHEDULE_MIN_WIDTH`` is then infinite). FE
  is one flat loop over L's (row, value, column) triples in CSC order. It
  reads ``x[column]`` per entry, which gives the same value as reading it
  once per column, since no entry of a column updates that column's own
  row. BS is the column loop of ``_backward``.

Without numba the reference solves ``solve_fe`` and ``solve_bs`` run
their loop bodies on Python lists, which the interpreter indexes several
times faster than numpy arrays: L's arrays through ``tolist``, converted
inside each call, and x through ``as_list``, written back into x once
when the body returns. The generated solve computes on the same scalars.
Every update still rounds in x's dtype, and the conversions are exact for
fp32 and fp64. An fp64 x becomes Python floats, whose arithmetic is the
same IEEE double arithmetic and costs less per operation than numpy
scalars'. An fp32 x becomes ``np.float32`` scalars: Python floats would
compute in double and round twice. L's values and dinv, which meet x in
products, take the same form; under NumPy >= 2 (NEP 50) a Python float
from ``tolist`` would also round in float32, but costs more per product.

What this module keeps is the compiled code and the read-only pattern
arrays of the cached plans, which factors of those patterns share as
their own index arrays. Values are never kept: the operands, lists or
schedule, live as long as their caller holds them (``LdlFactor.solve``
for one call, ``LdlFactor.converted`` for one ADMM solve), so a change to
``L.values`` shows in the next conversion. The factorization itself is
SuperLU's, called from ``ldl``.
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


def as_list(x):
    """The entries of the fp32 or fp64 vector ``x`` as the interpreted
    solves compute on them: Python floats if it is fp64, its own scalars
    otherwise."""
    return x.tolist() if x.dtype == np.float64 else list(x)


def _on_lists(body):
    """``body`` run on Python lists: the operand arrays as ``tolist`` gives
    them, ``x`` as ``as_list`` gives it, written back into ``x`` once at
    the end."""

    @functools.wraps(body)
    def solve(*args):
        x = args[-1]
        xs = as_list(x)
        body(*(a.tolist() for a in args[:-1]), xs)
        x[:] = xs

    return solve


# The most products one generated statement subtracts. Python's compiler
# recurses once per operator of an expression, and a longer row continues
# in the next statement, which rounds the same.
STATEMENT_TERMS = 32
# Sparsity patterns whose generated solves stay cached in a process.
PLAN_CACHE_SIZE = 8


def _chained(target, terms):
    """Statements that subtract ``terms`` from ``target``, in order."""
    return [f" {target} = {target} - {' - '.join(terms[a:a + STATEMENT_TERMS])}"
            for a in range(0, len(terms), STATEMENT_TERMS)]


def ldl_source(colptr, rowidx, inv_perm):
    """Python source of ``solve(l, d, b)``, which solves K x = b as
    straight-line code, for K[perm][:, perm] = (I+L) D (I+L)^T with L of
    pattern (``colptr``, ``rowidx``) and ``perm`` the inverse of
    ``inv_perm``. ``l`` holds L's values in CSC order, ``d`` the
    reciprocal pivots, ``b`` the right-hand side in the original order;
    it returns x in the original order.

    ``x{k}`` is the k-th entry of the permuted vector, so unpacking ``b``
    into ``x{inv_perm[i]}`` and returning them in that order applies the
    permutation and its inverse. FE is one chained statement per row of L,
    ``x5 = x5 - l0*x0 - l3*x1``: its products in column order, the order in
    which ``_forward`` subtracts them. The diagonal scale follows, then BS,
    one chained statement per column from the last, its products in CSC
    order as in ``_backward``. Each product and difference has the
    operands of the reference's, in the same order, so it rounds the
    same."""
    n = len(colptr) - 1
    Lp, Li = colptr.tolist(), rowidx.tolist()
    rows = [[] for _ in range(n)]
    for j in range(n):
        for p in range(Lp[j], Lp[j + 1]):
            rows[Li[p]].append(f"l{p}*x{j}")
    x = ", ".join(f"x{k}" for k in inv_perm.tolist())
    lines = ["def solve(l, d, b):",
             f" [{x}] = b",
             f" [{', '.join(f'l{p}' for p in range(Lp[n]))}] = l",
             f" [{', '.join(f'd{k}' for k in range(n))}] = d"]
    for i in range(n):
        lines += _chained(f"x{i}", rows[i])
    lines += [f" x{k} = x{k} * d{k}" for k in range(n)]
    for j in range(n - 1, -1, -1):
        lines += _chained(f"x{j}", [f"l{p}*x{Li[p]}" for p in range(Lp[j], Lp[j + 1])])
    lines.append(f" return [{x}]")
    return "\n".join(lines)


def ldl_kernel(colptr, rowidx, inv_perm):
    """The function that ``ldl_source`` writes, compiled."""
    namespace = {}
    exec(compile(ldl_source(colptr, rowidx, inv_perm),
                 f"<LDL solve, n={len(inv_perm)}, nnz={len(rowidx)}>", "exec"), namespace)
    return namespace["solve"]


class SolvePlan:
    """The generated solve of one sparsity pattern of L and permutation,
    and the pattern's arrays, read-only: L's ``colptr`` and ``rowidx``,
    ``perm`` and ``inv_perm``. Every factor of the pattern shares them."""

    __slots__ = ("colptr", "rowidx", "perm", "inv_perm", "kernel")

    def __init__(self, colptr, rowidx, perm, inv_perm):
        self.colptr, self.rowidx, self.perm, self.inv_perm = colptr, rowidx, perm, inv_perm
        self.kernel = ldl_kernel(colptr, rowidx, inv_perm)

    def solve(self, Lx, dinv, b):
        """x of K x = b, for b an fp32 or fp64 vector in the original
        order and L's values ``Lx`` and ``dinv`` in b's dtype, all three as
        ``as_list`` gives them; x is returned in b's dtype."""
        return np.array(self.kernel(Lx, dinv, as_list(b)), dtype=b.dtype)


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(*pattern):
    return SolvePlan(*(np.frombuffer(data, dtype) for dtype, data in pattern))


def solve_plan(colptr, rowidx, perm, inv_perm):
    """The ``SolvePlan`` of this pattern: generated and compiled on the
    first call, then taken from a cache of the last ``PLAN_CACHE_SIZE``
    patterns, keyed by the arrays' dtypes and bytes. Its arrays are
    read-only copies, made once per pattern."""
    return _cached_plan(*((a.dtype.str, a.tobytes()) for a in (colptr, rowidx, perm, inv_perm)))


try:
    from numba import njit
except ImportError:  # pragma: no cover - exercised only without numba
    COMPILED = False
    solve_fe = _on_lists(_forward)
    solve_bs = _on_lists(_backward)
    # nnz(L) / levels from which a factor runs on the level schedule
    # instead of the solve generated for its pattern. Per KKT solve on a
    # 2-vCPU x86 host (Python 3.11), the schedule took 2.3-7x the
    # generated solve's time in fp64 up to P6x6, and 1.5x at P8x8 (width
    # 76), whose generated solve would cost an 80 ms compile and 1 MiB
    # (250 KiB of bytecode) per pattern. In fp32 it took 1.0x at P4x4
    # (width 36), 0.8x at P5x5 (42), 0.7x at P6x6 and 0.5x at P8x8.
    SCHEDULE_MIN_WIDTH = 40
else:
    COMPILED = True
    solve_fe = njit(cache=True)(_forward)
    solve_bs = njit(cache=True)(_backward)
    solve_ldl = njit(cache=True)(_ldl)
    SCHEDULE_MIN_WIDTH = np.inf
