"""Triangular solves with the LDL^T factor, planned once per sparsity pattern.

``LdlFactor.solve`` runs forward elimination (FE), the diagonal scale and
backward substitution (BS) through a plan: the one object that knows how
a sparsity pattern of L and a permutation are solved. How a pattern is
solved depends on the pattern alone, so its plan is made ahead of time,
once, and each solve feeds it L's values and dinv (Anderson and Saad,
"Solving sparse triangular linear systems on parallel computers", 1989).
``solve_plan`` is the one place that picks a plan. It builds it on the
pattern's first bring-up in a process and keeps it in a cache of
``PLAN_CACHE_SIZE`` patterns.

The two plan classes share one interface: the pattern's read-only arrays
``colptr``, ``rowidx``, ``perm`` and ``inv_perm``, ``operands(Lx, dinv)``,
called once per conversion of L's values, and ``solve(*operands, b)``,
which takes b and returns x in the original order. Both are
byte-identical to the sequential reference, ``ldl_reference`` in
``tests/oracles.py``: FE, ``x *= dinv`` and BS on the permuted right-hand
side, on L's three CSC arrays (column pointers, row indices, values),
column by column. FE takes the columns in order and subtracts
L[i, j] x[j] from x[i] down each column; BS takes them from the last and
subtracts the column's products L[i, j] x[i] from x[j] in CSC order.

- ``SolvePlan``, the generated solve. ``ldl_source`` writes the solve of
  the pattern as a straight-line Python generator: L's values and dinv
  are unpacked into one local each when it starts, then each b sent to
  it is unpacked into one local per entry, FE is one chained statement
  per row of L, the diagonal scale one statement per entry, BS one
  chained statement per column, and x is yielded in the original order,
  so the permutation costs nothing. Each statement subtracts the
  reference's products in the reference's order. Its operands are one
  such generator, started on L's values and dinv as lists.
- ``LevelPlan``, the level schedule. The FE level of a row is 1 + the
  largest level among the columns that update it, the BS level of a
  column 1 + the largest level among its rows; it alone computes levels,
  and keeps their number as ``levels``. FE applies L's entries grouped by
  the level of their row, BS grouped by the level of their column, each
  group with one ``np.subtract.at`` on the permuted x. The stable sort
  that groups them keeps CSC order inside a group, so each entry of x
  sees the reference's subtractions in the reference's order. Its
  operands are L's values gathered per group, and dinv as it is.

The generated solve costs one interpreted step per entry of L; the
schedule costs one numpy call per group. In fp64 the generated solve is
the faster at every controller grid measured, in fp32 up to P4x4. What
limits it is its build, a source and a compile that grow with
n + nnz(L): from 49 KiB and 31 ms at P4x4 to 252 KiB, 119 ms and 28.5 MB
of peak RSS at P8x8. ``solve_plan`` therefore picks the plan by size
alone: a pattern with n + nnz(L) of at least ``SCHEDULE_MIN_SIZE`` runs
on the level schedule, any other on the solve generated for it.

Why a generator. CPython 3.11-3.13 put each function call's frame on a
per-thread data stack made of 16 KiB chunks; a frame that does not fit
in the rest of the current chunk gets a chunk of its own, allocated and
freed on every call. A function with one local per entry of b, dinv and
L takes 2,889 slots, 22.6 KiB, at P4x4 (n = 234, nnz(L) = 1,209), so it
would pay for a fresh chunk on every solve. A generator's frame lives in
the generator object, on the heap, made once per conversion of L, and
each ``send`` resumes it: every pattern reads L's values from its locals,
``l3*x1``, four bytecodes per product against six for reading them from
a list by index, ``l[3]*x1``.

What this module keeps is the cached plans: their compiled code or
groups, and the read-only pattern arrays, which factors of the pattern
share as their own index arrays. Values are never kept: the operands live
as long as their caller holds them (``AdmmSolver.solve`` for one ADMM
solve, ``LdlFactor.solve`` for one call given none), so a change to
``L.values`` shows in the next conversion. The factorization itself is
SuperLU's, called from ``ldl``.
"""

from __future__ import annotations

import functools

import numpy as np

from .csc import column_indices


def row_levels(Li, Lj, n):
    """The FE level of each of the n rows of L, given as the lists of its
    entries' rows ``Li`` and columns ``Lj`` in CSC order: 0 for a row that
    no entry updates, else 1 + the largest level among the columns that
    update it. A column's level is final before its entries are read,
    since only columns to its left update its row.

    Run on L^T in reverse CSC order, ``row_levels(Lj[::-1], Li[::-1], n)``,
    it gives the BS level of each column of L: 0 for a column with no
    entry, else 1 + the largest level among its entries' rows, each of
    which is final before its entries are read."""
    level = [0] * n
    for i, j in zip(Li, Lj):
        if level[j] >= level[i]:
            level[i] = level[j] + 1
    return level


def as_list(x):
    """The entries of the fp32 or fp64 vector ``x`` as a list, which the
    interpreter indexes several times faster than an array, exactly:
    Python floats, whose IEEE double arithmetic costs less than numpy
    scalars', if x is fp64, and its ``np.float32`` scalars otherwise, since
    Python floats would compute in double and round twice (and, meeting an
    ``np.float32`` under NEP 50, cost more per product). L's values and
    dinv take x's form, so every update of a solve rounds in x's dtype."""
    return x.tolist() if x.dtype == np.float64 else list(x)


# The most products one generated statement subtracts. Python's compiler
# recurses once per operator of an expression, and a longer row continues
# in the next statement, which rounds the same.
STATEMENT_TERMS = 32
# Sparsity patterns whose plans stay cached in a process.
PLAN_CACHE_SIZE = 8
# n + nnz(L) from which a pattern runs on the level schedule instead of
# the solve generated for it. On a 2-vCPU x86 host (Python 3.11.7), the
# generated solve took 0.2-0.6x the schedule's time per KKT solve in fp64
# from P3x3 to P8x8, and in fp32 0.5x at P3x3, 0.8x at P4x4 (n + nnz(L) =
# 1,443), 1.7x at P5x5 (2,416) and 1.5-1.9x above. Its build grows with
# n + nnz(L): source, compile and growth of peak RSS came to 49 KiB and
# 31 ms at P4x4, 126 KiB, 49 ms and 15.9 MB at P6x6 (3,610), 252 KiB,
# 119 ms and 28.5 MB at P8x8 (7,150), and 750 KiB, 418 ms and 72.6 MB at
# P12x12 (19,466). The bound sits at fp32's crossover; above it, the fp64
# solves it gives up would each cost a build of tens of MB.
SCHEDULE_MIN_SIZE = 2048


def _chained(target, terms):
    """Statements that subtract ``terms`` from ``target``, in order."""
    return [f"  {target} = {target} - {' - '.join(terms[a:a + STATEMENT_TERMS])}"
            for a in range(0, len(terms), STATEMENT_TERMS)]


def ldl_source(colptr, rowidx, inv_perm):
    """Python source of the generator ``solve(l, d)``, which solves K x = b
    as straight-line code, for K[perm][:, perm] = (I+L) D (I+L)^T with L of
    pattern (``colptr``, ``rowidx``) and ``perm`` the inverse of
    ``inv_perm``. ``l`` holds L's values in CSC order and ``d`` the
    reciprocal pivots; it unpacks them into the locals ``l{p}`` and
    ``d{k}``, then yields None and, for each b in the original order sent
    to it, yields x in the original order.

    ``x{k}`` is the k-th entry of the permuted vector, so unpacking ``b``
    into ``x{inv_perm[i]}`` and yielding them in that order applies the
    permutation and its inverse. FE is one chained statement per row of L,
    ``x5 = x5 - l0*x0 - l3*x1``: its products in column order, the order in
    which the reference's FE subtracts them. The diagonal scale follows,
    then BS, one chained statement per column from the last, its products
    in CSC order as in the reference's BS. Each product and difference
    has the operands of the reference's, in the same order, so it rounds
    the same."""
    n = len(colptr) - 1
    Lp, Li = colptr.tolist(), rowidx.tolist()
    rows = [[] for _ in range(n)]
    for j in range(n):
        for p in range(Lp[j], Lp[j + 1]):
            rows[Li[p]].append(f"l{p}*x{j}")
    x = ", ".join(f"x{k}" for k in inv_perm.tolist())
    lines = ["def solve(l, d):",
             f" [{', '.join(f'l{p}' for p in range(Lp[n]))}] = l",
             f" [{', '.join(f'd{k}' for k in range(n))}] = d",
             " b = yield",
             " while True:",
             f"  [{x}] = b"]
    for i in range(n):
        lines += _chained(f"x{i}", rows[i])
    lines += [f"  x{k} = x{k} * d{k}" for k in range(n)]
    for j in range(n - 1, -1, -1):
        lines += _chained(f"x{j}", [f"l{p}*x{Li[p]}" for p in range(Lp[j], Lp[j + 1])])
    lines.append(f"  b = yield [{x}]")
    return "\n".join(lines)


def ldl_kernel(colptr, rowidx, inv_perm):
    """The generator function that ``ldl_source`` writes, compiled."""
    namespace = {}
    exec(compile(ldl_source(colptr, rowidx, inv_perm),
                 f"<LDL solve, n={len(inv_perm)}, nnz={len(rowidx)}>", "exec"), namespace)
    return namespace["solve"]


class _Plan:
    """What both plans hold: the pattern's arrays, read-only and shared by
    every factor of the pattern."""

    __slots__ = ("colptr", "rowidx", "perm", "inv_perm")

    def __init__(self, colptr, rowidx, perm, inv_perm):
        self.colptr, self.rowidx, self.perm, self.inv_perm = colptr, rowidx, perm, inv_perm


class SolvePlan(_Plan):
    """The solve that ``ldl_source`` writes for the pattern, compiled."""

    __slots__ = ("kernel",)

    def __init__(self, *pattern):
        super().__init__(*pattern)
        self.kernel = ldl_kernel(self.colptr, self.rowidx, self.inv_perm)

    def operands(self, Lx, dinv):
        """A new generator of the solve, started on L's values and dinv as
        ``as_list`` gives them, which it holds from then on. It runs one
        solve at a time, so threads that solve at once each need their own."""
        generator = self.kernel(as_list(Lx), as_list(dinv))
        next(generator)
        return (generator,)

    def solve(self, generator, b):
        """x of K x = b, for b an fp32 or fp64 vector in the original order
        and ``generator`` made from operands in b's dtype; x is returned in
        b's dtype. An exception inside a solve, such as numpy's
        FloatingPointError on fp32 operands, ends the generator: a later
        solve on it raises RuntimeError."""
        try:
            x = generator.send(as_list(b))
        except StopIteration:
            raise RuntimeError("these operands ended with an error in an earlier solve; "
                               "make new ones") from None
        return np.array(x, dtype=b.dtype)


def _groups(level, targets, sources):
    """L's entries grouped by the ``level`` of their target, one level per
    row or column, in ascending order: per level, the entries' ``targets``
    and ``sources``, in their dtype, and their positions in CSC order, in
    numpy's native index type, which gathers L's values without a cast.
    The stable sort keeps CSC order inside a group."""
    level = np.array(level, dtype=targets.dtype)[targets]
    order = np.argsort(level, kind="stable")
    starts = np.flatnonzero(np.diff(level[order], prepend=-1)).tolist()
    return [(targets[p], sources[p], p)
            for p in (order[a:b] for a, b in zip(starts, starts[1:] + [len(order)]))]


def _apply(groups, values, x):
    for (targets, sources, _), v in zip(groups, values):
        np.subtract.at(x, targets, v * x[sources])


class LevelPlan(_Plan):
    """The level schedule of the pattern: ``fe`` groups L's entries by the
    level of their row, ``bs`` by the level of their column, one group per
    level above 0, and ``levels`` is the number of FE levels, which is
    also the number of BS levels. Levels, like indices, are below n, so
    the grouped targets and sources and the level keys are in L's index
    dtype: 16 bits for a factor that fits, whose level key numpy then
    radix-sorts."""

    __slots__ = ("levels", "fe", "bs")

    def __init__(self, *pattern):
        super().__init__(*pattern)
        rows, columns = self.rowidx, column_indices(self.colptr).astype(self.rowidx.dtype)
        Li, Lj, n = rows.tolist(), columns.tolist(), len(self.perm)
        fe = row_levels(Li, Lj, n)
        self.levels = max(fe, default=0) + 1
        self.fe = _groups(fe, rows, columns)
        self.bs = _groups(row_levels(Lj[::-1], Li[::-1], n), columns, rows)

    def operands(self, Lx, dinv):
        """L's values gathered per FE group, dinv, and per BS group."""
        return [Lx[p] for _, _, p in self.fe], dinv, [Lx[p] for _, _, p in self.bs]

    def solve(self, fe, dinv, bs, b):
        """x of K x = b, for b a vector in the original order, in the
        dtype of the operands: one ``np.subtract.at`` per group and
        direction on the permuted x. ``ufunc.at`` applies a repeated
        target in order, so each entry of x sees the subtractions of
        the reference's FE and BS, in their order; every source it
        reads is final, since it lies on a lower level."""
        x = b[self.perm]
        _apply(self.fe, fe, x)
        x *= dinv
        _apply(self.bs, bs, x)
        return x[self.inv_perm]


@functools.lru_cache(maxsize=PLAN_CACHE_SIZE)
def _cached_plan(*pattern):
    colptr, rowidx, perm, inv_perm = (np.frombuffer(data, dtype) for dtype, data in pattern)
    scheduled = len(perm) + len(rowidx) >= SCHEDULE_MIN_SIZE
    return (LevelPlan if scheduled else SolvePlan)(colptr, rowidx, perm, inv_perm)


def solve_plan(colptr, rowidx, perm, inv_perm):
    """The plan of this pattern: a ``LevelPlan`` if n + nnz(L) reaches
    ``SCHEDULE_MIN_SIZE``, else a ``SolvePlan``. It is built on the first
    call, then taken from a cache of the last ``PLAN_CACHE_SIZE`` patterns,
    keyed by the arrays' dtypes and bytes. Its arrays are read-only copies,
    made once per pattern."""
    return _cached_plan(*((a.dtype.str, a.tobytes()) for a in (colptr, rowidx, perm, inv_perm)))
