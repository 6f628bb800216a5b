"""Fill-reducing symmetric ordering.

Classic minimum degree on a quotient graph with the approximate-degree
update used by AMD-family codes. Bit-exact agreement with any particular
library is not a goal; determinism and fill reduction are.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .csc import SparseCSC, DimensionError


@dataclass(frozen=True)
class Permutation:
    """perm[k] = original index of the k-th pivot; inv_perm undoes it."""

    perm: np.ndarray
    inv_perm: np.ndarray

    @classmethod
    def from_order(cls, order) -> "Permutation":
        perm = np.asarray(order, dtype=np.int32)
        inv = np.empty_like(perm)
        inv[perm] = np.arange(perm.size, dtype=np.int32)
        return cls(perm, inv)

    @classmethod
    def identity(cls, n) -> "Permutation":
        idx = np.arange(n, dtype=np.int32)
        return cls(idx, idx.copy())

    @property
    def n(self) -> int:
        return self.perm.size

    def validate(self) -> "Permutation":
        n = self.n
        if sorted(self.perm.tolist()) != list(range(n)):
            raise ValueError("perm is not a bijection")
        if np.any(self.perm[self.inv_perm] != np.arange(n)):
            raise ValueError("inv_perm does not invert perm")
        return self


def amd_order(pattern: SparseCSC) -> Permutation:
    """Fill-reducing ordering of a structurally symmetric sparse pattern.

    Non-symmetric inputs are symmetrized internally. Identical input yields
    an identical ordering (ties break toward the smallest node index).
    """
    if pattern.nrows != pattern.ncols:
        raise DimensionError("ordering needs a square matrix")
    n = pattern.nrows
    if n == 0:
        return Permutation.identity(0)

    adj = [set() for _ in range(n)]
    rows, cols, _ = pattern.triplets()
    for r, c in zip(rows.tolist(), cols.tolist()):
        if r != c:
            adj[c].add(r)
            adj[r].add(c)

    elem_of = [set() for _ in range(n)]      # elements adjacent to each variable
    elements: dict[int, set] = {}            # element id -> variable set
    outside = [0] * n                        # element id -> |Le \ Lp| this step
    degree = [len(a) for a in adj]
    alive = [True] * n
    heap = list(zip(degree, range(n)))
    heapq.heapify(heap)
    order = []

    while len(order) < n:
        d, piv = heapq.heappop(heap)
        if not alive[piv] or d != degree[piv]:
            continue
        alive[piv] = False
        order.append(piv)

        # new element: union of direct neighbours and absorbed elements
        absorbed = elem_of[piv]
        le = set(adj[piv])
        for e in absorbed:
            le |= elements.pop(e)
        le.discard(piv)
        le = {j for j in le if alive[j]}
        adj[piv].clear()
        elem_of[piv] = set()
        if not le:
            continue
        elements[piv] = le

        # |Le \ Lp| of every live element that meets Lp, from one count;
        # a variable holding an absorbed element is in Lp, so this drops
        # every absorbed element from every elem_of
        for j in le:
            elem_of[j] -= absorbed
        met = Counter(chain.from_iterable(map(elem_of.__getitem__, le)))
        for e, c in met.items():
            outside[e] = len(elements[e]) - c

        ext = len(le) - 1
        cap = n - len(order)
        for j in le:
            adj[j].discard(piv)
            adj[j] -= le
            approx = len(adj[j]) + ext + sum(map(outside.__getitem__, elem_of[j]))
            elem_of[j].add(piv)
            degree[j] = min(cap, approx)
            heapq.heappush(heap, (degree[j], j))

    return Permutation.from_order(order)
