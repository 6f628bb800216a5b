"""The fill-reducing ordering that ``ldl_numeric`` takes from SuperLU
(multiple minimum degree on K + K^T), and the permutation it returns."""

import itertools

import numpy as np
import pytest
import scipy.sparse

from etmpc.csc import DimensionError
from etmpc.ldl import ldl_numeric

from oracles import assert_permutation_pair, reconstruct_permuted, symbolic_fill_count


def arrow_pattern(n):
    a = np.eye(n, dtype=bool)
    a[0, :] = True
    a[:, 0] = True
    return a


def grid_laplacian_pattern(nw, nh):
    n = nw * nh
    a = np.eye(n, dtype=bool)
    for r in range(nh):
        for c in range(nw):
            i = r * nw + c
            if c + 1 < nw:
                a[i, i + 1] = a[i + 1, i] = True
            if r + 1 < nh:
                a[i, i + nw] = a[i + nw, i] = True
    return a


def factor_of(pattern):
    """Factor of a diagonally dominant matrix with the given symmetric
    pattern: every order has positive pivots."""
    a = np.where(pattern, -1.0, 0.0)
    np.fill_diagonal(a, pattern.sum(axis=1) + 1.0)
    return ldl_numeric(scipy.sparse.csc_array(np.triu(a)))


def test_diagonal_matrix_returns_identity():
    f = ldl_numeric(scipy.sparse.csc_array(np.eye(6)))
    np.testing.assert_array_equal(f.perm, np.arange(6))
    assert_permutation_pair(f.perm, f.inv_perm, f.L.nnz)


def test_arrow_matrix_is_fill_free():
    pat = arrow_pattern(5)
    f = factor_of(pat)
    assert_permutation_pair(f.perm, f.inv_perm, f.L.nnz)
    # brute force: the best achievable fill over all 120 orders is 0
    best = min(symbolic_fill_count(pat, order)
               for order in itertools.permutations(range(5)))
    assert best == 0
    assert symbolic_fill_count(pat, f.perm.tolist()) == 0
    # the dense node goes last
    assert f.perm[-1] == 0
    # natural order fills the lower-right block completely: C(4,2) = 6
    assert symbolic_fill_count(pat, list(range(5))) == 6


def test_grid_laplacian_fill_not_worse_than_natural():
    pat = grid_laplacian_pattern(4, 4)
    f = factor_of(pat)
    fill = symbolic_fill_count(pat, f.perm.tolist())
    assert f.L.nnz == np.count_nonzero(np.tril(pat, -1)) + fill
    assert fill <= symbolic_fill_count(pat, list(range(16)))


def test_deterministic():
    rng = np.random.default_rng(7)
    a = rng.random((30, 30)) < 0.1
    a = a | a.T | np.eye(30, dtype=bool)
    f1, f2 = factor_of(a), factor_of(a)
    for one, two in ((f1.perm, f2.perm), (f1.inv_perm, f2.inv_perm), (f1.L.colptr, f2.L.colptr),
                     (f1.L.rowidx, f2.L.rowidx), (f1.L.values, f2.L.values), (f1.d, f2.d)):
        np.testing.assert_array_equal(one, two)


def test_rejects_non_square():
    with pytest.raises(DimensionError):
        ldl_numeric(scipy.sparse.csc_array(np.ones((2, 3))))


def test_unsymmetric_input_symmetrized():
    # the stored upper triangle stands for the symmetric matrix it mirrors
    a = np.eye(4) * 2.0
    a[0, 3] = 1.0
    f = ldl_numeric(scipy.sparse.csc_array(a))
    assert_permutation_pair(f.perm, f.inv_perm, f.L.nnz)
    full = a + np.triu(a, 1).T
    np.testing.assert_allclose(reconstruct_permuted(f), full[np.ix_(f.perm, f.perm)])

