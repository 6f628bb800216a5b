import numpy as np
import pytest
import scipy.sparse

from etmpc.csc import SparseCSC, strictly_lower, symmetric_from_upper
from etmpc.qp import AdmmSettings, QpProblem, assemble_kkt


def test_round_trip_shares_the_values_array():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 5))
    a[rng.random((7, 5)) < 0.6] = 0.0
    mat = scipy.sparse.csc_array(a)
    m = SparseCSC(mat)
    np.testing.assert_array_equal(m.to_dense(), a)
    assert m.shape == (7, 5) and m.nnz == np.count_nonzero(a)
    assert m.colptr.dtype == m.rowidx.dtype == np.int32
    assert np.shares_memory(m.values, mat.data)  # a canonical matrix is not copied


def test_sums_duplicates_and_keeps_explicit_zeros():
    coo = scipy.sparse.coo_array(([1.0, 5.0, 2.0, 0.0], ([0, 2, 0, 1], [1, 2, 1, 0])),
                                 shape=(3, 3))
    m = SparseCSC(coo)
    assert m.nnz == 3  # the explicit zero at (1, 0) stays stored
    np.testing.assert_array_equal(m.colptr, [0, 1, 2, 3])
    np.testing.assert_array_equal(m.rowidx, [1, 0, 2])
    np.testing.assert_array_equal(m.values, [0.0, 3.0, 5.0])
    assert m.colptr.dtype == m.rowidx.dtype == np.int32


def test_sorts_unsorted_rows_without_touching_the_input():
    mat = scipy.sparse.csc_array((np.array([1.0, 2.0]), np.array([2, 1]), np.array([0, 2])),
                                 shape=(3, 1))
    m = SparseCSC(mat)
    np.testing.assert_array_equal(m.rowidx, [1, 2])
    np.testing.assert_array_equal(m.values, [2.0, 1.0])
    np.testing.assert_array_equal(mat.indices, [2, 1])


def test_matvec_and_rmatvec_match_dense():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 4))
    a[rng.random((6, 4)) < 0.5] = 0.0
    problem = QpProblem(scipy.sparse.csc_array(np.eye(4)), np.zeros(4),
                        scipy.sparse.csc_array(a), -np.ones(6), np.ones(6))
    kkt = assemble_kkt(problem, AdmmSettings())
    x = rng.standard_normal(4)
    y = rng.standard_normal(6)
    np.testing.assert_allclose(kkt.A @ x, a @ x, atol=1e-14)
    np.testing.assert_allclose(kkt.At @ y, a.T @ y, atol=1e-14)


def test_symmetric_matvec_upper():
    # the residual operator KktSystem.P rebuilds both triangles of an upper-stored P
    rng = np.random.default_rng(2)
    b = rng.standard_normal((5, 5))
    s = b @ b.T + np.eye(5)
    problem = QpProblem(scipy.sparse.csc_array(np.triu(s)), np.zeros(5),
                        scipy.sparse.csc_array(np.eye(5)), -np.ones(5), np.ones(5))
    kkt = assemble_kkt(problem, AdmmSettings())
    x = rng.standard_normal(5)
    np.testing.assert_allclose(kkt.P @ x, s @ x, atol=1e-13)


# The bring-up helpers against the scipy expressions they replace, on random
# matrices with explicit zeros (-0.0 among them), empty columns, and entries
# stored twice or out of row order. A duplicated entry is stored exactly
# twice, so its sum does not depend on the order of addition.


def random_csc(rng, n, dtype, upper, canonical):
    mask = rng.random((n, n)) < 0.45
    if upper:
        mask = np.triu(mask)
    mask[:, rng.random(n) < 0.25] = False
    cols, rows = np.nonzero(mask.T)
    vals = rng.standard_normal(rows.size)
    zero = rng.random(rows.size) < 0.2
    vals[zero] = np.where(rng.random(rows.size) < 0.5, 0.0, -0.0)[zero]
    if not canonical:
        twice = rng.random(rows.size) < 0.2
        rows, cols, vals = (np.concatenate([a, a[twice]]) for a in (rows, cols, vals))
    order = np.lexsort((rng.random(rows.size) if not canonical else rows, cols))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(cols, minlength=n))])
    return scipy.sparse.csc_array((vals[order].astype(dtype), rows[order], indptr), shape=(n, n))


def assert_same_arrays(got, ref):
    """Equal CSC arrays, values compared bit for bit (signed zeros too)."""
    np.testing.assert_array_equal(got.colptr, ref.indptr)
    np.testing.assert_array_equal(got.rowidx, ref.indices)
    assert got.values.dtype == ref.data.dtype
    assert got.values.tobytes() == ref.data.tobytes()


CASES = [(dtype, canonical, seed) for dtype in (np.float64, np.float32)
         for canonical in (True, False) for seed in range(3)]


@pytest.mark.parametrize("dtype, canonical, seed", CASES)
def test_symmetric_from_upper_matches_scipy_mirror(dtype, canonical, seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 12):
        up = random_csc(rng, n, dtype, upper=True, canonical=canonical)
        ref = (up + scipy.sparse.triu(up, k=1).T).tocsc()
        if canonical:
            assert ref.has_canonical_format
        else:
            ref.sum_duplicates()   # as splu does before it reads the matrix
        got = symmetric_from_upper(SparseCSC(up))
        assert_same_arrays(got, ref)
        assert not np.any(got.values == 0)


@pytest.mark.parametrize("dtype, canonical, seed", CASES)
def test_strictly_lower_matches_scipy_tril(dtype, canonical, seed):
    rng = np.random.default_rng(100 + seed)
    for n in range(1, 12):
        mat = random_csc(rng, n, dtype, upper=False, canonical=canonical)
        assert_same_arrays(strictly_lower(mat), scipy.sparse.tril(mat, k=-1, format="csc"))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_from_triplets_matches_scipy_coo_to_csc(dtype):
    rng = np.random.default_rng(7)
    for nrows, ncols in [(1, 1), (5, 3), (3, 7), (9, 9)]:
        k = int(rng.integers(0, nrows * ncols))
        rows = rng.integers(0, nrows, k)
        cols = rng.integers(0, ncols, k)
        vals = rng.standard_normal(k).astype(dtype)
        vals[rng.random(k) < 0.2] = 0.0
        twice = rng.random(k) < 0.3
        rows, cols, vals = (np.concatenate([a, a[twice]]) for a in (rows, cols, vals))
        keys = cols * nrows + rows
        once = np.bincount(keys, minlength=nrows * ncols)[keys] <= 2
        rows, cols, vals = rows[once], cols[once], vals[once]
        ref = scipy.sparse.coo_array((vals, (rows, cols)), shape=(nrows, ncols)).tocsc()
        got = SparseCSC.from_triplets(rows, cols, vals, (nrows, ncols))
        assert got.shape == (nrows, ncols)
        assert got.colptr.dtype == got.rowidx.dtype == np.int32
        assert_same_arrays(got, ref)


def test_to_scipy_shares_the_arrays():
    m = SparseCSC(scipy.sparse.csc_array(np.triu(np.ones((4, 4)))))
    mat = m.to_scipy()
    assert all(np.shares_memory(a, b) for a, b in
               ((mat.data, m.values), (mat.indices, m.rowidx), (mat.indptr, m.colptr)))
