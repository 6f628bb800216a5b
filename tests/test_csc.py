import numpy as np
import scipy.sparse

from etmpc.csc import SparseCSC
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
