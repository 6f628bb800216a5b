import numpy as np
import pytest

from etmpc.csc import SparseCSC, DimensionError
from etmpc.qp import AdmmSettings, QpProblem, assemble_kkt


def test_from_dense_round_trip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 5))
    a[rng.random((7, 5)) < 0.6] = 0.0
    m = SparseCSC.from_dense(a)
    np.testing.assert_array_equal(m.to_dense(), a)
    assert np.shares_memory(m.csc.data, m.values)  # the scipy view copies nothing


def test_from_coo_sums_duplicates():
    m = SparseCSC.from_coo(3, 3, [0, 0, 2], [1, 1, 2], [1.0, 2.0, 5.0])
    assert m.nnz == 2
    assert m.to_dense()[0, 1] == 3.0


def test_validate_rejects_bad_colptr():
    with pytest.raises(DimensionError):
        SparseCSC(2, 2, np.array([0, 1]), np.array([0]), np.array([1.0]))


def test_validate_rejects_unsorted_rows():
    with pytest.raises(ValueError):
        SparseCSC(3, 1, np.array([0, 2]), np.array([2, 1]), np.array([1.0, 1.0]))


def test_validate_rejects_out_of_range_row():
    with pytest.raises(ValueError):
        SparseCSC(2, 1, np.array([0, 1]), np.array([5]), np.array([1.0]))


def test_matvec_and_rmatvec_match_dense():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 4))
    a[rng.random((6, 4)) < 0.5] = 0.0
    m = SparseCSC.from_dense(a)
    x = rng.standard_normal(4)
    y = rng.standard_normal(6)
    np.testing.assert_allclose(m.csc @ x, a @ x, atol=1e-14)
    np.testing.assert_allclose(m.csc.T @ y, a.T @ y, atol=1e-14)


def test_symmetric_matvec_upper():
    # the residual operator KktSystem.P rebuilds both triangles of an upper-stored P
    rng = np.random.default_rng(2)
    b = rng.standard_normal((5, 5))
    s = b @ b.T + np.eye(5)
    problem = QpProblem(SparseCSC.from_dense(np.triu(s)), np.zeros(5),
                        SparseCSC.identity(5), -np.ones(5), np.ones(5))
    kkt = assemble_kkt(problem, AdmmSettings())
    x = rng.standard_normal(5)
    np.testing.assert_allclose(kkt.P @ x, s @ x, atol=1e-13)


def test_identity_and_diag():
    d = SparseCSC.diag(np.array([2.0, -1.0]))
    np.testing.assert_array_equal(d.to_dense(), np.diag([2.0, -1.0]))
    i = SparseCSC.identity(3)
    np.testing.assert_array_equal(i.to_dense(), np.eye(3))
