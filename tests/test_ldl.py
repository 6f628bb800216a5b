import numpy as np
import pytest

from etmpc.csc import DimensionError, SparseCSC
from etmpc.ldl import (
    FactorizationError,
    factorize,
    ldl_numeric,
    ldl_symbolic,
    sptrsv_bs,
    sptrsv_fe,
)
from etmpc.ordering import amd_order, Permutation

from oracles import dense_ldl, dense_lower_pattern_after_elimination, random_kkt_upper


def upper_csc(dense):
    return SparseCSC.from_dense(np.triu(dense))


def index_pattern(L):
    """Dense boolean pattern of L read from its indices alone, not its values."""
    rows, cols, _ = L.triplets()
    pattern = np.zeros(L.shape, dtype=bool)
    pattern[rows, cols] = True
    return pattern


def test_2x2_by_hand():
    k = np.array([[2.0, 1.0], [1.0, -3.0]])
    f = factorize(upper_csc(k))
    np.testing.assert_allclose(f.L.to_dense()[1, 0], 0.5)
    np.testing.assert_allclose(f.dinv, [0.5, -1.0 / 3.5])


def test_diagonal_matrix():
    f = factorize(upper_csc(np.diag([4.0, -2.0])))
    assert f.L.nnz == 0
    np.testing.assert_allclose(f.dinv, [0.25, -0.5])


def test_near_zero_pivot_raises_with_column():
    k = np.array([[1.0, 1.0], [1.0, 1.0]])  # second pivot exactly 0
    with pytest.raises(FactorizationError) as e:
        factorize(upper_csc(k))
    assert e.value.column == 1


def test_near_zero_pivot_column_fp32():
    k = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.float32)
    with pytest.raises(FactorizationError) as e:
        factorize(upper_csc(k))
    assert e.value.column == 1


def test_symbolic_rejects_below_diagonal_entry():
    k = np.array([[2.0, 1.0], [1.0, 3.0]])  # both triangles stored
    with pytest.raises(ValueError):
        ldl_symbolic(SparseCSC.from_dense(k))


def test_fp32_factor_is_rounded_double_factor():
    rng = np.random.default_rng(17)
    k32 = random_kkt_upper(rng, 12, 8).astype(np.float32)
    upper32 = SparseCSC.from_dense(k32)
    perm = amd_order(upper32)
    f32 = factorize(upper32, perm)
    f64 = factorize(SparseCSC.from_dense(k32.astype(np.float64)), perm)
    np.testing.assert_array_equal(f32.L.rowidx, f64.L.rowidx)
    for got, ref in ((f32.L.values, f64.L.values), (f32.d, f64.d), (f32.dinv, f64.dinv)):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, ref.astype(np.float32))


def test_reconstruction_random_kkt():
    rng = np.random.default_rng(11)
    k = random_kkt_upper(rng, 12, 8)
    upper = SparseCSC.from_dense(k)
    perm = amd_order(upper)
    f = ldl_numeric(ldl_symbolic(upper, perm))
    full = np.triu(k) + np.triu(k, 1).T
    pkp = full[np.ix_(perm.perm, perm.perm)]
    err = np.max(np.abs(pkp - f.reconstruct_permuted()))
    assert err <= 1e-10


def test_symbolic_pattern_matches_dense_oracle_arrow():
    n = 5
    k = np.eye(n) * 2.0
    k[0, :] = 1.0
    k[:, 0] = 1.0
    k[0, 0] = n
    sym = ldl_symbolic(upper_csc(k), Permutation.identity(n))
    L = ldl_numeric(sym).L
    np.testing.assert_array_equal(index_pattern(L), dense_lower_pattern_after_elimination(k))
    np.testing.assert_array_equal(L.colptr, sym.colptr)


def test_symbolic_pattern_chain_no_fill():
    # symmetric nonzeros at (2,1) and (3,2): a chain, no fill
    k = np.eye(4) * 2.0
    k[1, 2] = k[2, 1] = 1.0
    k[2, 3] = k[3, 2] = 1.0
    sym = ldl_symbolic(upper_csc(k), Permutation.identity(4))
    L = ldl_numeric(sym).L
    np.testing.assert_array_equal(index_pattern(L), dense_lower_pattern_after_elimination(k))
    assert sym.l_nnz == L.nnz == 2


def test_numeric_structural_nonzeros_subset_of_symbolic():
    rng = np.random.default_rng(3)
    k = random_kkt_upper(rng, 10, 6)
    upper = SparseCSC.from_dense(k)
    perm = amd_order(upper)
    sym = ldl_symbolic(upper, perm)
    L = ldl_numeric(sym).L
    np.testing.assert_array_equal(L.colptr, sym.colptr)
    assert sym.l_nnz == L.nnz
    pkp = k[np.ix_(perm.perm, perm.perm)]
    np.testing.assert_array_equal(index_pattern(L), dense_lower_pattern_after_elimination(pkp))


def test_fe_bs_tiny_example():
    L = SparseCSC.from_coo(2, 2, [1], [0], [0.5])
    np.testing.assert_allclose(sptrsv_fe(L, [2.0, 2.0]), [2.0, 1.0])
    np.testing.assert_allclose(sptrsv_bs(L, [2.0, 1.0]), [1.5, 1.0])


def test_fe_bs_empty_L_is_identity():
    L = SparseCSC.empty(3, 3)
    b = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(sptrsv_fe(L, b), b)
    np.testing.assert_array_equal(sptrsv_bs(L, b), b)


def test_fe_bs_random_50_matches_dense_oracle():
    rng = np.random.default_rng(5)
    ldense = np.tril(rng.standard_normal((50, 50)), -1)
    ldense[np.abs(ldense) < 1.0] = 0.0
    ldense *= 0.3  # keep the unit-diagonal solve well conditioned
    L = SparseCSC.from_dense(ldense)
    b = rng.standard_normal(50)
    unit = ldense + np.eye(50)
    xe = np.linalg.solve(unit, b)
    xb = np.linalg.solve(unit.T, b)
    rel = lambda got, ref: np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert rel(sptrsv_fe(L, b), xe) < 1e-12
    assert rel(sptrsv_bs(L, b), xb) < 1e-12


@pytest.mark.parametrize("solve", [sptrsv_fe, sptrsv_bs])
def test_fe_bs_reject_matrix_rhs(solve):
    L = SparseCSC.from_coo(2, 2, [1], [0], [0.5])
    with pytest.raises(DimensionError):
        solve(L, np.ones((2, 3)))
    with pytest.raises(DimensionError):
        solve(L, np.ones(3))


def test_solve_round_trip_fuzz():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 10))
        k = random_kkt_upper(rng, n, m)
        upper = SparseCSC.from_dense(k)
        full = np.triu(k) + np.triu(k, 1).T
        f = factorize(upper, amd_order(upper))
        b = rng.standard_normal(n + m)
        x = f.solve(b)
        assert np.max(np.abs(full @ x - b)) <= 1e-8 * max(np.max(np.abs(b)), 1e-30)


def test_dense_ldl_oracle_agreement():
    rng = np.random.default_rng(9)
    k = random_kkt_upper(rng, 6, 4)
    full = np.triu(k) + np.triu(k, 1).T
    L_o, d_o = dense_ldl(full)
    f = factorize(SparseCSC.from_dense(k), Permutation.identity(10))
    np.testing.assert_allclose(f.L.to_dense() + np.eye(10), L_o, atol=1e-9)
    np.testing.assert_allclose(f.d, d_o, atol=1e-9)

