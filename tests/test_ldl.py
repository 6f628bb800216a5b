import numpy as np
import pytest
import scipy.sparse

import etmpc._kernels
from etmpc.csc import DimensionError, SparseCSC, column_indices
from etmpc.ldl import FactorizationError, LdlFactor, ldl_numeric
from etmpc.mpc import build_mpc_qp, update_mpc_step
from etmpc.power import PowerModelParams
from etmpc.pruning import prune_model
from etmpc.qp import AdmmSettings, AdmmSolver, assemble_kkt
from etmpc.thermal import GridSpec, build_thermal_model, default_domains, discretize

from oracles import (assert_permutation_pair, dense_ldl, dense_lower_pattern_after_elimination,
                     longest_path_levels, random_kkt_upper, reconstruct_permuted, sptrsv_bs,
                     sptrsv_fe)


# without numba, a wide factor's solve runs on the level schedule
INTERPRETED = etmpc._kernels.SCHEDULE_MIN_WIDTH < np.inf


def upper_csc(dense):
    return scipy.sparse.csc_array(np.triu(dense))


def index_pattern(L):
    """Dense boolean pattern of L read from its indices alone, not its values."""
    rows, cols, _ = L.triplets()
    pattern = np.zeros(L.shape, dtype=bool)
    pattern[rows, cols] = True
    return pattern


def permuted(k, f):
    """P K P^T in the factor's order, K the symmetric matrix whose upper
    triangle is ``k``."""
    full = np.triu(k) + np.triu(k, 1).T
    return full[np.ix_(f.perm, f.perm)]


def test_2x2_by_hand():
    k = np.array([[2.0, 1.0], [1.0, -3.0]])
    f = ldl_numeric(upper_csc(k))
    # both orders are minimum degree; pivoting on a leaves b - c^2/a
    (a, b), c = np.diag(k)[f.perm], k[0, 1]
    np.testing.assert_allclose(f.L.to_dense()[1, 0], c / a)
    np.testing.assert_allclose(f.d, [a, b - c * c / a])
    np.testing.assert_allclose(f.dinv, 1.0 / f.d)


def test_diagonal_matrix():
    diag = np.array([4.0, -2.0])
    f = ldl_numeric(upper_csc(np.diag(diag)))
    assert f.L.nnz == 0
    np.testing.assert_allclose(f.dinv, 1.0 / diag[f.perm])


def test_near_zero_pivot_raises_with_column():
    k = np.array([[1.0, 1.0], [1.0, 1.0]])  # second pivot exactly 0
    with pytest.raises(FactorizationError) as e:
        ldl_numeric(upper_csc(k))
    assert e.value.column is None   # SuperLU stops without saying where
    k[1, 1] = 1.0 + 1e-14           # second pivot 1e-14, below the fp64 tolerance
    with pytest.raises(FactorizationError) as e:
        ldl_numeric(upper_csc(k))
    assert e.value.column == 1


def test_near_zero_pivot_column_fp32():
    k = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=np.float32)
    with pytest.raises(FactorizationError) as e:
        ldl_numeric(upper_csc(k))
    assert e.value.column is None
    k[1, 1] = 1.0 + 1e-7            # rounds to 1 + 2^-23: a pivot below the fp32 tolerance
    with pytest.raises(FactorizationError) as e:
        ldl_numeric(upper_csc(k))
    assert e.value.column == 1


def test_off_diagonal_pivot_raises():
    # a zero diagonal makes SuperLU pivot on a row off it: no LDL^T in that order
    with pytest.raises(FactorizationError, match="off-diagonal"):
        ldl_numeric(upper_csc(np.array([[0.0, 1.0], [1.0, 0.0]])))


def test_factor_rejects_below_diagonal_entry():
    k = np.array([[2.0, 1.0], [1.0, 3.0]])  # both triangles stored
    with pytest.raises(ValueError):
        ldl_numeric(scipy.sparse.csc_array(k))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.complex128])
def test_factor_rejects_non_float_storage(dtype):
    k = scipy.sparse.csc_array(np.triu(np.array([[4, 1], [1, 3]])).astype(dtype))
    with pytest.raises(TypeError, match=f"only float32 and float64.*{np.dtype(dtype)}"):
        ldl_numeric(k)


def test_fp32_factor_is_rounded_double_factor():
    rng = np.random.default_rng(17)
    k32 = random_kkt_upper(rng, 12, 8).astype(np.float32)
    f32 = ldl_numeric(scipy.sparse.csc_array(k32))
    f64 = ldl_numeric(scipy.sparse.csc_array(k32.astype(np.float64)))
    np.testing.assert_array_equal(f32.perm, f64.perm)
    np.testing.assert_array_equal(f32.L.rowidx, f64.L.rowidx)
    for got, ref in ((f32.L.values, f64.L.values), (f32.d, f64.d), (f32.dinv, f64.dinv)):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, ref.astype(np.float32))


def test_reconstruction_random_kkt():
    rng = np.random.default_rng(11)
    k = random_kkt_upper(rng, 12, 8)
    f = ldl_numeric(scipy.sparse.csc_array(k))
    assert_permutation_pair(f.perm, f.inv_perm, f.L.nnz)
    err = np.max(np.abs(permuted(k, f) - reconstruct_permuted(f)))
    assert err <= 1e-10


def test_symbolic_pattern_matches_dense_oracle_arrow():
    n = 5
    k = np.eye(n) * 2.0
    k[0, :] = 1.0
    k[:, 0] = 1.0
    k[0, 0] = n
    f = ldl_numeric(upper_csc(k))
    np.testing.assert_array_equal(index_pattern(f.L),
                                  dense_lower_pattern_after_elimination(permuted(k, f)))
    assert f.L.nnz == n - 1


def test_symbolic_pattern_chain_no_fill():
    # symmetric nonzeros at (2,1) and (3,2): a chain, no fill
    k = np.eye(4) * 2.0
    k[1, 2] = k[2, 1] = 1.0
    k[2, 3] = k[3, 2] = 1.0
    f = ldl_numeric(upper_csc(k))
    np.testing.assert_array_equal(index_pattern(f.L),
                                  dense_lower_pattern_after_elimination(permuted(k, f)))
    assert f.L.nnz == 2


def test_factor_pattern_matches_dense_elimination_on_random_kkts():
    # L holds exactly the entries that eliminating P K P^T fills, no
    # explicit zeros beyond them
    rng = np.random.default_rng(3)
    for trial in range(100):
        k = random_kkt_upper(rng, int(rng.integers(2, 14)), int(rng.integers(1, 10)))
        f = ldl_numeric(scipy.sparse.csc_array(k))
        np.testing.assert_array_equal(index_pattern(f.L),
                                      dense_lower_pattern_after_elimination(permuted(k, f)))


def unit_lower(dense):
    """The raw arrays of the strictly lower triangle of ``dense``."""
    return SparseCSC(scipy.sparse.csc_array(np.tril(dense, -1)))


def test_fe_bs_tiny_example():
    L = unit_lower([[0.0, 0.0], [0.5, 0.0]])
    np.testing.assert_allclose(sptrsv_fe(L, [2.0, 2.0]), [2.0, 1.0])
    np.testing.assert_allclose(sptrsv_bs(L, [2.0, 1.0]), [1.5, 1.0])


def test_fe_bs_empty_L_is_identity():
    L = unit_lower(np.zeros((3, 3)))
    b = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(sptrsv_fe(L, b), b)
    np.testing.assert_array_equal(sptrsv_bs(L, b), b)


def test_fe_bs_random_50_matches_dense_oracle():
    rng = np.random.default_rng(5)
    ldense = np.tril(rng.standard_normal((50, 50)), -1)
    ldense[np.abs(ldense) < 1.0] = 0.0
    ldense *= 0.3  # keep the unit-diagonal solve well conditioned
    L = unit_lower(ldense)
    b = rng.standard_normal(50)
    unit = ldense + np.eye(50)
    xe = np.linalg.solve(unit, b)
    xb = np.linalg.solve(unit.T, b)
    rel = lambda got, ref: np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert rel(sptrsv_fe(L, b), xe) < 1e-12
    assert rel(sptrsv_bs(L, b), xb) < 1e-12


@pytest.mark.parametrize("solve", [sptrsv_fe, sptrsv_bs])
def test_fe_bs_reject_matrix_rhs(solve):
    L = unit_lower([[0.0, 0.0], [0.5, 0.0]])
    with pytest.raises(DimensionError):
        solve(L, np.ones((2, 3)))
    with pytest.raises(DimensionError):
        solve(L, np.ones(3))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("body, public", [
    (etmpc._kernels._forward, etmpc._kernels.solve_fe),
    (etmpc._kernels._backward, etmpc._kernels.solve_bs),
])
def test_list_path_is_byte_exact_with_the_loop_body_on_arrays(body, public, dtype):
    """Solving on Python lists must not change one bit of x, the sign of a
    zero included: every update still rounds in x's dtype, and the result
    lands in x, a strided view included, leaving what lies between alone."""
    rng = np.random.default_rng(13)
    ldense = np.tril(rng.standard_normal((40, 40)), -1)
    ldense[rng.random((40, 40)) < 0.7] = 0.0
    for L in (unit_lower(ldense.astype(dtype)), unit_lower(np.zeros((3, 3), dtype=dtype))):
        assert L.dtype == dtype
        for zero_share in (0.0, 0.5, 0.9):
            b = rng.standard_normal(L.nrows).astype(dtype)
            zeros = rng.random(L.nrows) < zero_share
            b[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
            ref = b.copy()
            body(L.colptr, L.rowidx, L.values, ref)
            for solve in (etmpc._kernels._on_lists(body), public):
                x = b.copy()
                solve(L.colptr, L.rowidx, L.values, x)
                assert x.dtype == dtype and x.tobytes() == ref.tobytes()
                buf = np.full(2 * L.nrows, 7.0, dtype=dtype)
                buf[::2] = b
                solve(L.colptr, L.rowidx, L.values, buf[::2])
                assert buf[::2].tobytes() == ref.tobytes() and np.all(buf[1::2] == 7.0)


def extreme_inputs(dtype, rng, n=40):
    """An L whose values, and right-hand sides whose entries, hold the IEEE
    special cases: inf and NaN in b (a NaN payload and inf - inf
    included), subnormals in b and L, and L values whose products with x
    overflow. Returns (L, list of b, the values for dinv)."""
    info = np.finfo(dtype)
    uint = {np.float64: np.uint64, np.float32: np.uint32}[dtype]
    nan_payload = np.array(0xFFF8_0000_0000_0123 if dtype == np.float64 else 0xFFC0_0123,
                           dtype=uint).view(dtype)[()]
    big = info.max / 4
    lvals = [0.5, -2.0, 3.0, big, -big, info.smallest_subnormal, 0.25 * info.tiny]
    L = unit_lower(np.where(rng.random((n, n)) < 0.08, rng.choice(lvals, (n, n)), 0.0).astype(dtype))
    specials = np.array([np.inf, -np.inf, np.nan, nan_payload, info.smallest_subnormal,
                         -3 * info.smallest_subnormal, info.max, -info.max, -0.0], dtype=dtype)
    bs = []
    for _ in range(10):
        b = rng.standard_normal(n).astype(dtype)
        pick = rng.random(n) < 0.15
        b[pick] = rng.choice(specials, pick.sum())
        bs.append(b)
    return L, bs, np.array([1.0, -0.5, 3.0, big, info.smallest_subnormal, info.tiny], dtype=dtype)


def assert_extremes_reach(results, dtype):
    """The cases of ``extreme_inputs`` all reach the results."""
    info = np.finfo(dtype)
    seen = np.concatenate(results)
    finite = np.abs(seen[np.isfinite(seen)])
    assert np.isnan(seen).any() and np.isinf(seen).any()
    assert ((finite > 0) & (finite < info.tiny)).any() and (finite >= info.tiny).any()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("body, public", [
    (etmpc._kernels._forward, etmpc._kernels.solve_fe),
    (etmpc._kernels._backward, etmpc._kernels.solve_bs),
])
def test_list_path_is_byte_exact_on_extreme_inputs(body, public, dtype):
    """An fp64 x is solved on Python floats, not numpy scalars, so the IEEE
    special cases of ``extreme_inputs`` must keep their bits too."""
    L, bs, _ = extreme_inputs(dtype, np.random.default_rng(17))
    refs = []
    for b in bs:
        with np.errstate(all="ignore"):
            ref = b.copy()
            body(L.colptr, L.rowidx, L.values, ref)
            for solve in (etmpc._kernels._on_lists(body), public):
                x = b.copy()
                solve(L.colptr, L.rowidx, L.values, x)
                assert x.tobytes() == ref.tobytes()
        refs.append(ref)
    assert_extremes_reach(refs, dtype)


def ldl_reference(L, dinv, b):
    """FE, the diagonal scale and BS on arrays, one after the other: the
    sequential reference of ``_kernels.solve_ldl``."""
    x = b.copy()
    etmpc._kernels._forward(L.colptr, L.rowidx, L.values, x)
    x *= dinv
    etmpc._kernels._backward(L.colptr, L.rowidx, L.values, x)
    return x


def ldl_paths():
    """``solve_ldl`` as the package runs it (compiled with numba), on Python
    lists whether numba is installed or not, and the level-scheduled pass
    on arrays; each takes (L, dinv, x)."""
    k = etmpc._kernels
    operands = lambda L, dinv, convert: convert(L.colptr, L.rowidx, L.values,
                                                column_indices(L.colptr), dinv)
    return (lambda L, dinv, x: k.solve_ldl(*operands(L, dinv, k.ldl_operands), x),
            lambda L, dinv, x: k._x_on_list(k._ldl)(*operands(L, dinv, k._as_lists), x),
            lambda L, dinv, x: k.solve_levels(*k.level_schedule(
                L.rowidx, L.values, column_indices(L.colptr), dinv), x))


def mpc_qp(grid):
    """The P{grid}x{grid}_H2 controller's QP (``MpcQp``) and thermal model."""
    spec = GridSpec(grid, grid, hp=2, domains=default_domains(grid, grid))
    model = build_thermal_model(spec)
    discretize(model)
    model = prune_model(model, 0.005)
    return build_mpc_qp(model, spec, PowerModelParams()), model


def mpc_factor(grid, dtype):
    """The factor of the P{grid}x{grid}_H2 controller's KKT matrix."""
    precision = {np.float64: "fp64", np.float32: "fp32"}[dtype]
    return assemble_kkt(mpc_qp(grid)[0].qp, AdmmSettings(precision=precision)).factor


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_solve_ldl_is_byte_exact_with_the_array_reference(dtype):
    """The one-pass solve, flat FE included, and the level-scheduled pass
    must give the bits of FE, ``*= dinv`` and BS on arrays, on the
    controller's factors and on random ones, and write the result into x,
    a strided view included."""
    rng = np.random.default_rng(23)
    factors = [mpc_factor(grid, dtype) for grid in (2, 3, 4, 8)]
    factors += [ldl_numeric(scipy.sparse.csc_array(
        random_kkt_upper(rng, int(rng.integers(2, 30)), int(rng.integers(1, 20))).astype(dtype)))
        for _ in range(20)]
    assert all(f.L.dtype == dtype for f in factors) and factors[3].L.nnz > 5000
    for f in factors:
        for zero_share in (0.0, 0.5):
            b = rng.standard_normal(f.n).astype(dtype)
            zeros = rng.random(f.n) < zero_share
            b[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
            ref = ldl_reference(f.L, f.dinv, b)
            for solve in ldl_paths():
                x = b.copy()
                solve(f.L, f.dinv, x)
                assert x.dtype == dtype and x.tobytes() == ref.tobytes()
                buf = np.full(2 * f.n, 7.0, dtype=dtype)
                buf[::2] = b
                solve(f.L, f.dinv, buf[::2])
                assert buf[::2].tobytes() == ref.tobytes() and np.all(buf[1::2] == 7.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_solve_ldl_is_byte_exact_on_extreme_inputs(dtype):
    rng = np.random.default_rng(29)
    L, bs, dvals = extreme_inputs(dtype, rng)
    refs = []
    for b in bs:
        dinv = rng.choice(dvals, L.nrows)
        with np.errstate(all="ignore"):
            ref = ldl_reference(L, dinv, b)
            for solve in ldl_paths():
                x = b.copy()
                solve(L, dinv, x)
                assert x.tobytes() == ref.tobytes()
        refs.append(ref)
    assert_extremes_reach(refs, dtype)


def factor_reference(f, b):
    """``LdlFactor.solve`` on the sequential reference."""
    xp = np.ascontiguousarray(np.asarray(b)[f.perm], dtype=f.L.dtype)
    return ldl_reference(f.L, f.dinv, xp)[f.inv_perm]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_factor_solve_is_byte_exact_with_the_reference(dtype):
    """Outside an ADMM solve, each call converts L for itself and keeps
    nothing."""
    rng = np.random.default_rng(31)
    for f in [mpc_factor(grid, dtype) for grid in (2, 4, 8)] + [
            ldl_numeric(scipy.sparse.csc_array(random_kkt_upper(rng, 12, 8).astype(dtype)))]:
        for _ in range(3):
            b = rng.standard_normal(f.n)
            assert f.solve(b).tobytes() == factor_reference(f, b).tobytes()
            assert f._operands is None


def test_factor_solve_reads_L_values_on_every_call():
    """A factor must keep no copy of L's values, on the list pass or the
    level schedule: the benchmark's KKT gate perturbs one of them in place
    and expects the solve to change."""
    rng = np.random.default_rng(21)
    narrow = ldl_numeric(scipy.sparse.csc_array(random_kkt_upper(rng, 6, 4)))
    wide = mpc_factor(8, np.float64)
    assert not narrow.scheduled and wide.scheduled == INTERPRETED
    for f in (narrow, wide):
        assert f.L.nnz > 0
        b = rng.standard_normal(f.n)
        before = f.solve(b)
        np.testing.assert_array_equal(f.solve(b), before)
        f.L.values[np.argmax(np.abs(f.L.values))] *= 1 + 1e-6
        assert not np.array_equal(f.solve(b), before)


def test_solve_round_trip_fuzz():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 10))
        k = random_kkt_upper(rng, n, m)
        full = np.triu(k) + np.triu(k, 1).T
        f = ldl_numeric(scipy.sparse.csc_array(k))
        b = rng.standard_normal(n + m)
        x = f.solve(b)
        assert np.max(np.abs(full @ x - b)) <= 1e-8 * max(np.max(np.abs(b)), 1e-30)


def test_dense_ldl_oracle_agreement():
    rng = np.random.default_rng(9)
    k = random_kkt_upper(rng, 6, 4)
    f = ldl_numeric(scipy.sparse.csc_array(k))
    L_o, d_o = dense_ldl(permuted(k, f))
    np.testing.assert_allclose(f.L.to_dense() + np.eye(10), L_o, atol=1e-9)
    np.testing.assert_allclose(f.d, d_o, atol=1e-9)


def test_factor_solve_rejects_matrix_rhs_before_any_work(monkeypatch):
    f = ldl_numeric(upper_csc(np.array([[2.0, 1.0], [1.0, -3.0]])))
    calls = []
    for name in ("ldl_operands", "solve_ldl"):
        monkeypatch.setattr(etmpc._kernels, name, lambda *args: calls.append(args))
    for b in (np.ones((2, 3)), np.ones((2, 1)), np.ones(3), np.float64(1.0)):
        with pytest.raises(DimensionError):
            f.solve(b)
    assert calls == []


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_kkt_solves_inside_an_admm_solve_are_byte_exact(precision):
    """Inside ``AdmmSolver.solve`` every KKT solve runs on the solve's one
    conversion of L and must still give the reference's bits."""
    rng = np.random.default_rng(37)
    for grid, solves in ((2, 2), (4, 2), (8, 1)):
        mpcqp, model = mpc_qp(grid)
        update_mpc_step(mpcqp, rng.uniform(30.0, 36.0, model.n_x),
                        rng.uniform(0.5, 4.0, model.n_u))
        solver = AdmmSolver(mpcqp.qp, AdmmSettings(precision=precision))
        f = solver.kkt.factor
        exact = []

        def spy(b):
            x = LdlFactor.solve(f, b)
            exact.append(f._operands is not None
                         and x.tobytes() == factor_reference(f, b).tobytes())
            return x

        f.solve = spy   # shadows the method, for this factor alone
        for _ in range(solves):
            solver.solve()
        assert exact == [True] * (solves * solver.settings.max_iter)


def test_wide_factors_take_the_level_schedule_and_narrow_ones_the_list_pass():
    """Without numba a factor whose mean level width, nnz(L) / levels,
    reaches ``SCHEDULE_MIN_WIDTH`` runs on the level schedule: P8x8
    (6244 / 82 = 76.1) does, P2x2 (11.9) and P4x4 (35.6) do not. With
    numba every factor runs the compiled one-pass solve."""
    k = etmpc._kernels
    for grid, wide in ((2, False), (4, False), (8, True)):
        f = mpc_factor(grid, np.float64)
        assert (f.L.nnz >= 40 * f.levels) == wide
        with f.converted():
            kernel, operands = f._operands
            if wide and INTERPRETED:
                fe, dinv, bs = operands
                # one group per level above 0, in each direction
                assert kernel is k.solve_levels and len(fe) == len(bs) == f.levels - 1
                assert dinv is f.dinv
                assert sum(len(values) for _, _, values in fe + bs) == 2 * f.L.nnz
            else:
                assert kernel is k.solve_ldl and len(operands) == 5
        assert f._operands is None


def test_levels_match_a_longest_path_oracle():
    rng = np.random.default_rng(41)
    factors = [ldl_numeric(scipy.sparse.csc_array(
        random_kkt_upper(rng, int(rng.integers(2, 30)), int(rng.integers(1, 20)))))
        for _ in range(30)]
    factors.append(mpc_factor(8, np.float64))
    for f in factors:
        L = f.L
        rows, cols = L.rowidx.tolist(), column_indices(L.colptr).tolist()
        fe, bs = longest_path_levels(index_pattern(L))
        assert etmpc._kernels.row_levels(rows, cols, f.n) == fe.tolist()
        assert etmpc._kernels.column_levels(rows, cols, f.n) == bs.tolist()
        assert f.levels == fe.max() + 1 == bs.max() + 1
    assert factors[-1].levels == 82


def test_factor_indices_are_16_bit_while_n_and_nnz_are_below_2_to_the_15():
    """perm, inv_perm and L's index arrays are int16 while n and nnz(L) are
    below 2**15, and int32 from there; the solve is the same either way."""
    for n in (2**15 - 1, 2**15):
        diag = np.linspace(1.0, 2.0, n)
        f = ldl_numeric(scipy.sparse.diags_array(diag, format="csc"))
        index = np.int16 if n < 2**15 else np.int32
        assert f.L.nnz == 0 and f.levels == 1
        assert f.L.colptr.dtype == f.L.rowidx.dtype == f.perm.dtype == f.inv_perm.dtype == index
        assert_permutation_pair(f.perm, f.inv_perm, f.L.nnz)
        assert f.solve(diag).tobytes() == factor_reference(f, diag).tobytes()
    for n in (256, 257):   # nnz(L) = n (n - 1) / 2: 32640, then 32896
        f = ldl_numeric(upper_csc(np.ones((n, n)) + n * np.eye(n)))
        index = np.int16 if n == 256 else np.int32
        assert f.L.nnz == n * (n - 1) // 2
        assert f.L.colptr.dtype == f.L.rowidx.dtype == f.perm.dtype == index
        b = np.arange(n, dtype=np.float64)
        assert f.solve(b).tobytes() == factor_reference(f, b).tobytes()
