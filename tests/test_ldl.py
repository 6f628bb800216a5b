import inspect

import numpy as np
import pytest
import scipy.sparse

import etmpc._kernels
from etmpc._kernels import SCHEDULE_MIN_SIZE, LevelPlan, SolvePlan
from etmpc.csc import DimensionError, SparseCSC, column_indices
from etmpc.ldl import FactorizationError, LdlFactor, ldl_numeric
from etmpc.mpc import build_mpc_qp, update_mpc_step
from etmpc.power import PowerModelParams
from etmpc.pruning import prune_model
from etmpc.qp import AdmmSettings, AdmmSolver, assemble_kkt
from etmpc.thermal import GridSpec, build_thermal_model, default_domains, discretize

from oracles import (assert_permutation_pair, dense_ldl, dense_lower_pattern_after_elimination,
                     factor_reference, ldl_reference, longest_path_levels, random_kkt_upper,
                     reconstruct_permuted, sptrsv_bs, sptrsv_fe)


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_factor_rejects_a_non_finite_entry(dtype, bad):
    """SuperLU would factor an inf, to pivots d = [inf, 4] here, and call a
    NaN an exactly zero pivot; both are bad input, found before it runs."""
    with pytest.raises(ValueError, match="non-finite entry"):
        ldl_numeric(upper_csc(np.array([[4.0, 1.0], [1.0, bad]], dtype=dtype)))


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
def test_as_list_keeps_every_bit_and_rounds_in_the_vector_dtype(dtype):
    """The plans' operands: an fp64 vector becomes Python floats, an fp32
    one its ``np.float32`` scalars, and the IEEE special cases of
    ``extreme_inputs`` keep their bits, in the list and in its products."""
    L, bs, dvals = extreme_inputs(dtype, np.random.default_rng(19))
    scalar = float if dtype == np.float64 else np.float32
    for x in (L.values, dvals, *bs):
        xs = etmpc._kernels.as_list(x)
        assert all(type(v) is scalar for v in xs)
        assert np.array(xs, dtype=dtype).tobytes() == x.tobytes()
        with np.errstate(all="ignore"):
            products = [a * b for a, b in zip(xs, xs[1:])]
            want = x[:-1] * x[1:]
        assert np.array(products, dtype=dtype).tobytes() == want.tobytes()


def holds_l0(kernel):
    """The kernel is a generator function that reads L's first value from
    a local of its own."""
    return inspect.isgeneratorfunction(kernel) and "l0" in kernel.__code__.co_varnames


def ldl_paths(L):
    """Both plan classes built on L's pattern and a random permutation,
    each as a function of (dinv, x) that solves in place in the permuted
    order: it permutes x back into b's original order, solves through the
    plan and permutes the result into x."""
    perm = np.random.default_rng(L.nnz).permutation(L.nrows).astype(L.colptr.dtype)
    pattern = (L.colptr, L.rowidx, perm, np.argsort(perm).astype(perm.dtype))
    plans = [SolvePlan(*pattern), LevelPlan(*pattern)]
    assert holds_l0(plans[0].kernel) == (L.nnz > 0)

    def path(plan):
        def solve(dinv, x):
            b = np.empty_like(x)
            b[perm] = x
            x[:] = plan.solve(*plan.operands(L.values, dinv), b)[perm]

        return solve

    return [path(plan) for plan in plans]


def long_row_factor(dtype, n=2002):
    """(L, dinv) whose first column and last row are full: one FE row and
    one BS column of n - 1 = 2001 products each."""
    rng = np.random.default_rng(43)
    ldense = np.zeros((n, n))
    ldense[1:, 0] = rng.standard_normal(n - 1) / n
    ldense[-1, :-1] = rng.standard_normal(n - 1) / n
    L = unit_lower(ldense.astype(dtype))
    L.colptr, L.rowidx = L.colptr.astype(np.int16), L.rowidx.astype(np.int16)
    return L, rng.uniform(0.5, 2.0, n).astype(dtype)


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
def test_both_plans_are_byte_exact_with_the_array_reference(dtype):
    """Both plans, on every pattern, a row of 2001 products included, must
    give the bits of FE, ``*= dinv`` and BS on arrays, on the controller's
    factors and on random ones, and write the result into x, a strided
    view included."""
    rng = np.random.default_rng(23)
    factors = [mpc_factor(grid, dtype) for grid in (2, 3, 4, 8)]
    factors += [ldl_numeric(scipy.sparse.csc_array(
        random_kkt_upper(rng, int(rng.integers(2, 30)), int(rng.integers(1, 20))).astype(dtype)))
        for _ in range(20)]
    assert all(f.L.dtype == dtype for f in factors) and factors[3].L.nnz > 5000
    cases = [(f.L, f.dinv) for f in factors] + [long_row_factor(dtype)]
    for L, dinv in cases:
        n = L.nrows
        paths = ldl_paths(L)
        for zero_share in (0.0, 0.5):
            b = rng.standard_normal(n).astype(dtype)
            zeros = rng.random(n) < zero_share
            b[zeros] = np.where(rng.random(zeros.sum()) < 0.5, -0.0, 0.0)
            ref = ldl_reference(L, dinv, b)
            for solve in paths:
                x = b.copy()
                solve(dinv, x)
                assert x.dtype == dtype and x.tobytes() == ref.tobytes()
                buf = np.full(2 * n, 7.0, dtype=dtype)
                buf[::2] = b
                solve(dinv, buf[::2])
                assert buf[::2].tobytes() == ref.tobytes() and np.all(buf[1::2] == 7.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_both_plans_are_byte_exact_on_extreme_inputs(dtype):
    rng = np.random.default_rng(29)
    L, bs, dvals = extreme_inputs(dtype, rng)
    paths = ldl_paths(L)
    refs = []
    for b in bs:
        dinv = rng.choice(dvals, L.nrows)
        with np.errstate(all="ignore"):
            ref = ldl_reference(L, dinv, b)
            for solve in paths:
                x = b.copy()
                solve(dinv, x)
                assert x.tobytes() == ref.tobytes()
        refs.append(ref)
    assert_extremes_reach(refs, dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_factor_solve_is_byte_exact_with_the_reference(dtype):
    """Given no operands, each call converts L for itself."""
    rng = np.random.default_rng(31)
    for f in [mpc_factor(grid, dtype) for grid in (2, 4, 8)] + [
            ldl_numeric(scipy.sparse.csc_array(random_kkt_upper(rng, 12, 8).astype(dtype)))]:
        for _ in range(3):
            b = rng.standard_normal(f.n)
            assert f.solve(b).tobytes() == factor_reference(f, b).tobytes()


def test_factor_solve_reads_L_values_on_every_call():
    """A factor must keep no copy of L's values, on the generated solve or
    the level schedule: the benchmark's KKT gate perturbs one of them in place
    and expects the solve to change."""
    rng = np.random.default_rng(21)
    narrow = ldl_numeric(scipy.sparse.csc_array(random_kkt_upper(rng, 6, 4)))
    wide = mpc_factor(8, np.float64)
    assert isinstance(narrow.plan, SolvePlan) and isinstance(wide.plan, LevelPlan)
    for f in (narrow, wide):
        assert f.L.nnz > 0
        b = rng.standard_normal(f.n)
        before = f.solve(b)
        np.testing.assert_array_equal(f.solve(b), before)
        f.L.values[np.argmax(np.abs(f.L.values))] *= 1 + 1e-6
        assert not np.array_equal(f.solve(b), before)


def test_operands_ended_by_an_error_refuse_the_next_solve():
    """A floating-point error raised inside the generated solve ends its
    generator; the next solve on those operands says so, and new operands
    solve as before."""
    rng = np.random.default_rng(67)
    f = ldl_numeric(scipy.sparse.csc_array(random_kkt_upper(rng, 6, 4).astype(np.float32)))
    assert type(f.plan) is SolvePlan
    operands = f.operands()
    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):   # inf - inf
        f.solve(np.full(f.n, np.inf, dtype=np.float32), operands)
    b = rng.standard_normal(f.n)
    with pytest.raises(RuntimeError, match="make new ones"):
        f.solve(b, operands)
    assert f.solve(b, f.operands()).tobytes() == factor_reference(f, b).tobytes()


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


def test_factor_solve_rejects_matrix_rhs_before_any_work(factor_conversions):
    f = ldl_numeric(upper_csc(np.array([[2.0, 1.0], [1.0, -3.0]])))
    for b in (np.ones((2, 3)), np.ones((2, 1)), np.ones(3), np.float64(1.0)):
        with pytest.raises(DimensionError):
            f.solve(b)
    assert factor_conversions == []


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_factor_solve_rejects_a_complex_or_non_numeric_rhs(factor_conversions, dtype):
    """Casting a complex b to the factor's dtype would drop its imaginary
    part with no more than a warning; every pass refuses it, and any b
    that is not real numbers, before any work. Integers are real."""
    rng = np.random.default_rng(47)
    narrow = ldl_numeric(scipy.sparse.csc_array(random_kkt_upper(rng, 6, 4).astype(dtype)))
    wide = mpc_factor(8, dtype)
    assert isinstance(narrow.plan, SolvePlan) and isinstance(wide.plan, LevelPlan)
    for f in (narrow, wide):
        for b in (np.array([1 + 2j] + [1.0] * (f.n - 1)), np.ones(f.n, dtype=np.complex64),
                  [True] * f.n, ["1.0"] * f.n, [None] * f.n):
            with pytest.raises(TypeError, match="real numbers"):
                f.solve(b)
    assert factor_conversions == []
    for f in (narrow, wide):
        b = rng.integers(-5, 5, f.n)
        assert f.solve(b).tobytes() == factor_reference(f, b.astype(np.float64)).tobytes()


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_kkt_solves_inside_an_admm_solve_are_byte_exact(precision):
    """Inside ``AdmmSolver.solve`` every KKT solve runs on the solve's one
    conversion of L, the same object for all of them, and must still give
    the reference's bits."""
    rng = np.random.default_rng(37)
    for grid, solves in ((2, 2), (4, 2), (8, 1)):
        mpcqp, model = mpc_qp(grid)
        update_mpc_step(mpcqp, rng.uniform(30.0, 36.0, model.n_x),
                        rng.uniform(0.5, 4.0, model.n_u))
        solver = AdmmSolver(mpcqp.qp, AdmmSettings(precision=precision))
        f = solver.kkt.factor
        exact, seen = [], []

        def spy(b, operands=None):
            x = LdlFactor.solve(f, b, operands)
            exact.append(x.tobytes() == factor_reference(f, b).tobytes())
            seen.append(operands)
            return x

        f.solve = spy   # shadows the method, for this factor alone
        iters = solver.settings.max_iter
        for k in range(solves):
            solver.solve()
            one = seen[k * iters:(k + 1) * iters]
            assert one[0] is not None and all(ops is one[0] for ops in one)
        assert exact == [True] * (solves * iters)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_every_controller_grid_takes_the_plan_of_its_size(dtype):
    """A pattern with n + nnz(L) of at least ``SCHEDULE_MIN_SIZE`` = 2048
    runs on the level schedule: P5x5 (2416) to P12x12 (19466). P1x1 (47)
    to P4x4 (1443) run the solve generated for their pattern, one new
    generator per conversion, which holds L's values and waits for its
    first right-hand side."""
    for grid in range(1, 13):
        f = mpc_factor(grid, dtype)
        plan = SolvePlan if grid <= 4 else LevelPlan
        assert type(f.plan) is plan
        assert (f.n + f.L.nnz >= SCHEDULE_MIN_SIZE) == (plan is LevelPlan)
        operands = f.operands()
        if plan is LevelPlan:
            fe, dinv, bs = operands
            # one group per level above 0, in each direction
            assert len(fe) == len(bs) == f.plan.levels - 1
            assert dinv is f.dinv
            assert sum(len(values) for values in fe + bs) == 2 * f.L.nnz
        else:
            (generator,) = operands
            assert inspect.getgeneratorstate(generator) == inspect.GEN_SUSPENDED
            held = generator.gi_frame.f_locals
            assert [held[f"l{p}"] for p in range(f.L.nnz)] == f.L.values.tolist()
            assert f.operands()[0] is not generator


def test_every_generated_solve_reads_L_from_its_locals():
    """The solves generated for P2x2, P3x3 and P4x4, and for a factor with
    a row and a column of 2001 products, are generator functions that
    unpack L's values into locals, whatever the size of their frame: a
    generator's frame lives on the heap, not on the interpreter's data
    stack."""
    factors = [mpc_factor(grid, np.float64) for grid in (2, 3, 4)]
    assert all(type(f.plan) is SolvePlan for f in factors)
    L, _ = long_row_factor(np.float64)
    inv_perm = np.arange(L.nrows, dtype=L.colptr.dtype)
    kernels = [f.plan.kernel for f in factors]
    kernels.append(etmpc._kernels.ldl_kernel(L.colptr, L.rowidx, inv_perm))
    assert all(holds_l0(kernel) for kernel in kernels)


def test_two_solvers_of_one_pattern_stay_byte_exact_solved_alternately():
    """Two factors of one cached pattern, with different values, solve
    through generators of one compiled kernel that are alive at once; KKT
    solves that alternate between them, and ADMM solves that alternate
    between their solvers, give the bits each gives alone."""
    rng = np.random.default_rng(61)
    mpcqp, model = mpc_qp(4)
    update_mpc_step(mpcqp, rng.uniform(30.0, 36.0, model.n_x), rng.uniform(0.5, 4.0, model.n_u))
    settings = [AdmmSettings(), AdmmSettings(rho=0.4, sigma=1e-5)]
    first, second = (AdmmSolver(mpcqp.qp, s) for s in settings)
    a, b = first.kkt.factor, second.kkt.factor
    assert a.plan is b.plan and type(a.plan) is SolvePlan
    assert not np.array_equal(a.L.values, b.L.values)
    ops_a, ops_b = a.operands(), b.operands()
    for _ in range(3):
        for f, ops in ((a, ops_a), (b, ops_b)):
            rhs = rng.standard_normal(f.n)
            assert f.solve(rhs, ops).tobytes() == factor_reference(f, rhs).tobytes()
    alone = []
    for s in settings:
        solver = AdmmSolver(mpcqp.qp, s)
        alone.append([solver.solve().x.tobytes() for _ in range(3)])
    alternating = [[], []]
    for _ in range(3):
        for xs, solver in zip(alternating, (first, second)):
            xs.append(solver.solve().x.tobytes())
    assert alternating == alone


def counting(monkeypatch, name):
    """The list that grows by one per call of ``etmpc._kernels.<name>``,
    from an empty plan cache."""
    k = etmpc._kernels
    k._cached_plan.cache_clear()
    calls = []
    real = getattr(k, name)
    monkeypatch.setattr(k, name, lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.fixture
def kernel_compiles(monkeypatch):
    """The list that grows by one per generated solve compiled."""
    return counting(monkeypatch, "ldl_kernel")


@pytest.fixture
def level_runs(monkeypatch):
    """The list that grows by one per level pass, ``row_levels``."""
    return counting(monkeypatch, "row_levels")


def lower_pattern(n, nnz):
    """The int16 colptr and rowidx of the first ``nnz`` entries, in CSC
    order, of a strictly lower triangular n x n pattern."""
    cols, rows = np.nonzero(np.tri(n, n, -1).T)   # by column, then row
    colptr = np.searchsorted(cols[:nnz], np.arange(n + 1))
    return colptr.astype(np.int16), rows[:nnz].astype(np.int16)


def test_the_plan_follows_n_plus_nnz_and_only_a_schedule_runs_levels(kernel_compiles,
                                                                     level_runs):
    """A pattern whose n + nnz(L) is 2047, one below ``SCHEDULE_MIN_SIZE``,
    compiles its generated solve and runs no level pass; with 2048 it
    runs on the level schedule, whose levels take one pass per direction,
    and compiles nothing. Either plan solves it byte-exactly."""
    n = 64
    rng = np.random.default_rng(71)
    for size, plan, compiles, runs in ((2047, SolvePlan, 1, 0), (2048, LevelPlan, 1, 2)):
        colptr, rowidx = lower_pattern(n, size - n)
        perm = rng.permutation(n).astype(np.int16)
        got = etmpc._kernels.solve_plan(colptr, rowidx, perm, np.argsort(perm).astype(np.int16))
        assert type(got) is plan and len(kernel_compiles) == compiles and len(level_runs) == runs
        values = rng.standard_normal(size - n) / n
        L = SparseCSC(scipy.sparse.csc_array((values, rowidx, colptr), shape=(n, n)))
        dinv, b = rng.uniform(0.5, 2.0, n), rng.standard_normal(n)
        want = np.empty(n)
        want[perm] = ldl_reference(L, dinv, b[perm])
        assert got.solve(*got.operands(L.values, dinv), b).tobytes() == want.tobytes()


def test_a_diagonal_K_below_the_bound_compiles_its_solve(kernel_compiles):
    """An L without entries is sized by n alone: at n = 2047 it compiles a
    generated solve, which is the diagonal scale alone, and at n = 2048 it
    runs on the level schedule, with no group."""
    for n, plan in ((2047, SolvePlan), (2048, LevelPlan)):
        diag = np.linspace(1.0, 2.0, n)
        f = ldl_numeric(scipy.sparse.diags_array(diag, format="csc"))
        assert f.L.nnz == 0 and type(f.plan) is plan
        assert f.solve(diag).tobytes() == factor_reference(f, diag).tobytes()
    assert len(kernel_compiles) == 1


def test_solvers_of_one_grid_share_one_plan_built_at_bring_up(kernel_compiles, level_runs):
    """Every bring-up of a grid gives the same pattern: the first builds its
    plan, the next takes the cached plan and its arrays, and the solves
    themselves build nothing. P2x2 compiles its generated solve and runs
    no level pass; P8x8 runs on the level schedule and compiles nothing.
    Its levels run once per direction: the FE levels, and the BS levels,
    which ``row_levels`` gives on L^T."""
    for grid, plan in ((2, SolvePlan), (8, LevelPlan)):
        mpcqp, model = mpc_qp(grid)
        first, second = (AdmmSolver(mpcqp.qp) for _ in range(2))
        a, b = first.kkt.factor, second.kkt.factor
        assert type(a.plan) is plan and a.plan is b.plan
        for f in (a, b):
            assert f.L.colptr is f.plan.colptr and f.L.rowidx is f.plan.rowidx
            assert f.perm is f.plan.perm and f.inv_perm is f.plan.inv_perm
        update_mpc_step(mpcqp, np.full(model.n_x, 33.0), np.full(model.n_u, 2.0))
        for _ in range(2):
            assert first.solve().x.tobytes() == second.solve().x.tobytes()
    assert len(kernel_compiles) == 1 and len(level_runs) == 2


def test_a_factor_keeps_its_plan_after_the_cache_drops_it(kernel_compiles):
    rng = np.random.default_rng(53)
    factors = [ldl_numeric(scipy.sparse.csc_array(random_kkt_upper(rng, 10, 8)))
               for _ in range(etmpc._kernels.PLAN_CACHE_SIZE + 1)]
    assert len(kernel_compiles) == len({f.L.rowidx.tobytes() for f in factors}) == len(factors)
    first = factors[0]
    again = etmpc._kernels.solve_plan(first.L.colptr, first.L.rowidx, first.perm, first.inv_perm)
    assert again is not first.plan and len(kernel_compiles) == len(factors) + 1
    b = rng.standard_normal(first.n)
    assert first.solve(b).tobytes() == factor_reference(first, b).tobytes()


def test_shared_pattern_arrays_are_read_only_and_values_stay_live():
    for grid in (2, 8):   # a generated solve, a level schedule
        f = mpc_factor(grid, np.float64)
        for shared in (f.L.colptr, f.L.rowidx, f.perm, f.inv_perm):
            assert not shared.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = shared[0]
        b = np.random.default_rng(59).standard_normal(f.n)
        old = f.operands()
        before = f.solve(b, old)
        f.L.values[np.argmax(np.abs(f.L.values))] *= 1 + 1e-6
        after = f.solve(b, f.operands())
        assert not np.array_equal(after, before)
        assert after.tobytes() == factor_reference(f, b).tobytes()
        # operands made before the change still hold the values they took
        assert f.solve(b, old).tobytes() == before.tobytes()


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
        # the BS levels are the FE levels of L^T read in reverse CSC order
        assert etmpc._kernels.row_levels(cols[::-1], rows[::-1], f.n) == bs.tolist()
        plan = LevelPlan(L.colptr, L.rowidx, f.perm, f.inv_perm)
        assert plan.levels == fe.max() + 1 == bs.max() + 1
    assert type(factors[-1].plan) is LevelPlan and factors[-1].plan.levels == 82


def test_factor_indices_are_16_bit_while_n_and_nnz_are_below_2_to_the_15(kernel_compiles):
    """perm, inv_perm and L's index arrays are int16 while n and nnz(L) are
    below 2**15, and int32 from there; the solve is the same either way.
    Each of these factors, an L without entries and a dense one, has an
    n + nnz(L) above ``SCHEDULE_MIN_SIZE``, so it runs on the level
    schedule and none compiles a generated solve."""
    for n in (2**15 - 1, 2**15):
        diag = np.linspace(1.0, 2.0, n)
        f = ldl_numeric(scipy.sparse.diags_array(diag, format="csc"))
        index = np.int16 if n < 2**15 else np.int32
        assert f.L.nnz == 0 and f.plan.levels == 1 and type(f.plan) is LevelPlan
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
    assert kernel_compiles == []
