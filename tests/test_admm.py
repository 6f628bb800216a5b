import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

import etmpc.qp
from etmpc._kernels import LevelPlan
from etmpc.csc import DimensionError
from etmpc.ldl import LdlFactor
from etmpc.qp import (
    AdmmSettings,
    AdmmSolver,
    AdmmState,
    QpProblem,
    admm_step,
    assemble_kkt,
    relaxation,
    residuals,
)

from oracles import (admm_solve_checking_both_residuals, dense_admm_step, random_qp,
                     solve_qp_enumeration)


def make_problem(P, q, A, l, u):
    return QpProblem(scipy.sparse.csc_array(np.triu(P)), np.asarray(q, float),
                     scipy.sparse.csc_array(np.atleast_2d(A)),
                     np.asarray(l, float), np.asarray(u, float))


def box_problem():
    return make_problem(np.eye(2), [-1.0, -1.0], np.eye(2), [0.0, 0.0], [0.5, 1.0])


def one_step(state, problem, kkt, settings):
    """``admm_step`` on its own, with the operands, q, l, u and the
    relaxation coefficients made as the solve makes them."""
    admm_step(state, kkt, kkt.factor.operands(),
              *(kkt.stored(vec) for vec in (problem.q, problem.l, problem.u)),
              relaxation(settings, problem.n, problem.m))


def assert_same_bytes(got, want):
    for name in ("x", "z", "y"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    for name in ("r_prim", "r_dual"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.float64(a).tobytes() == np.float64(b).tobytes(), name
    assert (got.iterations, got.status) == (want.iterations, want.status)


def residual_settings(**kw):
    kw.setdefault("termination_mode", "residual")
    kw.setdefault("max_iter", 2000)
    kw.setdefault("eps_prim", 1e-6)
    kw.setdefault("eps_dual", 1e-6)
    return AdmmSettings(**kw)


def test_assemble_kkt_1x1():
    p = make_problem([[2.0]], [0.0], [[1.0]], [0.0], [1.0])
    kkt = assemble_kkt(p, AdmmSettings())
    k = kkt.K.to_dense()
    full = np.triu(k) + np.triu(k, 1).T
    np.testing.assert_allclose(full, [[2.0 + 1e-6, 1.0], [1.0, -10.0]])


def test_assemble_kkt_rejects_empty():
    p = QpProblem(scipy.sparse.csc_array((0, 0)), np.zeros(0), scipy.sparse.csc_array((1, 0)),
                  np.zeros(1), np.ones(1))
    with pytest.raises(DimensionError):
        assemble_kkt(p, AdmmSettings())


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_kkt_K_is_assembled_again_with_the_factored_bits(monkeypatch, precision):
    factored = []
    real = etmpc.qp.ldl_numeric
    monkeypatch.setattr(etmpc.qp, "ldl_numeric", lambda K: factored.append(K) or real(K))
    P, q, A, l, u = mixed_row_qp()
    kkt = assemble_kkt(make_problem(P, q, A, l, u), AdmmSettings(precision=precision))
    assert "K" not in vars(kkt)   # the solver keeps the factor, not K
    (ref,) = factored
    for name in ("colptr", "rowidx", "values"):
        got, want = getattr(kkt.K, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_kkt_nnz_recount():
    rng = np.random.default_rng(0)
    P, q, A, l, u = random_qp(rng, 6, 5)
    p = make_problem(P, q, A, l, u)
    kkt = assemble_kkt(p, AdmmSettings())
    n, m = p.n, p.m
    # recount from the assembled blocks: P upper with full diagonal, A, -I/rho
    pu = np.triu(P + 1e-6 * np.eye(n))
    expect = np.count_nonzero(pu) + np.count_nonzero(A) + m
    assert kkt.K.nnz == expect


def test_factor_cached_across_solves(ldl_numeric_calls):
    p = box_problem()
    solver = AdmmSolver(p, residual_settings())
    solver.solve()
    for q in ([-0.5, -0.25], [0.3, -2.0], [-1.0, -1.0]):
        p.q[:] = q
        solver.solve()
    assert len(ldl_numeric_calls) == 1


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_in_place_q_update_reaches_the_solver(precision):
    p = box_problem()
    solver = AdmmSolver(p, AdmmSettings(precision=precision, max_iter=100, warm_start=False))
    before = solver.solve()
    p.q[:] = [-0.25, -0.5]   # moves the unconstrained minimizer to (0.25, 0.5)
    after = solver.solve()
    assert before.status == after.status == "solved"
    np.testing.assert_allclose(before.x, [0.5, 1.0], atol=1e-2)
    np.testing.assert_allclose(after.x, [0.25, 0.5], atol=1e-2)


def fixed_solver(blocks=1):
    """A 15-iteration solver, without warm start, whose factor has L entries:
    of one random QP, or of ``blocks`` of them side by side, whose factor
    has one QP's levels and ``blocks`` times its entries, so that 40 of
    them make a wide factor."""
    rng = np.random.default_rng(4)
    parts = [random_qp(rng, 6, 5) for _ in range(blocks)]
    P, A = (scipy.linalg.block_diag(*(part[k] for part in parts)) for k in (0, 2))
    q, l, u = (np.concatenate([part[k] for part in parts]) for k in (1, 3, 4))
    solver = AdmmSolver(make_problem(P, q, A, l, u), AdmmSettings(max_iter=15, warm_start=False))
    factor = solver.kkt.factor
    assert factor.L.nnz > 0
    assert isinstance(factor.plan, LevelPlan) == (blocks >= 40)
    return solver


def narrow_and_wide_solvers():
    """``fixed_solver`` with a narrow factor, which runs the solve generated
    for its pattern, and with a wide one, which runs on the level schedule."""
    return fixed_solver(), fixed_solver(blocks=40)


def holds_no_conversion(factor):
    """The factor holds its arrays alone: no list or tuple of operands."""
    return not any(isinstance(v, (list, tuple)) for v in vars(factor).values())


def test_kkt_solves_of_one_admm_solve_share_one_conversion(factor_conversions):
    conversions = factor_conversions
    for solver in narrow_and_wide_solvers():
        conversions.clear()
        solver.solve()
        solver.solve()
        assert len(conversions) == 2
        solver.kkt.factor.solve(np.ones(solver.kkt.factor.n))   # on its own: converts for itself
        assert len(conversions) == 3


def test_a_change_to_L_between_solves_shows_in_the_next_solve():
    for solver in narrow_and_wide_solvers():
        values = solver.kkt.factor.L.values
        first = solver.solve().x
        np.testing.assert_array_equal(solver.solve().x, first)
        values[np.argmax(np.abs(values))] *= 1 + 1e-6
        assert not np.array_equal(solver.solve().x, first)


def test_factor_holds_no_conversion_after_a_solve_returns_or_raises(monkeypatch):
    real = etmpc.qp.admm_step
    for solver in narrow_and_wide_solvers():
        factor = solver.kkt.factor
        solver.solve()
        assert holds_no_conversion(factor)

        def failing(state, *args):
            if state.iterations == 3:
                raise FloatingPointError("injected")
            real(state, *args)

        monkeypatch.setattr(etmpc.qp, "admm_step", failing)
        with pytest.raises(FloatingPointError, match="injected"):
            solver.solve()
        assert holds_no_conversion(factor)
        monkeypatch.setattr(etmpc.qp, "admm_step", real)


def test_admm_step_fixed_point():
    # min 0.5 x^2 - x s.t. 0 <= x <= 10: interior optimum x*=1, y*=0
    p = make_problem([[1.0]], [-1.0], [[1.0]], [0.0], [10.0])
    settings = AdmmSettings(alpha=1.0, max_iter=1)
    solver = AdmmSolver(p, settings)
    state = AdmmState.zeros(1, 1)
    state.x = np.array([1.0])
    state.z = np.array([1.0])
    state.y = np.array([0.0])
    one_step(state, solver.problem, solver.kkt, settings)
    np.testing.assert_allclose(state.x, [1.0], atol=1e-9)
    np.testing.assert_allclose(state.z, [1.0], atol=1e-9)
    np.testing.assert_allclose(state.y, [0.0], atol=1e-9)


def test_box_qp_converges_to_clipped_minimizer():
    solver = AdmmSolver(box_problem(), residual_settings())
    res = solver.solve()
    assert res.status == "solved"
    np.testing.assert_allclose(res.x, [0.5, 1.0], atol=1e-4)


def test_equality_constrained_qp():
    p = make_problem([[1.0]], [0.0], [[1.0]], [3.0], [3.0])
    res = AdmmSolver(p, residual_settings()).solve()
    np.testing.assert_allclose(res.x, [3.0], atol=1e-4)


def test_warm_start_at_solution_terminates_fast():
    p = box_problem()
    solver = AdmmSolver(p, residual_settings(eps_prim=1e-5, eps_dual=1e-5))
    first = solver.solve()
    assert first.status == "solved" and first.iterations > 2
    res = solver.solve()   # warm-started from the first solve's iterate
    assert res.status == "solved"
    assert res.iterations <= 2


def test_residuals_zero_state():
    p = make_problem([[1.0]], [0.0], [[1.0]], [-1.0], [1.0])
    state = AdmmState.zeros(1, 1)
    assert residuals(state, p, assemble_kkt(p, AdmmSettings())) == (0.0, 0.0)


def test_residual_unit_violation():
    p = make_problem([[0.0]], [0.0], [[1.0]], [-5.0], [5.0])
    state = AdmmState.zeros(1, 1)
    state.x = np.array([1.0])  # Ax - z = 1
    rp, rd = residuals(state, p, assemble_kkt(p, AdmmSettings()))
    assert rp == 1.0


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_residuals_match_dense_oracle(precision):
    tol = {"fp64": 1e-13, "fp32": 1e-5}[precision]
    rng = np.random.default_rng(12)
    P, q, A, l, u = random_qp(rng, 7, 6)
    assert np.count_nonzero(np.triu(P, 1)) > 0   # exercises the upper-stored symmetric P
    p = make_problem(P, q, A, l, u)
    kkt = assemble_kkt(p, AdmmSettings(precision=precision))
    dtype = np.float64 if precision == "fp64" else np.float32
    state = AdmmState.zeros(p.n, p.m, dtype)
    state.x = rng.standard_normal(p.n).astype(dtype)
    state.z = rng.standard_normal(p.m).astype(dtype)
    state.y = rng.standard_normal(p.m).astype(dtype)
    x, z, y = (v.astype(np.float64) for v in (state.x, state.z, state.y))
    rp_ref = np.max(np.abs(A @ x - z))
    rd_ref = np.max(np.abs(P @ x + q + A.T @ y))
    rp, rd = residuals(state, p, kkt)
    assert abs(rp - rp_ref) <= tol * max(1.0, rp_ref)
    assert abs(rd - rd_ref) <= tol * max(1.0, rd_ref)
    # the products run in storage precision
    assert (kkt.A @ state.x).dtype == (kkt.P @ state.x).dtype == (kkt.At @ state.y).dtype == dtype


def mixed_row_qp():
    """Random QP with two equality rows, one row narrower than RHO_TOL and
    one just wider, plus one- and two-sided inequalities."""
    rng = np.random.default_rng(21)
    P, q, A, l, u = random_qp(rng, 6, 7)
    mid = np.where(np.isfinite(l), (l + u) / 2, u - 1.0)
    l[:2] = u[:2] = mid[:2]
    l[2], u[2] = mid[2] - 2.5e-5, mid[2] + 2.5e-5
    l[3], u[3] = mid[3] - 1e-4, mid[3] + 1e-4
    return P, q, A, l, u


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_per_row_rho_matches_dense_oracle(precision):
    P, q, A, l, u = mixed_row_qp()
    settings = AdmmSettings(precision=precision)
    p = make_problem(P, q, A, l, u)
    kkt = AdmmSolver(p, settings).kkt
    # 1e3 * rho = 100 on the l = u rows and the row narrower than 1e-4
    rho = np.array([100.0, 100.0, 100.0, 0.1, 0.1, 0.1, 0.1])
    assert settings.rho == 0.1
    dtype = settings.dtype
    assert kkt.rho.dtype == kkt.rho_inv.dtype == dtype
    np.testing.assert_array_equal(kkt.rho, rho.astype(dtype))
    np.testing.assert_array_equal(kkt.K.to_dense().diagonal()[p.n:], (-1.0 / rho).astype(dtype))

    state = AdmmState.zeros(p.n, p.m, dtype)
    x, z, y = np.zeros(p.n), np.zeros(p.m), np.zeros(p.m)
    for _ in range(10):
        one_step(state, p, kkt, settings)
        x, z, y = dense_admm_step(P, q, A, l, u, rho, settings.sigma, settings.alpha, x, z, y)
        assert state.x.dtype == state.z.dtype == state.y.dtype == dtype
        for got, ref in ((state.x, x), (state.z, z), (state.y, y)):
            # fp64 to 1e-12; fp32 to 1e-4 of the iterate's scale
            atol = 1e-12 if precision == "fp64" else 1e-4 * max(1.0, np.max(np.abs(ref)))
            np.testing.assert_allclose(got, ref, rtol=0, atol=atol)


def test_kkt_views_storage_precision_matrices():
    P, q, A, l, u = mixed_row_qp()
    p = make_problem(P, q, A, l, u)
    kkt = assemble_kkt(p, AdmmSettings(precision="fp64"))
    assert np.shares_memory(kkt.A.data, p.A.data)


def test_projection_invariant_every_iteration():
    rng = np.random.default_rng(8)
    P, q, A, l, u = random_qp(rng, 5, 6)
    p = make_problem(P, q, A, l, u)
    settings = AdmmSettings(max_iter=40)
    solver = AdmmSolver(p, settings)
    state = AdmmState.zeros(p.n, p.m)
    for _ in range(40):
        one_step(state, solver.problem, solver.kkt, settings)
        assert np.all(state.z >= p.l - 1e-12) and np.all(state.z <= p.u + 1e-12)


@pytest.mark.parametrize("seed", range(15))
def test_matches_enumeration_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(3, 9))
    m = int(rng.integers(2, 9))
    P, q, A, l, u = random_qp(rng, n, m)
    x_ref, obj_ref = solve_qp_enumeration(P, q, A, l, u)
    assert x_ref is not None
    res = AdmmSolver(make_problem(P, q, A, l, u), residual_settings()).solve()
    assert res.status == "solved"
    obj = 0.5 * res.x @ P @ res.x + q @ res.x
    assert abs(obj - obj_ref) <= 1e-4 * max(1.0, abs(obj_ref))
    ax = A @ res.x
    assert np.all(ax <= u + 1e-6) and np.all(ax >= l - 1e-6)


def test_all_zero_problem_converges_immediately_all_precisions():
    p = make_problem([[1.0]], [0.0], [[1.0]], [-1.0], [1.0])
    for prec in ("fp64", "fp32"):
        settings = AdmmSettings(precision=prec, termination_mode="residual", max_iter=5)
        res = AdmmSolver(p, settings).solve()
        assert res.status == "solved"
        assert res.iterations == 1


def test_fp32_pipeline_runs_in_float32():
    p = box_problem()
    res = AdmmSolver(p, residual_settings(precision="fp32", eps_prim=0.01,
                                          eps_dual=0.01, max_iter=200)).solve()
    assert res.x.dtype == np.float32
    assert res.status == "solved"


def test_divergence_guard():
    # an indefinite objective makes the splitting iteration expansive here
    p = make_problem([[-0.5, 3.0], [0.0, 1.0]], [1.0, -2.0], np.eye(2),
                     [-1e30, -1e30], [1e30, 1e30])
    for prec in ("fp64", "fp32"):
        settings = AdmmSettings(max_iter=2000, sigma=1e-6, rho=1.0, alpha=1.9, precision=prec)
        solver = AdmmSolver(p, settings)
        res = solver.solve()
        assert res.status == "diverged", prec
        # both residuals of the diverged iterate are returned
        want = admm_solve_checking_both_residuals(p, solver.kkt, settings)
        assert (res.r_prim, res.r_dual, res.iterations, res.status) == \
            (want.r_prim, want.r_dual, want.iterations, want.status)


@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_a_nan_iterate_ends_the_solve_as_diverged(precision):
    # x[1] has no entry in A, so r_prim stays finite while x[1] is NaN
    solver = AdmmSolver(make_problem(np.eye(2), [0.0, 0.0], [[1.0, 0.0]], [-1.0], [1.0]),
                        AdmmSettings(precision=precision))
    factor = solver.kkt.factor

    def nan_in_x1(b, operands=None):
        sol = LdlFactor.solve(factor, b, operands)
        sol[1] = np.nan
        return sol

    factor.solve = nan_in_x1   # shadows the method, for this factor alone
    res = solver.solve()
    assert res.status == "diverged" and res.iterations == 1
    assert np.isnan(res.x[1]) and np.isfinite(res.r_prim) and np.isnan(res.r_dual)


GATE_ITERS = 40
GATE_MODES = {
    "fixed-1": dict(check_interval=1),
    "fixed-3": dict(check_interval=3),
    "fixed-max_iter": dict(check_interval=GATE_ITERS),
    "residual-1": dict(termination_mode="residual", eps_prim=1e-3, eps_dual=1e-3),
    "residual-3": dict(termination_mode="residual", eps_prim=1e-3, eps_dual=1e-3,
                       check_interval=3),
    "residual-max_iter": dict(termination_mode="residual", eps_prim=1e-3, eps_dual=1e-3,
                              check_interval=GATE_ITERS),
    # r_prim reaches its tolerance and r_dual (eps_dual = 0) never does: a
    # max_iter exit with r_prim <= eps_prim and r_dual above its tolerance
    "residual-dual-short": dict(termination_mode="residual", eps_prim=1e-2, eps_dual=0.0),
}


@pytest.mark.parametrize("mode", sorted(GATE_MODES))
@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_solve_matches_the_loop_that_computes_both_residuals_at_every_check(
        monkeypatch, precision, mode):
    checks = []
    real = etmpc.qp.residuals

    def counted(*args):
        checks.append(1)
        return real(*args)

    monkeypatch.setattr(etmpc.qp, "residuals", counted)
    settings = AdmmSettings(max_iter=GATE_ITERS, precision=precision, **GATE_MODES[mode])
    ci = settings.check_interval
    rng = np.random.default_rng(31)
    exits = []
    for _ in range(6):
        n, m = (int(k) for k in rng.integers(3, 10, size=2))
        problem = make_problem(*random_qp(rng, n, m))
        solver = AdmmSolver(problem, settings)
        start = None
        for _ in range(3):   # warm-started repeats, each on a moved q
            checks.clear()
            got = solver.solve()
            want = admm_solve_checking_both_residuals(problem, solver.kkt, settings, start)
            assert_same_bytes(got, want)
            assert len(checks) == sum(1 for i in range(1, got.iterations + 1)
                                      if i % ci == 0 or i == GATE_ITERS)
            exits.append((got.status, got.r_prim <= settings.eps_prim and
                          got.r_dual > settings.eps_dual))
            if want.status != "diverged":
                start = (want.x, want.z, want.y)
            problem.q += 0.1 * rng.standard_normal(n)
    if mode == "residual-dual-short":
        assert ("max_iter", True) in exits
    elif mode.startswith("residual"):
        assert {status for status, _ in exits} == {"solved", "max_iter"}


def test_solver_bring_up_validates_once(monkeypatch):
    calls = []
    real = QpProblem.validate

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(QpProblem, "validate", counted)
    AdmmSolver(box_problem())
    assert len(calls) == 1
    bad = box_problem()
    bad.l[0] = 2.0  # above u[0]
    with pytest.raises(ValueError):
        AdmmSolver(bad)


@pytest.mark.parametrize("field, value", [
    ("rho", 0.0), ("alpha", 2.0), ("max_iter", 0),
    ("termination_mode", "x"), ("precision", "fp16emu"), ("check_interval", 0),
    ("rho", np.inf), ("sigma", np.inf), ("rho", np.nan), ("sigma", 0.0),
    ("eps_prim", np.nan), ("eps_dual", -1.0), ("eps_prim", -1e-3),
    ("max_iter", 2.5), ("max_iter", True), ("max_iter", np.float64(15.0)),
    ("check_interval", 1.5), ("check_interval", False),
    ("rho", "0.1"), ("alpha", True), ("eps_dual", None),
])
def test_settings_reject_bad_values(field, value):
    with pytest.raises(ValueError):
        AdmmSettings(**{field: value})


def test_settings_are_frozen_and_replace_checks_again():
    """A field assigned after construction would skip the checks: a NumPy
    alpha would lift fp32 iterates to float64, alpha = 5.0 would solve."""
    s = AdmmSettings(precision="fp32")
    with pytest.raises(dataclasses.FrozenInstanceError):
        s.alpha = np.float64(1.6)
    with pytest.raises(ValueError):
        dataclasses.replace(s, alpha=5.0)
    assert type(dataclasses.replace(s, alpha=np.float64(1.6)).alpha) is float


@pytest.mark.parametrize("field", ["max_iter", "check_interval"])
def test_settings_accept_numpy_integer_counts(field):
    assert getattr(AdmmSettings(**{field: np.int64(3)}), field) == 3


@pytest.mark.parametrize("vector", ["q", "l", "u"])
def test_validate_rejects_nan(vector):
    p = box_problem()
    getattr(p, vector)[0] = np.nan
    with pytest.raises(ValueError):
        AdmmSolver(p)


@pytest.mark.parametrize("vector, value", [("q", np.inf), ("q", -np.inf), ("l", np.inf),
                                           ("u", -np.inf)])
def test_validate_rejects_non_finite_q_and_bounds_no_point_meets(vector, value):
    p = box_problem()
    getattr(p, vector)[0] = value
    with pytest.raises(ValueError, match=f" in {vector}$"):
        AdmmSolver(p)


def test_validate_accepts_infinite_bounds_on_the_open_side():
    p = box_problem()
    p.l[0], p.u[1] = -np.inf, np.inf
    assert p.validate() is p


def test_validate_rejects_p_stored_below_the_diagonal():
    p = box_problem()
    p.P = scipy.sparse.csc_array(np.array([[1.0, 0.0], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="upper triangle"):
        p.validate()


@pytest.mark.parametrize("matrix", ["P", "A"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_validate_rejects_non_finite_matrix_entry(matrix, value):
    p = box_problem()
    getattr(p, matrix).data[0] = value
    with pytest.raises(ValueError, match="non-finite"):
        AdmmSolver(p)


FROZEN_MODES = {
    "fixed": dict(max_iter=15, check_interval=15, eps_prim=0.1, eps_dual=0.1),
    "residual": dict(termination_mode="residual", max_iter=200, eps_prim=1e-4, eps_dual=1e-4),
}


@pytest.mark.parametrize("mode", sorted(FROZEN_MODES))
@pytest.mark.parametrize("precision, alpha", [("fp64", 1.5), ("fp32", 1.5), ("fp32", 1.6)],
                         ids=["fp64", "fp32", "fp32-alpha1.6"])
def test_solve_is_byte_identical_to_the_frozen_loop(precision, alpha, mode):
    """24 warm-started solves with q, l and u moved in place between them,
    as ``update_mpc_step`` moves them, against the loop written out in its
    own operand order; one of them diverges, and the solve after it
    warm-starts from the solve before it. fp32 cannot hold 1.6 exactly, so
    that alpha shows whether the relaxation rounds it as the loop's
    Python float does, and in which dtype."""
    rng = np.random.default_rng(41)
    P, q, A, l, u = random_qp(rng, 9, 12)
    problem = make_problem(P, q.copy(), A, l.copy(), u.copy())
    settings = AdmmSettings(precision=precision, alpha=alpha, **FROZEN_MODES[mode])
    solver = AdmmSolver(problem, settings)
    start, statuses = None, []
    for k in range(24):
        got = solver.solve()
        want = admm_solve_checking_both_residuals(problem, solver.kkt, settings, start)
        assert_same_bytes(got, want)
        assert all(getattr(got, name).dtype == settings.dtype for name in ("x", "z", "y"))
        statuses.append(got.status)
        if want.status != "diverged":
            start = (want.x, want.z, want.y)
        shift = 0.2 * rng.standard_normal(l.shape)
        problem.q[:] = q + 0.3 * rng.standard_normal(q.shape)
        problem.l[:] = l + shift
        problem.u[:] = u + shift
        if k == 11:
            problem.q[0] = 1e15   # finite, so validate would pass it: the next solve diverges
    assert statuses[12] == "diverged" and statuses.count("diverged") == 1
    assert {"solved", "max_iter"} <= set(statuses)


@pytest.mark.parametrize("mode", sorted(FROZEN_MODES))
@pytest.mark.parametrize("precision", ["fp64", "fp32"])
def test_a_returned_state_does_not_alias_the_solver(precision, mode):
    rng = np.random.default_rng(43)
    P, q, A, l, u = random_qp(rng, 7, 9)
    settings = AdmmSettings(precision=precision, **FROZEN_MODES[mode])
    edited, twin = (AdmmSolver(make_problem(P, q.copy(), A, l.copy(), u.copy()), settings)
                    for _ in range(2))
    for _ in range(4):
        res, want = edited.solve(), twin.solve()
        assert_same_bytes(res, want)
        for name in ("x", "z", "y"):
            getattr(res, name)[:] = 1e3


@pytest.mark.parametrize("mode", sorted(FROZEN_MODES))
def test_numpy_float_settings_keep_fp32_iterates_and_their_bits(mode):
    # under NEP 50 a NumPy float64 is a strong type: kept as given, alpha
    # would lift the iterates to float64 and sigma would move x's bits
    values = dict(FROZEN_MODES[mode], rho=0.2, sigma=0.3, alpha=1.6)
    numpy_values = {k: np.float64(v) if isinstance(v, float) else v for k, v in values.items()}
    problem = make_problem(*random_qp(np.random.default_rng(47), 6, 8))
    want, got = (AdmmSolver(problem, AdmmSettings(precision="fp32", **kw)).solve()
                 for kw in (values, numpy_values))
    assert got.x.dtype == got.z.dtype == got.y.dtype == np.float32
    assert_same_bytes(got, want)
