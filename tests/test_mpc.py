import hashlib

import numpy as np
import pytest

from etmpc.mpc import build_mpc_qp, stage_inputs, update_mpc_step
from etmpc.power import PowerModelParams
from etmpc.pruning import prune_model
from etmpc.qp import AdmmSettings, AdmmSolver, Fp16RangeError
from etmpc.simulate import default_scenario, mpc_solver_settings, run_closed_loop
from etmpc.thermal import GridSpec, build_thermal_model, default_domains, discretize

from oracles import dense_mpc_matrices


def make_mpcqp(nw=1, nh=1, hp=1, domains=None, cutoff=None, weights=None):
    spec = GridSpec(nw, nh, hp=hp, domains=domains or [])
    model = build_thermal_model(spec)
    discretize(model)
    if cutoff is not None:
        model = prune_model(model, cutoff)
    return build_mpc_qp(model, spec, PowerModelParams(), weights=weights), model


def checksum(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_1x1_hp1_row_and_column_counts():
    mpcqp, model = make_mpcqp(1, 1, hp=1)
    n_x = model.n_x
    assert mpcqp.qp.n == n_x * 2 + 1
    assert mpcqp.qp.m == n_x + n_x + 1 + 1 + 1


@pytest.mark.parametrize("nw, nh, hp, domains, cutoff, weights", [
    (1, 1, 1, None, None, None),
    (3, 2, 3, None, None, None),
    (2, 2, 2, default_domains(2, 2), None, [1.0, 0.0, 2.5, 0.0]),
    (4, 4, 2, default_domains(4, 4), 0.005, None),
], ids=["P1x1_H1", "P3x2_H3", "P2x2_H2_zero_weights", "P4x4_H2_pruned"])
def test_matrices_match_dense_oracle(nw, nh, hp, domains, cutoff, weights):
    mpcqp, model = make_mpcqp(nw, nh, hp=hp, domains=domains, cutoff=cutoff, weights=weights)
    w = np.ones(model.n_u) if weights is None else np.asarray(weights)
    A_ref, P_ref = dense_mpc_matrices(model.d, model.e, model.c_t, domains or [], hp, w)
    qp = mpcqp.qp
    np.testing.assert_array_equal(qp.A.to_dense(), A_ref)
    np.testing.assert_array_equal(qp.P.to_dense(), P_ref)
    assert qp.A.nnz == np.count_nonzero(A_ref)
    # a zero weight is stored as an explicit zero on P's diagonal
    assert qp.P.nnz == np.count_nonzero(P_ref) + hp * np.count_nonzero(w == 0)
    idx = mpcqp.index
    blocks = [idx.rows_dynamics, idx.rows_init, idx.rows_caps, idx.rows_boxes,
              idx.rows_budget, idx.rows_domains]
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == qp.m


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_fp16emu_factor_overflow_raises():
    # the 1/sigma = 1e6 pivots of the unweighted states exceed float16's range
    mpcqp, _ = make_mpcqp(2, 2, hp=2, domains=default_domains(2, 2), cutoff=0.005)
    with pytest.raises(Fp16RangeError) as e:
        AdmmSolver(mpcqp.qp, mpc_solver_settings(precision="fp16emu"))
    assert 0 <= e.value.column < mpcqp.qp.n + mpcqp.qp.m


def test_equality_rows_have_l_equal_u():
    mpcqp, _ = make_mpcqp(2, 2, hp=2)
    idx = mpcqp.index
    np.testing.assert_array_equal(mpcqp.qp.l[idx.rows_dynamics],
                                  mpcqp.qp.u[idx.rows_dynamics])
    np.testing.assert_array_equal(mpcqp.qp.l[idx.rows_init],
                                  mpcqp.qp.u[idx.rows_init])


def test_all_zero_weights_yields_feasible_point():
    spec = GridSpec(2, 2, hp=2)
    model = build_thermal_model(spec)
    discretize(model)
    mpcqp = build_mpc_qp(model, spec, PowerModelParams(), weights=np.zeros(4))
    update_mpc_step(mpcqp, np.zeros(model.n_x), np.ones(4), budget_total=10.0)
    res = AdmmSolver(mpcqp.qp, AdmmSettings(termination_mode="residual",
                                            max_iter=500, eps_prim=1e-4,
                                            eps_dual=1e-4)).solve()
    assert res.status == "solved"


def test_pruned_assembly_strictly_smaller():
    mpcqp_full, _ = make_mpcqp(3, 3, hp=2)
    mpcqp_pruned, _ = make_mpcqp(3, 3, hp=2, cutoff=0.005)
    assert mpcqp_pruned.qp.nnz_total() < mpcqp_full.qp.nnz_total()


def test_update_is_deterministic_and_leaves_matrices_alone():
    mpcqp, model = make_mpcqp(2, 2, hp=2, domains=default_domains(2, 2))
    p_sum, a_sum = checksum(mpcqp.qp.P.values), checksum(mpcqp.qp.A.values)
    x0 = np.linspace(0, 1, model.n_x)
    update_mpc_step(mpcqp, x0, np.full(4, 1.5), 8.0, [4.0, 4.0])
    q1, l1, u1 = mpcqp.qp.q.copy(), mpcqp.qp.l.copy(), mpcqp.qp.u.copy()
    update_mpc_step(mpcqp, x0, np.full(4, 1.5), 8.0, [4.0, 4.0])
    np.testing.assert_array_equal(q1, mpcqp.qp.q)
    np.testing.assert_array_equal(l1, mpcqp.qp.l)
    np.testing.assert_array_equal(u1, mpcqp.qp.u)
    assert checksum(mpcqp.qp.P.values) == p_sum
    assert checksum(mpcqp.qp.A.values) == a_sum


def test_budget_step_touches_expected_rows():
    domains = default_domains(2, 2)
    mpcqp, model = make_mpcqp(2, 2, hp=2, domains=domains)
    update_mpc_step(mpcqp, np.zeros(model.n_x), np.ones(4), 100.0,
                    [50.0, 50.0])
    u_before = mpcqp.qp.u.copy()
    update_mpc_step(mpcqp, np.zeros(model.n_x), np.ones(4), 60.0,
                    [50.0, 50.0])
    changed = np.nonzero(u_before != mpcqp.qp.u)[0]
    # hp rows for the total budget, nothing else
    assert len(changed) == mpcqp.index.hp
    assert all(mpcqp.index.rows_budget.start <= c < mpcqp.index.rows_budget.stop
               for c in changed)


def test_infeasible_budget_warns():
    spec = GridSpec(2, 2, hp=1)
    model = build_thermal_model(spec)
    discretize(model)
    params = PowerModelParams(p_min=0.5)
    mpcqp = build_mpc_qp(model, spec, params)
    with pytest.warns(UserWarning):
        update_mpc_step(mpcqp, np.zeros(model.n_x), np.ones(4), budget_total=0.1)


def test_kkt_constancy_across_steps(ldl_numeric_calls):
    spec = GridSpec(2, 2, hp=2, domains=default_domains(2, 2))
    params = PowerModelParams()
    model = build_thermal_model(spec)
    discretize(model)
    trace = run_closed_loop(model, default_scenario(spec, params, duration=20 * spec.ts))
    assert trace.n_steps == 20
    assert len(ldl_numeric_calls) == 1


def test_solution_tracks_targets_without_budget_pressure():
    mpcqp, model = make_mpcqp(2, 2, hp=2)
    p_star = np.array([1.0, 1.5, 0.5, 2.0])
    update_mpc_step(mpcqp, np.zeros(model.n_x), p_star)
    res = AdmmSolver(mpcqp.qp, AdmmSettings(termination_mode="residual",
                                            max_iter=1000, eps_prim=1e-6,
                                            eps_dual=1e-6)).solve()
    u0 = stage_inputs(mpcqp, res.x, 0)
    np.testing.assert_allclose(u0, p_star, atol=1e-3)
