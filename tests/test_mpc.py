import hashlib

import numpy as np
import pytest

from etmpc.mpc import build_mpc_qp, stage_inputs, update_mpc_step
from etmpc.power import PowerModelParams
from etmpc.pruning import prune_model
from etmpc.qp import AdmmSettings, AdmmSolver
from etmpc.simulate import default_scenario, run_closed_loop
from etmpc.thermal import GridSpec, build_thermal_model, default_domains, discretize


def make_mpcqp(nw=1, nh=1, hp=1, domains=None, cutoff=None):
    spec = GridSpec(nw, nh, hp=hp, domains=domains or [])
    model = build_thermal_model(spec)
    discretize(model)
    if cutoff is not None:
        model = prune_model(model, cutoff)
    return build_mpc_qp(model, spec, PowerModelParams()), model


def checksum(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()


def test_1x1_hp1_row_and_column_counts():
    mpcqp, model = make_mpcqp(1, 1, hp=1)
    n_x = model.n_x
    assert mpcqp.qp.n == n_x * 2 + 1
    assert mpcqp.qp.m == n_x + n_x + 1 + 1 + 1


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
