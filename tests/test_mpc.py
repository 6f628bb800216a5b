import hashlib

import numpy as np
import pytest
import scipy.sparse

from etmpc.mpc import build_mpc_qp, stage_inputs, update_mpc_step
from etmpc.power import PowerModelParams
from etmpc.pruning import prune_model
from etmpc.qp import AdmmSettings, AdmmSolver, QpProblem, assemble_kkt
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


# sha256 of the fp64 bring-up's permutation and factor (default domains,
# cutoff 0.005); any change to the ordering or the LDL arithmetic shows here.
# perm and rowidx depend on K's pattern alone, so a change of the per-row
# step sizes (K's (2,2) diagonal) may move the other digests, never these two.
# K's values come from discretize's matrix exponential, whose last bits may
# depend on the BLAS build; K's digest is pinned too, so that such a
# difference shows as a different input rather than a different factor.
BRING_UP_DIGESTS = {
    2: {"K": "ba9091d57f24abc9c73288e95bfea95d5e131cca71b4d18a006e398d517c525b",
        "perm": "15d4a517b63c9cc64c705801774d2c48571fd8d2803dd6772a9df40976787fcc",
        "rowidx": "917fe776950f6ed80e8e6e52357878bf7bfe792f71b80989b1fdd4345d65d826",
        "values": "7a11bc786a2ba6b2350627095dbbca195b608cbc0568bf83d28790b89d374b71",
        "d": "5b08d1d1b5cd9b0fc958e754a12038dece7488cca75fa1a72dbac6027ad7e7e7",
        "dinv": "d98aed89f20df17f5bb23d726ba1082c2a1ec82175e5ccd2d81af1db7ddcddc3"},
    4: {"K": "76b07afe5399b4e0c6782c695069393e3c2cfb13b67b955bdc0834c011c5a245",
        "perm": "5b48050f59603e5a11bb295e3a6069885176b723eb6fa1cffc2d727c9e4f09a5",
        "rowidx": "31f7e60d0457446f1084be474c55061c8cf9d7d4c842da8d96af11f904f0af5d",
        "values": "44ec8e02faff90285dc678f92fd7bb3c1d19df6a3da38c8f3909124072b2c086",
        "d": "1ade3c4964fc76c6848353d9c11d7b6c985eba53b0669fdf4b934a7898a8117f",
        "dinv": "adb18f998168472ebe3f4381117cc947350d9832425bf01ded2c1754b37b636a"},
}


@pytest.mark.parametrize("grid", [2, 4], ids=["P2x2_H2", "P4x4_H2"])
def test_bring_up_factor_pinned(grid):
    mpcqp, _ = make_mpcqp(grid, grid, hp=2, domains=default_domains(grid, grid), cutoff=0.005)
    kkt = assemble_kkt(mpcqp.qp, AdmmSettings(precision="fp64"))
    f = kkt.factor
    got = {"K": kkt.K.values, "perm": kkt.factor.perm.perm, "rowidx": f.L.rowidx, "values": f.L.values,
           "d": f.d, "dinv": f.dinv}
    assert {k: checksum(v) for k, v in got.items()} == BRING_UP_DIGESTS[grid]


@pytest.mark.parametrize("grid", [2, 4], ids=["P2x2_H2", "P4x4_H2"])
def test_kkt_solve_backward_error(grid):
    # the equality rows put -1/(1e3 * rho) = -0.01 pivots beside the 1e-6
    # sigma pivots; the factor must still solve K x = b to a small normwise
    # backward error |Kx - b| / (|K| |x| + |b|), with K rebuilt by scipy
    mpcqp, _ = make_mpcqp(grid, grid, hp=2, domains=default_domains(grid, grid), cutoff=0.005)
    kkt = assemble_kkt(mpcqp.qp, AdmmSettings(precision="fp64"))
    rows, cols, vals = kkt.K.triplets()
    upper = scipy.sparse.coo_array((vals, (rows, cols)), shape=kkt.K.shape).tocsr()
    full = upper + scipy.sparse.triu(upper, k=1).T
    k_norm = np.max(abs(full).sum(axis=1))
    rng = np.random.default_rng(17)
    for _ in range(20):
        b = rng.standard_normal(kkt.K.nrows)
        x = kkt.factor.solve(b)
        r = np.max(np.abs(full @ x - b))
        assert r / (k_norm * np.max(np.abs(x)) + np.max(np.abs(b))) <= 1e-10


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


def test_build_rejects_a_spec_with_another_sample_time():
    spec = GridSpec(2, 2, hp=2, ts=5e-3)
    model = build_thermal_model(spec)
    discretize(model)
    build_mpc_qp(model, spec, PowerModelParams())
    with pytest.raises(ValueError):
        build_mpc_qp(model, GridSpec(2, 2, hp=2), PowerModelParams())


def test_pruned_assembly_strictly_smaller():
    mpcqp_full, _ = make_mpcqp(3, 3, hp=2)
    mpcqp_pruned, _ = make_mpcqp(3, 3, hp=2, cutoff=0.005)
    full, pruned = mpcqp_full.qp, mpcqp_pruned.qp
    assert pruned.P.nnz + pruned.A.nnz < full.P.nnz + full.A.nnz


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


def test_closed_loop_bring_up_validates_the_qp_once(monkeypatch):
    calls = []
    real = QpProblem.validate

    def counted(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(QpProblem, "validate", counted)
    spec = GridSpec(2, 2, hp=2, domains=default_domains(2, 2))
    model = build_thermal_model(spec)
    discretize(model)
    run_closed_loop(model, default_scenario(spec, PowerModelParams(), duration=2 * spec.ts))
    assert len(calls) == 1


def test_solution_tracks_targets_without_budget_pressure():
    mpcqp, model = make_mpcqp(2, 2, hp=2)
    p_star = np.array([1.0, 1.5, 0.5, 2.0])
    update_mpc_step(mpcqp, np.zeros(model.n_x), p_star)
    res = AdmmSolver(mpcqp.qp, AdmmSettings(termination_mode="residual",
                                            max_iter=1000, eps_prim=1e-6,
                                            eps_dual=1e-6)).solve()
    u0 = stage_inputs(mpcqp, res.x, 0)
    np.testing.assert_allclose(u0, p_star, atol=1e-3)
