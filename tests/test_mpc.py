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
    np.testing.assert_array_equal(qp.A.toarray(), A_ref)
    np.testing.assert_array_equal(qp.P.toarray(), P_ref)
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
# L's values, d and dinv come from SuperLU, so they may also depend on the
# SuperLU in scipy and the BLAS it calls.
BRING_UP_DIGESTS = {
    2: {"K": "ba9091d57f24abc9c73288e95bfea95d5e131cca71b4d18a006e398d517c525b",
        "perm": "6e5f5f836078a37fd0cad2a89e026ec208798716a755788155bbf7a3f468b9d7",
        "rowidx": "09e774438f0853b034b16b90962257a57bace26c1abc5175a284f3be3cfafa01",
        "values": "05a23fef214e3b2dc0e7ab2b9531b6306b340cf02f67c96831254edec74d9dd8",
        "d": "36823ef0ccc298f748a662a3f78fce27f632f450d9e4dea5f34821d78ebf5017",
        "dinv": "347397fb65adb655cf87ab64b205f7a1b713fe9989c07043b6744e141f663c0f"},
    4: {"K": "76b07afe5399b4e0c6782c695069393e3c2cfb13b67b955bdc0834c011c5a245",
        "perm": "ac053df3cdc462ae63bd5c5316f9bcd000841e6a3248c1769fef201219684fed",
        "rowidx": "190cb24db08b92396c4ab23ddf3975175eebc6c44f52359a9fb15c432c09e3ca",
        "values": "9215cd7bac220184f62a020ca205ceeef7055545f089877faa62927a59b7a314",
        "d": "6af4be5839e0c7826c19fe5757b1c819d1f4576a5651f30c3fd89620bafaebf3",
        "dinv": "6fe1d8f3fbad69b7aa2c2e1c2a4e7e505f0c01a667fa70fd359f9034969278a5"},
}


@pytest.mark.parametrize("grid", [2, 4], ids=["P2x2_H2", "P4x4_H2"])
def test_bring_up_factor_pinned(grid):
    mpcqp, _ = make_mpcqp(grid, grid, hp=2, domains=default_domains(grid, grid), cutoff=0.005)
    kkt = assemble_kkt(mpcqp.qp, AdmmSettings(precision="fp64"))
    f = kkt.factor
    got = {"K": kkt.K.values, "perm": f.perm, "rowidx": f.L.rowidx, "values": f.L.values,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_build_rejects_non_finite_or_negative_weights(bad):
    # a NaN weight ends in a zero pivot, a negative one makes P indefinite
    with pytest.raises(ValueError, match="weights"):
        make_mpcqp(2, 2, hp=2, weights=[bad, 1.0, 1.0, 1.0])


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
    p_sum, a_sum = checksum(mpcqp.qp.P.data), checksum(mpcqp.qp.A.data)
    x0 = np.linspace(0, 1, model.n_x)
    update_mpc_step(mpcqp, x0, np.full(4, 1.5), 8.0, [4.0, 4.0])
    q1, l1, u1 = mpcqp.qp.q.copy(), mpcqp.qp.l.copy(), mpcqp.qp.u.copy()
    update_mpc_step(mpcqp, x0, np.full(4, 1.5), 8.0, [4.0, 4.0])
    np.testing.assert_array_equal(q1, mpcqp.qp.q)
    np.testing.assert_array_equal(l1, mpcqp.qp.l)
    np.testing.assert_array_equal(u1, mpcqp.qp.u)
    assert checksum(mpcqp.qp.P.data) == p_sum
    assert checksum(mpcqp.qp.A.data) == a_sum


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
