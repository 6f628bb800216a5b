import hashlib

import numpy as np
import pytest
import scipy.sparse

from etmpc.mpc import build_mpc_qp, predicted_stage_states, stage_inputs, update_mpc_step
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
    assert mpcqp.qp.n == n_x + 1
    assert mpcqp.qp.m == n_x + 1 + 1 + 1


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
    blocks = [idx.rows_dynamics, idx.rows_caps, idx.rows_boxes, idx.rows_budget,
              idx.rows_domains]
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == qp.m


# sha256 of the fp64 bring-up's KKT matrix, permutation and factor, and of
# the residual operator KktSystem.P (default domains, cutoff 0.005); any
# change to the ordering, the LDL arithmetic or the pattern of K, L or P
# shows here. perm, inv_perm and the index arrays depend on K's pattern
# alone, so a change of the per-row step sizes (K's (2,2) diagonal) may move
# the value digests, never these. P's index arrays are hashed as int64, as
# their index dtype is scipy's choice.
# K's values come from discretize's matrix exponential, whose last bits may
# depend on the BLAS build; K's digest is pinned too, so that such a
# difference shows as a different input rather than a different factor.
# L's values, d and dinv come from SuperLU, so they may also depend on the
# SuperLU in scipy and the BLAS it calls.
BRING_UP_DIGESTS = {
    2: {"K": "475feef0002d6bf871e783d3ac2e416c2b10003174b871d55f6f9f8ab4c43d46",
        "perm": "58b8b7dd5aad4be9999b8b01ede99a0687b04c43d2249afe094eb45e7db0c900",
        "rowidx": "276f7d4952696a37a6652536fc84152705404aef6250dec467357e942515fe54",
        "values": "e0d817ba32bdf14430414d784a01edd912241238e67be19a4a72e7505ad86392",
        "d": "97eda076c6074b67c74cc4881ad23b9d132bcd9cb12c2ed35bee7dd82629dbfe",
        "dinv": "188893ae4e360f89350f61988b04e15cd991305808d5ac93a2aa8d33d20a06c1",
        "K_colptr": "12f8467be46a19e160b835f5d80f3b4c4c21a4d63f5d3ce2dc5911603145c83b",
        "K_rowidx": "a8650314be7d87be9cb7082f5af6638df9456ef8928edbdc87e6bc699c2217cf",
        "L_colptr": "2af1eb3be47ac280e5a63871891ad87927a1c4265eeb385d3304edbde0bbe517",
        "inv_perm": "8ed1be3c8c7edaf88b4f04596cc0a786945b277ed49a5e5c90a1d4df86308859",
        "P_indptr": "5c7372bfab2fda5b9d833dee4b75875ee0dd4664d2d934e4783328a797ce4b4f",
        "P_indices": "b3bc92a7edb5d4603b9a8dd5b6ce208eb265f7760e9338847a3fe9dad16b072b",
        "P_data": "d12b361067e63a5dc640b9aceba9a97488e54a0d09171e72ae55512052fea7ba"},
    4: {"K": "f9146f9b9d4eb47683b757140fa377b1ff1519c5a3ce8ae2bc6fc705910cea9e",
        "perm": "837f601e0272a33af978741d46c699d539bee7357e0458bd95881af28575292a",
        "rowidx": "2b2f05cf0232d04e90f5f157a417bc29995d8a2598f07a72f19a883c744d611f",
        "values": "a00d68da2d4168ecc9a164906e36c6e59843c4b8574c831ed1473d8e2b656e9b",
        "d": "06bb685e3c4b3727294f7a2b78ba0c5b67a1230c6315df6fc0508e4bc8c5f812",
        "dinv": "543a83465a072296908a11cb1072681ed367d430bff99b1e3da969c0b7ef1bf8",
        "K_colptr": "8ec77e3a5a5790ec68934c72ec80ea99bab27f1dd736e837a4ba142bdc5b320b",
        "K_rowidx": "c30d153f968a1cf0176528da46901a38f6954accf4f23e8f115574101a8432a3",
        "L_colptr": "6d9b02339b1c9d08509d5929fd39cedd83d33164a4295c3a797a696f582e9572",
        "inv_perm": "730fa98e2f41c6496c22c1df5fd847bfed66cc432d893d6d3ff33415e96b5647",
        "P_indptr": "5368b7618376b3eb6c57cecbc1e1cdd27c2aae5872ddb7e222c7a82a99979cef",
        "P_indices": "95b467bce5535c68162b289d706555a9ebf61536fbc72676a9662e82ab7d7312",
        "P_data": "b17f803f8827b5906e19d56acdf8cb58eb2ddf299ea73ae6b51b6a3df175c79b"},
}


@pytest.mark.parametrize("grid", [2, 4], ids=["P2x2_H2", "P4x4_H2"])
def test_bring_up_factor_pinned(grid):
    mpcqp, _ = make_mpcqp(grid, grid, hp=2, domains=default_domains(grid, grid), cutoff=0.005)
    kkt = assemble_kkt(mpcqp.qp, AdmmSettings(precision="fp64"))
    f = kkt.factor
    # the factor's index arrays are hashed at int32, the width they were pinned at
    got = {"K": kkt.K.values, "perm": f.perm.astype(np.int32),
           "rowidx": f.L.rowidx.astype(np.int32), "values": f.L.values,
           "d": f.d, "dinv": f.dinv, "K_colptr": kkt.K.colptr, "K_rowidx": kkt.K.rowidx,
           "L_colptr": f.L.colptr.astype(np.int32), "inv_perm": f.inv_perm.astype(np.int32),
           "P_indptr": kkt.P.indptr.astype(np.int64), "P_indices": kkt.P.indices.astype(np.int64),
           "P_data": kkt.P.data}
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
    # stage 0's dynamics rows carry the measurement as D x_meas, with the
    # controller model's (pruned) D; the later stages' rows are 0
    mpcqp, model = make_mpcqp(2, 2, hp=2, cutoff=0.005)
    assert mpcqp.d is model.d
    x_meas = np.linspace(30.0, 36.0, model.n_x)
    update_mpc_step(mpcqp, x_meas, np.ones(4))
    dyn = mpcqp.index.rows_dynamics
    l, u = mpcqp.qp.l[dyn], mpcqp.qp.u[dyn]
    np.testing.assert_array_equal(l, u)
    np.testing.assert_array_equal(l[:model.n_x], model.d @ x_meas)
    np.testing.assert_array_equal(l[model.n_x:], 0.0)


@pytest.mark.parametrize("nw, nh, hp", [(2, 2, 2), (3, 2, 3)], ids=["P2x2_H2", "P3x2_H3"])
def test_same_optimum_as_the_layout_with_x0(nw, nh, hp):
    # the QP with x_0 as a variable pinned by n_x equality rows, built
    # densely, has the same minimiser; a hot state makes a silicon cap bind
    domains = default_domains(nw, nh)
    mpcqp, model = make_mpcqp(nw, nh, hp=hp, domains=domains, cutoff=0.005)
    n_x, n_u = model.n_x, model.n_u
    rng = np.random.default_rng(5)
    x_meas = rng.uniform(33.0, 39.9, n_x)          # ambient-relative; the cap is 40
    update_mpc_step(mpcqp, x_meas, rng.uniform(0.5, 4.0, n_u))
    qp = mpcqp.qp
    A, P = dense_mpc_matrices(model.d, model.e, model.c_t, domains, hp, np.ones(n_u),
                              with_x0=True)
    # same rows but for stage 0's dynamics, now 0, and the x_0 rows after them
    split = mpcqp.index.rows_dynamics.stop
    l, u = (np.concatenate([np.zeros(n_x), b[n_x:split], x_meas, b[split:]])
            for b in (qp.l, qp.u))
    with_x0 = QpProblem(scipy.sparse.csc_array(np.triu(P)),
                        np.concatenate([np.zeros(n_x), qp.q]), scipy.sparse.csc_array(A), l, u)
    settings = AdmmSettings(termination_mode="residual", max_iter=5000,
                            eps_prim=1e-8, eps_dual=1e-8)
    res, ref = AdmmSolver(qp, settings).solve(), AdmmSolver(with_x0, settings).solve()
    assert res.status == ref.status == "solved"
    caps = mpcqp.index.rows_caps   # some cap binds at the optimum
    assert np.max(qp.A[caps] @ res.x - qp.u[caps]) > -1e-6
    u0 = (hp + 1) * n_x
    np.testing.assert_allclose(stage_inputs(mpcqp, res.x, 0), ref.x[u0:u0 + n_u],
                               rtol=0, atol=1e-6)


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


@pytest.mark.parametrize("weights", [
    [np.nan, 1.0, 1.0, 1.0], [np.inf, 1.0, 1.0, 1.0], [-1.0, 1.0, 1.0, 1.0],
    1.0, [1.0] * 3, [1.0] * 8,
], ids=["nan", "inf", "-1.0", "scalar", "short", "long"])
def test_build_rejects_non_finite_or_negative_weights(weights):
    # a NaN weight ends in a zero pivot, a negative one makes P indefinite;
    # P2x2 has n_u = 4, and a weight vector of another shape would index
    # past its end or build P from the wrong entries
    with pytest.raises(ValueError, match="weights"):
        make_mpcqp(2, 2, hp=2, weights=weights)


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


def test_stage_slices_tile_the_solution_and_reject_other_stages():
    mpcqp, model = make_mpcqp(2, 2, hp=2)
    x = np.arange(mpcqp.qp.n, dtype=np.float64)
    parts = [predicted_stage_states(mpcqp, x, h) for h in (1, 2)] + \
        [stage_inputs(mpcqp, x, h) for h in (0, 1)]
    assert [p.size for p in parts] == [model.n_x] * 2 + [model.n_u] * 2
    np.testing.assert_array_equal(np.concatenate(parts), x)
    for h in (-1, 0, 3):
        with pytest.raises(ValueError, match="stage"):
            predicted_stage_states(mpcqp, x, h)
    for h in (-1, 2):
        with pytest.raises(ValueError, match="stage"):
            stage_inputs(mpcqp, x, h)


@pytest.mark.parametrize("name, bad", [
    ("x_init", np.nan), ("x_init", np.inf), ("p_star", np.nan), ("p_star", -np.inf),
    ("budget_total", np.nan), ("budget_domains", np.nan),
    ("budget_total", -np.inf), ("budget_domains", -np.inf),
])
def test_update_rejects_non_finite_step_data_and_writes_nothing(name, bad):
    mpcqp, model = make_mpcqp(2, 2, hp=2, domains=default_domains(2, 2))
    step = dict(x_init=np.full(model.n_x, 30.0), p_star=np.ones(4), budget_total=8.0,
                budget_domains=[4.0, 4.0])
    update_mpc_step(mpcqp, **step)
    before = [v.copy() for v in (mpcqp.qp.q, mpcqp.qp.l, mpcqp.qp.u)]
    if name == "budget_total":
        step[name] = bad
    else:
        step[name] = np.array(step[name], dtype=np.float64)
        step[name][1] = bad
    with pytest.raises(ValueError):
        update_mpc_step(mpcqp, **step)
    for old, new in zip(before, (mpcqp.qp.q, mpcqp.qp.l, mpcqp.qp.u)):
        np.testing.assert_array_equal(old, new)


def test_infinite_budget_is_no_budget():
    mpcqp, model = make_mpcqp(2, 2, hp=2, domains=default_domains(2, 2))
    update_mpc_step(mpcqp, np.zeros(model.n_x), np.ones(4), np.inf, [np.inf, np.inf])
    idx = mpcqp.index
    assert np.all(mpcqp.qp.u[idx.rows_budget.start:idx.rows_domains.stop] == np.inf)


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
