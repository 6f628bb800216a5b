from dataclasses import replace

import numpy as np
import pytest

from etmpc.mpc import build_mpc_qp
from etmpc.power import PowerModelParams
from etmpc.pruning import DEFAULT_CUTOFF, prune_model
from etmpc.qp import AdmmSettings
import etmpc.simulate
from etmpc.simulate import (PLANT_SUBSTEPS, Scenario, default_scenario, dispatch,
                            mpc_solver_settings, plant_integrator, plant_step, rmse_series,
                            run_closed_loop, timeline_value)
from etmpc.thermal import GridSpec, build_thermal_model, default_domains, discretize

from oracles import phi_blocks_by_expm, plant_step_per_evaluation, scalar_dispatch

STEPS = 30

# The trajectories must not move by a bit unless the solver's arithmetic,
# the QP layout or the plant integrator changes on purpose (they depend on
# the per-row step sizes, on the measured state entering as D x_meas rather
# than through an x_0 column, and on the rounding of plant_integrator's
# matrices and of plant_step's ETDRK4 substeps). Per mode: sum of the plant
# silicon temperatures, sum of the dispatched power, iterations per step,
# and the status counts.
REFERENCE = {
    "fixed": (5679.551110002969, 198.53139514452442, [15] * STEPS,
              {"max_iter": 7, "solved": 23}),
    "residual": (5679.624492555728, 198.60841745621923,
                 [52, 17, 16, 16, 16, 15, 15, 15, 14, 14, 15, 15, 14, 15, 14,
                  116, 16, 15, 15, 14, 14, 14, 15, 15, 14, 14, 14, 16, 16, 14],
                 {"solved": 30}),
    "fp32": (5679.550805363311, 198.5312578678131, [15] * STEPS,
             {"max_iter": 7, "solved": 23}),
}

MODES = {
    "fixed": (dict(), 0.0),
    "residual": (dict(termination_mode="residual", eps_prim=1e-3, eps_dual=1e-3,
                      max_iter=500), 0.05),
    "fp32": (dict(precision="fp32"), 0.0),
}


def p2x2(ts=1e-3):
    spec = GridSpec(2, 2, hp=2, ts=ts, domains=default_domains(2, 2))
    model = build_thermal_model(spec)
    discretize(model)
    return spec, model


def p2x2_loop(mode):
    spec, model = p2x2()
    params = PowerModelParams()
    scenario = default_scenario(spec, params, duration=STEPS * spec.ts)
    overrides, sigma = MODES[mode]
    scenario.noise_sigma = sigma
    scenario.seed = 7
    return run_closed_loop(model, scenario, controller_model=prune_model(model, DEFAULT_CUTOFF),
                           solver_settings=mpc_solver_settings(**overrides))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_p2x2_closed_loop_trajectory_is_unchanged(mode):
    tr = p2x2_loop(mode)
    si_sum, p_sum, iterations, status = REFERENCE[mode]
    assert tr.n_steps == STEPS
    np.testing.assert_allclose(tr.plant_si.sum(), si_sum, rtol=1e-12)
    np.testing.assert_allclose(tr.dispatched_power.sum(), p_sum, rtol=1e-12)
    assert tr.iterations.tolist() == iterations
    assert {s: tr.status.count(s) for s in set(tr.status)} == status


def test_clamp_flags_mark_the_clipped_frequencies():
    # a deep budget drop plans some elements below their rail's static power
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=STEPS * spec.ts,
                                budget_step_factor=0.3)
    tr = run_closed_loop(model, scenario, controller_model=prune_model(model, DEFAULT_CUTOFF))
    assert tr.clamped.shape == (STEPS, 4) and tr.clamped.dtype == bool
    assert 0 < tr.clamped.sum() < tr.clamped.size
    fmax = dict(PowerModelParams().vf_table)
    at_limit = (tr.applied_f == 0.0) | (tr.applied_f == np.vectorize(fmax.get)(tr.applied_v))
    assert np.all(at_limit[tr.clamped])


def test_array_dispatch_matches_scalar_oracle():
    params = PowerModelParams()
    spec = GridSpec(8, 8, hp=2, domains=default_domains(8, 8))
    domains = [np.asarray(members) for members in spec.domains]
    vs, fs = np.array(params.vf_table).T
    rng = np.random.default_rng(3)
    for gain in (params.frozen_gain(), params.leakage_gain(50.0, 0.8)):
        for _ in range(10):
            classes = rng.integers(0, 3, spec.n_pe)
            ceff = params.ceff(classes)
            rail = rng.integers(len(vs), size=spec.n_pe)
            static = params.k_s0 + params.icc * vs[rail] * gain
            u0 = rng.uniform(-0.5, params.p_max + 1.0, spec.n_pe)
            # exactly on a rail's static floor, and at a rail's fmax
            on_floor, at_fmax = rng.random(spec.n_pe) < 0.2, rng.random(spec.n_pe) < 0.2
            u0[on_floor] = static[on_floor]
            u0[at_fmax] = (static + ceff * fs[rail] * vs[rail] * vs[rail])[at_fmax]
            got = dispatch(params, u0, ceff, gain, domains)
            want = scalar_dispatch(params, u0, classes, gain, spec.domains)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)


# test_power's second table: other rails and frequencies, and a higher cap
OTHER_TABLE = PowerModelParams(vf_table=[(0.7, 1.5e9), (0.9, 2.4e9), (1.1, 3.2e9)],
                               t_limit=95.0)


@pytest.mark.parametrize("rows, cols, params, seed", [
    (2, 2, PowerModelParams(), 2),
    (4, 4, PowerModelParams(), 4),
    (8, 8, PowerModelParams(), 8),
    (1, 1, PowerModelParams(), 1),
    (3, 2, PowerModelParams(), 32),
    (3, 2, OTHER_TABLE, 33),
], ids=["2", "4", "8", "1", "3x2", "3x2-other-table"])
def test_plant_step_is_closer_to_a_fine_rk4_than_a_ten_substep_rk4_is(rows, cols, params, seed):
    # one PE and a non-square grid check the shapes of the per-call buffers
    spec = GridSpec(rows, cols, hp=2, domains=default_domains(rows, cols))
    model = build_thermal_model(spec)
    integrator = plant_integrator(model)
    rails = np.array(params.vf_table)
    rng = np.random.default_rng(seed)
    step_error = rk4_error = 0.0
    for state in (np.zeros(model.n_x), rng.uniform(0.0, 60.0, model.n_x)):
        for _ in range(5):
            v, fmax = rails[rng.integers(len(rails), size=spec.n_pe)].T
            f = np.where(rng.random(spec.n_pe) < 0.2, 0.0, rng.uniform(0.0, fmax))
            ceff = params.ceff(rng.integers(0, 3, spec.n_pe))
            got = plant_step(integrator, params, state, v, f, ceff)
            fine = plant_step_per_evaluation(model, params, state, v, f, ceff, 400)
            coarse = plant_step_per_evaluation(model, params, state, v, f, ceff, 10)
            step_error = max(step_error, np.abs(got - fine).max())
            rk4_error = max(rk4_error, np.abs(coarse - fine).max())
            state = got
    assert step_error <= rk4_error


@pytest.mark.parametrize("rows, cols", [(1, 1), (2, 2), (3, 2), (8, 8)])
def test_plant_integrator_matches_the_phi_functions_of_an_augmented_expm(rows, cols):
    spec = GridSpec(rows, cols, hp=2, domains=default_domains(rows, cols))
    model = build_thermal_model(spec)
    integrator = plant_integrator(model)
    h = spec.ts / PLANT_SUBSTEPS
    exp_h, phi_1, phi_2, phi_3 = phi_blocks_by_expm(model.a_t, model.b_t, h)
    exp_half, half_1, _, _ = phi_blocks_by_expm(model.a_t, model.b_t, h / 2)
    want = dict(exp_h=exp_h, exp_half=exp_half, half_b=half_1,
                b_1=phi_1 - 3 * phi_2 + 4 * phi_3, b_2=2 * (phi_2 - 2 * phi_3),
                b_3=4 * phi_3 - phi_2)
    for name, w in want.items():
        got = getattr(integrator, name)
        assert np.abs(got - w).max() <= 1e-13 * np.abs(w).max(), name


def test_plant_integrator_rejects_a_network_without_symmetric_conductances():
    model = build_thermal_model(GridSpec(2, 2))
    plant_integrator(model)
    a_t = model.a_t.copy()
    a_t[0, 1] *= 1.01    # silicon 0 now draws more from copper 0 than it gives
    with pytest.raises(ValueError, match="symmetric"):
        plant_integrator(replace(model, a_t=a_t))


def test_a_run_builds_the_plant_integrator_once(monkeypatch):
    builds = []
    real = etmpc.simulate.plant_integrator

    def counted(model):
        builds.append(model)
        return real(model)

    monkeypatch.setattr(etmpc.simulate, "plant_integrator", counted)
    spec, model = p2x2()
    run_closed_loop(model, default_scenario(spec, PowerModelParams(), duration=5 * spec.ts))
    assert builds == [model]


def test_plant_step_writes_neither_its_state_nor_an_earlier_result():
    spec, model = p2x2()
    integrator = plant_integrator(model)
    params = PowerModelParams()
    v, f = np.full(4, 0.8), np.full(4, 1.5e9)
    ceff = params.ceff(np.ones(4, dtype=int))
    state = np.random.default_rng(9).uniform(0.0, 60.0, model.n_x)
    given = state.copy()
    first = plant_step(integrator, params, state, v, f, ceff)
    assert state.tobytes() == given.tobytes() and first is not state
    kept = first.copy()
    second = plant_step(integrator, params, first, v, f, ceff)
    assert first.tobytes() == kept.tobytes() and second is not first
    assert second.tobytes() == plant_step(integrator, params, kept, v, f, ceff).tobytes()


def test_fixed_iteration_settings_compute_residuals_once():
    assert mpc_solver_settings().check_interval == 15
    assert mpc_solver_settings(max_iter=40).check_interval == 40
    assert mpc_solver_settings(check_interval=5).check_interval == 5
    residual = mpc_solver_settings(termination_mode="residual", max_iter=500)
    assert residual.check_interval == AdmmSettings().check_interval == 1


def timelines(n=4):
    return dict(freq_targets=[(0.0, np.full(n, 1e9))], classes=[(0.0, np.ones(n, dtype=int))])


@pytest.mark.parametrize("empty", ["freq_targets", "classes"])
def test_scenario_rejects_empty_timeline(empty):
    with pytest.raises(ValueError):
        Scenario(**{**timelines(), empty: []})


@pytest.mark.parametrize("name", ["freq_targets", "classes", "budget", "domain_budgets"])
def test_scenario_rejects_unsorted_timeline(name):
    value = timelines()[name][0][1] if name in timelines() else 1.0
    with pytest.raises(ValueError):
        Scenario(**{**timelines(), name: [(0.5, value), (0.0, value)]})


def test_timeline_value_is_piecewise_constant():
    timeline = [(0.0, "early"), (0.5, "late")]
    assert [timeline_value(timeline, t) for t in (0.0, 0.1, 0.5 - 1e-13, 0.7)] == \
        ["early", "early", "late", "late"]


@pytest.mark.parametrize("name", ["freq_targets", "classes", "budget", "domain_budgets"])
def test_scenario_rejects_a_timeline_that_starts_after_zero(name):
    # before its first breakpoint a timeline has no value to hold
    value = timelines()[name][0][1] if name in timelines() else 1.0
    with pytest.raises(ValueError):
        Scenario(**{**timelines(), name: [(0.5, value), (1.0, value)]})


def test_timeline_value_rejects_a_time_before_its_first_breakpoint():
    timeline = [(0.5, "late")]
    assert timeline_value(timeline, 0.5) == "late"
    with pytest.raises(ValueError):
        timeline_value(timeline, 0.4)


def test_timeline_value_rejects_a_nan_time_and_holds_the_last_value_at_inf():
    timeline = [(0.0, "early"), (0.5, "late")]
    assert timeline_value(timeline, float("inf")) == "late"
    for t in (float("nan"), np.float64("nan")):
        with pytest.raises(ValueError, match="NaN"):
            timeline_value(timeline, t)


def test_a_timeline_that_starts_before_zero_holds_its_value_from_zero():
    spec, model = p2x2()
    early, late = timelines(), timelines()
    early["freq_targets"] = [(-1.0, early["freq_targets"][0][1])]
    early["classes"] = [(-0.5, early["classes"][0][1])]
    traces = [run_closed_loop(model, Scenario(duration=3 * spec.ts, **kw)) for kw in (early, late)]
    assert traces[0].plant_si.tobytes() == traces[1].plant_si.tobytes()


@pytest.mark.parametrize("name, value", [
    ("freq_targets", np.full(1, 1e9)),
    ("freq_targets", np.full(5, 1e9)),
    ("classes", np.ones(1, dtype=int)),
    ("classes", np.ones((4, 1), dtype=int)),
])
def test_run_rejects_timeline_values_of_wrong_shape(name, value):
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=2 * spec.ts)
    setattr(scenario, name, [(0.0, value)])
    with pytest.raises(ValueError):
        run_closed_loop(model, scenario)


def test_steps_and_times_follow_the_grid_sample_time():
    spec, model = p2x2(ts=2e-3)
    tr = run_closed_loop(model, default_scenario(spec, PowerModelParams(), duration=0.02))
    assert tr.n_steps == 10
    np.testing.assert_allclose(np.diff(tr.times), 2e-3, rtol=1e-12)


@pytest.mark.parametrize("controller", ["controller_model", "mpcqp"])
def test_run_rejects_a_controller_for_another_sample_time(controller):
    spec, model = p2x2()
    other_spec, other = p2x2(ts=5e-3)
    built = {"controller_model": other,
             "mpcqp": build_mpc_qp(other, other_spec, PowerModelParams())}
    scenario = default_scenario(spec, PowerModelParams(), duration=20 * spec.ts)
    with pytest.raises(ValueError):
        run_closed_loop(model, scenario, **{controller: built[controller]})


def test_run_rejects_a_duration_shorter_than_one_sample_time():
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=spec.ts)
    run_closed_loop(model, scenario)
    scenario.duration = 0.5 * spec.ts
    with pytest.raises(ValueError):
        run_closed_loop(model, scenario)


@pytest.mark.parametrize("steps", [2.5, 3.5])
def test_run_rejects_a_duration_between_sample_times(steps):
    # half a sample time over: neither neighbouring step count is the duration
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=steps * spec.ts)
    with pytest.raises(ValueError, match="whole number"):
        run_closed_loop(model, scenario)
    scenario.duration = int(steps + 0.5) * spec.ts   # steps * ts, as the benchmark sets it
    assert run_closed_loop(model, scenario).n_steps == int(steps + 0.5)


@pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
def test_run_rejects_a_non_finite_duration(duration):
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=2 * spec.ts)
    scenario.duration = duration
    with pytest.raises(ValueError, match="duration must be finite"):
        run_closed_loop(model, scenario)


def test_run_rejects_a_controller_for_another_grid():
    # a 4x1 controller has the 2x2 plant's state and input sizes, so it ran
    spec, model = p2x2()
    other_spec = GridSpec(4, 1, hp=2, domains=spec.domains)
    other = build_thermal_model(other_spec)
    discretize(other)
    scenario = default_scenario(spec, PowerModelParams(), duration=2 * spec.ts)
    with pytest.raises(ValueError, match="grid"):
        run_closed_loop(model, scenario,
                        mpcqp=build_mpc_qp(other, other_spec, PowerModelParams()))


def test_run_rejects_an_mpcqp_built_from_another_controller_model():
    # the QP's dynamics are mpcqp's, so a controller_model beside it went unread
    spec = GridSpec(3, 3, hp=2, domains=default_domains(3, 3))
    model = build_thermal_model(spec)
    discretize(model)
    pruned = prune_model(model, 0.05)
    assert not np.array_equal(pruned.d, model.d)
    params = PowerModelParams()
    scenario = default_scenario(spec, params, duration=2 * spec.ts)
    with pytest.raises(ValueError, match="controller_model"):
        run_closed_loop(model, scenario, controller_model=pruned,
                        mpcqp=build_mpc_qp(model, spec, params))
    # the benchmark's pair: the QP built from the controller model it names
    run_closed_loop(model, scenario, controller_model=pruned,
                    mpcqp=build_mpc_qp(pruned, spec, params))
    # equal by value is the same controller model
    run_closed_loop(model, scenario, controller_model=replace(pruned, d=pruned.d.copy()),
                    mpcqp=build_mpc_qp(pruned, spec, params))


def test_run_rejects_a_controller_for_other_power_params():
    # the QP's caps and boxes would come from the controller's params, the
    # targets, dispatch and plant from the scenario's
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=2 * spec.ts)
    for params in (PowerModelParams(t_limit=50.0), PowerModelParams(ceff_by_class={0: 1e-9})):
        with pytest.raises(ValueError, match="power model parameters"):
            run_closed_loop(model, scenario, mpcqp=build_mpc_qp(model, spec, params))
    # equal by value is the same configuration
    run_closed_loop(model, scenario, mpcqp=build_mpc_qp(model, spec, PowerModelParams()))


def test_run_rejects_a_controller_for_other_domains():
    # the QP's domain rows would disagree with the rails dispatch shares
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=2 * spec.ts)
    assert spec.domains == [[0, 2], [1, 3]]
    for domains in ([[0, 1], [2, 3]], [[0, 1, 2, 3]]):
        other = GridSpec(2, 2, hp=2, domains=domains)
        scenario.domain_budgets = [(0.0, [10.0] * len(domains))]
        with pytest.raises(ValueError, match="domains"):
            run_closed_loop(model, scenario, mpcqp=build_mpc_qp(model, other, PowerModelParams()))
    same = GridSpec(2, 2, hp=3, domains=[np.array(d) for d in spec.domains])
    scenario.domain_budgets = [(0.0, [10.0, 10.0])]
    run_closed_loop(model, scenario, mpcqp=build_mpc_qp(model, same, PowerModelParams()))


@pytest.mark.parametrize("sigma", [-0.05, np.nan])
def test_run_rejects_negative_or_nan_noise(sigma):
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=2 * spec.ts)
    scenario.noise_sigma = sigma
    with pytest.raises(ValueError, match="noise_sigma"):
        run_closed_loop(model, scenario)


def test_run_rejects_a_nan_budget():
    # unchecked, a NaN bound ends every step "diverged" and dispatches f = 0
    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=10 * spec.ts)
    scenario.budget = [(0.0, np.nan)]
    with pytest.raises(ValueError, match="NaN budget"):
        run_closed_loop(model, scenario)


def test_diverged_step_holds_the_previous_operating_point(monkeypatch):
    diverged_at = 5
    real = etmpc.simulate.AdmmSolver

    class DivergesOnce(real):
        """Reports one mid-run solve as diverged, with a NaN iterate."""

        solves = 0

        def solve(self):
            state = super().solve()
            if DivergesOnce.solves == diverged_at:
                state.status = "diverged"
                state.x = np.full_like(state.x, np.nan)
            DivergesOnce.solves += 1
            return state

    spec, model = p2x2()
    scenario = default_scenario(spec, PowerModelParams(), duration=10 * spec.ts)
    clean = run_closed_loop(model, scenario)
    monkeypatch.setattr(etmpc.simulate, "AdmmSolver", DivergesOnce)
    tr = run_closed_loop(model, scenario)

    k = diverged_at   # the budget drops here, so the clean run moves its operating point
    assert not np.array_equal(clean.applied_f[k], clean.applied_f[k - 1])
    assert tr.status[k] == "diverged" and tr.status.count("diverged") == 1
    for held in (tr.applied_v, tr.applied_f, tr.clamped):
        np.testing.assert_array_equal(held[k], held[k - 1])
    assert np.isnan(tr.predicted_si[k]).all()
    assert not np.isnan(np.delete(tr.predicted_si, k, axis=0)).any()
    rmse = rmse_series(tr)
    assert rmse[k + 1] == rmse[k] > 0
    # the steps before the diverged one are the clean run's
    np.testing.assert_array_equal(tr.plant_si[:k + 1], clean.plant_si[:k + 1])
    np.testing.assert_array_equal(tr.applied_f[:k], clean.applied_f[:k])
