import numpy as np
import pytest

from etmpc.power import PowerModelParams
from etmpc.pruning import DEFAULT_CUTOFF, prune_model
from etmpc.qp import AdmmSettings
from etmpc.simulate import Scenario, default_scenario, mpc_solver_settings, run_closed_loop
from etmpc.thermal import GridSpec, build_thermal_model, default_domains, discretize

STEPS = 30

# The trajectories must not move by a bit unless the solver's arithmetic
# changes on purpose (they depend on the per-row step sizes, for one). Per
# mode: sum of the plant silicon temperatures, sum of the dispatched power,
# iterations per step, and the status counts.
REFERENCE = {
    "fixed": (5679.550503262522, 198.5311922740663, [15] * STEPS,
              {"max_iter": 7, "solved": 23}),
    "residual": (5679.622928160108, 198.60768757293133,
                 [52, 18, 18, 18, 17, 17, 17, 16, 16, 15, 15, 16, 16, 15, 15,
                  116, 17, 17, 17, 16, 16, 15, 15, 16, 15, 14, 14, 16, 16, 14],
                 {"solved": 30}),
    "fp32": (5679.550476433941, 198.5311797069302, [15] * STEPS,
             {"max_iter": 7, "solved": 23}),
}

MODES = {
    "fixed": (dict(), 0.0),
    "residual": (dict(termination_mode="residual", eps_prim=1e-3, eps_dual=1e-3,
                      max_iter=500), 0.05),
    "fp32": (dict(precision="fp32"), 0.0),
}


def p2x2_loop(mode):
    spec = GridSpec(2, 2, hp=2, domains=default_domains(2, 2))
    params = PowerModelParams()
    model = build_thermal_model(spec)
    discretize(model)
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


def test_fixed_iteration_settings_compute_residuals_once():
    assert mpc_solver_settings().check_interval == 15
    assert mpc_solver_settings(max_iter=40).check_interval == 40
    assert mpc_solver_settings(check_interval=5).check_interval == 5
    residual = mpc_solver_settings(termination_mode="residual", max_iter=500)
    assert residual.check_interval == AdmmSettings().check_interval == 1


@pytest.mark.parametrize("period", [0.0, -1e-3])
def test_scenario_rejects_non_positive_period(period):
    with pytest.raises(ValueError):
        Scenario(controller_period=period)
