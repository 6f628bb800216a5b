"""Closed-loop model-in-the-loop simulation.

The plant integrates the continuous RC model with the full nonlinear
power model; the controller sees only the discretized (possibly pruned)
model through the condensed QP. Per controller period: measure, compute
power targets, solve, dispatch the first-stage inputs through the inverse
power model, integrate the plant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mpc import MpcQp, build_mpc_qp, predicted_stage_states, stage_inputs, update_mpc_step
from .power import PowerModelParams, power_forward, power_inverse, smallest_feasible_voltage
from .qp import AdmmSettings, AdmmSolver
from .thermal import ThermalPlantModel


def timeline_value(timeline, t):
    """Piecewise-constant lookup: the last breakpoint at or before t."""
    current = timeline[0][1]
    for t0, v in timeline:
        if t0 <= t + 1e-12:
            current = v
        else:
            break
    return current


@dataclass
class Scenario:
    duration: float = 2.0
    controller_period: float = 1e-3
    plant_substeps: int = 10
    noise_sigma: float = 0.0
    seed: int = 0
    # timelines are sorted (time, value) breakpoints, piecewise constant
    freq_targets: list = field(default_factory=list)    # value: array(n_pe)
    classes: list = field(default_factory=list)         # value: int array(n_pe)
    budget: list = field(default_factory=list)          # value: float
    domain_budgets: list = field(default_factory=list)  # value: list[float]
    params: PowerModelParams | None = None

    def __post_init__(self):
        if not self.controller_period > 0:
            raise ValueError("controller_period must be positive")
        if self.duration < self.controller_period:
            raise ValueError("duration shorter than one controller period")
        if self.plant_substeps < 1:
            raise ValueError("plant_substeps must be at least 1")

    @property
    def n_steps(self):
        return int(round(self.duration / self.controller_period))


def default_scenario(spec, params: PowerModelParams, duration=2.0,
                     budget_step_at=None, budget_step_factor=0.55) -> Scenario:
    """Shipped reference scenario: a hot half / cool half workload split
    with a mid-run total-budget drop exercising the capping path."""
    nc = spec.n_pe
    f_hi = params.vf_table[-1][1] * 0.9
    f_lo = params.vf_table[0][1] * 0.8
    freqs = np.where(np.arange(nc) % 2 == 0, f_hi, f_lo)
    classes = np.where(np.arange(nc) % 3 == 0, 2, 1)
    t_hot = params.t_limit - 10.0
    # estimate via unconstrained targets at nominal voltage per element
    p_each = np.array([
        power_forward(params, _voltage_for_frequency(params, f), f, t_hot, c)
        for f, c in zip(freqs, classes)
    ])
    p_total = float(np.clip(p_each, params.p_min, params.p_max).sum())
    if budget_step_at is None:
        budget_step_at = duration / 2.0
    budget = [(0.0, 1.2 * p_total), (budget_step_at, budget_step_factor * p_total)]
    domain_budgets = []
    if spec.domains:
        shares = [len(d) / nc for d in spec.domains]
        domain_budgets = [
            (0.0, [1.2 * p_total * s for s in shares]),
            (budget_step_at, [budget_step_factor * p_total * s * 1.1 for s in shares]),
        ]
    return Scenario(
        duration=duration,
        freq_targets=[(0.0, freqs.astype(np.float64))],
        classes=[(0.0, classes.astype(np.int64))],
        budget=budget,
        domain_budgets=domain_budgets,
        params=params,
    )


def _voltage_for_frequency(params, f):
    for v, fmax in params.vf_table:
        if f <= fmax:
            return v
    return params.vf_table[-1][0]


@dataclass
class RunTrace:
    times: np.ndarray
    plant_si: np.ndarray          # measured silicon temperatures [degC], (steps, nc)
    predicted_si: np.ndarray      # one-step-ahead controller prediction [degC]
    dispatched_power: np.ndarray  # (steps, nc)
    target_power: np.ndarray      # (steps, nc)
    applied_v: np.ndarray
    applied_f: np.ndarray
    budget_active: np.ndarray     # (steps,)
    iterations: np.ndarray
    status: list
    solve_time: np.ndarray

    @property
    def n_steps(self):
        return self.times.shape[0]


def plant_power(model: ThermalPlantModel, params: PowerModelParams, state,
                v, f, ceff):
    """Instantaneous per-element power at the current silicon temperatures.

    Fully nonlinear: the leakage gain tracks each element's temperature.
    """
    t_abs = state[0::2][: model.n_u] + model.constants.t_amb
    gain = np.exp(params.k_v * v + params.k_t * t_abs + params.k_t0)
    return params.k_s0 + params.icc * v * gain + ceff * f * v * v


def plant_step(model: ThermalPlantModel, params: PowerModelParams, state,
               v, f, classes, dt, substeps=1):
    """Fixed-step 4th-order integration of the nonlinear plant."""
    h = dt / substeps
    state = np.array(state, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    ceff = np.array([params.ceff(c) for c in np.asarray(classes)])

    def deriv(s):
        p = plant_power(model, params, s, v, f, ceff)
        return model.a_t @ s + model.b_t @ p

    for _ in range(substeps):
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * h * k1)
        k3 = deriv(state + 0.5 * h * k2)
        k4 = deriv(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def mpc_solver_settings(**overrides) -> AdmmSettings:
    """Controller defaults: fixed 15 iterations, warm started. With fixed
    iterations the residuals feed only the final status and the divergence
    check, so unless ``check_interval`` is given they are computed once,
    after the last iteration."""
    base = dict(max_iter=15, warm_start=True, termination_mode="fixed_iterations",
                eps_prim=0.01, eps_dual=0.01)
    base.update(overrides)
    if base["termination_mode"] == "fixed_iterations":
        base.setdefault("check_interval", base["max_iter"])
    return AdmmSettings(**base)


def run_closed_loop(model: ThermalPlantModel, scenario: Scenario,
                    controller_model: ThermalPlantModel | None = None,
                    solver_settings: AdmmSettings | None = None,
                    weights=None, mpcqp: MpcQp | None = None) -> RunTrace:
    """Simulate the three-stage controller against the nonlinear plant.

    ``controller_model`` (default: the plant model itself) provides the
    discretized matrices the QP is condensed from; pass a pruned model to
    study the pruning error. A diverged solve holds the previous operating
    point and flags the step.
    """
    import time as _time

    spec = model.spec
    params_ = (scenario.params if scenario.params is not None else PowerModelParams()).validate()
    if controller_model is None:
        controller_model = model
    if mpcqp is None:
        mpcqp = build_mpc_qp(controller_model, spec, params_, weights=weights)
    settings = solver_settings or mpc_solver_settings()
    solver = AdmmSolver(mpcqp.qp, settings)
    rng = np.random.default_rng(scenario.seed)

    nc = spec.n_pe
    n_steps = scenario.n_steps
    t_amb = model.constants.t_amb
    gain = params_.frozen_gain()

    state = np.zeros(model.n_x)
    tr = RunTrace(
        times=np.arange(n_steps) * scenario.controller_period,
        plant_si=np.zeros((n_steps, nc)),
        predicted_si=np.full((n_steps, nc), np.nan),
        dispatched_power=np.zeros((n_steps, nc)),
        target_power=np.zeros((n_steps, nc)),
        applied_v=np.zeros((n_steps, nc)),
        applied_f=np.zeros((n_steps, nc)),
        budget_active=np.zeros(n_steps),
        iterations=np.zeros(n_steps, dtype=int),
        status=[],
        solve_time=np.zeros(n_steps),
    )

    v_apply = np.full(nc, params_.vf_table[0][0])
    f_apply = np.zeros(nc)

    for k in range(n_steps):
        t = k * scenario.controller_period
        f_targ = timeline_value(scenario.freq_targets, t)
        cls = timeline_value(scenario.classes, t)
        budget = timeline_value(scenario.budget, t) if scenario.budget else None
        dom_budget = (timeline_value(scenario.domain_budgets, t)
                      if scenario.domain_budgets else None)

        measured = state.copy()
        if scenario.noise_sigma > 0:
            measured = measured + rng.normal(0.0, scenario.noise_sigma, state.shape)
        t_si_abs = measured[0::2][:nc] + t_amb

        # stage 1: target powers from the requested operating points
        p_star = np.array([
            power_forward(params_, _voltage_for_frequency(params_, f_targ[i]),
                          f_targ[i], t_si_abs[i], cls[i], gain=gain)
            for i in range(nc)
        ])
        p_star = np.clip(p_star, params_.p_min, params_.p_max)

        # stage 2: capped power split via the QP
        update_mpc_step(mpcqp, measured, p_star, budget, dom_budget)
        t0 = _time.perf_counter()
        res = solver.solve()
        tr.solve_time[k] = _time.perf_counter() - t0
        tr.iterations[k] = res.iterations
        tr.status.append(res.status)

        if res.status == "diverged":
            pass  # hold previous operating point
        else:
            u0 = stage_inputs(mpcqp, res.x, 0)
            pred = predicted_stage_states(mpcqp, res.x, 1)
            tr.predicted_si[k] = pred[0::2][:nc] + t_amb
            # stage 3: shared rail per domain, then per-element frequency
            domains = spec.domains if spec.domains else [list(range(nc))]
            for members in domains:
                v_dom = max(
                    smallest_feasible_voltage(params_, u0[i], t_si_abs[i], cls[i], gain=gain)
                    for i in members
                )
                for i in members:
                    _, f_i, _ = power_inverse(params_, u0[i], t_si_abs[i], cls[i],
                                              domain_voltage=v_dom, gain=gain)
                    v_apply[i] = v_dom
                    f_apply[i] = f_i

        dispatched = np.array([
            power_forward(params_, v_apply[i], f_apply[i], t_si_abs[i], cls[i], gain=gain)
            for i in range(nc)
        ])
        tr.plant_si[k] = state[0::2][:nc] + t_amb
        tr.dispatched_power[k] = dispatched
        tr.target_power[k] = p_star
        tr.applied_v[k] = v_apply
        tr.applied_f[k] = f_apply
        tr.budget_active[k] = budget if budget is not None else np.inf

        state = plant_step(model, params_, state, v_apply, f_apply, cls,
                           scenario.controller_period, scenario.plant_substeps)

    return tr


def rmse_series(trace: RunTrace):
    """Per-step RMSE between the one-step-ahead prediction and the
    subsequent measurement, over all silicon temperatures."""
    n = trace.n_steps
    out = np.zeros(n)
    for k in range(1, n):
        pred = trace.predicted_si[k - 1]
        if np.any(np.isnan(pred)):
            out[k] = out[k - 1]
            continue
        err = pred - trace.plant_si[k]
        out[k] = float(np.sqrt(np.mean(err * err)))
    return out

