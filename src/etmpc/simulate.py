"""Closed-loop model-in-the-loop simulation.

The plant integrates the continuous RC model with the full nonlinear
power model; the controller sees only the discretized (possibly pruned)
model through the condensed QP. Per controller period: measure, take the
power targets, solve, dispatch the first-stage inputs through the inverse
power model, integrate the plant.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import power
from .mpc import MpcQp, build_mpc_qp, predicted_stage_states, stage_inputs, update_mpc_step
# the plant and the scenario use power.*; the names imported here serve stages 1 and 3
from .power import (PowerModelParams, power_forward, power_inverse, rail_for_frequency,
                    smallest_feasible_voltage)
from .qp import AdmmSettings, AdmmSolver
from .thermal import ThermalPlantModel

# RK4 steps of the plant per sample time
PLANT_SUBSTEPS = 10


def timeline_value(timeline, t):
    """Piecewise-constant lookup: the last breakpoint at or before t. A t
    before the first breakpoint has no value and raises ``ValueError``."""
    if timeline[0][0] > t + 1e-12:
        raise ValueError(f"t = {t} is before the timeline's first breakpoint")
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
    noise_sigma: float = 0.0
    seed: int = 0
    # timelines are sorted (time, value) breakpoints, piecewise constant
    freq_targets: list = field(default_factory=list)    # value: array(n_pe)
    classes: list = field(default_factory=list)         # value: int array(n_pe)
    budget: list = field(default_factory=list)          # value: float
    domain_budgets: list = field(default_factory=list)  # value: list[float]
    params: PowerModelParams | None = None

    def __post_init__(self):
        if not self.freq_targets or not self.classes:
            raise ValueError("freq_targets and classes need at least one breakpoint")
        for name in ("freq_targets", "classes", "budget", "domain_budgets"):
            times = [t0 for t0, _ in getattr(self, name)]
            if times != sorted(times):
                raise ValueError(f"{name} breakpoints must be sorted in time")
            if times and times[0] > 0.0:
                raise ValueError(f"{name} must have a breakpoint at or before t = 0")


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
    v = rail_for_frequency(params, freqs)
    p_each = power.power_forward(params, v, freqs, params.ceff(classes),
                                 params.leakage_gain(t_hot, v))
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
    clamped: np.ndarray           # (steps, nc) bool: target outside the rail's [0, fmax]
    iterations: np.ndarray
    status: list
    solve_time: np.ndarray

    @property
    def n_steps(self):
        return self.times.shape[0]


def plant_step(model: ThermalPlantModel, params: PowerModelParams, state, v, f, ceff):
    """Fixed-step 4th-order integration of the nonlinear plant over one
    sample time; its leakage gain tracks each element's instantaneous
    temperature. The operating point (v, f, ceff) is held over the step,
    so its temperature-independent power terms (``power.power_over_temperature``)
    are made once per call, not in each of the 4 * ``PLANT_SUBSTEPS``
    derivative evaluations. Returns a new array; ``state`` is not written.

    On vectors of a few dozen entries, dispatch is most of a NumPy call's
    cost, so the substeps run on arrays made once per call: the call's
    own copy of the state, advanced in place, the stage state, k1 to k4,
    the power and the B*p product, and views of the two states' silicon
    entries. Each sum and product is a direct ``np.add``/``np.multiply``
    call with its ``out`` in the positional slot, and the matrix products
    are ``a_t.dot(s, out)``, the BLAS matrix-vector product without the
    ufunc machinery of ``@``. The step's factors (h/2, h, h/6) and the
    ambient offset are float64 arrays, not Python floats, each holding the
    scalar's bits; the ×2 weights are written k + k, which is exact. Every
    operation keeps its operands and their order, so the state has the
    bits of the RK4 written with operators and scalar factors."""
    h = model.spec.ts / PLANT_SUBSTEPS
    state = np.array(state, dtype=np.float64)
    p = power.power_over_temperature(params, np.asarray(v, dtype=np.float64),
                                     np.asarray(f, dtype=np.float64), ceff)
    a_t, b_t = model.a_t, model.b_t
    n_pe = model.spec.n_pe
    t_amb = np.full(n_pe, model.constants.t_amb, np.float64)
    half_h, full_h, sixth_h = (np.full(state.shape, c) for c in (0.5 * h, h, h / 6.0))
    stage, k1, k2, k3, k4, b_p = (np.empty_like(state) for _ in range(6))
    power_w = np.empty(n_pe)
    si = slice(0, 2 * n_pe, 2)
    state_si, stage_si = state[si], stage[si]
    add, multiply = np.add, np.multiply

    def deriv(s, s_si, out):
        # a_t @ s + b_t @ p(silicon temperatures of s)
        a_t.dot(s, out)
        b_t.dot(p(add(s_si, t_amb, power_w), power_w), b_p)
        add(out, b_p, out)

    for _ in range(PLANT_SUBSTEPS):
        deriv(state, state_si, k1)
        add(state, multiply(half_h, k1, stage), stage)
        deriv(stage, stage_si, k2)
        add(state, multiply(half_h, k2, stage), stage)
        deriv(stage, stage_si, k3)
        add(state, multiply(full_h, k3, stage), stage)
        deriv(stage, stage_si, k4)
        # state + sixth_h * (k1 + (k2 + k2) + (k3 + k3) + k4)
        add(k1, add(k2, k2, k2), k1)
        add(k1, add(k3, k3, k3), k1)
        add(k1, k4, k1)
        add(state, multiply(sixth_h, k1, k1), state)
    return state


def dispatch(params: PowerModelParams, u0, ceff, gain, domains):
    """Stage 3: each domain (an index array) shares the highest of its members'
    smallest feasible rails, and each element's frequency realises its planned
    power u0 on that rail. Returns (v, f, clamped) per element."""
    v = smallest_feasible_voltage(params, u0, ceff, gain)
    for members in domains:
        v[members] = v[members].max()
    f, clamped = power_inverse(params, u0, v, ceff, gain)
    return v, f, clamped


def mpc_solver_settings(**overrides) -> AdmmSettings:
    """``AdmmSettings(**overrides)`` for the controller. With fixed
    iterations the residuals feed only the final status and the divergence
    check, so unless ``check_interval`` is given they are computed once,
    after the last iteration."""
    settings = AdmmSettings(**overrides)
    if settings.termination_mode == "fixed_iterations" and "check_interval" not in overrides:
        return replace(settings, check_interval=settings.max_iter)
    return settings


def run_closed_loop(model: ThermalPlantModel, scenario: Scenario,
                    controller_model: ThermalPlantModel | None = None,
                    solver_settings: AdmmSettings | None = None,
                    mpcqp: MpcQp | None = None) -> RunTrace:
    """Simulate the three-stage controller against the nonlinear plant, one
    step per ``model.spec.ts`` for ``scenario.duration``, which must be a
    whole number of sample times.

    ``controller_model`` (default: the plant model itself) provides the
    discretized matrices the QP is condensed from; pass a pruned model to
    study the pruning error. The controller (``mpcqp`` if given) must share
    the plant's grid, sample time and domains and the scenario's power
    model parameters, which stages 1 and 3 and the plant use. A diverged solve
    holds the previous operating point and flags the step.
    """
    import time as _time

    spec = model.spec
    ts = spec.ts
    if not np.isfinite(scenario.duration):
        raise ValueError("duration must be finite")
    n_steps = round(scenario.duration / ts)
    if n_steps < 1:
        raise ValueError("duration shorter than one sample time")
    if abs(scenario.duration / ts - n_steps) > 1e-9:
        raise ValueError("duration is not a whole number of sample times")
    if not scenario.noise_sigma >= 0:
        raise ValueError("noise_sigma must be non-negative")
    params_ = scenario.params if scenario.params is not None else PowerModelParams()
    nc = spec.n_pe
    for name in ("freq_targets", "classes"):
        if any(np.shape(value) != (nc,) for _, value in getattr(scenario, name)):
            raise ValueError(f"every {name} value must have shape ({nc},)")
    if mpcqp is None:
        mpcqp = build_mpc_qp(controller_model or model, spec, params_)
    # build_mpc_qp checks spec's grid and ts against its model
    if (mpcqp.spec.nw, mpcqp.spec.nh, mpcqp.spec.ts) != (spec.nw, spec.nh, ts):
        raise ValueError("the controller's grid or sample time differs from the plant's")
    if mpcqp.params != params_:
        raise ValueError("the controller's power model parameters differ from the scenario's")
    if [list(d) for d in mpcqp.spec.domains] != [list(d) for d in spec.domains]:
        raise ValueError("the controller's domains differ from the plant's")
    settings = solver_settings or mpc_solver_settings()
    solver = AdmmSolver(mpcqp.qp, settings)
    rng = np.random.default_rng(scenario.seed)

    gain = params_.frozen_gain()
    # stage 1: target powers, which with the frozen gain change only at breakpoints
    stage1 = []
    # both timelines start at or before t = 0, where the run starts
    for t0 in sorted({max(t0, 0.0) for t0, _ in scenario.freq_targets + scenario.classes}):
        f_targ = timeline_value(scenario.freq_targets, t0)
        ceff = params_.ceff(timeline_value(scenario.classes, t0))
        p_star = power_forward(params_, rail_for_frequency(params_, f_targ), f_targ, ceff, gain)
        stage1.append((t0, (np.clip(p_star, params_.p_min, params_.p_max), ceff)))
    domains = [np.asarray(members) for members in spec.domains] or [np.arange(nc)]

    state = np.zeros(model.n_x)
    tr = RunTrace(
        times=np.arange(n_steps) * ts,
        plant_si=np.zeros((n_steps, nc)),
        predicted_si=np.full((n_steps, nc), np.nan),
        dispatched_power=np.zeros((n_steps, nc)),
        target_power=np.zeros((n_steps, nc)),
        applied_v=np.zeros((n_steps, nc)),
        applied_f=np.zeros((n_steps, nc)),
        budget_active=np.zeros(n_steps),
        clamped=np.zeros((n_steps, nc), dtype=bool),
        iterations=np.zeros(n_steps, dtype=int),
        status=[],
        solve_time=np.zeros(n_steps),
    )

    v_apply = np.full(nc, params_.vf_table[0][0])
    f_apply = np.zeros(nc)
    clamped = np.zeros(nc, dtype=bool)

    for k in range(n_steps):
        t = k * ts
        p_star, ceff = timeline_value(stage1, t)
        budget = timeline_value(scenario.budget, t) if scenario.budget else None
        dom_budget = (timeline_value(scenario.domain_budgets, t)
                      if scenario.domain_budgets else None)

        measured = state.copy()
        if scenario.noise_sigma > 0:
            measured = measured + rng.normal(0.0, scenario.noise_sigma, state.shape)

        # stage 2: capped power split via the QP
        update_mpc_step(mpcqp, measured, p_star, budget, dom_budget)
        t0 = _time.perf_counter()
        res = solver.solve()
        tr.solve_time[k] = _time.perf_counter() - t0
        tr.iterations[k] = res.iterations
        tr.status.append(res.status)

        if res.status != "diverged":  # a diverged solve holds the previous operating point
            u0 = stage_inputs(mpcqp, res.x, 0).astype(np.float64)  # fp64 at any precision
            pred = predicted_stage_states(mpcqp, res.x, 1)
            tr.predicted_si[k] = model.silicon_c(pred)
            v_apply, f_apply, clamped = dispatch(params_, u0, ceff, gain, domains)

        tr.plant_si[k] = model.silicon_c(state)
        tr.dispatched_power[k] = power_forward(params_, v_apply, f_apply, ceff, gain)
        tr.target_power[k] = p_star
        tr.applied_v[k] = v_apply
        tr.applied_f[k] = f_apply
        tr.clamped[k] = clamped
        tr.budget_active[k] = budget if budget is not None else np.inf

        state = plant_step(model, params_, state, v_apply, f_apply, ceff)

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

