"""Closed-loop model-in-the-loop simulation.

The plant integrates the continuous RC model with the full nonlinear
power model by exponential time differencing: the RC network's linear part
exactly, through matrix functions built once per run, and the leakage,
which tracks the silicon temperatures, through ETDRK4 substeps. The
controller sees only the discretized (possibly pruned) model through the
condensed QP. Per controller period: measure, take the power targets,
solve, dispatch the first-stage inputs through the inverse power model,
integrate the plant.
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

# ETDRK4 substeps of the plant per sample time. Against RK4 with 400
# substeps, three are more accurate than RK4 with ten on every case of the
# plant test; two are less accurate than that on some.
PLANT_SUBSTEPS = 3


def timeline_value(timeline, t):
    """Piecewise-constant lookup: the last breakpoint at or before t. A t
    before the first breakpoint, or NaN, has no value and raises
    ``ValueError``."""
    if t != t:   # NaN compares false with every breakpoint
        raise ValueError("t is NaN")
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


@dataclass(frozen=True)
class PlantIntegrator:
    """The matrices of one ETDRK4 substep (Cox & Matthews, *J. Comput.
    Phys.* 176, 2002) of the plant x' = A x + B p(x), with A = ``a_t`` and
    B = ``b_t`` of one model and h = ts / ``PLANT_SUBSTEPS``. φ₁, φ₂, φ₃
    are the functions φ₀ = exp, φₖ₊₁(z) = (φₖ(z) - 1/k!) / z."""

    exp_h: np.ndarray      # e^{Ah}
    exp_half: np.ndarray   # e^{Ah/2}
    half_b: np.ndarray     # (h/2) φ₁(Ah/2) B
    b_1: np.ndarray        # h (φ₁ - 3φ₂ + 4φ₃)(Ah) B, the weight of p(x)
    b_2: np.ndarray        # 2h (φ₂ - 2φ₃)(Ah) B, of both midpoint powers
    b_3: np.ndarray        # h (4φ₃ - φ₂)(Ah) B, of the end-point power
    t_amb: float           # ambient [degC], which silicon temperatures add to x


def _phi_123(z):
    """φ₁, φ₂ and φ₃ of the real numbers z, each a mean over a circle
    around z (Kassam & Trefethen, *SIAM J. Sci. Comput.* 26, 2005): every
    point of the circle keeps a distance of at least 1 from 0, where the
    recurrence loses no digits to cancellation. The 32 points lie on the
    upper half, which with their conjugates make a 64-point trapezoidal
    rule, exact to rounding for these entire functions."""
    radius = np.where(np.abs(z) < 2.0, np.abs(z) + 1.0, 1.0)
    w = z[:, None] + radius[:, None] * np.exp(1j * np.pi * (np.arange(32) + 0.5) / 32)
    phi_1 = np.expm1(w) / w
    phi_2 = (phi_1 - 1.0) / w
    phi_3 = (phi_2 - 0.5) / w
    return [phi.mean(axis=1).real for phi in (phi_1, phi_2, phi_3)]


def plant_integrator(model: ThermalPlantModel) -> PlantIntegrator:
    """The ETDRK4 matrices of ``model``'s plant, built once per closed-loop
    run. A = C⁻¹G (``model.capacitance``, G symmetric) is similar to the
    symmetric S = C^½ A C^-½ = Q Λ Qᵀ, so each matrix function is
    f(Ah) = C^-½ Q f(Λh) Qᵀ C^½ from one ``numpy.linalg.eigh``. Raises
    ``ValueError`` if C ``a_t`` is not symmetric."""
    c = model.capacitance
    g = c[:, None] * model.a_t
    if not np.allclose(g, g.T, rtol=1e-12, atol=0.0):
        raise ValueError("C a_t is not symmetric: the plant integrator needs a_t = C⁻¹G, G = Gᵀ")
    root = np.sqrt(c)
    s = g / root[:, None] / root[None, :]
    lam, q = np.linalg.eigh(0.5 * (s + s.T))
    left, right = q / root[:, None], q.T * root[None, :]
    right_b = right @ model.b_t
    h = model.spec.ts / PLANT_SUBSTEPS
    phi_1, phi_2, phi_3 = _phi_123(lam * h)
    half_1 = _phi_123(lam * (h / 2))[0]

    def matrix(diagonal, r):
        return (left * diagonal) @ r

    return PlantIntegrator(
        exp_h=matrix(np.exp(lam * h), right),
        exp_half=matrix(np.exp(lam * (h / 2)), right),
        half_b=matrix((h / 2) * half_1, right_b),
        b_1=matrix(h * (phi_1 - 3.0 * phi_2 + 4.0 * phi_3), right_b),
        b_2=matrix(2.0 * h * (phi_2 - 2.0 * phi_3), right_b),
        b_3=matrix(h * (4.0 * phi_3 - phi_2), right_b),
        t_amb=model.constants.t_amb,
    )


def plant_step(integrator: PlantIntegrator, params: PowerModelParams, state, v, f, ceff):
    """``PLANT_SUBSTEPS`` ETDRK4 substeps of the nonlinear plant over one
    sample time: the RC network's linear part is integrated exactly, and
    only the leakage, which tracks each element's instantaneous temperature,
    is approximated, at four power evaluations per substep. The operating
    point (v, f, ceff) is held over the step, so its temperature-independent
    power terms (``power.power_over_temperature``) are made once per call.
    Returns a new array; ``state`` is not written.

    Per substep, from x with powers p(·) of its silicon temperatures:
    a = E½x + Q p(x), b = E½x + Q p(a), c = E½a + Q (2p(b) - p(x)) and
    x ← Ex + B₁ p(x) + B₂ (p(a) + p(b)) + B₃ p(c), the matrices of
    ``integrator``. On vectors of a few dozen entries, dispatch is most of
    a NumPy call's cost, so the substeps run on arrays made once per call,
    with every sum a direct ufunc call with its ``out`` in the positional
    slot and every product the BLAS matrix-vector ``m.dot(x, out)``."""
    exp_h, exp_half, half_b = integrator.exp_h, integrator.exp_half, integrator.half_b
    b_1, b_2, b_3 = integrator.b_1, integrator.b_2, integrator.b_3
    n_pe = half_b.shape[1]
    x = np.array(state, dtype=np.float64)
    p = power.power_over_temperature(params, np.asarray(v, dtype=np.float64),
                                     np.asarray(f, dtype=np.float64), ceff)
    t_amb = np.full(n_pe, integrator.t_amb, np.float64)
    x_half, a, b, c, bp, out = (np.empty_like(x) for _ in range(6))
    p_x, p_a, p_b, p_c = (np.empty(n_pe) for _ in range(4))
    si = slice(0, 2 * n_pe, 2)
    x_si, a_si, b_si, c_si = x[si], a[si], b[si], c[si]
    add, subtract = np.add, np.subtract

    for _ in range(PLANT_SUBSTEPS):
        p(add(x_si, t_amb, p_x), p_x)
        exp_half.dot(x, x_half)
        add(x_half, half_b.dot(p_x, bp), a)
        p(add(a_si, t_amb, p_a), p_a)
        add(x_half, half_b.dot(p_a, bp), b)
        p(add(b_si, t_amb, p_b), p_b)
        exp_half.dot(a, c)
        # p_c holds 2 p(b) - p(x) until c's power overwrites it
        add(c, half_b.dot(subtract(add(p_b, p_b, p_c), p_x, p_c), bp), c)
        p(add(c_si, t_amb, p_c), p_c)
        exp_h.dot(x, out)
        add(out, b_1.dot(p_x, bp), out)
        add(out, b_2.dot(add(p_a, p_b, p_a), bp), out)
        add(out, b_3.dot(p_c, bp), x)
    return x


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
    study the pruning error. An ``mpcqp`` given with it must be built from
    it, with its D. The controller (``mpcqp`` if given) must share the
    plant's grid, sample time and domains and the scenario's power model
    parameters, which stages 1 and 3 and the plant use. A diverged solve
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
    elif controller_model is not None and mpcqp.d is not controller_model.d \
            and not np.array_equal(mpcqp.d, controller_model.d):
        raise ValueError("mpcqp was not built from controller_model: their D matrices differ")
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
    integrator = plant_integrator(model)

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

        state = plant_step(integrator, params_, state, v_apply, f_apply, ceff)

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

