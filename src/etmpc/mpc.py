"""Condense the receding-horizon control problem into a sparse QP.

Decision vector: (x_0, ..., x_hp, u_0, ..., u_{hp-1}). P and A are frozen
at build time; each controller step only rewrites q (power targets), the
initial-condition equality bounds, and the budget rows.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .csc import SparseCSC
from .power import PowerModelParams
from .qp import INF, QpProblem
from .thermal import GridSpec, ThermalPlantModel


@dataclass
class MpcIndexMap:
    """Row/column bookkeeping of the condensed QP."""

    n_x: int
    n_u: int
    hp: int
    rows_dynamics: slice
    rows_init: slice
    rows_caps: slice
    rows_boxes: slice
    rows_budget: slice
    rows_domains: slice
    n_domains: int

    def state_offset(self, h):
        return h * self.n_x

    def input_offset(self, h):
        return (self.hp + 1) * self.n_x + h * self.n_u


@dataclass
class MpcQp:
    qp: QpProblem
    index: MpcIndexMap
    spec: GridSpec
    params: PowerModelParams
    weights: np.ndarray


def build_mpc_qp(model: ThermalPlantModel, spec: GridSpec, params: PowerModelParams,
                 weights=None) -> MpcQp:
    """Assemble P, A and the static parts of q, l, u.

    Constraint rows, in order: dynamics equalities per stage, the initial
    state equality, silicon thermal caps for stages 1..hp, per-element
    power boxes, one total-budget row per stage, then per-domain budget
    rows. Infeasible static bounds only warn: tighter time-varying budgets
    may still admit solutions.
    """
    if model.d is None:
        raise ValueError("model must be discretized first")
    params.validate()
    n_x, n_u, hp = model.n_x, model.n_u, spec.hp
    nc = spec.n_pe
    n_domains = len(spec.domains)
    n = n_x * (hp + 1) + n_u * hp
    m = n_x * hp + n_x + nc * hp + n_u * hp + hp + n_domains * hp

    if weights is None:
        weights = np.ones(n_u)
    weights = np.asarray(weights, dtype=np.float64)

    idx = MpcIndexMap(
        n_x=n_x, n_u=n_u, hp=hp,
        rows_dynamics=slice(0, n_x * hp),
        rows_init=slice(n_x * hp, n_x * hp + n_x),
        rows_caps=slice(n_x * hp + n_x, n_x * hp + n_x + nc * hp),
        rows_boxes=slice(n_x * hp + n_x + nc * hp, n_x * hp + n_x + nc * hp + n_u * hp),
        rows_budget=slice(n_x * hp + n_x + nc * hp + n_u * hp,
                          n_x * hp + n_x + nc * hp + n_u * hp + hp),
        rows_domains=slice(n_x * hp + n_x + nc * hp + n_u * hp + hp, m),
        n_domains=n_domains,
    )

    rows, cols, vals = [], [], []

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    d, e = model.d, model.e
    d_nz = np.nonzero(d)
    e_nz = np.nonzero(e)

    # dynamics: x_{h+1} - D x_h - E u_h = 0
    for h in range(hp):
        r0 = idx.rows_dynamics.start + h * n_x
        xh = idx.state_offset(h)
        xh1 = idx.state_offset(h + 1)
        uh = idx.input_offset(h)
        for i in range(n_x):
            put(r0 + i, xh1 + i, 1.0)
        for i, j in zip(*d_nz):
            put(r0 + i, xh + j, -d[i, j])
        for i, j in zip(*e_nz):
            put(r0 + i, uh + j, -e[i, j])

    # initial state equality
    for i in range(n_x):
        put(idx.rows_init.start + i, idx.state_offset(0) + i, 1.0)

    # thermal caps on predicted silicon states (c_t selects them)
    c_nz = np.nonzero(model.c_t)
    for h in range(1, hp + 1):
        r0 = idx.rows_caps.start + (h - 1) * nc
        xh = idx.state_offset(h)
        for i, j in zip(*c_nz):
            put(r0 + i, xh + j, model.c_t[i, j])

    # per-element power boxes
    for h in range(hp):
        r0 = idx.rows_boxes.start + h * n_u
        uh = idx.input_offset(h)
        for i in range(n_u):
            put(r0 + i, uh + i, 1.0)

    # total budget per stage
    for h in range(hp):
        r = idx.rows_budget.start + h
        uh = idx.input_offset(h)
        for i in range(n_u):
            put(r, uh + i, 1.0)

    # per-domain budgets per stage
    for j, members in enumerate(spec.domains):
        for h in range(hp):
            r = idx.rows_domains.start + j * hp + h
            uh = idx.input_offset(h)
            for i in members:
                put(r, uh + i, 1.0)

    A = SparseCSC.from_coo(m, n, rows, cols, vals)

    # objective: sum_h (u_h - p*)' D (u_h - p*); states unweighted
    p_rows = []
    p_vals = []
    for h in range(hp):
        uh = idx.input_offset(h)
        for i in range(n_u):
            p_rows.append(uh + i)
            p_vals.append(2.0 * weights[i])
    P = SparseCSC.from_coo(n, n, p_rows, p_rows, p_vals)

    q = np.zeros(n)
    l = np.full(m, -INF)
    u = np.full(m, INF)
    l[idx.rows_dynamics] = 0.0
    u[idx.rows_dynamics] = 0.0
    l[idx.rows_init] = 0.0
    u[idx.rows_init] = 0.0
    cap = params.t_limit - model.constants.t_amb  # states are ambient-relative
    u[idx.rows_caps] = cap
    l[idx.rows_boxes] = params.p_min
    u[idx.rows_boxes] = params.p_max
    u[idx.rows_budget] = params.p_max * nc
    u[idx.rows_domains] = params.p_max * nc

    qp = QpProblem(P, q, A, l, u).validate()
    return MpcQp(qp, idx, spec, params, weights)


def update_mpc_step(mpcqp: MpcQp, x_init, p_star, budget_total=None,
                    budget_domains=None):
    """Write the time-varying data for one controller step.

    Touches only q, l, u; P and A stay frozen so the cached KKT
    factorization remains valid.
    """
    idx = mpcqp.index
    qp = mpcqp.qp
    x_init = np.asarray(x_init, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    if x_init.shape != (idx.n_x,) or p_star.shape != (idx.n_u,):
        raise ValueError("state/target length mismatch")

    qp.l[idx.rows_init] = x_init
    qp.u[idx.rows_init] = x_init
    for h in range(idx.hp):
        uh = idx.input_offset(h)
        qp.q[uh:uh + idx.n_u] = -2.0 * mpcqp.weights * p_star
    if budget_total is not None:
        if budget_total < mpcqp.params.p_min * idx.n_u:
            warnings.warn("total budget below the static power floor; the "
                          "step may be infeasible", stacklevel=2)
        qp.u[idx.rows_budget] = budget_total
    if budget_domains is not None:
        if len(budget_domains) != idx.n_domains:
            raise ValueError("one budget per domain required")
        for j, b in enumerate(budget_domains):
            if b < mpcqp.params.p_min * len(mpcqp.spec.domains[j]):
                warnings.warn(f"domain {j} budget below its static floor",
                              stacklevel=2)
            start = idx.rows_domains.start + j * idx.hp
            qp.u[start:start + idx.hp] = b


def predicted_stage_states(mpcqp: MpcQp, x_solution, h):
    """Slice the stage-h state prediction out of a solver solution."""
    off = mpcqp.index.state_offset(h)
    return x_solution[off:off + mpcqp.index.n_x]


def stage_inputs(mpcqp: MpcQp, x_solution, h=0):
    off = mpcqp.index.input_offset(h)
    return x_solution[off:off + mpcqp.index.n_u]
