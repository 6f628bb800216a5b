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


def _tile(block, row0, row_step, col0, col_step, stages):
    """Triplets of the nonzeros of dense ``block`` placed once per stage h
    at row offset ``row0 + h*row_step`` and column offset ``col0 + h*col_step``."""
    r, c = np.nonzero(block)
    h = np.arange(stages)[:, None]
    return ((row0 + h * row_step + r).ravel(), (col0 + h * col_step + c).ravel(),
            np.tile(block[r, c], stages))


def build_mpc_qp(model: ThermalPlantModel, spec: GridSpec, params: PowerModelParams,
                 weights=None) -> MpcQp:
    """Assemble P, A and the static parts of q, l, u.

    Constraint rows follow one layout table, in order: dynamics equalities
    per stage, the initial state equality, silicon thermal caps for stages
    1..hp, per-element power boxes, one total-budget row per stage, then
    per-domain budget rows (domain-major, row ``j*hp + h`` of the block).
    Infeasible static bounds only warn: tighter time-varying budgets may
    still admit solutions.
    """
    if model.d is None:
        raise ValueError("model must be discretized first")
    params.validate()
    n_x, n_u, hp = model.n_x, model.n_u, spec.hp
    nc = spec.n_pe
    n_domains = len(spec.domains)
    n = n_x * (hp + 1) + n_u * hp

    if weights is None:
        weights = np.ones(n_u)
    weights = np.asarray(weights, dtype=np.float64)

    layout = [("dynamics", n_x * hp), ("init", n_x), ("caps", nc * hp),
              ("boxes", n_u * hp), ("budget", hp), ("domains", n_domains * hp)]
    row_slices = {}
    m = 0
    for name, size in layout:
        row_slices[f"rows_{name}"] = slice(m, m + size)
        m += size
    idx = MpcIndexMap(n_x=n_x, n_u=n_u, hp=hp, n_domains=n_domains, **row_slices)

    x1, u0 = idx.state_offset(1), idx.input_offset(0)
    blocks = [
        # dynamics: x_{h+1} - D x_h - E u_h = 0
        _tile(np.eye(n_x), idx.rows_dynamics.start, n_x, x1, n_x, hp),
        _tile(-model.d, idx.rows_dynamics.start, n_x, 0, n_x, hp),
        _tile(-model.e, idx.rows_dynamics.start, n_x, u0, n_u, hp),
        # initial state equality
        _tile(np.eye(n_x), idx.rows_init.start, 0, 0, 0, 1),
        # thermal caps on predicted silicon states (c_t selects them)
        _tile(model.c_t, idx.rows_caps.start, nc, x1, n_x, hp),
        # per-element power boxes, total budget per stage
        _tile(np.eye(n_u), idx.rows_boxes.start, n_u, u0, n_u, hp),
        _tile(np.ones((1, n_u)), idx.rows_budget.start, 1, u0, n_u, hp),
    ]
    # per-domain budgets per stage
    for j, members in enumerate(spec.domains):
        member_row = np.zeros((1, n_u))
        member_row[0, members] = 1.0
        blocks.append(_tile(member_row, idx.rows_domains.start + j * hp, 1, u0, n_u, hp))
    A = SparseCSC.from_coo(m, n, *(np.concatenate(part) for part in zip(*blocks)))

    # objective: sum_h (u_h - p*)' D (u_h - p*); states unweighted
    u_cols = np.arange(u0, n)
    P = SparseCSC.from_coo(n, n, u_cols, u_cols, np.tile(2.0 * weights, hp))

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
