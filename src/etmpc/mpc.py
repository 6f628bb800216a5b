"""Condense the receding-horizon control problem into a sparse QP.

Decision vector: (x_1, ..., x_hp, u_0, ..., u_{hp-1}). P and A are frozen
at build time; each controller step only rewrites q (power targets), the
bounds D x_meas of the stage-0 dynamics rows, and the budget rows.
"""

from __future__ import annotations

import math
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
    rows_caps: slice
    rows_boxes: slice
    rows_budget: slice
    rows_domains: slice
    n_domains: int

    def state_offset(self, h):
        if not 1 <= h <= self.hp:
            raise ValueError(f"state stage {h} outside 1..{self.hp}")
        return (h - 1) * self.n_x

    def input_offset(self, h):
        if not 0 <= h < self.hp:
            raise ValueError(f"input stage {h} outside 0..{self.hp - 1}")
        return self.hp * self.n_x + h * self.n_u


@dataclass
class MpcQp:
    qp: QpProblem
    index: MpcIndexMap
    spec: GridSpec
    params: PowerModelParams
    weights: np.ndarray
    d: np.ndarray   # the controller model's D, by reference: bounds of the first dynamics rows


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
    per stage (D x_meas on the right at stage 0), silicon thermal caps for
    stages 1..hp, per-element power boxes, one total-budget row per stage,
    then per-domain budget rows (domain-major: block row ``j*hp + h``).
    Nothing here checks the bounds for feasibility: ``update_mpc_step``
    warns when a budget falls below the static power floor, and
    ``assemble_kkt`` validates the problem when the solver factors it.
    """
    if model.d is None:
        raise ValueError("model must be discretized first")
    if spec.ts != model.spec.ts:
        raise ValueError("spec.ts differs from the sample time the model was discretized at")
    params.validate()
    n_x, n_u, hp = model.n_x, model.n_u, spec.hp
    nc = spec.n_pe
    n_domains = len(spec.domains)
    n = (n_x + n_u) * hp

    if weights is None:
        weights = np.ones(n_u)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (n_u,) or not (np.isfinite(weights).all() and (weights >= 0).all()):
        raise ValueError(f"weights must be finite, non-negative and of shape ({n_u},)")

    layout = [("dynamics", n_x * hp), ("caps", nc * hp),
              ("boxes", n_u * hp), ("budget", hp), ("domains", n_domains * hp)]
    row_slices = {}
    m = 0
    for name, size in layout:
        row_slices[f"rows_{name}"] = slice(m, m + size)
        m += size
    idx = MpcIndexMap(n_x=n_x, n_u=n_u, hp=hp, n_domains=n_domains, **row_slices)

    x1, u0 = idx.state_offset(1), idx.input_offset(0)
    blocks = [
        # dynamics: x_{h+1} - D x_h - E u_h = 0, with D x_meas on the right at h = 0
        _tile(np.eye(n_x), idx.rows_dynamics.start, n_x, x1, n_x, hp),
        _tile(-model.d, idx.rows_dynamics.start + n_x, n_x, x1, n_x, hp - 1),
        _tile(-model.e, idx.rows_dynamics.start, n_x, u0, n_u, hp),
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
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    A = SparseCSC.from_triplets(rows, cols, vals, (m, n)).to_scipy()

    # objective: sum_h (u_h - p*)' D (u_h - p*); states unweighted. COO to CSC
    # keeps explicit zeros, so a zero weight stays stored on P's diagonal.
    u_cols = np.arange(u0, n)
    P = SparseCSC.from_triplets(u_cols, u_cols, np.tile(2.0 * weights, hp), (n, n)).to_scipy()

    q = np.zeros(n)
    l = np.full(m, -INF)
    u = np.full(m, INF)
    l[idx.rows_dynamics] = 0.0
    u[idx.rows_dynamics] = 0.0
    cap = params.t_limit - model.constants.t_amb  # states are ambient-relative
    u[idx.rows_caps] = cap
    l[idx.rows_boxes] = params.p_min
    u[idx.rows_boxes] = params.p_max
    u[idx.rows_budget] = params.p_max * nc
    u[idx.rows_domains] = params.p_max * nc

    return MpcQp(QpProblem(P, q, A, l, u), idx, spec, params, weights, model.d)


def update_mpc_step(mpcqp: MpcQp, x_init, p_star, budget_total=None,
                    budget_domains=None):
    """Write the time-varying data for one controller step. A non-finite
    state or target and a NaN or -inf budget raise ``ValueError``; +inf is
    no budget.

    Touches only q, l, u; P and A stay frozen so the cached KKT
    factorization remains valid.
    """
    idx = mpcqp.index
    qp = mpcqp.qp
    x_init = np.asarray(x_init, dtype=np.float64)
    p_star = np.asarray(p_star, dtype=np.float64)
    if x_init.shape != (idx.n_x,) or p_star.shape != (idx.n_u,):
        raise ValueError("state/target length mismatch")
    if not (np.isfinite(x_init).all() and np.isfinite(p_star).all()):
        raise ValueError("non-finite measured state or power target")
    budgets = [] if budget_total is None else [budget_total]
    if budget_domains is not None:
        if len(budget_domains) != idx.n_domains:
            raise ValueError("one budget per domain required")
        budgets.extend(budget_domains)
    if any(map(math.isnan, budgets)):
        raise ValueError("NaN budget")
    if -INF in budgets:   # an upper bound of -inf: the solve would diverge
        raise ValueError("-inf budget")

    stage0 = slice(idx.rows_dynamics.start, idx.rows_dynamics.start + idx.n_x)
    qp.l[stage0] = qp.u[stage0] = mpcqp.d @ x_init
    for h in range(idx.hp):
        uh = idx.input_offset(h)
        qp.q[uh:uh + idx.n_u] = -2.0 * mpcqp.weights * p_star
    if budget_total is not None:
        if budget_total < mpcqp.params.p_min * idx.n_u:
            warnings.warn("total budget below the static power floor; the "
                          "step may be infeasible", stacklevel=2)
        qp.u[idx.rows_budget] = budget_total
    if budget_domains is not None:
        for j, b in enumerate(budget_domains):
            if b < mpcqp.params.p_min * len(mpcqp.spec.domains[j]):
                warnings.warn(f"domain {j} budget below its static floor",
                              stacklevel=2)
            start = idx.rows_domains.start + j * idx.hp
            qp.u[start:start + idx.hp] = b


def predicted_stage_states(mpcqp: MpcQp, x_solution, h):
    """Slice the stage-h state prediction (h in 1..hp) out of a solver solution."""
    off = mpcqp.index.state_offset(h)
    return x_solution[off:off + mpcqp.index.n_x]


def stage_inputs(mpcqp: MpcQp, x_solution, h=0):
    """Slice the stage-h inputs (h in 0..hp-1) out of a solver solution."""
    off = mpcqp.index.input_offset(h)
    return x_solution[off:off + mpcqp.index.n_u]
