"""Operator-splitting QP solver over a frozen KKT factorization.

Solves ``min 0.5 x'Px + q'x  s.t.  l <= Ax <= u`` by alternating updates:
a KKT solve for the unconstrained step, projection of the splitting
variable onto the box, and a dual ascent step. The KKT matrix
``[[P + sigma*I, A'], [A, -diag(1/rho)]]`` is factored once; only q, l, u
may change between solves, which is what makes the receding-horizon use
fast. The step size rho is per constraint row and follows OSQP (Stellato
et al., Math. Prog. Comp. 2020): an equality row (u - l < ``RHO_TOL``) gets
``RHO_EQ_OVER_RHO_INEQ`` times the inequality rows' ``AdmmSettings.rho``.

The solver runs in one storage precision, fp64 or fp32
(``AdmmSettings.precision``): P, A, K, its factor, the step sizes, the
iterates and the q, l, u they read are all in that dtype.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .csc import SparseCSC, DimensionError
from .ldl import LdlFactor, ldl_numeric, ldl_symbolic
from .ordering import Permutation, amd_order

INF = np.inf

# OSQP's constants of the same names: equality-row step size over the
# inequality one, and the u - l below which a row counts as an equality.
RHO_EQ_OVER_RHO_INEQ = 1e3
RHO_TOL = 1e-4

# An iterate entry above this magnitude ends the solve as "diverged".
DIVERGENCE_LIMIT = 1e12

DTYPES = {"fp64": np.float64, "fp32": np.float32}


@dataclass
class QpProblem:
    """P is the upper triangle of the (symmetric PSD) objective matrix."""

    P: SparseCSC
    q: np.ndarray
    A: SparseCSC
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.q = np.asarray(self.q, dtype=np.float64)
        self.l = np.asarray(self.l, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)

    @property
    def n(self):
        return self.P.nrows

    @property
    def m(self):
        return self.A.nrows

    def validate(self):
        if self.P.nrows != self.P.ncols:
            raise DimensionError("P must be square")
        if self.n == 0:
            raise DimensionError("empty problem (n = 0)")
        if self.A.ncols != self.n:
            raise DimensionError("A column count must match P")
        if self.q.shape != (self.n,):
            raise DimensionError("q length mismatch")
        if self.l.shape != (self.m,) or self.u.shape != (self.m,):
            raise DimensionError("bound length mismatch")
        rows, cols, _ = self.P.triplets()
        if np.any(rows > cols):
            raise ValueError("P must be stored as its upper triangle")
        if np.isnan(self.q).any() or np.isnan(self.l).any() or np.isnan(self.u).any():
            raise ValueError("NaN in q, l or u")
        if np.any(self.l > self.u):
            raise ValueError("l > u in some row")
        return self


@dataclass
class AdmmSettings:
    rho: float = 0.1
    sigma: float = 1e-6
    alpha: float = 1.5
    max_iter: int = 15
    eps_prim: float = 0.01
    eps_dual: float = 0.01
    check_interval: int = 1
    warm_start: bool = True
    termination_mode: str = "fixed_iterations"  # or "residual"
    precision: str = "fp64"   # or "fp32"

    def __post_init__(self):
        if not (self.rho > 0 and self.sigma > 0):
            raise ValueError("rho and sigma must be positive")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (0, 2)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.check_interval < 1:
            raise ValueError("check_interval must be at least 1")
        if self.termination_mode not in ("fixed_iterations", "residual"):
            raise ValueError(f"unknown termination mode {self.termination_mode!r}")
        if self.precision not in DTYPES:
            raise ValueError(f"unknown precision {self.precision!r}")

    @property
    def dtype(self):
        return DTYPES[self.precision]


@dataclass
class AdmmState:
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    xtilde: np.ndarray
    ztilde: np.ndarray
    nu: np.ndarray
    r_prim: float = np.inf
    r_dual: float = np.inf
    iterations: int = 0

    @classmethod
    def zeros(cls, n, m, dtype=np.float64):
        return cls(*(np.zeros(k, dtype=dtype) for k in (n, m, m, n, m, m)))


class KktSystem:
    """P and A frozen in storage precision, the quasi-definite KKT matrix
    assembled from them, and its cached factorization.

    ``P`` (both triangles), ``A`` and ``At`` are the ``scipy.sparse``
    operators of the residual products, and ``rho``/``rho_inv`` the per-row
    step sizes and their reciprocals, all in the storage ``dtype``. q, l
    and u are not held here: they are read from the problem at every use,
    through ``stored``.
    """

    def __init__(self, K: SparseCSC, perm: Permutation, factor: LdlFactor,
                 P_upper, A, rho, dtype):
        self.K = K
        self.perm = perm
        self.factor = factor
        self.P = (P_upper + scipy.sparse.triu(P_upper, k=1).T).tocsc()
        self.A = A
        self.At = A.T
        self.rho = rho.astype(dtype)
        self.rho_inv = (1.0 / rho).astype(dtype)
        self.dtype = dtype

    def stored(self, vec):
        """q, l or u in storage precision; the vector itself in fp64."""
        return vec.astype(self.dtype, copy=False)


def assemble_kkt(problem: QpProblem, settings: AdmmSettings) -> KktSystem:
    """Build and factor [[P+sigma I, A'], [A, -diag(1/rho)]] (upper
    triangle). rho is per row, fixed from the bounds at bring-up:
    ``RHO_EQ_OVER_RHO_INEQ * settings.rho`` where u - l < ``RHO_TOL``
    (equality rows), ``settings.rho`` elsewhere.

    P and A are viewed, not copied, when already in storage precision.

    The bounds set values on K's (2,2) diagonal, never its pattern. Any
    positive rho gives a valid splitting, so a later update of l/u that
    turns an equality into an inequality (or back) keeps the iteration
    correct, only slower; ``update_mpc_step`` never changes a row's type.
    """
    problem.validate()
    n, m = problem.n, problem.m
    dtype = settings.dtype
    rho = np.where(problem.u - problem.l < RHO_TOL,
                   RHO_EQ_OVER_RHO_INEQ * settings.rho, settings.rho)
    P, A = problem.P.csc.astype(dtype, copy=False), problem.A.csc.astype(dtype, copy=False)
    prows, pcols, _ = problem.P.triplets()
    arows, acols, _ = problem.A.triplets()
    rows = np.concatenate([prows, np.arange(n), acols, n + np.arange(m)])
    cols = np.concatenate([pcols, np.arange(n), n + arows, n + np.arange(m)])
    vals = np.concatenate([
        P.data, np.full(n, settings.sigma),
        A.data, -1.0 / rho,
    ]).astype(dtype)
    K = SparseCSC.from_coo(n + m, n + m, rows, cols, vals, dtype=dtype)
    perm = amd_order(K)
    factor = ldl_numeric(ldl_symbolic(K, perm))
    return KktSystem(K, perm, factor, P, A, rho, dtype)


def residuals(state: AdmmState, problem: QpProblem, kkt: KktSystem):
    """(r_prim, r_dual) = (|Ax - z|, |Px + q + A'y|) in the infinity norm."""
    rp = kkt.A @ state.x - state.z
    rd = kkt.P @ state.x + kkt.stored(problem.q) + kkt.At @ state.y
    return float(np.max(np.abs(rp), initial=0.0)), float(np.max(np.abs(rd), initial=0.0))


def admm_step(state: AdmmState, problem: QpProblem, kkt: KktSystem, settings: AdmmSettings):
    """One relaxed splitting iteration, in place, with the per-row step
    sizes of ``kkt``."""
    rho, rho_inv, alpha = kkt.rho, kkt.rho_inv, settings.alpha
    n = problem.n
    rhs = np.concatenate([
        settings.sigma * state.x - kkt.stored(problem.q),
        state.z - rho_inv * state.y,
    ])
    sol = kkt.factor.solve(rhs)
    state.xtilde = sol[:n]
    state.nu = sol[n:]
    state.ztilde = state.z + rho_inv * (state.nu - state.y)
    state.x = alpha * state.xtilde + (1.0 - alpha) * state.x
    z_pre = alpha * state.ztilde + (1.0 - alpha) * state.z
    z_new = np.clip(z_pre + rho_inv * state.y, kkt.stored(problem.l), kkt.stored(problem.u))
    state.y = state.y + rho * (z_pre - z_new)
    state.z = z_new
    state.iterations += 1


@dataclass
class SolveResult:
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    status: str
    iterations: int
    r_prim: float   # at the last residual check
    r_dual: float


class AdmmSolver:
    """Holds the frozen problem structure and reusable iterate state.

    P, A and the KKT factorization are fixed when the solver is built;
    q, l and u may be updated in place between solves.
    """

    def __init__(self, problem: QpProblem, settings: AdmmSettings | None = None):
        self.settings = settings or AdmmSettings()
        self.problem = problem
        self.kkt = assemble_kkt(problem, self.settings)  # validates the problem
        self._last = None

    def solve(self) -> SolveResult:
        """Iterate from zero, or from the previous solve's iterate when
        ``settings.warm_start`` is set."""
        settings = self.settings
        state = AdmmState.zeros(self.problem.n, self.problem.m, settings.dtype)
        if settings.warm_start and self._last is not None:
            state.x, state.z, state.y = (v.copy() for v in self._last)

        status = None
        while state.iterations < settings.max_iter:
            admm_step(state, self.problem, self.kkt, settings)
            it = state.iterations
            if it % settings.check_interval == 0 or it == settings.max_iter:
                state.r_prim, state.r_dual = residuals(state, self.problem, self.kkt)
                if not np.isfinite(state.r_prim) or \
                        max(np.max(np.abs(state.x), initial=0.0),
                            np.max(np.abs(state.z), initial=0.0)) > DIVERGENCE_LIMIT:
                    status = "diverged"
                    break
                if settings.termination_mode == "residual" and \
                        state.r_prim <= settings.eps_prim and state.r_dual <= settings.eps_dual:
                    status = "solved"
                    break
        if status is None:
            converged = state.r_prim <= settings.eps_prim and state.r_dual <= settings.eps_dual
            status = "solved" if converged else "max_iter"
        if status != "diverged":
            self._last = (state.x.copy(), state.z.copy(), state.y.copy())
        return SolveResult(state.x, state.z, state.y, status, state.iterations,
                           state.r_prim, state.r_dual)
