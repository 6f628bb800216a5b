"""Operator-splitting QP solver over a frozen KKT factorization.

Solves ``min 0.5 x'Px + q'x  s.t.  l <= Ax <= u`` by alternating updates:
a KKT solve for the unconstrained step, projection of the splitting
variable onto the box, and a dual ascent step. The KKT matrix
``[[P + sigma*I, A'], [A, -diag(1/rho)]]`` is ordered and factored once, by
SuperLU through ``ldl.ldl_numeric``; only q, l, u may change between
solves, which is what makes the receding-horizon use fast. The step size
rho is per constraint row and follows OSQP (Stellato et al., Math. Prog.
Comp. 2020): an equality row (u - l < ``RHO_TOL``) gets
``RHO_EQ_OVER_RHO_INEQ`` times the inequality rows' ``AdmmSettings.rho``.

P and A arrive as ``scipy.sparse.csc_array``. Bring-up works on their
raw CSC arrays: K's triplets are read off P's and A's index arrays and
compressed into K's upper-triangle arrays (``SparseCSC``), which are
factored and then dropped (``KktSystem.K`` assembles them again), and the
residual operator P is mirrored from P's upper triangle on the index
arrays (``csc.symmetric_from_upper``).
scipy does the residual products, the ordering and the factorization.

The solver runs in one storage precision, fp64 or fp32
(``AdmmSettings.precision``): P, A, K, its factor, the step sizes, the
iterates and the q, l, u they read are all in that dtype.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .csc import (SparseCSC, DimensionError, column_indices, has_entry_below_diagonal,
                  symmetric_from_upper)
from .ldl import LdlFactor, ldl_numeric

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
    """P, the upper triangle of the (symmetric PSD) objective matrix, and A
    are ``scipy.sparse.csc_array``; q, l and u are fp64 vectors."""

    P: scipy.sparse.csc_array
    q: np.ndarray
    A: scipy.sparse.csc_array
    l: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        self.P = scipy.sparse.csc_array(self.P)
        self.A = scipy.sparse.csc_array(self.A)
        self.q = np.asarray(self.q, dtype=np.float64)
        self.l = np.asarray(self.l, dtype=np.float64)
        self.u = np.asarray(self.u, dtype=np.float64)

    @property
    def n(self):
        return self.P.shape[0]

    @property
    def m(self):
        return self.A.shape[0]

    def validate(self):
        if self.P.shape[0] != self.P.shape[1]:
            raise DimensionError("P must be square")
        if self.n == 0:
            raise DimensionError("empty problem (n = 0)")
        if self.A.shape[1] != self.n:
            raise DimensionError("A column count must match P")
        if self.q.shape != (self.n,):
            raise DimensionError("q length mismatch")
        if self.l.shape != (self.m,) or self.u.shape != (self.m,):
            raise DimensionError("bound length mismatch")
        if has_entry_below_diagonal(self.P.indptr, self.P.indices):
            raise ValueError("P must be stored as its upper triangle")
        if not (np.isfinite(self.P.data).all() and np.isfinite(self.A.data).all()):
            raise ValueError("non-finite entry in P or A")
        if not np.isfinite(self.q).all():
            raise ValueError("non-finite entry in q")
        for name, vec, unmeetable in (("l", self.l, INF), ("u", self.u, -INF)):
            if np.isnan(vec).any() or (vec == unmeetable).any():
                raise ValueError(f"NaN or {unmeetable} in {name}")
        if np.any(self.l > self.u):
            raise ValueError("l > u in some row")
        return self


@dataclass(frozen=True)
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
        for name in ("rho", "sigma", "alpha", "eps_prim", "eps_dual"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number")
            # a NumPy float64 is a strong type (NEP 50): it would lift fp32 iterates
            object.__setattr__(self, name, float(value))
        if not (0 < self.rho < np.inf and 0 < self.sigma < np.inf):
            raise ValueError("rho and sigma must be positive and finite")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (0, 2)")
        if not (self.eps_prim >= 0 and self.eps_dual >= 0):
            raise ValueError("eps_prim and eps_dual must be non-negative")
        for name in ("max_iter", "check_interval"):
            value = getattr(self, name)
            # bool is an Integral, but True is no iteration count
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
            if value < 1:
                raise ValueError(f"{name} must be at least 1")
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
    # at the last residual check; r_dual is inf at a check that could not end
    # the solve (see AdmmSolver.solve), so a returned state has both of its
    # final iterate
    r_prim: float = np.inf
    r_dual: float = np.inf
    iterations: int = 0
    status: str | None = None   # set when AdmmSolver.solve returns the state

    @classmethod
    def zeros(cls, n, m, dtype=np.float64):
        return cls(*(np.zeros(k, dtype=dtype) for k in (n, m, m)))


class KktSystem:
    """P and A frozen in storage precision, the per-row step sizes, and the
    cached factorization of the quasi-definite KKT matrix assembled from
    them.

    ``P`` (both triangles, mirrored from the canonical arrays ``P_upper``),
    ``A`` and ``At`` are the ``scipy.sparse`` operators of the residual
    products, and ``rho``/``rho_inv`` the per-row step sizes and their
    reciprocals, all in the storage ``dtype``. q, l and u are not held
    here: they are read from the problem, cast to ``dtype``.
    The solves need only the factor, so K itself is not kept: ``K``
    assembles it again from the frozen parts, with the bits it was
    factored from.
    """

    def __init__(self, factor: LdlFactor, P_upper: SparseCSC, A, rho, rho_inv, sigma):
        self.factor = factor
        self.P_upper = P_upper
        self.P = symmetric_from_upper(P_upper).to_scipy()
        self.A = A
        self.At = A.T
        self.rho = rho
        self.rho_inv = rho_inv
        self.sigma = sigma
        self.dtype = rho.dtype.type

    @property
    def K(self) -> SparseCSC:
        """The upper triangle of [[P + sigma I, A'], [A, -diag(1/rho)]]."""
        return kkt_upper(self.P_upper, self.A, self.sigma, self.rho_inv)


def kkt_upper(P: SparseCSC, A, sigma, rho_inv) -> SparseCSC:
    """The upper triangle of [[P + sigma I, A'], [A, -diag(rho_inv)]] in
    the precision of ``rho_inv``, from P's upper triangle and A in it; the
    sums on P's diagonal round in that precision."""
    n, m = P.ncols, A.shape[0]
    rows = np.concatenate([P.rowidx, np.arange(n), column_indices(A.indptr), n + np.arange(m)])
    cols = np.concatenate([column_indices(P.colptr), np.arange(n), n + A.indices,
                           n + np.arange(m)])
    vals = np.concatenate([P.values, np.full(n, sigma), A.data, -rho_inv]).astype(rho_inv.dtype)
    return SparseCSC.from_triplets(rows, cols, vals, (n + m, n + m))


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
    dtype = settings.dtype
    rho = np.where(problem.u - problem.l < RHO_TOL,
                   RHO_EQ_OVER_RHO_INEQ * settings.rho, settings.rho)
    P = SparseCSC(problem.P.astype(dtype, copy=False))
    A = problem.A.astype(dtype, copy=False)
    rho_inv = (1.0 / rho).astype(dtype)
    factor = ldl_numeric(kkt_upper(P, A, settings.sigma, rho_inv))
    return KktSystem(factor, P, A, rho.astype(dtype), rho_inv, settings.sigma)


def residuals(state: AdmmState, problem: QpProblem, kkt: KktSystem, prim_bound=INF):
    """(r_prim, r_dual) = (|Ax - z|, |Px + q + A'y|) in the infinity norm.

    r_dual is computed only when r_prim <= ``prim_bound`` or r_prim is not
    finite; otherwise it is returned as inf, without its two products. The
    solve passes its primal tolerance where only both residuals below
    tolerance can end it, and -inf where nothing but a divergence can."""
    rp = kkt.A @ state.x - state.z
    r_prim = float(np.abs(rp).max(initial=0.0))
    if prim_bound < r_prim < INF:
        return r_prim, INF
    rd = kkt.P @ state.x + problem.q.astype(kkt.dtype, copy=False) + kkt.At @ state.y
    return r_prim, float(np.abs(rd).max(initial=0.0))


def relaxation(settings: AdmmSettings, n, m):
    """The step's scalar coefficients as arrays in the storage dtype:
    sigma, alpha and 1 - alpha of length n for x, then alpha and 1 - alpha
    of length m for z. Each entry has the bits its Python float rounds to
    in that dtype, as it does as a scalar operand. Made once per solve and
    kept on neither the solver nor its ``KktSystem``."""
    alpha, beta, dtype = settings.alpha, 1.0 - settings.alpha, settings.dtype
    return tuple(np.full(k, c, dtype) for k, c in
                 ((n, settings.sigma), (n, alpha), (n, beta), (m, alpha), (m, beta)))


def admm_step(state: AdmmState, kkt: KktSystem, operands, q, l, u, coefficients):
    """One relaxed splitting iteration, with the per-row step sizes of
    ``kkt`` and its factor's ``operands``, on q, l and u in its storage
    precision. It rebinds ``state.x``, ``z`` and ``y`` to new arrays and
    writes into none of the arrays it was given.

    ``coefficients`` is ``relaxation(settings, n, m)``. They are arrays,
    not the settings' Python floats, because on the solver's vectors of a
    few dozen entries converting a scalar operand is much of a ufunc
    call's cost; the arrays hold the bits the floats round to, so the
    iterates are the same. For the same reason each operation is a direct
    ``np.add``/``np.subtract``/``np.multiply`` call, not an operator, and
    a result the step no longer reads takes the next one through the
    positional ``out``; every call keeps its operands and their order."""
    sigma, alpha_x, beta_x, alpha_z, beta_z = coefficients
    rho, rho_inv = kkt.rho, kkt.rho_inv
    x, z, y = state.x, state.z, state.y
    add, subtract, multiply = np.add, np.subtract, np.multiply
    n = q.shape[0]
    rhs = np.empty(n + l.shape[0], kkt.dtype)
    head, tail = rhs[:n], rhs[n:]
    rho_inv_y = multiply(rho_inv, y)
    subtract(multiply(sigma, x, head), q, head)
    subtract(z, rho_inv_y, tail)
    sol = kkt.factor.solve(rhs, operands)
    xtilde, nu = sol[:n], sol[n:]
    # ztilde = z + rho_inv * (nu - y)
    ztilde = subtract(nu, y)
    add(z, multiply(rho_inv, ztilde, ztilde), ztilde)
    x_new = multiply(alpha_x, xtilde)
    add(x_new, multiply(beta_x, x), x_new)
    z_pre = multiply(alpha_z, ztilde, ztilde)
    add(z_pre, multiply(beta_z, z), z_pre)
    z_new = add(z_pre, rho_inv_y, rho_inv_y).clip(l, u)
    # y + rho * (z_pre - z_new)
    y_new = subtract(z_pre, z_new, z_pre)
    add(y, multiply(rho, y_new, y_new), y_new)
    state.x, state.z, state.y = x_new, z_new, y_new
    state.iterations += 1


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

    def solve(self) -> AdmmState:
        """Iterate from zero, or from the previous solve's iterate when
        ``settings.warm_start`` is set. That iterate is the solver's own
        copy, made when the previous solve returned; it is read, not copied
        again, since ``admm_step`` rebinds a state's arrays and never
        writes into them.

        L's values and dinv are converted into the operands of the
        factor's plan once per solve, by ``LdlFactor.operands``, and every
        KKT solve of its iterations reads that one conversion: for the
        generated solve, one generator that holds L in its locals and is
        resumed by each KKT solve. The relaxation coefficients are made
        once per solve too. Nothing outlives the solve: a change to
        ``L.values`` shows in the next one.

        Every ``check_interval`` iterations, and after the last, one call
        of ``residuals`` checks the iterate. r_prim is computed at every
        check; r_dual only where the check can end the solve, since
        stopping needs both residuals within tolerance: in residual mode
        with r_prim <= eps_prim, after the last iteration, and on a
        divergence (an |x| or |z| entry above ``DIVERGENCE_LIMIT`` or NaN,
        or a non-finite r_prim). The returned state therefore carries both
        residuals of its final iterate."""
        settings, problem, kkt = self.settings, self.problem, self.kkt
        if settings.warm_start and self._last is not None:
            state = AdmmState(*self._last)
        else:
            state = AdmmState.zeros(problem.n, problem.m, settings.dtype)
        q, l, u = (vec.astype(kkt.dtype, copy=False) for vec in (problem.q, problem.l, problem.u))

        residual_mode = settings.termination_mode == "residual"
        operands = kkt.factor.operands()
        coefficients = relaxation(settings, problem.n, problem.m)
        while state.iterations < settings.max_iter:
            admm_step(state, kkt, operands, q, l, u, coefficients)
            it = state.iterations
            last = it == settings.max_iter
            if it % settings.check_interval == 0 or last:
                # written as <= so that a NaN entry counts as divergence
                bounded = (np.abs(state.x).max(initial=0.0) <= DIVERGENCE_LIMIT and
                           np.abs(state.z).max(initial=0.0) <= DIVERGENCE_LIMIT)
                prim_bound = (INF if last or not bounded else
                              settings.eps_prim if residual_mode else -INF)
                state.r_prim, state.r_dual = residuals(state, problem, kkt, prim_bound)
                if not (bounded and math.isfinite(state.r_prim)):
                    state.status = "diverged"
                    break
                if residual_mode and state.r_prim <= settings.eps_prim and \
                        state.r_dual <= settings.eps_dual:
                    state.status = "solved"
                    break
        if state.status is None:
            converged = state.r_prim <= settings.eps_prim and state.r_dual <= settings.eps_dual
            state.status = "solved" if converged else "max_iter"
        if state.status != "diverged":
            self._last = (state.x.copy(), state.z.copy(), state.y.copy())
        return state
