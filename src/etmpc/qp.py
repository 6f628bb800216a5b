"""Operator-splitting QP solver over a frozen KKT factorization.

Solves ``min 0.5 x'Px + q'x  s.t.  l <= Ax <= u`` by alternating updates:
a KKT solve for the unconstrained step, projection of the splitting
variable onto the box, and a dual ascent step. The KKT matrix
``[[P + sigma*I, A'], [A, -I/rho]]`` is factored once; only q, l, u may
change between solves, which is what makes the receding-horizon use fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .csc import SparseCSC, DimensionError
from .ldl import LdlFactor, ldl_numeric, ldl_symbolic
from .ordering import Permutation, amd_order

INF = np.inf

DTYPES = {"fp64": np.float64, "fp32": np.float32, "fp16emu": np.float64}


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
        if np.any(self.l > self.u):
            raise ValueError("l > u in some row")
        return self

    def nnz_total(self):
        return self.P.nnz + self.A.nnz


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
    precision: str = "fp64"
    divergence_limit: float = 1e12
    pivot_tol: float | None = None

    def __post_init__(self):
        if not (self.rho > 0 and self.sigma > 0):
            raise ValueError("rho and sigma must be positive")
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("alpha must lie in (0, 2)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
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
    operators of the residual products. q, l and u are not held here: they
    are read from the problem at every use, through ``stored``.
    """

    def __init__(self, K: SparseCSC, perm: Permutation, factor: LdlFactor,
                 P_upper, A, precision: str):
        self.K = K
        self.perm = perm
        self.factor = factor
        self.P = (P_upper + scipy.sparse.triu(P_upper, k=1).T).tocsc()
        self.A = A
        self.At = A.T
        self.precision = precision

    def stored(self, vec):
        """q, l or u in storage precision (fp16emu: rounded through float16)."""
        if self.precision == "fp16emu":
            return _round_fp16(vec)
        return vec.astype(DTYPES[self.precision])


def assemble_kkt(problem: QpProblem, settings: AdmmSettings,
                 perm: Permutation | None = None) -> KktSystem:
    """Build and factor [[P+sigma I, A'], [A, -I/rho]] (upper triangle),
    with P and A copied once into storage precision. Under fp16emu a factor
    that overflows float16 raises ``Fp16RangeError``."""
    problem.validate()
    n, m = problem.n, problem.m
    dtype = settings.dtype
    P, A = problem.P.csc.astype(dtype), problem.A.csc.astype(dtype)
    if settings.precision == "fp16emu":
        P.data, A.data = _round_fp16(P.data), _round_fp16(A.data)
    prows, pcols, _ = problem.P.triplets()
    arows, acols, _ = problem.A.triplets()
    rows = np.concatenate([prows, np.arange(n), acols, n + np.arange(m)])
    cols = np.concatenate([pcols, np.arange(n), n + arows, n + np.arange(m)])
    vals = np.concatenate([
        P.data, np.full(n, settings.sigma),
        A.data, np.full(m, -1.0 / settings.rho),
    ]).astype(dtype)
    K = SparseCSC.from_coo(n + m, n + m, rows, cols, vals, dtype=dtype)
    if perm is None:
        perm = amd_order(K)
    factor = ldl_numeric(ldl_symbolic(K, perm), pivot_tol=settings.pivot_tol)
    if settings.precision == "fp16emu":
        factor.L.values = _round_fp16(factor.L.values)
        factor.dinv = _round_fp16(factor.dinv)
        factor.d = _round_fp16(factor.d)
        _check_fp16_range(factor)
    return KktSystem(K, perm, factor, P, A, settings.precision)


def _round_fp16(a):
    return np.asarray(a).astype(np.float16).astype(np.float64)


class Fp16RangeError(ArithmeticError):
    """The KKT factor does not fit float16: a pivot, its reciprocal or an
    entry of L rounds to inf."""

    def __init__(self, column):
        super().__init__(f"KKT factor overflows float16 at (permuted) column {column}")
        self.column = column


def _check_fp16_range(factor: LdlFactor):
    _, cols, _ = factor.L.triplets()
    bad = np.concatenate([
        np.flatnonzero(~(np.isfinite(factor.d) & np.isfinite(factor.dinv))),
        cols[~np.isfinite(factor.L.values)],
    ])
    if bad.size:
        raise Fp16RangeError(int(bad.min()))


def residuals(state: AdmmState, problem: QpProblem, kkt: KktSystem):
    """(r_prim, r_dual) = (|Ax - z|, |Px + q + A'y|) in the infinity norm."""
    rp = kkt.A @ state.x - state.z
    rd = kkt.P @ state.x + kkt.stored(problem.q) + kkt.At @ state.y
    return float(np.max(np.abs(rp), initial=0.0)), float(np.max(np.abs(rd), initial=0.0))


def admm_step(state: AdmmState, problem: QpProblem, kkt: KktSystem, settings: AdmmSettings):
    """One relaxed splitting iteration, in place."""
    rho, alpha = settings.rho, settings.alpha
    rho_inv = 1.0 / rho
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
    if settings.precision == "fp16emu":
        state.x = _round_fp16(state.x)
        state.z = _round_fp16(state.z)
        state.y = _round_fp16(state.y)


@dataclass
class SolveResult:
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    status: str
    iterations: int
    trace: list = field(default_factory=list)  # (iteration, r_prim, r_dual)

    @property
    def r_prim(self):
        return self.trace[-1][1] if self.trace else np.inf

    @property
    def r_dual(self):
        return self.trace[-1][2] if self.trace else np.inf


class AdmmSolver:
    """Holds the frozen problem structure and reusable iterate state.

    P, A and the KKT factorization are fixed when the solver is built;
    q, l and u may be updated in place between solves.
    """

    def __init__(self, problem: QpProblem, settings: AdmmSettings | None = None):
        self.settings = settings or AdmmSettings()
        self.problem = problem.validate()
        self.kkt = assemble_kkt(self.problem, self.settings)
        self._last = None

    def solve(self, initial_guess=None, warm_start=None) -> SolveResult:
        settings = self.settings
        dtype = settings.dtype
        n, m = self.problem.n, self.problem.m
        warm = settings.warm_start if warm_start is None else warm_start
        state = AdmmState.zeros(n, m, dtype)
        if initial_guess is not None:
            x0, z0, y0 = initial_guess
            state.x = np.asarray(x0, dtype=dtype).copy()
            state.z = np.asarray(z0, dtype=dtype).copy()
            state.y = np.asarray(y0, dtype=dtype).copy()
        elif warm and self._last is not None:
            state.x, state.z, state.y = (v.astype(dtype).copy() for v in self._last)

        trace = []
        status = None
        it = 0
        while it < settings.max_iter:
            admm_step(state, self.problem, self.kkt, settings)
            it = state.iterations
            check_now = (it % settings.check_interval == 0) or it == settings.max_iter
            if check_now:
                state.r_prim, state.r_dual = residuals(state, self.problem, self.kkt)
                trace.append((it, state.r_prim, state.r_dual))
                if not np.isfinite(state.r_prim) or \
                        max(np.max(np.abs(state.x), initial=0.0),
                            np.max(np.abs(state.z), initial=0.0)) > settings.divergence_limit:
                    status = "diverged"
                    break
                if settings.termination_mode == "residual" and \
                        state.r_prim <= settings.eps_prim and state.r_dual <= settings.eps_dual:
                    status = "solved"
                    break
        if status is None:
            converged = trace and trace[-1][1] <= settings.eps_prim \
                and trace[-1][2] <= settings.eps_dual
            status = "solved" if converged else "max_iter"
        if status != "diverged":
            self._last = (state.x.copy(), state.z.copy(), state.y.copy())
        return SolveResult(state.x, state.z, state.y, status, state.iterations, trace)


def precision_emulate(problem: QpProblem, settings: AdmmSettings,
                      precisions=("fp64", "fp32", "fp16emu")):
    """Residual traces of the same problem swept over storage precisions."""
    from dataclasses import replace

    traces = {}
    for prec in precisions:
        s = replace(settings, precision=prec, warm_start=False)
        traces[prec] = AdmmSolver(problem, s).solve().trace
    return traces


def write_residual_trace(path, trace):
    with open(path, "w") as fh:
        fh.write("iteration,r_prim,r_dual\n")
        for it, rp, rd in trace:
            fh.write(f"{it},{rp:.9e},{rd:.9e}\n")


# ---- problem file I/O -------------------------------------------------------

PROBLEM_FORMAT = "etmpc-qp"
PROBLEM_VERSION = 1


def save_problem(path, problem: QpProblem):
    """Single structured-text file: matrix blocks in coordinate form plus
    the dense vectors, under a versioned header."""
    def mm_lines(mat):
        rows, cols, vals = mat.triplets()
        out = [f"{mat.nrows} {mat.ncols} {mat.nnz}"]
        out += [f"{r + 1} {c + 1} {float(v):.17g}" for r, c, v in zip(rows, cols, vals)]
        return out

    lines = [f"{PROBLEM_FORMAT} {PROBLEM_VERSION}",
             f"dims {problem.n} {problem.m}", "[P]"]
    lines += mm_lines(problem.P)
    lines.append("[A]")
    lines += mm_lines(problem.A)
    for name, vec in (("q", problem.q), ("l", problem.l), ("u", problem.u)):
        lines.append(f"[{name}]")
        lines += [f"{float(v):.17g}" for v in vec]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_problem(path) -> QpProblem:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    fmt, version = lines[0].split()
    if fmt != PROBLEM_FORMAT or int(version) != PROBLEM_VERSION:
        raise ValueError(f"unsupported problem file format {lines[0]!r}")
    _, n, m = lines[1].split()
    n, m = int(n), int(m)
    pos = 2
    sections = {}
    order = []
    while pos < len(lines):
        tag = lines[pos]
        if not (tag.startswith("[") and tag.endswith("]")):
            raise ValueError(f"malformed section header {tag!r}")
        name = tag[1:-1]
        pos += 1
        body = []
        while pos < len(lines) and not lines[pos].startswith("["):
            body.append(lines[pos])
            pos += 1
        sections[name] = body
        order.append(name)

    def parse_matrix(body):
        nr, nc, nnz = (int(t) for t in body[0].split())
        rows = np.empty(nnz, dtype=np.int64)
        cols = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=np.float64)
        for k, ln in enumerate(body[1:1 + nnz]):
            a, b, c = ln.split()
            rows[k], cols[k], vals[k] = int(a) - 1, int(b) - 1, float(c)
        return SparseCSC.from_coo(nr, nc, rows, cols, vals)

    P = parse_matrix(sections["P"])
    A = parse_matrix(sections["A"])
    q = np.array([float(v) for v in sections["q"]])
    l = np.array([float(v) for v in sections["l"]])
    u = np.array([float(v) for v in sections["u"]])
    return QpProblem(P, q, A, l, u).validate()
