"""Independent oracles used across the test suite.

Everything here is deliberately naive (dense algebra, enumeration,
sequential loops) and shares no code with the package's own
factorization/solve/schedule paths. ``ldl_reference`` is the one
sequential LDL^T solve: FE, the diagonal scale and BS, entry by entry on
L's CSC arrays, which every solve plan must match bit for bit. The ADMM
loop that the package's fast path must match bit for bit,
``admm_solve_checking_both_residuals``, calls the package's KKT factor as
its building block, and ``plant_step_per_evaluation``, the RK4 against
which the plant's integrator is measured, calls its power model.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from etmpc.csc import DimensionError
from etmpc.power import power_forward
from etmpc.qp import DIVERGENCE_LIMIT


def dense_ldl(a):
    """Dense LDL^T without pivoting. Returns (L_unit, d)."""
    a = np.array(a, dtype=np.float64)
    n = a.shape[0]
    L = np.eye(n)
    d = np.zeros(n)
    for k in range(n):
        d[k] = a[k, k] - np.sum(L[k, :k] ** 2 * d[:k])
        for i in range(k + 1, n):
            L[i, k] = (a[i, k] - np.sum(L[i, :k] * L[k, :k] * d[:k])) / d[k]
    return L, d


def symbolic_fill_count(pattern, order):
    """Number of fill-in entries created by eliminating in the given order.

    ``pattern`` is a dense boolean adjacency (symmetric, diagonal ignored).
    """
    n = pattern.shape[0]
    adj = [set(np.nonzero(pattern[i])[0].tolist()) - {i} for i in range(n)]
    eliminated = set()
    fill = 0
    for v in order:
        nbrs = {u for u in adj[v] if u not in eliminated}
        for a, b in itertools.combinations(sorted(nbrs), 2):
            if b not in adj[a]:
                adj[a].add(b)
                adj[b].add(a)
                fill += 1
        eliminated.add(v)
    return fill


def dense_lower_pattern_after_elimination(a):
    """Structural pattern of L from dense elimination (nonzero threshold 0)."""
    n = a.shape[0]
    occupied = a != 0
    occupied |= occupied.T
    pattern = occupied.copy()
    for k in range(n):
        below = np.nonzero(pattern[k + 1:, k])[0] + k + 1
        for i in below:
            pattern[i, below] |= True
            pattern[below, i] |= True
    return np.tril(pattern, -1)


def random_qp(rng, n, m, strictly_convex=True):
    """Random feasible box-constrained QP with one-sided inequality rows.

    Returns (P_dense, q, A_dense, l, u). Feasibility is guaranteed by
    anchoring the bounds around a random feasible point.
    """
    f = rng.standard_normal((n, max(1, n // 2)))
    P = f @ f.T
    if strictly_convex:
        P += np.eye(n) * (0.5 + rng.random())
    q = rng.standard_normal(n)
    A = rng.standard_normal((m, n))
    A[np.abs(A) < 0.8] = 0.0
    for i in range(m):
        if not A[i].any():
            A[i, rng.integers(n)] = 1.0
    x_feas = rng.standard_normal(n)
    ax = A @ x_feas
    u = ax + rng.random(m) * 2.0 + 0.1
    l = np.full(m, -np.inf)
    two_sided = rng.random(m) < 0.3
    l[two_sided] = ax[two_sided] - (rng.random(two_sided.sum()) * 2.0 + 0.1)
    return P, q, A, l, u


def solve_qp_enumeration(P, q, A, l, u, tol=1e-9):
    """Global minimum by enumerating active sets.

    For each subset of constraints held at a finite bound, solve the
    equality-constrained KKT system; the feasible candidate with the
    smallest objective is the optimum (P must be positive definite).
    """
    n = P.shape[0]
    m = A.shape[0]
    best = None
    best_obj = np.inf
    sides = []
    for i in range(m):
        options = [None]
        if np.isfinite(u[i]):
            options.append(u[i])
        if np.isfinite(l[i]) and l[i] != u[i]:
            options.append(l[i])
        sides.append(options)
    for combo in itertools.product(*sides):
        active = [i for i in range(m) if combo[i] is not None]
        k = len(active)
        if k > n:
            continue
        kkt = np.zeros((n + k, n + k))
        kkt[:n, :n] = P
        rhs = np.zeros(n + k)
        rhs[:n] = -q
        for t, i in enumerate(active):
            kkt[:n, n + t] = A[i]
            kkt[n + t, :n] = A[i]
            rhs[n + t] = combo[i]
        try:
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        except np.linalg.LinAlgError:
            continue
        x = sol[:n]
        if not np.allclose(kkt @ sol, rhs, atol=1e-7):
            continue
        ax = A @ x
        if np.any(ax > u + tol) or np.any(ax < l - tol):
            continue
        obj = 0.5 * x @ P @ x + q @ x
        if obj < best_obj - 1e-12:
            best_obj = obj
            best = x
    return best, best_obj


def random_kkt_upper(rng, n, m, rho=0.1, sigma=1e-6, density=0.3):
    """Dense-backed random quasi-definite KKT matrix, upper triangle."""
    f = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    P = f @ f.T + np.eye(n) * 0.1
    A = rng.standard_normal((m, n)) * (rng.random((m, n)) < density)
    K = np.zeros((n + m, n + m))
    K[:n, :n] = P + sigma * np.eye(n)
    K[:n, n:] = A.T
    K[n:, n:] = -np.eye(m) / rho
    return np.triu(K)


def dense_mpc_matrices(d, e, c_t, domains, hp, weights, with_x0=False):
    """Dense A and P of the condensed MPC QP, each block placed by slicing.

    Columns: x_1..x_hp, then u_0..u_{hp-1}. Rows, in order: dynamics
    x_{h+1} - D x_h - E u_h = 0 per stage, where stage 0 has no D block
    (D x_0 is its right-hand side), the silicon caps C x_h for
    h = 1..hp, the power boxes u_h, one budget row per stage, then one row
    per domain and stage (domain-major). P holds 2*weights on the diagonal
    of every input block.

    ``with_x0`` gives the layout that keeps x_0 as a variable: columns
    x_0..x_hp first, stage 0's dynamics read -D x_0, and n_x rows pinning
    x_0 (to the measurement, through their bounds) follow the dynamics.
    """
    n_x, n_u = e.shape
    nc = c_t.shape[0]
    k = int(with_x0)   # state blocks ahead of x_1
    n = n_x * (hp + k) + n_u * hp
    m = n_x * hp + k * n_x + nc * hp + n_u * hp + hp + len(domains) * hp

    def x(h):
        return slice((h - 1 + k) * n_x, (h + k) * n_x)

    def u(h):
        start = n_x * (hp + k) + h * n_u
        return slice(start, start + n_u)

    A = np.zeros((m, n))
    r = 0
    for h in range(hp):
        A[r:r + n_x, x(h + 1)] = np.eye(n_x)
        if h > 0 or with_x0:
            A[r:r + n_x, x(h)] = -d
        A[r:r + n_x, u(h)] = -e
        r += n_x
    if with_x0:
        A[r:r + n_x, x(0)] = np.eye(n_x)
        r += n_x
    for h in range(1, hp + 1):
        A[r:r + nc, x(h)] = c_t
        r += nc
    for h in range(hp):
        A[r:r + n_u, u(h)] = np.eye(n_u)
        r += n_u
    for h in range(hp):
        A[r, u(h)] = 1.0
        r += 1
    for members in domains:
        for h in range(hp):
            A[r, u(h).start + np.asarray(members, dtype=int)] = 1.0
            r += 1
    assert r == m

    P = np.zeros((n, n))
    for h in range(hp):
        P[u(h), u(h)] = np.diag(2.0 * np.asarray(weights, dtype=np.float64))
    return A, P


def dense_admm_step(P, q, A, l, u, rho, sigma, alpha, x, z, y):
    """One relaxed OSQP iteration with the diagonal step size R = diag(rho),
    through the reduced system (P + sigma I + A'RA) x~ = sigma x - q + A'(Rz - y)
    solved densely, and z~ = A x~. P is the full symmetric matrix.
    Returns the new (x, z, y)."""
    n = P.shape[0]
    xt = np.linalg.solve(P + sigma * np.eye(n) + A.T @ (rho[:, None] * A),
                         sigma * x - q + A.T @ (rho * z - y))
    zt = A @ xt
    z_relaxed = alpha * zt + (1.0 - alpha) * z
    z_new = np.clip(z_relaxed + y / rho, l, u)
    return (alpha * xt + (1.0 - alpha) * x, z_new, y + rho * (z_relaxed - z_new))


def admm_solve_checking_both_residuals(problem, kkt, settings, start=None):
    """The ADMM loop that computes r_prim and r_dual at every check, with
    the iteration and the residual arithmetic written out in their own
    operand order; it shares only the KKT factor and the frozen operators
    of ``kkt`` with the package. ``start`` is an (x, z, y) to warm-start
    from. Returns the final iterate, residuals, iteration count and status."""
    dtype = settings.dtype
    q, l, u = (vec.astype(dtype, copy=False) for vec in (problem.q, problem.l, problem.u))
    n, m, alpha = problem.n, problem.m, settings.alpha
    if start is None:
        x, z, y = np.zeros(n, dtype), np.zeros(m, dtype), np.zeros(m, dtype)
    else:
        x, z, y = (vec.copy() for vec in start)
    r_prim = r_dual = np.inf
    status, it = None, 0
    while it < settings.max_iter:
        rhs = np.concatenate([settings.sigma * x - q, z - kkt.rho_inv * y])
        sol = kkt.factor.solve(rhs)
        xtilde, nu = sol[:n], sol[n:]
        ztilde = z + kkt.rho_inv * (nu - y)
        x = alpha * xtilde + (1.0 - alpha) * x
        z_pre = alpha * ztilde + (1.0 - alpha) * z
        z_new = np.clip(z_pre + kkt.rho_inv * y, l, u)
        y = y + kkt.rho * (z_pre - z_new)
        z = z_new
        it += 1
        if it % settings.check_interval == 0 or it == settings.max_iter:
            r_prim = float(np.max(np.abs(kkt.A @ x - z), initial=0.0))
            r_dual = float(np.max(np.abs(kkt.P @ x + q + kkt.At @ y), initial=0.0))
            if not np.isfinite(r_prim) or \
                    not np.all(np.abs(np.concatenate([x, z])) <= DIVERGENCE_LIMIT):
                status = "diverged"
                break
            if settings.termination_mode == "residual" and \
                    r_prim <= settings.eps_prim and r_dual <= settings.eps_dual:
                status = "solved"
                break
    if status is None:
        converged = r_prim <= settings.eps_prim and r_dual <= settings.eps_dual
        status = "solved" if converged else "max_iter"
    return SimpleNamespace(x=x, z=z, y=y, r_prim=r_prim, r_dual=r_dual, iterations=it,
                           status=status)


def plant_step_per_evaluation(model, params, state, v, f, ceff, substeps):
    """``substeps`` RK4 substeps of the plant over one sample time, with the
    full power model, gain and all, at every derivative evaluation."""
    h = model.spec.ts / substeps
    state = np.array(state, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)

    def deriv(s):
        gain = params.leakage_gain(model.silicon_c(s), v)
        p = power_forward(params, v, f, ceff, gain)
        return model.a_t @ s + model.b_t @ p

    for _ in range(substeps):
        k1 = deriv(state)
        k2 = deriv(state + 0.5 * h * k1)
        k3 = deriv(state + 0.5 * h * k2)
        k4 = deriv(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


def phi_blocks_by_expm(a, b, t):
    """e^{at} and φ₁(at) tb, φ₂(at) tb, φ₃(at) tb, read off the top block
    row of the exponential of the augmented matrix
    [[at, tb, 0, 0], [0, 0, I, 0], [0, 0, 0, I], [0, 0, 0, 0]]."""
    n, m = b.shape
    block = np.zeros((n + 3 * m, n + 3 * m))
    block[:n, :n] = a * t
    block[:n, n:n + m] = b * t
    block[n:n + 2 * m, n + m:] = np.eye(2 * m)
    top = scipy.linalg.expm(block)[:n]
    return top[:, :n], top[:, n:n + m], top[:, n + m:n + 2 * m], top[:, n + 2 * m:]


def scalar_dispatch(params, u0, classes, gain, domains):
    """Stage 3 one element at a time, in Python scalars: each domain's rail
    is the highest of its members' lowest feasible table voltages, then
    each member's frequency is solved on that rail and clipped to
    [0, fmax]. Returns (v, f, clamped) per element."""
    def static(v):
        return params.k_s0 + params.icc * v * gain

    def freq(i, v):
        return (u0[i] - static(v)) / (params.ceff_by_class[int(classes[i])] * v * v)

    def smallest_rail(i):
        for v, fmax in params.vf_table:
            if 0.0 <= freq(i, v) <= fmax:
                return v
        v0, vt = params.vf_table[0][0], params.vf_table[-1][0]
        return v0 if u0[i] <= static(v0) else vt

    n = len(u0)
    v_out, f_out, clamped = np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool)
    for members in domains:
        v_dom = max(smallest_rail(i) for i in members)
        fmax = max(f for tv, f in params.vf_table if tv <= v_dom + 1e-12)
        for i in members:
            f = freq(i, v_dom)
            clamped[i] = not (0.0 <= f <= fmax)
            v_out[i], f_out[i] = v_dom, min(max(f, 0.0), fmax)
    return v_out, f_out, clamped


def assert_permutation_pair(perm, inv_perm, nnz):
    """perm is a bijection of range(n) and inv_perm undoes it, both stored
    as int16 when n and ``nnz``, the factor's entry count, are below 2**15,
    and as int32 otherwise."""
    n = perm.size
    assert perm.dtype == inv_perm.dtype == (np.int16 if max(n, nnz) < 2**15 else np.int32)
    assert sorted(perm.tolist()) == list(range(n))
    np.testing.assert_array_equal(inv_perm[perm], np.arange(n))


def longest_path_levels(lower):
    """(FE level of each row, BS level of each column) of the dense
    boolean strictly lower pattern ``lower``, by relaxing every edge of
    the dependency DAG at once until nothing changes: a row's FE level is
    the longest chain of entries that ends in it, a column's BS level the
    longest that starts from it."""
    rows, cols = np.nonzero(lower)
    fe = np.zeros(lower.shape[0], dtype=np.int64)
    bs = fe.copy()
    while True:
        new_fe, new_bs = fe.copy(), bs.copy()
        np.maximum.at(new_fe, rows, fe[cols] + 1)
        np.maximum.at(new_bs, cols, bs[rows] + 1)
        if np.array_equal(new_fe, fe) and np.array_equal(new_bs, bs):
            return fe, bs
        fe, bs = new_fe, new_bs


def reconstruct_permuted(factor):
    """Dense (I+L) D (I+L)^T of an ``LdlFactor``; equals P K P^T up to
    roundoff."""
    ldense = factor.L.to_dense() + np.eye(factor.n, dtype=factor.L.dtype)
    return (ldense * factor.d) @ ldense.T


def _forward(Lp, Li, Lx, x):
    """In-place forward elimination: solve (I+L) x = b for b given in x."""
    n = len(Lp) - 1
    for j in range(n):
        xj = x[j]
        for p in range(Lp[j], Lp[j + 1]):
            x[Li[p]] -= Lx[p] * xj


def _backward(Lp, Li, Lx, x):
    """In-place backward substitution: solve (I+L)^T x = b."""
    n = len(Lp) - 1
    for j in range(n - 1, -1, -1):
        s = x[j]
        for p in range(Lp[j], Lp[j + 1]):
            s -= Lx[p] * x[Li[p]]
        x[j] = s


def ldl_reference(L, dinv, b):
    """FE, the diagonal scale and BS on arrays, one after the other: the
    sequential reference of every pass of ``LdlFactor.solve``, in the
    permuted order."""
    x = b.copy()
    _forward(L.colptr, L.rowidx, L.values, x)
    x *= dinv
    _backward(L.colptr, L.rowidx, L.values, x)
    return x


def factor_reference(f, b):
    """``LdlFactor.solve`` on the sequential reference."""
    xp = np.ascontiguousarray(np.asarray(b)[f.perm], dtype=f.L.dtype)
    return ldl_reference(f.L, f.dinv, xp)[f.inv_perm]


def sptrsv_fe(L, b):
    """Solve (I+L) x = b with L (a ``SparseCSC``) strictly lower triangular."""
    x = _rhs_copy(L, b)
    _forward(L.colptr, L.rowidx, L.values, x)
    return x


def sptrsv_bs(L, b):
    """Solve (I+L)^T x = b."""
    x = _rhs_copy(L, b)
    _backward(L.colptr, L.rowidx, L.values, x)
    return x


def _rhs_copy(L, b):
    """b as a fresh vector in L's precision, after checking the shapes."""
    if L.nrows != L.ncols:
        raise DimensionError("triangular solve needs a square matrix")
    x = np.array(b, dtype=L.dtype, copy=True)
    if x.shape != (L.nrows,):
        raise DimensionError(f"rhs must be a vector of length {L.nrows}, got shape {x.shape}")
    return x
