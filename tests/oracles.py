"""Independent oracles used across the test suite.

Everything here is deliberately naive (dense algebra, enumeration) and
shares no code with the package's own factorization/solve/schedule paths.
"""

import itertools

import numpy as np


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


def dense_mpc_matrices(d, e, c_t, domains, hp, weights):
    """Dense A and P of the condensed MPC QP, each block placed by slicing.

    Columns: x_0..x_hp, then u_0..u_{hp-1}. Rows, in order: dynamics
    x_{h+1} - D x_h - E u_h = 0 per stage, the initial state, the silicon
    caps C x_h for h = 1..hp, the power boxes u_h, one budget row per
    stage, then one row per domain and stage (domain-major). P holds
    2*weights on the diagonal of every input block.
    """
    n_x, n_u = e.shape
    nc = c_t.shape[0]
    n = n_x * (hp + 1) + n_u * hp
    m = n_x * hp + n_x + nc * hp + n_u * hp + hp + len(domains) * hp

    def x(h):
        return slice(h * n_x, (h + 1) * n_x)

    def u(h):
        start = n_x * (hp + 1) + h * n_u
        return slice(start, start + n_u)

    A = np.zeros((m, n))
    r = 0
    for h in range(hp):
        A[r:r + n_x, x(h + 1)] = np.eye(n_x)
        A[r:r + n_x, x(h)] = -d
        A[r:r + n_x, u(h)] = -e
        r += n_x
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
