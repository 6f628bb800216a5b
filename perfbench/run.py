"""Closed-loop benchmark of the etmpc receding-horizon controller.

    python3 perfbench/run.py --workload p2x2_loop --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ``etmpc`` from ``src/`` of
that checkout and from nowhere else. Load is one process and one controller
in a closed loop: each controller period starts when the previous one has
finished. Simulated time is decoupled from host time. Every timing is host
time scaled to a reference host (see PROBE_REF_S).

After one untimed warm-up bring-up, a run is a sequence of rounds, until
``--seconds`` have passed and at least MIN_SOLVES solves were timed. A round

* brings the controller up ``setup_reps`` times, each as one timed
  standalone sequence (build_thermal_model, discretize, prune_model,
  build_mpc_qp, AdmmSolver); ``setup_s`` is the median over the run;
* runs one whole episode of the workload's scenario through
  run_closed_loop. Every episode repeats the same trajectory.

Every bring-up, including the one run_closed_loop does itself, passes the
KKT gate: the KKT matrix is rebuilt with scipy.sparse from its stored upper
triangle and a seeded right-hand side is solved through the solver's own
factor. Every trace must be finite. Either failure makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half the
loop time untraced and half traced (see layers.py) and reports the
per-layer metrics, the tracing overhead and a self-check of the breakdown.
The report goes to stdout; its last line is the JSON result.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# One BLAS thread: discretize's expm on these small matrices ran 3x slower
# and far noisier with two OpenBLAS threads on a 2-vCPU host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import importlib.util
import json
import platform
import resource
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
import scipy.sparse

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import etmpc  # noqa: E402

if Path(etmpc.__file__).resolve().parent != ROOT / "src" / "etmpc":
    raise ImportError(f"etmpc imported from {etmpc.__file__}, not from {ROOT / 'src'}")

from etmpc import mpc, pruning, qp, simulate, thermal  # noqa: E402
from etmpc.power import PowerModelParams  # noqa: E402

from layers import Tracer  # noqa: E402

HP = 2
CUTOFF = 0.005
SETTLE_STEPS = 10       # controller periods after the budget drop before overshoot counts
MIN_SOLVES = 100        # so that p90 has at least ten samples beyond it
# Bound on the normwise backward error ||Kx - b|| / (||K|| ||x|| + ||b||), inf-norms.
# The plain relative residual ||Kx - b|| / ||b|| of a correct factor already
# reaches 1.15e-9 on P8x8 (300 seeded right-hand sides), so it is reported, not gated.
GATE_TOL = 1e-9
# Host speed on a shared 2-vCPU VM drifts by 1.6x over seconds to minutes,
# and raw host times of repeated runs spread as much. Every reported time
# is therefore host time divided by the host's slowness, measured by a fixed
# pure-Python probe timed next to each solve and each bring-up: it is the
# time on a reference host, on which the probe takes PROBE_REF_S. Raw host
# times are printed in the report.
PROBE_DATA = [float(i) for i in range(64)]
PROBE_REF_S = 100e-6


@dataclass(frozen=True)
class Workload:
    grid: int                 # an nw x nh grid with nw = nh = grid
    steps: int                # controller periods per episode; the budget drops at steps // 2
    setup_reps: int           # timed bring-ups per round (see Run.rounds)
    solver: dict = field(default_factory=dict)  # overrides of mpc_solver_settings()
    noise_sigma: float = 0.0  # measurement noise [degC], drawn from the seed


# Why these three: p2x2_loop is dominated by per-call fixed costs (small
# KKT, plant RK4, per-PE Python loops), so a change that only speeds up
# large sparse kernels should not move it. p8x8_loop is the large sparse
# case where FE/BS, residual matvecs and setup dominate. p4x4_converge
# stops on residuals, so residuals cannot be skipped there and iteration
# counts vary; it measures time to a solution of stated accuracy.
WORKLOADS = {
    "p2x2_loop": Workload(grid=2, steps=150, setup_reps=3),
    "p8x8_loop": Workload(grid=8, steps=30, setup_reps=1),
    "p4x4_converge": Workload(
        grid=4, steps=60, setup_reps=2, noise_sigma=0.05,
        solver=dict(termination_mode="residual", eps_prim=1e-3, eps_dual=1e-3,
                    max_iter=500, check_interval=1)),
}

# Every end-to-end metric, with its unit, as the report prints
# them. BENCHMARK.json lists those that are never 0 as end-to-end metrics;
# budget_overshoot_w (0 on p2x2_loop), unconverged_share (0 on
# p4x4_converge) and failed_share (0 while nothing fails) go with the
# per-layer metrics of the traced run.
END_TO_END = {
    "setup_s": "s", "solve_ms_p50": "ms", "solve_ms_p90": "ms", "step_ms_mean": "ms",
    "budget_overshoot_w": "W", "thermal_margin_c": "degC", "pred_rmse_c": "degC",
    "unconverged_share": "1", "failed_share": "1", "peak_rss_mb": "MB",
}

SETUP_LAYERS = ("thermal.build_thermal_model", "thermal.discretize", "pruning.prune_model",
                "mpc.build_mpc_qp", "qp.assemble_kkt", "ordering.amd_order",
                "ldl.ldl_symbolic", "ldl.ldl_numeric")


# ---- environment and structure ----------------------------------------------


def blas_threads():
    """Threads of each OpenBLAS that numpy and scipy load, by library file."""
    out = {}
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[path.name] = fn()
                    break
    return out or {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def environment():
    return {
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def fe_levels(L):
    """Depth of the forward-elimination dependency DAG of unit-lower L."""
    level = np.zeros(L.nrows, dtype=np.int64)
    for j in range(L.ncols):
        rows = L.rowidx[L.colptr[j]:L.colptr[j + 1]]
        level[rows] = np.maximum(level[rows], level[j] + 1)
    return int(level.max(initial=0)) + 1


def structure(model, pruned, solver):
    """Sizes and work counts that repeat exactly between runs of one commit."""
    L = solver.kkt.factor.L
    kept = np.count_nonzero(pruned.d) + np.count_nonzero(pruned.e)
    full = np.count_nonzero(model.d) + np.count_nonzero(model.e)
    return {
        "qp.kkt_n": solver.kkt.K.nrows,
        "qp.nnz_a": solver.problem.A.nnz,
        "qp.nnz_p": solver.problem.P.nnz,
        "ldl.nnz_l": L.nnz,
        "ldl.fe_levels": fe_levels(L),
        "kernels.trsv_flops": 2 * L.nnz,
        # computed, not measured: L read once, the vector read and written once
        "kernels.trsv_bytes_computed": int(L.colptr.nbytes + L.rowidx.nbytes
                                           + L.values.nbytes + 2 * 8 * L.nrows),
        "pruning.kept_ratio": kept / full,
    }


# ---- correctness --------------------------------------------------------------


def kkt_gate(solver, rng):
    """(backward error, relative residual) of a seeded solve through the factor.

    K is rebuilt with scipy.sparse from the stored upper triangle, so the
    check does not rely on the package's own matrix code.
    """
    K = solver.kkt.K
    rows, cols, vals = K.triplets()
    if np.any(rows > cols):
        return np.inf, np.inf
    upper = scipy.sparse.coo_array((vals.astype(np.float64), (rows, cols)),
                                   shape=K.shape).tocsr()
    full = upper + upper.T - scipy.sparse.diags_array(upper.diagonal())
    b = rng.standard_normal(K.nrows)
    x = np.asarray(solver.kkt.factor.solve(b), dtype=np.float64)
    r = np.max(np.abs(full @ x - b))
    b_norm, x_norm = np.max(np.abs(b)), np.max(np.abs(x))
    k_norm = np.max(abs(full).sum(axis=1))
    out = (float(r / (k_norm * x_norm + b_norm)), float(r / b_norm))
    return out if np.all(np.isfinite(out)) else (np.inf, np.inf)


def bad_steps(trace):
    """Steps that diverged or produced non-finite output."""
    diverged = np.array([s == "diverged" for s in trace.status])
    rows = [trace.plant_si, trace.dispatched_power, trace.target_power,
            trace.applied_v, trace.applied_f,
            np.where(diverged[:, None], 0.0, trace.predicted_si)]
    finite = np.all([np.all(np.isfinite(a), axis=1) for a in rows], axis=0)
    finite &= np.isfinite(trace.budget_active) & np.isfinite(trace.solve_time)
    return diverged | ~finite, ~finite


# ---- one bring-up, one episode --------------------------------------------------


def bring_up(spec, params, settings):
    """The controller bring-up as one timed standalone sequence."""
    t0 = time.perf_counter()
    model = thermal.build_thermal_model(spec)
    thermal.discretize(model)
    pruned = pruning.prune_model(model, CUTOFF)
    mpcqp = mpc.build_mpc_qp(pruned, spec, params)
    solver = qp.AdmmSolver(mpcqp.qp, settings)
    return time.perf_counter() - t0, model, pruned, solver


def probe():
    """Seconds taken by a fixed pure-Python loop: the host's current speed."""
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(40):
        for v in PROBE_DATA:
            acc += v * 0.5
    return time.perf_counter() - t0


def host_speed():
    """Host slowness against the reference host: 1 there, 2 at half its speed."""
    return float(np.median([probe() for _ in range(3)])) / PROBE_REF_S


@contextlib.contextmanager
def instrumented():
    """Instruments run_closed_loop from outside.

    Keeps and times each solver it builds for itself, and times one probe
    after each update_mpc_step call, which run_closed_loop makes right
    before it starts its solve timer.
    """
    built, probes = [], []
    solver_cls, update = simulate.AdmmSolver, simulate.update_mpc_step

    class Captured(solver_cls):
        def __init__(self, *args, **kwargs):
            t0 = time.perf_counter()
            super().__init__(*args, **kwargs)
            built.append((self, time.perf_counter() - t0))

    def probed_update(*args, **kwargs):
        out = update(*args, **kwargs)
        probes.append(probe())
        return out

    simulate.AdmmSolver, simulate.update_mpc_step = Captured, probed_update
    try:
        yield built, probes
    finally:
        simulate.AdmmSolver, simulate.update_mpc_step = solver_cls, update


@dataclass
class Episode:
    trace: simulate.RunTrace
    solver: qp.AdmmSolver
    loop_s: float        # run_closed_loop wall time minus its solver bring-up and the probes
    speed: np.ndarray    # host slowness per step, from the probes before and after its solve


def run_episode(model, pruned, scenario, settings, params):
    mpcqp = mpc.build_mpc_qp(pruned, model.spec, params)
    with instrumented() as (built, probes):
        t0 = time.perf_counter()
        trace = simulate.run_closed_loop(model, scenario, controller_model=pruned,
                                         solver_settings=settings, mpcqp=mpcqp)
        wall = time.perf_counter() - t0
    (solver, init_s), = built
    if len(probes) != trace.n_steps:
        raise RuntimeError(f"{len(probes)} host-speed probes for {trace.n_steps} steps")
    p = np.array(probes)
    speed = (p + np.append(p[1:], p[-1])) / 2 / PROBE_REF_S
    return Episode(trace, solver, wall - init_s - p.sum(), speed)


@dataclass
class Rounds:
    setup_s: np.ndarray      # host seconds per timed bring-up
    setup_speed: np.ndarray  # host slowness around each bring-up
    episodes: list
    setup_layers: dict       # traced setup layers' host seconds per bring-up

    def speed(self):
        """Median host slowness over the rounds."""
        return float(np.median(np.concatenate([self.setup_speed]
                                              + [ep.speed for ep in self.episodes])))


# ---- the run ------------------------------------------------------------------------


class Run:
    """State of one benchmark run: its inputs, its checks and its failures."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.spec = thermal.GridSpec(wl.grid, wl.grid, hp=HP,
                                     domains=thermal.default_domains(wl.grid, wl.grid))
        self.params = PowerModelParams()
        self.settings = simulate.mpc_solver_settings(**wl.solver)
        self.rng = np.random.default_rng(seed)
        self.scenario = simulate.default_scenario(self.spec, self.params,
                                                  duration=wl.steps * self.spec.ts)
        self.scenario.noise_sigma = wl.noise_sigma
        self.scenario.seed = seed
        self.errors = []
        self.gate_worst = (0.0, 0.0)   # (backward error, relative residual)
        self.bringups = 0
        self.attempted = 0
        self.failed = 0
        self.unconverged = 0
        self.last = None               # (model, pruned, solver) of the latest bring-up

    def gate(self, solver):
        self.bringups += 1
        bwd, rel = kkt_gate(solver, self.rng)
        self.gate_worst = (max(self.gate_worst[0], bwd), max(self.gate_worst[1], rel))
        if not bwd <= GATE_TOL:
            self.errors.append(f"KKT gate: backward error {bwd:.3e} > {GATE_TOL:g}")

    def episode(self, model, pruned):
        """One episode, with its failed steps counted; None if it raised."""
        self.attempted += self.wl.steps
        try:
            ep = run_episode(model, pruned, self.scenario, self.settings, self.params)
        except Exception:
            traceback.print_exc()
            self.failed += self.wl.steps
            self.errors.append("run_closed_loop raised")
            return None
        failed, nonfinite = bad_steps(ep.trace)
        self.failed += int(failed.sum())
        self.unconverged += sum(s == "max_iter" for s in ep.trace.status)
        if nonfinite.any():
            self.errors.append(f"{int(nonfinite.sum())} steps with non-finite output")
        return ep

    def rounds(self, seconds, min_solves, tracer=None):
        """Rounds of ``setup_reps`` timed bring-ups and one episode, until
        ``seconds`` passed and ``min_solves`` solves were timed.

        Spreading the bring-ups over the run, instead of timing them back to
        back, exposes setup_s to the same host-speed phases as the loop
        metrics. Gates run afterwards, so that a tracer sees no gate solves.
        """
        setup_times, setup_speed, episodes, solvers = [], [], [], []
        setup_total = dict.fromkeys(SETUP_LAYERS, 0.0)
        start = time.perf_counter()
        while not episodes or time.perf_counter() - start < seconds \
                or len(episodes) * self.wl.steps < min_solves:
            before = dict(tracer.total) if tracer else {}
            for _ in range(self.wl.setup_reps):
                speed = host_speed()
                seconds_up, model, pruned, solver = bring_up(self.spec, self.params,
                                                             self.settings)
                setup_times.append(seconds_up)
                setup_speed.append((speed + host_speed()) / 2)
                solvers.append(solver)
            self.last = (model, pruned, solver)
            for layer in setup_total if tracer else ():
                setup_total[layer] += tracer.total[layer] - before.get(layer, 0.0)
            ep = self.episode(model, pruned)
            if ep is None:
                break
            episodes.append(ep)
            solvers.append(ep.solver)
        if not episodes:
            raise RuntimeError("no episode completed: " + "; ".join(self.errors))
        for built in solvers:
            self.gate(built)
        return Rounds(np.array(setup_times), np.array(setup_speed), episodes,
                      {f"{k}_s": v / len(setup_times) for k, v in setup_total.items()})

    def quality(self, trace):
        """Quality metrics of one episode; every episode repeats them."""
        budgets = trace.budget_active
        drop = int(np.flatnonzero(budgets != budgets[0])[0])
        worst = 0.0
        for k in range(drop + SETTLE_STEPS, trace.n_steps):
            p = trace.dispatched_power[k]
            dom = simulate.timeline_value(self.scenario.domain_budgets, trace.times[k])
            over = max([p.sum() - budgets[k]]
                       + [p[members].sum() - b for members, b in zip(self.spec.domains, dom)])
            worst = max(worst, over)
        return {
            "budget_overshoot_w": worst,
            "thermal_margin_c": self.params.t_limit - float(trace.plant_si.max()),
            "pred_rmse_c": float(simulate.rmse_series(trace).mean()),
        }


def fingerprint(trace, period):
    """Trajectory summary at full precision, for "trajectory unchanged" claims."""
    return {
        "final_si_sum_c": float(trace.plant_si[-1].sum()),
        "dispatched_energy_j": float(trace.dispatched_power.sum() * period),
        "status_counts": dict(sorted(Counter(trace.status).items())),
        "total_iterations": int(trace.iterations.sum()),
    }


def step_ms(episodes, raw=False):
    """Median over episodes of run_closed_loop time per step, in ms."""
    return 1e3 * float(np.median([ep.loop_s / ep.trace.n_steps / (1 if raw else ep.speed.mean())
                                  for ep in episodes]))


def loop_layers(tracer, episodes, speed, overhead_pct, untraced_step_ms):
    """Per-layer loop metrics from a traced loop phase, and the self-check.

    Times are divided by ``speed``, the traced phase's host slowness.
    """
    C = tracer.calls
    T = {k: v / speed for k, v in tracer.total.items()}
    S = {k: v / speed for k, v in tracer.self_time.items()}
    solve_s = T.get("qp.solve", 0.0)
    steps = sum(ep.trace.n_steps for ep in episodes)
    wall = sum(ep.loop_s for ep in episodes) / speed
    iters = np.concatenate([ep.trace.iterations for ep in episodes])

    def per_call(table, layer, calls_of=None):
        n = C[calls_of or layer]
        return table.get(layer, 0.0) / n * 1e6 if n else 0.0

    covered = sum(T.get(layer, 0.0) for layer in (
        "mpc.update_mpc_step", "power.stage", "qp.solve", "simulate.plant_step"))
    fe_us = per_call(T, "kernels.solve_fe")
    bs_us = per_call(T, "kernels.solve_bs")
    flops = 2 * episodes[0].solver.kkt.factor.L.nnz
    out = {
        "kernels.solve_fe_us": fe_us,
        "kernels.solve_bs_us": bs_us,
        "ldl.solve_self_us": per_call(S, "ldl.solve"),
        "qp.residuals_us": per_call(T, "qp.residuals"),
        "qp.residuals_per_step": C["qp.residuals"] / steps,
        "kernels.matvec_us": per_call(T, "kernels.matvec", "qp.residuals"),
        "qp.admm_step_self_us": per_call(S, "qp.admm_step"),
        "qp.solve_self_us": per_call(S, "qp.solve"),
        "qp.iters_per_step": float(iters.mean()),
        "qp.iters_per_step_p90": float(np.percentile(iters, 90)),
        "qp.kkt_solves_per_step": C["ldl.solve"] / steps,
        "mpc.update_mpc_step_us": per_call(T, "mpc.update_mpc_step"),
        "power.stage_us_per_step": T.get("power.stage", 0.0) / steps * 1e6,
        "simulate.plant_step_us": per_call(T, "simulate.plant_step"),
        "simulate.loop_self_us": (wall - covered) / steps * 1e6,
        "kernels.fe_mflops": flops / fe_us if fe_us else 0.0,
        "kernels.bs_mflops": flops / bs_us if bs_us else 0.0,
    }
    # The layer self times add up to the traced step by construction of
    # loop_self, so check what is not by construction: no traced span is
    # counted twice (loop_self >= 0), and the solve layers add up to the
    # program's own solve timer, which encloses the traced qp.solve span,
    # within the tracing overhead.
    own_solve = sum(float(ep.trace.solve_time.sum()) for ep in episodes) / speed
    gap_us = (own_solve - solve_s) / steps * 1e6
    allowed_us = max(abs(overhead_pct) / 100 * untraced_step_ms * 1e3, 50.0)
    check = {
        "loop_self_us": out["simulate.loop_self_us"],
        "solve_timer_gap_us_per_step": gap_us,
        "allowed_us_per_step": allowed_us,
        "ok": out["simulate.loop_self_us"] >= 0 and -1.0 <= gap_us <= allowed_us,
    }
    it_us = solve_s / iters.sum() * 1e6
    res_per_iter = C["qp.residuals"] / iters.sum()
    split = {
        "iteration_us": it_us,
        "fe_share": fe_us / it_us if it_us else 0.0,
        "bs_share": bs_us / it_us if it_us else 0.0,
        "residuals_share": out["qp.residuals_us"] * res_per_iter / it_us if it_us else 0.0,
    }
    return out, check, split


def run(name, seed, seconds, trace, steps=None, min_solves=MIN_SOLVES):
    """One benchmark run. Returns (result, report lines)."""
    wl = WORKLOADS[name]
    if steps is not None:
        wl = replace(wl, steps=steps)
    bench = Run(wl, seed)
    lines = [f"workload {name} seed {seed} seconds {seconds} trace {trace}",
             "environment " + json.dumps(environment())]
    metrics = {}

    warm = bring_up(bench.spec, bench.params, bench.settings)   # untimed
    bench.gate(warm[3])
    if not trace:
        rounds = bench.rounds(seconds, min_solves)
        episodes = rounds.episodes
        raw = np.concatenate([ep.trace.solve_time for ep in episodes]) * 1e3
        solves = np.concatenate([ep.trace.solve_time / ep.speed for ep in episodes]) * 1e3
        setup_raw = float(np.median(rounds.setup_s))
        metrics.update({
            "setup_s": float(np.median(rounds.setup_s / rounds.setup_speed)),
            "solve_ms_p50": float(np.median(solves)),
            "solve_ms_p90": float(np.percentile(solves, 90)),
            "step_ms_mean": step_ms(episodes),
        })
        samples = {
            "setup_s": f"median of {rounds.setup_s.size} bring-ups; host {setup_raw!r} s",
            "solve_ms_p50": f"{solves.size} solves; host {float(np.median(raw))!r} ms",
            "solve_ms_p90": f"{solves.size} solves; host {float(np.percentile(raw, 90))!r} ms",
            "step_ms_mean": f"median over {len(episodes)} episodes of {wl.steps} steps; "
                            f"host {step_ms(episodes, raw=True)!r} ms",
        }
        lines.append(f"host slowness {rounds.speed()!r} (median over the run; "
                     f"times below are reference-host times, host times in brackets)")
    else:
        untraced = bench.rounds(seconds / 2, 0).episodes
        tracer = Tracer()
        tracer.install()
        try:
            rounds = bench.rounds(seconds / 2, 0, tracer)
        finally:
            tracer.uninstall()
        episodes, speed = rounds.episodes, rounds.speed()
        factorizations = tracer.calls["ldl.ldl_numeric"] / (rounds.setup_s.size + len(episodes))
        if factorizations != 1:
            bench.errors.append(f"{factorizations} LDL factorizations per bring-up, not 1")
        untraced_ms, traced_ms = step_ms(untraced), step_ms(episodes)
        overhead_pct = (traced_ms - untraced_ms) / untraced_ms * 100
        layers, check, split = loop_layers(tracer, episodes, speed, overhead_pct, untraced_ms)
        if not check["ok"]:
            bench.errors.append("trace self-check failed")
        metrics.update({k: v / speed for k, v in rounds.setup_layers.items()})
        metrics.update(layers)
        metrics.update({"ldl.factorizations": factorizations, "trace_overhead_pct": overhead_pct})
        lines += [f"host slowness {speed!r} (median over the traced rounds)",
                  f"traced step {traced_ms:.4f} ms, untraced {untraced_ms:.4f} ms, "
                  f"overhead {overhead_pct:.2f} %",
                  "selfcheck " + json.dumps(check),
                  "iteration_split " + json.dumps(split)]
        if tracer.missing:
            lines.append("untraced (name not found): " + ", ".join(tracer.missing))
        episodes = untraced + episodes

    model, pruned, solver = bench.last
    structure_counts = structure(model, pruned, solver)
    metrics.update(structure_counts)
    metrics.update(bench.quality(episodes[0].trace))
    metrics["unconverged_share"] = bench.unconverged / bench.attempted
    metrics["failed_share"] = bench.failed / bench.attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    lines.append("structure " + json.dumps(structure_counts))
    lines.append("fingerprint " + json.dumps(fingerprint(episodes[0].trace, bench.spec.ts)))
    lines.append(f"kkt_gate worst backward error {bench.gate_worst[0]!r} (bound {GATE_TOL:g}), "
                 f"worst relative residual {bench.gate_worst[1]!r}, "
                 f"over {bench.bringups} bring-ups")
    prints = {json.dumps(fingerprint(ep.trace, bench.spec.ts)) for ep in episodes}
    lines.append(f"episodes identical: {len(prints) == 1} ({len(episodes)} episodes)")
    if not trace:
        samples.update({k: f"first of {len(episodes)} episodes of {wl.steps} steps"
                        for k in ("budget_overshoot_w", "thermal_margin_c", "pred_rmse_c")})
        samples["unconverged_share"] = samples["failed_share"] = f"{bench.attempted} steps"
        samples["peak_rss_mb"] = "process peak"
        for key, unit in END_TO_END.items():
            lines.append(f"{key} {metrics[key]!r} {unit} ({samples[key]})")
    for err in bench.errors:
        lines.append("ERROR " + err)
    result = {
        "correct": not bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in BENCH["per_layer" if trace else "end_to_end"]},
    }
    return result, lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
