"""Per-layer tracing from outside the package.

Each traced layer is one public function or method of an ``etmpc`` module.
The tracer replaces the name where its caller looks it up (``qp`` and
``simulate`` import some functions by name, so those names are patched in
the importing module) with a wrapper that times the call. Spans nest: a
span's self time is its duration minus the durations of the traced spans
it encloses. Only sums and counts per layer are kept, so memory stays
constant however many calls a run makes.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (object whose attribute is looked up, attribute, layer name). Several
# names may feed one layer; a layer's figures are summed over them.
LAYERS = [
    ("etmpc.thermal", "build_thermal_model", "thermal.build_thermal_model"),
    ("etmpc.thermal", "discretize", "thermal.discretize"),
    ("etmpc.pruning", "prune_model", "pruning.prune_model"),
    ("etmpc.mpc", "build_mpc_qp", "mpc.build_mpc_qp"),
    ("etmpc.qp", "assemble_kkt", "qp.assemble_kkt"),
    ("etmpc.qp", "amd_order", "ordering.amd_order"),
    ("etmpc.qp", "ldl_symbolic", "ldl.ldl_symbolic"),
    ("etmpc.qp", "ldl_numeric", "ldl.ldl_numeric"),
    ("etmpc.ldl", "ldl_numeric", "ldl.ldl_numeric"),
    ("etmpc.qp:AdmmSolver", "solve", "qp.solve"),
    ("etmpc.qp", "admm_step", "qp.admm_step"),
    ("etmpc.ldl:LdlFactor", "solve", "ldl.solve"),
    ("etmpc._kernels", "solve_fe", "kernels.solve_fe"),
    ("etmpc._kernels", "solve_bs", "kernels.solve_bs"),
    ("etmpc.qp", "residuals", "qp.residuals"),
    ("etmpc._kernels", "csc_matvec", "kernels.matvec"),
    ("etmpc._kernels", "csc_rmatvec", "kernels.matvec"),
    ("etmpc._kernels", "csc_symmetric_matvec_upper", "kernels.matvec"),
    ("etmpc.simulate", "update_mpc_step", "mpc.update_mpc_step"),
    ("etmpc.simulate", "power_forward", "power.stage"),
    ("etmpc.simulate", "power_inverse", "power.stage"),
    ("etmpc.simulate", "smallest_feasible_voltage", "power.stage"),
    ("etmpc.simulate", "plant_step", "simulate.plant_step"),
]


def _resolve(target):
    module, _, attr = target.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, attr) if attr else obj


class Tracer:
    """Total time, self time and call count per layer."""

    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.missing = []
        self._open = []      # time covered by traced children, per open span
        self._patched = []

    def _wrap(self, layer, fn):
        clock = time.perf_counter
        open_spans = self._open
        total, self_time, calls = self.total, self.self_time, self.calls

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                children = open_spans.pop()
                if open_spans:
                    open_spans[-1] += dur
                total[layer] += dur
                self_time[layer] += dur - children
                calls[layer] += 1

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every listed name that exists; record the ones that do not."""
        for target, attr, layer in LAYERS:
            owner = _resolve(target)
            original = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{target}.{attr}")
                continue
            setattr(owner, attr, self._wrap(layer, original))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
