"""RC thermal model of a processor grid.

Each processing element contributes a silicon node and a copper
(heat-spreader) node; one shared heat-sink node closes the vertical path
to ambient. Temperatures are expressed relative to ambient, so the state
equation is homogeneous: Tdot = a_t T + b_t P, with T_si = c_t T.

State ordering: (si_0, cu_0, si_1, cu_1, ..., si_{Nc-1}, cu_{Nc-1}, sink).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg


def _is_integer(value):
    # bool is an Integral, but True is no grid size, horizon or element index
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class GridSpec:
    nw: int
    nh: int
    hp: int = 2                      # prediction horizon
    ts: float = 1e-3                 # sample time of controller, model and plant [s]
    domains: list = field(default_factory=list)  # PE-index sets sharing a VRM budget

    def __post_init__(self):
        for name in ("nw", "nh", "hp"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer")
        if self.nw < 1 or self.nh < 1:
            raise ValueError("grid must be at least 1 x 1")
        if self.hp < 1:
            raise ValueError("horizon must be at least 1")
        if not isinstance(self.ts, numbers.Real) or isinstance(self.ts, bool):
            raise ValueError("sample time must be a real number")
        if not 0 < self.ts < np.inf:
            raise ValueError("sample time must be positive and finite")
        if self.domains:
            flat = [i for d in self.domains for i in d]
            if not all(map(_is_integer, flat)):
                raise ValueError("domain members must be element indices")
            if sorted(flat) != list(range(self.n_pe)) or not all(map(len, self.domains)):
                raise ValueError("domains must partition the element set into non-empty sets")

    @property
    def n_pe(self):
        return self.nw * self.nh

    def neighbors(self, i):
        r, c = divmod(i, self.nw)
        out = []
        if c > 0:
            out.append(i - 1)
        if c + 1 < self.nw:
            out.append(i + 1)
        if r > 0:
            out.append(i - self.nw)
        if r + 1 < self.nh:
            out.append(i + self.nw)
        return out


def default_domains(nw, nh):
    """Two VRM domains splitting the grid into left/right halves."""
    n = nw * nh
    if n < 2 or nw < 2:
        return [list(range(n))]
    left, right = [], []
    for i in range(n):
        (left if i % nw < nw // 2 else right).append(i)
    return [left, right]


@dataclass(frozen=True)
class ThermalConstants:
    """Lumped RC values [K/W] and [J/K]; time constants sit in the
    millisecond-to-tens-of-ms range typical of die-level silicon. Frozen,
    and checked when built: every R and C positive and finite, t_amb
    finite."""

    r_si_lat: float = 8.0     # silicon <-> lateral silicon neighbour
    r_si_cu: float = 2.0      # silicon <-> its copper element
    r_cu_sink: float = 1.0    # copper <-> shared heat sink
    r_sink_amb: float = 0.05  # heat sink <-> ambient
    c_si: float = 2e-3
    c_cu: float = 5e-2
    c_sink: float = 5.0
    t_amb: float = 45.0       # ambient reference [degC]

    def __post_init__(self):
        for name in ("r_si_lat", "r_si_cu", "r_cu_sink", "r_sink_amb",
                     "c_si", "c_cu", "c_sink"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"thermal constant {name} must be positive and finite")
        if not np.isfinite(self.t_amb):
            raise ValueError("thermal constant t_amb must be finite")


@dataclass
class ThermalPlantModel:
    spec: GridSpec
    constants: ThermalConstants
    a_t: np.ndarray
    b_t: np.ndarray
    c_t: np.ndarray
    d: np.ndarray | None = None        # discrete state matrix (set by discretize)
    e: np.ndarray | None = None        # discrete input matrix

    @property
    def n_x(self):
        return self.a_t.shape[0]

    @property
    def n_u(self):
        return self.b_t.shape[1]

    @property
    def capacitance(self):
        """Heat capacity [J/K] of each state node, in state order: a_t is
        C⁻¹G with C = diag(capacitance) and G the symmetric conductance
        matrix."""
        c = self.constants
        return np.append(np.tile([c.c_si, c.c_cu], self.spec.n_pe), c.c_sink)

    def silicon_c(self, state):
        """Silicon temperatures [degC] of an ambient-relative state vector,
        in the state's dtype (an fp32 prediction stays fp32)."""
        return state[0:2 * self.spec.n_pe:2] + state.dtype.type(self.constants.t_amb)


def build_thermal_model(spec: GridSpec, constants: ThermalConstants | None = None) -> ThermalPlantModel:
    """Assemble the continuous-time matrices from the RC grid."""
    constants = constants or ThermalConstants()
    nc = spec.n_pe
    n_x = 2 * nc + 1
    sink = 2 * nc
    a = np.zeros((n_x, n_x))
    b = np.zeros((n_x, nc))
    c = np.zeros((nc, n_x))

    g_lat = 1.0 / constants.r_si_lat
    g_sc = 1.0 / constants.r_si_cu
    g_cs = 1.0 / constants.r_cu_sink
    g_amb = 1.0 / constants.r_sink_amb

    def couple(i, j, g, ci):
        a[i, i] -= g / ci
        a[i, j] += g / ci

    for i in range(nc):
        si, cu = 2 * i, 2 * i + 1
        for j in spec.neighbors(i):
            couple(si, 2 * j, g_lat, constants.c_si)
        couple(si, cu, g_sc, constants.c_si)
        couple(cu, si, g_sc, constants.c_cu)
        couple(cu, sink, g_cs, constants.c_cu)
        couple(sink, cu, g_cs, constants.c_sink)
        b[si, i] = 1.0 / constants.c_si
        c[i, si] = 1.0
    a[sink, sink] -= g_amb / constants.c_sink

    return ThermalPlantModel(spec, constants, a, b, c)


def discretize(model: ThermalPlantModel):
    """Exact zero-order-hold discretization at ``model.spec.ts`` via the
    matrix exponential.

    Returns (d, e) and stores them on the model, as C-contiguous copies of
    the exponential's blocks, which products such as ``d.dot(x)`` read
    without first copying a strided view. The exponential generally
    fills in far beyond the continuous structure; that fill is what the
    pruning stage removes again.
    """
    n, m = model.n_x, model.n_u
    block = np.zeros((n + m, n + m))
    block[:n, :n] = model.a_t
    block[:n, n:] = model.b_t
    phi = scipy.linalg.expm(block * model.spec.ts)
    model.d = phi[:n, :n].copy()
    model.e = phi[:n, n:].copy()
    return model.d, model.e
