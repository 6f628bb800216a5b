"""Static + dynamic power model and its inversion to operating points.

p = k_s0 + icc*v * gain(t, v) + c_eff * f * v^2, with an exponential
voltage/temperature leakage gain. The controller freezes the gain at the
worst-case corner so its view of the plant stays linear; the simulated
plant evaluates it at the instantaneous temperature.

Every function works elementwise over arrays of PEs, and this module is
the only place that evaluates the formula or searches ``vf_table``.
"""

from __future__ import annotations

import types
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class PowerModelParams:
    """The power model's constants, frozen and checked when built: every
    value finite, ``vf_table`` non-empty and strictly increasing in V and F
    with positive entries, every ``ceff_by_class`` value positive, leakage
    growing with V and T, and p_min <= p_max. ``vf_table`` is stored as a
    tuple of (V, F) float pairs and ``ceff_by_class`` as a read-only
    mapping, so a built instance stays the one that was checked."""

    k_s0: float = 0.2            # temperature/voltage independent static floor [W]
    k_v: float = 1.2             # leakage voltage sensitivity [1/V]
    k_t: float = 0.02            # leakage temperature sensitivity [1/degC]
    k_t0: float = -2.0           # leakage offset
    icc: float = 0.4             # per-element leakage current scale [A]
    ceff_by_class: types.MappingProxyType = field(
        default_factory=lambda: {0: 0.6e-9, 1: 1.0e-9, 2: 1.5e-9})
    vf_table: tuple = ((0.6, 1.2e9), (0.8, 2.0e9), (1.0, 2.8e9))
    p_min: float = 0.0
    p_max: float = 4.0
    t_limit: float = 85.0        # silicon cap [degC]

    def __post_init__(self):
        object.__setattr__(self, "vf_table", tuple((float(v), float(f)) for v, f in self.vf_table))
        object.__setattr__(self, "ceff_by_class", types.MappingProxyType(dict(self.ceff_by_class)))
        scalars = [self.k_s0, self.k_v, self.k_t, self.k_t0, self.icc, self.p_min,
                   self.p_max, self.t_limit, *np.ravel(self.vf_table),
                   *self.ceff_by_class.values()]
        if not np.isfinite(scalars).all():
            raise ValueError("power model parameters must be finite")
        vs = [v for v, _ in self.vf_table]
        fs = [f for _, f in self.vf_table]
        if not vs or min(vs) <= 0 or min(fs) <= 0:
            raise ValueError("vf_table must be non-empty with positive V and F")
        if sorted(vs) != vs or sorted(fs) != fs or len(set(vs)) != len(vs):
            raise ValueError("vf_table must be strictly increasing in V and F")
        if not self.ceff_by_class or min(self.ceff_by_class.values()) <= 0:
            raise ValueError("ceff_by_class values must be positive")
        if self.k_v < 0 or self.k_t < 0 or self.icc < 0:
            raise ValueError("k_v, k_t and icc must be non-negative: leakage grows with V and T")
        if self.p_min > self.p_max:
            raise ValueError("p_min must not exceed p_max")

    def ceff(self, classes):
        """Effective switched capacitance per PE of the workload classes."""
        match = np.asarray(classes)[..., None] == list(self.ceff_by_class)
        if not match.any(axis=-1).all():
            raise KeyError(f"unknown workload class in {classes}")
        return np.array(list(self.ceff_by_class.values()))[match.argmax(axis=-1)]

    def leakage_gain(self, t_si, v):
        return np.exp(self.k_v * v + self.k_t * t_si + self.k_t0)

    def frozen_gain(self):
        """Gain at the worst-case corner, the top table rail at ``t_limit``;
        keeps the controller model linear.

        With k_v, k_t >= 0, checked when the params are built, it bounds
        the plant's gain ``leakage_gain(t, v)`` on every table rail v while
        silicon is at or below the cap, t <= t_limit.
        """
        return float(self.leakage_gain(self.t_limit, self.vf_table[-1][0]))


def power_forward(params: PowerModelParams, v, f, ceff, gain):
    """Power at operating points (v, f) with leakage ``gain``."""
    return params.k_s0 + params.icc * v * gain + ceff * f * v * v


def power_over_temperature(params: PowerModelParams, v, f, ceff):
    """Power at fixed operating points (v, f) as a function of silicon
    temperature: ``p(t, out)`` writes into ``out`` the bits of
    ``power_forward(params, v, f, ceff, params.leakage_gain(t, v))``, in
    their operand order, and returns ``out``. The temperature-independent
    terms k_v*v, icc*v and ceff*f*v*v are computed once, here, rather than
    at each ``p(t, out)``.

    ``p`` takes float64 temperatures ``t`` and a float64 ``out`` of v's
    shape; ``out`` may be ``t`` itself, as each step reads only the entry
    it writes. Its constants k_s0, k_t and k_t0 are float64 arrays of that
    shape, made here too, and each step is a ufunc called with ``out`` in
    its positional slot: the plant calls ``p`` 12 times per step on
    vectors of a few dozen entries, where converting a Python-float
    operand, allocating a result and parsing an ``out=`` keyword are much
    of each call."""
    kv_v, icc_v, dynamic = params.k_v * v, params.icc * v, ceff * f * v * v
    k_s0, k_t, k_t0 = (np.full(np.shape(dynamic), c, np.float64)
                       for c in (params.k_s0, params.k_t, params.k_t0))
    add, multiply, exp = np.add, np.multiply, np.exp

    def p(t_si, out):
        # k_s0 + icc_v * exp(kv_v + k_t * t_si + k_t0) + dynamic
        multiply(k_t, t_si, out)
        add(kv_v, out, out)
        add(out, k_t0, out)
        exp(out, out)
        multiply(icc_v, out, out)
        add(k_s0, out, out)
        return add(out, dynamic, out)

    return p


def _frequency(params, p, v, ceff, gain):
    """Frequency at which the model draws p on rail v."""
    return (p - (params.k_s0 + params.icc * v * gain)) / (ceff * v * v)


def rail_for_frequency(params: PowerModelParams, f):
    """Lowest table voltage whose maximum frequency reaches f; the top
    rail above the table."""
    f = np.asarray(f, dtype=np.float64)
    v = np.full(f.shape, params.vf_table[-1][0])
    for v_i, fmax in reversed(params.vf_table[:-1]):
        v[f <= fmax] = v_i
    return v


def smallest_feasible_voltage(params: PowerModelParams, p, ceff, gain):
    """Lowest table voltage at which p is met with 0 <= f <= fmax.

    A target no table voltage can meet gets the lowest rail if it is
    below that rail's static power, the top rail otherwise.
    """
    p = np.asarray(p, dtype=np.float64)
    v = np.full(p.shape, params.vf_table[-1][0])
    # from the top down, so that the lowest rail meeting the target wins
    for i in range(len(params.vf_table) - 2, -1, -1):
        v_i, fmax = params.vf_table[i]
        f = _frequency(params, p, v_i, ceff, gain)
        meets = f <= fmax
        if i > 0:
            meets &= f >= 0.0   # the lowest rail also takes targets below its floor
        v[meets] = v_i
    return v


def power_inverse(params: PowerModelParams, p, v, ceff, gain):
    """Frequencies realising targets p on the table rails v.

    Returns (f, clamped): f is clipped to [0, fmax(v)], and ``clamped``
    marks the PEs whose target needed a frequency outside that range.
    A voltage below the lowest rail has no fmax, and gets f = NaN.
    """
    v = np.asarray(v, dtype=np.float64)
    fmax = np.full(v.shape, np.nan)
    v_tol = v + 1e-12
    for v_i, f_i in params.vf_table:
        fmax[v_tol >= v_i] = f_i
    f = _frequency(params, np.asarray(p, dtype=np.float64), v, ceff, gain)
    clipped = np.minimum(np.maximum(f, 0.0), fmax)
    return clipped, clipped != f
