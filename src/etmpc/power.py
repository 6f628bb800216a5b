"""Static + dynamic power model and its inversion to operating points.

p = k_s0 + icc*v * gain(t, v) + c_eff * f * v^2, with an exponential
voltage/temperature leakage gain. The controller freezes the gain at the
worst-case corner so its view of the plant stays linear; the simulated
plant evaluates it at the instantaneous temperature.

Every function works elementwise over arrays of PEs, and this module is
the only place that evaluates the formula or searches ``vf_table``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PowerModelParams:
    k_s0: float = 0.2            # temperature/voltage independent static floor [W]
    k_v: float = 1.2             # leakage voltage sensitivity [1/V]
    k_t: float = 0.02            # leakage temperature sensitivity [1/degC]
    k_t0: float = -2.0           # leakage offset
    icc: float = 0.4             # per-element leakage current scale [A]
    ceff_by_class: dict = field(default_factory=lambda: {0: 0.6e-9, 1: 1.0e-9, 2: 1.5e-9})
    vf_table: list = field(default_factory=lambda: [(0.6, 1.2e9), (0.8, 2.0e9), (1.0, 2.8e9)])
    p_min: float = 0.0
    p_max: float = 4.0
    t_limit: float = 85.0        # silicon cap [degC]

    def validate(self):
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
        return self

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

        With k_v, k_t >= 0 (see ``validate``) it bounds the plant's gain
        ``leakage_gain(t, v)`` on every table rail v while silicon is at or
        below the cap, t <= t_limit.
        """
        return float(self.leakage_gain(self.t_limit, self.vf_table[-1][0]))


def power_forward(params: PowerModelParams, v, f, ceff, gain):
    """Power at operating points (v, f) with leakage ``gain``."""
    return params.k_s0 + params.icc * v * gain + ceff * f * v * v


def power_over_temperature(params: PowerModelParams, v, f, ceff):
    """Power at fixed operating points (v, f) as a function of silicon
    temperature: ``p(t)`` gives the bits of ``power_forward(params, v, f,
    ceff, params.leakage_gain(t, v))``, in their operand order, with the
    temperature-independent terms k_v*v, icc*v and ceff*f*v*v computed
    once, here, rather than at each ``p(t)``.

    ``p`` takes float64 temperatures of v's shape. Its constants k_s0, k_t
    and k_t0 are float64 arrays of that shape, made here too: the plant
    calls ``p`` 40 times per step on vectors of a few dozen entries, where
    converting a Python-float operand is much of each ufunc call."""
    kv_v, icc_v, dynamic = params.k_v * v, params.icc * v, ceff * f * v * v
    k_s0, k_t, k_t0 = (np.full(np.shape(dynamic), c, np.float64)
                       for c in (params.k_s0, params.k_t, params.k_t0))

    def p(t_si):
        return k_s0 + icc_v * np.exp(kv_v + k_t * t_si + k_t0) + dynamic

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
