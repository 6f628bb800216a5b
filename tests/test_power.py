import numpy as np
import pytest

from etmpc.power import (PowerModelParams, power_forward, power_inverse, power_over_temperature,
                         rail_for_frequency, smallest_feasible_voltage)


def flat_params(**kw):
    """Gain pinned at 1: k_v = k_t = k_t0 = 0."""
    base = dict(k_s0=0.2, k_v=0.0, k_t=0.0, k_t0=0.0, icc=0.1,
                ceff_by_class={0: 1e-9}, vf_table=[(0.8, 2.5e9)])
    base.update(kw)
    return PowerModelParams(**base)


def test_forward_hand_arithmetic():
    # p_stat = 0.2 + 0.08*1 = 0.28; p_dyn = 1e-9 * 1e9 * 0.64 = 0.64, and 0.28 at f = 0
    p = flat_params()
    gain = p.leakage_gain(60.0, 0.8)
    assert gain == 1.0
    got = power_forward(p, 0.8, np.array([1e9, 0.0]), p.ceff([0, 0]), gain)
    np.testing.assert_allclose(got, [0.92, 0.28])


def test_inverse_hand_arithmetic():
    p = flat_params()
    ceff = p.ceff([0])
    assert smallest_feasible_voltage(p, [0.92], ceff, 1.0).tolist() == [0.8]
    f, clamped = power_inverse(p, [0.92], [0.8], ceff, 1.0)
    assert not clamped.any()
    np.testing.assert_allclose(f, [1e9])


def test_round_trip_fuzz_unclamped():
    params = PowerModelParams()
    rng = np.random.default_rng(0)
    n = 200
    t = rng.uniform(40.0, 85.0, n)
    ceff = params.ceff(rng.integers(0, 3, n))
    vs, fs = np.array(params.vf_table).T
    rail = rng.integers(len(vs), size=n)
    v, f = vs[rail], rng.uniform(0.0, fs[rail])
    gain = params.leakage_gain(t, v)
    p = power_forward(params, v, f, ceff, gain)
    f2, clamped = power_inverse(params, p, v, ceff, gain)
    assert not clamped.any()
    np.testing.assert_allclose(power_forward(params, v, f2, ceff, gain), p, rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(f2, f, rtol=1e-6)


def test_inverse_picks_smallest_feasible_voltage():
    params = PowerModelParams()
    gain = params.frozen_gain()
    (v0, f0), (v1, _), _ = params.vf_table
    ceff = params.ceff([1, 1])
    # comfortably inside the lowest rail's range, and just beyond its fmax
    p = power_forward(params, v0, np.array([0.5 * f0, 1.01 * f0]), ceff, gain)
    assert smallest_feasible_voltage(params, p, ceff, gain).tolist() == [v0, v1]
    f, clamped = power_inverse(params, p, [v0, v0], ceff, gain)
    assert clamped.tolist() == [False, True]
    assert f[1] == f0


def test_inverse_below_static_floor_clamps():
    params = PowerModelParams()
    gain, ceff = params.frozen_gain(), params.ceff([1])
    v = smallest_feasible_voltage(params, [0.0], ceff, gain)
    f, clamped = power_inverse(params, [0.0], v, ceff, gain)
    assert v.tolist() == [params.vf_table[0][0]]
    assert f.tolist() == [0.0] and clamped.all()


def test_inverse_above_range_clamps_to_top():
    params = PowerModelParams()
    gain, ceff = params.frozen_gain(), params.ceff([1])
    v = smallest_feasible_voltage(params, [100.0], ceff, gain)
    f, clamped = power_inverse(params, [100.0], v, ceff, gain)
    assert v.tolist() == [params.vf_table[-1][0]]
    assert f.tolist() == [params.vf_table[-1][1]] and clamped.all()


def test_mixed_cases_in_one_array_call():
    params = PowerModelParams()
    gain = params.frozen_gain()
    (v0, f0), (v1, f1), (vt, ft) = params.vf_table
    ceff = params.ceff([0, 1, 2, 1, 2, 0])
    static0 = params.k_s0 + params.icc * v0 * gain
    targets = np.array([
        0.0,                                                  # below the floor
        power_forward(params, v0, 0.25 * f0, ceff[1], gain),  # inside the lowest rail
        100.0,                                                # above the range
        static0,                                              # exactly on rail 0's floor
        power_forward(params, v1, 0.99 * f1, ceff[4], gain),  # just below rail 1's fmax
        power_forward(params, vt, 0.5 * ft, ceff[5], gain),   # needs the top rail
    ])
    v = smallest_feasible_voltage(params, targets, ceff, gain)
    f, clamped = power_inverse(params, targets, v, ceff, gain)
    assert v.tolist() == [v0, v0, vt, v0, v1, vt]
    assert clamped.tolist() == [True, False, True, False, False, False]
    assert f[0] == 0.0 and f[2] == ft and f[3] == 0.0
    np.testing.assert_allclose(f[[1, 4, 5]], [0.25 * f0, 0.99 * f1, 0.5 * ft], rtol=1e-12)


def test_rail_for_frequency():
    params = PowerModelParams()
    (v0, f0), (v1, f1), (vt, ft) = params.vf_table
    got = rail_for_frequency(params, np.array([0.0, f0, 1.001 * f0, f1, ft, 2 * ft]))
    assert got.tolist() == [v0, v0, v1, v1, vt, vt]


def test_ceff_per_element():
    params = PowerModelParams()
    assert params.ceff(np.array([2, 0, 1, 2])).tolist() == [1.5e-9, 0.6e-9, 1.0e-9, 1.5e-9]
    with pytest.raises(KeyError):
        params.ceff([1, 3])


def test_vf_table_must_increase():
    with pytest.raises(ValueError):
        PowerModelParams(vf_table=[(0.8, 2e9), (0.6, 1e9)]).validate()


@pytest.mark.parametrize("bad", [
    dict(vf_table=[]),
    dict(vf_table=[(0.0, 1e9), (0.8, 2e9)]),
    dict(vf_table=[(-0.6, 1e9), (0.8, 2e9)]),
    dict(vf_table=[(0.6, 0.0), (0.8, 2e9)]),
    dict(vf_table=[(0.6, -1e9), (0.8, 2e9)]),
    dict(ceff_by_class={0: 1e-9, 1: 0.0}),
    dict(ceff_by_class={0: -1e-9}),
], ids=["empty_table", "zero_v", "negative_v", "zero_f", "negative_f", "zero_ceff",
        "negative_ceff"])
def test_validate_rejects_bad_tables(bad):
    with pytest.raises(ValueError):
        PowerModelParams(**bad).validate()


def test_frozen_gain_at_corner():
    params = PowerModelParams()
    assert params.frozen_gain() == params.leakage_gain(params.t_limit, params.vf_table[-1][0])


def test_frozen_gain_bounds_the_plant_gain_at_or_below_the_cap():
    params = PowerModelParams(vf_table=[(0.7, 1.5e9), (0.9, 2.4e9), (1.1, 3.2e9)],
                              t_limit=95.0).validate()
    assert params.frozen_gain() == params.leakage_gain(95.0, 1.1)
    rails = np.array(params.vf_table)[:, 0]
    t = np.linspace(-20.0, 95.0, 116)[:, None]
    assert np.all(params.leakage_gain(t, rails) <= params.frozen_gain())


@pytest.mark.parametrize("params", [
    PowerModelParams(),
    PowerModelParams(vf_table=[(0.7, 1.5e9), (0.9, 2.4e9), (1.1, 3.2e9)], t_limit=95.0),
], ids=["default", "other-table"])
def test_power_over_temperature_has_the_bits_of_power_forward_at_the_leakage_gain(params):
    rng = np.random.default_rng(5)
    # every rail at f = 0, at its fmax and at a random f between, for every class
    rows = [(v, f, c) for v, fmax in params.vf_table
            for f in (0.0, fmax, rng.uniform(0.0, fmax)) for c in params.ceff_by_class]
    v, f, classes = (np.array(column) for column in zip(*rows))
    ceff = params.ceff(classes)
    p = power_over_temperature(params, v, f, ceff)
    temps = [np.full(v.shape, t) for t in np.linspace(-40.0, 150.0, 96)]
    temps += [rng.uniform(-40.0, 150.0, v.shape) for _ in range(20)]
    for t in temps:
        want = power_forward(params, v, f, ceff, params.leakage_gain(t, v))
        assert p(t).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [dict(k_v=-1.2), dict(k_t=-0.02), dict(icc=-0.4)],
                         ids=["k_v", "k_t", "icc"])
def test_validate_rejects_leakage_falling_with_v_or_t(bad):
    # the frozen corner bounds the plant's gain only if leakage grows with V and T
    with pytest.raises(ValueError):
        PowerModelParams(**bad).validate()



SCALARS = ("k_s0", "k_v", "k_t", "k_t0", "icc", "p_min", "p_max", "t_limit")


@pytest.mark.parametrize("name, value", [
    *((name, value) for name in SCALARS for value in (np.nan, np.inf)),
    ("vf_table", [(0.6, 1.2e9), (np.nan, 2e9)]),
    ("vf_table", [(0.6, 1.2e9), (0.8, np.inf)]),
    ("ceff_by_class", {0: 1e-9, 1: np.nan}),
    ("ceff_by_class", {0: np.inf}),
], ids=[*(f"{name}-{value}" for name in SCALARS for value in ("nan", "inf")),
        "vf_table-nan_v", "vf_table-inf_f", "ceff-nan", "ceff-inf"])
def test_validate_rejects_non_finite_parameters(name, value):
    with pytest.raises(ValueError, match="finite"):
        PowerModelParams(**{name: value}).validate()
