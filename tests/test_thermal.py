import dataclasses

import numpy as np
import pytest

from etmpc.thermal import (
    GridSpec,
    ThermalConstants,
    ThermalPlantModel,
    build_thermal_model,
    default_domains,
    discretize,
)


def test_1x1_grid_dimensions_and_passivity():
    model = build_thermal_model(GridSpec(1, 1))
    assert model.n_x == 3
    assert np.all(model.a_t.sum(axis=1) <= 1e-12)
    off = model.a_t - np.diag(np.diag(model.a_t))
    assert np.all(off >= 0)


def test_scalar_analog_stationary_gain():
    # dT/dt = -a T + b P with a = b = 1: stationary gain b/a = 1
    spec = GridSpec(1, 1)
    model = ThermalPlantModel(spec, ThermalConstants(), np.array([[-1.0]]),
                              np.array([[1.0]]), np.array([[1.0]]))
    gain = -np.linalg.solve(model.a_t, model.b_t)
    np.testing.assert_allclose(gain, [[1.0]])


def test_3x3_adjacency_pattern():
    spec = GridSpec(3, 3)
    model = build_thermal_model(spec)
    # silicon row of element i couples to: itself, copper, and lateral neighbors
    for i in range(9):
        row = model.a_t[2 * i]
        coupled = set(np.nonzero(row)[0].tolist())
        expect = {2 * i, 2 * i + 1} | {2 * j for j in spec.neighbors(i)}
        assert coupled == expect
    corner = len(spec.neighbors(0))
    center = len(spec.neighbors(4))
    assert corner == 2 and center == 4


def test_rejects_nonpositive_constants():
    with pytest.raises(ValueError):
        build_thermal_model(GridSpec(2, 2), ThermalConstants(c_si=-1.0))


@pytest.mark.parametrize("name", ["r_si_lat", "r_si_cu", "r_cu_sink", "r_sink_amb",
                                  "c_si", "c_cu", "c_sink"])
def test_rejects_nan_constants(name):
    with pytest.raises(ValueError, match=name):
        build_thermal_model(GridSpec(2, 2), ThermalConstants(**{name: np.nan}))


@pytest.mark.parametrize("name", ["r_si_lat", "r_si_cu", "r_cu_sink", "r_sink_amb",
                                  "c_si", "c_cu", "c_sink", "t_amb"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_rejects_non_finite_constants(name, value):
    with pytest.raises(ValueError, match=name):
        ThermalConstants(**{name: value}).validate()


def test_discretize_scalar_analytic():
    spec = GridSpec(1, 1, ts=0.1)
    model = ThermalPlantModel(spec, ThermalConstants(), np.array([[-1.0]]),
                              np.array([[1.0]]), np.array([[1.0]]))
    d, e = discretize(model)
    np.testing.assert_allclose(d, [[np.exp(-0.1)]], rtol=1e-12)
    np.testing.assert_allclose(e, [[1.0 - np.exp(-0.1)]], rtol=1e-12)


def test_discretize_ts_to_zero_limit():
    d1, _ = discretize(build_thermal_model(GridSpec(2, 2, ts=1e-3)))
    model = build_thermal_model(GridSpec(2, 2, ts=1e-4))
    d2, _ = discretize(model)
    assert np.linalg.norm(d2 - np.eye(model.n_x)) < np.linalg.norm(d1 - np.eye(model.n_x))


def test_discrete_spectral_radius_below_one():
    model = build_thermal_model(GridSpec(3, 3, ts=1e-3))
    d, _ = discretize(model)
    # power iteration oracle
    v = np.ones(model.n_x)
    for _ in range(500):
        v = d @ v
        v /= np.linalg.norm(v)
    rho = np.linalg.norm(d @ v)
    assert rho < 1.0
    assert np.max(np.abs(np.linalg.eigvals(d))) < 1.0


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(-1, -1)  # nw * nh is 1, but it is no grid
    with pytest.raises(ValueError):
        GridSpec(0, 3)
    with pytest.raises(ValueError):
        GridSpec(2, 2, hp=1.5)
    with pytest.raises(ValueError):
        GridSpec(2.0, 2)
    with pytest.raises(ValueError):
        GridSpec(2, 2, hp=0)
    with pytest.raises(ValueError):
        GridSpec(2, 2, ts=0.0)
    with pytest.raises(ValueError):
        GridSpec(2, 2, ts=-1e-3)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(2, 2, ts=np.inf)   # discretize would return non-finite matrices
    with pytest.raises(ValueError):
        GridSpec(2, 2, domains=[[0, 1]])  # does not cover all four elements


def test_grid_spec_is_frozen():
    # a model discretized at one sample time cannot be relabelled with another
    spec = GridSpec(2, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.ts = 5e-3


def test_default_domains_partition():
    doms = default_domains(4, 3)
    flat = sorted(i for d in doms for i in d)
    assert flat == list(range(12))
    assert len(doms) == 2
