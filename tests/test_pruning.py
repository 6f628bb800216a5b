import numpy as np
import pytest

from etmpc import pruning
from etmpc.power import PowerModelParams
from etmpc.pruning import CutoffSelectionError, prune_matrix, select_cutoff
from etmpc.simulate import default_scenario
from etmpc.thermal import GridSpec, build_thermal_model, default_domains, discretize


@pytest.fixture(scope="module")
def p2x2():
    spec = GridSpec(2, 2, hp=2, domains=default_domains(2, 2))
    model = build_thermal_model(spec)
    discretize(model)
    return model, default_scenario(spec, PowerModelParams(), duration=0.02)


def test_select_cutoff_returns_largest_passing_candidate(p2x2):
    model, scenario = p2x2
    chosen, report = select_cutoff(model, scenario, [0.02, 0.0, 0.005, 0.001], band=0.05)
    # deviations grow with the cutoff here; 0.02 leaves the band
    assert report.deviations[0.0] == 0.0
    assert report.deviations[0.005] <= 0.05 < report.deviations[0.02]
    assert chosen == report.cutoff == 0.005


def test_select_cutoff_raises_with_best_candidate_when_none_passes(p2x2):
    model, scenario = p2x2
    with pytest.raises(CutoffSelectionError) as err:
        select_cutoff(model, scenario, [0.02, 0.005], band=1e-9)
    assert err.value.best_candidate == 0.005
    assert err.value.deviation > 1e-9


@pytest.mark.parametrize("cutoff", [np.nan, -1e-3])
def test_prune_matrix_rejects_a_cutoff_that_is_not_non_negative(cutoff):
    with pytest.raises(ValueError, match="cutoff"):
        prune_matrix(np.ones((2, 2)), cutoff)


@pytest.mark.parametrize("keep_mask", [[True, False, False], [[True], [False], [False]]])
def test_prune_matrix_rejects_a_keep_mask_that_would_broadcast(keep_mask):
    """Broadcast, a length-n mask would protect column 0, keeping 0.001 and
    0.002 at a cutoff of 0.01, and an (n, 1) one row 0, keeping 0.003 and
    0.004."""
    mat = np.array([[1.0, 0.003, 0.004], [0.001, 1.0, 0.5], [0.002, 0.5, 1.0]])
    with pytest.raises(ValueError, match="keep_mask"):
        prune_matrix(mat, 0.01, keep_mask=keep_mask)
    pruned = prune_matrix(mat, 0.01, keep_mask=np.eye(3, dtype=bool))
    assert pruned.tobytes() == np.where(np.abs(mat) < 0.01, 0.0, mat).tobytes()


@pytest.mark.parametrize("candidates", [[], [0.005, np.nan], [-0.01]])
def test_select_cutoff_rejects_bad_candidates_before_any_run(p2x2, candidates, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran the closed loop")

    monkeypatch.setattr(pruning, "run_closed_loop", no_run)
    model, scenario = p2x2
    with pytest.raises(ValueError, match="cutoff"):
        select_cutoff(model, scenario, candidates)


@pytest.mark.parametrize("band", [np.nan, -0.1])
def test_select_cutoff_rejects_a_bad_band_before_any_run(p2x2, band, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("ran the closed loop")

    monkeypatch.setattr(pruning, "run_closed_loop", no_run)
    model, scenario = p2x2
    with pytest.raises(ValueError, match="band"):
        select_cutoff(model, scenario, [0.005], band=band)
