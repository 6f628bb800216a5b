import pytest

from etmpc.power import PowerModelParams
from etmpc.pruning import CutoffSelectionError, select_cutoff
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
