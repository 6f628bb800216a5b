"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench

Every workload runs at a tiny length in both modes and emits every metric
that BENCHMARK.json names, and the KKT gate trips on a perturbed factor.
"""

import json

import numpy as np
import pytest

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_tiny_run_is_correct_and_emits_every_metric(name, trace):
    result, lines = run.run(name, seed=1, seconds=0, trace=trace, steps=4, min_solves=0)
    assert result["correct"], lines
    assert result["attempted"] >= 4 and result["failed"] == 0
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and np.isfinite(got["value"])
    if not trace:
        printed = {line.split()[0] for line in lines}
        assert set(run.END_TO_END) <= printed
        assert {"environment", "structure", "fingerprint", "kkt_gate"} <= printed


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)


def test_kkt_gate_trips_when_one_factor_value_is_perturbed():
    bench = run.Run(run.WORKLOADS["p2x2_loop"], seed=1)
    _, _, _, solver = run.bring_up(bench.spec, bench.params, bench.settings)
    bench.gate(solver)
    assert not bench.errors
    values = solver.kkt.factor.L.values
    values[np.argmax(np.abs(values))] *= 1 + 1e-6
    bench.gate(solver)
    assert bench.errors and "KKT gate" in bench.errors[0]
