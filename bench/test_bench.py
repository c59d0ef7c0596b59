"""Self-test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_bench.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
no operation fails, and that a wrong result slipped in through a stubbed
library call is counted as a failure.
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import run as bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "COLD_START_RUNS", 1)
    monkeypatch.setattr(workloads, "SOLVE_WEIGHTS", ((1, 2, 4),))
    monkeypatch.setattr(workloads, "WEIGHT_SET", ((1, 2), (1, 2, 4)))
    monkeypatch.setattr(workloads, "BIG_RESONANCE", (1, 1, 2))
    monkeypatch.setattr(workloads, "BIG_BERGMAN", ((1, 2, 3),))
    for cls in workloads.WORKLOADS.values():
        monkeypatch.setattr(cls, "setup_rounds", 1)
        monkeypatch.setattr(cls, "traced_rounds", 1)


def test_benchmark_json_matches_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(bench.PER_LAYER)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_present_and_nothing_fails(tiny, name, trace):
    result = bench.run(name, seed=5, seconds=0, trace=trace)
    expected = dict(bench.PER_LAYER if trace else bench.END_TO_END)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]


def wrong_solution(workload):
    qc = workload.qc
    solve = qc.solve_conjugacy

    def stub(f, weights):
        return dataclasses.replace(solve(f, weights), sigma=qc.identity_sigma(weights))

    qc.solve_conjugacy = stub


def wrong_composition(workload):
    workload.qc.compose_sigma = lambda outer, inner: outer


def wrong_cli_output(workload):
    run = workload.cli.run

    def stub(argv):
        code = run(argv)
        print("{}")
        return code

    workload.cli.run = stub


INJECTIONS = {
    "solve_roundtrip": wrong_solution,
    "map_algebra": wrong_composition,
    "cli_mix": wrong_cli_output,
}


def test_latencies_are_scaled_to_the_reference_speed(monkeypatch):
    readings = iter([2 * bench.REFERENCE_S, 2 * bench.REFERENCE_S, 4 * bench.REFERENCE_S])
    monkeypatch.setattr(bench, "kernel_s", lambda: next(readings))
    stats = bench.Stats()
    stats.add(0.01)
    stats.calibrate()
    stats.add(0.03)
    stats.calibrate()
    # half speed on both sides, then half and quarter speed: mean 3x the reference time
    assert stats.latencies == pytest.approx([0.005, 0.01])
    assert stats.busy == pytest.approx(0.04)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_injected_wrong_result_is_a_failure(tiny, name):
    result = bench.run(name, seed=5, seconds=0, trace=False, patch=INJECTIONS[name])
    assert result["failed"] >= 1
    assert not result["correct"]
