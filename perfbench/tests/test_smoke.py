"""Smoke test of the benchmark harness at toy size (GF(9)/GF(3)).

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)], toy=True)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared)
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    for name, unit in declared.items():
        assert any(line.startswith(f"{name} = ") and f" {unit} (" in line
                   for line in lines[:-1]), name
    assert any(line.startswith("failed_ops_ratio = 0 ") for line in lines)
    if workload == "cold_repair" and not trace:
        # Only cold_repair times an encode and a cold start in every op.
        for name in ("encode_ms_p50", "cold_repair_ms_p50"):
            assert any(line.startswith(f"{name} = ") and "no bound" in line
                       for line in lines), name


def test_wrong_expected_symbol_is_flagged(monkeypatch):
    tr = run.load_package()
    wl = workloads.SteadyRepair(tr, toy=True)
    rng = random.Random(5)
    wl.setup(rng)
    inputs = wl.inputs(rng)

    real = workloads.check_repair

    def off_by_one(expected, *rest):
        real(expected + 1, *rest)

    monkeypatch.setattr(workloads, "check_repair", off_by_one)
    passes, failed = run.run_loop(
        0.05, lambda j: run.run_pass(wl, inputs, workloads.Recorder()))
    assert passes >= run.MIN_PASSES and failed == passes * len(inputs)


def test_missing_wrapper_target_is_absent(monkeypatch):
    run.load_package()
    gone = (("linalg.gone", "linalg", "Gone.solve", None), ("nowhere.x", "nowhere", "x", None))
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + gone)
    with tracing.instrument(run.PACKAGE, tracing.Tracer()) as absent:
        pass
    assert absent == ["linalg.gone", "nowhere.x"]


def test_absent_layer_has_no_value(monkeypatch):
    tr = run.load_package()
    monkeypatch.setattr(tracing, "TARGETS", tuple(
        (name, module, "LUFactorization.gone" if name == "linalg.lu_solve" else path, caller)
        for name, module, path, caller in tracing.TARGETS))
    wl = workloads.SteadyRepair(tr, toy=True)
    _, failed, metrics, _, extra = run.per_layer(tr, wl, random.Random(2), random.Random(3), 0.05)
    assert failed == 0 and extra["absent"] == ["linalg.lu_solve"]
    assert metrics["linalg.lu_solve_ms"] is None
    assert metrics["linalg.lu_factor_ms"] > 0 and metrics["repair.recover_ms"] > 0
