"""Tests of the benchmark itself, on tiny inputs (``--small``)."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


@pytest.fixture(scope="module")
def workloads():
    return run.import_workloads(ROOT / "src")


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def test_spec_matches_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert E2E == run.E2E_UNITS
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_every_metric_emitted_with_unit(workload):
    for trace, want in ((0, E2E), (1, LAYER)):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
             "--seconds", "0.5", "--trace", str(trace), "--small"],
            cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        printed = {ln.split()[2] for ln in lines if ln.startswith("metric ")}
        assert set(want) | {"failed_frac"} <= printed


def test_perturbed_output_is_counted_as_failed(workloads):
    tasks = workloads.build("cft_catalog", 3, small=True)
    victim = next(t for t in tasks if t.name.startswith("mm_n2_phi21"))

    def perturbed(ctx, _run=victim.run):
        model, vals, circ = _run(ctx)
        return model, vals * (1 + 1e-6), circ

    tasks = [dataclasses.replace(t, run=perturbed) if t is victim else t for t in tasks]
    result = run.run_workload(workloads, "cft_catalog", 3, 0.0, False, tasks=tasks)
    assert result["results"][victim.name][0] == "failed"
    s = run.summarize(result, setup_s=1.0)
    assert s["counts"]["failed"] == len(result["passes"])
    assert s["extra"]["failed_frac"][0] > 0


def test_unperturbed_small_chain_has_no_failures(workloads):
    result = run.run_workload(workloads, "chain_threshold", 3, 0.0, False, small=True)
    s = run.summarize(result, setup_s=1.0)
    assert s["counts"]["failed"] == 0 and s["counts"]["known_defect"] == 0


@pytest.mark.parametrize("workload", ["cft_catalog", "cli_suite"])
def test_traced_self_times_fit_in_wall(workload, workloads):
    spans = []
    result = run.run_workload(workloads, workload, 3, 0.0, True, small=True, spans_out=spans)
    traced = [p for p in result["passes"] if p["traced"]]
    assert traced and spans
    layers = ("frobenius", "monodromy", "catalog", "rsos", "yanglee_chain", "cli")
    for p in traced:
        layer_self = sum(p["layers"][f"{layer}.self_s"][0] for layer in layers)
        overhead = p["layers"]["trace.overhead_s"][0]
        assert 0 < layer_self and 0 < overhead
        assert layer_self + overhead <= sum(p["times"].values())
    reported = run.summarize(result, setup_s=1.0)["layers"]
    for layer in layers:
        assert reported[f"{layer}.self_s"][0] <= reported["trace.wall_s"][0]
    # every span lies inside its parent
    by_id = {sp[0]: sp for sp in spans}
    for sp in spans:
        if sp[4] is not None:
            parent = by_id[sp[4]]
            assert parent[2] <= sp[2] and sp[3] <= parent[3]
    assert all(np.isfinite([sp[3] - sp[2] for sp in spans]))
