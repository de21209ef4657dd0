"""Smoke runs of every workload through ``bench/run.py``, untraced and
traced, plus the tracer's install/uninstall and the bare-directory refusal.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke(workload):
    res = _result(_run(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    names = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == names
    assert all(v["value"] > 0 for v in res["metrics"].values())


BYPASSED = {
    "simulate_fit": ("quad.panels", "model.tables"),
    "surface": ("simulate.shards",),
    "recover": ("incgamma.calls", "hazards.inverse_calls", "simulate.shards"),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke(workload):
    first = _result(_run(workload, 1))
    second = _result(_run(workload, 1))
    assert first["correct"] and first["failed"] == 0
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == names
    counts = {k for k, unit in names.items() if unit == "count"}
    for name in counts:
        assert first["metrics"][name]["value"] == \
            second["metrics"][name]["value"], name
    for name in BYPASSED[workload]:
        assert first["metrics"][name]["value"] == 0, name
    trace_file = BENCH / "out" / f"trace-{workload}-seed3.json"
    assert json.loads(trace_file.read_text())["counts_repeat"] is True


def test_tracer_restores_the_package():
    import frailtykit
    from frailtykit import _quad, hazards, identifiability, model
    import spans

    before = (model.integrate, model._hazard_array, hazards._hazard_array,
              identifiability._Parametrization.unpack, frailtykit.lst)
    tracer = spans.Tracer()
    tracer.install("frailtykit")
    try:
        assert model.integrate is not before[0]
        assert model._hazard_array is not before[1]
        m = frailtykit.ModelSpec.from_lists(
            frailtykit.FrailtyStructure("shared", 1, 1),
            [frailtykit.HazardSpec("weibull", 1.5, 0.5)],
            [frailtykit.HazardSpec("weibull", 1.5, 0.5)],
            frailtykit.DiscreteFrailty(
                frailtykit.FrailtyStructure("shared", 1, 1), [[1.0]], [1.0]))
        frailtykit.joint_sub_distribution_grid(m, [0.5, 1.0], [0.5, 1.0])
        assert tracer.counts["model.tables"] == 2
        assert tracer.counts["quad.panels"] > 0
        assert tracer.layer_self["quad"] > 0.0
    finally:
        tracer.uninstall()
    after = (model.integrate, model._hazard_array, hazards._hazard_array,
             identifiability._Parametrization.unpack, frailtykit.lst)
    assert all(a is b for a, b in zip(before, after))
    assert _quad.integrate is before[0]


def test_bare_directory_fails(tmp_path):
    """Without the program's sources the benchmark prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("surface", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
