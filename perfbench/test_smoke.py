"""Smoke test of the benchmark itself: every workload once, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (the benchmark script, imported for its tables)
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert result["metrics"]["ok_ops_ratio"]["value"] == 1.0
        for m in declared:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_benchmark_json_matches_the_script():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.per_layer_units())


def test_refuses_to_run_without_package_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "api-k3-demo-new",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_patches_every_lookup_site_and_marks_missing_targets(monkeypatch):
    _, codec, repair, metering = run.load_package()
    from hadamard_msr import cluster

    original = repair.build_repair_plan
    monkeypatch.setattr(tracing, "TARGETS", (
        ("repair.build_repair_plan", "repair", "build_repair_plan"),
        ("codec.decode", "codec", "decode"),
        ("codec.gone", "codec", "no_such_function"),
        ("cluster.gone", "cluster", "NoSuchClass.method"),
        ("gone.module", "no_such_module", "f"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == ["codec.gone", "cluster.gone", "gone.module"]
        for module in (repair, cluster, metering):
            assert module.build_repair_plan is not original
            assert module.build_repair_plan.__wrapped__ is original
        tracer.set_phase("cycle")
        params = codec.demo_params(3)
        repair.build_repair_plan.cache_clear()
        word = codec.encode(params, [[1] * params.n] * params.k)
        assert (codec.decode(params, {n: word[n - 1] for n in (2, 3, 4)}) == word).all()
        cluster.build_repair_plan(params, 1, "new")
    finally:
        tracer.uninstall()
    assert cluster.build_repair_plan is original and metering.build_repair_plan is original
    totals = tracer.totals("cycle")
    assert totals["codec.decode"][0] == 1
    assert totals["repair.build_repair_plan"][0] == 1
    assert all(own >= 0 for own in tracer.self_times())
