"""Self-checks of the benchmark harness.

    python3 -m pytest -q bench/test_bench.py

They run the benchmark on short settings; they are not part of the
package's own test suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calibrate
import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
# Per-layer counts that must repeat exactly between traced runs of one seed.
COUNT_METRICS = [name for name, unit in run.PER_LAYER.items() if unit == "count" or name.endswith("hit_ratio")]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170, check=False
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    args = ("--workload", workload, "--seed", "5", "--seconds", "2", "--trace", "1")
    first, second = result_of(bench(*args)), result_of(bench(*args))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == set(run.PER_LAYER)
    counts = {name: first["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNT_METRICS}


def test_untraced_run_reports_every_end_to_end_metric():
    proc = bench("--workload", "young_moduli", "--seed", "2", "--seconds", "1", "--trace", "0")
    result = result_of(proc)
    meta = json.loads(proc.stdout.strip().splitlines()[-2])
    assert set(meta["wall_clock"]) == {"setup_s", "items_per_s", "item_p50_s", "item_tail_s"}
    assert meta["reference_chunks"] > 0 and meta["host_speed"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


def test_benchmark_json_names_the_per_layer_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_clock_scales_by_the_nearest_chunks():
    clock = calibrate.Clock()
    clock.samples = [0.001, 0.002, 0.004, 0.008, 0.016, 0.032, 0.064]
    assert clock.scale(0) == pytest.approx(calibrate.REFERENCE_S / 0.004)
    assert clock.scale(3) == pytest.approx(calibrate.REFERENCE_S / 0.008)
    assert clock.scale(7) == pytest.approx(calibrate.REFERENCE_S / 0.016)
    clock.tick()
    assert len(clock.samples) == 8 and clock.samples[-1] > 0


def test_tracer_wraps_every_binding_and_restores_them():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        lib = run.fresh_import()
        original_rank = lib.linalg.rank
        assert spans.untraced_bindings()
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert spans.untraced_bindings() == []
            assert lib.preproj.rank is lib.linalg.rank is lib.moduli.rank is lib.package.rank
            assert lib.preproj.rank is not original_rank
        finally:
            tracer.uninstall()
        assert lib.preproj.rank is original_rank and lib.moduli.rank is original_rank
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_aggregate_self_time_and_outer_calls():
    # decompose [0, 10] -> split [1, 7] -> end_algebra [2, 5] -> rank [3, 4];
    # decompose [7, 9] nested in the first decompose; rank [9.5, 9.75] under
    # is_isomorphic [9.25, 10] counts as an invertibility attempt.
    spans_ = [
        ["preproj.decompose", 0.0, 10.0, -1, {"summands": 2}],
        ["preproj.split", 1.0, 7.0, 0, {"hit": 1}],
        ["preproj.end_algebra", 2.0, 5.0, 1, {"dim": 4}],
        ["linalg.elim.rank", 3.0, 4.0, 2, {"rows": 2, "cols": 3, "nnz": 4}],
        ["preproj.decompose", 7.0, 9.0, 0, {"summands": 1}],
        ["preproj.is_isomorphic", 9.25, 10.0, 0, None],
        ["linalg.elim.rank", 9.5, 9.75, 5, {"rows": 1, "cols": 5, "nnz": 1}],
    ]
    agg = spans.aggregate(spans_)
    assert agg["preproj.decompose"]["calls"] == 1
    assert agg["preproj.decompose"]["s"] == 10.0
    assert agg["preproj.decompose"]["summands"] == 2
    assert agg["preproj.decompose"]["self_s"] == pytest.approx((10 - 6 - 2 - 0.75) + 2)
    assert agg["preproj.split"]["self_s"] == pytest.approx(3.0)
    assert agg["linalg.elim"]["calls"] == 2 and agg["linalg.elim"]["max_cols"] == 5
    assert agg["preproj.is_isomorphic"]["rank_calls"] == 1
    assert sum(g["self_s"] for g in agg.values()) == pytest.approx(10.0)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
