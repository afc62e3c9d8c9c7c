"""Tests of the benchmark itself, at reduced workload sizes.

Each test runs perfbench/run.py in a subprocess, as the benchmark is meant
to be run, so that its fresh imports of timeloc never mix with the modules
other tests have loaded.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
SMALL = {
    "cli-pipeline": {"days": 9},
    "mining-fleet": {"fleet": 3},
    "phone-replay": {"days": 21},
}

sys.path.insert(0, str(HERE))
import bench_tracer  # noqa: E402
import reference  # noqa: E402


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "0", "--seconds", "0",
           "--params", json.dumps(SMALL), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_all():
    proc = run_bench("--workload", "all", "--trace", "1")
    return proc.stdout, result_of(proc)


def test_every_metric_printed_with_its_unit(traced_all):
    stdout, result = traced_all
    assert result["correct"] and result["failed"] == 0
    blocks = stdout.split("workload ")[1:]
    for name, block in zip(SPEC["workloads"], blocks):
        assert block.startswith(f"{name} ")
        for metric, info in SPEC["end_to_end"].items():
            if name in info["workloads"]:
                assert any(
                    line.split()[:1] == [metric] and info["unit"] in line.split()
                    for line in block.splitlines()
                ), f"{name}: {metric} [{info['unit']}] not printed"
        for metric, unit in bench_tracer.LAYER_METRICS:
            assert f"{name}.{metric}" in result["metrics"]
            assert result["metrics"][f"{name}.{metric}"]["unit"] == unit
            assert any(line.split()[:1] == [metric] and line.split()[-1] == unit
                       for line in block.splitlines())


def test_self_times_and_gap_account_for_traced_run_s(traced_all):
    _, result = traced_all
    m = {k: v["value"] for k, v in result["metrics"].items()}
    for name in SPEC["workloads"]:
        parts = [
            m[f"{name}.{metric}"] for metric, unit in bench_tracer.LAYER_METRICS
            if unit == "s" and not metric.startswith("bench.")
        ]
        total = sum(parts) + m[f"{name}.bench.unattributed_s"]
        assert total == pytest.approx(m[f"{name}.bench.traced_run_s"], rel=1e-6)
        assert m[f"{name}.bench.unattributed_s"] < 0.1 * m[f"{name}.bench.traced_run_s"]


def test_wrong_expected_digest_raises_failed_frac(tmp_path):
    name = "mining-fleet"
    params = {**SPEC["workloads"][name]["params"], **SMALL[name]}
    wrong = {name: {"params": params, "seeds": {"0": {"winners": "0" * 64}}}}
    digests = tmp_path / "digests.json"
    digests.write_text(json.dumps(wrong), encoding="utf-8")
    proc = run_bench("--workload", name, "--digests", str(digests))
    result = result_of(proc)
    assert not result["correct"] and result["failed"] > 0
    failed_frac = next(line for line in proc.stdout.splitlines() if line.split()[:1] == ["failed_frac"])
    assert float(failed_frac.split()[1]) > 0
    assert "MISMATCH" in proc.stdout


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "mining-fleet", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_run_py_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(SPEC["workloads"])
    gated = [m for m, info in SPEC["end_to_end"].items() if info.get("gated")]
    assert [m["name"] for m in bench["end_to_end"]] == gated
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(bench_tracer.LAYER_METRICS)


def test_gauge_keeps_reference_blocks_out_of_the_pass():
    gauge = reference.Gauge()
    t0 = time.perf_counter()
    gauge.start()
    for _ in range(3):
        time.sleep(reference.SEGMENT_S)
        gauge.tick()
    wall_s, norm_s = gauge.finish()
    elapsed = time.perf_counter() - t0
    assert 3 * reference.SEGMENT_S <= wall_s < 3 * reference.SEGMENT_S + 0.2
    assert elapsed > wall_s  # four reference blocks ran outside the pass
    assert norm_s > 0

    off = reference.Gauge(enabled=False)
    off.start()
    time.sleep(0.05)
    off.tick()
    wall_s, norm_s = off.finish()
    assert norm_s == wall_s >= 0.05
