"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(run.SRC))


@pytest.fixture(autouse=True)
def scratch_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(run, "RESULTS", tmp_path / "results")
    (tmp_path / "results").mkdir()
    (tmp_path / "work").mkdir()
    return tmp_path


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], vertices=12, interactions=400)


def test_units_match_benchmark_json():
    assert run.END_TO_END == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.PER_LAYER == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_printed_with_unit(name, trace, scratch_dirs, capsys):
    tally = run.Tally()
    metrics = run.bench(tiny(name), 3, 0.05, trace, scratch_dirs / "work", tally, env={})
    units = run.PER_LAYER if trace else run.END_TO_END
    assert metrics.keys() == units.keys()
    assert tally.failed == 0 and tally.attempted > 1
    printed = capsys.readouterr().out
    for metric, unit in units.items():
        assert f"{name} {metric} = " in printed
        line = next(ln for ln in printed.splitlines() if ln.startswith(f"{name} {metric} = "))
        assert f" {unit}" in line
    if not trace:
        assert all(v > 0 for v in metrics.values())


def test_corrupted_snapshot_counts_as_failed_run(scratch_dirs, monkeypatch):
    real_run_cli = run.run_cli

    def corrupting_run_cli(w, input_path, out, work):
        result = real_run_cli(w, input_path, out, work)
        header, first, *rest = out.read_text().splitlines()
        vertex, origin, quantity = first.split(",")[:3]
        first = ",".join([vertex, origin, repr(float(quantity) + 1.0), *first.split(",")[3:]])
        out.write_text("\n".join([header, first, *rest]) + "\n")
        return result

    monkeypatch.setattr(run, "run_cli", corrupting_run_cli)
    tally = run.Tally()
    run.bench(tiny("fifo-uniform"), 3, 0.05, False, scratch_dirs / "work", tally, env={})
    # the oracle child and every measured child failed; calibration and
    # import-only children passed
    runs = tally.failed - 1
    imports = (runs + 1) // 2
    assert runs >= run.MIN_RUNS and tally.attempted == 1 + 2 * runs + imports


def test_last_line_is_the_result():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "noprov-uniform",
         "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result.keys() == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for src in run.HERE.glob("*.py"):
        shutil.copy(src, bench_dir)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fifo-uniform", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
