"""Smoke test for the benchmark itself.

Runs the ``tiny`` workload (a 4-day trace, a few dozen requests per
rung, a small feed) untraced and traced, end to end, and checks the
result line against ``BENCHMARK.json``.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tiny",
         "--seed", "5", "--seconds", "4", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(trace: int) -> dict:
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("machine ")
    header = json.loads(lines[-2].split(" ", 1)[1])
    assert header["nproc"] >= 1 and header["seed"] == 5
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_untraced_run_prints_every_end_to_end_metric():
    metrics = _result(0)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0, spec["name"]


def test_traced_run_prints_every_per_layer_metric():
    metrics = _result(1)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    # The cold load splits into CSV ingest and the two columnar writes,
    # and the cold report shows e22's backend syntheses.
    for name in ("csvio.read_s", "cache.npz_write_s", "arena.write_s",
                 "synth.ras_s", "synth.scheduler_s", "experiment.e22_s"):
        assert metrics[name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
