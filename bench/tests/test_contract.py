"""The command's output contract, checked against BENCHMARK.json."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(trace: int) -> dict:
    out = _run(ROOT, "--workload", "battery", "--seed", "0", "--seconds", "1",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    res = _result(0)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    res = _result(1)
    assert res["correct"]
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _run(tmp_path, "--workload", "battery", "--seed", "0", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert "correct" not in out.stdout


def test_tail_is_the_highest_percentile_with_ten_beyond():
    pct, value = run.tail([float(i) for i in range(1, 101)])
    assert (pct, value) == (90.0, 90.0)
