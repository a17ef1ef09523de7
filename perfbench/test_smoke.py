"""Smoke test of the benchmark: every declared metric is emitted, and a
corrupted reference digest is reported as failed ops.

    python3 -m pytest perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload: str, trace: int) -> None:
    result = run_bench(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)


@pytest.mark.parametrize("workload", ["corpus", "analyze"])
def test_corrupted_reference_fails_ops(workload: str, tmp_path: Path) -> None:
    refs = json.loads((HERE / "references.json").read_text())
    for entry in refs[workload].values():
        entry["digest"] = "0" * len(entry["digest"])
    bad = tmp_path / "references.json"
    bad.write_text(json.dumps(refs))
    result = run_bench(workload, 0, "--references", str(bad))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
