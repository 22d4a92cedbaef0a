"""Self-tests of the benchmark: tiny smoke runs and the correctness gate.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, script=RUN):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_and_prints_every_end_to_end_metric(workload):
    rc, out = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    res = result(out)
    assert rc == 0, out
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_prints_every_per_layer_metric():
    rc, out = bench("--workload", "suite_bundled", "--seed", "5", "--seconds", "2", "--trace", "1")
    res = result(out)
    assert rc == 0, out
    assert set(res["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert res["metrics"]["classical.rrt_ms"]["value"] > 0


def checkout_copy(dest: Path, with_sources: bool = True) -> Path:
    """A copy of the benchmark (and the program's sources) to run from ``dest``."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest / "perfbench" / "run.py"


def test_corrupted_reference_digest_trips_the_gate(tmp_path):
    script = checkout_copy(tmp_path)
    refs_path = tmp_path / "perfbench" / "references.json"
    refs = json.loads(refs_path.read_text(encoding="utf-8"))
    digest = refs["suite_bundled"]
    refs["suite_bundled"] = ("0" if digest[0] != "0" else "1") + digest[1:]
    refs_path.write_text(json.dumps(refs), encoding="utf-8")
    rc, out = bench("--workload", "suite_bundled", "--seed", "1", "--seconds", "1", cwd=tmp_path, script=script)
    assert rc != 0
    assert result(out)["correct"] is False
    assert "reference digest mismatch" in out


def test_fails_without_the_program_sources(tmp_path):
    script = checkout_copy(tmp_path, with_sources=False)
    rc, out = bench("--workload", "suite_bundled", "--seed", "1", "--seconds", "1", cwd=tmp_path, script=script)
    assert rc != 0
    assert '"correct"' not in out


def test_swallowed_exception_row_counts_as_failed():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        from workload_suite import swallowed
    finally:
        del sys.path[:2]
    row = {"correct": "false", "planning_time_ms": "0.000", "scorer_wall_time_ms": "0.000"}
    assert swallowed(row)
    assert not swallowed({**row, "planning_time_ms": "0.004"})
    assert not swallowed({**row, "correct": "true"})
