"""Short runs of the benchmark: every metric is printed with its unit.

    python3 -m pytest perfbench/test_smoke.py

Takes about a minute: each paper-profile workload still makes its keys.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# explore is not in BENCHMARK.json (some of its sessions fail a check), but it still runs.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["explore"]
E2E_PRINTED = {
    "setup_s": "s",
    "session_p50_ms": "ms",
    "session_tail_ms": "ms",
    "sessions_per_s": "1/s",
    "audit_p50_ms": "ms",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def check_result(proc: subprocess.CompletedProcess, declared: list[dict], printed: dict) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, unit in printed.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit for line in lines), name
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    result = check_result(proc, SPEC["end_to_end"], E2E_PRINTED)
    assert result["correct"]
    if workload != "explore":  # explore reports the audit/live disagreements it finds
        assert result["failed"] == 0


def test_traced_run_repeats_its_counts():
    runs = [bench("--workload", "explore", "--seed", "3", "--trace", "1") for _ in range(2)]
    declared = SPEC["per_layer"]
    first, second = (check_result(p, declared, {m["name"]: m["unit"] for m in declared}) for p in runs)
    for m in declared:
        if m["unit"] in ("count", "bytes"):
            assert first["metrics"][m["name"]] == second["metrics"][m["name"]], m["name"]
    assert first["metrics"]["cembs.encrypt_and_certify.mod_exp_per_call"]["value"] == 6
    assert first["metrics"]["keys.validate_params.calls"]["value"] == 1


def test_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
