"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, through run.py's
command line; checks that each run is correct and that its result line
carries exactly the metrics BENCHMARK.json names, with their units.  Then
it runs witness_sweep in process with one deliberately wrong expected
determinant and checks that the failure is counted.  Takes about 25 s;
exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(workload: str, trace: int, result: dict, expected: dict) -> None:
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert result["attempted"] >= 1, where
    metrics = result["metrics"]
    assert set(metrics) == set(expected), f"{where}: {sorted(set(metrics) ^ set(expected))}"
    for name, metric in metrics.items():
        assert set(metric) == {"value", "unit"}, f"{where}: {name}"
        assert metric["unit"] == expected[name], f"{where}: {name} unit {metric['unit']}"
        assert isinstance(metric["value"], (int, float)), f"{where}: {name}"


def check_wrong_answer_counted() -> None:
    """A wrong expected det M must count as a failed operation."""
    sys.path.insert(0, str(HERE))
    from common import Outcome, import_src_package
    import_src_package()
    import oracle
    import witness_sweep

    right = oracle.det_at
    calls = []

    def wrong_once(elimination, point):
        calls.append(point)
        value = right(elimination, point)
        return value + 1 if len(calls) == 1 else value

    oracle.det_at = wrong_once
    try:
        outcome = Outcome()
        witness_sweep.run(7, 1, False, outcome)
    finally:
        oracle.det_at = right
    assert outcome.failed == 1 and outcome.fail_ratio > 0, (outcome.failed, outcome.reasons)
    assert "det" in outcome.reasons[0], outcome.reasons


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            check_result(workload, trace, run_cli(workload, trace), expected)
            print(f"ok {workload} trace={trace}")
    check_wrong_answer_counted()
    print("ok wrong answer counted")
    return 0


if __name__ == "__main__":
    sys.exit(main())
