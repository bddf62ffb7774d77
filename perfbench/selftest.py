"""Self-test of the benchmark: every workload at a tiny size, in seconds.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json it runs `run.py --tiny` untraced and
traced, and asserts that the last line carries exactly the metrics that
BENCHMARK.json names, each with its unit, and that the outputs checked
correct. From the traced run's span file it asserts that spans nest
(each child lies inside its parent, in the same pass) and that self times
are non-negative. Last, it asserts that a directory holding only
BENCHMARK.json and the benchmark exits non-zero without a result.
Exits 1 on the first failed assertion.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SPAN_TOLERANCE_S = 1e-9  # float rounding of perf_counter differences


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True, timeout=300
    )


def check_result(workload: str, trace: int, expected: dict[str, str]) -> None:
    proc = run([str(RUN), "--workload", workload, "--seed", "0", "--seconds", "1",
                "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, f"{workload} trace={trace}:\n{proc.stdout}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0, f"{workload} trace={trace}: failed\n{proc.stdout}"
    metrics = result["metrics"]
    assert set(metrics) == set(expected), (
        f"{workload} trace={trace}: missing {sorted(set(expected) - set(metrics))}, "
        f"extra {sorted(set(metrics) - set(expected))}"
    )
    for name, unit in expected.items():
        value = metrics[name]["value"]
        assert metrics[name]["unit"] == unit, f"{name}: unit {metrics[name]['unit']} != {unit}"
        assert isinstance(value, (int, float)) and math.isfinite(value), f"{name}: {value}"


def check_spans(workload: str) -> int:
    path = ROOT / ".perfbench_work" / "traces" / f"{workload}-seed0.json"
    spans = json.loads(path.read_text())
    start, end, parent, pass_of = spans["start_s"], spans["end_s"], spans["parent"], spans["pass"]
    assert start, f"{workload}: no spans"
    for i, p in enumerate(parent):
        assert end[i] >= start[i], f"{workload}: span {i} ends before it starts"
        if p < 0:
            continue
        assert p < i, f"{workload}: span {i} has a later parent {p}"
        assert pass_of[p] == pass_of[i], f"{workload}: span {i} crosses passes"
        assert start[p] <= start[i] and end[i] <= end[p], f"{workload}: span {i} not inside {p}"
    assert min(spans["self_s"]) >= -SPAN_TOLERANCE_S, f"{workload}: negative self time"
    return len(start)


def check_refuses_without_sources() -> None:
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(RUN.parent, bare / RUN.parent.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run([f"{RUN.parent.name}/run.py", "--workload", "scan_7x2500", "--seed", "0",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "ran without mrpairs sources"
        assert '"metrics"' not in proc.stdout, "printed a result without mrpairs sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            check_result(workload, 0, end_to_end)
            check_result(workload, 1, per_layer)
            n_spans = check_spans(workload)
            print(f"ok {workload}: {len(end_to_end)} end-to-end and {len(per_layer)} "
                  f"per-layer metrics, {n_spans} spans nest")
        check_refuses_without_sources()
        print("ok refuses to run without mrpairs sources")
    except AssertionError as exc:
        print(f"FAILED {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
